import dataclasses
import itertools
import math
import random
import re
import sys
from fractions import Fraction
from functools import reduce
from operator import add, mul

import numpy as np
import pytest

from traitmt.align import PhraseTable
from traitmt.decoder import (
    DEFAULT_FLOOR,
    MAX_OPTIONS_PER_SPAN,
    DecodeResult,
    FeatureLayout,
    TranslationOption,
    _coverage_future,
    _future_costs,
    _score,
    build_options,
    decode,
    format_nbest,
    read_weights,
    write_weights,
)
from traitmt.lm import BOS, EOS, train_kn_lm


# a stack size no stack reaches: the beam keeps every hypothesis
UNPRUNED = sys.maxsize


def make_lm(sentences=None, order=2):
    if sentences is None:
        sentences = [("x", "y", "z"), ("x", "y"), ("z", "x")] * 2
    return train_kn_lm(sentences, order=order, unk_threshold=0)


def table_from(entries):
    return PhraseTable(
        {tuple(s.split()): {tuple(t.split()): sc for t, sc in row.items()} for s, row in entries.items()}
    )


def oracle_decode(sentence, options, weights, lms, layout, distortion_limit):
    """Exhaustive enumeration of every segmentation, ordering and option
    choice within the jump limit and the reachability rule, scored from
    scratch.  The rule rejects an expansion that does not complete the
    sentence when the leftmost uncovered position it leaves lies more than
    distortion_limit from its end."""
    n = len(sentence)
    full = (1 << n) - 1
    weights = np.asarray(weights, dtype=float)
    best = None

    def finish(chosen):
        nonlocal best
        feats = np.zeros(layout.dimension)
        target = []
        prev = 0
        dist = 0
        for span, opt in chosen:
            feats += np.asarray(opt.features)
            dist += abs(span[0] - prev)
            prev = span[1]
            target.extend(opt.tgt)
        feats[layout.distortion] = dist
        for k, lm in enumerate(lms):
            feats[layout.lm_feature(k)] = lm.extend(lm.start_state, tuple(target) + (EOS,))[0]
        score = _score(weights, feats)
        key = (-score, tuple(target))
        if best is None or key < best[0]:
            best = (key, tuple(target), score, feats)

    def rec(coverage, last_end, chosen):
        if coverage == full:
            finish(chosen)
            return
        for span, opts in options.items():
            start, end = span
            mask = ((1 << (end - start)) - 1) << start
            if coverage & mask:
                continue
            if abs(start - last_end) > distortion_limit:
                continue
            gaps = [i for i in range(n) if not (coverage | mask) >> i & 1]
            if gaps and abs(gaps[0] - end) > distortion_limit:
                continue
            for opt in opts:
                rec(coverage | mask, end, chosen + [(span, opt)])

    rec(0, 0, [])
    return best


@dataclasses.dataclass
class RefHypothesis:
    coverage: int
    last_end: int
    lm_states: tuple
    score: float
    future: float
    target: tuple
    parent: "RefHypothesis | None"
    option: object
    jump: int
    lm_scores: tuple

    def sort_key(self):
        # a strict total order: (coverage, last_end, lm_states) is the
        # recombination key, unique within a stack
        return (-(self.score + self.future), self.target,
                self.coverage, self.last_end, self.lm_states)


def reference_beam_decode(sentence, options, weights, lms, layout, stack_size=100,
                          distortion_limit=6, nbest_size=1):
    """The decoder's search by brute force.  For each stack c, every
    expansion of a kept hypothesis of a stack c - L by a span of L words,
    within the jump limit and the reachability rule, and by each of the
    span's options is a candidate.  The candidates are sorted on
    (-estimate, source stack, the hypothesis's rank in its stack, span
    start, span end, option rank), where the estimate is ((score + w_dist *
    jump) + static score) + future cost and the option rank orders a span's
    options on (-static score, target), stably.  The first stack_size are
    scored from scratch and recombined in that order."""
    sentence = tuple(sentence)
    weights = np.asarray(weights, dtype=float)
    n = len(sentence)
    lm_weights = [float(weights[layout.lm_feature(k)]) for k in range(len(lms))]
    dist_weight = float(weights[layout.distortion])

    direct = {}
    for span, opts in options.items():
        best = -math.inf
        for opt in opts:
            score = _score(weights, opt.features)
            for w_lm, lm in zip(lm_weights, lms):
                unigrams = 0.0
                for w in opt.tgt:
                    unigrams += lm.log10_prob(w)
                score += w_lm * unigrams
            best = max(best, score)
        direct[span] = best
    fc = [[-math.inf] * (n + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        fc[i][i] = 0.0
    for length in range(1, n + 1):
        for i in range(0, n - length + 1):
            j = i + length
            best = direct.get((i, j), -math.inf)
            for k in range(i + 1, j):
                best = max(best, fc[i][k] + fc[k][j])
            fc[i][j] = best

    def coverage_future(coverage):
        total, i = 0.0, 0
        while i < n:
            if coverage & (1 << i):
                i += 1
                continue
            j = i
            while j < n and not (coverage & (1 << j)):
                j += 1
            total += fc[i][j]
            i = j
        return total

    plan = []
    for (start, end), opts in options.items():
        mask = ((1 << (end - start)) - 1) << start
        ranked = sorted(((o, _score(weights, o.features)) for o in opts),
                        key=lambda ow: (-ow[1], ow[0].tgt))
        plan.append((start, end, mask, ranked))

    init_states = tuple(lm.start_state for lm in lms)
    kept = [[RefHypothesis(0, 0, init_states, 0.0, coverage_future(0), (), None, None, 0, ())]]
    full_mask = (1 << n) - 1
    for covered in range(1, n + 1):
        candidates = []
        for source in range(covered):
            for rank, hyp in enumerate(kept[source]):
                for start, end, mask, ranked in plan:
                    if end - start != covered - source or hyp.coverage & mask:
                        continue
                    jump = abs(start - hyp.last_end)
                    if jump > distortion_limit:
                        continue
                    coverage = hyp.coverage | mask
                    gaps = [i for i in range(n) if not coverage >> i & 1]
                    if gaps and abs(gaps[0] - end) > distortion_limit:
                        continue
                    for opt_rank, (opt, w_static) in enumerate(ranked):
                        estimate = (hyp.score + dist_weight * jump + w_static
                                    + coverage_future(coverage))
                        candidates.append(((-estimate, source, rank, start, end, opt_rank),
                                           hyp, end, coverage, jump, opt, w_static))
        candidates.sort(key=lambda c: c[0])
        stack = {}
        for _, hyp, end, coverage, jump, opt, w_static in candidates[:stack_size]:
            score = hyp.score + dist_weight * jump + w_static
            new_states, lm_scores = [], []
            for k, lm in enumerate(lms):
                lm_delta, state = lm.extend(hyp.lm_states[k], opt.tgt)
                if coverage == full_mask:
                    lm_delta += lm.extend(state, (EOS,))[0]
                lm_scores.append(lm_delta)
                new_states.append(state)
                score += lm_weights[k] * lm_delta
            key = (coverage, end, tuple(new_states))
            incumbent = stack.get(key)
            target = hyp.target + opt.tgt
            if (
                incumbent is None
                or score > incumbent.score
                or (score == incumbent.score and target < incumbent.target)
            ):
                stack[key] = RefHypothesis(
                    coverage, end, key[2], score, coverage_future(coverage),
                    target, hyp, opt, jump, tuple(lm_scores))
        kept.append(sorted(stack.values(), key=RefHypothesis.sort_key))
    if not kept[n]:
        raise RuntimeError("no complete hypothesis")
    results, seen = [], set()
    for hyp in kept[n]:
        if hyp.target in seen:
            continue
        seen.add(hyp.target)
        feats = np.zeros(layout.dimension)
        node = hyp
        while node.parent is not None:
            feats += np.asarray(node.option.features)
            feats[layout.distortion] += node.jump
            for k, s in enumerate(node.lm_scores):
                feats[layout.lm_feature(k)] += s
            node = node.parent
        results.append(DecodeResult(hyp.target, feats, hyp.score))
        if len(results) >= nbest_size:
            break
    return results


def assert_same_nbest(got, want):
    assert [r.target for r in got] == [r.target for r in want]
    assert [r.score for r in got] == [r.score for r in want]
    for g, w in zip(got, want):
        assert np.array_equal(g.features, w.features)


def assert_option_order_free(sentence, options, weights, lms, **kwargs):
    """decode matches the reference beam on the options as given and with
    the spans and every span's list reversed, and the reversal moves no
    n-best target, score or feature vector."""
    flipped = {span: opts[::-1] for span, opts in reversed(options.items())}
    got = decode(sentence, options, weights, lms, **kwargs)
    assert_same_nbest(got, reference_beam_decode(sentence, options, weights, lms, **kwargs))
    got_flipped = decode(sentence, flipped, weights, lms, **kwargs)
    assert_same_nbest(got_flipped,
                      reference_beam_decode(sentence, flipped, weights, lms, **kwargs))
    assert_same_nbest(got_flipped, got)


def per_bit_coverage_future(fc, coverage, n):
    """Walk the positions one bit at a time, adding fc[i][j] for each
    maximal uncovered run i..j, left to right."""
    total, i = 0.0, 0
    while i < n:
        if coverage & (1 << i):
            i += 1
            continue
        j = i
        while j < n and not (coverage & (1 << j)):
            j += 1
        total += fc[i][j]
        i = j
    return total


class TestCoverageFuture:
    def test_matches_per_bit_walk_on_every_coverage(self):
        # magnitudes from 1e-6 to 1e6, so that adding the runs in another
        # order would round differently
        rng = random.Random(12)
        for n in range(1, 13):
            fc = [[rng.choice((-1.0, 1.0)) * rng.random() * 10.0 ** rng.randint(-6, 6)
                   for _ in range(n + 1)] for _ in range(n + 1)]
            for coverage in range(1 << n):
                assert _coverage_future(fc, coverage, n) == \
                    per_bit_coverage_future(fc, coverage, n), (n, coverage)

    def test_unigram_estimate_adds_left_to_right(self):
        # from Python 3.12 the built-in sum compensates rounding, and these
        # three log10s then add to exactly -0.6
        log10s = {"x": -0.1, "y": -0.2, "z": -0.3}

        class UnigramLm:
            def log10_prob(self, word, context=()):
                return log10s[word]

        left_fold = (-0.1 + -0.2) + -0.3
        assert left_fold != math.fsum(log10s.values())
        options = {(0, 1): [TranslationOption(("x", "y", "z"), ())]}
        fc = _future_costs(options, {(0, 1): [0.0]}, [1.0], [UnigramLm()], 1)
        assert fc[0][1] == left_fold


def exact_dot(weights, features):
    """The exact dot product, rounded once to a float."""
    return float(sum(Fraction(w) * Fraction(f) for w, f in zip(weights, features)))


class TestScore:
    def test_left_to_right_sum_loses_what_score_keeps(self):
        weights, features = (1.0, 1.0, 1.0), (1e16, 1.0, -1e16)
        assert reduce(add, map(mul, weights, features)) == 0.0
        assert _score(weights, features) == exact_dot(weights, features) == 1.0

    def test_order_free_and_exact_on_mixed_magnitudes(self):
        # products from ~1e-9 to ~1e22, with one pair that cancels, so that
        # a left-to-right sum loses the small terms in some orders.  Mantissas
        # of at most 21 bits make every product exact, so the exact dot
        # product is the exact sum of the products _score adds
        rng = random.Random(46)
        left_folds_off = 0
        for trial in range(40):
            weights = [rng.randint(-2**20, 2**20) * 2.0 ** rng.randint(-20, 0)
                       for _ in range(rng.randint(1, 4))]
            features = [rng.randint(-2**20, 2**20) * 2.0 ** rng.choice((-10, 0, 33))
                        for _ in weights]
            big = rng.randint(1, 2**20) * 2.0 ** 33
            weights += [1.0, 1.0]
            features += [big, -big]
            pairs = list(zip(weights, features))
            assert all(Fraction(w * f) == Fraction(w) * Fraction(f) for w, f in pairs)
            want = exact_dot(weights, features)
            for perm in itertools.permutations(pairs):
                w, f = zip(*perm)
                assert _score(w, f) == want, (trial, perm)
                left_folds_off += reduce(add, map(mul, w, f)) != want
        assert left_folds_off


class TestBuildOptions:
    def test_indicator_block_placement(self):
        empty = table_from({})
        t2 = table_from({"a": {"x": (0.5, 0.5, 0.5, 0.5)}})
        layout = FeatureLayout(3, 1)
        options = build_options(("a",), [empty, empty, t2], layout, layout.default_weights())
        opts = options[(0, 1)]
        real = [o for o in opts if any(o.features[layout.indicator(k)] for k in range(3))]
        assert len(real) == 1
        feats = np.asarray(real[0].features)
        assert feats[layout.indicator(2)] == 1.0
        assert feats[layout.indicator(0)] == 0.0
        np.testing.assert_allclose(feats[layout.table_block(0)], DEFAULT_FLOOR)

    def test_same_pair_in_two_tables_gives_two_options(self):
        t = table_from({"a": {"x": (0.5, 0.5, 0.5, 0.5)}})
        layout = FeatureLayout(2, 1)
        options = build_options(("a",), [t, t], layout, layout.default_weights())
        indicators = sorted([o.features[layout.indicator(k)] for k in range(2)]
                            for o in options[(0, 1)])
        assert indicators == [[0.0, 1.0], [1.0, 0.0]]

    def test_oov_passthrough(self):
        # every option, matched or passed through, holds one Python float
        # per feature: a table block takes a row's four scores
        t = table_from({"a": {"x": (1.0, 1.0, 1.0, 1.0)}})
        for layout in (FeatureLayout(1, 1), FeatureLayout(2, 2)):
            options = build_options(("a", "qux"), [t] * layout.n_tables, layout,
                                    layout.default_weights())
            assert len(options[(0, 1)]) == layout.n_tables
            for opt in itertools.chain.from_iterable(options.values()):
                assert len(opt.features) == layout.dimension
                assert all(type(v) is float for v in opt.features)
            opt = options[(1, 2)][0]
            assert opt.tgt == ("qux",)
            feats = np.asarray(opt.features)
            for k in range(layout.n_tables):
                np.testing.assert_allclose(feats[layout.table_block(k)], DEFAULT_FLOOR)
                assert feats[layout.indicator(k)] == 0.0

    def test_per_span_cap(self):
        row = {f"t{i}": (0.5 - i * 0.001, 0.5, 0.5, 0.5)
               for i in range(MAX_OPTIONS_PER_SPAN + 10)}
        t = table_from({"a": row})
        layout = FeatureLayout(1, 1)
        options = build_options(("a",), [t], layout, layout.default_weights())
        kept = [o.tgt for o in options[(0, 1)]]
        assert kept == [(f"t{i}",) for i in range(MAX_OPTIONS_PER_SPAN)]

    def test_table_count_must_match_layout(self):
        # else the second table's scores would land in lm0, lm1 and the
        # penalties, and its indicator in distortion
        t = table_from({"a": {"x": (0.5,) * 4}})
        layout = FeatureLayout(1, 2)
        with pytest.raises(ValueError, match="^2 phrase tables for a layout of 1$"):
            build_options(("a",), [t, t], layout, layout.default_weights())

    def test_weight_count_must_match_layout(self):
        # else an option would be scored on the features up to the shorter
        # length only
        t = table_from({"a": {"x": (0.5,) * 4}})
        layout = FeatureLayout(1, 1)
        with pytest.raises(ValueError, match=rf"^3 weights for a layout of {layout.dimension} features$"):
            build_options(("a",), [t], layout, np.ones(3))


class TestDecode:
    def simple_system(self):
        table = table_from(
            {
                "a": {"x": (0.9, 0.9, 0.9, 0.9), "y": (0.1, 0.1, 0.1, 0.1)},
                "b": {"y": (0.8, 0.8, 0.8, 0.8)},
                "a b": {"x y": (0.7, 0.7, 0.7, 0.7)},
            }
        )
        lm = make_lm()
        layout = FeatureLayout(1, 1)
        return table, lm, layout

    def test_single_word_sentence(self):
        table, lm, layout = self.simple_system()
        weights = layout.default_weights()
        options = build_options(("a",), [table], layout=layout, weights=weights)
        result = decode(("a",), options, weights, [lm], layout=layout)[0]
        assert result.target == ("x",)
        assert result.score == pytest.approx(float(weights @ result.features), abs=1e-9)

    def test_score_equals_weights_dot_features(self):
        table, lm, layout = self.simple_system()
        weights = layout.default_weights()
        options = build_options(("a", "b"), [table], layout=layout, weights=weights)
        for res in decode(("a", "b"), options, weights, [lm], layout=layout, nbest_size=10):
            assert res.score == pytest.approx(float(weights @ res.features), abs=1e-9)

    def test_matches_exhaustive_search(self):
        rng = random.Random(5)
        src_words = ["a", "b", "c"]
        tgt_words = ["x", "y", "z"]
        lm = make_lm()
        layout = FeatureLayout(2, 1)
        for trial in range(30):
            entries1, entries2 = {}, {}
            for s in src_words + ["a b", "b c", "c a"]:
                for entries in (entries1, entries2):
                    if rng.random() < 0.7:
                        entries[s] = {
                            " ".join(rng.sample(tgt_words, rng.randint(1, 2))): tuple(
                                rng.uniform(0.05, 1.0) for _ in range(4)
                            )
                            for _ in range(rng.randint(1, 2))
                        }
            tables = [table_from(entries1), table_from(entries2)]
            n = rng.randint(1, 4)
            sentence = tuple(rng.choice(src_words) for _ in range(n))
            weights = layout.default_weights() + rng.uniform(-0.3, 0.3)
            dlimit = rng.choice([0, 1, 6])
            options = build_options(sentence, tables, layout=layout, weights=weights)
            got = decode(
                sentence, options, weights, [lm],
                stack_size=UNPRUNED, distortion_limit=dlimit, layout=layout,
            )[0]
            best = oracle_decode(sentence, options, weights, [lm], layout, dlimit)
            assert got.target == best[1], (trial, sentence)
            assert got.score == pytest.approx(best[2], abs=1e-9)

    @pytest.mark.parametrize("stack_size", [1, 2, 3, 5])
    @pytest.mark.parametrize("distortion_limit", [-1, 0, 1, 3])
    def test_pruned_search_matches_reference_beam(self, stack_size, distortion_limit):
        # distortion_limit -1 stands for unlimited: the sentence length.
        # Sentences are long enough that the pop limit cuts most stacks'
        # candidates.  A negative LM weight or positive backoff weights let
        # LM scoring raise a value above its estimate; uniform tables force
        # exact ties on estimates, which the pops break on (source stack,
        # rank, span, option rank), and on values, which the stacks break
        # on the recombination key; zero LM weights make every estimate its
        # value; options built under other weights, or reversed, reach
        # decode out of static-score order, and decode must sort them
        # before a span may push its options one at a time.
        rng = random.Random(1000 * stack_size + distortion_limit)
        src_words = ["a", "b", "c", "d"]
        tgt_words = ["w", "x", "y", "z"]
        for trial in range(12):
            uniform = trial % 3 == 2
            lms = [make_lm([tuple(rng.choices(tgt_words, k=rng.randint(1, 5)))
                            for _ in range(8)], order=rng.choice([1, 2, 3]))
                   for _ in range(rng.randint(1, 2))]
            tables = []
            for _ in range(rng.randint(1, 2)):
                entries = {}
                for s in src_words + ["a b", "b c", "c d", "d a", "a b c"]:
                    if rng.random() < 0.7:
                        entries[s] = {
                            " ".join(rng.choices(tgt_words, k=rng.randint(1, 2))):
                                (0.5,) * 4 if uniform
                                else tuple(rng.uniform(0.05, 1.0) for _ in range(4))
                            for _ in range(rng.randint(1, 3))
                        }
                tables.append(table_from(entries))
            layout = FeatureLayout(len(tables), len(lms))
            weights = layout.default_weights() + np.array(
                [rng.uniform(-0.3, 0.3) for _ in range(layout.dimension)])
            if uniform:
                weights[layout.distortion] = rng.choice([0.0, -0.5])
            if trial % 4 == 1:
                weights[layout.lm_feature(0)] = -0.4
            if trial % 4 == 3:
                for k in range(len(lms)):
                    weights[layout.lm_feature(k)] = 0.0
            if trial % 6 == 4:
                contexts = {gram[:-1] for gram in lms[0].grams}
                lms[0] = dataclasses.replace(lms[0], grams={
                    gram: (logp, 2.0 if gram in contexts else bow)
                    for gram, (logp, bow) in lms[0].grams.items()})
            sentence = tuple(rng.choices(src_words, k=rng.randint(4, 8)))
            build_weights = weights if trial % 2 else layout.default_weights()
            options = build_options(sentence, tables, layout=layout, weights=build_weights)
            kwargs = dict(stack_size=stack_size, layout=layout, nbest_size=10,
                          distortion_limit=len(sentence) if distortion_limit < 0
                          else distortion_limit)
            assert_option_order_free(sentence, options, weights, lms, **kwargs)

    def test_estimates_add_in_decode_order(self):
        # weights and table scores drawn from a few decimals give sums that
        # round differently when added in another order, so that some
        # candidates' estimates tie or cross at the pop limit only in one
        # order.  decode must add ((score + w_dist * jump) + static) +
        # future for a pair's first option and for each next one, as the
        # reference does
        rng = random.Random(1)
        src_words = ["a", "b", "c", "d"]
        tgt_words = ["w", "x", "y", "z"]
        for trial in range(25):
            lms = [make_lm([tuple(rng.choices(tgt_words, k=rng.randint(1, 5)))
                            for _ in range(8)], order=rng.choice([1, 2, 3]))
                   for _ in range(rng.randint(1, 2))]
            uniform = rng.random() < 0.5
            tables = []
            for _ in range(rng.randint(1, 2)):
                entries = {}
                for s in src_words + ["a b", "b c", "c d", "d a", "a b c"]:
                    if rng.random() < 0.7:
                        entries[s] = {
                            " ".join(rng.choices(tgt_words, k=rng.randint(1, 2))):
                                (rng.choice([0.1, 0.3, 0.7]),) * 4 if uniform
                                else tuple(rng.uniform(0.05, 1.0) for _ in range(4))
                            for _ in range(rng.randint(1, 3))
                        }
                tables.append(table_from(entries))
            layout = FeatureLayout(len(tables), len(lms))
            weights = np.array([rng.choice([0.1, 0.2, 0.3, 0.7, 1.0, -0.1, -0.3])
                                for _ in range(layout.dimension)])
            if rng.random() < 0.5:
                for k in range(len(lms)):
                    weights[layout.lm_feature(k)] = 0.0
            sentence = tuple(rng.choices(src_words, k=rng.randint(4, 8)))
            options = build_options(sentence, tables, layout=layout, weights=weights)
            for stack_size, distortion_limit in itertools.product((2, 3), (len(sentence), 1, 2)):
                kwargs = dict(stack_size=stack_size, distortion_limit=distortion_limit,
                              layout=layout, nbest_size=10)
                assert_same_nbest(decode(sentence, options, weights, lms, **kwargs),
                                  reference_beam_decode(sentence, options, weights, lms,
                                                        **kwargs))

    def test_ties_rank_on_recombination_key(self):
        # only the unigram LM counts, so hypotheses over different "a"s tie
        # on value and target, and candidates on their estimates.  A stack
        # ranks tied hypotheses on their recombination keys, and the pops
        # break ties on the source hypothesis's rank, so which candidates a
        # full stack pops does not depend on the order of `options`
        u = (0.5,) * 4
        table = table_from({"a": {"w w": u, "z x": u}, "a a": {"x": u, "x w": u}})
        lms = [make_lm([("z", "w", "x")], order=2), make_lm([("w", "w", "w"), ("y",)], order=1)]
        layout = FeatureLayout(1, 2)
        weights = np.zeros(layout.dimension)
        weights[layout.lm_feature(1)] = 1.0
        sentence = ("a", "a", "a")
        options = build_options(sentence, [table], layout=layout, weights=weights)
        assert_option_order_free(sentence, options, weights, lms, stack_size=2,
                                 distortion_limit=3, layout=layout, nbest_size=5)

    def test_equal_static_scores_keep_option_order(self):
        # the same pair in two tables scores the same under equal block
        # weights, and both options recombine on equal score and target:
        # the derivation through the first option in `options` is kept
        t = table_from({"a": {"x": (1.0,) * 4}, "b": {"y": (1.0,) * 4}})
        lm = make_lm()
        layout = FeatureLayout(2, 1)
        weights = layout.default_weights()
        sentence = ("a", "b")
        options = build_options(sentence, [t, t], layout=layout, weights=weights)
        assert [o.features[layout.indicator(0)] for o in options[(0, 1)]] == [1.0, 0.0]
        for stack_size in (UNPRUNED, 1):
            kwargs = dict(stack_size=stack_size, layout=layout, nbest_size=3)
            got = decode(sentence, options, weights, [lm], **kwargs)
            assert_same_nbest(got, reference_beam_decode(sentence, options, weights, [lm],
                                                         **kwargs))
            assert got[0].features[layout.indicator(0)] == 2.0

    def test_final_ties_rank_on_recombination_key(self):
        # "a b" -> "x x" in order (last position 2, no jump) or swapped (last
        # position 1, jumps 1 + 2); at distortion weight 0 both complete
        # hypotheses tie on score and target.  The n-best ranks them like a
        # stack, so the smaller key, last position 1, gives the features,
        # although the in-order derivation reaches the final stack first
        u = (0.5,) * 4
        table = table_from({"a": {"x": u}, "b": {"x": u}})
        layout = FeatureLayout(1, 1)
        weights = layout.default_weights()
        weights[layout.distortion] = 0.0
        sentence = ("a", "b")
        options = build_options(sentence, [table], layout=layout, weights=weights)
        for stack_size in (UNPRUNED, 2):
            kwargs = dict(stack_size=stack_size, layout=layout, nbest_size=5)
            got = decode(sentence, options, weights, [make_lm()], **kwargs)
            assert [r.target for r in got] == [("x", "x")]
            assert got[0].features[layout.distortion] == 3.0
            assert_option_order_free(sentence, options, weights, [make_lm()], **kwargs)

    def test_equal_scores_recombine_to_the_smaller_target(self):
        # "a b" -> "y z" as one phrase, or "x" then "z".  At LM weight 0 both
        # score 4 log10(0.25) = 8 log10(0.5), and both end in the LM state
        # (z,) at position 2, one key.  The phrase's candidate comes from
        # stack 0 and pops first, and the smaller target then replaces it
        u = (0.5,) * 4
        table = table_from({"a": {"x": u}, "b": {"z": u}, "a b": {"y z": (0.25,) * 4}})
        lm = make_lm([("x", "z"), ("y", "z")])
        layout = FeatureLayout(1, 1)
        weights = layout.default_weights()
        weights[layout.lm_feature(0)] = 0.0
        sentence = ("a", "b")
        options = build_options(sentence, [table], layout=layout, weights=weights)
        kwargs = dict(stack_size=2, distortion_limit=0, layout=layout, nbest_size=5)
        got = decode(sentence, options, weights, [lm], **kwargs)
        assert [r.target for r in got] == [("x", "z")]
        assert got[0].features[layout.phrase_penalty] == 2.0
        assert_same_nbest(got, reference_beam_decode(sentence, options, weights, [lm], **kwargs))

    def test_states_differing_in_a_dead_leading_word_recombine(self):
        # "s t" -> "a c" or "b c", monotone.  No stored 3-gram starts with
        # (a, c) or (b, c), and neither has a backoff weight, so both
        # complete hypotheses end in the LM state (c,) at the same position
        # and share one entry of the final stack: the n-best list keeps the
        # better one only
        u = (0.5,) * 4
        table = table_from({"s": {"a": u, "b": (0.25,) * 4}, "t": {"c": u}})
        lm = make_lm([("a", "x"), ("b", "x"), ("x", "c"), ("c", "y")], order=3)
        assert ("a", "c") not in lm.live_states and ("b", "c") not in lm.live_states
        assert ("c",) in lm.live_states
        assert lm.extend((BOS,), ("a", "c"))[1] == lm.extend((BOS,), ("b", "c"))[1] == ("c",)
        layout = FeatureLayout(1, 1)
        weights = layout.default_weights()
        sentence = ("s", "t")
        options = build_options(sentence, [table], layout=layout, weights=weights)
        for stack_size in (UNPRUNED, 2):
            kwargs = dict(stack_size=stack_size, distortion_limit=0, layout=layout,
                          nbest_size=5)
            got = decode(sentence, options, weights, [lm], **kwargs)
            assert [r.target for r in got] == [("a", "c")]
            assert_same_nbest(got, reference_beam_decode(sentence, options, weights, [lm],
                                                         **kwargs))

    def test_leftmost_gap_out_of_reach_rejected(self):
        # "a b c d" at distortion limit 1, with a bonus per jumped word.  A
        # jump limit alone lets the one-hypothesis stack 1 keep "b" first
        # (jump 1), after which position 0 is never within one word of the
        # last position again, and no hypothesis completes.  The
        # reachability rule rejects "b" first: it leaves position 0 two
        # words from its end
        u = (0.5,) * 4
        table = table_from({"a": {"w": u}, "b": {"x": u}, "c": {"y": u}, "d": {"z": u}})
        layout = FeatureLayout(1, 1)
        weights = layout.default_weights()
        weights[layout.distortion] = 1.0
        sentence = ("a", "b", "c", "d")
        options = build_options(sentence, [table], layout=layout, weights=weights)
        kwargs = dict(stack_size=1, distortion_limit=1, layout=layout)
        got = decode(sentence, options, weights, [make_lm()], **kwargs)
        assert [r.target for r in got] == [("w", "x", "y", "z")]
        assert_same_nbest(got, reference_beam_decode(sentence, options, weights, [make_lm()],
                                                     **kwargs))

    def test_random_weights_never_dead_end(self):
        # weights drawn as tune_weights draws its restarts, uniform(-2, 2)
        # per feature, on random toy systems with small stacks and tight
        # distortion limits, where a jump limit alone dead-ends
        rng = random.Random(36)
        src_words = ["a", "b", "c", "d", "e"]
        tgt_words = ["v", "w", "x", "y", "z"]
        phrases = src_words + ["a b", "b c", "c d", "d e", "e a", "a b c", "c d e"]
        for trial in range(60):
            lm = make_lm([tuple(rng.choices(tgt_words, k=rng.randint(1, 6)))
                          for _ in range(10)], order=rng.choice([2, 3]))
            entries = {}
            for s in phrases:
                if rng.random() < 0.6:
                    entries[s] = {" ".join(rng.choices(tgt_words, k=rng.randint(1, 3))):
                                  tuple(rng.uniform(0.05, 1.0) for _ in range(4))
                                  for _ in range(rng.randint(1, 3))}
            layout = FeatureLayout(1, 1)
            weights = np.array([rng.uniform(-2.0, 2.0) for _ in range(layout.dimension)])
            sentence = tuple(rng.choices(src_words, k=rng.randint(5, 10)))
            options = build_options(sentence, [table_from(entries)], layout=layout,
                                    weights=weights)
            for stack_size, distortion_limit in itertools.product((1, 3), (1, 2, 3)):
                got = decode(sentence, options, weights, [lm], layout=layout,
                             stack_size=stack_size, distortion_limit=distortion_limit)
                assert len(got) == 1, (trial, stack_size, distortion_limit)

    def test_layout_required(self):
        table, lm, layout = self.simple_system()
        weights = layout.default_weights()
        with pytest.raises(TypeError):
            build_options(("a",), [table], weights=weights)
        with pytest.raises(TypeError):
            build_options(("a",), [table], layout)
        options = build_options(("a",), [table], layout, weights)
        with pytest.raises(TypeError):
            decode(("a",), options, weights, [lm])

    def test_monotone_toy_grammar(self):
        # unique best path through a grammar with one option per word
        table = table_from(
            {
                "der": {"the": (1.0, 1.0, 1.0, 1.0)},
                "hund": {"dog": (1.0, 1.0, 1.0, 1.0)},
                "bellt": {"barks": (1.0, 1.0, 1.0, 1.0)},
            }
        )
        lm = make_lm([("the", "dog", "barks")] * 3, order=2)
        layout = FeatureLayout(1, 1)
        weights = layout.default_weights()
        sentence = ("der", "hund", "bellt")
        options = build_options(sentence, [table], layout=layout, weights=weights)
        result = decode(
            sentence, options, weights, [lm], distortion_limit=0, layout=layout
        )[0]
        assert result.target == ("the", "dog", "barks")
        assert result.features[layout.distortion] == 0.0

    def test_distortion_limit_zero_forces_monotone(self):
        table = table_from(
            {
                "a": {"x": (0.9, 0.9, 0.9, 0.9)},
                "b": {"y": (0.9, 0.9, 0.9, 0.9)},
            }
        )
        lm = make_lm()
        layout = FeatureLayout(1, 1)
        weights = layout.default_weights()
        weights[layout.distortion] = 5.0  # even a distortion bonus cannot help
        options = build_options(("a", "b"), [table], layout=layout, weights=weights)
        result = decode(
            ("a", "b"), options, weights, [lm], distortion_limit=0, layout=layout
        )[0]
        assert result.features[layout.distortion] == 0.0
        assert result.target == ("x", "y")

    def test_recombination_preserves_best_score(self):
        rng = random.Random(7)
        table, lm, layout = self.simple_system()
        weights = layout.default_weights()
        for _ in range(10):
            n = rng.randint(1, 4)
            sentence = tuple(rng.choice(["a", "b"]) for _ in range(n))
            options = build_options(sentence, [table], layout=layout, weights=weights)
            pruned = decode(sentence, options, weights, [lm], stack_size=UNPRUNED,
                            layout=layout)[0]
            oracle = oracle_decode(sentence, options, weights, [lm], layout, 6)
            assert pruned.score == pytest.approx(oracle[2], abs=1e-9)

    def test_deterministic_nbest(self):
        table, lm, layout = self.simple_system()
        weights = layout.default_weights()
        options = build_options(("a", "b"), [table], layout=layout, weights=weights)
        a = decode(("a", "b"), options, weights, [lm], layout=layout, nbest_size=5)
        b = decode(("a", "b"), options, weights, [lm], layout=layout, nbest_size=5)
        assert [r.target for r in a] == [r.target for r in b]
        scores = [r.score for r in a]
        assert scores == sorted(scores, reverse=True)

    def test_empty_sentence_rejected(self):
        table, lm, layout = self.simple_system()
        with pytest.raises(ValueError):
            decode((), {}, layout.default_weights(), [lm], layout=layout)

    @pytest.mark.parametrize("nbest_size", [0, -3])
    def test_nbest_size_below_one_rejected(self, nbest_size):
        table, lm, layout = self.simple_system()
        weights = layout.default_weights()
        options = build_options(("a",), [table], layout=layout, weights=weights)
        with pytest.raises(ValueError, match="nbest_size"):
            decode(("a",), options, weights, [lm], layout=layout, nbest_size=nbest_size)

    @pytest.mark.parametrize("option, value", [("stack_size", 0), ("distortion_limit", -1)])
    def test_search_limits_out_of_range_rejected(self, option, value):
        # neither takes a sentinel: pass a stack size no stack reaches, or a
        # distortion limit of the sentence length, for an unlimited search
        table, lm, layout = self.simple_system()
        weights = layout.default_weights()
        options = build_options(("a",), [table], layout=layout, weights=weights)
        with pytest.raises(ValueError, match=option):
            decode(("a",), options, weights, [lm], layout=layout, **{option: value})

    def test_lm_count_must_match_layout(self):
        # else the second LM's log10 sum would be added to word_penalty
        table, lm, layout = self.simple_system()
        weights = layout.default_weights()
        options = build_options(("a",), [table], layout=layout, weights=weights)
        with pytest.raises(ValueError, match="^2 language models for a layout of 1$"):
            decode(("a",), options, weights, [lm, lm], layout=layout)

    def test_weight_count_must_match_layout(self):
        table, lm, layout = self.simple_system()
        weights = layout.default_weights()
        options = build_options(("a",), [table], layout=layout, weights=weights)
        d = layout.dimension
        with pytest.raises(ValueError, match=rf"^{d + 1} weights for a layout of {d} features$"):
            decode(("a",), options, np.append(weights, 1.0), [lm], layout=layout)

    def test_option_feature_count_must_match_layout(self):
        # else each option would be scored on the features up to the
        # shorter length only
        table, lm, layout = self.simple_system()
        wide = FeatureLayout(2, 1)
        options = build_options(("a",), [table, table], wide, wide.default_weights())
        d = layout.dimension
        with pytest.raises(ValueError,
                           match=rf"^option \('x',\) has {wide.dimension} features for a layout of {d}$"):
            decode(("a",), options, layout.default_weights(), [lm], layout=layout)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["pt0.phi_fwd", "lm0"])
    @pytest.mark.parametrize("stage", ["build_options", "decode"])
    def test_non_finite_weight_rejected(self, stage, name, value):
        # else the best target scores nan or -inf, or math.fsum raises on
        # inf - inf, with no word of which weight is at fault
        table, lm, layout = self.simple_system()
        weights = layout.default_weights()
        options = build_options(("a", "b"), [table], layout=layout, weights=weights)
        weights[layout.names().index(name)] = value
        with pytest.raises(ValueError, match=rf"^weight {re.escape(repr(name))} is not finite"):
            if stage == "build_options":
                build_options(("a", "b"), [table], layout=layout, weights=weights)
            else:
                decode(("a", "b"), options, weights, [lm], layout=layout)


class TestWeightsIo:
    def test_round_trip(self, tmp_path):
        layout = FeatureLayout(2, 2)
        weights = layout.default_weights()
        weights[0] = 0.123456789
        path = tmp_path / "weights.txt"
        write_weights(weights, layout, path)
        loaded = read_weights(path, layout)
        np.testing.assert_allclose(loaded, weights, atol=0)

    def test_write_rejects_wrong_length(self, tmp_path):
        layout = FeatureLayout(2, 1)
        path = tmp_path / "weights.txt"
        with pytest.raises(ValueError, match=rf"^3 weights for a layout of {layout.dimension} features"):
            write_weights(np.ones(3), layout, path)
        assert not path.exists()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_write_rejects_non_finite_weight(self, tmp_path, value):
        layout = FeatureLayout(1, 1)
        weights = layout.default_weights()
        weights[layout.lm_feature(0)] = value
        path = tmp_path / "weights.txt"
        with pytest.raises(ValueError, match=r"^weight 'lm0' is not finite"):
            write_weights(weights, layout, path)
        assert not path.exists()

    def test_missing_weight_rejected(self, tmp_path):
        layout = FeatureLayout(1, 1)
        path = tmp_path / "weights.txt"
        path.write_text("pt0.phi_fwd 1.0\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_weights(path, layout)

    def test_line_without_value_rejected(self, tmp_path):
        path = tmp_path / "weights.txt"
        path.write_text("pt0.phi_fwd 1.0\n\npt0.lex_fwd\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:3: "):
            read_weights(path, FeatureLayout(1, 1))

    def test_value_not_a_float_rejected(self, tmp_path):
        path = tmp_path / "weights.txt"
        path.write_text("pt0.phi_fwd 1.0\npt0.lex_fwd one\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: "):
            read_weights(path, FeatureLayout(1, 1))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_weight_rejected(self, tmp_path, value):
        layout = FeatureLayout(1, 1)
        path = tmp_path / "weights.txt"
        write_weights(np.ones(layout.dimension), layout, path)
        text = path.read_text(encoding="utf-8").replace("lm0 1\n", f"lm0 {value}\n")
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError,
                           match=rf"^{re.escape(str(path))}:\d+: weight 'lm0' is not finite"):
            read_weights(path, layout)

    def test_unknown_weight_rejected(self, tmp_path):
        # a two-table, two-LM file read with a one-table, one-LM layout
        path = tmp_path / "weights.txt"
        write_weights(np.ones(FeatureLayout(2, 2).dimension), FeatureLayout(2, 2), path)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:6: unknown weight 'pt1.phi_fwd'"):
            read_weights(path, FeatureLayout(1, 1))

    def test_repeated_weight_rejected(self, tmp_path):
        layout = FeatureLayout(1, 1)
        path = tmp_path / "weights.txt"
        write_weights(np.ones(layout.dimension), layout, path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("lm0 -2.0\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:10: repeated weight 'lm0'"):
            read_weights(path, layout)

    def test_nbest_format(self):
        layout = FeatureLayout(1, 1)
        from traitmt.decoder import DecodeResult

        res = DecodeResult(("x", "y"), np.zeros(layout.dimension), -1.5)
        lines = format_nbest(3, [res], layout)
        assert lines[0].startswith("3 ||| x y ||| ")
        assert lines[0].endswith("||| -1.5")
