import dataclasses
import itertools
import math
import random
import re

import numpy as np
import pytest

from traitmt.align import PhraseTable
from traitmt.decoder import (
    DEFAULT_FLOOR,
    MAX_OPTIONS_PER_SPAN,
    DecodeResult,
    FeatureLayout,
    build_options,
    decode,
    format_nbest,
    read_weights,
    write_weights,
)
from traitmt.lm import BOS, EOS, UNK, train_kn_lm


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
    choice within the jump constraint, scored from scratch."""
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
        score = float(weights @ feats)
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
            if distortion_limit >= 0 and abs(start - last_end) > distortion_limit:
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
    """The beam decoder without early rejection: every expansion becomes a
    hypothesis, and each stack is sorted in full and cut at stack_size."""
    sentence = tuple(sentence)
    weights = np.asarray(weights, dtype=float)
    n = len(sentence)
    lm_weights = [float(weights[layout.lm_feature(k)]) for k in range(len(lms))]
    dist_weight = float(weights[layout.distortion])

    direct = {}
    for span, opts in options.items():
        best = -math.inf
        for opt in opts:
            score = float(weights @ np.asarray(opt.features))
            for w_lm, lm in zip(lm_weights, lms):
                score += w_lm * sum(lm.unigram_log10(w) for w in opt.tgt)
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

    def lm_extend(lm, state, words):
        total = 0.0
        for word in words:
            mapped = word if word in lm.vocab else UNK
            total += lm.log10_prob(mapped, state)
            if lm.order > 1:
                state = (state + (mapped,))[-(lm.order - 1):]
        return total, state

    plan = []
    for (start, end), opts in options.items():
        mask = ((1 << (end - start)) - 1) << start
        plan.append((start, end, mask, opts, [float(weights @ np.asarray(o.features)) for o in opts]))

    init_states = tuple((BOS,) if lm.order > 1 else () for lm in lms)
    stacks = [dict() for _ in range(n + 1)]
    stacks[0][(0, 0, init_states)] = RefHypothesis(
        0, 0, init_states, 0.0, coverage_future(0), (), None, None, 0, ())
    full_mask = (1 << n) - 1
    for covered in range(n):
        hyps = sorted(stacks[covered].values(), key=RefHypothesis.sort_key)
        if stack_size > 0:
            hyps = hyps[:stack_size]
        for hyp in hyps:
            for start, end, mask, opts, weighted in plan:
                if hyp.coverage & mask:
                    continue
                jump = abs(start - hyp.last_end)
                if distortion_limit >= 0 and jump > distortion_limit:
                    continue
                coverage = hyp.coverage | mask
                complete = coverage == full_mask
                target_stack = stacks[covered + (end - start)]
                for opt, w_static in zip(opts, weighted):
                    score = hyp.score + dist_weight * jump + w_static
                    new_states, lm_scores = [], []
                    for k, lm in enumerate(lms):
                        lm_delta, state = lm_extend(lm, hyp.lm_states[k], opt.tgt)
                        if complete:
                            lm_delta += lm_extend(lm, state, (EOS,))[0]
                        lm_scores.append(lm_delta)
                        new_states.append(state)
                        score += lm_weights[k] * lm_delta
                    key = (coverage, end, tuple(new_states))
                    incumbent = target_stack.get(key)
                    target = hyp.target + opt.tgt
                    if (
                        incumbent is None
                        or score > incumbent.score
                        or (score == incumbent.score and target < incumbent.target)
                    ):
                        target_stack[key] = RefHypothesis(
                            coverage, end, key[2], score, coverage_future(coverage),
                            target, hyp, opt, jump, tuple(lm_scores))
    if not stacks[n]:
        raise RuntimeError("no complete hypothesis")
    results, seen = [], set()
    for hyp in sorted(stacks[n].values(), key=RefHypothesis.sort_key):
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
    every span's list reversed, and the reversal moves no n-best target,
    score or feature vector."""
    flipped = {span: opts[::-1] for span, opts in options.items()}
    got = decode(sentence, options, weights, lms, **kwargs)
    assert_same_nbest(got, reference_beam_decode(sentence, options, weights, lms, **kwargs))
    got_flipped = decode(sentence, flipped, weights, lms, **kwargs)
    assert_same_nbest(got_flipped,
                      reference_beam_decode(sentence, flipped, weights, lms, **kwargs))
    assert_same_nbest(got_flipped, got)


class TestBuildOptions:
    def test_indicator_block_placement(self):
        empty = table_from({})
        t2 = table_from({"a": {"x": (0.5, 0.5, 0.5, 0.5)}})
        layout = FeatureLayout(3, 1)
        options = build_options(("a",), [empty, empty, t2], layout=layout)
        opts = options[(0, 1)]
        real = [o for o in opts if o.table_id is not None]
        assert len(real) == 1
        feats = np.asarray(real[0].features)
        assert feats[layout.indicator(2)] == 1.0
        assert feats[layout.indicator(0)] == 0.0
        np.testing.assert_allclose(feats[layout.table_block(0)], DEFAULT_FLOOR)

    def test_same_pair_in_two_tables_gives_two_options(self):
        t = table_from({"a": {"x": (0.5, 0.5, 0.5, 0.5)}})
        layout = FeatureLayout(2, 1)
        options = build_options(("a",), [t, t], layout=layout)
        ids = sorted(o.table_id for o in options[(0, 1)])
        assert ids == [0, 1]

    def test_oov_passthrough(self):
        t = table_from({"a": {"x": (1.0, 1.0, 1.0, 1.0)}})
        layout = FeatureLayout(1, 1)
        options = build_options(("a", "qux"), [t], layout=layout)
        opt = options[(1, 2)][0]
        assert opt.tgt == ("qux",)
        assert opt.table_id is None
        feats = np.asarray(opt.features)
        np.testing.assert_allclose(feats[layout.table_block(0)], DEFAULT_FLOOR)
        assert feats[layout.indicator(0)] == 0.0

    def test_per_span_cap(self):
        row = {f"t{i}": (0.5 - i * 0.001, 0.5, 0.5, 0.5)
               for i in range(MAX_OPTIONS_PER_SPAN + 10)}
        t = table_from({"a": row})
        options = build_options(("a",), [t], layout=FeatureLayout(1, 1))
        kept = [o.tgt for o in options[(0, 1)]]
        assert kept == [(f"t{i}",) for i in range(MAX_OPTIONS_PER_SPAN)]


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
                stack_size=0, distortion_limit=dlimit, layout=layout,
            )[0]
            best = oracle_decode(sentence, options, weights, [lm], layout, dlimit)
            assert got.target == best[1], (trial, sentence)
            assert got.score == pytest.approx(best[2], abs=1e-9)

    @pytest.mark.parametrize("stack_size", [1, 2, 3, 5])
    @pytest.mark.parametrize("distortion_limit", [-1, 0, 1, 3])
    def test_pruned_search_matches_reference_beam(self, stack_size, distortion_limit):
        # sentences long enough to fill the stacks, so that expansions are
        # rejected against full stacks.  A negative LM weight or positive
        # backoff weights disable the rejection before LM scoring; uniform
        # tables force exact ties, which the stacks break on the
        # recombination key, and zero LM weights ties at the rejection
        # threshold; options built under other weights, or reversed, reach
        # decode out of static-score order, and decode must sort them
        # before its rejection may stop a span early.
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
                lms[0] = dataclasses.replace(lms[0], bows={c: 2.0 for c in lms[0].bows})
            sentence = tuple(rng.choices(src_words, k=rng.randint(4, 8)))
            build_weights = weights if trial % 2 else layout.default_weights()
            options = build_options(sentence, tables, layout=layout, weights=build_weights)
            kwargs = dict(stack_size=stack_size, distortion_limit=distortion_limit,
                          layout=layout, nbest_size=10)
            try:
                reference_beam_decode(sentence, options, weights, lms, **kwargs)
            except RuntimeError:
                with pytest.raises(RuntimeError):
                    decode(sentence, options, weights, lms, **kwargs)
                continue
            assert_option_order_free(sentence, options, weights, lms, **kwargs)

    def test_ties_rank_on_recombination_key(self):
        # only the unigram LM counts, so hypotheses over different "a"s tie
        # on value and target.  A stack ranks tied hypotheses on their
        # recombination keys, so the cut does not depend on which
        # expansion reached a key first, also where that expansion was
        # rejected against the full stack
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
        assert [o.table_id for o in options[(0, 1)]] == [0, 1]
        for stack_size in (0, 1):
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
        for stack_size in (0, 2):
            kwargs = dict(stack_size=stack_size, layout=layout, nbest_size=5)
            got = decode(sentence, options, weights, [make_lm()], **kwargs)
            assert [r.target for r in got] == [("x", "x")]
            assert got[0].features[layout.distortion] == 3.0
            assert_option_order_free(sentence, options, weights, [make_lm()], **kwargs)

    def test_layout_required(self):
        table, lm, layout = self.simple_system()
        with pytest.raises(TypeError):
            build_options(("a",), [table])
        options = build_options(("a",), [table], layout=layout)
        with pytest.raises(TypeError):
            decode(("a",), options, layout.default_weights(), [lm])

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
            pruned = decode(sentence, options, weights, [lm], stack_size=0, layout=layout)[0]
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
