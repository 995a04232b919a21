import math
import random
from collections import Counter, defaultdict

import pytest

import traitmt.align as align_mod
from traitmt.align import (
    NULL_TOKEN,
    AlignmentMatrix,
    PhraseTable,
    build_phrase_table,
    extract_phrases,
    ibm1_em,
    read_phrase_table,
    score_phrases,
    symmetrize,
    viterbi_align,
    write_phrase_table,
    LexicalTable,
)
from traitmt.decoder import FeatureLayout, build_options

CANONICAL = [(("a", "b"), ("x", "y")), (("a",), ("x",))]


def reference_ibm1_em(pairs, iterations, use_null):
    """IBM1 EM over dicts keyed by (source word, target word), summed in
    corpus order; returns (probs, history)."""
    pairs = [(tuple(s), tuple(t)) for s, t in pairs if s and t]
    nt = len({w for _, t in pairs for w in t})
    uniform = 1.0 / nt
    t: dict[tuple[str, str], float] = {}
    history = []
    for it in range(iterations):
        counts: dict[tuple[str, str], float] = defaultdict(float)
        totals: dict[str, float] = defaultdict(float)
        ll = 0.0
        for s, tgt in pairs:
            s_all = ((NULL_TOKEN,) if use_null else ()) + s
            for w in tgt:
                if it == 0:
                    denom = uniform * len(s_all)
                else:
                    denom = sum(t.get((sw, w), 0.0) for sw in s_all)
                ll += math.log(denom) - math.log(len(s_all))
                for sw in s_all:
                    p = uniform if it == 0 else t.get((sw, w), 0.0)
                    share = p / denom
                    counts[(sw, w)] += share
                    totals[sw] += share
        history.append(ll)
        t = {k: v / totals[k[0]] for k, v in counts.items() if totals[k[0]] > 0}
    probs: dict[str, dict[str, float]] = defaultdict(dict)
    for (sw, w), p in t.items():
        if p > 0:
            probs[sw][w] = p
    return dict(probs), history


def assert_matches_reference_em(pairs, iterations, use_null):
    """ibm1_em agrees with reference_ibm1_em to 1e-12 relative, and lists
    sources, then each source's targets, in order of first occurrence.

    A log-likelihood is a sum of log denominators minus the alignment
    prior's sum of target length x log source length, and the two can
    cancel to 0, so history values are compared to 1e-12 of the prior."""
    table, history = ibm1_em(pairs, iterations=iterations, use_null=use_null)
    ref_probs, ref_history = reference_ibm1_em(pairs, iterations, use_null)
    assert len(history) == len(ref_history) == iterations
    prior = sum(len(t) * math.log(len(s) + use_null) for s, t in pairs)
    for got, want in zip(history, ref_history):
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12 * prior), (got, want)
    src_order = list(dict.fromkeys(([NULL_TOKEN] if use_null else [])
                                   + [w for s, _ in pairs for w in s]))
    tgt_index = {w: k for k, w in enumerate(dict.fromkeys(w for _, t in pairs for w in t))}
    assert list(table.probs) == src_order
    assert table.probs.keys() == ref_probs.keys()
    for source, dist in table.probs.items():
        assert list(dist) == sorted(dist, key=tgt_index.__getitem__)
        assert dist.keys() == ref_probs[source].keys()
        for target, p in dist.items():
            assert math.isclose(p, ref_probs[source][target], rel_tol=1e-12), (source, target)
    return table


class TestIbm1:
    def test_canonical_corpus_converges(self):
        # the by-hand EM walk on this corpus is done without the null word
        table, history = ibm1_em(CANONICAL, iterations=30, use_null=False)
        assert table.prob("x", "a") >= 0.99
        for prev, cur in zip(history, history[1:]):
            assert cur >= prev - 1e-12

    def test_single_pair_after_one_iteration(self):
        table, _ = ibm1_em([(("a",), ("x",))], iterations=1)
        assert table.prob("x", "a") == pytest.approx(1.0)
        # the null word also explains x completely after one round
        assert table.null_prob("x") == pytest.approx(1.0)

    def test_log_likelihood_monotone_with_null(self):
        rng = random.Random(0)
        words_s = [f"s{i}" for i in range(12)]
        words_t = [f"t{i}" for i in range(12)]
        pairs = []
        for _ in range(60):
            n = rng.randint(1, 8)
            pairs.append(
                (
                    tuple(rng.choice(words_s) for _ in range(n)),
                    tuple(rng.choice(words_t) for _ in range(n)),
                )
            )
        _, history = ibm1_em(pairs, iterations=12)
        assert len(history) == 12
        for prev, cur in zip(history, history[1:]):
            assert cur >= prev - 1e-12

    def test_per_source_normalization(self):
        table, _ = ibm1_em(CANONICAL, iterations=5)
        for source, dist in table.probs.items():
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9), source

    def test_matches_reference_em(self):
        rng = random.Random(1)
        for case in range(100):
            use_null = case % 2 == 0
            # small vocabularies repeat words within a sentence on both sides
            src_words = [f"s{i}" for i in range(rng.randint(1, 6))]
            tgt_words = [f"t{i}" for i in range(rng.randint(1, 6))]
            max_len = rng.choice((1, 3, 8))
            pairs = [
                (
                    tuple(rng.choice(src_words) for _ in range(rng.randint(1, max_len))),
                    tuple(rng.choice(tgt_words) for _ in range(rng.randint(1, max_len))),
                )
                for _ in range(rng.randint(1, 30))
            ]
            assert_matches_reference_em(pairs, rng.randint(1, 8), use_null)

    def test_matches_reference_em_on_large_vocabularies(self):
        # |Vs|.|Vt| beyond what a dense (source, target) table would hold
        rng = random.Random(2)
        src_words = [f"s{i}" for i in range(2100)]
        tgt_words = [f"t{i}" for i in range(2100)]
        pairs = [
            (
                tuple(rng.choice(src_words) for _ in range(rng.randint(1, 8))),
                tuple(rng.choice(tgt_words) for _ in range(rng.randint(1, 8))),
            )
            for _ in range(3000)
        ]
        table = assert_matches_reference_em(pairs, 2, True)
        n_targets = len({w for dist in table.probs.values() for w in dist})
        assert len(table.probs) * n_targets > 4_000_000

    def test_iterations_below_one_rejected(self):
        for iterations in (0, -1):
            with pytest.raises(ValueError):
                ibm1_em(CANONICAL, iterations=iterations)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            ibm1_em([])

    @pytest.mark.parametrize("use_null", [True, False])
    def test_null_token_as_source_word_rejected(self, use_null):
        # the NULL row would hold the word's probabilities, and null_prob
        # would read them
        with pytest.raises(ValueError, match="reserved for the NULL word"):
            ibm1_em([(("a",), ("x",)), ((NULL_TOKEN, "a"), ("x", "y"))], use_null=use_null)


def reference_viterbi_align(table, src, tgt):
    """Best source link per target word, read through table.prob and
    table.null_prob; ties go to NULL, then to the leftmost source."""
    links = set()
    for j, w in enumerate(tgt):
        best_i, best_p = None, table.null_prob(w)
        for i, sw in enumerate(src):
            p = table.prob(w, sw)
            if p > best_p:
                best_i, best_p = i, p
        if best_i is not None:
            links.add((best_i, j))
    return frozenset(links)


class TestViterbi:
    def test_matches_reference_viterbi(self):
        rng = random.Random(9)
        seen = Counter()
        for case in range(400):
            use_null = case % 2 == 0
            # "e" has no row at all, and each row misses some targets; the
            # few distinct values make sources tie with one another and
            # with NULL
            sources = list("abcd") + ([NULL_TOKEN] if use_null else [])
            probs = {w: {v: rng.choice((0.25, 0.5)) for v in "wxyz" if rng.random() < 0.6}
                     for w in sources}
            table = LexicalTable(probs)
            src = tuple(rng.choice("abcde") for _ in range(rng.randint(0, 6)))
            tgt = tuple(rng.choice("wxyz") for _ in range(rng.randint(0, 6)))
            assert viterbi_align(table, src, tgt).links == reference_viterbi_align(table, src, tgt)
            for w in tgt:
                ps = [table.prob(w, sw) for sw in src]
                best = max(ps, default=0.0)
                seen["missing"] += 0.0 in ps
                seen["tie_sources"] += best > 0.0 and ps.count(best) > 1
                seen["tie_null"] += use_null and best > 0.0 and best == table.null_prob(w)
        assert min(seen.values()) >= 50, seen

    def test_obvious_alignment(self):
        pairs = [(("der", "hund"), ("the", "dog")), (("der",), ("the",)), (("hund",), ("dog",))]
        table, _ = ibm1_em(pairs, iterations=10)
        matrix = viterbi_align(table, ("der", "hund"), ("the", "dog"))
        assert matrix.links == frozenset({(0, 0), (1, 1)})

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            AlignmentMatrix(frozenset({(2, 0)}), 2, 1)


class TestSymmetrize:
    def test_identical_inputs(self):
        a = AlignmentMatrix(frozenset({(0, 0), (1, 1)}), 2, 2)
        assert symmetrize(a, a).links == a.links

    def test_three_by_three_hand_trace(self):
        # intersection {(0,0),(1,1)}; grow-diag pulls in (2,1) (source 2
        # unaligned, diagonal neighbour of (1,1)) and then (2,2) (target 2
        # unaligned, neighbour of (2,1)); final-and adds nothing
        fwd = AlignmentMatrix(frozenset({(0, 0), (1, 1), (2, 1)}), 3, 3)
        rev = AlignmentMatrix(frozenset({(0, 0), (1, 1), (2, 2)}), 3, 3)
        result = symmetrize(fwd, rev)
        assert result.links == frozenset({(0, 0), (1, 1), (2, 1), (2, 2)})

    def test_final_and_rescues_isolated_links(self):
        # no intersection; final-and adds links whose both ends are free
        fwd = AlignmentMatrix(frozenset({(0, 0)}), 2, 2)
        rev = AlignmentMatrix(frozenset({(1, 1)}), 2, 2)
        result = symmetrize(fwd, rev)
        assert result.links == frozenset({(0, 0), (1, 1)})

    def test_between_intersection_and_union(self):
        rng = random.Random(2)
        for _ in range(50):
            n, m = rng.randint(1, 5), rng.randint(1, 5)
            mk = lambda: frozenset(
                (rng.randrange(n), rng.randrange(m)) for _ in range(rng.randint(0, 6))
            )
            fwd = AlignmentMatrix(mk(), n, m)
            rev = AlignmentMatrix(mk(), n, m)
            result = symmetrize(fwd, rev)
            assert result.links >= (fwd.links & rev.links)
            assert result.links <= (fwd.links | rev.links)

    def test_mismatched_lengths_rejected(self):
        fwd = AlignmentMatrix(frozenset(), 2, 2)
        rev = AlignmentMatrix(frozenset(), 2, 3)
        with pytest.raises(ValueError):
            symmetrize(fwd, rev)


def oracle_extract(n, m, links, max_len):
    """Naive consistency predicate over every pair of spans."""
    out = set()
    for i1 in range(n):
        for i2 in range(i1, min(n, i1 + max_len)):
            for j1 in range(m):
                for j2 in range(j1, min(m, j1 + max_len)):
                    inside = [(i, j) for i, j in links if i1 <= i <= i2 and j1 <= j <= j2]
                    if not inside:
                        continue
                    src_ok = all(j1 <= j <= j2 for i, j in links if i1 <= i <= i2)
                    tgt_ok = all(i1 <= i <= i2 for i, j in links if j1 <= j <= j2)
                    if src_ok and tgt_ok:
                        out.add((i1, i2, j1, j2))
    return out


class TestExtractPhrases:
    def test_monotone_two_words(self):
        alignment = AlignmentMatrix(frozenset({(0, 0), (1, 1)}), 2, 2)
        src, tgt = ("w1", "w2"), ("v1", "v2")
        as_tokens = {(src[i1: i2 + 1], tgt[j1: j2 + 1])
                     for i1, i2, j1, j2 in extract_phrases(alignment)}
        assert as_tokens == {
            (("w1",), ("v1",)),
            (("w2",), ("v2",)),
            (("w1", "w2"), ("v1", "v2")),
        }

    def test_crossing_link_blocks_span(self):
        alignment = AlignmentMatrix(frozenset({(0, 1), (1, 0)}), 2, 2)
        spans = set(extract_phrases(alignment))
        assert (0, 0, 0, 0) not in spans
        assert spans == {(0, 0, 1, 1), (1, 1, 0, 0), (0, 1, 0, 1)}

    def test_max_len_one(self):
        alignment = AlignmentMatrix(frozenset({(0, 0), (1, 1)}), 2, 2)
        spans = extract_phrases(alignment, max_len=1)
        assert spans and all(i1 == i2 and j1 == j2 for i1, i2, j1, j2 in spans)

    def test_matches_brute_force_oracle(self):
        rng = random.Random(3)
        for _ in range(300):
            n, m = rng.randint(1, 6), rng.randint(1, 6)
            links = frozenset(
                (rng.randrange(n), rng.randrange(m)) for _ in range(rng.randint(0, 8))
            )
            max_len = rng.randint(1, 7)
            spans = extract_phrases(AlignmentMatrix(links, n, m), max_len=max_len)
            assert len(set(spans)) == len(spans)
            assert set(spans) == oracle_extract(n, m, links, max_len)
            # the order scoring sees: source span, then target start
            # descending, then target end ascending
            order = [(i1, i2, -j1, j2) for i1, i2, j1, j2 in spans]
            assert order == sorted(order)


def reference_lexical_weight(src, tgt, links, table):
    """w(tgt | src, a) from one pair's own internal links; a word's linked
    probabilities are summed in ascending position."""
    by_target = defaultdict(list)
    for i, j in links:
        by_target[j].append(i)
    weight = 1.0
    for j, w in enumerate(tgt):
        if j in by_target:
            sources = sorted(by_target[j])
            p = sum(table.prob(w, src[i]) for i in sources) / len(sources)
        else:
            p = table.null_prob(w)
        weight *= p
    return max(weight, align_mod._LEX_FLOOR)


def internal_links(alignment, span):
    """The sentence alignment's links inside the span, offset to its start."""
    i1, i2, j1, j2 = span
    return frozenset((i - i1, j - j1) for i, j in alignment.links
                     if i1 <= i <= i2 and j1 <= j <= j2)


def reference_score_phrases(sentences, lex_fwd, lex_rev):
    """Relative frequencies, and lexical weights maximized over each pair's
    distinct internal alignments, each weighed on its own; returns the
    entries mapping."""
    pair_counts, src_counts, tgt_counts = Counter(), Counter(), Counter()
    alignments = defaultdict(set)
    for src, tgt, alignment, spans in sentences:
        for i1, i2, j1, j2 in spans:
            key = (src[i1: i2 + 1], tgt[j1: j2 + 1])
            pair_counts[key] += 1
            src_counts[key[0]] += 1
            tgt_counts[key[1]] += 1
            alignments[key].add(internal_links(alignment, (i1, i2, j1, j2)))
    entries = defaultdict(dict)
    for (src, tgt), count in pair_counts.items():
        forward = alignments[(src, tgt)]
        lex_f = max(reference_lexical_weight(src, tgt, links, lex_fwd) for links in forward)
        reverse = [frozenset((j, i) for i, j in links) for links in forward]
        lex_r = max(reference_lexical_weight(tgt, src, links, lex_rev) for links in reverse)
        entries[src][tgt] = (count / src_counts[src], lex_f, count / tgt_counts[tgt], lex_r)
    return dict(entries)


def random_lexical_table(rng, given, conditioned, use_null):
    """Random t(given | conditioned), some pairs missing (probability 0)."""
    sources = list(conditioned) + ([NULL_TOKEN] if use_null else [])
    probs = {w: {v: rng.random() for v in given if rng.random() < 0.95} for w in sources}
    return LexicalTable(probs)


def sentence(src, tgt, links, max_len=7):
    """One score_phrases input: the pair, its alignment and its spans."""
    alignment = AlignmentMatrix(frozenset(links), len(src), len(tgt))
    return src, tgt, alignment, extract_phrases(alignment, max_len)


class TestScorePhrases:
    def uniform_table(self, words):
        return LexicalTable({w: {v: 0.5 for v in words} for w in [NULL_TOKEN] + list(words)})

    def test_relative_frequency(self):
        sentences = [sentence(("s",), (tgt,), {(0, 0)}) for tgt in ("x", "x", "x", "y")]
        lex = LexicalTable({"s": {"x": 0.7, "y": 0.3}, NULL_TOKEN: {"x": 0.5, "y": 0.5}})
        lex_rev = LexicalTable({"x": {"s": 1.0}, "y": {"s": 1.0}, NULL_TOKEN: {"s": 1.0}})
        table = score_phrases(sentences, lex, lex_rev)
        phi_fwd = table.entries[("s",)][("x",)][0]
        assert phi_fwd == pytest.approx(0.75)

    def test_unique_pair_scores_one(self):
        lex = LexicalTable({"a": {"x": 0.8}, NULL_TOKEN: {"x": 0.2}})
        lex_rev = LexicalTable({"x": {"a": 0.9}, NULL_TOKEN: {"a": 0.1}})
        table = score_phrases([sentence(("a",), ("x",), {(0, 0)})], lex, lex_rev)
        phi_fwd, lex_f, phi_rev, lex_r = table.entries[("a",)][("x",)]
        assert phi_fwd == 1.0 and phi_rev == 1.0
        # single 1:1 link: lexical weight equals the table probability
        assert lex_f == pytest.approx(0.8)
        assert lex_r == pytest.approx(0.9)

    def test_conditional_normalization_both_directions(self):
        rng = random.Random(4)
        sentences = [sentence((rng.choice(("s1", "s2", "s3")),), (rng.choice(("t1", "t2")),),
                              {(0, 0)}) for _ in range(200)]
        words = ("s1", "s2", "s3", "t1", "t2")
        table = score_phrases(sentences, self.uniform_table(words), self.uniform_table(words))
        by_src = {}
        by_tgt = {}
        for src, row in table.entries.items():
            for tgt, (pf, _, pr, _) in row.items():
                by_src[src] = by_src.get(src, 0.0) + pf
                by_tgt[tgt] = by_tgt.get(tgt, 0.0) + pr
        for total in list(by_src.values()) + list(by_tgt.values()):
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_scores_in_unit_interval(self):
        table, _, _ = build_phrase_table(
            [(("a", "b"), ("x", "y")), (("b", "c"), ("y", "z")), (("a",), ("x",))],
            iterations=5,
        )
        for row in table.entries.values():
            for scores in row.values():
                for s in scores:
                    assert 0.0 < s <= 1.0

    def random_cases(self, seed, count):
        """(sentences, lex_fwd, lex_rev) per case that extracts some pair."""
        rng = random.Random(seed)
        for case in range(count):
            # small vocabularies repeat pairs under different alignments
            k = rng.randint(2, 4)
            src_words, tgt_words = "abcd"[:k], "wxyz"[:k]
            use_null = case % 3 != 0
            lex_fwd = random_lexical_table(rng, tgt_words, src_words, use_null)
            lex_rev = random_lexical_table(rng, src_words, tgt_words, use_null)
            max_len = rng.randint(1, 7)
            sentences = []
            for _ in range(rng.randint(1, 12)):
                n, m = rng.randint(1, 7), rng.randint(1, 7)
                src = tuple(rng.choice(src_words) for _ in range(n))
                tgt = tuple(rng.choice(tgt_words) for _ in range(m))
                # dense enough that some words get three or more links,
                # sparse enough that some boundary words stay unaligned
                links = {(rng.randrange(n), rng.randrange(m))
                         for _ in range(rng.randint(0, n * m // 2 + 1))}
                sentences.append(sentence(src, tgt, links, max_len))
            if any(spans for _, _, _, spans in sentences):
                yield sentences, lex_fwd, lex_rev

    def test_matches_reference_scorer(self):
        for sentences, lex_fwd, lex_rev in self.random_cases(5, 120):
            table = score_phrases(sentences, lex_fwd, lex_rev)
            reference = reference_score_phrases(sentences, lex_fwd, lex_rev)
            assert table.entries == reference
            # rows and their targets in order of first occurrence
            assert [(src, list(row)) for src, row in table.entries.items()] == \
                [(src, list(row)) for src, row in reference.items()]

    def test_span_order_does_not_matter(self):
        rng = random.Random(10)
        for sentences, lex_fwd, lex_rev in self.random_cases(11, 120):
            shuffled = [(src, tgt, alignment, rng.sample(spans, len(spans)))
                        for src, tgt, alignment, spans in sentences]
            table = score_phrases(shuffled, lex_fwd, lex_rev)
            assert table.entries == reference_score_phrases(sentences, lex_fwd, lex_rev)

    def test_build_phrase_table_matches_reference_scorer(self, monkeypatch):
        seen = []

        def recording(sentences, lex_fwd, lex_rev):
            seen.append((sentences, lex_fwd, lex_rev))
            return score_phrases(sentences, lex_fwd, lex_rev)

        monkeypatch.setattr(align_mod, "score_phrases", recording)
        rng = random.Random(6)
        for _ in range(5):
            pairs = []
            for _ in range(40):
                n = rng.randint(1, 8)
                src = tuple(rng.choice("abcdef") for _ in range(n))
                tgt = tuple(rng.choice("uvwxyz") for _ in range(max(1, n + rng.randint(-2, 2))))
                pairs.append((src, tgt))
            table, _, _ = build_phrase_table(pairs, iterations=4, max_len=rng.randint(2, 7))
            sentences, lex_fwd, lex_rev = seen.pop()
            assert table.entries == reference_score_phrases(sentences, lex_fwd, lex_rev)

    def test_empty_extraction_rejected(self):
        lex = LexicalTable({})
        with pytest.raises(ValueError):
            score_phrases([], lex, lex)
        unaligned = AlignmentMatrix(frozenset(), 1, 1)
        with pytest.raises(ValueError):
            score_phrases([(("a",), ("x",), unaligned, [])], lex, lex)


class TestBuildPhraseTable:
    CORPUS = [(("a", "b"), ("x", "y")), (("a",), ("x",)), (("b",), ("y",))]

    def test_stages_called_through_module(self, monkeypatch):
        # the benchmark's per-layer timings wrap these module attributes
        calls = Counter()
        for name in ("ibm1_em", "extract_phrases", "score_phrases"):
            def counting(*args, _name=name, _inner=getattr(align_mod, name), **kwargs):
                calls[_name] += 1
                return _inner(*args, **kwargs)
            monkeypatch.setattr(align_mod, name, counting)
        build_phrase_table(self.CORPUS, iterations=2)
        assert calls == {"ibm1_em": 2, "extract_phrases": len(self.CORPUS), "score_phrases": 1}

    def test_counts_dropped_pairs(self):
        table, _, _ = build_phrase_table(self.CORPUS, iterations=2)
        assert table.dropped_pairs == 0
        with_empty = self.CORPUS + [((), ("x",)), (("a",), ()), ((), ())]
        dropped, _, _ = build_phrase_table(with_empty, iterations=2)
        assert dropped.dropped_pairs == 3
        assert dropped.entries == table.entries


class TestPhraseTableIo:
    def test_round_trip(self, tmp_path):
        table, _, _ = build_phrase_table(
            [(("a", "b"), ("x", "y")), (("a",), ("x",)), (("b",), ("y",))], iterations=5
        )
        path = tmp_path / "pt.txt"
        write_phrase_table(table, path)
        loaded = read_phrase_table(path)
        assert loaded.entries.keys() == table.entries.keys()
        for src in table.entries:
            assert loaded.entries[src].keys() == table.entries[src].keys()
            for tgt, scores in table.entries[src].items():
                for a, b in zip(loaded.entries[src][tgt], scores):
                    assert a == pytest.approx(b, abs=1e-12)
        assert loaded.max_len == table.max_len == 2

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "pt.txt"
        path.write_text("a ||| x\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_phrase_table(path)

    @pytest.mark.parametrize("scores", ["0.5 oops 0.5 0.5", "0.5 nan 0.5 0.5",
                                        "inf 0.5 0.5 0.5", "0.5 0.5 0.5 -inf"])
    def test_bad_score_names_line(self, tmp_path, scores):
        path = tmp_path / "pt.txt"
        path.write_text(f"a ||| x ||| 0.5 0.5 0.5 0.5\nb ||| y ||| {scores}\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match=r"pt\.txt:2: "):
            read_phrase_table(path)

    @pytest.mark.parametrize("scores", ["0.5 0.5 0 0.5", "-1 0.5 0.5 0.5",
                                        "0.5 2 0.5 0.5", "0.5 0.5 0.5 1.0000001"])
    def test_score_outside_unit_interval_names_line(self, tmp_path, scores):
        path = tmp_path / "pt.txt"
        path.write_text(f"a ||| x ||| 1 1 1 1\nb ||| y ||| {scores}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"pt\.txt:2: scores must lie in \(0, 1\]"):
            read_phrase_table(path)

    @pytest.mark.parametrize("side", ["source", "target"])
    def test_empty_phrase_names_line(self, tmp_path, side):
        line = " ||| x" if side == "source" else "a ||| "
        path = tmp_path / "pt.txt"
        path.write_text(f"a ||| x ||| 0.5 0.5 0.5 0.5\n{line} ||| 0.5 0.5 0.5 0.5\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match=rf"pt\.txt:2: empty {side} phrase"):
            read_phrase_table(path)

    def test_repeated_pair_names_line(self, tmp_path):
        path = tmp_path / "pt.txt"
        path.write_text("a b ||| x ||| 0.5 0.5 0.5 0.5\n"
                        "a b ||| y ||| 0.5 0.5 0.5 0.5\n"
                        "a  b ||| x ||| 0.25 0.5 0.5 0.5\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"pt\.txt:3: repeated pair a b \|\|\| x"):
            read_phrase_table(path)

    def test_max_len_is_longest_source_phrase(self, tmp_path):
        assert PhraseTable({}).max_len == 0
        # a phrase longer than extraction's default limit still reaches the
        # decoder's options
        sentence = tuple(f"w{i}" for i in range(9))
        path = tmp_path / "pt.txt"
        path.write_text(" ".join(sentence[:8]) + " ||| x ||| 0.5 0.5 0.5 0.5\n",
                        encoding="utf-8")
        table = read_phrase_table(path)
        assert table.max_len == 8
        options = build_options(sentence, [table], FeatureLayout(1, 0))
        assert [opt.tgt for opt in options[(0, 8)]] == [("x",)]
