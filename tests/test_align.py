import math
import random
import re
from collections import Counter, defaultdict

import numpy as np
import pytest

import traitmt.align as align_mod
from traitmt.align import (
    NULL_TOKEN,
    PhraseTable,
    build_phrase_table,
    extract_phrases,
    ibm1_em,
    read_phrase_table,
    score_phrases,
    symmetrize,
    write_phrase_table,
)
from traitmt.decoder import FeatureLayout, build_options

CANONICAL = [(("a", "b"), ("x", "y")), (("a",), ("x",))]


def prob(table, target, source):
    """t(target | source) in an ibm1_em t-table, 0 for a missing pair."""
    return table.get(source, {}).get(target, 0.0)


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


def assert_matches_reference_em(pairs, iterations):
    """ibm1_em agrees with reference_ibm1_em to 1e-12 relative, and lists
    sources, then each source's targets, in order of first occurrence.

    A log-likelihood is a sum of log denominators minus the alignment
    prior's sum of target length x log source length, and the two can
    cancel to 0, so history values are compared to 1e-12 of the prior."""
    table, history, _ = ibm1_em(pairs, iterations=iterations)
    ref_probs, ref_history = reference_ibm1_em(pairs, iterations, use_null=True)
    assert len(history) == len(ref_history) == iterations
    prior = sum(len(t) * math.log(len(s) + 1) for s, t in pairs)
    for got, want in zip(history, ref_history):
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12 * prior), (got, want)
    src_order = list(dict.fromkeys([NULL_TOKEN] + [w for s, _ in pairs for w in s]))
    tgt_index = {w: k for k, w in enumerate(dict.fromkeys(w for _, t in pairs for w in t))}
    assert list(table) == src_order
    assert table.keys() == ref_probs.keys()
    for source, dist in table.items():
        assert list(dist) == sorted(dist, key=tgt_index.__getitem__)
        assert dist.keys() == ref_probs[source].keys()
        for target, p in dist.items():
            assert math.isclose(p, ref_probs[source][target], rel_tol=1e-12), (source, target)
    return table


class TestIbm1:
    def test_canonical_corpus_converges(self):
        # without the NULL word the textbook walk drives t(x|a) to 1; the
        # NULL word shares a's evidence, so both keep a little mass on y
        table, history, _ = ibm1_em(CANONICAL, iterations=30)
        assert prob(table, "y", "b") == pytest.approx(1.0, abs=1e-6)
        assert prob(table, "x", "a") == pytest.approx(0.9873, abs=1e-4)
        assert table[NULL_TOKEN] == table["a"]
        for prev, cur in zip(history, history[1:]):
            assert cur >= prev - 1e-12

    def test_single_pair_after_one_iteration(self):
        table, _, _ = ibm1_em([(("a",), ("x",))], iterations=1)
        assert prob(table, "x", "a") == pytest.approx(1.0)
        # the null word also explains x completely after one round
        assert prob(table, "x", NULL_TOKEN) == pytest.approx(1.0)

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
        _, history, _ = ibm1_em(pairs, iterations=12)
        assert len(history) == 12
        for prev, cur in zip(history, history[1:]):
            assert cur >= prev - 1e-12

    def test_per_source_normalization(self):
        table, _, _ = ibm1_em(CANONICAL, iterations=5)
        for source, dist in table.items():
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9), source

    def test_matches_reference_em(self):
        rng = random.Random(1)
        for _ in range(100):
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
            assert_matches_reference_em(pairs, rng.randint(1, 8))

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
        table = assert_matches_reference_em(pairs, 2)
        n_targets = len({w for dist in table.values() for w in dist})
        assert len(table) * n_targets > 4_000_000

    def test_iterations_below_one_rejected(self):
        for iterations in (0, -1):
            with pytest.raises(ValueError):
                ibm1_em(CANONICAL, iterations=iterations)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            ibm1_em([])

    def test_null_token_as_source_word_rejected(self):
        # the NULL row would hold the word's probabilities, and the NULL
        # word's lookups would read them
        with pytest.raises(ValueError, match="reserved for the NULL word"):
            ibm1_em([(("a",), ("x",)), ((NULL_TOKEN, "a"), ("x", "y"))])


def reference_viterbi_align(table, src, tgt):
    """Best source link per target word, each probability read through
    prob; ties go to NULL, then to the leftmost source."""
    links = set()
    for j, w in enumerate(tgt):
        best_i, best_p = None, prob(table, w, NULL_TOKEN)
        for i, sw in enumerate(src):
            p = prob(table, w, sw)
            if p > best_p:
                best_i, best_p = i, p
        if best_i is not None:
            links.add((best_i, j))
    return frozenset(links)


def links_by_sentence(pairs, links):
    """ibm1_em's links as one frozenset of (source, target) positions per
    non-empty pair."""
    out, start = [], 0
    for s, t in pairs:
        if s and t:
            row = links[start: start + len(t)].tolist()
            out.append(frozenset((i, j) for j, i in enumerate(row) if i >= 0))
            start += len(t)
    assert start == len(links)
    return out


class TestViterbi:
    def test_matches_reference_viterbi(self):
        rng = random.Random(9)
        seen = Counter()
        for case in range(300):
            # small vocabularies repeat words within a sentence, so that two
            # positions of one word tie; "n", put once into every source
            # sentence of half the corpora, shares every context with the
            # NULL word and so gets its t; "p" and "q" always occur together
            src_words = list("abcd")[: rng.randint(1, 4)] + ["p q"]
            tgt_words = list("wxyz")[: rng.randint(1, 4)]
            frame = case % 2 == 0
            pairs = []
            for _ in range(rng.randint(1, 12)):
                if rng.random() < 0.2:
                    pairs.append((rng.choice(src_words).split(), [rng.choice(tgt_words)]))
                    continue
                src = " ".join(rng.choice(src_words)
                               for _ in range(rng.randint(0, 4))).split()
                if frame and src:
                    src.insert(rng.randint(0, len(src)), "n")
                tgt = [rng.choice(tgt_words) for _ in range(rng.randint(0, 4))]
                pairs.append((src, tgt))
            if not any(s and t for s, t in pairs):
                continue
            probs, _, links = ibm1_em(pairs, iterations=rng.randint(1, 6))
            kept = [(s, t) for s, t in pairs if s and t]
            assert links_by_sentence(pairs, links) == \
                [reference_viterbi_align(probs, s, t) for s, t in kept]
            for s, t in kept:
                for w in t:
                    ps = [prob(probs, w, sw) for sw in s]
                    best = max(ps)
                    seen["tie_sources"] += best > 0.0 and ps.count(best) > 1
                    seen["tie_null"] += best > 0.0 and best == prob(probs, w, NULL_TOKEN)
        assert min(seen.values()) >= 50 and len(seen) == 2, seen

    def test_obvious_alignment(self):
        pairs = [(("der", "hund"), ("the", "dog")), (("der",), ("the",)), (("hund",), ("dog",))]
        _, _, links = ibm1_em(pairs, iterations=10)
        assert links_by_sentence(pairs, links)[0] == frozenset({(0, 0), (1, 1)})


def corpus_links(sentences):
    """symmetrize's arrays for (source length, target length, links)
    sentences, each link an (i, j) pair of positions in its sentence."""
    src_start = np.cumsum([0] + [n for n, _, _ in sentences], dtype=np.int32)
    tgt_start = np.cumsum([0] + [m for _, m, _ in sentences], dtype=np.int32)
    links = sorted((src_start[k] + i, tgt_start[k] + j)
                   for k, (_, _, sentence) in enumerate(sentences) for i, j in sentence)
    link_src, link_tgt = np.array(links, dtype=np.int32).reshape(-1, 2).T
    return src_start, tgt_start, link_src, link_tgt


def sentence_links(links):
    """symmetrize's arrays back as one frozenset of (i, j) per sentence."""
    src_start, tgt_start, link_src, link_tgt = links
    sentence = np.searchsorted(src_start, link_src, side="right") - 1
    i0, j0 = src_start.tolist(), tgt_start.tolist()
    out = [set() for _ in range(len(i0) - 1)]
    for k, i, j in zip(sentence.tolist(), link_src.tolist(), link_tgt.tolist()):
        out[k].add((i - i0[k], j - j0[k]))
    return [frozenset(a) for a in out]


def symmetrize_one(fwd, rev):
    """symmetrize's links for one sentence, from its fwd links (a source
    position or -1 per target word) and rev links (a target position or -1
    per source word)."""
    links = symmetrize([(len(rev), len(fwd))], np.array(fwd, dtype=np.int32),
                       np.array(rev, dtype=np.int32))
    return sentence_links(links)[0]


_NEIGHBORS = ((-1, 0), (0, -1), (1, 0), (0, 1), (-1, -1), (-1, 1), (1, -1), (1, 1))


def reference_symmetrize(fwd, rev):
    """grow-diag-final-and over one sentence's two directional alignments,
    each a set of (i, j) positions."""
    union = fwd | rev
    alignment = set(fwd & rev)
    aligned_src = {i for i, _ in alignment}
    aligned_tgt = {j for _, j in alignment}
    # grow-diag: absorb union neighbours of current points while one side
    # is still unaligned
    changed = True
    while changed:
        changed = False
        for i, j in sorted(alignment):
            for di, dj in _NEIGHBORS:
                cand = (i + di, j + dj)
                if cand in union and cand not in alignment:
                    if cand[0] not in aligned_src or cand[1] not in aligned_tgt:
                        alignment.add(cand)
                        aligned_src.add(cand[0])
                        aligned_tgt.add(cand[1])
                        changed = True
    # final-and over each directional alignment: both endpoints unaligned
    for direction in (fwd, rev):
        for i, j in sorted(direction):
            if i not in aligned_src and j not in aligned_tgt:
                alignment.add((i, j))
                aligned_src.add(i)
                aligned_tgt.add(j)
    return frozenset(alignment)


class TestSymmetrize:
    def test_identical_inputs(self):
        assert symmetrize_one([0, 1], [0, 1]) == frozenset({(0, 0), (1, 1)})

    def test_three_by_three_hand_trace(self):
        # fwd {(0,0),(1,1),(2,2)}, rev {(0,0),(1,1),(2,1)}: intersection
        # {(0,0),(1,1)}; grow-diag pulls in (2,1) (source 2 unaligned,
        # diagonal neighbour of (1,1)) and then (2,2) (target 2 unaligned,
        # neighbour of (2,1)); final-and adds nothing
        result = symmetrize_one([0, 1, 2], [0, 1, 1])
        assert result == frozenset({(0, 0), (1, 1), (2, 1), (2, 2)})

    def test_final_and_rescues_isolated_links(self):
        # no intersection; final-and adds links whose both ends are free
        assert symmetrize_one([0, -1], [-1, 1]) == frozenset({(0, 0), (1, 1)})

    def test_between_intersection_and_union(self):
        rng = random.Random(2)
        for _ in range(50):
            n, m = rng.randint(1, 5), rng.randint(1, 5)
            fwd = [rng.randrange(-1, n) for _ in range(m)]
            rev = [rng.randrange(-1, m) for _ in range(n)]
            fwd_links = {(i, j) for j, i in enumerate(fwd) if i >= 0}
            rev_links = {(i, j) for i, j in enumerate(rev) if j >= 0}
            result = symmetrize_one(fwd, rev)
            assert result >= (fwd_links & rev_links)
            assert result <= (fwd_links | rev_links)

    def test_matches_reference_per_sentence(self):
        rng = random.Random(12)
        seen = Counter()
        for _ in range(200):
            lengths, fwd, rev = [], [], []
            for _ in range(rng.randint(0, 12)):
                n, m = rng.choice([(1, 1), (0, rng.randint(0, 8)), (rng.randint(0, 8), 0),
                                   (rng.randint(1, 8), rng.randint(1, 8))])
                # some sentences link every word to NULL, some no word
                p_null = rng.choice([0.0, 0.3, 1.0])
                fwd.append([-1 if rng.random() < p_null or not n else rng.randrange(n)
                            for _ in range(m)])
                rev.append([-1 if rng.random() < p_null or not m else rng.randrange(m)
                            for _ in range(n)])
                lengths.append((n, m))
            links = symmetrize(lengths, np.array(sum(fwd, []), dtype=np.int32),
                               np.array(sum(rev, []), dtype=np.int32))
            assert all(a.dtype == np.int32 for a in links)
            assert links[0].tolist() == np.cumsum([0] + [n for n, _ in lengths]).tolist()
            assert links[1].tolist() == np.cumsum([0] + [m for _, m in lengths]).tolist()
            pairs = list(zip(links[2].tolist(), links[3].tolist()))
            assert pairs == sorted(pairs)
            want = [reference_symmetrize({(i, j) for j, i in enumerate(f) if i >= 0},
                                         {(i, j) for i, j in enumerate(r) if j >= 0})
                    for f, r in zip(fwd, rev)]
            assert sentence_links(links) == want
            for (n, m), f, a in zip(lengths, fwd, want):
                seen["empty_side"] += not n or not m
                seen["one_token"] += n == m == 1
                seen["null_only"] += m > 0 and max(f, default=-1) < 0
                seen["no_link"] += not a
                seen["grown"] += len(a) > 1
        assert len(seen) == 5 and min(seen.values()) >= 50, seen


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


def rows_of(spans, k):
    """Sentence k's (i1, i2, j1, j2) rows of an extract_phrases array, in order."""
    return [tuple(row[1:]) for row in spans.tolist() if row[0] == k]


class TestExtractPhrases:
    def test_monotone_two_words(self):
        src, tgt = ("w1", "w2"), ("v1", "v2")
        spans = extract_phrases(corpus_links([(2, 2, {(0, 0), (1, 1)})]))
        assert spans.dtype == np.int32 and spans.shape == (3, 5)
        as_tokens = {(src[i1: i2 + 1], tgt[j1: j2 + 1]) for _, i1, i2, j1, j2 in spans.tolist()}
        assert as_tokens == {
            (("w1",), ("v1",)),
            (("w2",), ("v2",)),
            (("w1", "w2"), ("v1", "v2")),
        }

    def test_crossing_link_blocks_span(self):
        spans = set(rows_of(extract_phrases(corpus_links([(2, 2, {(0, 1), (1, 0)})])), 0))
        assert (0, 0, 0, 0) not in spans
        assert spans == {(0, 0, 1, 1), (1, 1, 0, 0), (0, 1, 0, 1)}

    def test_max_len_one(self):
        links = corpus_links([(2, 2, {(0, 0), (1, 1)})])
        spans = rows_of(extract_phrases(links, max_len=1), 0)
        assert spans and all(i1 == i2 and j1 == j2 for i1, i2, j1, j2 in spans)

    @pytest.mark.parametrize("max_len", [0, -1])
    def test_max_len_below_one_rejected(self, max_len):
        links = corpus_links([(2, 2, {(0, 0), (1, 1)})])
        with pytest.raises(ValueError, match=f"max_len must be >= 1, got {max_len}"):
            extract_phrases(links, max_len=max_len)

    def test_matches_brute_force_oracle(self):
        assert extract_phrases(corpus_links([])).shape == (0, 5)
        rng = random.Random(3)
        for max_len in range(1, 8):
            for _ in range(40):
                sentences = []
                for _ in range(rng.randint(0, 8)):
                    n, m = rng.randint(1, 6), rng.randint(1, 6)
                    links = frozenset(
                        (rng.randrange(n), rng.randrange(m)) for _ in range(rng.randint(0, 8))
                    )
                    sentences.append((n, m, links))
                # sentences with no link, one-word sentences and an empty
                # side; then an unaligned target run at the end of one
                # sentence and another at the start of the next, which no
                # extension may join
                fixed = [(3, 2, frozenset()), (1, 1, frozenset()), (1, 1, frozenset({(0, 0)})),
                         (0, 2, frozenset())]
                for sentence in fixed:
                    sentences.insert(rng.randint(0, len(sentences)), sentence)
                k = rng.randint(0, len(sentences))
                sentences[k:k] = [(2, 3, frozenset({(0, 0)})), (2, 3, frozenset({(1, 2)}))]
                spans = extract_phrases(corpus_links(sentences), max_len=max_len)
                assert spans.dtype == np.int32 and spans.shape[1] == 5
                order = spans[:, 0].tolist()
                assert order == sorted(order)
                for k, (n, m, links) in enumerate(sentences):
                    rows = rows_of(spans, k)
                    assert len(set(rows)) == len(rows)
                    assert set(rows) == oracle_extract(n, m, links, max_len)
                    # the order scoring sees: source span, then target start
                    # descending, then target end ascending
                    order = [(i1, i2, -j1, j2) for i1, i2, j1, j2 in rows]
                    assert order == sorted(order)


def reference_lexical_weight(src, tgt, links, table):
    """w(tgt | src, a) from one pair's own internal links; a word's linked
    probabilities are added left to right in ascending position."""
    by_target = defaultdict(list)
    for i, j in links:
        by_target[j].append(i)
    weight = 1.0
    for j, w in enumerate(tgt):
        if j in by_target:
            sources = sorted(by_target[j])
            p = 0.0
            for i in sources:
                p += prob(table, w, src[i])
            p /= len(sources)
        else:
            p = prob(table, w, NULL_TOKEN)
        weight *= p
    return max(weight, align_mod._LEX_FLOOR)


def internal_links(links, span):
    """The sentence's links inside the span, offset to its start."""
    i1, i2, j1, j2 = span
    return frozenset((i - i1, j - j1) for i, j in links if i1 <= i <= i2 and j1 <= j <= j2)


def reference_score_phrases(sentences, rows, lex_fwd, lex_rev):
    """Relative frequencies, and lexical weights maximized over each pair's
    distinct internal alignments, each weighed on its own; sentences are
    (src, tgt, links) triples and rows (sentence, i1, i2, j1, j2) tuples.
    Returns the entries mapping."""
    pair_counts, src_counts, tgt_counts = Counter(), Counter(), Counter()
    alignments = defaultdict(set)
    for k, i1, i2, j1, j2 in rows:
        src, tgt, alignment = sentences[k]
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


def as_hex(entries):
    """Entries as lists in dict order, each score as float.hex."""
    return [(src, [(tgt, [float.hex(x) for x in scores]) for tgt, scores in row.items()])
            for src, row in entries.items()]


def random_lexical_table(rng, given, conditioned, use_null):
    """Random t(given | conditioned), some pairs missing (probability 0)."""
    sources = list(conditioned) + ([NULL_TOKEN] if use_null else [])
    return {w: {v: rng.random() for v in given if rng.random() < 0.95} for w in sources}


def sentence_arrays(sentences):
    """score_phrases' pairs and links for (src, tgt, links) sentences."""
    return ([(src, tgt) for src, tgt, _ in sentences],
            corpus_links([(len(src), len(tgt), links) for src, tgt, links in sentences]))


def scoring_input(cases, max_len=7):
    """The (src, tgt, links) cases and the spans extract_phrases finds in
    them."""
    return cases, extract_phrases(sentence_arrays(cases)[1], max_len)


def score(sentences, spans, lex_fwd, lex_rev):
    """score_phrases over (src, tgt, links) sentences."""
    return score_phrases(*sentence_arrays(sentences), spans, lex_fwd, lex_rev)


class TestScorePhrases:
    def uniform_table(self, words):
        return {w: {v: 0.5 for v in words} for w in [NULL_TOKEN] + list(words)}

    def test_relative_frequency(self):
        cases = [(("s",), (tgt,), {(0, 0)}) for tgt in ("x", "x", "x", "y")]
        lex = {"s": {"x": 0.7, "y": 0.3}, NULL_TOKEN: {"x": 0.5, "y": 0.5}}
        lex_rev = {"x": {"s": 1.0}, "y": {"s": 1.0}, NULL_TOKEN: {"s": 1.0}}
        table = score(*scoring_input(cases), lex, lex_rev)
        phi_fwd = table.entries[("s",)][("x",)][0]
        assert phi_fwd == pytest.approx(0.75)

    def test_unique_pair_scores_one(self):
        lex = {"a": {"x": 0.8}, NULL_TOKEN: {"x": 0.2}}
        lex_rev = {"x": {"a": 0.9}, NULL_TOKEN: {"a": 0.1}}
        table = score(*scoring_input([(("a",), ("x",), {(0, 0)})]), lex, lex_rev)
        phi_fwd, lex_f, phi_rev, lex_r = table.entries[("a",)][("x",)]
        assert phi_fwd == 1.0 and phi_rev == 1.0
        # single 1:1 link: lexical weight equals the table probability
        assert lex_f == pytest.approx(0.8)
        assert lex_r == pytest.approx(0.9)

    def test_conditional_normalization_both_directions(self):
        rng = random.Random(4)
        cases = [((rng.choice(("s1", "s2", "s3")),), (rng.choice(("t1", "t2")),), {(0, 0)})
                 for _ in range(200)]
        words = ("s1", "s2", "s3", "t1", "t2")
        table = score(*scoring_input(cases), self.uniform_table(words),
                      self.uniform_table(words))
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
            [(("a", "b"), ("x", "y")), (("b", "c"), ("y", "z")), (("a",), ("x",))]
        )
        for row in table.entries.values():
            for scores in row.values():
                for s in scores:
                    assert 0.0 < s <= 1.0

    def random_cases(self, seed, count):
        """(sentences, spans, lex_fwd, lex_rev) per case that extracts some pair."""
        rng = random.Random(seed)
        for case in range(count):
            # small vocabularies repeat pairs under different alignments
            k = rng.randint(2, 4)
            src_words, tgt_words = "abcd"[:k], "wxyz"[:k]
            use_null = case % 3 != 0
            lex_fwd = random_lexical_table(rng, tgt_words, src_words, use_null)
            lex_rev = random_lexical_table(rng, src_words, tgt_words, use_null)
            max_len = rng.randint(1, 7)
            cases = []
            for _ in range(rng.randint(1, 12)):
                n, m = rng.randint(1, 7), rng.randint(1, 7)
                src = tuple(rng.choice(src_words) for _ in range(n))
                tgt = tuple(rng.choice(tgt_words) for _ in range(m))
                # dense enough that some words get three or more links,
                # sparse enough that some boundary words stay unaligned
                links = {(rng.randrange(n), rng.randrange(m))
                         for _ in range(rng.randint(0, n * m // 2 + 1))}
                cases.append((src, tgt, links))
            sentences, spans = scoring_input(cases, max_len)
            if len(spans):
                yield sentences, spans, lex_fwd, lex_rev

    def test_matches_reference_scorer(self):
        for sentences, spans, lex_fwd, lex_rev in self.random_cases(5, 120):
            table = score(sentences, spans, lex_fwd, lex_rev)
            reference = reference_score_phrases(sentences, spans.tolist(), lex_fwd, lex_rev)
            # rows and their targets in order of first occurrence
            assert as_hex(table.entries) == as_hex(reference)

    def test_span_order_does_not_matter(self):
        rng = random.Random(10)
        for sentences, spans, lex_fwd, lex_rev in self.random_cases(11, 120):
            shuffled = spans[rng.sample(range(len(spans)), len(spans))]
            table = score(sentences, shuffled, lex_fwd, lex_rev)
            assert table.entries == reference_score_phrases(sentences, spans.tolist(),
                                                            lex_fwd, lex_rev)

    def test_linked_probabilities_add_left_to_right(self):
        # from Python 3.12 the built-in sum compensates rounding, and these
        # three probabilities then add to exactly 0.6
        lex_fwd = {"a": {"x": 0.1}, "b": {"x": 0.2}, "c": {"x": 0.3}}
        lex_rev = {"x": {"a": 1.0, "b": 1.0, "c": 1.0}}
        left_fold = (0.1 + 0.2) + 0.3
        assert left_fold != math.fsum((0.1, 0.2, 0.3))
        cases = [(("a", "b", "c"), ("x",), {(0, 0), (1, 0), (2, 0)})]
        table = score(*scoring_input(cases), lex_fwd, lex_rev)
        assert table.entries[("a", "b", "c")][("x",)][1] == left_fold / 3

    def test_one_shot_iterator_scores_as_list(self):
        # the pairs are read once, so any iterable of them will do
        for sentences, spans, lex_fwd, lex_rev in self.random_cases(7, 60):
            pairs, links = sentence_arrays(sentences)
            table = score_phrases(iter(pairs), links, spans, lex_fwd, lex_rev)
            want = score_phrases(pairs, links, spans, lex_fwd, lex_rev)
            assert as_hex(table.entries) == as_hex(want.entries)

    def test_build_phrase_table_matches_reference_scorer(self, monkeypatch):
        seen = []

        def recording(pairs, links, spans, lex_fwd, lex_rev):
            sentences = [(s, t, a) for (s, t), a in zip(pairs, sentence_links(links))]
            seen.append((sentences, spans.tolist(), lex_fwd, lex_rev))
            return score_phrases(pairs, links, spans, lex_fwd, lex_rev)

        monkeypatch.setattr(align_mod, "score_phrases", recording)
        rng = random.Random(6)
        for _ in range(5):
            pairs = []
            for _ in range(40):
                n = rng.randint(1, 8)
                src = tuple(rng.choice("abcdef") for _ in range(n))
                tgt = tuple(rng.choice("uvwxyz") for _ in range(max(1, n + rng.randint(-2, 2))))
                pairs.append((src, tgt))
            table, _, _ = build_phrase_table(pairs)
            sentences, rows, lex_fwd, lex_rev = seen.pop()
            assert table.entries == reference_score_phrases(sentences, rows, lex_fwd, lex_rev)

    def test_empty_extraction_rejected(self):
        lex = {}
        with pytest.raises(ValueError):
            score([], extract_phrases(corpus_links([])), lex, lex)
        with pytest.raises(ValueError):
            score(*scoring_input([(("a",), ("x",), set())]), lex, lex)


class TestBuildPhraseTable:
    CORPUS = [(("a", "b"), ("x", "y")), (("a",), ("x",)), (("b",), ("y",))]

    def test_stages_called_through_module(self, monkeypatch):
        # the benchmark's per-layer timings wrap these module attributes, and
        # each stage runs once over the whole corpus
        calls = []
        for name in ("ibm1_em", "symmetrize", "extract_phrases", "score_phrases"):
            def counting(*args, _name=name, _inner=getattr(align_mod, name), **kwargs):
                calls.append(_name)
                return _inner(*args, **kwargs)
            monkeypatch.setattr(align_mod, name, counting)
        build_phrase_table(self.CORPUS)
        assert calls == ["ibm1_em", "ibm1_em", "symmetrize", "extract_phrases", "score_phrases"]

    def test_matches_reference_over_oracle_spans(self):
        # the two passes against the per-sentence specification: each kept
        # pair's alignment rebuilt from ibm1_em's links, its spans from the
        # brute-force oracle in extraction order, its scores from the
        # reference scorer
        rng = random.Random(13)
        for _ in range(6):
            pairs = []
            for _ in range(rng.randint(1, 30)):
                n = rng.randint(0, 7)
                src = tuple(rng.choice("abcde") for _ in range(n))
                tgt = tuple(rng.choice("vwxyz") for _ in range(max(0, n + rng.randint(-2, 2))))
                pairs.append((src, tgt))
            if not any(s and t for s, t in pairs):
                continue
            table, lex_fwd, lex_rev = build_phrase_table(pairs)
            kept = [(s, t) for s, t in pairs if s and t]
            flipped = [(t, s) for s, t in kept]
            fwd = links_by_sentence(kept, ibm1_em(kept)[2])
            rev = links_by_sentence(flipped, ibm1_em(flipped)[2])
            sentences, rows = [], []
            for k, ((s, t), f, r) in enumerate(zip(kept, fwd, rev)):
                alignment = reference_symmetrize(f, {(i, j) for j, i in r})
                sentences.append((s, t, alignment))
                spans = oracle_extract(len(s), len(t), alignment, 7)
                rows += [(k, i1, i2, j1, j2) for i1, i2, j1, j2 in
                         sorted(spans, key=lambda span: (span[0], span[1], -span[2], span[3]))]
            reference = reference_score_phrases(sentences, rows, lex_fwd, lex_rev)
            assert as_hex(table.entries) == as_hex(reference)

    def test_counts_dropped_pairs(self):
        # each sentence's links are sliced from ibm1_em's arrays, which
        # skip the same pairs, wherever they stand
        table, fwd, rev = build_phrase_table(self.CORPUS)
        assert table.dropped_pairs == 0
        a, b, c = self.CORPUS
        with_empty = [((), ("x",)), a, (("a",), ()), b, ((), ()), c, (("b",), ())]
        dropped, fwd_dropped, rev_dropped = build_phrase_table(with_empty)
        assert dropped.dropped_pairs == 4
        assert [(src, list(row.items())) for src, row in dropped.entries.items()] == \
            [(src, list(row.items())) for src, row in table.entries.items()]
        assert (fwd_dropped, rev_dropped) == (fwd, rev)

    @pytest.mark.parametrize("side", ["source", "target"])
    def test_null_token_named_before_ibm1(self, monkeypatch, side):
        def failing(*args, **kwargs):
            raise AssertionError("ibm1_em ran")

        monkeypatch.setattr(align_mod, "ibm1_em", failing)
        bad = (NULL_TOKEN, "a") if side == "source" else ("x", NULL_TOKEN)
        pair = (bad, ("x", "y")) if side == "source" else (("a", "b"), bad)
        # a pair with an empty side is dropped, whatever words it holds
        pairs = self.CORPUS[:1] + [((NULL_TOKEN,), ()), pair] + self.CORPUS[1:]
        with pytest.raises(ValueError, match=rf"^pair 2: {side} word '<null>' is reserved"):
            build_phrase_table(pairs)


class TestPhraseTable:
    CORPUS = [(("a", "b"), ("x", "y")), (("a",), ("x",)), (("b", "c"), ("y", "z")),
              (("c", "a", "b"), ("z", "x", "y"))]

    def test_looked_up_row_is_the_callers_own(self):
        table, _, _ = build_phrase_table(self.CORPUS)
        before = as_hex(table.entries)
        row = table.lookup(("a",))
        want = dict(row)
        row.clear()
        row[("w",)] = (1.0,) * 4
        table.entries[("a",)][("w",)] = (1.0,) * 4
        assert table.lookup(("a",)) == want
        assert as_hex(table.entries) == before

    def test_building_sizes_and_misses_build_no_row(self, monkeypatch):
        built, _, _ = build_phrase_table(self.CORPUS)
        entries = dict(built.entries)
        pairs = sum(len(row) for row in entries.values())

        def failing(self, r):
            raise AssertionError("a row was built")

        monkeypatch.setattr(PhraseTable, "_row", failing)
        for table in build_phrase_table(self.CORPUS)[0], PhraseTable(entries):
            assert len(table) == pairs
            assert table.max_len == max(map(len, entries)) == 3
            assert table.lookup(("q",)) == {}
            assert table.lookup(("a", "c")) == {}
            assert ("a",) in table.entries and ("q",) not in table.entries
            assert list(table.entries) == list(entries) and len(table.entries) == len(entries)

    def test_entries_are_read_only(self):
        table, _, _ = build_phrase_table(self.CORPUS)
        with pytest.raises(TypeError):
            table.entries[("a",)] = {}

    def test_built_from_its_entries_keeps_order_and_bits(self):
        for sentences, spans, lex_fwd, lex_rev in TestScorePhrases().random_cases(3, 20):
            table = score(sentences, spans, lex_fwd, lex_rev)
            copy = PhraseTable(table.entries)
            assert as_hex(copy.entries) == as_hex(table.entries)
            assert (len(copy), copy.max_len) == (len(table), table.max_len)


class TestPhraseTableIo:
    def test_round_trip(self, tmp_path):
        table, _, _ = build_phrase_table(
            [(("a", "b"), ("x", "y")), (("a",), ("x",)), (("b",), ("y",))]
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

    def test_write_read_write_is_byte_identical(self, tmp_path):
        rng = random.Random(8)
        pairs = []
        for _ in range(60):
            n = rng.randint(1, 8)
            m = max(1, n + rng.randint(-2, 2))
            pairs.append((tuple(rng.choices("abcdef", k=n)), tuple(rng.choices("uvwxyz", k=m))))
        table, _, _ = build_phrase_table(pairs)
        first, second = tmp_path / "first.txt", tmp_path / "second.txt"
        write_phrase_table(table, first)
        loaded = read_phrase_table(first)
        write_phrase_table(loaded, second)
        assert first.read_bytes() == second.read_bytes()
        assert len(loaded) == len(table) == len(first.read_text(encoding="utf-8").splitlines())

    @pytest.mark.parametrize("src, tgt, scores", [
        ((), ("x",), (0.5,) * 4),
        (("b",), (), (0.5,) * 4),
        (("b",), ("y",), (0.5, 0.0, 0.5, 0.5)),
        (("b",), ("y",), (0.5, 0.5, 1.0000001, 0.5)),
        (("b",), ("y",), (0.5, 0.5, 0.5, math.nan)),
        (("b",), ("y",), (0.5,) * 3),
    ])
    def test_write_rejects_what_read_rejects(self, tmp_path, src, tgt, scores):
        path = tmp_path / "pt.txt"
        pair = re.escape(f"pair {src!r} ||| {tgt!r}")
        with pytest.raises(ValueError, match=rf"^{pair}: "):
            # a pair whose scores are not four is refused as the table is built
            write_phrase_table(PhraseTable({("a",): {("x",): (1.0,) * 4}, src: {tgt: scores}}),
                               path)
        assert not path.exists()

    @pytest.mark.parametrize("side", ["source", "target"])
    @pytest.mark.parametrize("phrase", [
        ("a b",), ("a", "|||"), ("|||",), ("",), ("a", "", "b"), ("a", "|||", "b"),
        ("a\tb",), ("a\nb",), ("a\rb",), ("a\x1cb",), ("a\u2028b",),
    ])
    def test_write_refuses_words_that_read_back_otherwise(self, tmp_path, side, phrase):
        src, tgt = (phrase, ("x",)) if side == "source" else (("b",), phrase)
        table = PhraseTable({("a",): {("x",): (1.0,) * 4}, src: {tgt: (0.5,) * 4}})
        path = tmp_path / "pt.txt"
        pair = re.escape(f"pair {src!r} ||| {tgt!r}")
        with pytest.raises(ValueError, match=rf"^{pair}: "):
            write_phrase_table(table, path)
        assert not path.exists()

    def test_write_refuses_score_that_rounds_into_range(self, tmp_path):
        # written with 12 significant digits, 1 + 1e-13 would read back as 1
        src, tgt = ("b",), ("y",)
        table = PhraseTable({src: {tgt: (0.5, 1 + 1e-13, 0.5, 0.5)}})
        path = tmp_path / "pt.txt"
        with pytest.raises(ValueError, match=rf"^{re.escape(f'pair {src!r} ||| {tgt!r}')}: "):
            write_phrase_table(table, path)
        assert not path.exists()

    def test_write_accepts_exactly_what_reads_back(self, tmp_path):
        """Random tables over words that sit close to the separator: a
        table is written when every word is non-empty, holds no whitespace
        and is not `|||`, and then reads back as itself; otherwise the
        writer refuses it and leaves no file."""
        words = ["a", "b", "|", "||", "||||", "a|||b", "|||", "", "a b"]
        weights = [4] * 6 + [1] * 3  # the three unwritable words a quarter as often
        rng = random.Random(7)

        def phrase():
            return tuple(rng.choices(words, weights, k=rng.randint(1, 3)))

        written = refused = 0
        for trial in range(400):
            entries = defaultdict(dict)
            for _ in range(rng.randint(1, 4)):
                entries[phrase()][phrase()] = tuple(1.0 - rng.random() for _ in range(4))
            entries = dict(entries)
            writable = all(w.split() == [w] and w != "|||"
                           for src, row in entries.items() for tgt in row for w in src + tgt)
            path = tmp_path / f"{trial}.txt"
            if not writable:
                with pytest.raises(ValueError, match=r"^pair "):
                    write_phrase_table(PhraseTable(entries), path)
                assert not path.exists()
                refused += 1
                continue
            write_phrase_table(PhraseTable(entries), path)
            loaded = read_phrase_table(path).entries
            assert {s: row.keys() for s, row in loaded.items()} == \
                {s: row.keys() for s, row in entries.items()}
            for src, row in entries.items():
                for tgt, scores in row.items():
                    assert loaded[src][tgt] == pytest.approx(scores, abs=1e-12)
            written += 1
        assert written >= 100 and refused >= 100

    @pytest.mark.parametrize("line", ["||| ||| x ||| 0.5 0.5 0.5 0.5",
                                      "a ||| ||| ||| 0.5 0.5 0.5 0.5"])
    def test_pipe_word_names_line(self, tmp_path, line):
        path = tmp_path / "pt.txt"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:1: "):
            read_phrase_table(path)

    def test_pipes_inside_words_round_trip(self, tmp_path):
        entries = {("a|||b", "||||"): {("|||x", "y|||"): (0.5,) * 4}}
        path = tmp_path / "pt.txt"
        write_phrase_table(PhraseTable(entries), path)
        assert read_phrase_table(path).entries == entries

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "pt.txt"
        path.write_text("a ||| x\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_phrase_table(path)

    def test_whitespace_only_line_is_blank(self, tmp_path):
        path = tmp_path / "pt.txt"
        path.write_text("a ||| x ||| 0.5 0.5 0.5 0.5\n \t\n\nb ||| y ||| 1 1 1 1\n",
                        encoding="utf-8")
        assert read_phrase_table(path).entries == {
            ("a",): {("x",): (0.5,) * 4}, ("b",): {("y",): (1.0,) * 4}}

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
        layout = FeatureLayout(1, 0)
        options = build_options(sentence, [table], layout, layout.default_weights())
        assert [opt.tgt for opt in options[(0, 8)]] == [("x",)]
