import math
import random
from collections import Counter

import numpy as np
import pytest

from traitmt.bleu import MAX_ORDER, bleu_from_stats, compute_bleu, ngram_counts, sentence_stats

# the columns of a statistics row
MATCHES = slice(0, MAX_ORDER)
TOTALS = slice(MAX_ORDER, 2 * MAX_ORDER)
CAND_LEN, REF_LEN = 2 * MAX_ORDER, 2 * MAX_ORDER + 1


def _ngrams(tokens, n):
    return Counter(tuple(tokens[i: i + n]) for i in range(len(tokens) - n + 1))


def reference_sentence_stats(candidate, reference):
    """One Counter per order and side, clipped and totalled order by order."""
    candidate = list(candidate)
    reference = list(reference)
    matches, totals = [], []
    for n in range(1, MAX_ORDER + 1):
        cand_counts = _ngrams(candidate, n)
        ref_counts = _ngrams(reference, n)
        matches.append(sum(min(c, ref_counts[g]) for g, c in cand_counts.items()))
        totals.append(sum(cand_counts.values()))
    return (*matches, *totals, len(candidate), len(reference))


def add_rows(rows):
    return [sum(column) for column in zip(*rows)]


def reference_bleu_from_stats(stats) -> float:
    """BLEU of one summed row, scored on its own."""
    cand_len, ref_len = stats[2 * MAX_ORDER], stats[2 * MAX_ORDER + 1]
    if cand_len == 0:
        return 0.0
    log_sum = 0.0
    for clipped, total in zip(stats[:MAX_ORDER], stats[MAX_ORDER:2 * MAX_ORDER]):
        if clipped == 0 or total == 0:
            return 0.0
        log_sum += math.log(clipped / total)
    precision = math.exp(log_sum / MAX_ORDER)
    if cand_len > ref_len:
        bp = 1.0
    else:
        bp = math.exp(1.0 - ref_len / cand_len)
    return bp * precision


def random_row(rng):
    """A summed row: about one in five has a zero count somewhere, and the
    candidate side is longer, as long as or shorter than the reference."""
    totals = [rng.randint(1, 5000) for _ in range(MAX_ORDER)]
    clipped = [rng.randint(1, t) for t in totals]
    if rng.random() < 0.2:
        (clipped if rng.random() < 0.5 else totals)[rng.randrange(MAX_ORDER)] = 0
    cand_len = totals[0] if rng.random() < 0.9 else rng.randint(0, 3)
    ref_len = rng.choice([cand_len, cand_len + rng.randint(1, 900), max(cand_len - rng.randint(1, 900), 0)])
    return (*clipped, *totals, cand_len, ref_len)


class TestComputeBleu:
    def test_identity_is_exactly_one(self):
        segments = [
            "the cat is on the mat".split(),
            "there is a cat".split(),
            "one".split(),
        ]
        assert compute_bleu(segments, segments) == 1.0

    def test_clipped_unigram_hand_case(self):
        candidate = "the the the the the the the".split()
        reference = "the cat is on the mat".split()
        stats = sentence_stats(candidate, reference)
        # reference contains "the" twice; 7 candidate unigrams clip to 2
        assert stats[MATCHES][0] == 2
        assert stats[TOTALS][0] == 7
        assert stats[MATCHES][0] / stats[TOTALS][0] == pytest.approx(2 / 7)

    def test_brevity_penalty_applied(self):
        candidate = ["the cat is on".split()]
        reference = ["the cat is on the mat".split()]
        score = compute_bleu(candidate, reference)
        stats = sentence_stats(candidate[0], reference[0])
        assert stats[CAND_LEN] < stats[REF_LEN]
        # candidate is a prefix: all precisions are 1, score is pure BP
        assert score == pytest.approx(math.exp(1 - 6 / 4))

    def test_no_penalty_when_longer(self):
        candidate = ["a b c d e".split()]
        reference = ["a b c d".split()]
        stats = sentence_stats(candidate[0], reference[0])
        assert stats[CAND_LEN] > stats[REF_LEN]
        score = compute_bleu(candidate, reference)
        expected = math.exp(
            sum(math.log(m / t) for m, t in zip(stats[MATCHES], stats[TOTALS])) / 4
        )
        assert score == pytest.approx(expected)

    def test_zero_when_any_precision_zero(self):
        # no 4-gram overlap
        assert compute_bleu(["a b c d".split()], ["a b c e".split()]) == 0.0

    def test_segment_order_invariance(self):
        rng = random.Random(0)
        cands = [[rng.choice("abcde") for _ in range(8)] for _ in range(12)]
        refs = [[rng.choice("abcde") for _ in range(8)] for _ in range(12)]
        base = compute_bleu(cands, refs)
        order = list(range(12))
        rng.shuffle(order)
        assert compute_bleu([cands[i] for i in order], [refs[i] for i in order]) == base

    def test_empty_candidate_set_rejected(self):
        with pytest.raises(ValueError):
            compute_bleu([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compute_bleu([["a"]], [])


class TestStats:
    def test_stats_additive(self):
        a = sentence_stats("a b c d".split(), "a b c d".split())
        b = sentence_stats("x y".split(), "x z".split())
        combined = add_rows([a, b])
        assert combined[CAND_LEN] == 6
        assert combined[MATCHES][0] == a[MATCHES][0] + b[MATCHES][0]

    def test_stats_add_fieldwise(self):
        # matches 1-4, totals 1-4, cand_len, ref_len; compute_bleu scores
        # the column sums
        cands, refs = ["a b c d".split(), "x y".split()], ["a b c d".split(), "x z".split()]
        assert sentence_stats(cands[0], refs[0]) == (4, 3, 2, 1, 4, 3, 2, 1, 4, 4)
        assert sentence_stats(cands[1], refs[1]) == (1, 0, 0, 0, 2, 1, 0, 0, 2, 2)
        assert compute_bleu(cands, refs) == bleu_from_stats((5, 3, 2, 1, 6, 4, 2, 1, 6, 6))

    def test_matches_reference_stats(self):
        # small vocabularies repeat n-grams that clipping must cap; lengths
        # from 0 cover the empty candidate and candidates under 4 tokens
        rng = random.Random(2)
        for trial in range(2000):
            vocab = "abcdef"[:rng.randint(1, 6)]
            cand = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
            ref = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
            assert sentence_stats(cand, ref) == reference_sentence_stats(cand, ref), trial
        for cand, ref in [([], []), ([], ["a"]), (["a"], []), (["a", "a", "a"], ["a"]),
                          ("a b a b a b".split(), "a b a b".split())]:
            assert sentence_stats(cand, ref) == reference_sentence_stats(cand, ref)

    def test_precounted_reference_gives_the_same_row(self):
        rng = random.Random(4)
        for trial in range(500):
            vocab = "abcd"[:rng.randint(1, 4)]
            ref = [rng.choice(vocab) for _ in range(rng.randint(0, 10))]
            counts = ngram_counts(tuple(ref))
            for _ in range(3):
                cand = [rng.choice(vocab) for _ in range(rng.randint(0, 10))]
                assert sentence_stats(cand, ref, counts) == sentence_stats(cand, ref), trial

    def test_corpus_equals_pooled_stats(self):
        rng = random.Random(1)
        cands = [[rng.choice("abc") for _ in range(6)] for _ in range(10)]
        refs = [[rng.choice("abc") for _ in range(6)] for _ in range(10)]
        total = add_rows(sentence_stats(c, r) for c, r in zip(cands, refs))
        assert compute_bleu(cands, refs) == bleu_from_stats(total)

    def test_empty_candidate_scores_zero(self):
        assert bleu_from_stats(sentence_stats([], ["a"])) == 0.0


class TestBleuFromStats:
    def test_rows_match_reference(self):
        # a log or exponential off by one ulp changes about one score in
        # 3,000, so the matrix form is checked on 30,000 rows
        rng = random.Random(5)
        rows = [(0,) * 10, (1, 1, 1, 1, 1, 1, 1, 1, 1, 1), (3, 2, 1, 1, 4, 3, 2, 1, 4, 9),
                (3, 2, 1, 1, 4, 3, 2, 1, 4, 2), (2, 1, 1, 0, 2, 1, 1, 1, 2, 2)]
        rows += [random_row(rng) for _ in range(30000)]
        want = [reference_bleu_from_stats(row) for row in rows]
        assert any(w == 0.0 for w in want) and any(0.0 < w < 1.0 for w in want)
        for row, expected in zip(rows[:2000], want):
            got = bleu_from_stats(row)
            assert type(got) is float and got == expected, row
            assert bleu_from_stats(list(row)) == expected, row
        # the matrix form scores every row at once, bit for bit the same
        assert bleu_from_stats(rows) == want
        assert bleu_from_stats(np.array(rows, dtype=np.int64)) == want
        assert bleu_from_stats(np.array(rows[:1])) == want[:1]
        assert bleu_from_stats(np.zeros((0, 10), dtype=np.int64)) == []

    def test_sentence_rows_match_reference(self):
        rng = random.Random(6)
        rows = []
        for _ in range(500):
            vocab = "abcdef"[:rng.randint(1, 6)]
            cand = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
            ref = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
            rows.append(sentence_stats(cand, ref))
        sums = [add_rows(rows[k:k + 7]) for k in range(0, len(rows), 7)]
        assert bleu_from_stats(rows + sums) == [reference_bleu_from_stats(r) for r in rows + sums]
