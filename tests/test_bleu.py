import math
import random

import pytest

from traitmt.bleu import ZERO_STATS, BleuStats, bleu_from_stats, compute_bleu, sentence_stats


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
        assert stats.matches[0] == 2
        assert stats.totals[0] == 7
        assert stats.matches[0] / stats.totals[0] == pytest.approx(2 / 7)

    def test_brevity_penalty_applied(self):
        candidate = ["the cat is on".split()]
        reference = ["the cat is on the mat".split()]
        score = compute_bleu(candidate, reference)
        stats = sentence_stats(candidate[0], reference[0])
        assert stats.cand_len < stats.ref_len
        # candidate is a prefix: all precisions are 1, score is pure BP
        assert score == pytest.approx(math.exp(1 - 6 / 4))

    def test_no_penalty_when_longer(self):
        candidate = ["a b c d e".split()]
        reference = ["a b c d".split()]
        stats = sentence_stats(candidate[0], reference[0])
        assert stats.cand_len > stats.ref_len
        score = compute_bleu(candidate, reference)
        expected = math.exp(
            sum(math.log(m / t) for m, t in zip(stats.matches, stats.totals)) / 4
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
        combined = a + b
        assert combined.cand_len == 6
        assert combined.matches[0] == a.matches[0] + b.matches[0]

    def test_stats_add_fieldwise(self):
        a = sentence_stats("a b c d".split(), "a b c d".split())
        b = sentence_stats("x y".split(), "x z".split())
        assert a + b == BleuStats((5, 3, 2, 1), (6, 4, 2, 1), 6, 6)
        assert a + ZERO_STATS == a

    def test_corpus_equals_pooled_stats(self):
        rng = random.Random(1)
        cands = [[rng.choice("abc") for _ in range(6)] for _ in range(10)]
        refs = [[rng.choice("abc") for _ in range(6)] for _ in range(10)]
        total = ZERO_STATS
        for c, r in zip(cands, refs):
            total = total + sentence_stats(c, r)
        assert compute_bleu(cands, refs) == pytest.approx(bleu_from_stats(total))

    def test_empty_candidate_scores_zero(self):
        assert bleu_from_stats(sentence_stats([], ["a"])) == 0.0
