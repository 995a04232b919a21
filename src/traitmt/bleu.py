"""Corpus-level BLEU-4 against a single reference.

Sufficient statistics (clipped n-gram matches, totals, lengths) are kept
separate from the final score so that tuning can re-score candidate
selections without re-counting n-grams.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass

MAX_ORDER = 4


@dataclass(frozen=True)
class BleuStats:
    matches: tuple  # clipped n-gram matches, n = 1..4
    totals: tuple   # candidate n-gram counts, n = 1..4
    cand_len: int
    ref_len: int

    def __add__(self, other: "BleuStats") -> "BleuStats":
        return BleuStats(
            tuple(map(operator.add, self.matches, other.matches)),
            tuple(map(operator.add, self.totals, other.totals)),
            self.cand_len + other.cand_len,
            self.ref_len + other.ref_len,
        )


ZERO_STATS = BleuStats((0,) * MAX_ORDER, (0,) * MAX_ORDER, 0, 0)


def _ngrams(tokens, n):
    return Counter(tuple(tokens[i: i + n]) for i in range(len(tokens) - n + 1))


def sentence_stats(candidate, reference) -> BleuStats:
    """Clipped matches and totals for one candidate/reference pair."""
    candidate = list(candidate)
    reference = list(reference)
    matches, totals = [], []
    for n in range(1, MAX_ORDER + 1):
        cand_counts = _ngrams(candidate, n)
        ref_counts = _ngrams(reference, n)
        clipped = sum(min(c, ref_counts[g]) for g, c in cand_counts.items())
        matches.append(clipped)
        totals.append(sum(cand_counts.values()))
    return BleuStats(tuple(matches), tuple(totals), len(candidate), len(reference))


def bleu_from_stats(stats: BleuStats) -> float:
    """Geometric mean of modified precisions times the brevity penalty;
    zero when any n-gram precision is zero."""
    if stats.cand_len == 0:
        return 0.0
    log_sum = 0.0
    for clipped, total in zip(stats.matches, stats.totals):
        if clipped == 0 or total == 0:
            return 0.0
        log_sum += math.log(clipped / total)
    precision = math.exp(log_sum / MAX_ORDER)
    if stats.cand_len > stats.ref_len:
        bp = 1.0
    else:
        bp = math.exp(1.0 - stats.ref_len / stats.cand_len)
    return bp * precision


def compute_bleu(candidates, references) -> float:
    """Corpus BLEU-4 in [0, 1]; one reference per candidate segment."""
    candidates = list(candidates)
    references = list(references)
    if not candidates:
        raise ValueError("empty candidate set")
    if len(candidates) != len(references):
        raise ValueError(
            f"candidate/reference count mismatch: {len(candidates)} vs {len(references)}"
        )
    total = ZERO_STATS
    for cand, ref in zip(candidates, references):
        total = total + sentence_stats(cand, ref)
    return bleu_from_stats(total)
