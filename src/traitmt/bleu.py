"""Corpus-level BLEU-4 against a single reference.

A sentence's sufficient statistics are one row of 10 ints, in this order:
clipped n-gram matches for n = 1..4, candidate n-gram counts for n = 1..4,
candidate length, reference length.  Rows add column by column, and the
score is computed from the summed row, so tuning can re-score candidate
selections without re-counting n-grams.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain

MAX_ORDER = 4


def ngram_counts(tokens):
    """Counts of every n-gram of orders 1..MAX_ORDER, keyed by its tuple;
    zipping n shifted copies of the tokens gives the n-grams of order n."""
    return Counter(chain.from_iterable(zip(*(tokens[k:] for k in range(n)))
                                       for n in range(1, MAX_ORDER + 1)))


def sentence_stats(candidate, reference, ref_counts=None) -> tuple:
    """The statistics row of one candidate/reference pair.  ref_counts,
    when given, must be `ngram_counts(reference)`: a caller scoring many
    candidates against one reference counts it once."""
    candidate = tuple(candidate)
    reference = tuple(reference)
    if ref_counts is None:
        ref_counts = ngram_counts(reference)
    matches = [0] * MAX_ORDER
    for gram, count in ngram_counts(candidate).items():
        matches[len(gram) - 1] += min(count, ref_counts.get(gram, 0))
    size = len(candidate)
    totals = [max(size - n + 1, 0) for n in range(1, MAX_ORDER + 1)]
    return (*matches, *totals, size, len(reference))


def bleu_from_stats(stats) -> float:
    """Geometric mean of modified precisions times the brevity penalty;
    zero when any n-gram precision is zero.  stats is a (summed) row."""
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
    rows = [sentence_stats(cand, ref) for cand, ref in zip(candidates, references)]
    return bleu_from_stats([sum(column) for column in zip(*rows)])
