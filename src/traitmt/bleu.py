"""Corpus-level BLEU-4 against a single reference.

A sentence's sufficient statistics are one row of 10 ints, in this order:
clipped n-gram matches for n = 1..4, candidate n-gram counts for n = 1..4,
candidate length, reference length.  Rows add column by column, and the
score is computed from the summed row, so tuning can re-score candidate
selections without re-counting n-grams.  bleu_from_stats also scores a
matrix of summed rows in one call, as the MERT line search does for every
point of its sweep; a row scores the same bits alone or in a matrix.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain

import numpy as np

MAX_ORDER = 4


def ngram_counts(tokens):
    """Counts of every n-gram of orders 1..MAX_ORDER (= 4), keyed by its
    tuple; zipping n shifted copies of the tokens gives the n-grams of
    order n."""
    return Counter(chain(zip(tokens), zip(tokens, tokens[1:]),
                         zip(tokens, tokens[1:], tokens[2:]),
                         zip(tokens, tokens[1:], tokens[2:], tokens[3:])))


def sentence_stats(candidate, reference, ref_counts=None) -> tuple:
    """The statistics row of one candidate/reference pair.  ref_counts,
    when given, must be `ngram_counts(reference)`: a caller scoring many
    candidates against one reference counts it once."""
    candidate = tuple(candidate)
    reference = tuple(reference)
    if ref_counts is None:
        ref_counts = ngram_counts(reference)
    counts = ngram_counts(candidate)
    matches = [0] * MAX_ORDER
    # an n-gram missing from either side matches nothing
    for gram in counts.keys() & ref_counts.keys():
        matches[len(gram) - 1] += min(counts[gram], ref_counts[gram])
    size = len(candidate)
    totals = [max(size - n + 1, 0) for n in range(1, MAX_ORDER + 1)]
    return (*matches, *totals, size, len(reference))


def bleu_from_stats(stats):
    """Geometric mean of modified precisions times the brevity penalty;
    zero when any n-gram precision is zero.  stats is a (summed) row,
    scored as a float, or a matrix of such rows, scored as a list with one
    float per row.  Logs and exponentials are math.log and math.exp, and
    the four logs are added from order 1 to 4, so that a row's score does
    not depend on numpy's vector kernels or on the rows beside it."""
    rows = np.asarray(stats, dtype=np.int64)
    table = rows.reshape(-1, 2 * MAX_ORDER + 2)
    # no candidate words, or a zero count of some order, scores zero
    live = table[:, :2 * MAX_ORDER].all(axis=1) & (table[:, 2 * MAX_ORDER] != 0)
    kept = table[live]
    ratios = kept[:, :MAX_ORDER] / kept[:, MAX_ORDER:2 * MAX_ORDER]
    logs = np.array(list(map(math.log, ratios.ravel().tolist()))).reshape(ratios.shape)
    log_sum = np.zeros(len(kept))
    for n in range(MAX_ORDER):
        log_sum += logs[:, n]
    precision = np.array(list(map(math.exp, (log_sum / MAX_ORDER).tolist())))
    cand_len, ref_len = kept[:, 2 * MAX_ORDER], kept[:, 2 * MAX_ORDER + 1]
    short = cand_len <= ref_len
    bp = np.ones(len(kept))
    bp[short] = list(map(math.exp, (1.0 - ref_len[short] / cand_len[short]).tolist()))
    scores = np.zeros(len(table))
    scores[live] = bp * precision
    scores = scores.tolist()
    return scores[0] if rows.ndim == 1 else scores


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
