"""Weight tuning by exact line search over n-best pools.

A round of tuning stacks its pool once (_StackedPool): every sentence's
candidates, sorted by target within the sentence, as rows of one feature
matrix F and one int64 matrix S of BLEU statistics, with each sentence's
row offsets.  A row of S is the candidate's sentence_stats row, whose
column order bleu.py owns; bleu_from_stats reads a summed row as it is.
Scores under weights w are the row sums of F * w.  Varying weight d
turns the scores into lines with slopes F[:, d] and intercepts
scores - w[d] * F[:, d].  One lexsort orders every line by sentence and
slope, and a reduction keeps the highest line of each slope; a single
pass over those builds every sentence's upper envelope exactly, and its
crossings are sweep events that swap one row of S for another.  The
corpus statistics of every envelope interval are one integer cumulative
sum over the sorted events, and bleu_from_stats scores all intervals in
one call.  Ties go to the smallest target: the envelope keeps the first
of equal lines, the argmax the first of equal scores, and the rows are
in target order.  (Row sums score equal rows equally wherever they sit
in F; a BLAS matrix-vector product may not.)
Tuning runs coordinate ascent, one dimension after another, on a growing
n-best pool, with seeded random restarts, and only accepts steps that
improve pool BLEU.  line_search, pool_bleu and coordinate_ascent also
take the pool as per-sentence lists of PoolCandidate and stack it on
entry.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .bleu import bleu_from_stats, ngram_counts, sentence_stats

MAX_SWEEPS = 20  # coordinate-ascent sweeps per start


@dataclass(frozen=True)
class PoolCandidate:
    target: tuple
    features: tuple
    stats: tuple  # sentence_stats row


class _StackedPool:
    """Candidate lists stacked for the line search: F (features) and S
    (BLEU statistics) have one row per candidate, sorted by target within
    each sentence; sentence k owns rows offsets[k]:offsets[k + 1], and
    sentence[i] is row i's sentence."""

    __slots__ = ("F", "S", "offsets", "sentence")

    def __init__(self, pool):
        if not pool:
            raise ValueError("the pool has no sentences")
        for k, cands in enumerate(pool):
            if not cands:
                raise ValueError(f"sentence {k} has no candidates")
            for j, c in enumerate(cands):
                if len(c.features) != len(pool[0][0].features):
                    raise ValueError(f"sentence {k} candidate {j} has {len(c.features)} features, "
                                     f"sentence 0 candidate 0 has {len(pool[0][0].features)}")
        rows = [c for cands in pool for c in sorted(cands, key=lambda c: c.target)]
        self.F = np.array([c.features for c in rows], dtype=float)
        self.S = np.array([c.stats for c in rows], dtype=np.int64)
        self.offsets = list(accumulate(map(len, pool), initial=0))
        self.sentence = np.repeat(np.arange(len(pool)), np.diff(self.offsets))

    @classmethod
    def of(cls, pool):
        return pool if isinstance(pool, cls) else cls(pool)

    def spans(self):
        return zip(self.offsets, self.offsets[1:])

    def scores(self, weights):
        """Each candidate's score, the row sums of F * weights; a weight
        vector whose length is not F's width raises ValueError."""
        weights = np.asarray(weights, dtype=float)
        if len(weights) != self.F.shape[1]:
            raise ValueError(f"{len(weights)} weights for {self.F.shape[1]} features")
        return (self.F * weights).sum(axis=1)


def _upper_envelopes(sentence, slopes, intercepts):
    """Each sentence's upper envelope of the lines y = intercepts[i] +
    slopes[i]*x, where sentence[i] is line i's sentence.

    Returns (x_from, rows), two arrays with one entry per envelope
    segment: sentence by sentence in ascending order, each sentence's
    segments in increasing x, its first starting at -inf.  rows[k] is the
    line on top from x_from[k] on.  Of equal lines the first is kept.
    """
    # lines in (sentence, slope, line) order; of equal slopes only the
    # highest intercept, the first of equal ones, can be on the envelope
    order = np.lexsort((slopes, sentence))
    by_sentence, by_slope = sentence[order], slopes[order]
    starts = np.flatnonzero(np.concatenate((
        [True], (by_sentence[1:] != by_sentence[:-1]) | (by_slope[1:] != by_slope[:-1]))))
    ordered = intercepts[order]
    top = np.maximum.reduceat(ordered, starts)
    # the first line of each group whose intercept is the group's highest
    highest = np.flatnonzero(ordered == np.repeat(top, np.diff(starts, append=len(order))))
    kept = highest[np.searchsorted(highest, starts)]
    # hull: the current sentence's (slope, intercept, row, x_from), steepest
    # last; segments: the finished hulls of the sentences before it
    segments, hull = [], []
    current = None
    for sent, slope, intercept, row in zip(by_sentence[kept].tolist(), by_slope[kept].tolist(),
                                           ordered[kept].tolist(), order[kept].tolist()):
        if sent != current:
            segments += hull
            hull, current = [], sent
        while hull:
            s0, i0, _, x0 = hull[-1]
            # intersection with the current top line
            x_from = (i0 - intercept) / (slope - s0)
            if x_from <= x0:
                hull.pop()
            else:
                break
        else:
            x_from = -math.inf
        hull.append((slope, intercept, row, x_from))
    segments += hull
    _, _, rows, x_from = zip(*segments)
    return np.array(x_from), np.array(rows)


def line_search(pool, weights, dim):
    """Best value for one weight by exact envelope sweep.

    pool is a list of per-sentence candidate lists (PoolCandidate) or a
    _StackedPool.  Returns (best_weight, best_bleu).  When no line
    crossing exists the current weight is returned with its BLEU.  A dim
    outside [0, len(weights)) raises ValueError.
    """
    pool = _StackedPool.of(pool)
    weights = np.asarray(weights, dtype=float)
    if not 0 <= dim < len(weights):
        raise ValueError(f"dim {dim} outside [0, {len(weights)})")
    current = float(weights[dim])
    slopes = pool.F[:, dim]
    intercepts = pool.scores(weights) - weights[dim] * slopes
    x_from, rows = _upper_envelopes(pool.sentence, slopes, intercepts)
    # each sentence's first segment starts at -inf; every later one is a
    # sweep event, where the sentence switches from the segment before it
    opens = x_from == -math.inf
    stats = pool.S[rows[opens]].sum(axis=0)
    events = np.flatnonzero(~opens)
    if not len(events):
        return current, bleu_from_stats(stats)

    order = np.argsort(x_from[events])
    events = events[order]
    xs = x_from[events]
    # one probe point below the first boundary, between each two distinct
    # boundaries, and above the last
    boundaries = xs[np.concatenate(([True], xs[1:] != xs[:-1]))]
    points = np.concatenate(([boundaries[0] - 1.0], (boundaries[:-1] + boundaries[1:]) / 2.0,
                             [boundaries[-1] + 1.0]))
    # swept[k]: the change in corpus stats after the first k events in x
    # order; each point has seen every event at or below it
    swept = np.zeros((len(xs) + 1, pool.S.shape[1]), dtype=np.int64)
    swept[1:] = pool.S[rows[events]] - pool.S[rows[events - 1]]
    np.cumsum(swept, axis=0, out=swept)
    seen = np.searchsorted(xs, points, side="right")
    bleus = bleu_from_stats(stats + swept[seen])

    best_bleu, best_x = -1.0, current
    for x, bleu in zip(points.tolist(), bleus):
        # better, or as good and closer to the current weight
        if bleu > best_bleu + 1e-12 or (abs(bleu - best_bleu) <= 1e-12
                                        and abs(x - current) < abs(best_x - current)):
            best_bleu, best_x = bleu, x
    return best_x, best_bleu


def pool_bleu(pool, weights):
    """Corpus BLEU of the per-sentence argmax candidates at the given
    weights (ties to the lexicographically smallest target)."""
    pool = _StackedPool.of(pool)
    scores = pool.scores(weights)
    chosen = [a + int(np.argmax(scores[a:b])) for a, b in pool.spans()]
    return bleu_from_stats(pool.S[chosen].sum(axis=0))


def coordinate_ascent(pool, weights):
    """Line search over one dimension after another until every dimension
    has been searched at the current weights without a BLEU gain, that is
    len(weights) rejections in a row, or for MAX_SWEEPS sweeps; returns
    (weights, bleu).  Accepted steps never lower BLEU."""
    pool = _StackedPool.of(pool)
    weights = np.asarray(weights, dtype=float).copy()
    best = pool_bleu(pool, weights)
    rejected = 0
    for _ in range(MAX_SWEEPS):
        for dim in range(len(weights)):
            candidate, bleu = line_search(pool, weights, dim)
            if bleu > best + 1e-9:
                weights[dim] = candidate
                best = bleu
                rejected = 0
            else:
                rejected += 1
                if rejected == len(weights):
                    return weights, best
    return weights, best


def tune_weights(decode_nbest, dev_sentences, dev_references, initial_weights,
                 iterations: int = 10, nbest_size: int = 100, restarts: int = 8,
                 seed: int = 0):
    """Iterated n-best pooling plus coordinate ascent with random restarts.

    decode_nbest(sentence, weights, nbest_size) must return a list of
    (target_tokens, feature_vector).  Returns (weights, dev_bleu) with the
    best pool BLEU reached; the pool converges to true dev BLEU as it
    saturates.  Each round runs `restarts` ascents, the first from the
    current weights; iterations or restarts below 1 raise ValueError.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if len(dev_sentences) == 0:
        raise ValueError("the dev set is empty")
    if len(dev_sentences) != len(dev_references):
        raise ValueError(f"{len(dev_sentences)} dev sentences but "
                         f"{len(dev_references)} references")
    rng = random.Random(seed)
    weights = np.asarray(initial_weights, dtype=float).copy()
    dim = len(weights)
    pool: list[dict] = [dict() for _ in dev_sentences]
    ref_counts = [ngram_counts(tuple(ref)) for ref in dev_references]
    best_bleu = -1.0
    for _ in range(iterations):
        grew = False
        for idx, (sent, ref) in enumerate(zip(dev_sentences, dev_references)):
            for target, features in decode_nbest(sent, weights, nbest_size):
                if target not in pool[idx]:
                    pool[idx][target] = PoolCandidate(
                        tuple(target), tuple(features),
                        sentence_stats(target, ref, ref_counts[idx]),
                    )
                    grew = True
        stacked = _StackedPool([list(p.values()) for p in pool])
        candidates = [coordinate_ascent(stacked, weights)]
        for _ in range(restarts - 1):
            start = np.array([rng.uniform(-2.0, 2.0) for _ in range(dim)])
            candidates.append(coordinate_ascent(stacked, start))
        new_weights, new_bleu = max(candidates, key=lambda wb: wb[1])
        if new_bleu > best_bleu + 1e-12:
            weights, best_bleu = new_weights, new_bleu
        if not grew:
            break
    return weights, best_bleu
