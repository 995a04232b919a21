"""Weight tuning by exact line search over n-best pools.

A round of tuning stacks its pool once (_StackedPool): every sentence's
candidates, sorted by target within the sentence, as rows of one feature
matrix F and one int64 matrix S of BLEU statistics, with each sentence's
row offsets.  A row of S is the candidate's sentence_stats row, whose
column order bleu.py owns; bleu_from_stats reads a summed row as it is.
Scores under weights w are the row sums of F * w.  Varying weight d
turns the scores into lines with slopes F[:, d] and intercepts
scores - w[d] * F[:, d]; each sentence's upper envelope of those lines is
computed exactly, and its crossings are sweep events that swap one row of
S for another.  The corpus statistics of every envelope interval are one
integer cumulative sum over the sorted events, and corpus BLEU is
evaluated once per interval.  Ties go to the smallest target: the
envelope keeps the first of equal lines, the argmax the first of equal
scores, and the rows are in target order.  (Row sums score equal rows
equally wherever they sit in F; a BLAS matrix-vector product may not.)
Tuning runs coordinate ascent over all dimensions on a growing n-best
pool, with seeded random restarts, and only accepts steps that improve
pool BLEU.  line_search, pool_bleu and coordinate_ascent also take the
pool as per-sentence lists of PoolCandidate and stack it on entry.
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
    each sentence; sentence k owns rows offsets[k]:offsets[k + 1]."""

    __slots__ = ("F", "S", "offsets")

    def __init__(self, pool):
        if not pool or any(len(cands) == 0 for cands in pool):
            raise ValueError("every sentence needs a non-empty candidate list")
        rows = [c for cands in pool for c in sorted(cands, key=lambda c: c.target)]
        self.F = np.array([c.features for c in rows], dtype=float)
        self.S = np.array([c.stats for c in rows], dtype=np.int64)
        self.offsets = list(accumulate(map(len, pool), initial=0))

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


def _upper_envelope(slopes, intercepts):
    """Upper envelope of the lines y = intercepts[i] + slopes[i]*x.

    Returns a list of (x_from, i) segments in increasing x order; the
    first segment starts at -inf.  Of equal lines the first is kept.
    """
    # for equal slopes only the highest intercept can be on the envelope
    by_slope: dict = {}
    for i, (slope, intercept) in enumerate(zip(slopes, intercepts)):
        cur = by_slope.get(slope)
        if cur is None or intercept > cur[0]:
            by_slope[slope] = (intercept, i)
    hull = []  # (slope, intercept, i, x_from), steepest last
    for slope, (intercept, i) in sorted(by_slope.items()):
        x_from = -math.inf
        while hull:
            s0, i0, _, x0 = hull[-1]
            # intersection with the current top line
            x_from = (i0 - intercept) / (slope - s0)
            if x_from <= x0:
                hull.pop()
                continue
            break
        if not hull:
            x_from = -math.inf
        hull.append((slope, intercept, i, x_from))
    return [(x_from, i) for _, _, i, x_from in hull]


def line_search(pool, weights, dim):
    """Best value for one weight by exact envelope sweep.

    pool is a list of per-sentence candidate lists (PoolCandidate) or a
    _StackedPool.  Returns (best_weight, best_bleu).  When no line
    crossing exists the current weight is returned with its BLEU.
    """
    pool = _StackedPool.of(pool)
    weights = np.asarray(weights, dtype=float)
    current = float(weights[dim])
    slopes = pool.F[:, dim]
    intercepts = (pool.scores(weights) - weights[dim] * slopes).tolist()
    slopes = slopes.tolist()
    # each sentence's row at -inf, and sweep events: at x the sentence's
    # choice switches from row old to row new
    start, xs, old, new = [], [], [], []
    for a, b in pool.spans():
        env = _upper_envelope(slopes[a:b], intercepts[a:b])
        start.append(a + env[0][1])
        for (x, i), (_, prev) in zip(env[1:], env):
            xs.append(x)
            old.append(a + prev)
            new.append(a + i)
    stats = pool.S[start].sum(axis=0)
    if not xs:
        return current, bleu_from_stats(stats.tolist())

    boundaries = sorted(set(xs))
    points = [boundaries[0] - 1.0]
    for a, b in zip(boundaries, boundaries[1:]):
        points.append((a + b) / 2.0)
    points.append(boundaries[-1] + 1.0)
    # swept[k]: the change in corpus stats after the first k events in x
    # order; each point has seen every event at or below it
    order = np.argsort(xs)
    swept = np.zeros((len(xs) + 1, pool.S.shape[1]), dtype=np.int64)
    swept[1:] = pool.S[np.take(new, order)] - pool.S[np.take(old, order)]
    np.cumsum(swept, axis=0, out=swept)
    seen = np.searchsorted(np.take(xs, order), points, side="right")
    totals = (stats + swept[seen]).tolist()

    best_bleu, best_x = -1.0, current
    for x, row in zip(points, totals):
        bleu = bleu_from_stats(row)
        better = bleu > best_bleu + 1e-12
        closer = abs(bleu - best_bleu) <= 1e-12 and abs(x - current) < abs(best_x - current)
        if better or closer:
            best_bleu, best_x = bleu, x
    return best_x, best_bleu


def pool_bleu(pool, weights):
    """Corpus BLEU of the per-sentence argmax candidates at the given
    weights (ties to the lexicographically smallest target)."""
    pool = _StackedPool.of(pool)
    scores = pool.scores(weights)
    chosen = [a + int(np.argmax(scores[a:b])) for a, b in pool.spans()]
    return bleu_from_stats(pool.S[chosen].sum(axis=0).tolist())


def coordinate_ascent(pool, weights):
    """Line search over every dimension until a full sweep yields no BLEU
    gain; returns (weights, bleu).  Accepted steps never lower BLEU."""
    pool = _StackedPool.of(pool)
    weights = np.asarray(weights, dtype=float).copy()
    best = pool_bleu(pool, weights)
    for _ in range(MAX_SWEEPS):
        improved = False
        for dim in range(len(weights)):
            candidate, bleu = line_search(pool, weights, dim)
            if bleu > best + 1e-9:
                weights[dim] = candidate
                best = bleu
                improved = True
        if not improved:
            break
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
