"""Weight tuning by exact line search over n-best pools.

Each sentence's candidates are sorted by target and stacked into a feature
matrix F, one row per candidate; their scores under weights w are the row
sums of F * w.  Varying weight d turns the scores into lines with slopes
F[:, d] and intercepts scores - w[d] * F[:, d]; the per-sentence upper
envelope of those lines is computed exactly and corpus BLEU is evaluated
once per envelope interval.  Ties go to the smallest target: the envelope
keeps the first of equal lines, the argmax the first of equal scores, and
the rows are in target order.  (Row sums score equal rows equally wherever
they sit in F; a BLAS matrix-vector product may not.)  Tuning runs
coordinate ascent over all dimensions on a growing n-best pool, with
seeded random restarts, and only accepts steps that improve pool BLEU.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .bleu import ZERO_STATS, BleuStats, bleu_from_stats, sentence_stats

MAX_SWEEPS = 20  # coordinate-ascent sweeps per start


@dataclass(frozen=True)
class PoolCandidate:
    target: tuple
    features: tuple
    stats: BleuStats


def _sentence_matrices(pool):
    """Per sentence: its candidates sorted by target and their feature
    matrix, one row per candidate in the same order."""
    if not pool or any(len(cands) == 0 for cands in pool):
        raise ValueError("every sentence needs a non-empty candidate list")
    out = []
    for cands in pool:
        cands = sorted(cands, key=lambda c: c.target)
        out.append((cands, np.array([c.features for c in cands], dtype=float)))
    return out


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

    pool is a list of per-sentence candidate lists (PoolCandidate).
    Returns (best_weight, best_bleu).  When no line crossing exists the
    current weight is returned with its BLEU.
    """
    weights = np.asarray(weights, dtype=float)
    current = float(weights[dim])
    # stats of each sentence's choice at -inf, and sweep events: at
    # boundary x a sentence's choice switches, and the corpus stats change
    # by the difference of the two candidates' stats
    stats = ZERO_STATS
    events: dict[float, list] = {}
    for cands, F in _sentence_matrices(pool):
        slopes = F[:, dim]
        intercepts = (F * weights).sum(axis=1) - weights[dim] * slopes
        env = _upper_envelope(slopes.tolist(), intercepts.tolist())
        stats = stats + cands[env[0][1]].stats
        for (x, i), (_, prev) in zip(env[1:], env):
            events.setdefault(x, []).append(cands[i].stats - cands[prev].stats)
    boundaries = sorted(events)
    if not boundaries:
        return current, bleu_from_stats(stats)

    points = [boundaries[0] - 1.0]
    for a, b in zip(boundaries, boundaries[1:]):
        points.append((a + b) / 2.0)
    points.append(boundaries[-1] + 1.0)

    best_bleu, best_x = -1.0, current
    idx = 0
    for x in points:
        # apply all events up to this interval
        while idx < len(boundaries) and boundaries[idx] <= x:
            for delta in events[boundaries[idx]]:
                stats = stats + delta
            idx += 1
        bleu = bleu_from_stats(stats)
        better = bleu > best_bleu + 1e-12
        closer = abs(bleu - best_bleu) <= 1e-12 and abs(x - current) < abs(best_x - current)
        if better or closer:
            best_bleu, best_x = bleu, x
    return best_x, best_bleu


def pool_bleu(pool, weights):
    """Corpus BLEU of the per-sentence argmax candidates at the given
    weights (ties to the lexicographically smallest target)."""
    weights = np.asarray(weights, dtype=float)
    stats = ZERO_STATS
    for cands, F in _sentence_matrices(pool):
        stats = stats + cands[int(np.argmax((F * weights).sum(axis=1)))].stats
    return bleu_from_stats(stats)


def coordinate_ascent(pool, weights):
    """Line search over every dimension until a full sweep yields no BLEU
    gain; returns (weights, bleu).  Accepted steps never lower BLEU."""
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
    saturates.
    """
    rng = random.Random(seed)
    weights = np.asarray(initial_weights, dtype=float).copy()
    dim = len(weights)
    pool: list[dict] = [dict() for _ in dev_sentences]
    best_bleu = -1.0
    for _ in range(iterations):
        grew = False
        for idx, (sent, ref) in enumerate(zip(dev_sentences, dev_references)):
            for target, features in decode_nbest(sent, weights, nbest_size):
                if target not in pool[idx]:
                    pool[idx][target] = PoolCandidate(
                        tuple(target), tuple(features), sentence_stats(target, ref)
                    )
                    grew = True
        pool_lists = [list(p.values()) for p in pool]
        candidates = [coordinate_ascent(pool_lists, weights)]
        for _ in range(max(0, restarts - 1)):
            start = np.array([rng.uniform(-2.0, 2.0) for _ in range(dim)])
            candidates.append(coordinate_ascent(pool_lists, start))
        candidates.sort(key=lambda wb: -wb[1])
        new_weights, new_bleu = candidates[0]
        if new_bleu > best_bleu + 1e-12:
            weights, best_bleu = new_weights, new_bleu
        if not grew:
            break
    return weights, best_bleu
