import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from traitmt import mert
from traitmt.bleu import bleu_from_stats, ngram_counts, sentence_stats
from traitmt.mert import (
    PoolCandidate,
    _StackedPool,
    _upper_envelopes,
    coordinate_ascent,
    line_search,
    pool_bleu,
    tune_weights,
)


def cand(target, features, reference):
    target = tuple(target.split()) if isinstance(target, str) else tuple(target)
    ref = tuple(reference.split()) if isinstance(reference, str) else tuple(reference)
    return PoolCandidate(target, tuple(features), sentence_stats(target, ref))


def add_rows(rows):
    """Statistics rows summed column by column."""
    return [sum(column) for column in zip(*rows)]


def grid_search_bleu(pool, weights, dim, lo=-20.0, hi=20.0, step=0.001):
    """Dense grid oracle over the varied weight."""
    weights = np.asarray(weights, dtype=float)
    best = -1.0
    x = lo
    while x <= hi:
        w = weights.copy()
        w[dim] = x
        chosen = [
            min(cands, key=lambda c: (-float(w @ np.asarray(c.features)), c.target))
            for cands in pool
        ]
        best = max(best, bleu_from_stats(add_rows(c.stats for c in chosen)))
        x += step
    return best


# The line search and argmax that scored each candidate on its own, one
# line per candidate; the matrix form must choose exactly as they do.

def _reference_upper_envelope(lines):
    """Upper envelope of y = intercept + slope*x lines.

    lines is a list of (slope, intercept, payload).  Returns a list of
    (x_from, payload) segments in increasing x order; the first segment
    starts at -inf.
    """
    # steepest-last order; for equal slopes only the highest intercept can
    # appear on the envelope (ties keep the smallest payload)
    by_slope: dict = {}
    for slope, intercept, payload in lines:
        cur = by_slope.get(slope)
        if (
            cur is None
            or intercept > cur[0]
            or (intercept == cur[0] and _payload_key(payload) < _payload_key(cur[1]))
        ):
            by_slope[slope] = (intercept, payload)
    ordered = sorted((s, ib[0], ib[1]) for s, ib in by_slope.items())
    hull = []  # (slope, intercept, payload, x_from)
    for slope, intercept, payload in ordered:
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
        hull.append((slope, intercept, payload, x_from))
    return [(x_from, payload) for _, _, payload, x_from in hull]


def _payload_key(payload):
    return payload.target if isinstance(payload, PoolCandidate) else payload


def reference_line_search(pool, weights, dim):
    """Best value for one weight by exact envelope sweep.

    pool is a list of per-sentence candidate lists (PoolCandidate).
    Returns (best_weight, best_bleu).  When no line crossing exists the
    current weight is returned with its BLEU.
    """
    if not pool or any(len(cands) == 0 for cands in pool):
        raise ValueError("every sentence needs a non-empty candidate list")
    weights = np.asarray(weights, dtype=float)
    current = float(weights[dim])
    envelopes = []
    for cands in pool:
        lines = []
        for cand in cands:
            feats = np.asarray(cand.features)
            slope = float(feats[dim])
            intercept = float(weights @ feats) - weights[dim] * slope
            lines.append((slope, intercept, cand))
        envelopes.append(_reference_upper_envelope(lines))

    boundaries = sorted({x for env in envelopes for x, _ in env if math.isfinite(x)})
    stats = add_rows(env[0][1].stats for env in envelopes)
    if not boundaries:
        return current, bleu_from_stats(stats)

    # sweep events: at boundary x the sentence's choice switches
    events: dict[float, list] = {}
    for sent, env in enumerate(envelopes):
        for (x, cand), (_, prev) in zip(env[1:], env):
            events.setdefault(x, []).append((sent, prev, cand))

    points = [boundaries[0] - 1.0]
    for a, b in zip(boundaries, boundaries[1:]):
        points.append((a + b) / 2.0)
    points.append(boundaries[-1] + 1.0)

    best_bleu, best_x = -1.0, current
    idx = 0
    for k, x in enumerate(points):
        # apply all events up to this interval
        while idx < len(boundaries) and boundaries[idx] <= x:
            for _, prev, cand in events.get(boundaries[idx], []):
                stats = [s - p + c for s, p, c in zip(stats, prev.stats, cand.stats)]
            idx += 1
        bleu = bleu_from_stats(stats)
        better = bleu > best_bleu + 1e-12
        closer = abs(bleu - best_bleu) <= 1e-12 and abs(x - current) < abs(best_x - current)
        if better or closer:
            best_bleu, best_x = bleu, x
    return best_x, best_bleu


def reference_pool_bleu(pool, weights):
    """Corpus BLEU of the per-sentence argmax candidates at the given
    weights (ties to the lexicographically smallest target)."""
    weights = np.asarray(weights, dtype=float)
    chosen = [min(cands, key=lambda c: (-float(weights @ np.asarray(c.features)), c.target))
              for cands in pool]
    return bleu_from_stats(add_rows(c.stats for c in chosen))


def reference_coordinate_ascent(pool, weights, max_sweeps):
    """Full sweeps of line searches until a sweep yields no BLEU gain.

    Returns (weights, bleu, searches, settled): settled is how many
    searches had been made when every dimension had last been searched
    at the final weights, which is where a search can stop."""
    weights = np.asarray(weights, dtype=float).copy()
    best = pool_bleu(pool, weights)
    searches = settled = 0
    for _ in range(max_sweeps):
        improved = False
        for dim in range(len(weights)):
            candidate, bleu = line_search(pool, weights, dim)
            searches += 1
            if bleu > best + 1e-9:
                weights[dim] = candidate
                best = bleu
                improved = True
                settled = searches + len(weights)
        if not improved:
            break
    return weights, best, searches, min(max(settled, len(weights)), searches)


def random_pool(rng, dim, integer):
    """1-6 sentences of 1-8 candidates in random order; about one row in
    five repeats an earlier row's features.  Integer pools use features in
    -3..3, so that every score and crossing is exact."""
    pool = []
    for _ in range(rng.randint(1, 6)):
        ref = " ".join(rng.choice("abcde") for _ in range(rng.randint(3, 7)))
        rows = []
        for _ in range(rng.randint(1, 8)):
            if rows and rng.random() < 0.2:
                rows.append(rng.choice(rows))
            elif integer:
                rows.append([rng.randint(-3, 3) for _ in range(dim)])
            else:
                rows.append([rng.uniform(-3, 3) for _ in range(dim)])
        cands = [cand(" ".join(rng.choice("abcde") for _ in range(rng.randint(1, 6))), row, ref)
                 for row in rows]
        rng.shuffle(cands)
        pool.append(cands)
    return pool


def envelope(slopes, intercepts):
    """One sentence's upper envelope as (x_from, line) segments."""
    x_from, rows = _upper_envelopes(np.zeros(len(slopes), dtype=np.int64),
                                    np.array(slopes), np.array(intercepts))
    return list(zip(x_from.tolist(), rows.tolist()))


def tune_shaped_pool(rng, steps=None, sentences=100):
    """100 sentences of 5-20 candidates with 9 feature columns, as the tune
    system has: 5 float columns (in 1/steps steps when steps is given) and
    4 small-integer ones, such as word and phrase counts; about one row in
    five repeats an earlier row."""
    pool = []
    for _ in range(sentences):
        ref = [rng.choice("abcdefgh") for _ in range(rng.randint(4, 12))]
        rows = []
        for _ in range(rng.randint(5, 20)):
            if rows and rng.random() < 0.2:
                rows.append(rng.choice(rows))
            else:
                floats = [rng.uniform(-12, 0) for _ in range(5)]
                if steps:
                    floats = [round(f * steps) / steps for f in floats]
                rows.append(floats + [rng.randint(0, 6) for _ in range(4)])
        # candidates edit the reference, as translations of one sentence do
        pool.append([cand([w if rng.random() < 0.8 else rng.choice("abcdefgh")
                           for w in ref[:rng.randint(len(ref) - 2, len(ref))]], row, ref)
                     for row in rows])
    return pool


class TestEnvelope:
    def test_two_crossing_lines(self):
        # y = 0 + 1*x and y = 4 - 1*x cross at x = 2
        env = envelope([1.0, -1.0], [0.0, 4.0])
        assert [i for _, i in env] == [1, 0]
        assert env[1][0] == pytest.approx(2.0)

    def test_dominated_line_dropped(self):
        env = envelope([0.0, 0.0], [0.0, 1.0])
        assert [i for _, i in env] == [1]

    def test_middle_line_below_hull(self):
        env = envelope([-1.0, 0.0, 1.0], [0.0, -5.0, 0.0])
        assert [i for _, i in env] == [0, 2]

    def test_equal_lines_keep_first(self):
        env = envelope([2.0, 0.0, 2.0, 0.0], [1.0, 3.0, 1.0, 3.0])
        assert [i for _, i in env] == [1, 0]

    def test_line_through_a_crossing_dropped(self):
        # y = 0 only touches the envelope where y = -x and y = x cross
        env = envelope([-1.0, 0.0, 1.0], [0.0, 0.0, 0.0])
        assert env == [(-math.inf, 0), (0.0, 2)]

    def test_sentences_kept_apart(self):
        # the same lines in two sentences, listed out of order: each
        # sentence gets its own envelope, its first segment from -inf
        x_from, rows = _upper_envelopes(np.array([1, 0, 1, 0]), np.array([1.0, 1.0, -1.0, -1.0]),
                                        np.array([0.0, 0.0, 4.0, 4.0]))
        assert rows.tolist() == [3, 1, 2, 0]
        assert x_from.tolist() == [-math.inf, 2.0, -math.inf, 2.0]


class TestLineSearch:
    def test_two_candidate_crossing(self):
        # candidate lines cross at lambda = 2; the better-BLEU candidate
        # wins for lambda > 2, so the returned weight must be beyond it
        ref = "good translation here x"
        candidates = [
            cand("bad output here x", [1.0, 2.0], ref),   # slope 2
            cand("good translation here x", [5.0, 0.0], ref),  # slope 0
        ]
        # lines: score = w0*f0 + lam*f1 -> with w0 = 1: 1 + 2*lam vs 5
        weights = np.array([1.0, 10.0])
        # at lam=10 the bad candidate wins; best BLEU needs lam < 2
        best_w, best_bleu = line_search([candidates], weights, dim=1)
        assert best_w < 2.0
        chosen_stats = candidates[1].stats
        assert best_bleu == pytest.approx(bleu_from_stats(chosen_stats))

    def test_identical_features_returns_current_weight(self):
        ref = "a b c d"
        candidates = [cand("a b c d", [1.0, 1.0], ref), cand("a b x d", [1.0, 1.0], ref)]
        weights = np.array([0.5, -0.75])
        best_w, _ = line_search([candidates], weights, dim=1)
        assert best_w == -0.75

    def test_monotone_acceptance(self):
        rng = random.Random(0)
        for _ in range(20):
            pool = []
            for _ in range(3):
                ref = " ".join(rng.choice("abcd") for _ in range(5))
                cands = [
                    cand(
                        " ".join(rng.choice("abcd") for _ in range(rng.randint(3, 6))),
                        [rng.uniform(-2, 2) for _ in range(3)],
                        ref,
                    )
                    for _ in range(4)
                ]
                pool.append(cands)
            weights = np.array([rng.uniform(-1, 1) for _ in range(3)])
            dim = rng.randrange(3)
            incoming = pool_bleu(pool, weights)
            _, best = line_search(pool, weights, dim)
            assert best >= incoming - 1e-12

    def test_matches_grid_oracle(self):
        rng = random.Random(1)
        for trial in range(12):
            pool = []
            for _ in range(3):
                ref = " ".join(rng.choice("abcde") for _ in range(6))
                cands = [
                    cand(
                        " ".join(rng.choice("abcde") for _ in range(rng.randint(4, 7))),
                        [rng.uniform(-3, 3) for _ in range(2)],
                        ref,
                    )
                    for _ in range(5)
                ]
                pool.append(cands)
            weights = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1)])
            _, envelope_bleu = line_search(pool, weights, dim=1)
            grid_bleu = grid_search_bleu(pool, weights, dim=1, lo=-10, hi=10, step=0.01)
            assert envelope_bleu >= grid_bleu - 1e-12

    def test_matches_reference_on_random_pools(self):
        rng = random.Random(11)
        for trial in range(2100):
            integer = trial % 3 == 0
            dim = rng.randint(1, 10)
            pool = random_pool(rng, dim, integer)
            if integer:
                weights = np.array([rng.randint(-8, 8) / 4 for _ in range(dim)])
            else:
                weights = np.array([rng.uniform(-2, 2) for _ in range(dim)])
            stacked = _StackedPool(pool)
            for d in rng.sample(range(dim), min(dim, 2)):
                got_w, got_bleu = line_search(pool, weights, d)
                want_w, want_bleu = reference_line_search(pool, weights, d)
                assert got_bleu == want_bleu, trial
                assert math.isclose(got_w, want_w, rel_tol=1e-9), trial
                if integer:
                    assert got_w == want_w, trial
                # one stacked pool serves every dimension, as in coordinate_ascent
                assert line_search(stacked, weights, d) == (got_w, got_bleu), trial
            assert pool_bleu(pool, weights) == reference_pool_bleu(pool, weights), trial
            assert pool_bleu(stacked, weights) == pool_bleu(pool, weights), trial

    def test_equal_rows_tie_to_smallest_target(self):
        # seven candidates with one feature row of nine columns, as many
        # as the tune system has: every candidate scores the same, so the
        # exact reference (the smallest target) must win, wherever its row
        # sits in the matrix and whatever order the pool lists it in
        rng = random.Random(4)
        ref = "a b c d e f g h"
        words = ref.split()
        targets = [" ".join(words[:8 - k] + ["z"] * k) for k in range(7)]
        for _ in range(200):
            row = [rng.uniform(-5, 5) for _ in range(9)]
            cands = [cand(t, row, ref) for t in targets]
            rng.shuffle(cands)
            weights = np.array([rng.uniform(-2, 2) for _ in range(9)])
            assert pool_bleu([cands], weights) == 1.0
            assert line_search([cands], weights, rng.randrange(9))[1] == 1.0

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            line_search([[]], np.array([1.0]), 0)
        with pytest.raises(ValueError):
            pool_bleu([], np.array([1.0]))

    @pytest.mark.parametrize("dim", [-1, -3, 3, 10])
    def test_dim_outside_weights_rejected(self, dim):
        with pytest.raises(ValueError, match=rf"dim {dim} outside \[0, 3\)"):
            line_search(THREE_FEATURES, [0.3, 0.2, 0.1], dim)

    @pytest.mark.parametrize("exact", [True, False])
    def test_matches_reference_on_tune_shaped_pools(self, exact):
        # as many sentences, candidates and feature columns as a tune round
        # pools, on every dimension.  Exact pools take float features in
        # 1/64 steps and weights in 1/4 steps, so that every score is exact
        # and the reference's dot products give the same crossings.
        rng = random.Random(20 + exact)
        pool = tune_shaped_pool(rng, 64 if exact else None)
        if exact:
            weights = np.array([rng.randint(-8, 8) / 4 for _ in range(9)])
            assert_matches_reference(pool, weights, range(9))
            return
        weights = np.array([rng.uniform(-1, 1) for _ in range(9)])
        stacked = _StackedPool(pool)
        for d in range(9):
            got_w, got_bleu = line_search(stacked, weights, d)
            want_w, want_bleu = reference_line_search(pool, weights, d)
            assert got_bleu == want_bleu, d
            assert math.isclose(got_w, want_w, rel_tol=1e-9), d
        assert pool_bleu(stacked, weights) == reference_pool_bleu(pool, weights)


def assert_matches_reference(pool, weights, dims):
    """The list pool, one stacked pool and the per-candidate reference give
    bit-identical line searches and pool BLEU."""
    weights = np.asarray(weights, dtype=float)
    stacked = _StackedPool(pool)
    for d in dims:
        want = reference_line_search(pool, weights, d)
        assert line_search(pool, weights, d) == want
        assert line_search(stacked, weights, d) == want
    want = reference_pool_bleu(pool, weights)
    assert pool_bleu(pool, weights) == pool_bleu(stacked, weights) == want


NUMPY_MA_PROBE = """
import random, sys
import numpy as np
from traitmt import mert
rng = random.Random(0)
pool = [[mert.PoolCandidate((k, j), tuple(rng.uniform(-3, 3) for _ in range(4)),
                            (3, 2, 1, 1, 4, 3, 2, 1, 4, rng.randint(3, 5)))
         for j in range(8)] for k in range(20)]
before = "numpy.ma" in sys.modules
weights, bleu = mert.coordinate_ascent(pool, [0.5, -0.25, 1.0, 0.75])
print(before, "numpy.ma" in sys.modules)
"""


def test_line_search_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma, whose import alone adds ~1.2 MB of RSS
    # (numpy 2.4, CPython 3.11); the sweep finds its boundaries without it
    src = Path(mert.__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, "-c", NUMPY_MA_PROBE], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True, timeout=120).stdout.split()
    if out[0] == "True":
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    assert out == ["False", "False"]


class TestStackedPool:
    def test_empty_candidate_list_named(self):
        pool = [[cand("a", [1, 0], "a")], [cand("b", [1, 0], "b")], []]
        with pytest.raises(ValueError, match="sentence 2 has no candidates"):
            _StackedPool(pool)
        with pytest.raises(ValueError, match="the pool has no sentences"):
            _StackedPool([])

    def test_ragged_features_named(self):
        pool = [[cand("a", [1, 0, 2], "a")],
                [cand("b", [1, 0, 2], "b"), cand("c", [1, 0, 2], "b"), cand("d", [1, 0], "b")]]
        message = "sentence 1 candidate 2 has 2 features, sentence 0 candidate 0 has 3"
        with pytest.raises(ValueError, match=message):
            _StackedPool(pool)
        with pytest.raises(ValueError, match=message):
            line_search(pool, [1.0, 1.0, 1.0], 0)

    def test_rows_sorted_by_target_within_sentence(self):
        pool = [[cand("c", [1, 0], "a"), cand("a", [2, 0], "a")],
                [cand("b b", [3, 1], "b c"), cand("a b", [4, 1], "b c"), cand("z", [5, 1], "b c")]]
        stacked = _StackedPool(pool)
        assert stacked.offsets == [0, 2, 5]
        assert stacked.F[:, 0].tolist() == [2.0, 1.0, 4.0, 3.0, 5.0]
        assert stacked.S.dtype == np.int64
        # matches 1-4, totals 1-4, cand_len, ref_len
        assert stacked.S[3].tolist() == [1, 0, 0, 0, 2, 1, 0, 0, 2, 2]

    def test_crossings_of_different_sentences_at_one_x(self):
        # along weight 0 the references score x, x and 2x against 1: two
        # sentences switch to their reference at x = 1, the third at 1/2,
        # so only past x = 1 does every sentence read its reference
        pool = [
            [cand("a b c d", [1, 0], "a b c d"), cand("q q q q", [0, 1], "a b c d")],
            [cand("e f g h", [1, 0], "e f g h"), cand("r r r r", [0, 1], "e f g h")],
            [cand("i j k l", [2, 0], "i j k l"), cand("s s s s", [0, 1], "i j k l")],
        ]
        assert_matches_reference(pool, [5.0, 1.0], [0, 1])
        best_w, best_bleu = line_search(pool, [5.0, 1.0], 0)
        assert best_bleu == 1.0 and best_w > 1.0
        # boundaries 1/2 and 1: the interval past the last is probed at 2
        assert line_search(pool, [0.0, 1.0], 0) == (2.0, 1.0)

    def test_probe_point_rounding_onto_a_boundary(self):
        # the reference overtakes at x = 2**60, where the boundary -/+ 1
        # rounds back onto the boundary: both probe points have seen the
        # switch, because a point sees every event at or below it
        pool = [[cand("a b c d", [0, 1], "a b c d"), cand("a b x d", [2.0 ** 60, 0], "a b c d")]]
        assert_matches_reference(pool, [1.0, 0.0], [1])
        assert line_search(pool, [1.0, 0.0], 1) == (2.0 ** 60, 1.0)

    def test_single_candidate_sentences(self):
        pool = [[cand("a b c d", [1, 2], "a b c d")],
                [cand("e f g h", [0, 1], "e f x h")],
                [cand("i j k l", [3, -1], "i j k l"), cand("i j k x", [-1, 3], "i j k l")]]
        assert_matches_reference(pool, [0.5, 0.25], [0, 1])
        # only the last sentence has a crossing
        assert_matches_reference(pool[:2], [0.5, 0.25], [0, 1])
        assert line_search(pool[:2], [0.5, 0.25], 1)[0] == 0.25

    def test_pool_without_crossings(self):
        # equal slopes in the searched dimension: no line ever crosses
        pool = [[cand("a b c d", [1, 0], "a b c d"), cand("a b x d", [1, 2], "a b c d")],
                [cand("e f", [2, 3], "e f"), cand("e g", [2, 1], "e f")]]
        for weights in ([1.0, -1.0], [1.0, 1.0], [-2.0, 0.5]):
            assert_matches_reference(pool, weights, [0])
            assert line_search(pool, weights, 1) == reference_line_search(pool, weights, 1)
            assert line_search(pool, weights, 0)[0] == weights[0]

    def test_equal_rows_tie_to_smallest_target(self):
        ref = "a b c d"
        row = [0.5, -1.25, 3.0]
        pool = [[cand("a b x d", row, ref), cand("a b c d", row, ref), cand("b b c d", row, ref)],
                [cand("z", [1, 1, 1], "z"), cand("y", [1, 1, 1], "z")]]
        for weights in ([1.0, 1.0, 1.0], [-0.5, 2.0, 0.0]):
            assert_matches_reference(pool, weights, [0, 1, 2])
            assert pool_bleu(pool, weights) == reference_pool_bleu([[pool[0][1]], [pool[1][1]]],
                                                                   weights)


# each of the three features favours a different candidate
THREE_FEATURES = [[cand("a b c d", [1, 0, 0], "a b c d"), cand("a b x d", [0, 1, 0], "a b c d"),
                   cand("a x x d", [0, 0, 1], "a b c d")]]


class TestWeightLength:
    # numpy broadcasts one weight over every feature, so a single weight
    # would score each candidate by a multiple of its feature sum

    def test_pool_bleu_refuses_wrong_length(self):
        with pytest.raises(ValueError, match="1 weights for 3 features"):
            pool_bleu(THREE_FEATURES, [0.3])
        with pytest.raises(ValueError, match="1 weights for 3 features"):
            line_search(THREE_FEATURES, [0.3], 0)

    def test_coordinate_ascent_refuses_wrong_length(self):
        with pytest.raises(ValueError, match="1 weights for 3 features"):
            coordinate_ascent(THREE_FEATURES, [0.3])

    def test_tune_weights_refuses_wrong_length(self):
        def decode_nbest(sentence, weights, nbest_size):
            return [(c.target, c.features) for c in THREE_FEATURES[0]]

        with pytest.raises(ValueError, match="1 weights for 3 features"):
            tune_weights(decode_nbest, [(0,)], [tuple("a b c d".split())], [0.3],
                         iterations=2, restarts=1)


class TestTuning:
    def toy_system(self):
        """Two options per sentence; feature 1 is an indicator that the
        initial weights mis-rank: flipping its sign fixes every output."""
        refs = [("x", "x", "y", "y"), ("y", "y", "x", "x"), ("x", "y", "x", "y")]
        wrong = [("q", "q", "q", "q")] * 3

        def decode_nbest(sentence, weights, nbest_size):
            idx = sentence[0]
            good = refs[idx]
            bad = wrong[idx]
            cands = [
                (good, np.array([1.0, 1.0])),
                (bad, np.array([1.0, -1.0])),
            ]
            cands.sort(key=lambda tf: -float(np.asarray(weights) @ tf[1]))
            return cands[:nbest_size]

        sentences = [(0,), (1,), (2,)]
        return decode_nbest, sentences, refs

    def test_sign_flip_learned(self):
        decode_nbest, sentences, refs = self.toy_system()
        start = np.array([1.0, -2.0])  # prefers the bad candidate
        start_bleu = pool_bleu(
            [
                [cand(t, f, r) for t, f in decode_nbest(s, start, 10)]
                for s, r in zip(sentences, refs)
            ],
            start,
        )
        weights, bleu = tune_weights(
            decode_nbest, sentences, refs, start, iterations=3, nbest_size=10,
            restarts=2, seed=0,
        )
        assert bleu > start_bleu
        assert bleu == pytest.approx(1.0)
        assert weights[1] > 0

    def test_already_optimal_weights_stay(self):
        decode_nbest, sentences, refs = self.toy_system()
        start = np.array([1.0, 3.0])
        weights, bleu = tune_weights(
            decode_nbest, sentences, refs, start, iterations=3, nbest_size=10,
            restarts=1, seed=0,
        )
        assert bleu == pytest.approx(1.0)
        np.testing.assert_allclose(weights, start)

    def test_seed_determinism(self):
        decode_nbest, sentences, refs = self.toy_system()
        start = np.array([1.0, -2.0])
        a = tune_weights(decode_nbest, sentences, refs, start, iterations=3,
                         nbest_size=10, restarts=4, seed=7)
        b = tune_weights(decode_nbest, sentences, refs, start, iterations=3,
                         nbest_size=10, restarts=4, seed=7)
        np.testing.assert_array_equal(a[0], b[0])
        assert a[1] == b[1]

    @pytest.mark.parametrize("n_sentences, n_refs", [(1, 3), (3, 1)])
    def test_dev_set_lengths_must_match(self, n_sentences, n_refs):
        decode_nbest, sentences, refs = self.toy_system()
        decoded = []

        def counting_decode(sentence, weights, nbest_size):
            decoded.append(sentence)
            return decode_nbest(sentence, weights, nbest_size)

        with pytest.raises(ValueError, match="dev sentences"):
            tune_weights(counting_decode, sentences[:n_sentences], refs[:n_refs],
                         np.array([1.0, -2.0]), iterations=3, nbest_size=10, restarts=1)
        assert decoded == []

    @pytest.mark.parametrize("n_sentences, iterations, message", [
        (3, 0, "iterations must be >= 1"),
        (0, 3, "the dev set is empty"),
    ])
    def test_bad_run_rejected_before_decoding(self, n_sentences, iterations, message):
        decode_nbest, sentences, refs = self.toy_system()
        decoded = []

        def counting_decode(sentence, weights, nbest_size):
            decoded.append(sentence)
            return decode_nbest(sentence, weights, nbest_size)

        with pytest.raises(ValueError, match=message):
            tune_weights(counting_decode, sentences[:n_sentences], refs[:n_sentences],
                         np.array([1.0, -2.0]), iterations=iterations, nbest_size=10)
        assert decoded == []

    @pytest.mark.parametrize("restarts", [0, -1, -3])
    def test_restarts_below_one_rejected_before_decoding(self, restarts):
        decode_nbest, sentences, refs = self.toy_system()
        decoded = []

        def counting_decode(sentence, weights, nbest_size):
            decoded.append(sentence)
            return decode_nbest(sentence, weights, nbest_size)

        with pytest.raises(ValueError, match=f"restarts must be >= 1, got {restarts}"):
            tune_weights(counting_decode, sentences, refs, np.array([1.0, -2.0]),
                         iterations=3, nbest_size=10, restarts=restarts)
        assert decoded == []

    def test_pool_stacked_once_per_round(self, monkeypatch):
        decode_nbest, sentences, refs = self.toy_system()
        decoded, stacked = [], []

        def counting_decode(sentence, weights, nbest_size):
            decoded.append(sentence)
            return decode_nbest(sentence, weights, nbest_size)

        class CountingPool(_StackedPool):
            def __init__(self, pool):
                stacked.append(len(pool))
                super().__init__(pool)

        monkeypatch.setattr(mert, "_StackedPool", CountingPool)
        tune_weights(counting_decode, sentences, refs, np.array([1.0, -2.0]), iterations=3,
                     nbest_size=1, restarts=4, seed=0)
        rounds = len(decoded) // len(sentences)
        assert rounds >= 2
        assert stacked == [len(sentences)] * rounds

    def test_each_reference_counted_once_per_call(self, monkeypatch):
        decode_nbest, sentences, refs = self.toy_system()
        counted, scored = [], []

        def counting_ngrams(tokens):
            counted.append(tuple(tokens))
            return ngram_counts(tokens)

        def counting_stats(candidate, reference, ref_counts=None):
            scored.append(ref_counts)
            return sentence_stats(candidate, reference, ref_counts)

        monkeypatch.setattr(mert, "ngram_counts", counting_ngrams)
        monkeypatch.setattr(mert, "sentence_stats", counting_stats)
        tune_weights(decode_nbest, sentences, refs, np.array([1.0, -2.0]), iterations=3,
                     nbest_size=10, restarts=2, seed=0)
        assert counted == [tuple(r) for r in refs]
        assert len(scored) > len(refs)
        assert all(counts is not None for counts in scored)

    @pytest.mark.parametrize("max_sweeps", [1, 2, mert.MAX_SWEEPS])
    def test_coordinate_ascent_matches_full_sweeps(self, monkeypatch, max_sweeps):
        # stopping once every dimension has been searched at the current
        # weights skips only searches a full sweep repeats, so the weights
        # and BLEU are the full sweeps'
        calls = []

        def counting_search(pool, weights, dim):
            calls.append(dim)
            return line_search(pool, weights, dim)

        # the reference calls this module's line_search, not the counting one
        monkeypatch.setattr(mert, "MAX_SWEEPS", max_sweeps)
        monkeypatch.setattr(mert, "line_search", counting_search)
        rng = random.Random(8)
        saved = 0
        for trial in range(12):
            pool = _StackedPool(tune_shaped_pool(rng, sentences=10))
            start = [rng.uniform(-2, 2) for _ in range(9)]
            want_w, want_bleu, searches, settled = reference_coordinate_ascent(pool, start,
                                                                               max_sweeps)
            calls.clear()
            got_w, got_bleu = coordinate_ascent(pool, start)
            np.testing.assert_array_equal(got_w, want_w)
            assert got_bleu == want_bleu, trial
            assert calls == [k % 9 for k in range(settled)], trial
            saved += searches - settled
        if max_sweeps > 1:
            assert saved > 0

    def test_coordinate_ascent_never_decreases(self):
        rng = random.Random(3)
        pool = []
        for _ in range(4):
            ref = " ".join(rng.choice("abc") for _ in range(5))
            pool.append(
                [
                    cand(
                        " ".join(rng.choice("abc") for _ in range(5)),
                        [rng.uniform(-2, 2) for _ in range(3)],
                        ref,
                    )
                    for _ in range(4)
                ]
            )
        weights = np.zeros(3)
        before = pool_bleu(pool, weights)
        tuned, after = coordinate_ascent(pool, weights)
        assert after >= before - 1e-12
        assert after == pytest.approx(pool_bleu(pool, tuned), abs=1e-12)
