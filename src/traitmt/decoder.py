"""Log-linear phrase-based beam-stack decoder over multiple phrase tables
and language models.

Every translation option carries a full feature vector: one four-score
block per phrase table (absent blocks filled with a floor constant) plus a
presence indicator per block, one feature per language model, word and
phrase penalties, and the distance-based distortion total.  Hypotheses are
recombined on (coverage, last position, LM states); stacks are organized
by covered-word count with histogram pruning.  A stack ranks on a strict
total order, so which hypotheses survive a cut does not depend on the
order in which they were reached.  Expansions that histogram pruning
would drop are rejected before they are stored, exactly: the search gives
the same n-best lists as sorting and cutting full stacks.  The rejection
test runs before any LM query only when every LM weight is >= 0 and no LM
stores a positive log10 probability or backoff weight.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .lm import EOS

DEFAULT_FLOOR = -7.0  # log10 score for absent table blocks and OOV options
MAX_OPTIONS_PER_SPAN = 20  # build_options keeps the best-scoring ones


@dataclass(frozen=True)
class FeatureLayout:
    """Names and positions of the decoder's feature vector."""

    n_tables: int
    n_lms: int

    @property
    def dimension(self) -> int:
        return 5 * self.n_tables + self.n_lms + 3

    def names(self):
        out = []
        for k in range(self.n_tables):
            out += [
                f"pt{k}.phi_fwd",
                f"pt{k}.lex_fwd",
                f"pt{k}.phi_rev",
                f"pt{k}.lex_rev",
                f"pt{k}.ind",
            ]
        out += [f"lm{k}" for k in range(self.n_lms)]
        out += ["word_penalty", "phrase_penalty", "distortion"]
        return out

    def table_block(self, k: int) -> slice:
        return slice(5 * k, 5 * k + 4)

    def indicator(self, k: int) -> int:
        return 5 * k + 4

    def lm_feature(self, k: int) -> int:
        return 5 * self.n_tables + k

    @property
    def word_penalty(self) -> int:
        return 5 * self.n_tables + self.n_lms

    @property
    def phrase_penalty(self) -> int:
        return self.word_penalty + 1

    @property
    def distortion(self) -> int:
        return self.word_penalty + 2

    def default_weights(self) -> np.ndarray:
        w = np.zeros(self.dimension)
        for k in range(self.n_tables):
            w[self.table_block(k)] = 1.0
        for k in range(self.n_lms):
            w[self.lm_feature(k)] = 1.0
        w[self.distortion] = -1.0
        return w


def write_weights(weights, layout: FeatureLayout, path) -> None:
    """One `name value` line per feature of the layout; weights of another
    length raise ValueError before the file is opened."""
    if len(weights) != layout.dimension:
        raise ValueError(f"{len(weights)} weights for a layout of {layout.dimension} features")
    with open(path, "w", encoding="utf-8") as fh:
        for name, value in zip(layout.names(), weights):
            fh.write(f"{name} {value:.17g}\n")


def read_weights(path, layout: FeatureLayout) -> np.ndarray:
    """Read `name value` lines; a malformed line, a non-finite value, a
    name the layout does not have or a repeated name raises ValueError
    naming `path:line`."""
    names = layout.names()
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                name, value = line.rsplit(" ", 1)
                value = float(value)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: expected 'name value', got {line!r}") from None
            if not math.isfinite(value):
                raise ValueError(f"{path}:{lineno}: weight {name!r} is not finite: {value}")
            if name not in names:
                raise ValueError(f"{path}:{lineno}: unknown weight {name!r}")
            if name in values:
                raise ValueError(f"{path}:{lineno}: repeated weight {name!r}")
            values[name] = value
    missing = [n for n in names if n not in values]
    if missing:
        raise ValueError(f"{path}: missing weights for {missing}")
    return np.array([values[n] for n in names])


@dataclass(frozen=True)
class TranslationOption:
    span: tuple        # (start, end), end exclusive
    tgt: tuple
    features: tuple    # static features: table blocks, indicators, penalties
    table_id: int | None  # None for OOV pass-through


def _static_features(layout: FeatureLayout, tgt, table_id, scores):
    feats = np.zeros(layout.dimension)
    for k in range(layout.n_tables):
        feats[layout.table_block(k)] = DEFAULT_FLOOR
    if table_id is not None:
        block = layout.table_block(table_id)
        feats[block] = [math.log10(s) if s > 0 else DEFAULT_FLOOR for s in scores]
        feats[layout.indicator(table_id)] = 1.0
    feats[layout.word_penalty] = len(tgt)
    feats[layout.phrase_penalty] = 1.0
    return feats


def build_options(sentence, tables, layout: FeatureLayout, weights=None):
    """Translation options per span: the union of matches across tables
    (same phrase pair in two tables stays two options), the
    MAX_OPTIONS_PER_SPAN best per span by weighted score, with verbatim
    pass-through for unknown words."""
    if not tables:
        raise ValueError("need at least one phrase table")
    sentence = tuple(sentence)
    if weights is None:
        weights = layout.default_weights()
    weights = np.asarray(weights, dtype=float)
    max_len = max(t.max_len for t in tables)
    options: dict[tuple, list] = {}
    for start in range(len(sentence)):
        for end in range(start + 1, min(len(sentence), start + max_len) + 1):
            span = (start, end)
            phrase = sentence[start:end]
            found = []
            for k, table in enumerate(tables):
                for tgt, scores in table.lookup(phrase).items():
                    tgt = tuple(tgt)
                    feats = _static_features(layout, tgt, k, scores)
                    found.append(((-float(weights @ feats), tgt),
                                  TranslationOption(span, tgt, tuple(feats), k)))
            if found:
                found.sort(key=lambda f: f[0])
                options[span] = [opt for _, opt in found[:MAX_OPTIONS_PER_SPAN]]
    for i, word in enumerate(sentence):
        span = (i, i + 1)
        if span not in options:
            feats = _static_features(layout, (word,), None, None)
            options[span] = [TranslationOption(span, (word,), tuple(feats), None)]
    return options


@dataclass
class DecodeResult:
    target: tuple
    features: np.ndarray
    score: float


def _future_costs(options, weighted, lm_weights, lms, n):
    """Per-span best weighted option score (LM part estimated by unigram
    scores), combined over splits by dynamic programming.  weighted holds
    each option's static score, weights @ features, per span."""
    direct = {}
    for span, opts in options.items():
        best = -math.inf
        for opt, score in zip(opts, weighted[span]):
            for w_lm, lm in zip(lm_weights, lms):
                score += w_lm * sum(lm.unigram_log10(w) for w in opt.tgt)
            best = max(best, score)
        direct[span] = best
    fc = [[-math.inf] * (n + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        fc[i][i] = 0.0
    for length in range(1, n + 1):
        for i in range(0, n - length + 1):
            j = i + length
            best = direct.get((i, j), -math.inf)
            for k in range(i + 1, j):
                best = max(best, fc[i][k] + fc[k][j])
            fc[i][j] = best
    return fc


def _coverage_future(fc, coverage, n):
    """Sum of future costs over maximal uncovered runs."""
    total = 0.0
    i = 0
    while i < n:
        if coverage & (1 << i):
            i += 1
            continue
        j = i
        while j < n and not (coverage & (1 << j)):
            j += 1
        total += fc[i][j]
        i = j
    return total


# A hypothesis is a tuple (value, score, target, coverage, last_end,
# lm_states, parent, option, jump, lm_scores): value = score + future cost,
# lm_scores the per-LM log10 contribution of its last expansion.
_VALUE, _SCORE, _TARGET, _PARENT = 0, 1, 2, 6


def _rank(hyp):
    """Stack order: highest score + future cost first, then target string,
    then the recombination key (coverage, last_end, lm_states), which is
    unique within a stack."""
    return (-hyp[_VALUE], hyp[_TARGET]) + hyp[3:6]


def _reconstruct_features(hyp, layout: FeatureLayout) -> np.ndarray:
    feats = np.zeros(layout.dimension)
    while hyp[_PARENT] is not None:
        _, _, _, _, _, _, parent, option, jump, lm_scores = hyp
        feats += np.asarray(option.features)
        feats[layout.distortion] += jump
        for k, s in enumerate(lm_scores):
            feats[layout.lm_feature(k)] += s
        hyp = parent
    return feats


def decode(sentence, options, weights, lms, layout: FeatureLayout,
           stack_size: int = 100, distortion_limit: int = 6, nbest_size: int = 1):
    """Beam-stack decoding; returns the n-best list of DecodeResult.

    stack_size <= 0 disables pruning (exhaustive up to recombination).
    A stack ranks its hypotheses on (score + future cost, target string,
    coverage, last position, LM states).  The last three form the
    recombination key, so the order is total and a cut does not depend on
    the order of expansion.  The n-best list ranks the complete hypotheses
    on the same order (value is score there), keeping the first of each
    target.  Decoding is deterministic.

    Expansions that histogram pruning would drop are rejected before a
    hypothesis is built, and the result is exactly that of storing every
    expansion and cutting each sorted stack at stack_size:
    - A pruned stack keeps the stack_size largest values (score + future)
      that its keys had when first stored.  Recombination only raises a
      key's value, so the least of them bounds the stack_size-th best
      value from below, and an expansion strictly under it cannot survive.
      The final stack is never pruned.
    - When every LM weight is >= 0 and no LM stores a log10 probability or
      backoff weight above 0, every LM term is <= 0, so the static part of
      the score is an upper bound and the same test runs before any LM
      query.  Otherwise it runs only after LM scoring.
    - Each span's options are tried highest static score first, so once
      one fails the test before LM scoring, the rest of the span does too.
      The sort is stable: options with equal static scores keep their
      order, and where two of them from one parent recombine on equal
      score and target, the first in `options` wins.
    """
    sentence = tuple(sentence)
    if not sentence:
        raise ValueError("cannot decode an empty sentence")
    if nbest_size < 1:
        raise ValueError(f"nbest_size must be >= 1, got {nbest_size}")
    weights = np.asarray(weights, dtype=float)
    n = len(sentence)
    weighted = {span: [float(weights @ np.asarray(o.features)) for o in opts]
                for span, opts in options.items()}
    lm_weights = [float(weights[layout.lm_feature(k)]) for k in range(len(lms))]
    dist_weight = float(weights[layout.distortion])
    fc = _future_costs(options, weighted, lm_weights, lms, n)
    lm_lowers = all(w >= 0 for w in lm_weights) and all(lm.log10_nonpositive for lm in lms)

    # per last_end, the spans within the distortion limit in the order of
    # options, each with its (option, static score) pairs, highest static
    # score first
    spans = []
    for (start, end), opts in options.items():
        choices = sorted(zip(opts, weighted[(start, end)]), key=lambda c: -c[1])
        spans.append((start, end, ((1 << (end - start)) - 1) << start, choices))
    reachable = []
    for last_end in range(n + 1):
        row = []
        for start, end, mask, choices in spans:
            jump = abs(start - last_end)
            if distortion_limit < 0 or jump <= distortion_limit:
                row.append((mask, end, end - start, jump, dist_weight * jump, choices))
        reachable.append(row)

    futures: dict = {}
    phrase_memo: dict = {}
    word_memos = [{} for _ in lms]

    def phrase_lm(k, state, words):
        """lms[k].extend(state, words), memoized per phrase and per
        (state, word)."""
        key = (k, state, words)
        hit = phrase_memo.get(key)
        if hit is None:
            memo, total = word_memos[k], 0.0
            for word in words:
                step = memo.get((state, word))
                if step is None:
                    step = memo[state, word] = lms[k].extend(state, (word,))
                logp, state = step
                total += logp
            hit = phrase_memo[key] = (total, state)
        return hit

    init_states = tuple(lm.start_state for lm in lms)
    initial = (_coverage_future(fc, 0, n), 0.0, (), 0, 0, init_states, None, None, 0, ())
    stacks: list[dict] = [dict() for _ in range(n + 1)]
    stacks[0][(0, 0, init_states)] = initial
    # per pruned stack: a min-heap of the stack_size largest values its keys
    # had when first stored, and its least element once full (else -inf)
    floors = [-math.inf] * (n + 1)
    heaps: list[list] = [[] for _ in range(n)] if stack_size > 0 else []

    full_mask = (1 << n) - 1
    for covered in range(n):
        stack = stacks[covered].values()
        if stack_size <= 0:
            hyps = sorted(stack, key=_rank)
        else:
            hyps = heapq.nsmallest(stack_size, stack, key=_rank)
        for hyp in hyps:
            _, h_score, h_target, h_coverage, h_end, h_states, _, _, _, _ = hyp
            for mask, end, length, jump, dist_cost, choices in reachable[h_end]:
                if h_coverage & mask:
                    continue
                coverage = h_coverage | mask
                complete = coverage == full_mask
                count = covered + length
                future = futures.get(coverage)
                if future is None:
                    future = futures[coverage] = _coverage_future(fc, coverage, n)
                floor = floors[count]
                base = h_score + dist_cost
                target_stack = stacks[count]
                for opt, w_static in choices:
                    score = base + w_static
                    if lm_lowers and score + future < floor:
                        break
                    new_states = []
                    lm_scores = []
                    for k in range(len(lms)):
                        lm_delta, state = phrase_lm(k, h_states[k], opt.tgt)
                        if complete:
                            end_delta, _ = phrase_lm(k, state, (EOS,))
                            lm_delta += end_delta
                        lm_scores.append(lm_delta)
                        new_states.append(state)
                        score += lm_weights[k] * lm_delta
                    value = score + future
                    if value < floor:
                        continue
                    new_states = tuple(new_states)
                    key = (coverage, end, new_states)
                    incumbent = target_stack.get(key)
                    if incumbent is not None and incumbent[_SCORE] > score:
                        continue
                    target = h_target + opt.tgt
                    if incumbent is None:
                        if heaps and count < n:
                            heap = heaps[count]
                            if len(heap) < stack_size:
                                heapq.heappush(heap, value)
                            else:
                                heapq.heappushpop(heap, value)
                            if len(heap) == stack_size:
                                floor = floors[count] = heap[0]
                    elif not (score > incumbent[_SCORE]
                              or (score == incumbent[_SCORE] and target < incumbent[_TARGET])):
                        continue
                    target_stack[key] = (value, score, target, coverage, end, new_states,
                                         hyp, opt, jump, tuple(lm_scores))
    final = stacks[n]
    if not final:
        raise RuntimeError("no complete hypothesis")
    results = []
    seen = set()
    for hyp in sorted(final.values(), key=_rank):
        if hyp[_TARGET] in seen:
            continue
        seen.add(hyp[_TARGET])
        results.append(DecodeResult(hyp[_TARGET], _reconstruct_features(hyp, layout),
                                    hyp[_SCORE]))
        if len(results) >= nbest_size:
            break
    return results


NBEST_SEPARATOR = " ||| "


def format_nbest(sent_id, results, layout: FeatureLayout):
    """`sent_id ||| target tokens ||| name=value ... ||| total` lines."""
    lines = []
    names = layout.names()
    for res in results:
        feats = " ".join(f"{n}={v:.10g}" for n, v in zip(names, res.features))
        lines.append(
            NBEST_SEPARATOR.join(
                [str(sent_id), " ".join(res.target), feats, f"{res.score:.10g}"]
            )
        )
    return lines
