"""Log-linear phrase-based stack decoder over multiple phrase tables and
language models.

Every translation option carries a full feature vector: one four-score
block per phrase table (absent blocks filled with a floor constant) plus a
presence indicator per block, one feature per language model, word and
phrase penalties, and the distance-based distortion total.  Hypotheses are
recombined on (coverage, last position, LM states).  The LM states are the
minimized ones NgramLanguageModel.extend returns, so two histories that
differ only in words no later score can see share one stack entry.

Stacks are organized by covered-word count and filled lazily, best first,
in the manner of cube pruning (Chiang 2007; Huang & Chiang 2007): each
stack pops its stack_size best candidate expansions from a heap, ranked by
their value before LM scoring, and only popped candidates are LM-scored
and recombined.  Candidates tie-break on a total order, so the pops do not
depend on the order in which the heap was built.  An expansion that would
leave the leftmost uncovered word beyond the distortion limit is rejected
(Koehn 2010, ch. 6), so every stored hypothesis can still complete and the
search never dead-ends.

LM scores are memoized per decode in two layers.  An expansion's entry is
the tuple (new LM states, delta_1, ..., delta_L), keyed by (LM states,
target phrase).  There is one memo for expansions that leave words
uncovered and one for those that complete the sentence, since a completing
entry's deltas add </s> but its states are those before it; which memo a
pop uses is fixed by its stack, as only the last stack completes.  The
score adds w_k * delta_k in LM order.  A stored hypothesis keeps its last
expansion's entry, from which the feature vector is rebuilt.  A memo miss
is scored word by word through a per-LM (state, word) memo.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from operator import add

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


def _checked_weights(weights, layout: FeatureLayout) -> np.ndarray:
    """weights as a float array; weights of another length than the layout's
    raise ValueError."""
    weights = np.asarray(weights, dtype=float)
    if len(weights) != layout.dimension:
        raise ValueError(f"{len(weights)} weights for a layout of {layout.dimension} features")
    return weights


def write_weights(weights, layout: FeatureLayout, path) -> None:
    """One `name value` line per feature of the layout; weights of another
    length, or a non-finite weight, raise ValueError before the file is
    opened."""
    weights = _checked_weights(weights, layout)
    for name, value in zip(layout.names(), weights):
        if not math.isfinite(value):
            raise ValueError(f"weight {name!r} is not finite: {value}")
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
    tgt: tuple
    features: tuple    # static features as floats: table blocks, indicators, penalties


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


def build_options(sentence, tables, layout: FeatureLayout, weights):
    """Translation options per span: the union of matches across tables
    (same phrase pair in two tables stays two options), the
    MAX_OPTIONS_PER_SPAN best per span by weighted score, with verbatim
    pass-through for unknown words.  tables must number layout.n_tables."""
    if not tables:
        raise ValueError("need at least one phrase table")
    if len(tables) != layout.n_tables:
        raise ValueError(f"{len(tables)} phrase tables for a layout of {layout.n_tables}")
    weights = _checked_weights(weights, layout)
    sentence = tuple(sentence)
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
                                  TranslationOption(tgt, tuple(feats.tolist()))))
            if found:
                found.sort(key=lambda f: f[0])
                options[span] = [opt for _, opt in found[:MAX_OPTIONS_PER_SPAN]]
    for i, word in enumerate(sentence):
        span = (i, i + 1)
        if span not in options:
            feats = _static_features(layout, (word,), None, None)
            options[span] = [TranslationOption((word,), tuple(feats.tolist()))]
    return options


@dataclass
class DecodeResult:
    target: tuple
    features: np.ndarray
    score: float


def _future_costs(options, weighted, lm_weights, lms, n):
    """Per-span best weighted option score (LM part estimated by unigram
    scores, added left to right: the built-in sum compensates float
    rounding from Python 3.12 on), combined over splits by dynamic
    programming.  weighted holds each option's static score, weights @
    features, per span."""
    direct = {}
    for span, opts in options.items():
        best = -math.inf
        for opt, score in zip(opts, weighted[span]):
            for w_lm, lm in zip(lm_weights, lms):
                unigrams = 0.0
                for w in opt.tgt:
                    unigrams += lm.log10_prob(w)
                score += w_lm * unigrams
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
    """Sum of future costs over maximal uncovered runs, left to right.
    low is the lowest uncovered position's bit, and adding it to the gaps
    carries through that position's run, so run is the run's bits."""
    total = 0.0
    gaps = ~coverage & ((1 << n) - 1)
    while gaps:
        low = gaps & -gaps
        run = gaps & ~(gaps + low)
        total += fc[low.bit_length() - 1][run.bit_length()]
        gaps ^= run
    return total


# A hypothesis is a tuple (-value, target, coverage, last_end, lm_states,
# score, parent, option, jump, lm_entry): value = score + future cost, and
# lm_entry the LM memo entry of its last expansion.  The first five fields
# are the stack order, and the last three of them the recombination key,
# unique within a stack, so hypotheses of one stack compare as tuples
# without reaching score.
_TARGET, _SCORE, _PARENT = 1, 5, 6


def _reconstruct_features(hyp, layout: FeatureLayout) -> np.ndarray:
    """The feature vector of hyp's derivation, summed from the last
    expansion back as Python floats, in the order of element-wise numpy
    adds: each expansion's static features, then its jump and its LM
    deltas, the fields after the new states in its memo entry."""
    feats = [0.0] * layout.dimension
    while hyp[_PARENT] is not None:
        parent, option, jump, lm_entry = hyp[_PARENT:]
        feats = list(map(add, feats, option.features))
        feats[layout.distortion] += jump
        for k, delta in enumerate(lm_entry[1:]):
            feats[layout.lm_feature(k)] += delta
        hyp = parent
    return np.array(feats)


def decode(sentence, options, weights, lms, layout: FeatureLayout,
           stack_size: int = 100, distortion_limit: int = 6, nbest_size: int = 1):
    """Stack decoding with lazy best-first stack filling; returns the
    n-best list of DecodeResult.

    stack_size (>= 1) is how many candidates each stack pops, and
    distortion_limit (>= 0) caps every jump; a stack_size that no stack
    reaches gives exhaustive search up to recombination, and a
    distortion_limit of len(sentence) allows every jump.  lms must number
    layout.n_lms.  Decoding is deterministic.

    Pops.  A candidate for stack c (c words covered) expands a hypothesis
    of stack c - L by a span of L words and one of the span's options.  Its
    estimate is its value before LM scoring: ((score + w_dist * jump) +
    static score) + future cost of the new coverage.  Stack c pops the
    stack_size candidates of highest estimate, and only those are LM-scored
    and recombined, so no stack holds more than stack_size hypotheses.
    - Ties on the estimate go to the lower (source stack, the hypothesis's
      rank in that stack, span start, span end, option rank).
    - A stack ranks its hypotheses on (score + future cost, target string,
      coverage, last position, minimized LM states).  The last three are
      the recombination key, so the order is total.  A recombined key keeps
      the higher score, then the smaller target, then the first popped.
    - A span ranks its options on (static score, target string), highest
      score first, stably, so no result depends on the order of an
      `options` list, but where one pair appears twice at one static score.
    - Each (hypothesis, span) enters the heap with its first option and
      pushes the next one when popped.  Float addition is monotone, so the
      next option's estimate is no higher, and the pops are those of
      sorting every candidate.
    The n-best list ranks the final stack on its order (value is score
    there), keeping the first of each target.

    No dead ends.  An expansion that does not complete the sentence is
    rejected when the leftmost uncovered position g it leaves lies more
    than distortion_limit from its end (Moses' distortion check).  Every
    stored hypothesis can then finish by covering the uncovered words one
    at a time, left to right:
    - the first step jumps from its end to g, within the limit by the rule;
    - the next uncovered position g' is g + 1, or follows a covered run
      g + 1 .. g' - 1.  The expansion that covered g' - 1 ended at g' while
      the leftmost uncovered position was g or left of it, so its check
      bounds g' - g, and so g' - (g + 1), by the limit.
    build_options gives every one-word span an option, so each stack after
    a nonempty one has a candidate, and the final stack is never empty.
    """
    sentence = tuple(sentence)
    if not sentence:
        raise ValueError("cannot decode an empty sentence")
    if nbest_size < 1:
        raise ValueError(f"nbest_size must be >= 1, got {nbest_size}")
    if stack_size < 1:
        raise ValueError(f"stack_size must be >= 1, got {stack_size}")
    if distortion_limit < 0:
        raise ValueError(f"distortion_limit must be >= 0, got {distortion_limit}")
    if len(lms) != layout.n_lms:
        raise ValueError(f"{len(lms)} language models for a layout of {layout.n_lms}")
    weights = _checked_weights(weights, layout)
    n = len(sentence)
    weighted = {span: [float(weights @ np.asarray(o.features)) for o in opts]
                for span, opts in options.items()}
    lm_weights = [float(weights[layout.lm_feature(k)]) for k in range(len(lms))]
    dist_weight = float(weights[layout.distortion])
    fc = _future_costs(options, weighted, lm_weights, lms, n)

    # per last_end, the spans within the distortion limit in (start, end)
    # order, each with its (option, static score) pairs in option rank order
    spans = []
    for (start, end), opts in sorted(options.items()):
        choices = sorted(zip(opts, weighted[(start, end)]), key=lambda c: (-c[1], c[0].tgt))
        spans.append((start, end, ((1 << (end - start)) - 1) << start, choices))
    reachable = []
    for last_end in range(n + 1):
        within = []
        for start, end, mask, choices in spans:
            jump = abs(start - last_end)
            if jump <= distortion_limit:
                within.append((mask, end, end - start, jump, dist_weight * jump, choices))
        reachable.append(within)

    # coverage -> (future cost, leftmost uncovered position, n if none)
    futures: dict = {}
    word_memos = [{} for _ in lms]
    # (LM states, target phrase) -> (new states, delta_1, ..., delta_L), one
    # memo for expansions that leave words uncovered and one for those that
    # complete the sentence: a completing entry's deltas add </s>, but its
    # new states are those before it
    memos = ({}, {})
    lm_terms = list(enumerate(lm_weights, 1))

    def lm_entry(states, complete, words):
        new_states, deltas = [], []
        for lm, memo, state in zip(lms, word_memos, states):
            delta = 0.0
            for word in words:
                step = memo.get((state, word))
                if step is None:
                    step = memo[state, word] = lm.extend(state, (word,))
                delta += step[0]
                state = step[1]
            if complete:
                step = memo.get((state, EOS))
                if step is None:
                    step = memo[state, EOS] = lm.extend(state, (EOS,))
                delta += step[0]
            new_states.append(state)
            deltas.append(delta)
        return (tuple(new_states), *deltas)

    # per stack, its candidates' heap of (-estimate, pair, option rank,
    # hypothesis, span): pair numbers the (hypothesis, span) pairs as the
    # stacks are expanded, so in (source stack, rank, start, end) order
    heaps: list[list] = [[] for _ in range(n + 1)]
    pairs = 0
    full_mask = (1 << n) - 1
    init_states = tuple(lm.start_state for lm in lms)
    stack = [(-_coverage_future(fc, 0, n), (), 0, 0, init_states, 0.0, None, None, 0, None)]
    for covered in range(n):
        for hyp in stack:
            h_coverage, h_score = hyp[2], hyp[_SCORE]
            for span in reachable[hyp[3]]:
                mask, end, length, _, dist_cost, choices = span
                if h_coverage & mask:
                    continue
                coverage = h_coverage | mask
                known = futures.get(coverage)
                if known is None:
                    gaps = ~coverage & full_mask
                    known = futures[coverage] = (_coverage_future(fc, coverage, n),
                                                 (gaps & -gaps).bit_length() - 1 if gaps else n)
                future, gap = known
                if gap < n and abs(gap - end) > distortion_limit:
                    continue
                heaps[covered + length].append(
                    (-(h_score + dist_cost + choices[0][1] + future), pairs, 0, hyp, span))
                pairs += 1
        # fill the next stack, whose candidates are all queued now
        heap = heaps[covered + 1]
        heapq.heapify(heap)
        complete = covered + 1 == n
        memo = memos[complete]
        target_stack: dict = {}
        pops = stack_size
        while heap and pops:
            pops -= 1
            _, pair, k, hyp, span = heapq.heappop(heap)
            mask, end, _, jump, dist_cost, choices = span
            h_states = hyp[4]
            coverage = hyp[2] | mask
            future = futures[coverage][0]
            base = hyp[_SCORE] + dist_cost
            if k + 1 < len(choices):
                heapq.heappush(heap, (-(base + choices[k + 1][1] + future), pair, k + 1,
                                      hyp, span))
            opt, w_static = choices[k]
            entry = memo.get((h_states, opt.tgt))
            if entry is None:
                entry = memo[h_states, opt.tgt] = lm_entry(h_states, complete, opt.tgt)
            score = base + w_static
            for t, w_lm in lm_terms:
                score += w_lm * entry[t]
            key = (entry[0], end, coverage)
            incumbent = target_stack.get(key)
            if incumbent is not None and incumbent[_SCORE] > score:
                continue
            target = hyp[_TARGET] + opt.tgt
            if incumbent is None or score > incumbent[_SCORE] or target < incumbent[_TARGET]:
                target_stack[key] = (-(score + future), target, coverage, end, entry[0], score,
                                     hyp, opt, jump, entry)
        stack = sorted(target_stack.values())
    if not stack:
        raise RuntimeError("no complete hypothesis")
    results = []
    seen = set()
    for hyp in stack:
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
