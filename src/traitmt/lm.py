"""Interpolated Kneser-Ney n-gram language model with ARPA round-trip.

Estimation uses absolute discounting with the estimated discount
D = n1/(n1+2*n2) per order, continuation counts for the lower orders
(raw counts are kept for n-grams starting with the sentence-start symbol,
whose preceding context genuinely does not exist), and interpolation down
to a uniform distribution over the prediction vocabulary.  Tokens at or
below a count threshold are replaced by <unk> before counting.  One pass
over the padded sentences counts every order; since every n-gram not
starting with <s> has a word before it, the continuation count of a
lower-order n-gram is its number of distinct left extensions one order up.

The trained model is stored directly in backoff form (log10 probabilities
for observed n-grams plus log10 backoff weights per context), which makes
the in-memory scorer and an ARPA-round-tripped model bit-compatible.

A caller scoring word by word holds a state: start_state before the first
word, then whatever extend(state, words) returns with the words' log10
sum.  extend is the one place that maps words outside the vocabulary to
<unk> and trims the state to the last order - 1 words; callers treat the
state as an opaque, hashable key.
"""

from __future__ import annotations

import functools
import math
import warnings
from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"

LOG10_FLOOR = -99.0

_NO_GRAMS = MappingProxyType({})


@dataclass
class NgramLanguageModel:
    order: int
    probs: dict     # k -> {k-gram tuple: log10 prob}
    bows: dict      # context tuple -> log10 backoff weight
    vocab: frozenset  # prediction vocabulary: words + </s> + <unk>, no <s>

    def log10_prob(self, word: str, context=()) -> float:
        """Backoff query P(word | context) in log10, OOV mapped to <unk>."""
        if word not in self.vocab and word != BOS:
            word = UNK
        context = tuple(context)[-(self.order - 1):] if self.order > 1 else ()
        total_bow = 0.0
        while True:
            gram = context + (word,)
            stored = self.probs.get(len(gram), _NO_GRAMS).get(gram)
            if stored is not None:
                return total_bow + stored
            if not context:
                return total_bow + LOG10_FLOOR
            total_bow += self.bows.get(context, 0.0)
            context = context[1:]

    @functools.cached_property
    def log10_nonpositive(self) -> bool:
        """True when no stored log10 probability or backoff weight is above
        0, so that every query, and every sum of queries, is <= 0.  Computed
        once; the tables are not expected to change after construction."""
        return all(
            logp <= 0.0 for table in self.probs.values() for logp in table.values()
        ) and all(bow <= 0.0 for bow in self.bows.values())

    @property
    def start_state(self) -> tuple:
        """The state before a sentence's first word."""
        return (BOS,) if self.order > 1 else ()

    def extend(self, state, words):
        """Score words left to right after state; returns (log10 sum, new
        state).  A word outside the vocabulary is scored, and kept in the
        state, as <unk>."""
        total = 0.0
        for word in words:
            if word not in self.vocab:
                word = UNK
            total += self.log10_prob(word, state)
            state = (state + (word,))[-(self.order - 1):] if self.order > 1 else ()
        return total, state

    def unigram_log10(self, word: str) -> float:
        if word not in self.vocab:
            word = UNK
        return self.probs[1].get((word,), LOG10_FLOOR)


def _log10_floor(p: float) -> float:
    return math.log10(p) if p > 0 else LOG10_FLOOR


def train_kn_lm(sentences, order: int, unk_threshold: int = 1) -> NgramLanguageModel:
    """Estimate an interpolated Kneser-Ney model of the given order.

    sentences is an iterable of token sequences.  Tokens occurring at most
    unk_threshold times in the corpus are replaced by <unk>.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    sentences = [tuple(s) for s in sentences]
    if not any(sentences):
        raise ValueError("corpus must contain at least one token")
    freq = Counter(tok for sent in sentences for tok in sent)
    raw = {k: Counter() for k in range(1, order + 1)}
    for sent in sentences:
        padded = (BOS,) + tuple(tok if freq[tok] > unk_threshold else UNK for tok in sent) + (EOS,)
        for k in range(1, order + 1):
            for i in range(len(padded) - k + 1):
                raw[k][padded[i: i + k]] += 1
    if not raw[order]:
        warnings.warn(
            f"order {order} exceeds the longest padded sentence "
            f"({max(map(len, sentences)) + 2} tokens); top-order table will be empty"
        )

    # Kneser-Ney counts: raw at the top order and for n-grams starting with
    # <s>, else the number of distinct words seen before the n-gram
    counts = {order: raw[order]}
    for k in range(1, order):
        left = Counter(gram[1:] for gram in raw[k + 1])
        counts[k] = {gram: c if gram[0] == BOS else left[gram] for gram, c in raw[k].items()}
    del counts[1][(BOS,)]

    vocab = frozenset(w for (w,) in counts[1]) | {UNK}
    probs: dict[int, dict] = {}
    bows: dict[tuple, float] = {}
    lower: dict[tuple, float] = {}  # probabilities one order down
    for k in range(1, order + 1):
        level = counts[k]
        n1 = sum(c == 1 for c in level.values())
        n2 = sum(c == 2 for c in level.values())
        d = n1 / (n1 + 2 * n2) if n1 + 2 * n2 else 0.0
        sums = Counter()   # context -> count total
        types = Counter()  # context -> distinct continuations
        for gram, c in level.items():
            sums[gram[:-1]] += c
            types[gram[:-1]] += 1
        if k == 1:
            # interpolated with the uniform distribution over the vocabulary
            s1, n_types, v = sums[()], types[()], len(vocab)
            cur = {(w,): (max(level.get((w,), 0) - d, 0.0) + d * n_types / v) / s1
                   for w in vocab}
        else:
            lams = {h: d * types[h] / s for h, s in sums.items()}
            cur = {gram: max(c - d, 0.0) / sums[gram[:-1]]
                   + lams[gram[:-1]] * lower.get(gram[1:], 0.0)
                   for gram, c in level.items()}
            bows.update((h, _log10_floor(lam)) for h, lam in lams.items())
        probs[k] = {gram: _log10_floor(p) for gram, p in cur.items()}
        lower = cur
    probs[1][(BOS,)] = LOG10_FLOOR
    return NgramLanguageModel(order, probs, bows, vocab)


def write_arpa(model: NgramLanguageModel, path) -> None:
    """Standard ARPA text format, log10 domain, full float precision."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\\data\\\n")
        for k in range(1, model.order + 1):
            fh.write(f"ngram {k}={len(model.probs[k])}\n")
        fh.write("\n")
        for k in range(1, model.order + 1):
            fh.write(f"\\{k}-grams:\n")
            for gram in sorted(model.probs[k]):
                logp = model.probs[k][gram]
                line = f"{logp:.17g}\t{' '.join(gram)}"
                if k < model.order and gram in model.bows:
                    line += f"\t{model.bows[gram]:.17g}"
                fh.write(line + "\n")
            fh.write("\n")
        fh.write("\\end\\\n")


def read_arpa(path) -> NgramLanguageModel:
    """Read an ARPA file, fields separated by any whitespace.  A malformed
    line, a section without its `ngram k=` header, a NaN or +inf value, a
    repeated n-gram and a higher-order n-gram with a word that no earlier
    1-gram line lists raise ValueError naming `path:line`; a file without
    unigrams raises one naming `path`."""
    probs: dict[int, dict] = {}
    bows: dict[tuple, float] = {}
    declared: dict[int, int] = {}
    with open(path, encoding="utf-8") as fh:
        section = None
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line.strip() or line == "\\data\\":
                continue
            if line == "\\end\\":
                break
            try:
                if line.startswith("ngram "):
                    k_s, n_s = line[len("ngram "):].split("=")
                    declared[int(k_s)] = int(n_s)
                elif line.startswith("\\") and line.endswith("-grams:"):
                    section = int(line[1:].split("-")[0])
                    if section not in declared:
                        raise ValueError(f"{line!r} has no 'ngram {section}=' header")
                    probs.setdefault(section, {})
                elif section is None:
                    raise ValueError(f"entry outside any n-gram section: {line!r}")
                else:
                    fields = line.split()
                    if len(fields) not in (1 + section, 2 + section):
                        raise ValueError(f"bad {section}-gram line {line!r}")
                    gram = tuple(fields[1: 1 + section])
                    values = [float(f) for f in fields[:1] + fields[1 + section:]]
                    if any(math.isnan(x) or x == math.inf for x in values):
                        raise ValueError(f"NaN or +inf in {section}-gram line {line!r}")
                    if gram in probs[section]:
                        raise ValueError(f"repeated {section}-gram {' '.join(gram)!r}")
                    if section > 1:
                        unknown = [w for w in gram if (w,) not in probs.get(1, {})]
                        if unknown:
                            raise ValueError(f"{section}-gram {' '.join(gram)!r} has words "
                                             f"that are not 1-grams: {' '.join(unknown)!r}")
                    probs[section][gram] = values[0]
                    if len(values) > 1:
                        bows[gram] = values[1]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    for k, n in declared.items():
        if len(probs.get(k, {})) != n:
            raise ValueError(f"{path}: declared {n} {k}-grams, found {len(probs.get(k, {}))}")
    if not probs.get(1):
        raise ValueError(f"{path}: no unigrams")
    vocab = frozenset(w for (w,) in probs[1]) - {BOS}
    return NgramLanguageModel(max(declared), probs, bows, vocab | {UNK})
