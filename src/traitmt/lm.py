"""Interpolated Kneser-Ney n-gram language model with ARPA round-trip.

Estimation uses absolute discounting with the estimated discount
D = n1/(n1+2*n2) per order, continuation counts for the lower orders
(raw counts are kept for n-grams starting with the sentence-start symbol,
whose preceding context genuinely does not exist), and interpolation down
to a uniform distribution over the prediction vocabulary.  Tokens at or
below a count threshold are replaced by <unk> before counting.

The trained model is stored directly in backoff form (log10 probabilities
for observed n-grams plus log10 backoff weights per context), which makes
the in-memory scorer and an ARPA-round-tripped model bit-compatible.
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
    discounts: dict   # k -> discount used at order k

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
                # word is always in the unigram table after <unk> mapping
                return total_bow + self.probs[1].get((word,), LOG10_FLOOR)
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

    def score_sentence(self, tokens) -> float:
        """Sum of conditional log10 probabilities including </s>."""
        context = (BOS,)
        total = 0.0
        for token in tokens:
            word = token if token in self.vocab else UNK
            total += self.log10_prob(word, context)
            context = (context + (word,))[-(self.order - 1):] if self.order > 1 else ()
        total += self.log10_prob(EOS, context)
        return total

    def unigram_log10(self, word: str) -> float:
        if word not in self.vocab:
            word = UNK
        return self.probs[1].get((word,), LOG10_FLOOR)


def _count_windows(sentences, order: int):
    """Raw sliding-window counts for every order 1..n over padded
    sentences."""
    raw = {k: Counter() for k in range(1, order + 1)}
    longest = 0
    for sent in sentences:
        padded = (BOS,) + tuple(sent) + (EOS,)
        longest = max(longest, len(padded))
        for k in range(1, order + 1):
            for i in range(len(padded) - k + 1):
                raw[k][padded[i: i + k]] += 1
    return raw, longest


def _adjusted_counts(raw, order: int):
    """Continuation counts below the top order; n-grams starting with <s>
    keep their raw counts (nothing can precede <s>)."""
    adjusted = {order: dict(raw[order])}
    for k in range(order - 1, 0, -1):
        cont = Counter()
        for gram in adjusted[k + 1]:
            suffix = gram[1:]
            cont[suffix] += 1
        table = {}
        for gram, count in raw[k].items():
            if gram[0] == BOS:
                table[gram] = count
            elif cont[gram] > 0:
                table[gram] = cont[gram]
        adjusted[k] = table
    return adjusted


def _estimate_discount(counts) -> float:
    n1 = sum(1 for c in counts if c == 1)
    n2 = sum(1 for c in counts if c == 2)
    if n1 + 2 * n2 == 0:
        return 0.0
    return n1 / (n1 + 2 * n2)


def train_kn_lm(sentences, order: int, unk_threshold: int = 1) -> NgramLanguageModel:
    """Estimate an interpolated Kneser-Ney model of the given order.

    sentences is an iterable of token sequences.  Tokens occurring at most
    unk_threshold times in the corpus are replaced by <unk>.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    sentences = [tuple(s) for s in sentences]
    if not sentences or all(len(s) == 0 for s in sentences):
        raise ValueError("corpus must contain at least one token")
    freq = Counter(tok for sent in sentences for tok in sent)
    replaced = [
        tuple(tok if freq[tok] > unk_threshold else UNK for tok in sent)
        for sent in sentences
    ]
    raw, longest = _count_windows(replaced, order)
    if longest < order:
        warnings.warn(
            f"order {order} exceeds the longest padded sentence ({longest} tokens); "
            "top-order table will be empty"
        )
    adjusted = _adjusted_counts(raw, order)

    vocab = set(w for (w,) in adjusted[1]) - {BOS}
    vocab.add(UNK)
    vocab = frozenset(vocab)

    discounts = {}
    for k in range(1, order + 1):
        if k == 1:
            counts = [c for (w,), c in adjusted[1].items() if w != BOS]
        else:
            counts = list(adjusted[k].values())
        discounts[k] = _estimate_discount(counts)

    # context sums and distinct-continuation counts per order
    sums = {k: Counter() for k in range(1, order + 1)}
    types = {k: Counter() for k in range(1, order + 1)}
    for k in range(1, order + 1):
        for gram, c in adjusted[k].items():
            if k == 1 and gram[0] == BOS:
                continue
            sums[k][gram[:-1]] += c
            types[k][gram[:-1]] += 1

    probs: dict[int, dict] = {k: {} for k in range(1, order + 1)}
    bows: dict[tuple, float] = {}

    def log10_floor(p: float) -> float:
        return math.log10(p) if p > 0 else LOG10_FLOOR

    # unigrams, interpolated with the uniform distribution
    d1 = discounts[1]
    s1 = sums[1][()]
    n_types = types[1][()]
    v = len(vocab)
    uni_prob = {}
    for w in vocab:
        count = adjusted[1].get((w,), 0)
        p = (max(count - d1, 0.0) + d1 * n_types / v) / s1
        uni_prob[w] = p
        probs[1][(w,)] = log10_floor(p)
    probs[1][(BOS,)] = LOG10_FLOOR

    # higher orders, bottom-up so the suffix probability is already stored
    prev_prob = {(w,): p for w, p in uni_prob.items()}
    for k in range(2, order + 1):
        dk = discounts[k]
        cur_prob = {}
        for gram, count in sorted(adjusted[k].items()):
            h = gram[:-1]
            s = sums[k][h]
            lam = dk * types[k][h] / s
            lower = prev_prob.get(gram[1:], 0.0)
            p = max(count - dk, 0.0) / s + lam * lower
            cur_prob[gram] = p
            probs[k][gram] = log10_floor(p)
        for h in sums[k]:
            lam = discounts[k] * types[k][h] / sums[k][h]
            bows[h] = log10_floor(lam) if lam > 0 else LOG10_FLOOR
        prev_prob = cur_prob

    return NgramLanguageModel(order, probs, bows, vocab, discounts)


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
    """Read an ARPA file; a malformed line raises ValueError naming
    `path:line`."""
    probs: dict[int, dict] = {}
    bows: dict[tuple, float] = {}
    declared: dict[int, int] = {}
    order = 0
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
                    order = max(order, int(k_s))
                elif line.startswith("\\") and line.endswith("-grams:"):
                    section = int(line[1:].split("-")[0])
                    probs.setdefault(section, {})
                elif section is None:
                    raise ValueError(f"entry outside any n-gram section: {line!r}")
                else:
                    fields = line.split("\t")
                    if len(fields) == 1:
                        fields = line.split()
                        gram = tuple(fields[1: 1 + section])
                        logp = float(fields[0])
                        bow = float(fields[1 + section]) if len(fields) > 1 + section else None
                    else:
                        logp = float(fields[0])
                        gram = tuple(fields[1].split(" "))
                        bow = float(fields[2]) if len(fields) > 2 else None
                    if len(gram) != section:
                        raise ValueError(f"bad {section}-gram line {line!r}")
                    probs[section][gram] = logp
                    if bow is not None:
                        bows[gram] = bow
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    for k, n in declared.items():
        if len(probs.get(k, {})) != n:
            raise ValueError(f"{path}: declared {n} {k}-grams, found {len(probs.get(k, {}))}")
    vocab = frozenset(w for (w,) in probs.get(1, {})) - {BOS}
    return NgramLanguageModel(order, probs, bows, vocab | {UNK}, {})
