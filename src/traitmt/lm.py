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

The model is stored the way an ARPA file lists it: one table from each
n-gram of 1..order words to its (log10 prob, log10 backoff weight), the
weight 0.0 where the line has none, so the in-memory scorer and an
ARPA-round-tripped model are bit-compatible.

A caller scoring word by word holds a state: start_state before the first
word, then whatever extend(state, words) returns with the words' log10
sum.  extend is the one place that maps words outside the vocabulary to
<unk> and trims the state: to the last order - 1 words, and then to the
longest suffix that can still change a score (right-state minimization,
Li & Khudanpur 2008; Heafield 2011).  Callers treat the state as an
opaque, hashable key; two histories with equal states score every
continuation identically, so a decoder may recombine on the state.
"""

from __future__ import annotations

import functools
import math
import warnings
from collections import Counter
from dataclasses import dataclass

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"

LOG10_FLOOR = -99.0
# an n-gram without an entry: the floor as its probability, no backoff weight
_UNSTORED = (LOG10_FLOOR, 0.0)


@dataclass
class NgramLanguageModel:
    order: int
    grams: dict  # n-gram tuple of 1..order words -> (log10 prob, log10 backoff weight)

    @functools.cached_property
    def vocab(self) -> frozenset:
        """The prediction vocabulary: the 1-grams' words but <s>, and <unk>."""
        return frozenset(gram[0] for gram in self.grams if len(gram) == 1) - {BOS} | {UNK}

    @property
    def probs(self) -> dict:
        """order -> {n-gram: log10 prob}, a copy of grams split by order."""
        return {k: {gram: entry[0] for gram, entry in self.grams.items() if len(gram) == k}
                for k in range(1, self.order + 1)}

    def log10_prob(self, word: str, context=()) -> float:
        """Backoff query P(word | context) in log10, OOV mapped to <unk>."""
        if word not in self.vocab:
            word = UNK
        context = tuple(context)[-(self.order - 1):] if self.order > 1 else ()
        grams, total_bow = self.grams, 0.0
        while True:
            stored = grams.get(context + (word,))
            if stored is not None:
                return total_bow + stored[0]
            if not context:
                return total_bow + LOG10_FLOOR
            total_bow += grams.get(context, _UNSTORED)[1]
            context = context[1:]

    @functools.cached_property
    def live_states(self) -> frozenset:
        """The states whose leading word can still change a score: every
        proper prefix of a stored n-gram, and every prefix of an n-gram
        with a nonzero backoff weight.  A backoff query from a state outside
        the set finds no stored n-gram that starts with it and adds no
        backoff weight before it reaches the state's suffix, now or after
        any further words, so extend drops the leading word.  The test
        reads the table, not how it was made: an ARPA file may list an
        n-gram without its prefixes, or a backoff weight for an n-gram
        with no extensions.  Computed once; the table is not expected to
        change after construction."""
        return frozenset(gram[:i] for gram, (_, bow) in self.grams.items()
                         for i in range(1, len(gram) + (bow != 0.0)))

    @property
    def start_state(self) -> tuple:
        """The state before a sentence's first word."""
        return (BOS,) if self.order > 1 else ()

    def extend(self, state, words):
        """Score words left to right after state; returns (log10 sum, new
        state).  A word outside the vocabulary is scored, and kept in the
        state, as <unk>.  The new state is the longest suffix of the last
        order - 1 words that is in live_states, so it is () after </s> and
        for a history no stored n-gram extends.  Every later score is the
        same, to the bit, as from the untrimmed history."""
        live, total = self.live_states, 0.0
        for word in words:
            if word not in self.vocab:
                word = UNK
            total += self.log10_prob(word, state)
            state = (state + (word,))[-(self.order - 1):] if self.order > 1 else ()
            while state and state not in live:
                state = state[1:]
        return total, state


def _log10_floor(p: float) -> float:
    return math.log10(p) if p > 0 else LOG10_FLOOR


def train_kn_lm(sentences, order: int, unk_threshold: int = 1) -> NgramLanguageModel:
    """Estimate an interpolated Kneser-Ney model of the given order.

    sentences is an iterable of token sequences.  Tokens occurring at most
    unk_threshold times in the corpus are replaced by <unk>.  A sentence
    holding <s> or </s> raises ValueError naming its index and the symbol.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    sentences = [tuple(s) for s in sentences]
    if not any(sentences):
        raise ValueError("corpus must contain at least one token")
    freq = Counter(tok for sent in sentences for tok in sent)
    if BOS in freq or EOS in freq:
        i, tok = next((i, tok) for i, sent in enumerate(sentences)
                      for tok in sent if tok in (BOS, EOS))
        raise ValueError(f"sentence {i}: {tok!r} is reserved for the sentence boundary")
    raw = {k: Counter() for k in range(1, order + 1)}
    for sent in sentences:
        padded = (BOS,) + tuple(tok if freq[tok] > unk_threshold else UNK for tok in sent) + (EOS,)
        for k in range(1, order + 1):
            raw[k].update(zip(*(padded[i:] for i in range(k))))
    if not raw[order]:
        warnings.warn(
            f"order {order} exceeds the longest padded sentence "
            f"({max(map(len, sentences)) + 2} tokens); the model will have no {order}-grams"
        )

    # Kneser-Ney counts: raw at the top order and for n-grams starting with
    # <s>, else the number of distinct words seen before the n-gram
    counts = {order: raw[order]}
    for k in range(1, order):
        left = Counter(gram[1:] for gram in raw[k + 1])
        counts[k] = {gram: c if gram[0] == BOS else left[gram] for gram, c in raw[k].items()}
    del counts[1][(BOS,)]

    vocab = frozenset(w for (w,) in counts[1]) | {UNK}
    grams: dict[tuple, tuple] = {(BOS,): (LOG10_FLOOR, 0.0)}
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
            # every context is a stored (k-1)-gram: a substring of a sentence
            grams.update({h: (grams[h][0], _log10_floor(lam)) for h, lam in lams.items()})
        grams.update({gram: (_log10_floor(p), 0.0) for gram, p in cur.items()})
        lower = cur
    return NgramLanguageModel(order, grams)


def write_arpa(model: NgramLanguageModel, path) -> None:
    """Standard ARPA text format, log10 domain, full float precision: one
    line per entry of model.grams, with its backoff weight when that is not
    0.  The lines go through read_arpa's parser first: a model they do not
    read back as raises ValueError before the file is opened, naming the
    n-gram whose line (or section header) is refused, else path or the
    `path:line` of an `ngram k=` header."""
    grams, orders = model.grams, range(1, model.order + 1)
    sections = {k: [] for k in orders}
    for gram in sorted(grams):
        logp, bow = grams[gram]
        sections.setdefault(len(gram), []).append(
            (gram, f"{logp:.17g}\t{' '.join(gram)}" + (f"\t{bow:.17g}" if bow != 0.0 else "")))
    lines = ["\\data\\", *(f"ngram {k}={len(sections[k])}" for k in orders), ""]
    owners = [None] * len(lines)  # the n-gram each line is refused for
    for k, section in sections.items():
        lines += [f"\\{k}-grams:", *(line for _, line in section), ""]
        owners += [section[0][0] if section else None, *(gram for gram, _ in section), None]
    lines.append("\\end\\")

    def where(lineno):
        gram = owners[lineno - 1]
        return f"{path}:{lineno}" if gram is None else f"{path}: {len(gram)}-gram {gram!r}"
    read = _parse_arpa(lines, path, where)
    # only 1..order have headers, so any other length was refused above
    if (read.order, read.grams) != (model.order, grams):
        gram = next(g for g in grams if read.grams.get(g) != grams[g])
        raise ValueError(f"{path}: {len(gram)}-gram {gram!r} would not read back as itself")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in lines)


def read_arpa(path) -> NgramLanguageModel:
    """Read an ARPA file, fields separated by any whitespace, into one
    entry per line; a line without a backoff field gets weight 0.0.  A
    malformed line, a repeated `ngram k=` header, a section without its
    header, a NaN or +inf value, a repeated n-gram and a higher-order
    n-gram with a word that no earlier 1-gram line lists raise ValueError
    naming `path:line`; a count that differs from its header and a file
    without unigrams raise one naming `path`; then declared orders other
    than 1..N raise one naming the first header out of place.  The order is
    the highest declared, also when its count is 0."""
    with open(path, encoding="utf-8") as fh:
        return _parse_arpa(fh, path)


def _parse_arpa(lines, path, where=None) -> NgramLanguageModel:
    """read_arpa's parser over lines.  An error about one line names it
    where(lineno), by default `path:lineno`; any other error names path."""
    where = where or (lambda lineno: f"{path}:{lineno}")
    grams: dict[tuple, tuple] = {}
    declared: dict[int, tuple] = {}  # k -> (count, header line)
    section = None
    for lineno, line in enumerate(lines, 1):
        line = line.rstrip("\n")
        if not line.strip() or line == "\\data\\":
            continue
        if line == "\\end\\":
            break
        try:
            if line.startswith("ngram "):
                k_s, n_s = line[len("ngram "):].split("=")
                k = int(k_s)
                if k in declared:
                    raise ValueError(f"repeated 'ngram {k}=' header")
                declared[k] = (int(n_s), lineno)
            elif line.startswith("\\") and line.endswith("-grams:"):
                section = int(line[1:].split("-")[0])
                if section not in declared:
                    raise ValueError(f"{line!r} has no 'ngram {section}=' header")
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
                if gram in grams:
                    raise ValueError(f"repeated {section}-gram {' '.join(gram)!r}")
                if section > 1:
                    unknown = [w for w in gram if (w,) not in grams]
                    if unknown:
                        raise ValueError(f"{section}-gram {' '.join(gram)!r} has words "
                                         f"that are not 1-grams: {' '.join(unknown)!r}")
                grams[gram] = (values[0], values[1] if len(values) > 1 else 0.0)
        except ValueError as exc:
            raise ValueError(f"{where(lineno)}: {exc}") from None
    found = Counter(map(len, grams))
    for k, (n, _) in declared.items():
        if found[k] != n:
            raise ValueError(f"{path}: declared {n} {k}-grams, found {found[k]}")
    if not found[1]:
        raise ValueError(f"{path}: no unigrams")
    for k, (_, lineno) in declared.items():
        if k < 1:
            raise ValueError(f"{where(lineno)}: n-gram order {k} is below 1")
        missing = [j for j in range(1, k) if j not in declared]
        if missing:
            raise ValueError(f"{where(lineno)}: 'ngram {k}=' but no 'ngram {missing[0]}=' header")
    return NgramLanguageModel(max(declared), grams)
