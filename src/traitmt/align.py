"""Word alignment and phrase-table construction.

IBM Model 1 expectation maximization produces lexical translation tables
in both directions; Viterbi alignments are symmetrized (intersection,
union or grow-diag-final-and) and consistent phrase pairs are extracted
and scored by relative frequency plus lexical weighting (Koehn, Och &
Marcu 2003).

In a consistent phrase pair every link of every word in either span lies
inside the pair, so a word's lexical factor does not depend on the phrase:
the mean of its linked translation probabilities, or its NULL probability
when it has no link.  Scoring computes these factors once per sentence,
in both directions, and weighs each occurrence by their product over its
span.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

NULL_TOKEN = "<null>"

# vocabulary product up to which EM runs on a dense numpy table
_DENSE_LIMIT = 4_000_000


@dataclass
class LexicalTable:
    """t(target_word | source_word); sums to 1 per source word."""

    probs: dict  # source word -> {target word: probability}
    null_token: str | None = NULL_TOKEN

    def prob(self, target: str, source: str) -> float:
        return self.probs.get(source, {}).get(target, 0.0)

    def null_prob(self, target: str) -> float:
        if self.null_token is None:
            return 0.0
        return self.probs.get(self.null_token, {}).get(target, 0.0)


def ibm1_em(pairs, iterations: int = 5, use_null: bool = True):
    """EM from uniform initialization; returns (LexicalTable, ll_history).

    The history holds the corpus log-likelihood evaluated with the
    parameters entering each iteration (uniform alignment prior included),
    so it is non-decreasing by the EM guarantee.
    """
    pairs = [(tuple(s), tuple(t)) for s, t in pairs]
    pairs = [(s, t) for s, t in pairs if s and t]
    if not pairs:
        raise ValueError("corpus has no non-empty sentence pairs")
    src_vocab: dict[str, int] = {}
    tgt_vocab: dict[str, int] = {}
    if use_null:
        src_vocab[NULL_TOKEN] = 0
    for s, t in pairs:
        for w in s:
            src_vocab.setdefault(w, len(src_vocab))
        for w in t:
            tgt_vocab.setdefault(w, len(tgt_vocab))
    ns, nt = len(src_vocab), len(tgt_vocab)
    if ns * nt <= _DENSE_LIMIT:
        probs, history = _em_dense(pairs, src_vocab, tgt_vocab, iterations, use_null)
    else:
        probs, history = _em_sparse(pairs, src_vocab, tgt_vocab, iterations, use_null)
    return LexicalTable(probs, NULL_TOKEN if use_null else None), history


def _encode(pairs, src_vocab, tgt_vocab, use_null):
    encoded = []
    null_id = [0] if use_null else []
    for s, t in pairs:
        s_ids = np.array(null_id + [src_vocab[w] for w in s], dtype=np.int64)
        t_ids = np.array([tgt_vocab[w] for w in t], dtype=np.int64)
        encoded.append((s_ids, t_ids))
    return encoded


def _em_dense(pairs, src_vocab, tgt_vocab, iterations, use_null):
    ns, nt = len(src_vocab), len(tgt_vocab)
    encoded = _encode(pairs, src_vocab, tgt_vocab, use_null)
    T = np.full((ns, nt), 1.0 / nt)
    history = []
    for _ in range(iterations):
        counts = np.zeros((ns, nt))
        ll = 0.0
        for s_ids, t_ids in encoded:
            sub = T[s_ids][:, t_ids]
            denom = sub.sum(axis=0)
            ll += float(np.log(denom).sum()) - len(t_ids) * math.log(len(s_ids))
            contrib = sub / denom
            np.add.at(counts, (s_ids[:, None], t_ids[None, :]), contrib)
        history.append(ll)
        totals = counts.sum(axis=1, keepdims=True)
        T = np.divide(counts, totals, out=np.full_like(counts, 1.0 / nt), where=totals > 0)
    probs: dict[str, dict[str, float]] = {}
    tgt_words = list(tgt_vocab)
    for w, i in src_vocab.items():
        row = T[i]
        support = np.flatnonzero(row > 0.0)
        probs[w] = {tgt_words[j]: float(row[j]) for j in support}
    return probs, history


def _em_sparse(pairs, src_vocab, tgt_vocab, iterations, use_null):
    nt = len(tgt_vocab)
    uniform = 1.0 / nt
    t: dict[tuple[str, str], float] = {}
    history = []
    for it in range(iterations):
        counts: dict[tuple[str, str], float] = defaultdict(float)
        totals: dict[str, float] = defaultdict(float)
        ll = 0.0
        for s, tgt in pairs:
            s_all = ((NULL_TOKEN,) if use_null else ()) + s
            for w in tgt:
                if it == 0:
                    denom = uniform * len(s_all)
                else:
                    denom = sum(t.get((sw, w), 0.0) for sw in s_all)
                ll += math.log(denom) - math.log(len(s_all))
                for sw in s_all:
                    p = uniform if it == 0 else t.get((sw, w), 0.0)
                    share = p / denom
                    counts[(sw, w)] += share
                    totals[sw] += share
        history.append(ll)
        t = {k: v / totals[k[0]] for k, v in counts.items() if totals[k[0]] > 0}
    probs: dict[str, dict[str, float]] = defaultdict(dict)
    for (sw, w), p in t.items():
        if p > 0:
            probs[sw][w] = p
    return dict(probs), history


@dataclass(frozen=True)
class AlignmentMatrix:
    links: frozenset  # of (source index, target index)
    src_len: int
    tgt_len: int

    def __post_init__(self):
        for i, j in self.links:
            if not (0 <= i < self.src_len and 0 <= j < self.tgt_len):
                raise ValueError(f"link ({i},{j}) outside {self.src_len}x{self.tgt_len}")


def viterbi_align(table: LexicalTable, src, tgt) -> AlignmentMatrix:
    """Best source link per target word; the NULL token absorbs words it
    explains better than any real position.  Ties go to the leftmost
    source position."""
    src = tuple(src)
    tgt = tuple(tgt)
    links = set()
    for j, w in enumerate(tgt):
        best_i, best_p = None, table.null_prob(w)
        for i, sw in enumerate(src):
            p = table.prob(w, sw)
            if p > best_p:
                best_i, best_p = i, p
        if best_i is not None:
            links.add((best_i, j))
    return AlignmentMatrix(frozenset(links), len(src), len(tgt))


GROW_DIAG_FINAL_AND = "grow-diag-final-and"
INTERSECTION = "intersection"
UNION = "union"

_NEIGHBORS = ((-1, 0), (0, -1), (1, 0), (0, 1), (-1, -1), (-1, 1), (1, -1), (1, 1))


def symmetrize(fwd: AlignmentMatrix, rev: AlignmentMatrix,
               heuristic: str = GROW_DIAG_FINAL_AND) -> AlignmentMatrix:
    if (fwd.src_len, fwd.tgt_len) != (rev.src_len, rev.tgt_len):
        raise ValueError("alignment matrices cover different sentence lengths")
    inter = fwd.links & rev.links
    union = fwd.links | rev.links
    if heuristic == INTERSECTION:
        return AlignmentMatrix(frozenset(inter), fwd.src_len, fwd.tgt_len)
    if heuristic == UNION:
        return AlignmentMatrix(frozenset(union), fwd.src_len, fwd.tgt_len)
    if heuristic != GROW_DIAG_FINAL_AND:
        raise ValueError(f"unknown symmetrization heuristic {heuristic!r}")
    alignment = set(inter)
    aligned_src = {i for i, _ in alignment}
    aligned_tgt = {j for _, j in alignment}
    # grow-diag: absorb union neighbours of current points while one side
    # is still unaligned
    changed = True
    while changed:
        changed = False
        for i, j in sorted(alignment):
            for di, dj in _NEIGHBORS:
                cand = (i + di, j + dj)
                if cand in union and cand not in alignment:
                    if cand[0] not in aligned_src or cand[1] not in aligned_tgt:
                        alignment.add(cand)
                        aligned_src.add(cand[0])
                        aligned_tgt.add(cand[1])
                        changed = True
    # final-and over each directional alignment: both endpoints unaligned
    for direction in (fwd.links, rev.links):
        for i, j in sorted(direction):
            if i not in aligned_src and j not in aligned_tgt:
                alignment.add((i, j))
                aligned_src.add(i)
                aligned_tgt.add(j)
    return AlignmentMatrix(frozenset(alignment), fwd.src_len, fwd.tgt_len)


@dataclass(frozen=True, eq=False)
class AlignedSentence:
    """A sentence pair and its alignment, shared by every phrase pair
    extracted from it."""

    src: tuple
    tgt: tuple
    alignment: AlignmentMatrix


@dataclass(frozen=True, slots=True)
class PhrasePair:
    """One extracted occurrence.  It keeps no links of its own: consistency
    puts every link of every word of either span inside the pair, so its
    internal alignment is the sentence's alignment within the spans, and
    score_phrases reads each word's lexical factor from vectors computed
    once per sentence."""

    src: tuple
    tgt: tuple
    src_span: tuple  # (i1, i2) inclusive
    tgt_span: tuple  # (j1, j2) inclusive
    sentence: AlignedSentence


def _position_links(alignment: AlignmentMatrix):
    """(per source position its linked target positions, per target
    position its linked source positions), each list ascending."""
    tgt_of = [[] for _ in range(alignment.src_len)]
    src_of = [[] for _ in range(alignment.tgt_len)]
    for i, j in sorted(alignment.links):
        tgt_of[i].append(j)
        src_of[j].append(i)
    return tgt_of, src_of


def extract_phrases(src, tgt, alignment: AlignmentMatrix, max_len: int = 7):
    """All phrase pairs consistent with the alignment, unaligned-boundary
    extensions included, both sides at most max_len tokens.

    A source span's target bounds grow with its right end, and only the
    target positions inside them are checked for links leaving the span."""
    sentence = AlignedSentence(tuple(src), tuple(tgt), alignment)
    src, tgt = sentence.src, sentence.tgt
    tgt_of, src_of = _position_links(alignment)
    n = len(src)
    m = len(tgt)
    # each target position's least and greatest linked source position;
    # n and -1 when it has no link, so that it never blocks a span
    lo = [s[0] if s else n for s in src_of]
    hi = [s[-1] if s else -1 for s in src_of]
    out = []
    for i1 in range(n):
        j1, j2 = m, -1
        for i2 in range(i1, min(n, i1 + max_len)):
            if tgt_of[i2]:
                j1 = min(j1, tgt_of[i2][0])
                j2 = max(j2, tgt_of[i2][-1])
            if j2 < 0:
                continue
            if j2 - j1 >= max_len:
                break  # the target bounds only widen as i2 grows
            if min(lo[j1: j2 + 1]) < i1:
                break  # that link stays inside the bounds for every wider span
            if max(hi[j1: j2 + 1]) > i2:
                continue
            src_phrase = src[i1: i2 + 1]
            js = j1
            while True:
                je = j2
                while je < m and je - js < max_len:
                    out.append(PhrasePair(src_phrase, tgt[js: je + 1], (i1, i2), (js, je),
                                          sentence))
                    je += 1
                    if je >= m or hi[je] >= 0:
                        break
                js -= 1
                if js < 0 or hi[js] >= 0 or j2 - js >= max_len:
                    break
    return out


@dataclass
class PhraseTable:
    entries: dict  # src tuple -> {tgt tuple: (phi_fwd, lex_fwd, phi_rev, lex_rev)}
    max_len: int = 7
    dropped_pairs: int = 0  # empty sentence pairs build_phrase_table skipped

    def lookup(self, src_phrase):
        return self.entries.get(tuple(src_phrase), {})

    def __len__(self):
        return sum(len(v) for v in self.entries.values())


_LEX_FLOOR = 1e-12


def _lexical_factors(words, other, links_of, table: LexicalTable) -> list:
    """Per word: the mean of t(word | linked word of other) over its links,
    summed in ascending position, or the NULL probability if it has none."""
    factors = []
    for w, linked in zip(words, links_of):
        if linked:
            factors.append(sum(table.prob(w, other[k]) for k in linked) / len(linked))
        else:
            factors.append(table.null_prob(w))
    return factors


def score_phrases(extracted, lex_fwd: LexicalTable, lex_rev: LexicalTable,
                  max_len: int = 7) -> PhraseTable:
    """Relative-frequency phrase scores in both directions plus lexical
    weights maximized over the occurrences of each pair.

    An occurrence's lexical weight w(tgt | src, a) is the product over its
    target span of the sentence's per-word factors (see _lexical_factors),
    which are computed once per sentence; the reverse weight likewise over
    its source span."""
    extracted = list(extracted)
    if not extracted:
        raise ValueError("no phrase pairs extracted")
    factors: dict[AlignedSentence, tuple] = {}
    stats: dict[tuple, list] = {}  # (src, tgt) -> [count, max lex_fwd, max lex_rev]
    for pp in extracted:
        sentence = pp.sentence
        both = factors.get(sentence)
        if both is None:
            tgt_of, src_of = _position_links(sentence.alignment)
            both = factors[sentence] = (
                _lexical_factors(sentence.tgt, sentence.src, src_of, lex_fwd),
                _lexical_factors(sentence.src, sentence.tgt, tgt_of, lex_rev),
            )
        (i1, i2), (j1, j2) = pp.src_span, pp.tgt_span
        lex_f = math.prod(both[0][j1: j2 + 1])
        lex_r = math.prod(both[1][i1: i2 + 1])
        key = (pp.src, pp.tgt)
        entry = stats.get(key)
        if entry is None:
            stats[key] = [1, lex_f, lex_r]
        else:
            entry[0] += 1
            entry[1] = max(entry[1], lex_f)
            entry[2] = max(entry[2], lex_r)
    src_counts: Counter = Counter()
    tgt_counts: Counter = Counter()
    for (src, tgt), (count, _, _) in stats.items():
        src_counts[src] += count
        tgt_counts[tgt] += count
    entries: dict[tuple, dict] = defaultdict(dict)
    for (src, tgt), (count, lex_f, lex_r) in stats.items():
        entries[src][tgt] = (count / src_counts[src], max(lex_f, _LEX_FLOOR),
                             count / tgt_counts[tgt], max(lex_r, _LEX_FLOOR))
    return PhraseTable(dict(entries), max_len)


def write_phrase_table(table: PhraseTable, path) -> None:
    """`source ||| target ||| phi_fwd lex_fwd phi_rev lex_rev` per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for src in sorted(table.entries):
            for tgt in sorted(table.entries[src]):
                scores = table.entries[src][tgt]
                fh.write(
                    f"{' '.join(src)} ||| {' '.join(tgt)} ||| "
                    + " ".join(f"{s:.12g}" for s in scores)
                    + "\n"
                )


def read_phrase_table(path, max_len: int = 7) -> PhraseTable:
    entries: dict[tuple, dict] = defaultdict(dict)
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split(" ||| ")
            if len(fields) != 3:
                raise ValueError(f"{path}:{lineno}: expected three ||| fields")
            src = tuple(fields[0].split())
            tgt = tuple(fields[1].split())
            scores = tuple(float(x) for x in fields[2].split())
            if len(scores) != 4:
                raise ValueError(f"{path}:{lineno}: expected four scores")
            entries[src][tgt] = scores
    return PhraseTable(dict(entries), max_len)


def build_phrase_table(pairs, iterations: int = 5, max_len: int = 7,
                       heuristic: str = GROW_DIAG_FINAL_AND):
    """Full pipeline: bidirectional IBM1, symmetrization, extraction,
    scoring.  Returns (PhraseTable, fwd LexicalTable, rev LexicalTable);
    the table's dropped_pairs counts the pairs skipped for an empty side."""
    pairs = [(tuple(s), tuple(t)) for s, t in pairs]
    kept = [(s, t) for s, t in pairs if s and t]
    lex_fwd = ibm1_em(kept, iterations)[0]
    lex_rev = ibm1_em([(t, s) for s, t in kept], iterations)[0]
    extracted = []
    for s, t in kept:
        fwd = viterbi_align(lex_fwd, s, t)
        rev_swapped = viterbi_align(lex_rev, t, s)
        rev = AlignmentMatrix(
            frozenset((i, j) for j, i in rev_swapped.links), len(s), len(t)
        )
        sym = symmetrize(fwd, rev, heuristic)
        extracted.extend(extract_phrases(s, t, sym, max_len))
    table = score_phrases(extracted, lex_fwd, lex_rev, max_len)
    table.dropped_pairs = len(pairs) - len(kept)
    return table, lex_fwd, lex_rev
