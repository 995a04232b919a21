"""Word alignment and phrase-table construction.

IBM Model 1 expectation maximization produces lexical translation tables
in both directions; Viterbi alignments are symmetrized with
grow-diag-final-and, and consistent phrase pairs are extracted and scored
by relative frequency plus lexical weighting (Koehn, Och & Marcu 2003).

IBM1 keeps t(target | source) as one vector over the (source, target)
word pairs that co-occur in some sentence, so memory grows with the
co-occurrences, not with the product of the vocabularies.  Every
(source position incl. NULL, target position) cell of the corpus is
enumerated once, and an EM iteration is three weighted `np.bincount`s:
each target token's denominator, each pair's expected count, and each
source word's total.  The cell arrays are released before the t-table
becomes dicts, one source word's row at a time.  Viterbi alignment fetches
each source word's row of t once per sentence and looks every target word
up in those rows.

In a consistent phrase pair every link of every word in either span lies
inside the pair, so a word's lexical factor does not depend on the phrase:
the mean of its linked translation probabilities, or its NULL probability
when it has no link.  Extraction therefore returns bare index spans, and
the occurrences stay grouped by the sentence they came from: scoring
computes the factors once per sentence, in both directions, and slices
each distinct source or target span of the sentence and takes its
factors' product once.  Each occurrence is counted straight into the
table that scoring returns, one row per source phrase holding each
target's count and greatest weight in either direction, and each row is
turned into its scores in place at the end, so no phrase pair is held
twice.  The table is built in one pass over the corpus: each sentence is
aligned, symmetrized, extracted and scored before the next is aligned.
So memory holds the table plus one sentence, and IBM1's cell arrays
while EM runs, never every sentence's alignment and spans.  Equal
relative frequencies share one float object.  A table's max_len is its
longest source phrase, derived from its entries, so a table read from a
file offers every phrase it holds.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

NULL_TOKEN = "<null>"


def ibm1_em(pairs, iterations: int = 5):
    """EM from uniform initialization; returns (t-table, ll_history).  The
    t-table maps each source word to {target word: t(target | source)},
    summing to 1 per source word, and holds the NULL word's row under
    NULL_TOKEN.

    The history holds the corpus log-likelihood evaluated with the
    parameters entering each iteration (uniform alignment prior included),
    so it is non-decreasing by the EM guarantee.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    pairs = [(tuple(s), tuple(t)) for s, t in pairs]
    pairs = [(s, t) for s, t in pairs if s and t]
    if not pairs:
        raise ValueError("corpus has no non-empty sentence pairs")
    if any(NULL_TOKEN in s for s, _ in pairs):
        raise ValueError(f"source word {NULL_TOKEN!r} is reserved for the NULL word")
    src_vocab: dict[str, int] = {NULL_TOKEN: 0}
    tgt_vocab: dict[str, int] = {}
    for s, t in pairs:
        for w in s:
            src_vocab.setdefault(w, len(src_vocab))
        for w in t:
            tgt_vocab.setdefault(w, len(tgt_vocab))
    nt = len(tgt_vocab)
    # one cell per (source position, target position) of each sentence, in
    # C order, the NULL word (id 0) being source position 0; a column is
    # one target token of the corpus
    cell_keys, cell_cols = [], []
    n_cols, log_prior = 0, 0.0
    for s, t in pairs:
        s_ids = np.array([0] + [src_vocab[w] for w in s], dtype=np.int64)
        t_ids = np.array([tgt_vocab[w] for w in t], dtype=np.int64)
        cell_keys.append(np.add.outer(s_ids * nt, t_ids).ravel())
        cell_cols.append(np.tile(np.arange(n_cols, n_cols + len(t_ids)), len(s_ids)))
        n_cols += len(t_ids)
        log_prior += len(t_ids) * math.log(len(s_ids))
    # t(.|.) is a vector over the co-occurring (source, target) pairs,
    # ascending by source id, then target id
    keys, cell_pair = np.unique(np.concatenate(cell_keys), return_inverse=True)
    cell_col = np.concatenate(cell_cols)
    del cell_keys, cell_cols
    pair_src = keys // nt
    t = np.full(len(keys), 1.0 / nt)
    history = []
    for _ in range(iterations):
        p = t[cell_pair]
        denom = np.bincount(cell_col, weights=p)
        history.append(float(np.log(denom).sum()) - log_prior)
        counts = np.bincount(cell_pair, weights=p / denom[cell_col])
        t = counts / np.bincount(pair_src, weights=counts)[pair_src]
    del cell_pair, cell_col, p, denom, counts
    # one source word's row at a time, so that no list of Python ints or
    # floats spans the whole table
    positive = t > 0.0
    tgt_ids, t = keys[positive] % nt, t[positive]
    ends = np.cumsum(np.bincount(pair_src[positive], minlength=len(src_vocab))).tolist()
    tgt_words = list(tgt_vocab)
    probs: dict[str, dict[str, float]] = {}
    start = 0
    for w, end in zip(src_vocab, ends):
        probs[w] = dict(zip([tgt_words[j] for j in tgt_ids[start:end].tolist()],
                            t[start:end].tolist()))
        start = end
    return probs, history


@dataclass(frozen=True)
class AlignmentMatrix:
    links: frozenset  # of (source index, target index)
    src_len: int
    tgt_len: int

    def __post_init__(self):
        for i, j in self.links:
            if not (0 <= i < self.src_len and 0 <= j < self.tgt_len):
                raise ValueError(f"link ({i},{j}) outside {self.src_len}x{self.tgt_len}")


def viterbi_align(table: dict, src, tgt) -> AlignmentMatrix:
    """Best source link per target word under an ibm1_em t-table; the NULL
    token absorbs words it explains better than any real position.  Ties
    go to NULL, then to the leftmost source position."""
    src = tuple(src)
    tgt = tuple(tgt)
    rows = [table.get(sw, {}) for sw in src]
    null_row = table.get(NULL_TOKEN, {})
    links = set()
    for j, w in enumerate(tgt):
        best_i, best_p = None, null_row.get(w, 0.0)
        for i, row in enumerate(rows):
            p = row.get(w, 0.0)
            if p > best_p:
                best_i, best_p = i, p
        if best_i is not None:
            links.add((best_i, j))
    return AlignmentMatrix(frozenset(links), len(src), len(tgt))


_NEIGHBORS = ((-1, 0), (0, -1), (1, 0), (0, 1), (-1, -1), (-1, 1), (1, -1), (1, 1))


def symmetrize(fwd: AlignmentMatrix, rev: AlignmentMatrix) -> AlignmentMatrix:
    """grow-diag-final-and over two directional alignments."""
    if (fwd.src_len, fwd.tgt_len) != (rev.src_len, rev.tgt_len):
        raise ValueError("alignment matrices cover different sentence lengths")
    union = fwd.links | rev.links
    alignment = set(fwd.links & rev.links)
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


def _position_links(alignment: AlignmentMatrix):
    """(per source position its linked target positions, per target
    position its linked source positions), each list ascending."""
    tgt_of = [[] for _ in range(alignment.src_len)]
    src_of = [[] for _ in range(alignment.tgt_len)]
    for i, j in sorted(alignment.links):
        tgt_of[i].append(j)
        src_of[j].append(i)
    return tgt_of, src_of


def extract_phrases(alignment: AlignmentMatrix, max_len: int = 7):
    """Inclusive (i1, i2, j1, j2) spans of all phrase pairs consistent with
    the alignment, unaligned-boundary extensions included, both sides at
    most max_len tokens; ordered by source span, then target start
    descending, then target end ascending.

    A source span's target bounds grow with its right end, and only the
    target positions inside them are checked for links leaving the span.
    A max_len below 1 raises ValueError."""
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    tgt_of, src_of = _position_links(alignment)
    n, m = alignment.src_len, alignment.tgt_len
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
            js = j1
            while True:
                je = j2
                while je < m and je - js < max_len:
                    out.append((i1, i2, js, je))
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
    dropped_pairs: int = 0  # empty sentence pairs build_phrase_table skipped
    max_len: int = field(init=False)  # longest source phrase in entries, 0 when empty

    def __post_init__(self):
        self.max_len = max(map(len, self.entries), default=0)

    def lookup(self, src_phrase):
        return self.entries.get(tuple(src_phrase), {})

    def __len__(self):
        return sum(len(v) for v in self.entries.values())


_LEX_FLOOR = 1e-12


def _lexical_factors(words, other, links_of, table: dict) -> list:
    """Per word: the mean of t(word | linked word of other) over its links,
    added left to right in ascending position (not with the built-in sum,
    which compensates float rounding from Python 3.12 on), or the NULL
    probability if it has none."""
    null_row = table.get(NULL_TOKEN, {})
    factors = []
    for w, linked in zip(words, links_of):
        if linked:
            total = 0.0
            for k in linked:
                total += table.get(other[k], {}).get(w, 0.0)
            factors.append(total / len(linked))
        else:
            factors.append(null_row.get(w, 0.0))
    return factors


def score_phrases(sentences, lex_fwd: dict, lex_rev: dict) -> PhraseTable:
    """Relative-frequency phrase scores in both directions plus lexical
    weights maximized over the occurrences of each pair.

    sentences yields one (src tuple, tgt tuple, alignment, spans) per
    sentence, spans as extract_phrases returns them.  It is read once, so
    it may be a generator, and scoring then holds the table plus the
    sentence at hand.  An occurrence's lexical weight w(tgt | src, a) is
    the product over its target span of the sentence's per-word factors
    (see _lexical_factors); the reverse weight likewise over its source
    span.  Equal phi scores share one float object."""
    # src -> {tgt: [count, max lex_fwd, max lex_rev]}, scored in place below
    entries: dict[tuple, dict] = {}
    tgt_counts: dict[tuple, int] = {}
    for src, tgt, alignment, spans in sentences:
        tgt_of, src_of = _position_links(alignment)
        fwd = _lexical_factors(tgt, src, src_of, lex_fwd)
        rev = _lexical_factors(src, tgt, tgt_of, lex_rev)
        # per span of this sentence: (its row of entries, reverse weight)
        # and (its target phrase, forward weight)
        src_spans: dict[tuple, tuple] = {}
        tgt_spans: dict[tuple, tuple] = {}
        for i1, i2, j1, j2 in spans:
            row_lex = src_spans.get((i1, i2))
            if row_lex is None:
                phrase = src[i1: i2 + 1]
                row = entries.get(phrase)
                if row is None:
                    row = entries[phrase] = {}
                row_lex = src_spans[i1, i2] = (row, math.prod(rev[i1: i2 + 1]))
            phrase_lex = tgt_spans.get((j1, j2))
            if phrase_lex is None:
                phrase_lex = tgt_spans[j1, j2] = (tgt[j1: j2 + 1], math.prod(fwd[j1: j2 + 1]))
            row, lex_r = row_lex
            phrase, lex_f = phrase_lex
            tgt_counts[phrase] = tgt_counts.get(phrase, 0) + 1
            entry = row.get(phrase)
            if entry is None:
                row[phrase] = [1, lex_f, lex_r]
            else:
                entry[0] += 1
                entry[1] = max(entry[1], lex_f)
                entry[2] = max(entry[2], lex_r)
    if not entries:
        raise ValueError("no phrase pairs extracted")
    # relative frequencies take few distinct values, so each is kept once
    phis: dict[float, float] = {}
    for row in entries.values():
        src_count = sum(entry[0] for entry in row.values())
        for phrase, (count, lex_f, lex_r) in row.items():
            phi_f, phi_r = count / src_count, count / tgt_counts[phrase]
            row[phrase] = (phis.setdefault(phi_f, phi_f), max(lex_f, _LEX_FLOOR),
                           phis.setdefault(phi_r, phi_r), max(lex_r, _LEX_FLOOR))
    return PhraseTable(entries)


def _format_pair(src, tgt, scores) -> str:
    return f"{' '.join(src)} ||| {' '.join(tgt)} ||| " + " ".join(f"{s:.12g}" for s in scores)


def _parse_pair(line: str) -> tuple:
    """One line of a phrase table as (source, target, scores)."""
    fields = line.split(" ||| ")
    if len(fields) != 3:
        raise ValueError("expected three ||| fields")
    src = tuple(fields[0].split())
    tgt = tuple(fields[1].split())
    if not src or not tgt:
        raise ValueError(f"empty {'target' if src else 'source'} phrase")
    if "|||" in src + tgt:
        raise ValueError("a word is '|||'")
    try:
        scores = tuple(float(x) for x in fields[2].split())
    except ValueError as exc:
        raise ValueError(f"bad score: {exc}") from None
    if len(scores) != 4:
        raise ValueError("expected four scores")
    if not all(0.0 < x <= 1.0 for x in scores):
        raise ValueError("scores must lie in (0, 1]")
    return src, tgt, scores


def write_phrase_table(table: PhraseTable, path) -> None:
    """`source ||| target ||| phi_fwd lex_fwd phi_rev lex_rev` per line.
    A pair whose line read_phrase_table's parser would refuse or read back
    as other phrases, or whose scores are not four in (0, 1] before
    rounding, raises ValueError naming it before the file is opened."""
    for src, row in table.entries.items():
        for tgt, scores in row.items():
            try:
                if len(scores) != 4 or not all(0.0 < x <= 1.0 for x in scores):
                    raise ValueError(f"the four scores must lie in (0, 1], got {scores}")
                if _parse_pair(_format_pair(src, tgt, scores))[:2] != (src, tgt):
                    raise ValueError("its phrases would read back as other words")
            except ValueError as exc:
                raise ValueError(f"pair {src!r} ||| {tgt!r}: {exc}") from None
    with open(path, "w", encoding="utf-8") as fh:
        for src in sorted(table.entries):
            for tgt in sorted(table.entries[src]):
                fh.write(_format_pair(src, tgt, table.entries[src][tgt]) + "\n")


def read_phrase_table(path) -> PhraseTable:
    """Inverse of write_phrase_table; a whitespace-only line is skipped.
    A malformed line, an empty source or target phrase, a word that is
    `|||`, a score outside (0, 1] or a repeated `source ||| target` pair
    raises ValueError naming `path:line`."""
    entries: dict[tuple, dict] = defaultdict(dict)
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                src, tgt, scores = _parse_pair(line)
                if tgt in entries[src]:
                    raise ValueError(f"repeated pair {' '.join(src)} ||| {' '.join(tgt)}")
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            entries[src][tgt] = scores
    return PhraseTable(dict(entries))


def build_phrase_table(pairs):
    """Full pipeline: bidirectional IBM1, then one pass of Viterbi
    alignment, grow-diag-final-and symmetrization, extraction and scoring
    per sentence pair.  Returns (PhraseTable, fwd t-table, rev t-table);
    the table's dropped_pairs counts the pairs skipped for an empty side.

    Past IBM1, whose cell arrays span the corpus, memory holds the two
    t-tables, the table being scored and one sentence's alignment and
    spans: each sentence is scored before the next is aligned."""
    pairs = [(tuple(s), tuple(t)) for s, t in pairs]
    kept = [(s, t) for s, t in pairs if s and t]
    lex_fwd = ibm1_em(kept)[0]
    lex_rev = ibm1_em([(t, s) for s, t in kept])[0]

    def sentences():
        for s, t in kept:
            fwd = viterbi_align(lex_fwd, s, t)
            rev_swapped = viterbi_align(lex_rev, t, s)
            rev = AlignmentMatrix(
                frozenset((i, j) for j, i in rev_swapped.links), len(s), len(t)
            )
            sym = symmetrize(fwd, rev)
            yield s, t, sym, extract_phrases(sym)

    table = score_phrases(sentences(), lex_fwd, lex_rev)
    table.dropped_pairs = len(pairs) - len(kept)
    return table, lex_fwd, lex_rev
