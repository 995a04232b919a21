"""Word alignment and phrase-table construction.

IBM Model 1 expectation maximization produces lexical translation tables
and Viterbi alignments in both directions; the alignments are symmetrized
with grow-diag-final-and, and consistent phrase pairs are extracted and
scored by relative frequency plus lexical weighting (Koehn, Och & Marcu
2003).

IBM1 keeps t(target | source) as one vector over the (source, target)
word pairs that co-occur in some sentence, so memory grows with the
co-occurrences, not with the product of the vocabularies.  Every
(source position incl. NULL, target position) cell of the corpus is
enumerated once, each sentence's cells in C order, by `np.repeat`s over
the sentence lengths: no numpy call runs per sentence.  An EM iteration
is three weighted `np.bincount`s: each target token's denominator, each
pair's expected count, and each source word's total.  After the last one,
each target token's Viterbi link is read off the same cells, walking
every column down its rows at once.  At most four 8-byte arrays over the
cells are alive at a time, and they are released before the t-table
becomes dicts, one source word's row at a time.

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
twice.  The table is built in one pass over the corpus: each sentence's
two alignments are sliced from IBM1's link arrays, symmetrized, extracted
and scored before the next sentence's.  So memory holds the table, one
int32 link per token in each direction and one sentence, and IBM1's cell
arrays while EM runs, never every sentence's alignment and spans.  Equal
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
    """EM from uniform initialization; returns (t-table, ll_history, links).
    The t-table maps each source word to {target word: t(target | source)},
    summing to 1 per source word, and holds the NULL word's row under
    NULL_TOKEN.

    The history holds the corpus log-likelihood evaluated with the
    parameters entering each iteration (uniform alignment prior included),
    so it is non-decreasing by the EM guarantee.

    links is the Viterbi alignment under the final t: one int32 per target
    token of the non-empty pairs, in corpus order, holding the position of
    the source word that gives it the highest t, or -1 for the NULL word.
    Ties go to NULL, then to the leftmost source position.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    pairs = [(tuple(s), tuple(t)) for s, t in pairs]
    pairs = [(s, t) for s, t in pairs if s and t]
    if not pairs:
        raise ValueError("corpus has no non-empty sentence pairs")
    if any(NULL_TOKEN in s for s, _ in pairs):
        raise ValueError(f"source word {NULL_TOKEN!r} is reserved for the NULL word")
    # a sentence's rows are its source positions behind the NULL word (id 0,
    # row 0), its columns its target positions; a column is one target
    # token of the corpus
    src_vocab: dict[str, int] = {NULL_TOKEN: 0}
    tgt_vocab: dict[str, int] = {}
    row_ids = np.array([src_vocab.setdefault(w, len(src_vocab))
                        for s, _ in pairs for w in (NULL_TOKEN,) + s])
    col_ids = np.array([tgt_vocab.setdefault(w, len(tgt_vocab)) for _, t in pairs for w in t])
    rows = np.array([len(s) + 1 for s, _ in pairs])
    cols = np.array([len(t) for _, t in pairs])
    log_prior = 0.0
    for n_rows, n_cols in zip(rows.tolist(), cols.tolist()):
        log_prior += n_cols * math.log(n_rows)
    cells = rows * cols
    nt, n_cells = len(tgt_vocab), int(cells.sum())
    first_col = np.cumsum(cols) - cols
    first_cell = np.cumsum(cells) - cells
    # one cell per (row, column) of each sentence, in C order: a cell's
    # column is its row's first column plus its offset in the row
    row_len = np.repeat(cols, rows)
    row_shift = np.cumsum(row_len) - row_len - np.repeat(first_col, rows)

    def cell_columns():
        col = np.repeat(row_shift, row_len)
        return np.subtract(np.arange(n_cells), col, out=col)

    # t(.|.) is a vector over the co-occurring (source, target) pairs,
    # ascending by source id, then target id
    cell_key = np.repeat(row_ids * nt, row_len)
    cell_key += col_ids[cell_columns()]
    # what np.unique(cell_key, return_inverse=True) returns, with the
    # inverse written over cell_key: np.unique would hold a copy of it too
    perm = np.argsort(cell_key)
    sorted_key = cell_key[perm]
    new = np.empty(n_cells, dtype=bool)
    new[0] = True
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=new[1:])
    keys = sorted_key[new]
    del sorted_key
    rank = np.cumsum(new)
    rank -= 1
    cell_pair = cell_key
    cell_pair[perm] = rank
    del cell_key, perm, new, rank
    cell_col = cell_columns()
    pair_src = keys // nt
    t = np.full(len(keys), 1.0 / nt)
    history = []
    # every iteration gathers into the same two buffers: np.take writes
    # straight into out in a mode other than "raise" (no index is out of range)
    p, p_denom = np.empty(n_cells), np.empty(n_cells)
    for _ in range(iterations):
        np.take(t, cell_pair, out=p, mode="clip")
        denom = np.bincount(cell_col, weights=p)
        history.append(float(np.log(denom).sum()) - log_prior)
        p /= np.take(denom, cell_col, out=p_denom, mode="clip")
        counts = np.bincount(cell_pair, weights=p)
        t = counts / np.bincount(pair_src, weights=counts)[pair_src]
    del cell_col, p, p_denom, denom, counts
    # Viterbi: walk down every column's rows at once, from the NULL word's,
    # keeping the first highest t.  Sorted by row count, descending, the
    # columns that have a row r are a prefix; cell holds each column's cell
    # in the row at hand, and the next row's is its sentence's width further.
    col_rows = np.repeat(rows, cols)
    order = np.argsort(col_rows)[::-1]
    cell = (np.arange(len(col_rows)) + np.repeat(first_cell - first_col, cols))[order]
    stride = np.repeat(cols, cols)[order]
    at_least = np.cumsum(np.bincount(col_rows)[::-1])[::-1]  # [r]: columns of >= r rows
    best = t[cell_pair[cell]]
    row_link = np.full(len(col_rows), -1, dtype=np.int32)
    for r in range(1, len(at_least) - 1):
        n = at_least[r + 1]
        cell[:n] += stride[:n]
        p = t[cell_pair[cell[:n]]]
        better = p > best[:n]
        best[:n][better] = p[better]
        row_link[:n][better] = r - 1
    links = np.empty_like(row_link)
    links[order] = row_link
    del cell_pair
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
    return probs, history, links


@dataclass(frozen=True)
class AlignmentMatrix:
    links: frozenset  # of (source index, target index)
    src_len: int
    tgt_len: int

    def __post_init__(self):
        for i, j in self.links:
            if not (0 <= i < self.src_len and 0 <= j < self.tgt_len):
                raise ValueError(f"link ({i},{j}) outside {self.src_len}x{self.tgt_len}")


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
    """Full pipeline: bidirectional IBM1 with its Viterbi alignments, then
    one pass of grow-diag-final-and symmetrization, extraction and scoring
    per sentence pair.  Returns (PhraseTable, fwd t-table, rev t-table);
    the table's dropped_pairs counts the pairs skipped for an empty side.
    A kept pair with the NULL word's token on either side raises
    ValueError naming the side and the pair's index, before IBM1 runs.

    Past IBM1, whose cell arrays span the corpus, memory holds the two
    t-tables, the two directions' link arrays (one int per token), the
    table being scored and one sentence's alignment and spans: each
    sentence is scored before the next is symmetrized."""
    pairs = [(tuple(s), tuple(t)) for s, t in pairs]
    kept = [(s, t) for s, t in pairs if s and t]
    # the reverse direction's source words are the target words
    for k, (s, t) in enumerate(pairs):
        for side, words in (("source", s), ("target", t)):
            if s and t and NULL_TOKEN in words:
                raise ValueError(f"pair {k}: {side} word {NULL_TOKEN!r} "
                                 "is reserved for the NULL word")
    lex_fwd, _, fwd_links = ibm1_em(kept)
    lex_rev, _, rev_links = ibm1_em([(t, s) for s, t in kept])

    def sentences():
        i0 = j0 = 0
        for s, t in kept:
            n, m = len(s), len(t)
            # fwd_links gives each target word's source position, rev_links
            # each source word's target position
            fwd = AlignmentMatrix(frozenset(
                (i, j) for j, i in enumerate(fwd_links[j0: j0 + m].tolist()) if i >= 0), n, m)
            rev = AlignmentMatrix(frozenset(
                (i, j) for i, j in enumerate(rev_links[i0: i0 + n].tolist()) if j >= 0), n, m)
            i0, j0 = i0 + n, j0 + m
            sym = symmetrize(fwd, rev)
            yield s, t, sym, extract_phrases(sym)

    table = score_phrases(sentences(), lex_fwd, lex_rev)
    table.dropped_pairs = len(pairs) - len(kept)
    return table, lex_fwd, lex_rev
