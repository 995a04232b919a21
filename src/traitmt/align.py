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

One format carries the alignments from IBM1 to scoring.  ibm1_em returns
each direction's Viterbi links as one int32 per token.  symmetrize grows
each sentence's links on plain sets of positions and returns the corpus's
links as four int32 arrays: each sentence's first source and target token,
and each link's source and target token, sorted by (source, target) with
one `np.lexsort`.  They cost 8 bytes per link plus the sentence starts,
and extraction and scoring both read them.

In a consistent phrase pair every link of every word in either span lies
inside the pair, so a word's lexical factor does not depend on the phrase:
the mean of its linked translation probabilities, or its NULL probability
when it has no link.  Extraction and scoring are each one pass over the
whole corpus, in numpy.  Extraction returns every occurrence as a
(sentence, i1, i2, j1, j2) row of one int32 array, finding the spans of
all sentences at once, one span length at a time.  Scoring computes every
token's factor once, then tables over every (span length, first token):
each span's product of factors, and an id equal for equal words.  An
occurrence's weights and phrases are read off those tables; the phrases
are numbered by first occurrence, and the pairs' counts, relative
frequencies and greatest weights come from sorting the occurrences by
pair.

A phrase table keeps its pairs in arrays, not in Python objects: a dict
from each source phrase to its row number, each row's range of pairs, each
pair's target phrase as (first token, length) into one tuple of target
tokens, and one (pairs, 4) float64 array of scores.  Rows come in order of
their source's first occurrence, and a row's targets in order of theirs.
A row becomes a dict of tuples only when it is looked up, so the pairs the
decoder never reads cost no object.  A table's max_len is its longest
source phrase, so a table read from a file offers every phrase it holds.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Mapping
from itertools import chain, repeat

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


_NEIGHBORS = ((-1, 0), (0, -1), (1, 0), (0, 1), (-1, -1), (-1, 1), (1, -1), (1, 1))


def symmetrize(lengths, fwd, rev):
    """grow-diag-final-and over a corpus's two directional alignments, as
    ibm1_em returns them: fwd holds each target token's source position in
    its sentence, rev each source token's target position, -1 for the NULL
    word.  lengths holds each sentence's (source, target) token counts.

    Returns the links as (source starts, target starts, link sources, link
    targets).  A start array holds each sentence's first token and then the
    token count; the link arrays hold each link's source and target token,
    ascending by source, then target token.  Each sentence grows on plain
    sets of its (i, j) positions."""
    src_start = np.zeros(len(lengths) + 1, dtype=np.int32)
    tgt_start = np.zeros(len(lengths) + 1, dtype=np.int32)
    np.cumsum([n for n, _ in lengths], out=src_start[1:])
    np.cumsum([m for _, m in lengths], out=tgt_start[1:])
    fwd, rev = fwd.tolist(), rev.tolist()
    counts, flat = [], []
    for i0, i1, j0, j1 in zip(src_start.tolist(), src_start[1:].tolist(),
                              tgt_start.tolist(), tgt_start[1:].tolist()):
        fwd_set = {(i, j) for j, i in enumerate(fwd[j0:j1]) if i >= 0}
        rev_set = {(i, j) for i, j in enumerate(rev[i0:i1]) if j >= 0}
        union = fwd_set | rev_set
        alignment = fwd_set & rev_set
        aligned_src = {i for i, _ in alignment}
        aligned_tgt = {j for _, j in alignment}
        # grow-diag: absorb union neighbours of current points while one
        # side is still unaligned
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
        for direction in (fwd_set, rev_set):
            for i, j in sorted(direction):
                if i not in aligned_src and j not in aligned_tgt:
                    alignment.add((i, j))
                    aligned_src.add(i)
                    aligned_tgt.add(j)
        counts.append(len(alignment))
        flat.extend(chain.from_iterable(alignment))
    flat = np.array(flat, dtype=np.int32)
    link_src = flat[0::2] + np.repeat(src_start[:-1], counts)
    link_tgt = flat[1::2] + np.repeat(tgt_start[:-1], counts)
    order = np.lexsort((link_tgt, link_src))
    return src_start, tgt_start, link_src[order], link_tgt[order]


def _bounds(own, linked, size, none):
    """Each of size tokens' least and greatest linked token, or none and -1
    when it has no link; own and linked are the links' tokens, ascending
    by own, then linked."""
    least = np.full(size, none, dtype=np.int32)
    greatest = np.full(size, -1, dtype=np.int32)
    if len(own):
        first = np.empty(len(own), dtype=bool)
        first[0] = True
        np.not_equal(own[1:], own[:-1], out=first[1:])
        last = np.append(first[1:], True)
        least[own[first]] = linked[first]
        greatest[own[last]] = linked[last]
    return least, greatest


def _offsets(counts):
    """0, 1, ..., count - 1 for each count in turn, as one int32 array."""
    counts = np.asarray(counts, dtype=np.int32)
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total, dtype=np.int32) - np.repeat(ends - counts, counts)


def extract_phrases(links, max_len: int = 7) -> np.ndarray:
    """Every phrase pair consistent with the links of each sentence, as
    symmetrize returns them, as an (N, 5) int32 array of inclusive
    (sentence, i1, i2, j1, j2) spans: unaligned-boundary extensions
    included, both sides at most max_len tokens; ordered by sentence, then
    source span, then target start descending, then target end ascending.

    The target bounds of every source span of every length come from a
    running min and max over the lengths, and a span is consistent when
    none of the at most max_len target tokens inside its bounds links
    outside it.  Each consistent span then takes the unaligned target
    tokens next to its bounds, within its sentence, by np.repeat.  A
    max_len below 1 raises ValueError."""
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    src_start, tgt_start, link_src, link_tgt = links
    n_src, n_tgt = int(src_start[-1]), int(tgt_start[-1])
    # each source token's least and greatest linked target token, and each
    # target token's least and greatest linked source token; a token with
    # no link never blocks a span
    first_tgt, last_tgt = _bounds(link_src, link_tgt, n_src, n_tgt)
    by_tgt = np.lexsort((link_src, link_tgt))
    first_src, last_src = _bounds(link_tgt[by_tgt], link_src[by_tgt], n_tgt, n_src)
    sentence = np.repeat(np.arange(len(src_start) - 1, dtype=np.int32), np.diff(src_start))
    # lo[c, i], hi[c, i]: the target bounds of the source span of c + 1
    # tokens from i on; spans past their sentence's end are masked below
    lo = np.empty((max_len, n_src), dtype=np.int32)
    hi = np.empty((max_len, n_src), dtype=np.int32)
    lo[0], hi[0] = first_tgt, last_tgt
    next_lo = np.append(first_tgt, np.full(max_len, n_tgt, dtype=np.int32))
    next_hi = np.append(last_tgt, np.full(max_len, -1, dtype=np.int32))
    for c in range(1, max_len):
        np.minimum(lo[c - 1], next_lo[c: c + n_src], out=lo[c])
        np.maximum(hi[c - 1], next_hi[c: c + n_src], out=hi[c])
    left = src_start[sentence + 1] - np.arange(n_src)  # tokens from i to its sentence's end
    keep = (hi >= 0) & (hi - lo < max_len) & (np.arange(max_len)[:, None] < left)
    span = np.flatnonzero(keep.T).astype(np.int32)  # i * max_len + c: source spans in order
    del keep
    i1, length = np.divmod(span, max_len)
    j1, j2 = lo[length, i1], hi[length, i1]
    del lo, hi, span
    i2 = i1 + length
    width = j2 - j1
    consistent = np.ones(len(i1), dtype=bool)
    for k in range(int(width.max(initial=-1)) + 1):
        j = np.minimum(j1 + k, n_tgt - 1)
        consistent &= (k > width) | ((first_src[j] >= i1) & (last_src[j] <= i2))
    i1, i2, j1, j2, width = i1[consistent], i2[consistent], j1[consistent], j2[consistent], \
        width[consistent]
    # the unaligned target tokens right before j1 and right after j2, within
    # the sentence: marks[j] is the last aligned token before j, and
    # marks[j + 1] below the first aligned token after j
    s = sentence[i1]
    aligned = last_src >= 0
    pos = np.arange(n_tgt, dtype=np.int32)
    marks = np.maximum.accumulate(np.append(np.int32(-1), np.where(aligned, pos, -1)))
    free_left = np.minimum(j1 - 1 - marks[j1], j1 - tgt_start[s])
    marks = np.where(aligned, pos, n_tgt)
    marks = np.minimum.accumulate(np.append(marks, np.int32(n_tgt))[::-1])[::-1]
    free_right = np.minimum(marks[j2 + 1] - j2 - 1, tgt_start[s + 1] - 1 - j2)
    room = max_len - 1 - width  # target tokens a span may still add
    base = np.stack((s, i1 - src_start[s], i2 - src_start[s],
                     j1 - tgt_start[s], j2 - tgt_start[s]), axis=1)
    # one row per target start, d tokens left of j1, then one per target
    # end, e tokens right of j2
    starts = np.minimum(free_left, room) + 1
    rows = np.repeat(base, starts, axis=0)
    d = _offsets(starts)
    rows[:, 3] -= d
    ends = np.minimum(np.repeat(free_right, starts), np.repeat(room, starts) - d) + 1
    del d
    out = np.repeat(rows, ends, axis=0)
    del rows
    out[:, 4] += _offsets(ends)
    return out


class PhraseTable:
    """Phrase pairs with their four scores (phi_fwd, lex_fwd, phi_rev,
    lex_rev), in rows by source phrase.

    Built from entries, a mapping of source tuple -> {target tuple: four
    scores}, whose order it keeps; a pair whose scores are not four raises
    ValueError naming it.  score_phrases fills the same storage from its
    arrays.  After that memory holds, per source phrase, its tuple, a dict
    slot and a Python int for its row number, and 8 bytes for the end of its
    row; per pair, two int32s for its target phrase and four float64s for
    its scores; and one reference per target token of the tuple the target
    phrases index into.

    entries is a read-only mapping of the same shape, in the same order,
    and lookup(phrase) the row of one source phrase, or {} when the table
    has none.  Either builds a row as it is read, a new dict each time.
    len() counts the pairs; max_len is the longest source phrase, 0 when
    the table is empty; dropped_pairs counts the empty sentence pairs
    build_phrase_table skipped."""

    def __init__(self, entries):
        pairs = [(src, tgt, scores) for src, row in entries.items() for tgt, scores in row.items()]
        for src, tgt, scores in pairs:
            if len(scores) != 4:
                raise ValueError(f"pair {src!r} ||| {tgt!r}: expected four scores, got {scores}")
        length = np.fromiter((len(tgt) for _, tgt, _ in pairs), dtype=np.int64, count=len(pairs))
        self._fill(entries, [len(row) for row in entries.values()],
                   tuple(chain.from_iterable(tgt for _, tgt, _ in pairs)),
                   np.cumsum(length) - length, length,
                   np.array([scores for _, _, scores in pairs], dtype=float).reshape(-1, 4))

    def _fill(self, sources, sizes, words, first, length, scores):
        """The storage, from the source phrases in row order, each row's pair
        count, the target tokens, each pair's target phrase as its first
        token and length in them, and the (pairs, 4) scores, rows in order."""
        self._rows = dict(zip(sources, range(len(sizes))))
        self._ends = np.append(0, np.cumsum(sizes, dtype=np.int64))
        self._words = words
        self._targets = np.stack((first, length), axis=1).astype(np.int32)
        self._scores = scores
        self.max_len = max(map(len, self._rows), default=0)
        self.dropped_pairs = 0

    def _row(self, r):
        """Row r as a new {target tuple: scores tuple} dict."""
        start, end = self._ends[r: r + 2].tolist()
        words = self._words
        return {words[first: first + length]: tuple(scores) for (first, length), scores
                in zip(self._targets[start:end].tolist(), self._scores[start:end].tolist())}

    def lookup(self, src_phrase):
        r = self._rows.get(tuple(src_phrase))
        return {} if r is None else self._row(r)

    @property
    def entries(self):
        return _Rows(self)

    def __len__(self):
        return len(self._scores)


class _Rows(Mapping):
    """A table's rows by source phrase, each built as it is read."""

    def __init__(self, table):
        self._table = table

    def __getitem__(self, src):
        return self._table._row(self._table._rows[src])

    def __contains__(self, src):
        return src in self._table._rows

    def __iter__(self):
        return iter(self._table._rows)

    def __len__(self):
        return len(self._table._rows)


_LEX_FLOOR = 1e-12


def _lexical_factors(words, other, own, linked, table: dict) -> np.ndarray:
    """Per token of words: the mean of t(word | linked word of other) over
    its links, or the NULL probability if it has none.  own and linked are
    the links' tokens in words and other, ascending by own, then linked;
    a token's linked probabilities are added rank by rank, so left to
    right in ascending position (not as the built-in sum adds, which
    compensates float rounding from Python 3.12 on)."""
    empty: dict = {}
    rows = map(table.get, map(other.__getitem__, linked.tolist()), repeat(empty))
    probs = np.fromiter(map(dict.get, rows, map(words.__getitem__, own.tolist()), repeat(0.0)),
                        dtype=float, count=len(own))
    degree = np.bincount(own, minlength=len(words))
    rank = _offsets(degree)
    total = np.zeros(len(words))
    for r in range(int(degree.max(initial=0))):
        at = rank == r
        total[own[at]] += probs[at]
    factors = total / np.maximum(degree, 1)
    null_row = table.get(NULL_TOKEN, empty)
    unlinked = np.flatnonzero(degree == 0)
    factors[unlinked] = np.fromiter(
        map(null_row.get, map(words.__getitem__, unlinked.tolist()), repeat(0.0)),
        dtype=float, count=len(unlinked))
    return factors


def _phrase_ids(words, max_len: int) -> np.ndarray:
    """ids[c, p]: an id of the c + 1 words from token p on, equal for equal
    words and different otherwise, as the rank of (the id of its first c
    words, its last word) among all spans of its length.  A span that runs
    past the last token ends in a word no token has."""
    n = len(words)
    vocab = {w: k for k, w in enumerate(dict.fromkeys(words))}
    word_ids = np.fromiter(map(vocab.__getitem__, words), dtype=np.int64, count=n)
    next_word = np.append(word_ids, np.full(max_len, len(vocab)))
    ids = np.empty((max_len, n), dtype=np.int32)
    ids[0] = word_ids
    used = len(vocab)
    for c in range(1, max_len):
        keys = ids[c - 1].astype(np.int64) * (len(vocab) + 1) + next_word[c: c + n]
        _, inverse = np.unique(keys, return_inverse=True)
        ids[c] = inverse + used
        used += int(inverse.max(initial=-1)) + 1
    return ids


def _products(factors, max_len: int) -> np.ndarray:
    """w[c, p]: the product of the factors of the c + 1 tokens from p on,
    multiplied left to right as math.prod does; a span that runs past the
    last token takes a factor of one there."""
    n = len(factors)
    next_factor = np.append(factors, np.ones(max_len))
    products = np.empty((max_len, n))
    products[0] = factors
    for c in range(1, max_len):
        np.multiply(products[c - 1], next_factor[c: c + n], out=products[c])
    return products


def _runs(keys):
    """(order, starts, first): an order that sorts keys, the index in it
    where each run of equal keys starts, and each run's first position in
    keys."""
    order = np.argsort(keys)
    sorted_keys = keys[order]
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new[1:])
    del sorted_keys
    starts = np.flatnonzero(new)
    return order, starts, np.minimum.reduceat(order, starts)


def _numbered(keys):
    """(numbers, first, counts): each key's number, 0 for the key that
    occurs first, 1 for the next new one and so on, and each number's first
    position in keys and count."""
    order, starts, first = _runs(keys)
    counts = np.diff(np.append(starts, len(keys)))
    by_first = np.argsort(first)
    rank = np.empty(len(starts), dtype=np.int32)
    rank[by_first] = np.arange(len(starts), dtype=np.int32)
    numbers = np.empty(len(keys), dtype=np.int32)
    numbers[order] = np.repeat(rank, counts)
    return numbers, first[by_first], counts[by_first]


def _tuples(words, at):
    """The phrases at table indices (length - 1) * len(words) + first
    token, in order, each a tuple of words."""
    size, start = np.divmod(at, len(words))
    return map(words.__getitem__, map(slice, start.tolist(), (start + size + 1).tolist()))


def score_phrases(pairs, links, spans, lex_fwd: dict, lex_rev: dict) -> PhraseTable:
    """Relative-frequency phrase scores in both directions plus lexical
    weights maximized over the occurrences of each pair.

    pairs is an iterable of (src tuple, tgt tuple), read once, links
    their alignment as symmetrize returns it, and spans an (N, 5) array of
    (sentence, i1, i2, j1, j2) occurrences, as extract_phrases returns them
    for the links.  An occurrence's lexical weight w(tgt | src, a) is the
    product over its target span of the per-token factors (see
    _lexical_factors); the reverse weight likewise over its source span.
    Rows, and each row's targets, come in order of first occurrence in
    spans.

    The table is filled straight from the arrays: a tuple per source
    phrase, and per pair its target phrase's first occurrence, as (first
    token, length) into the corpus's target tokens, and its four scores.
    The only reference to the spans is dropped once the occurrences are
    read off them."""
    if not len(spans):
        raise ValueError("no phrase pairs extracted")
    pairs = list(pairs)
    src_start, tgt_start, link_src, link_tgt = links
    src_words = tuple(chain.from_iterable(s for s, _ in pairs))
    tgt_words = tuple(chain.from_iterable(t for _, t in pairs))
    del pairs
    by_tgt = np.lexsort((link_src, link_tgt))
    fwd = _lexical_factors(tgt_words, src_words, link_tgt[by_tgt], link_src[by_tgt], lex_fwd)
    rev = _lexical_factors(src_words, tgt_words, link_src, link_tgt, lex_rev)
    del link_src, link_tgt, by_tgt
    sentence, i1, i2, j1, j2 = spans.T
    max_len = int(max((i2 - i1).max(), (j2 - j1).max())) + 1
    # each occurrence's source and target span, as an index into tables
    # over (length - 1, first token)
    src_at = (i2 - i1).astype(np.int64) * len(src_words) + src_start[sentence] + i1
    tgt_at = (j2 - j1).astype(np.int64) * len(tgt_words) + tgt_start[sentence] + j1
    # the caller may have passed its only reference
    del sentence, i1, i2, j1, j2, spans
    src, first, src_count = _numbered(_phrase_ids(src_words, max_len).take(src_at))
    src_first = src_at[first]
    tgt, first, tgt_count = _numbered(_phrase_ids(tgt_words, max_len).take(tgt_at))
    tgt_size, tgt_first = np.divmod(tgt_at[first], len(tgt_words))
    # the pairs: each one's count, first occurrence and greatest weights
    order, starts, first = _runs(src.astype(np.int64) * len(tgt_count) + tgt)
    pair_src, pair_tgt = src[first], tgt[first]
    del src, tgt
    count = np.diff(np.append(starts, len(order)))
    lex_r = np.maximum.reduceat(_products(rev, max_len).take(src_at[order]), starts)
    del src_at
    lex_f = np.maximum.reduceat(_products(fwd, max_len).take(tgt_at[order]), starts)
    del tgt_at, order, starts
    # rows in their sources' order, each row's targets in order of first
    # occurrence
    final = np.lexsort((first, pair_src))
    scores = np.empty((len(final), 4))
    scores[:, 0] = count[final] / src_count[pair_src[final]]
    scores[:, 1] = np.maximum(lex_f[final], _LEX_FLOOR)
    scores[:, 2] = count[final] / tgt_count[pair_tgt[final]]
    scores[:, 3] = np.maximum(lex_r[final], _LEX_FLOOR)
    tgt = pair_tgt[final]
    sizes = np.bincount(pair_src, minlength=len(src_count))
    del final, count, src_count, tgt_count, lex_f, lex_r, pair_src, pair_tgt
    table = PhraseTable.__new__(PhraseTable)
    table._fill(_tuples(src_words, src_first), sizes, tgt_words, tgt_first[tgt],
                tgt_size[tgt] + 1, scores)
    return table


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
    as other phrases, or whose scores do not lie in (0, 1] before rounding,
    raises ValueError naming it before the file is opened."""
    entries = table.entries
    for src, row in entries.items():
        for tgt, scores in row.items():
            try:
                if not all(0.0 < x <= 1.0 for x in scores):
                    raise ValueError(f"the four scores must lie in (0, 1], got {scores}")
                if _parse_pair(_format_pair(src, tgt, scores))[:2] != (src, tgt):
                    raise ValueError("its phrases would read back as other words")
            except ValueError as exc:
                raise ValueError(f"pair {src!r} ||| {tgt!r}: {exc}") from None
    with open(path, "w", encoding="utf-8") as fh:
        for src in sorted(entries):
            row = entries[src]
            for tgt in sorted(row):
                fh.write(_format_pair(src, tgt, row[tgt]) + "\n")


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
    """Full pipeline: bidirectional IBM1 with its Viterbi alignments,
    their grow-diag-final-and symmetrization, then extraction and scoring,
    each called once over the corpus.  Returns (PhraseTable, fwd t-table,
    rev t-table); the table's dropped_pairs counts the pairs skipped for an
    empty side.  A kept pair with the NULL word's token on either side
    raises ValueError naming the side and the pair's index, before IBM1
    runs.

    Past IBM1, whose cell arrays span the corpus, memory holds the two
    t-tables, IBM1's two link vectors (4 bytes per token), the symmetrized
    links (8 bytes per link plus the sentence starts) and then the
    occurrence arrays: the spans (20 bytes each) and, while scoring sorts
    them, a few 4- and 8-byte arrays over the occurrences and tables over
    (span length, token).  These are freed as the table is filled, and
    after the build memory holds the t-tables and the table: per source
    phrase a tuple, a dict slot, a row number and a row end; per pair 40
    bytes of arrays (see PhraseTable); and the corpus's target tokens, one
    reference each."""
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
    links = symmetrize([(len(s), len(t)) for s, t in kept], fwd_links, rev_links)
    # handed inline, the spans are score_phrases' alone to drop: from CPython
    # 3.11 a call takes over the references its arguments held on the stack
    table = score_phrases(kept, links, extract_phrases(links), lex_fwd, lex_rev)
    table.dropped_pairs = len(pairs) - len(kept)
    return table, lex_fwd, lex_rev
