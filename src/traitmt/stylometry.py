"""Text to feature vectors: POS tagging, ~1000-token chunking, function-word
and POS-trigram features normalized by chunk length.

The tagger is a deliberately simple baseline (per-token majority tag with a
suffix fallback).

A chunk is a fixed summary of its sentences, made when the chunk is: its
token count, its distinct words with their counts, and its POS-trigram
counts.  It keeps no sentence, so tagged text can be let go of once it is
chunked.

POS trigrams are counted as integer codes, never as tuples: over a sorted
tag list of length W, the trigram (a, b, c) is (a*W + b)*W + c, each tag
standing for its position in the list.  Since the list is sorted, the codes
sort as the trigrams do.  Each chunk counts its own trigrams once, when it
is made (Chunk.pos_trigram_counts); build_feature_space moves every chunk's
codes onto one tag list to sum them, and vectorize_chunk moves them onto
the feature space's.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from itertools import chain

import numpy as np

ORIGINAL = "original"
HUMAN_TRANSLATED = "human"


def machine_translated(system_id: str) -> str:
    return f"mt:{system_id}"


BOUNDARY_START = "<S>"
BOUNDARY_END = "</S>"

MAX_SUFFIX = 3  # longest suffix the tagger falls back on

_PAD_START = (BOUNDARY_START, BOUNDARY_START)
_PAD_END = (BOUNDARY_END, BOUNDARY_END)


@dataclass(frozen=True, slots=True, init=False)
class TaggedSentence:
    tokens: tuple[str, ...]
    tags: tuple[str, ...]

    def __init__(self, tokens, tags):
        if len(tokens) != len(tags):
            raise ValueError(f"token/tag length mismatch: {len(tokens)} vs {len(tags)}")
        # the slots' own setters: a frozen dataclass's generated __init__
        # goes through object.__setattr__, which costs more per record
        _set_tokens(self, tokens)
        _set_tags(self, tags)

    def __len__(self):
        return len(self.tokens)


_set_tokens = TaggedSentence.tokens.__set__
_set_tags = TaggedSentence.tags.__set__


class TaggerModel:
    """Most-frequent-tag baseline with a data-driven suffix fallback.

    Each token gets the tag it carried most often in training; unseen tokens
    fall back to the majority tag of the longest matching training suffix
    (length MAX_SUFFIX, then shorter), then to the global majority tag.  All
    tie-breaks are lexicographic on the tag, so tagging is deterministic.

    train reads its input once, counts each distinct (token, tag) pair, and
    then adds each pair's count to the tables once, so it costs what the
    distinct pairs cost.  It is all-or-nothing: if the input raises part-way,
    the tables and the memo stay as they were.

    tag_token is the rule; tag memoizes its answer per token, and train
    clears the memo, so more training changes later answers.
    """

    def __init__(self):
        self.token_tags: dict[str, Counter] = {}
        self.suffix_tags: dict[str, Counter] = {}
        self.global_tags: Counter = Counter()
        self._memo: dict[str, str] = {}

    @property
    def trained(self) -> bool:
        return bool(self.global_tags)

    def train(self, sentences) -> "TaggerModel":
        pairs = Counter()
        for sent in sentences:
            pairs.update(zip(sent.tokens, sent.tags))
        # only a fully read input reaches the tables
        self._memo.clear()
        for (token, tag), count in pairs.items():
            self.token_tags.setdefault(token, Counter())[tag] += count
            self.global_tags[tag] += count
            for n in range(1, min(MAX_SUFFIX, len(token) - 1) + 1):
                self.suffix_tags.setdefault(token[-n:], Counter())[tag] += count
        return self

    @staticmethod
    def _argmax(counter: Counter) -> str:
        return min(counter.items(), key=lambda kv: (-kv[1], kv[0]))[0]

    def tag_token(self, token: str) -> str:
        if token in self.token_tags:
            return self._argmax(self.token_tags[token])
        for n in range(MAX_SUFFIX, 0, -1):
            suffix = token[-n:]
            if len(token) > n and suffix in self.suffix_tags:
                return self._argmax(self.suffix_tags[suffix])
        return self._argmax(self.global_tags)

    def tag(self, tokens) -> TaggedSentence:
        toks = tuple(tokens)
        memo = self._memo
        # only a trained model fills the memo, so only an empty one is checked
        if not memo and not self.trained:
            raise RuntimeError("tagger model is untrained")
        try:
            tags = tuple(map(memo.__getitem__, toks))
        except KeyError:
            for token in toks:
                if token not in memo:
                    memo[token] = self.tag_token(token)
            tags = tuple(map(memo.__getitem__, toks))
        return TaggedSentence(toks, tags)


def _count_pos_trigrams(tag_seqs) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Chunk.pos_trigram_counts of a chunk with the given tag sequences."""
    tags = tuple(sorted({BOUNDARY_START, BOUNDARY_END}.union(*tag_seqs)))
    index = {t: i for i, t in enumerate(tags)}
    padded = []
    for seq in tag_seqs:
        padded += _PAD_START
        padded += seq
        padded += _PAD_END
    ids = np.fromiter(map(index.__getitem__, padded), dtype=np.int64, count=len(padded))
    ends = np.cumsum(np.fromiter(map(len, tag_seqs), dtype=np.int64, count=len(tag_seqs)) + 4)
    width = len(tags)
    codes = (ids[:-2] * width + ids[1:-1]) * width + ids[2:]
    # the last two windows of each padded sentence but the last reach into the next
    keep = np.ones(len(codes), dtype=bool)
    keep[ends[:-1] - 2] = False
    keep[ends[:-1] - 1] = False
    codes, counts = np.unique(codes[keep], return_counts=True)
    return tags, codes, counts


@dataclass(init=False, eq=False)
class Chunk:
    """The counts of consecutive tagged sentences of one label and text
    variant, all that build_feature_space and vectorize_chunk read.

    Made in one pass over `sentences`, which may be a one-shot iterator;
    the chunk keeps no sentence, token tuple or tag tuple.  It holds:
    - token_count, the number of tokens;
    - words, each distinct token in the order of its first occurrence,
      and word_counts, how often each occurs (int64);
    - pos_trigram_counts, (tags, codes, counts): the chunk's sorted tag
      set with both boundaries, its distinct POS-trigram codes over it in
      ascending order (int64), and how often each occurs.  For its POS
      trigrams each sentence is padded with two BOUNDARY_START and two
      BOUNDARY_END tags; no trigram runs into the next sentence.
    """

    token_count: int
    words: tuple[str, ...]
    word_counts: np.ndarray
    pos_trigram_counts: tuple[tuple[str, ...], np.ndarray, np.ndarray]
    label: str
    status: str
    language: str

    def __init__(self, sentences, label, status, language):
        token_seqs, tag_seqs = [], []
        for sent in sentences:
            token_seqs.append(sent.tokens)
            tag_seqs.append(sent.tags)
        words = Counter(chain.from_iterable(token_seqs))
        self.token_count = sum(map(len, token_seqs))
        self.words = tuple(words)
        self.word_counts = np.fromiter(words.values(), dtype=np.int64, count=len(words))
        self.pos_trigram_counts = _count_pos_trigrams(tag_seqs)
        self.label = label
        self.status = status
        self.language = language


MIN_FRACTION = 0.5  # smallest trailing chunk kept, as a fraction of the target


def chunk_corpus(sentences, target: int = 1000,
                 label: str = "U", status: str = ORIGINAL, language: str = "en"):
    """Greedy chunking respecting sentence boundaries.

    A chunk closes at the first sentence boundary at or past `target`
    cumulative tokens; a trailing chunk under target*MIN_FRACTION tokens,
    so also one holding no token, is discarded.  No sentence is split or
    repeated.  A target under 1 raises ValueError: it would make a chunk
    of every sentence, empty ones too.
    """
    if target < 1:
        raise ValueError(f"target must be >= 1, got {target}")
    chunks: list[Chunk] = []
    current: list[TaggedSentence] = []
    count = 0
    for sent in sentences:
        current.append(sent)
        count += len(sent.tokens)
        if count >= target:
            chunks.append(Chunk(current, label, status, language))
            current, count = [], 0
    if count >= target * MIN_FRACTION:
        chunks.append(Chunk(current, label, status, language))
    return chunks


@dataclass(frozen=True)
class FeatureSpace:
    """Feature columns: one per function word (lowercased), then one per
    POS trigram.  Column i < fw_dimension counts function_words[i], column
    fw_dimension + j counts pos_trigrams[j]."""

    function_words: tuple[str, ...]
    pos_trigrams: tuple[tuple[str, str, str], ...]

    @property
    def dimension(self) -> int:
        return len(self.function_words) + len(self.pos_trigrams)

    @property
    def fw_dimension(self) -> int:
        return len(self.function_words)

    def feature_name(self, index: int) -> str:
        if not 0 <= index < self.dimension:
            raise IndexError(f"feature index {index} outside [0, {self.dimension})")
        if index < len(self.function_words):
            return f"fw:{self.function_words[index]}"
        tri = self.pos_trigrams[index - len(self.function_words)]
        return "pos:" + "+".join(tri)

    def names(self):
        return [self.feature_name(i) for i in range(self.dimension)]

    @cached_property
    def _token_columns(self) -> dict[str, int]:
        """Each function word, and each token vectorize_chunk has met, as
        its function-word column or, for any other token, fw_dimension.
        Filled as chunks bring new tokens, so each distinct token is
        lowercased once per space."""
        return {w: i for i, w in enumerate(self.function_words)}

    @cached_property
    def _trigram_codes(self) -> tuple[dict[str, int], np.ndarray, np.ndarray]:
        """(index, codes, columns): each tag of pos_trigrams by its position
        among them sorted, the trigrams' codes of width len(index) + 1 in
        ascending order, and each code's column.  The spare digit
        len(index) stands for every other tag, so no code here has it."""
        index = {t: i for i, t in enumerate(sorted(set(chain.from_iterable(self.pos_trigrams))))}
        width = len(index) + 1
        codes = np.array([(index[a] * width + index[b]) * width + index[c]
                          for a, b, c in self.pos_trigrams], dtype=np.int64)
        order = np.argsort(codes)
        return index, codes[order], order + len(self.function_words)


def _digits(codes, width):
    """The (a, b, c) tag positions of trigram codes of the given width."""
    return codes // (width * width), codes // width % width, codes % width


def _recode(codes, width, remap, new_width):
    """Trigram codes over one tag list as codes over another, where old tag
    i is new tag remap[i]."""
    a, b, c = (remap[d] for d in _digits(codes, width))
    return (a * new_width + b) * new_width + c


def build_feature_space(chunks, fw_list, k: int = 1000) -> FeatureSpace:
    """Function words (verbatim, lowercased, deduplicated) plus the top-k
    corpus-frequency POS trigrams with lexicographic tie-break."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not chunks:
        raise ValueError("need at least one chunk")
    if not fw_list:
        raise ValueError("function-word list must be non-empty")
    counted = [chunk.pos_trigram_counts for chunk in chunks]
    tags = sorted(set().union(*(chunk_tags for chunk_tags, _, _ in counted)))
    index = {t: i for i, t in enumerate(tags)}
    width = len(tags)
    codes, inverse = np.unique(np.concatenate([
        _recode(chunk_codes, len(chunk_tags),
                np.array([index[t] for t in chunk_tags], dtype=np.int64), width)
        for chunk_tags, chunk_codes, _ in counted]), return_inverse=True)
    totals = np.bincount(inverse, weights=np.concatenate([counts for _, _, counts in counted]))
    # the codes ascend as their trigrams do, so a stable sort on -count
    # breaks ties in lexicographic order
    top = codes[np.argsort(-totals, kind="stable")[:k]]
    trigrams = tuple(zip(*(map(tags.__getitem__, d.tolist()) for d in _digits(top, width))))
    return FeatureSpace(tuple(dict.fromkeys(w.lower() for w in fw_list)), trigrams)


@dataclass
class FeatureVector:
    values: np.ndarray  # float64 row over the space's columns: count / token_count
    label: str


def vectorize_chunk(chunk: Chunk, space: FeatureSpace) -> FeatureVector:
    """Raw feature counts divided by the chunk's token count, as one row.

    Reads only the chunk's counts: function words are matched
    case-insensitively over its distinct words, each weighted by its count,
    and the trigram counts are its pos_trigram_counts, the same counts
    build_feature_space sums.
    """
    n = chunk.token_count
    if n == 0:
        raise ValueError("cannot vectorize an empty chunk")
    words = chunk.words
    fw = space.fw_dimension
    memo = space._token_columns
    try:
        ids = np.fromiter(map(memo.__getitem__, words), dtype=np.intp, count=len(words))
    except KeyError:
        for token in words:
            if token not in memo:
                memo[token] = memo.get(token.lower(), fw)
        ids = np.fromiter(map(memo.__getitem__, words), dtype=np.intp, count=len(words))
    row = np.zeros(space.dimension)
    # column fw gathers every other word and is cut off; integer counts sum
    # exactly in float64
    row[:fw] = np.bincount(ids, weights=chunk.word_counts, minlength=fw + 1)[:fw]
    chunk_tags, codes, counts = chunk.pos_trigram_counts
    index, space_codes, columns = space._trigram_codes
    spare = len(index)
    remap = np.array([index.get(t, spare) for t in chunk_tags], dtype=np.int64)
    codes = _recode(codes, len(chunk_tags), remap, spare + 1)
    pos = np.searchsorted(space_codes, codes)
    hit = pos < len(space_codes)
    hit[hit] = space_codes[pos[hit]] == codes[hit]
    row[columns[pos[hit]]] = counts[hit]
    row /= n
    return FeatureVector(row, chunk.label)


def _parse_function_words(text: str) -> list[str]:
    """One word per line, '#' comments."""
    words = []
    for line in text.splitlines():
        word = line.split("#", 1)[0].strip()
        if word:
            words.append(word)
    return words


def default_function_words(lang: str):
    """Vendored per-language lists (en, fr)."""
    name = f"fw_{lang}.txt"
    ref = resources.files("traitmt.data").joinpath(name)
    if not ref.is_file():
        raise ValueError(f"no vendored function-word list for language {lang!r}")
    return _parse_function_words(ref.read_text(encoding="utf-8"))
