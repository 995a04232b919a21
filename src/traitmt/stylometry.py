"""Text to feature vectors: POS tagging, ~1000-token chunking, function-word
and POS-trigram features normalized by chunk length.

The tagger is a deliberately simple baseline (per-token majority tag with a
suffix fallback).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from itertools import chain

ORIGINAL = "original"
HUMAN_TRANSLATED = "human"


def machine_translated(system_id: str) -> str:
    return f"mt:{system_id}"


BOUNDARY_START = "<S>"
BOUNDARY_END = "</S>"

MAX_SUFFIX = 3  # longest suffix the tagger falls back on


@dataclass(frozen=True, slots=True)
class TaggedSentence:
    tokens: tuple[str, ...]
    tags: tuple[str, ...]

    def __post_init__(self):
        if len(self.tokens) != len(self.tags):
            raise ValueError(
                f"token/tag length mismatch: {len(self.tokens)} vs {len(self.tags)}"
            )

    def __len__(self):
        return len(self.tokens)


class TaggerModel:
    """Most-frequent-tag baseline with a data-driven suffix fallback.

    Each token gets the tag it carried most often in training; unseen tokens
    fall back to the majority tag of the longest matching training suffix
    (length MAX_SUFFIX, then shorter), then to the global majority tag.  All
    tie-breaks are lexicographic on the tag, so tagging is deterministic.

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
        self._memo.clear()
        for sent in sentences:
            for token, tag in zip(sent.tokens, sent.tags):
                self.token_tags.setdefault(token, Counter())[tag] += 1
                self.global_tags[tag] += 1
                for n in range(1, MAX_SUFFIX + 1):
                    if len(token) > n:
                        self.suffix_tags.setdefault(token[-n:], Counter())[tag] += 1
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
        if not self.trained:
            raise RuntimeError("tagger model is untrained")
        toks = tuple(tokens)
        memo = self._memo
        try:
            tags = tuple(map(memo.__getitem__, toks))
        except KeyError:
            for token in toks:
                if token not in memo:
                    memo[token] = self.tag_token(token)
            tags = tuple(map(memo.__getitem__, toks))
        return TaggedSentence(toks, tags)


@dataclass
class Chunk:
    sentences: list[TaggedSentence]
    label: str
    status: str
    language: str

    @property
    def token_count(self) -> int:
        return sum(len(s) for s in self.sentences)

    @cached_property
    def pos_trigrams(self) -> Counter:
        """Counts of the padded POS trigrams of every sentence, made once
        per chunk for the feature space and the chunk's vector; the
        sentences must not change after the first read."""
        return Counter(chain.from_iterable(_padded_trigrams(s.tags) for s in self.sentences))


def chunk_corpus(sentences, target: int = 1000, min_fraction: float = 0.5,
                 label: str = "U", status: str = ORIGINAL, language: str = "en"):
    """Greedy chunking respecting sentence boundaries.

    A chunk closes at the first sentence boundary at or past `target`
    cumulative tokens; a trailing chunk under target*min_fraction is
    discarded.  No sentence is split or repeated.
    """
    chunks: list[Chunk] = []
    current: list[TaggedSentence] = []
    count = 0
    for sent in sentences:
        current.append(sent)
        count += len(sent)
        if count >= target:
            chunks.append(Chunk(current, label, status, language))
            current, count = [], 0
    if current and count >= target * min_fraction:
        chunks.append(Chunk(current, label, status, language))
    return chunks


@dataclass(frozen=True)
class FeatureSpace:
    function_words: tuple[str, ...]
    pos_trigrams: tuple[tuple[str, str, str], ...]

    @property
    def dimension(self) -> int:
        return len(self.function_words) + len(self.pos_trigrams)

    @property
    def fw_dimension(self) -> int:
        return len(self.function_words)

    def feature_name(self, index: int) -> str:
        if index < len(self.function_words):
            return f"fw:{self.function_words[index]}"
        tri = self.pos_trigrams[index - len(self.function_words)]
        return "pos:" + "+".join(tri)

    def names(self):
        return [self.feature_name(i) for i in range(self.dimension)]

    @cached_property
    def fw_index(self) -> dict[str, int]:
        return {w: i for i, w in enumerate(self.function_words)}

    @cached_property
    def trigram_index(self) -> dict[tuple[str, str, str], int]:
        offset = len(self.function_words)
        return {t: offset + i for i, t in enumerate(self.pos_trigrams)}


def _padded_trigrams(tags):
    padded = (BOUNDARY_START, BOUNDARY_START) + tuple(tags) + (BOUNDARY_END, BOUNDARY_END)
    return zip(padded, padded[1:], padded[2:])


def build_feature_space(chunks, fw_list, k: int = 1000) -> FeatureSpace:
    """Function words (verbatim, lowercased, deduplicated) plus the top-k
    corpus-frequency POS trigrams with lexicographic tie-break."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not chunks:
        raise ValueError("need at least one chunk")
    if not fw_list:
        raise ValueError("function-word list must be non-empty")
    fw_seen = []
    seen = set()
    for w in fw_list:
        lw = w.lower()
        if lw not in seen:
            seen.add(lw)
            fw_seen.append(lw)
    counts = Counter()
    for chunk in chunks:
        counts.update(chunk.pos_trigrams)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    trigrams = tuple(t for t, _ in ranked[:k])
    return FeatureSpace(tuple(fw_seen), trigrams)


@dataclass
class FeatureVector:
    values: dict  # feature index -> count / token_count
    label: str
    status: str


def vectorize_chunk(chunk: Chunk, space: FeatureSpace) -> FeatureVector:
    """Raw feature counts divided by the chunk's token count.

    Function-word matching is case-insensitive; the trigram counts are the
    chunk's pos_trigrams, the same counts build_feature_space sums.
    """
    n = chunk.token_count
    if n == 0:
        raise ValueError("cannot vectorize an empty chunk")
    words = Counter(map(str.lower, chain.from_iterable(s.tokens for s in chunk.sentences)))
    fw_index, tri_index = space.fw_index, space.trigram_index
    values = {fw_index[w]: c / n for w, c in words.items() if w in fw_index}
    values.update((tri_index[t], c / n) for t, c in chunk.pos_trigrams.items() if t in tri_index)
    return FeatureVector(values, chunk.label, chunk.status)


def _parse_function_words(text: str) -> list[str]:
    """One word per line, '#' comments."""
    words = []
    for line in text.splitlines():
        word = line.split("#", 1)[0].strip()
        if word:
            words.append(word)
    return words


def load_function_words(path):
    """One word per line, UTF-8, '#' comments."""
    with open(path, encoding="utf-8") as fh:
        return _parse_function_words(fh.read())


def default_function_words(lang: str):
    """Vendored per-language lists (en, fr, de)."""
    name = f"fw_{lang}.txt"
    ref = resources.files("traitmt.data").joinpath(name)
    if not ref.is_file():
        raise ValueError(f"no vendored function-word list for language {lang!r}")
    return _parse_function_words(ref.read_text(encoding="utf-8"))


def write_vectors(vectors, space: FeatureSpace, path) -> None:
    """Sparse text export: `#index<TAB>name` header, then one vector per
    line as `label<TAB>status<TAB>idx:value ...` (indices ascending)."""
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(space.dimension):
            fh.write(f"#{i}\t{space.feature_name(i)}\n")
        for vec in vectors:
            cells = " ".join(f"{i}:{vec.values[i]:.12g}" for i in sorted(vec.values))
            fh.write(f"{vec.label}\t{vec.status}\t{cells}\n")


def read_vectors(path):
    """Inverse of write_vectors; returns (vectors, names).  A malformed
    line, a feature index outside the header's names, or one repeated
    within a line, raises ValueError naming `path:line`."""
    names: list[str] = []
    vectors: list[FeatureVector] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                if line.startswith("#"):
                    fields = line[1:].split("\t")
                    if len(fields) != 2 or fields[0] != str(len(names)):
                        raise ValueError(
                            f"expected feature header #{len(names)}<TAB>name, got {line!r}")
                    names.append(fields[1])
                else:
                    vectors.append(_parse_vector_line(line, len(names)))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return vectors, names


def _parse_vector_line(line, dimension):
    label, status, cells = line.split("\t")
    values = {}
    for cell in cells.split(" ") if cells else ():
        i_s, _, v_s = cell.partition(":")
        i = int(i_s)
        if not 0 <= i < dimension:
            raise ValueError(f"feature index {i} outside the {dimension} header names")
        if i in values:
            raise ValueError(f"repeated feature index {i}")
        values[i] = float(v_s)
    return FeatureVector(values, label, status)
