"""Speaker-annotated parallel corpora: data model, TSV I/O and preprocessing.

A corpus is an ordered list of sentence pairs, each carrying speaker id,
gender, age, original language and session date.  Preprocessing covers
rule-based tokenization and the usual cleaning pass (empty / over-long /
badly misaligned pairs).
"""

from __future__ import annotations

import datetime
import re
import sys
from dataclasses import dataclass

GENDERS = ("M", "F", "U")

TSV_COLUMNS = (
    "src_lang",
    "tgt_lang",
    "speaker_id",
    "gender",
    "age",
    "session_date",
    "source_text",
    "target_text",
)


class CorpusFormatError(Exception):
    """Raised when a corpus file cannot be parsed at all (missing file body,
    bad header); row-level problems are reported as RowError values instead."""


@dataclass(frozen=True, slots=True)
class AnnotatedSentencePair:
    source_text: str
    target_text: str
    speaker_id: str
    original_language: str
    session_date: datetime.date
    gender: str = "U"
    age: int | None = None

    def __post_init__(self):
        if self.gender not in GENDERS:
            raise ValueError(f"gender must be one of {GENDERS}, got {self.gender!r}")


@dataclass
class Corpus:
    pairs: list[AnnotatedSentencePair]
    source_lang: str
    target_lang: str

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)


@dataclass(frozen=True, slots=True)
class TokenizedSentence:
    tokens: tuple[str, ...]


@dataclass(frozen=True)
class RowError:
    line_number: int
    message: str


@dataclass
class CleanReport:
    """Per-reason removal counts from clean_corpus."""

    total: int = 0
    kept: int = 0
    removed_empty: int = 0
    removed_long: int = 0
    removed_ratio: int = 0


def load_corpus(path) -> tuple[Corpus, list[RowError]]:
    """Parse an annotated-corpus TSV file.

    Malformed rows are collected as RowError values (with the 1-based line
    number) rather than silently dropped.  Returns (corpus, errors).
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise CorpusFormatError(f"{path}: empty file, expected a header row")
    header = tuple(lines[0].split("\t"))
    if header != TSV_COLUMNS:
        raise CorpusFormatError(
            f"{path}: header mismatch, expected {list(TSV_COLUMNS)}, got {list(header)}"
        )
    pairs: list[AnnotatedSentencePair] = []
    errors: list[RowError] = []
    src_lang = tgt_lang = None
    for lineno, line in enumerate(lines[1:], start=2):
        cols = line.split("\t")
        if len(cols) != len(TSV_COLUMNS):
            errors.append(RowError(lineno, f"expected {len(TSV_COLUMNS)} columns, got {len(cols)}"))
            continue
        sl, tl, speaker, gender, age_s, date_s, src, tgt = cols
        if gender not in GENDERS:
            errors.append(RowError(lineno, f"invalid gender {gender!r}"))
            continue
        try:
            date = datetime.date.fromisoformat(date_s)
        except ValueError:
            errors.append(RowError(lineno, f"invalid session_date {date_s!r}"))
            continue
        age = None
        if age_s != "":
            try:
                age = int(age_s)
            except ValueError:
                errors.append(RowError(lineno, f"invalid age {age_s!r}"))
                continue
        if src_lang is None:
            src_lang, tgt_lang = sl, tl
        elif (sl, tl) != (src_lang, tgt_lang):
            errors.append(
                RowError(lineno, f"language pair {sl}-{tl} differs from {src_lang}-{tgt_lang}")
            )
            continue
        pairs.append(
            AnnotatedSentencePair(
                source_text=src,
                target_text=tgt,
                speaker_id=speaker,
                original_language=sl,
                session_date=date,
                gender=gender,
                age=age,
            )
        )
    if src_lang is None:
        src_lang, tgt_lang = "und", "und"
    return Corpus(pairs, src_lang, tgt_lang), errors


def save_corpus(corpus: Corpus, path) -> None:
    """Write a corpus back to the TSV layout read by load_corpus.

    Raises CorpusFormatError, naming the field, when a value holds a tab,
    newline or carriage return, since load_corpus could not split that row
    back: it reads with universal newlines, so a carriage return ends a
    line too.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(TSV_COLUMNS) + "\n")
        for p in corpus.pairs:
            row = [
                corpus.source_lang,
                corpus.target_lang,
                p.speaker_id,
                p.gender,
                "" if p.age is None else str(p.age),
                p.session_date.isoformat(),
                p.source_text,
                p.target_text,
            ]
            line = "\t".join(row)
            # one scan of the joined row checks every field it holds
            if "\n" in line or "\r" in line or line.count("\t") != len(row) - 1:
                name = next(n for n, v in zip(TSV_COLUMNS, row) if any(c in v for c in "\t\n\r"))
                raise CorpusFormatError(f"{name} must not contain tab, newline or carriage return")
            fh.write(line + "\n")


MAX_LEN = 80      # longest side a kept pair may have, in whitespace tokens
MAX_RATIO = 9.0   # largest ratio of the longer side to the shorter one


def clean_corpus(corpus: Corpus) -> tuple[Corpus, CleanReport]:
    """Drop empty, over-long and badly misaligned pairs.

    Length is counted in whitespace tokens.  A pair is over-long when a
    side exceeds MAX_LEN, and misaligned when the longer side exceeds
    MAX_RATIO times the shorter one.  Idempotent.
    """
    report = CleanReport(total=len(corpus.pairs))
    kept = []
    for p in corpus.pairs:
        ns, nt = len(p.source_text.split()), len(p.target_text.split())
        if ns == 0 or nt == 0:
            report.removed_empty += 1
        elif ns > MAX_LEN or nt > MAX_LEN:
            report.removed_long += 1
        elif max(ns, nt) > MAX_RATIO * min(ns, nt):
            report.removed_ratio += 1
        else:
            kept.append(p)
    report.kept = len(kept)
    return Corpus(kept, corpus.source_lang, corpus.target_lang), report


# Characters split off word boundaries by the tokenizer.  The apostrophe is
# deliberately absent: it is handled by the elision rule only.
_SPLIT_PUNCT = set(".,;:!?()[]{}\"%")

# French elision prefixes, longest first ("l'homme" -> "l'", "homme").
_FR_ELISION = ("jusqu", "lorsqu", "puisqu", "quoiqu", "qu", "c", "d", "j", "l", "m", "n", "s", "t")
_FR_ELISION_RE = re.compile(
    r"^(" + "|".join(_FR_ELISION) + r")'(.+)$", re.IGNORECASE
)


_PUNCT = re.escape("".join(sorted(_SPLIT_PUNCT)))
# A token is a run of two or more dots, one other split character, or a
# whitespace chunk's core: from its first to its last character not split off.
_TOKEN_RE = re.compile(rf"\.{{2,}}|[{_PUNCT}]|[^\s{_PUNCT}](?:\S*[^\s{_PUNCT}])?")


def tokenize(s: str, lang: str = "en") -> TokenizedSentence:
    """Rule-based tokenizer, one regex pass over the sentence.

    Each whitespace chunk yields its leading punctuation, its core and its
    trailing punctuation; a run of two or more dots is one token, any other
    _SPLIT_PUNCT character is a token of its own.  For French, a core such
    as "l'homme" is split after its elided prefix.  Every token is
    interned, so a corpus holds one string per distinct token.
    """
    tokens = _TOKEN_RE.findall(s)
    if lang == "fr" and "'" in s:
        elided = []
        for tok in tokens:  # "'" is never split off, so only a core holds one
            m = _FR_ELISION_RE.match(tok) if "'" in tok else None
            if m:
                elided += (m.group(1) + "'", m.group(2))
            else:
                elided.append(tok)
        tokens = elided
    return TokenizedSentence(tuple(map(sys.intern, tokens)))
