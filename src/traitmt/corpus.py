"""Speaker-annotated parallel corpora: data model, TSV I/O and preprocessing.

A corpus is an ordered list of sentence pairs in one language pair, each
carrying speaker id, gender, original language and session date.
Preprocessing covers rule-based tokenization and the usual cleaning pass
(empty / over-long / badly misaligned pairs).
"""

from __future__ import annotations

import datetime
import re
import sys
from dataclasses import dataclass, fields

GENDERS = ("M", "F", "U")

# The header is these names followed by the source and target language
# codes; a row holds these fields followed by its source and target text.
TSV_COLUMNS = ("speaker_id", "gender", "session_date")


@dataclass(frozen=True, slots=True, init=False)
class AnnotatedSentencePair:
    source_text: str
    target_text: str
    speaker_id: str
    original_language: str
    session_date: datetime.date
    gender: str = "U"

    def __init__(
        self, source_text, target_text, speaker_id, original_language, session_date, gender="U",
    ):
        if gender not in GENDERS:
            raise ValueError(f"gender must be one of {GENDERS}, got {gender!r}")
        # the slots' own setters: a frozen dataclass's generated __init__
        # goes through object.__setattr__, which costs more per record
        _set_source_text(self, source_text)
        _set_target_text(self, target_text)
        _set_speaker_id(self, speaker_id)
        _set_original_language(self, original_language)
        _set_session_date(self, session_date)
        _set_gender(self, gender)


# looked up by name, in field order: setting a field does not read it, and
# tests/test_reachability.py counts every attribute load as a read
(
    _set_source_text, _set_target_text, _set_speaker_id, _set_original_language,
    _set_session_date, _set_gender,
) = (getattr(AnnotatedSentencePair, f.name).__set__ for f in fields(AnnotatedSentencePair))


@dataclass
class Corpus:
    pairs: list[AnnotatedSentencePair]
    source_lang: str
    target_lang: str


@dataclass(frozen=True, slots=True, init=False)
class TokenizedSentence:
    tokens: tuple[str, ...]

    def __init__(self, tokens):
        # the slot's own setter: a frozen dataclass's generated __init__
        # goes through object.__setattr__, which costs more per record
        _set_tokens(self, tokens)


_set_tokens = TokenizedSentence.tokens.__set__


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


_DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def parse_iso_date(s: str) -> datetime.date:
    """The date written as YYYY-MM-DD in ASCII digits, the form
    date.isoformat gives and every file of this package stores; any other
    string raises ValueError.  date.fromisoformat alone would also take
    "20240115" or "2024-W03-1" on Python 3.11+ but not on 3.10."""
    if not _DATE_RE.fullmatch(s):
        raise ValueError(f"not a YYYY-MM-DD date: {s!r}")
    return datetime.date(int(s[:4]), int(s[5:7]), int(s[8:]))


def load_corpus(path) -> tuple[Corpus, list[RowError]]:
    """Parse an annotated-corpus TSV file.

    The header is TSV_COLUMNS followed by the source and target language
    codes, which give the corpus its language pair; a header-only file is an
    empty corpus in that pair.  Malformed rows are collected as RowError
    values (with the 1-based line number), and a missing or bad header
    raises ValueError naming `path:1`.  Returns (corpus, errors).  A
    session_date must be YYYY-MM-DD in ASCII digits, as save_corpus writes
    it (parse_iso_date).

    Each repeated value is stored once: the rows of one speaker share one
    interned speaker_id string, every pair shares the header's source
    language string as its original_language, and each distinct
    session_date string is parsed into one date object.
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ValueError(f"{path}:1: empty file, expected a header row")
    header = lines[0].split("\t")
    n_cols = len(TSV_COLUMNS) + 2
    if len(header) != n_cols or tuple(header[:-2]) != TSV_COLUMNS:
        raise ValueError(f"{path}:1: header mismatch, expected {list(TSV_COLUMNS)} followed by "
                         f"the source and target language codes, got {header}")
    src_lang, tgt_lang = header[-2:]
    pairs: list[AnnotatedSentencePair] = []
    errors: list[RowError] = []
    dates: dict[str, datetime.date] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        cols = line.split("\t")
        if len(cols) != n_cols:
            errors.append(RowError(lineno, f"expected {n_cols} columns, got {len(cols)}"))
            continue
        speaker, gender, date_s, src, tgt = cols
        if gender not in GENDERS:
            errors.append(RowError(lineno, f"invalid gender {gender!r}"))
            continue
        date = dates.get(date_s)
        if date is None:
            try:
                date = dates[date_s] = parse_iso_date(date_s)
            except ValueError:
                errors.append(RowError(lineno, f"invalid session_date {date_s!r}"))
                continue
        pairs.append(AnnotatedSentencePair(src, tgt, sys.intern(speaker), src_lang, date, gender))
    return Corpus(pairs, src_lang, tgt_lang), errors


def save_corpus(corpus: Corpus, path) -> None:
    """Write a corpus back to the TSV layout read by load_corpus.

    The language pair goes into the header, so an empty corpus round-trips.
    Raises ValueError when the file could not hold the corpus as it is:
    when a language code or a pair's value holds a tab, newline or carriage
    return, since load_corpus could not split it back (it reads with
    universal newlines, so a carriage return ends a line too), when a
    pair's original_language is not the corpus's source_lang, which is all
    the file stores of it, or when a pair's session_date is not a plain
    datetime.date (a datetime would be written with its time, which
    load_corpus refuses).  The error names the Corpus field, or the pair's
    index and field.  Every value is checked before the file is opened.
    """
    for name in ("source_lang", "target_lang"):
        if any(c in getattr(corpus, name) for c in "\t\n\r"):
            raise ValueError(f"{name} must not contain tab, newline or carriage return")
    lines = ["\t".join((*TSV_COLUMNS, corpus.source_lang, corpus.target_lang)) + "\n"]
    for i, p in enumerate(corpus.pairs):
        if p.original_language != corpus.source_lang:
            raise ValueError(f"pair {i}: original_language {p.original_language!r} is not "
                             f"the corpus source_lang {corpus.source_lang!r}")
        # datetime.datetime subclasses date, so isinstance would let it in
        if type(p.session_date) is not datetime.date:
            raise ValueError(f"pair {i}: session_date must be a datetime.date, "
                             f"got {type(p.session_date).__name__} {p.session_date!r}")
        row = (p.speaker_id, p.gender, p.session_date.isoformat(), p.source_text, p.target_text)
        line = "\t".join(row)
        # one scan of the joined row checks every field it holds
        if "\n" in line or "\r" in line or line.count("\t") != len(row) - 1:
            name = next(n for n, v in zip((*TSV_COLUMNS, "source_text", "target_text"), row)
                        if any(c in v for c in "\t\n\r"))
            raise ValueError(f"pair {i}: {name} must not contain tab, newline or carriage return")
        lines.append(line + "\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


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
# A token is a whitespace chunk's core, a run of two or more dots, or one
# other split character.  The core runs from the chunk's first to its last
# character not split off: runs of such characters joined by runs of split
# ones, so the match never backtracks.  A core starts with a character no
# other alternative starts with, so the order of the alternatives cannot
# change a match.
_TOKEN_RE = re.compile(rf"[^\s{_PUNCT}]+(?:[{_PUNCT}]+[^\s{_PUNCT}]+)*|\.{{2,}}|[{_PUNCT}]")
_PUNCT_RE = re.compile(f"[{_PUNCT}]")


def tokenize(s: str, lang: str = "en") -> TokenizedSentence:
    """Rule-based tokenizer.

    Each whitespace chunk yields its leading punctuation, its core and its
    trailing punctuation; a run of two or more dots is one token, any other
    _SPLIT_PUNCT character is a token of its own.  A sentence with no
    _SPLIT_PUNCT character before its last character is split on
    whitespace, and a split character at its end is split off; any other
    sentence takes one _TOKEN_RE pass.  For French, a core such as
    "l'homme" is then split after its elided prefix.  Every token is
    interned, so a corpus holds one string per distinct token.
    """
    if _PUNCT_RE.search(s, 0, len(s) - 1):
        tokens = _TOKEN_RE.findall(s)
    else:
        # No split character before the last, so no core joins punctuation
        # and no dot run forms: each chunk is one core, but a split
        # character ending the sentence is a token of its own.
        tokens = s.split()
        if tokens and s[-1] in _SPLIT_PUNCT and len(tokens[-1]) > 1:
            tokens[-1:] = tokens[-1][:-1], s[-1]
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
