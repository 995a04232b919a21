import dataclasses
import datetime
import pickle
import random
import re

import pytest

from traitmt.corpus import (
    _FR_ELISION,
    _FR_ELISION_RE,
    _SPLIT_PUNCT,
    AnnotatedSentencePair,
    Corpus,
    RowError,
    TokenizedSentence,
    clean_corpus,
    load_corpus,
    save_corpus,
    tokenize,
)

HEADER = "speaker_id\tgender\tsession_date\ten\tfr"


def reference_tokenize(s, lang="en"):
    """The tokenizer without its fast path: every whitespace chunk goes
    through the leading and trailing punctuation loops."""

    def split_leading(chunk):
        out = []
        while chunk:
            m = re.match(r"^\.{2,}", chunk)
            if m:
                out.append(m.group(0))
                chunk = chunk[m.end():]
            elif chunk[0] in _SPLIT_PUNCT:
                out.append(chunk[0])
                chunk = chunk[1:]
            else:
                break
        return out, chunk

    def split_trailing(chunk):
        tail = []
        while chunk:
            m = re.search(r"\.{2,}$", chunk)
            if m:
                tail.append(m.group(0))
                chunk = chunk[: m.start()]
            elif chunk[-1] in _SPLIT_PUNCT:
                tail.append(chunk[-1])
                chunk = chunk[:-1]
            else:
                break
        tail.reverse()
        return chunk, tail

    tokens = []
    for chunk in s.split():
        head, rest = split_leading(chunk)
        tokens.extend(head)
        rest, tail = split_trailing(rest)
        if rest:
            if lang == "fr":
                m = _FR_ELISION_RE.match(rest)
                if m:
                    tokens.append(m.group(1) + "'")
                    tokens.append(m.group(2))
                else:
                    tokens.append(rest)
            else:
                tokens.append(rest)
        tokens.extend(tail)
    return tuple(tokens)


def make_pair(src="hello world", tgt="bonjour monde", gender="M", speaker="s1"):
    return AnnotatedSentencePair(
        source_text=src,
        target_text=tgt,
        speaker_id=speaker,
        original_language="en",
        session_date=datetime.date(2005, 6, 1),
        gender=gender,
    )


class TestLoadCorpus:
    def test_well_formed_three_rows(self, tmp_path):
        p = tmp_path / "c.tsv"
        rows = [
            "s1\tM\t2005-06-01\thello\tbonjour",
            "s2\tF\t2005-06-02\tbye\tau revoir",
            "s1\tM\t2005-06-03\tyes\toui",
        ]
        p.write_text(HEADER + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
        corpus, errors = load_corpus(p)
        assert errors == []
        assert len(corpus.pairs) == 3
        assert corpus.source_lang == "en" and corpus.target_lang == "fr"
        assert corpus.pairs[1].target_text == "au revoir"
        assert corpus.pairs[0].session_date == datetime.date(2005, 6, 1)

    def test_invalid_gender_is_row_level_error(self, tmp_path):
        p = tmp_path / "c.tsv"
        rows = [
            "s1\tX\t2005-06-01\thello\tbonjour",
            "s2\tF\t2005-06-02\tbye\tau revoir",
        ]
        p.write_text(HEADER + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
        corpus, errors = load_corpus(p)
        assert len(corpus.pairs) == 1
        assert len(errors) == 1
        assert errors[0].line_number == 2
        assert "gender" in errors[0].message

    def test_header_only_gives_empty_corpus(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("speaker_id\tgender\tsession_date\tde\tit\n", encoding="utf-8")
        corpus, errors = load_corpus(p)
        assert corpus == Corpus([], "de", "it") and errors == []

    @pytest.mark.parametrize("header", [
        "src_lang\ttgt_lang\tspeaker_id\tgender\tage\tsession_date\tsource_text\ttarget_text",
        "speaker_id\tgender\tsession_date\ten",
        "speaker_id\tgender\tsession_date\ten\tfr\tde",
    ], ids=["old_eight_columns", "one_language", "three_languages"])
    def test_header_of_other_shape_raises(self, tmp_path, header):
        # a file in another layout is refused whole, never misread row by row
        p = tmp_path / "c.tsv"
        row = "en\tfr\ts1\tM\t45\t2005-06-01\thello\tbonjour"
        p.write_text(header + "\n" + row + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}:1: header mismatch"):
            load_corpus(p)

    def test_row_with_wrong_column_count_is_row_level_error(self, tmp_path):
        p = tmp_path / "c.tsv"
        rows = ["en\tfr\ts1\tM\t45\t2005-06-01\thello\tbonjour", "s2\tF\t2005-06-02\tbye"]
        p.write_text(HEADER + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
        corpus, errors = load_corpus(p)
        assert corpus.pairs == []
        assert errors == [RowError(2, "expected 5 columns, got 8"),
                          RowError(3, "expected 5 columns, got 4")]

    def test_header_mismatch_raises(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("a\tb\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}:1: header mismatch"):
            load_corpus(p)

    def test_empty_file_raises(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}:1: empty file"):
            load_corpus(p)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_corpus(tmp_path / "nope.tsv")

    def test_invalid_date_is_row_level_error(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text(HEADER + "\ns1\tM\tnot-a-date\thello\tbonjour\n", encoding="utf-8")
        corpus, errors = load_corpus(p)
        assert len(corpus.pairs) == 0 and len(errors) == 1

    @pytest.mark.parametrize("date_s, expected", [
        ("2024-01-15", datetime.date(2024, 1, 15)),
        ("2024-02-29", datetime.date(2024, 2, 29)),
        ("0001-01-01", datetime.date(1, 1, 1)),
        ("9999-12-31", datetime.date(9999, 12, 31)),
        # only YYYY-MM-DD in ASCII digits, the form save_corpus writes;
        # date.fromisoformat takes some of these on one Python and not another
        ("20240115", None),
        ("2024-W03-1", None),
        ("2024-W03", None),
        ("2024-015", None),
        ("2024-01-15T00:00", None),
        ("2024-01-15 ", None),
        (" 2024-01-15", None),
        ("2024-1-15", None),
        ("2024/01/15", None),
        ("+2024-01-15", None),
        ("\uff12\uff10\uff12\uff14-01-15", None),
        ("\u0662\u0660\u0662\u0664-01-15", None),
        ("2024-02-30", None),
        ("2024-13-01", None),
        ("0000-01-01", None),
        ("", None),
    ])
    def test_session_date_is_exactly_iso_calendar_date(self, tmp_path, date_s, expected):
        # the date appears twice: a parsed date is reused, a bad one is reported per row
        p = tmp_path / "c.tsv"
        rows = [f"s1\tM\t{date_s}\thello\tbonjour"] * 2 + ["s2\tF\t2005-06-02\tbye\tau revoir"]
        p.write_text(HEADER + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
        corpus, errors = load_corpus(p)
        if expected is None:
            assert errors == [RowError(n, f"invalid session_date {date_s!r}") for n in (2, 3)]
            assert [q.speaker_id for q in corpus.pairs] == ["s2"]
        else:
            assert errors == []
            assert corpus.pairs[0].session_date == expected

    def test_repeated_values_are_stored_once(self, tmp_path):
        p = tmp_path / "c.tsv"
        speakers = ["s1", "s2", "s1", "s3", "s2", "s1"]
        dates = ["2005-06-01", "2005-06-02", "2005-06-01", "2005-06-01", "2005-06-02", "2005-06-03"]
        rows = [f"{sp}\tM\t{d}\ttext {i}\ttexte {i}"
                for i, (sp, d) in enumerate(zip(speakers, dates))]
        p.write_text(HEADER + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
        corpus, errors = load_corpus(p)
        assert errors == []
        assert [(q.speaker_id, q.session_date.isoformat(), q.original_language, q.source_text)
                for q in corpus.pairs] == [
            (sp, d, "en", f"text {i}") for i, (sp, d) in enumerate(zip(speakers, dates))]
        assert len({id(q.speaker_id) for q in corpus.pairs}) == 3
        assert len({id(q.session_date) for q in corpus.pairs}) == 3
        assert len({id(q.original_language) for q in corpus.pairs}) == 1
        assert corpus.pairs[0].original_language is corpus.source_lang

    def test_round_trip_identity(self, tmp_path):
        pairs = [
            make_pair("one two", "un deux", "M", "s1"),
            make_pair("three", "trois", "F", "s2"),
            make_pair("four four", "quatre", "U", "s3"),
        ]
        corpus = Corpus(pairs, "en", "fr")
        p = tmp_path / "c.tsv"
        save_corpus(corpus, p)
        loaded, errors = load_corpus(p)
        assert errors == []
        assert loaded.pairs == corpus.pairs
        assert (loaded.source_lang, loaded.target_lang) == ("en", "fr")

    @pytest.mark.parametrize("field", ["speaker_id", "source_text", "target_text"])
    @pytest.mark.parametrize("bad", ["\t", "\n", "\r"], ids=["tab", "newline", "carriage_return"])
    def test_save_rejects_separator_in_pair_field(self, tmp_path, field, bad):
        pair = make_pair()
        broken = dataclasses.replace(pair, **{field: "x" + bad + getattr(pair, field)})
        corpus = Corpus([pair, broken], "en", "fr")
        with pytest.raises(ValueError, match=rf"^pair 1: {field} must not contain"):
            save_corpus(corpus, tmp_path / "c.tsv")

    def test_empty_corpus_round_trips(self, tmp_path):
        path = tmp_path / "c.tsv"
        save_corpus(Corpus([], "en", "fr"), path)
        assert path.read_text(encoding="utf-8") == HEADER + "\n"
        assert load_corpus(path) == (Corpus([], "en", "fr"), [])

    def test_positional_record_round_trips(self, tmp_path):
        # five positional arguments, the gender set afterwards by replace
        date = datetime.date(2005, 6, 1)
        rows = [AnnotatedSentencePair("one two", "un deux", "s1", "en", date),
                AnnotatedSentencePair("three", "trois", "s2", "en", date)]
        path = tmp_path / "c.tsv"
        save_corpus(Corpus(rows, "en", "fr"), path)
        loaded, errors = load_corpus(path)
        assert errors == [] and loaded.pairs == rows
        assert [dataclasses.replace(q, gender="F").gender for q in loaded.pairs] == ["F", "F"]

    @pytest.mark.parametrize("language", ["fr", "EN", "en ", ""])
    def test_save_rejects_other_original_language(self, tmp_path, language):
        # the file stores one language for every pair: the corpus source_lang
        path = tmp_path / "c.tsv"
        pair = make_pair()
        other = dataclasses.replace(pair, original_language=language)
        with pytest.raises(ValueError, match=rf"^pair 2: original_language {re.escape(repr(language))}"):
            save_corpus(Corpus([pair, pair, other], "en", "fr"), path)
        assert not path.exists()

    @pytest.mark.parametrize("date", [datetime.datetime(2005, 6, 1, 12, 0), "2005-06-01", None],
                             ids=["datetime", "str", "None"])
    def test_save_rejects_session_date_that_is_not_a_date(self, tmp_path, date):
        # a datetime would be written with its time, which load_corpus
        # refuses; a str or None has no isoformat
        path = tmp_path / "c.tsv"
        pair = make_pair()
        other = dataclasses.replace(pair, session_date=date)
        with pytest.raises(ValueError, match=rf"^pair 1: session_date must be a datetime.date, "
                                             rf"got {type(date).__name__} "):
            save_corpus(Corpus([pair, other, pair], "en", "fr"), path)
        assert not path.exists()

    def test_save_checks_every_row_before_writing(self, tmp_path):
        # a bad row after good ones leaves a file already at the path as it was
        path = tmp_path / "c.tsv"
        path.write_text("kept\n", encoding="utf-8")
        pair = make_pair()
        broken = dataclasses.replace(pair, target_text="x\ty")
        with pytest.raises(ValueError, match="target_text"):
            save_corpus(Corpus([pair, pair, broken], "en", "fr"), path)
        assert path.read_text(encoding="utf-8") == "kept\n"

    @pytest.mark.parametrize("field", ["source_lang", "target_lang"])
    def test_save_rejects_separator_in_language(self, tmp_path, field):
        path = tmp_path / "c.tsv"
        for bad in "\t\n\r":
            corpus = Corpus([make_pair()], "en", "fr")
            setattr(corpus, field, "x" + bad + getattr(corpus, field))
            with pytest.raises(ValueError, match=rf"^{field} must not contain"):
                save_corpus(corpus, path)
            assert not path.exists()


class TestCleanCorpus:
    def test_empty_target_removed(self):
        c = Corpus([make_pair(tgt="")], "en", "fr")
        cleaned, report = clean_corpus(c)
        assert len(cleaned.pairs) == 0
        assert report.removed_empty == 1

    def test_long_side_removed(self):
        c = Corpus([make_pair(src=" ".join(["w"] * 81), tgt=" ".join(["w"] * 10))], "en", "fr")
        cleaned, report = clean_corpus(c)
        assert len(cleaned.pairs) == 0
        assert report.removed_long == 1

    def test_balanced_pair_retained(self):
        c = Corpus([make_pair(src=" ".join(["w"] * 10), tgt=" ".join(["v"] * 10))], "en", "fr")
        cleaned, report = clean_corpus(c)
        assert len(cleaned.pairs) == 1 and report.kept == 1

    def test_ratio_removal(self):
        c = Corpus([make_pair(src=" ".join(["w"] * 30), tgt="v w x")], "en", "fr")
        cleaned, report = clean_corpus(c)
        assert len(cleaned.pairs) == 0 and report.removed_ratio == 1

    def test_idempotent(self):
        rng = random.Random(7)
        pairs = []
        for _ in range(200):
            ns = rng.randint(0, 100)
            nt = rng.randint(0, 100)
            pairs.append(make_pair(src=" ".join(["w"] * ns), tgt=" ".join(["v"] * nt)))
        c = Corpus(pairs, "en", "fr")
        once, _ = clean_corpus(c)
        twice, report = clean_corpus(once)
        assert twice.pairs == once.pairs
        assert report.removed_empty == report.removed_long == report.removed_ratio == 0


class TestTokenize:
    def test_basic_sentence(self):
        assert list(tokenize("Hello, world.").tokens) == ["Hello", ",", "world", "."]

    def test_french_elision(self):
        assert list(tokenize("l'homme", lang="fr").tokens) == ["l'", "homme"]

    def test_elision_only_in_french(self):
        assert list(tokenize("l'homme", lang="en").tokens) == ["l'homme"]

    def test_empty_string(self):
        assert tokenize("").tokens == ()

    def test_ellipsis_kept_whole(self):
        assert list(tokenize("wait... what").tokens) == ["wait", "...", "what"]

    @pytest.mark.parametrize("text, lang, expected", [
        ("U.S.A.", "en", ("U.S.A", ".")),
        ("a,,b", "en", ("a,,b",)),
        ("(a)b)", "en", ("(", "a)b", ")")),
        ("x...y", "en", ("x...y",)),
        ("...", "en", ("...",)),
        ("l'homme.", "fr", ("l'", "homme", ".")),
        ("", "en", ()),
        (".", "en", (".",)),
        (" .", "en", (".",)),
        ("a .", "en", ("a", ".")),
        ("a.", "en", ("a", ".")),
        ("a..", "en", ("a", "..")),
        ("a.)", "en", ("a", ".", ")")),
        ("(a", "en", ("(", "a")),
        ("a (", "en", ("a", "(")),
        ("a\x1c.", "en", ("a", ".")),
        ("l'homme est là.", "fr", ("l'", "homme", "est", "là", ".")),
        ("l'homme, l'air.", "fr", ("l'", "homme", ",", "l'", "air", ".")),
    ])
    def test_interior_punctuation_and_dot_runs(self, text, lang, expected):
        assert tokenize(text, lang).tokens == expected == reference_tokenize(text, lang)

    def test_no_empty_tokens_and_fixpoint(self):
        rng = random.Random(11)
        pieces = ["Hello,", "world.", "(l'air)", "qu'est-ce", '"quote"', "...", "a.b", "x!?"]
        for lang in ("en", "fr"):
            for _ in range(100):
                s = " ".join(rng.choice(pieces) for _ in range(rng.randint(0, 6)))
                toks = tokenize(s, lang).tokens
                assert all(t != "" for t in toks)
                again = tokenize(" ".join(toks), lang).tokens
                assert again == toks

    def test_matches_reference_tokenizer(self):
        rng = random.Random(12)
        prefixes = [p + "'" for p in _FR_ELISION] + [p.upper() + "'" for p in _FR_ELISION]
        pieces = (list("abzAQZé") + ["homme", "Est", ".", "..", "...", "....", "'", "''", " ", "  ",
                                     "\t", "\n", "\u00a0", "\u2003", "\x1c"]
                  + sorted(_SPLIT_PUNCT) + prefixes)
        for lang in ("en", "fr"):
            for _ in range(3000):
                s = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 12)))
                assert tokenize(s, lang).tokens == reference_tokenize(s, lang), s
        # Sentence-shaped strings: most have no split character before their
        # last one and are split on whitespace, the rest take the regex.
        words = ["homme", "Est", "a", "zé", "air", "qu'il", "aujourd'hui", "'", "x'y"]
        spaces = [" ", " ", " ", "  ", "\t", "\n", "\u00a0", "\u2003", "\x1c", "\x85"]
        punct = sorted(_SPLIT_PUNCT)
        for lang in ("en", "fr"):
            paths = {True: 0, False: 0}
            for _ in range(4000):
                s = ""
                for _ in range(rng.randint(0, 10)):
                    s += rng.choice(spaces) if s else ""
                    s += rng.choice(prefixes) if rng.random() < 0.3 else ""
                    s += rng.choice(words)
                if rng.random() < 0.5:
                    s += rng.choice(punct)
                if rng.random() < 0.4:
                    i = rng.randint(0, len(s))
                    s = s[:i] + rng.choice(punct + ["..", "..."]) + s[i:]
                paths[any(c in _SPLIT_PUNCT for c in s[:-1])] += 1
                assert tokenize(s, lang).tokens == reference_tokenize(s, lang), s
            assert min(paths.values()) >= 1000, paths

    def test_one_string_per_distinct_token(self):
        texts = {
            "en": ["Hello, world.", "(Hello) world... again!", "the world's end; the end?",
                   "hello world again"],
            "fr": ["l'homme, l'air.", "L'homme qu'il voit... jusqu'ici!", "d'accord (d'accord).",
                   "l'homme voit l'air!"],
        }
        for lang, sentences in texts.items():
            tokens = [t for s in sentences for t in tokenize(s, lang).tokens]
            assert len({id(t) for t in tokens}) == len(set(tokens))


class TestRecords:
    def records(self):
        return [make_pair(), TokenizedSentence(("l'", "homme"))]

    def test_no_instance_dict(self):
        for record in self.records():
            assert not hasattr(record, "__dict__")

    def test_pickle_round_trip(self):
        for record in self.records():
            assert pickle.loads(pickle.dumps(record)) == record

    def test_replace_still_validates_gender(self):
        with pytest.raises(ValueError, match=r"gender must be one of \('M', 'F', 'U'\), got 'X'"):
            dataclasses.replace(make_pair(), gender="X")
        assert dataclasses.replace(make_pair(), gender="F") == make_pair(gender="F")
        with pytest.raises(dataclasses.FrozenInstanceError):
            make_pair().gender = "F"

    def test_positional_record_equals_keyword_record(self):
        date = datetime.date(2005, 6, 1)
        positional = AnnotatedSentencePair("hello world", "bonjour monde", "s1", "en", date)
        keyword = AnnotatedSentencePair(
            source_text="hello world",
            target_text="bonjour monde",
            speaker_id="s1",
            original_language="en",
            session_date=date,
        )
        assert positional == keyword
        assert positional.gender == "U"
        full = AnnotatedSentencePair("hello world", "bonjour monde", "s1", "en", date, "M")
        assert full == make_pair()

    def test_repr_is_pinned(self):
        assert repr(make_pair()) == (
            "AnnotatedSentencePair(source_text='hello world', target_text='bonjour monde', "
            "speaker_id='s1', original_language='en', session_date=datetime.date(2005, 6, 1), "
            "gender='M')"
        )

    def test_equal_records_hash_equal(self):
        assert make_pair() is not make_pair()
        assert make_pair() == make_pair()
        assert hash(make_pair()) == hash(make_pair())
        assert len({make_pair(), make_pair(), make_pair(gender="F")}) == 2

    def test_every_field_is_frozen(self):
        record = make_pair()
        names = [f.name for f in dataclasses.fields(record)]
        assert len(names) == 6
        for name in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, getattr(record, name))
        assert record == make_pair()

    def test_tokenized_sentence_is_frozen(self):
        sentence = TokenizedSentence(("l'", "homme"))
        with pytest.raises(dataclasses.FrozenInstanceError):
            sentence.tokens = ("x",)
        assert dataclasses.replace(sentence, tokens=("x",)) == TokenizedSentence(("x",))
        assert TokenizedSentence(tokens=("l'", "homme")) == sentence
