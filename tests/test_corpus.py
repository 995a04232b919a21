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
    CorpusFormatError,
    TokenizedSentence,
    clean_corpus,
    load_corpus,
    save_corpus,
    tokenize,
)

HEADER = "src_lang\ttgt_lang\tspeaker_id\tgender\tage\tsession_date\tsource_text\ttarget_text"


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
        age=45,
    )


class TestLoadCorpus:
    def test_well_formed_three_rows(self, tmp_path):
        p = tmp_path / "c.tsv"
        rows = [
            "en\tfr\ts1\tM\t45\t2005-06-01\thello\tbonjour",
            "en\tfr\ts2\tF\t\t2005-06-02\tbye\tau revoir",
            "en\tfr\ts1\tM\t45\t2005-06-03\tyes\toui",
        ]
        p.write_text(HEADER + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
        corpus, errors = load_corpus(p)
        assert errors == []
        assert len(corpus) == 3
        assert corpus.source_lang == "en" and corpus.target_lang == "fr"
        assert corpus.pairs[1].age is None
        assert corpus.pairs[0].session_date == datetime.date(2005, 6, 1)

    def test_invalid_gender_is_row_level_error(self, tmp_path):
        p = tmp_path / "c.tsv"
        rows = [
            "en\tfr\ts1\tX\t45\t2005-06-01\thello\tbonjour",
            "en\tfr\ts2\tF\t30\t2005-06-02\tbye\tau revoir",
        ]
        p.write_text(HEADER + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
        corpus, errors = load_corpus(p)
        assert len(corpus) == 1
        assert len(errors) == 1
        assert errors[0].line_number == 2
        assert "gender" in errors[0].message

    def test_header_only_gives_empty_corpus(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text(HEADER + "\n", encoding="utf-8")
        corpus, errors = load_corpus(p)
        assert len(corpus) == 0 and errors == []

    def test_header_mismatch_raises(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("a\tb\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError):
            load_corpus(p)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_corpus(tmp_path / "nope.tsv")

    def test_invalid_date_is_row_level_error(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text(HEADER + "\nen\tfr\ts1\tM\t45\tnot-a-date\thello\tbonjour\n", encoding="utf-8")
        corpus, errors = load_corpus(p)
        assert len(corpus) == 0 and len(errors) == 1

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
        with pytest.raises(CorpusFormatError, match=field):
            save_corpus(corpus, tmp_path / "c.tsv")

    @pytest.mark.parametrize("column", ["src_lang", "tgt_lang"])
    def test_save_rejects_separator_in_language(self, tmp_path, column):
        langs = ("e\tn", "fr") if column == "src_lang" else ("en", "f\nr")
        with pytest.raises(CorpusFormatError, match=column):
            save_corpus(Corpus([make_pair()], *langs), tmp_path / "c.tsv")


class TestCleanCorpus:
    def test_empty_target_removed(self):
        c = Corpus([make_pair(tgt="")], "en", "fr")
        cleaned, report = clean_corpus(c)
        assert len(cleaned) == 0
        assert report.removed_empty == 1

    def test_long_side_removed(self):
        c = Corpus([make_pair(src=" ".join(["w"] * 81), tgt=" ".join(["w"] * 10))], "en", "fr")
        cleaned, report = clean_corpus(c)
        assert len(cleaned) == 0
        assert report.removed_long == 1

    def test_balanced_pair_retained(self):
        c = Corpus([make_pair(src=" ".join(["w"] * 10), tgt=" ".join(["v"] * 10))], "en", "fr")
        cleaned, report = clean_corpus(c)
        assert len(cleaned) == 1 and report.kept == 1

    def test_ratio_removal(self):
        c = Corpus([make_pair(src=" ".join(["w"] * 30), tgt="v w x")], "en", "fr")
        cleaned, report = clean_corpus(c)
        assert len(cleaned) == 0 and report.removed_ratio == 1

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

    def test_one_string_per_distinct_token(self):
        texts = {
            "en": ["Hello, world.", "(Hello) world... again!", "the world's end; the end?"],
            "fr": ["l'homme, l'air.", "L'homme qu'il voit... jusqu'ici!", "d'accord (d'accord)."],
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
        with pytest.raises(ValueError, match="gender"):
            dataclasses.replace(make_pair(), gender="X")
        with pytest.raises(dataclasses.FrozenInstanceError):
            make_pair().gender = "F"
