import math
import random
import re

import pytest

from traitmt.lm import (
    BOS,
    EOS,
    UNK,
    NgramLanguageModel,
    read_arpa,
    train_kn_lm,
    write_arpa,
)

# Ten-token hand corpus used throughout; token counts a:5 b:3 c:2, so no
# <unk> replacement at threshold 1.
HAND_CORPUS = [("a", "b", "a", "c"), ("b", "a", "a"), ("c", "a", "b")]


@pytest.fixture(scope="module")
def model():
    return train_kn_lm(HAND_CORPUS, order=2)


class TestHandComputedBigramModel:
    """Frozen values from working the interpolated KN formulas by hand.

    Adjusted bigram counts (raw): (<s>,a)=1 (<s>,b)=1 (<s>,c)=1 (a,b)=2
    (b,a)=2 (a,c)=1 (c,</s>)=1 (a,a)=1 (a,</s>)=1 (c,a)=1 (b,</s>)=1,
    so D2 = 9/(9+2*2) = 9/13.  Unigram continuation counts: a=4 b=2 c=2
    </s>=3 (S1=11), D1 = 0 because no continuation count equals 1.
    """

    def test_discounts(self, model):
        assert model.discounts[2] == pytest.approx(9 / 13)
        assert model.discounts[1] == pytest.approx(0.0)

    def test_unigram_continuation_distribution(self, model):
        assert 10 ** model.unigram_log10("a") == pytest.approx(4 / 11, abs=1e-12)
        assert 10 ** model.unigram_log10("b") == pytest.approx(2 / 11, abs=1e-12)
        assert 10 ** model.unigram_log10("c") == pytest.approx(2 / 11, abs=1e-12)
        assert 10 ** model.unigram_log10(EOS) == pytest.approx(3 / 11, abs=1e-12)

    def test_observed_bigram_matches_hand_value(self, model):
        # P(b|a) = (max(2 - 9/13, 0) + (9/13)*4*(2/11)) / 5 = 259/715
        p = 10 ** model.log10_prob("b", ("a",))
        assert p == pytest.approx(259 / 715, abs=1e-9)

    def test_unseen_bigram_backs_off(self, model):
        # bow(b) = (9/13)*2/3 = 6/13; P(c|b) = bow(b) * P1(c) = 12/143
        p = 10 ** model.log10_prob("c", ("b",))
        assert p == pytest.approx(12 / 143, abs=1e-9)

    def test_every_context_normalizes(self, model):
        words = list(model.vocab)
        for context in [(), ("a",), ("b",), ("c",), (BOS,)]:
            total = sum(10 ** model.log10_prob(w, context) for w in words)
            assert total == pytest.approx(1.0, abs=1e-9), context


class TestUnigramModel:
    def test_unk_replacement_and_relative_frequencies(self):
        model = train_kn_lm([("a", "a", "b")], order=1)
        # b is a singleton -> <unk>; counts over a a <unk> </s> are 2/1/1
        assert 10 ** model.unigram_log10("a") == pytest.approx(0.5, abs=1e-12)
        assert 10 ** model.unigram_log10(UNK) == pytest.approx(0.25, abs=1e-12)
        assert 10 ** model.unigram_log10(EOS) == pytest.approx(0.25, abs=1e-12)
        # OOV words map to <unk>
        assert model.unigram_log10("zebra") == model.unigram_log10(UNK)

    def test_vocab_contents(self):
        model = train_kn_lm([("a", "a", "b")], order=1)
        assert model.vocab == frozenset({"a", UNK, EOS})


class TestNormalizationLaw:
    def test_sampled_contexts_all_orders(self):
        rng = random.Random(0)
        words = [f"w{i}" for i in range(12)]
        corpus = [
            tuple(rng.choice(words) for _ in range(rng.randint(1, 12)))
            for _ in range(400)
        ]
        model = train_kn_lm(corpus, order=3)
        vocab = list(model.vocab)
        unigram_ctx = [g for g in model.probs[1] if g != (EOS,)]
        bigram_ctx = list(model.probs[2])
        assert len(unigram_ctx) >= 10 and len(bigram_ctx) >= 100
        contexts = [()] + unigram_ctx + bigram_ctx[:150]
        # also unseen contexts must normalize through the backoff walk
        contexts += [("w0", "nonexistent-token"), ("nope",)]
        for context in contexts:
            total = sum(10 ** model.log10_prob(w, context) for w in vocab)
            assert total == pytest.approx(1.0, abs=1e-6), context

    def test_higher_order_warning_on_short_corpus(self):
        with pytest.warns(UserWarning):
            model = train_kn_lm([("a",), ("a",), ("b",), ("b",)], order=5)
        total = sum(10 ** model.log10_prob(w, ("a", "b", "a")) for w in model.vocab)
        assert total == pytest.approx(1.0, abs=1e-6)


class TestScoring:
    def test_empty_sentence_is_eos_given_bos(self):
        model = train_kn_lm(HAND_CORPUS, order=2)
        assert model.score_sentence(()) == pytest.approx(model.log10_prob(EOS, (BOS,)))

    def test_training_sentence_beats_shuffle(self):
        sent = ("the", "cat", "sat", "on", "the", "mat")
        model = train_kn_lm([sent, sent], order=3, unk_threshold=0)
        shuffled = ("mat", "the", "on", "sat", "cat", "the")
        assert model.score_sentence(sent) > model.score_sentence(shuffled)

    def test_oov_scores_finite(self):
        model = train_kn_lm(HAND_CORPUS, order=2)
        score = model.score_sentence(("quux", "a", "zzz"))
        assert math.isfinite(score)


    def test_log10_nonpositive(self, model):
        assert model.log10_nonpositive
        context = next(iter(model.bows))
        raised = NgramLanguageModel(
            model.order, model.probs, {**model.bows, context: 0.5}, model.vocab, model.discounts)
        assert not raised.log10_nonpositive


class TestArpaRoundTrip:
    def test_scores_identical_after_round_trip(self, tmp_path):
        rng = random.Random(1)
        words = [f"w{i}" for i in range(10)]
        corpus = [
            tuple(rng.choice(words) for _ in range(rng.randint(1, 10)))
            for _ in range(80)
        ]
        model = train_kn_lm(corpus, order=3)
        path = tmp_path / "model.arpa"
        write_arpa(model, path)
        loaded = read_arpa(path)
        assert loaded.order == model.order
        for k in range(1, 4):
            assert loaded.probs[k].keys() == model.probs[k].keys()
            for gram, logp in model.probs[k].items():
                assert abs(loaded.probs[k][gram] - logp) <= 1e-9
        for ctx, bow in model.bows.items():
            assert abs(loaded.bows[ctx] - bow) <= 1e-9
        test_sentences = [tuple(rng.choice(words) for _ in range(6)) for _ in range(20)]
        test_sentences.append(("oov-token", "w1"))
        for sent in test_sentences:
            assert abs(loaded.score_sentence(sent) - model.score_sentence(sent)) <= 1e-9

    def test_declared_counts_checked(self, tmp_path):
        path = tmp_path / "bad.arpa"
        path.write_text(
            "\\data\\\nngram 1=2\n\n\\1-grams:\n-0.3\ta\n\n\\end\\\n", encoding="utf-8"
        )
        with pytest.raises(ValueError):
            read_arpa(path)

    @pytest.mark.parametrize("bad_line, lineno", [
        ("xx\tb", 6),           # log-prob not a float
        ("-0.2\tb\tyy", 6),     # backoff weight not a float
        ("-0.2\tb c", 6),       # a 2-gram among the 1-grams
        ("-0.2", 6),            # no word
        ("ngram 2", 2),         # header without a count
    ])
    def test_malformed_line_named(self, tmp_path, bad_line, lineno):
        lines = ["\\data\\", "ngram 1=2", "", "\\1-grams:", "-0.3\ta", "-0.2\tb", "",
                 "\\end\\"]
        lines[lineno - 1] = bad_line
        path = tmp_path / "bad.arpa"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:{lineno}: "):
            read_arpa(path)

    def test_whitespace_only_line_is_blank(self, tmp_path):
        path = tmp_path / "model.arpa"
        path.write_text("\\data\\\nngram 1=1\n \t\n\\1-grams:\n-0.3\ta\n\\end\\\n",
                        encoding="utf-8")
        assert read_arpa(path).probs[1] == {("a",): -0.3}

    def test_entry_outside_section_named(self, tmp_path):
        path = tmp_path / "bad.arpa"
        path.write_text("\\data\\\nngram 1=1\n-0.3\ta\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:3: entry outside"):
            read_arpa(path)


class TestValidation:
    def test_order_zero_rejected(self):
        with pytest.raises(ValueError):
            train_kn_lm([("a",)], order=0)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            train_kn_lm([], order=2)
        with pytest.raises(ValueError):
            train_kn_lm([()], order=2)
