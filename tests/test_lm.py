import math
import random
import re
import warnings
from collections import Counter

import pytest

from traitmt.lm import (
    BOS,
    EOS,
    LOG10_FLOOR,
    UNK,
    NgramLanguageModel,
    read_arpa,
    train_kn_lm,
    write_arpa,
)


def reference_train_kn_lm(sentences, order, unk_threshold=1):
    """The estimator as first written, in stages: raw counts per order,
    continuation counts derived top-down from the order above, one
    discount per order, backoff weights computed a second time.  Kept as
    an oracle for the one-pass train_kn_lm."""
    sentences = [tuple(s) for s in sentences]
    freq = Counter(tok for sent in sentences for tok in sent)
    replaced = [
        tuple(tok if freq[tok] > unk_threshold else UNK for tok in sent)
        for sent in sentences
    ]
    raw = {k: Counter() for k in range(1, order + 1)}
    for sent in replaced:
        padded = (BOS,) + tuple(sent) + (EOS,)
        for k in range(1, order + 1):
            for i in range(len(padded) - k + 1):
                raw[k][padded[i: i + k]] += 1

    adjusted = {order: dict(raw[order])}
    for k in range(order - 1, 0, -1):
        cont = Counter()
        for gram in adjusted[k + 1]:
            cont[gram[1:]] += 1
        table = {}
        for gram, count in raw[k].items():
            if gram[0] == BOS:
                table[gram] = count
            elif cont[gram] > 0:
                table[gram] = cont[gram]
        adjusted[k] = table

    vocab = set(w for (w,) in adjusted[1]) - {BOS}
    vocab.add(UNK)
    vocab = frozenset(vocab)

    def estimate_discount(counts):
        n1 = sum(1 for c in counts if c == 1)
        n2 = sum(1 for c in counts if c == 2)
        if n1 + 2 * n2 == 0:
            return 0.0
        return n1 / (n1 + 2 * n2)

    discounts = {}
    for k in range(1, order + 1):
        if k == 1:
            counts = [c for (w,), c in adjusted[1].items() if w != BOS]
        else:
            counts = list(adjusted[k].values())
        discounts[k] = estimate_discount(counts)

    sums = {k: Counter() for k in range(1, order + 1)}
    types = {k: Counter() for k in range(1, order + 1)}
    for k in range(1, order + 1):
        for gram, c in adjusted[k].items():
            if k == 1 and gram[0] == BOS:
                continue
            sums[k][gram[:-1]] += c
            types[k][gram[:-1]] += 1

    probs = {k: {} for k in range(1, order + 1)}
    bows = {}

    def log10_floor(p):
        return math.log10(p) if p > 0 else LOG10_FLOOR

    d1 = discounts[1]
    s1 = sums[1][()]
    n_types = types[1][()]
    v = len(vocab)
    uni_prob = {}
    for w in vocab:
        count = adjusted[1].get((w,), 0)
        p = (max(count - d1, 0.0) + d1 * n_types / v) / s1
        uni_prob[w] = p
        probs[1][(w,)] = log10_floor(p)
    probs[1][(BOS,)] = LOG10_FLOOR

    prev_prob = {(w,): p for w, p in uni_prob.items()}
    for k in range(2, order + 1):
        dk = discounts[k]
        cur_prob = {}
        for gram, count in sorted(adjusted[k].items()):
            h = gram[:-1]
            s = sums[k][h]
            lam = dk * types[k][h] / s
            lower = prev_prob.get(gram[1:], 0.0)
            p = max(count - dk, 0.0) / s + lam * lower
            cur_prob[gram] = p
            probs[k][gram] = log10_floor(p)
        for h in sums[k]:
            lam = discounts[k] * types[k][h] / sums[k][h]
            bows[h] = log10_floor(lam) if lam > 0 else LOG10_FLOOR
        prev_prob = cur_prob

    return NgramLanguageModel(order, probs, bows, vocab)


def sentence_log10(model, tokens):
    """Sum of the conditional log10 probabilities of tokens and </s>."""
    return model.extend(model.start_state, tuple(tokens) + (EOS,))[0]

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
    The model keeps no discounts; the frozen probabilities below, and the
    exact reference_train_kn_lm oracle, pin them through probs.
    """

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
        assert sentence_log10(model, ()) == pytest.approx(model.log10_prob(EOS, (BOS,)))

    def test_training_sentence_beats_shuffle(self):
        sent = ("the", "cat", "sat", "on", "the", "mat")
        model = train_kn_lm([sent, sent], order=3, unk_threshold=0)
        shuffled = ("mat", "the", "on", "sat", "cat", "the")
        assert sentence_log10(model, sent) > sentence_log10(model, shuffled)

    def test_oov_scores_finite(self):
        model = train_kn_lm(HAND_CORPUS, order=2)
        score = sentence_log10(model, ("quux", "a", "zzz"))
        assert math.isfinite(score)


    def test_log10_nonpositive(self, model):
        assert model.log10_nonpositive
        context = next(iter(model.bows))
        raised = NgramLanguageModel(
            model.order, model.probs, {**model.bows, context: 0.5}, model.vocab)
        assert not raised.log10_nonpositive


class TestReferenceEstimator:
    def test_equal_to_reference_on_random_corpora(self):
        """Exact equality, not closeness: the one-pass estimator does the
        same float operations in the same order as the staged one."""
        checked = short = 0
        for seed in range(480):
            rng = random.Random(seed)
            words = [f"w{i}" for i in range(rng.randint(1, 8))]
            longest = rng.choice((1, 2, 6))  # 1 or 2 leave orders 4 and 5 short
            corpus = [tuple(rng.choice(words) for _ in range(rng.randint(0, longest)))
                      for _ in range(rng.randint(1, 12))]
            if not any(corpus):
                continue
            order, threshold = seed % 5 + 1, seed // 5 % 3
            longest = max(map(len, corpus)) + 2
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = train_kn_lm(corpus, order, threshold)
            assert len(caught) == (longest < order), seed
            short += longest < order
            want = reference_train_kn_lm(corpus, order, threshold)
            assert got.order == want.order
            assert got.probs == want.probs, seed
            assert got.bows == want.bows, seed
            assert got.vocab == want.vocab, seed
            checked += 1
        assert checked >= 400 and short >= 20


class TestExtend:
    def test_matches_word_by_word_queries(self, model):
        state = model.start_state
        total, words = 0.0, ("a", "zebra", "b", EOS)
        for word in words:
            mapped = word if word in model.vocab else UNK
            total += model.log10_prob(mapped, state)
            state = (state + (mapped,))[-1:]
        assert model.extend(model.start_state, words) == (total, (EOS,))

    def test_state_is_trimmed_and_oov_mapped(self):
        model = train_kn_lm([("a", "b", "c", "a")] * 2, order=3, unk_threshold=0)
        assert model.start_state == (BOS,)
        assert model.extend((BOS,), ("a", "zebra", "c"))[1] == (UNK, "c")

    def test_unigram_state_is_empty(self):
        model = train_kn_lm([("a", "a", "b")], order=1)
        assert model.start_state == ()
        logp, state = model.extend((), ("a", "zebra"))
        assert state == ()
        assert logp == model.unigram_log10("a") + model.unigram_log10(UNK)


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
            assert abs(sentence_log10(loaded, sent) - sentence_log10(model, sent)) <= 1e-9

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

    def test_space_separated_reads_as_tab_separated(self, tmp_path):
        rng = random.Random(2)
        words = [f"w{i}" for i in range(6)]
        corpus = [tuple(rng.choice(words) for _ in range(rng.randint(1, 6))) for _ in range(30)]
        tabbed = tmp_path / "tab.arpa"
        write_arpa(train_kn_lm(corpus, order=3), tabbed)
        spaced = tmp_path / "space.arpa"
        spaced.write_text(tabbed.read_text(encoding="utf-8").replace("\t", " "), encoding="utf-8")
        assert "\t" not in spaced.read_text(encoding="utf-8")
        a, b = read_arpa(tabbed), read_arpa(spaced)
        assert (a.order, a.probs, a.bows, a.vocab) == (b.order, b.probs, b.bows, b.vocab)

    @pytest.mark.parametrize("bad_line, message", [
        ("nan\tb", "NaN or \\+inf"),
        ("inf\tb", "NaN or \\+inf"),
        ("-0.2\tb\tnan", "NaN or \\+inf"),
        ("-0.2\tb\t+inf", "NaN or \\+inf"),
        ("-0.2\ta", "repeated 1-gram 'a'"),
    ])
    def test_bad_value_or_repeat_named(self, tmp_path, bad_line, message):
        path = tmp_path / "bad.arpa"
        path.write_text(f"\\data\\\nngram 1=2\n\n\\1-grams:\n-0.3\ta\n{bad_line}\n\\end\\\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:6: {message}"):
            read_arpa(path)

    def test_negative_infinity_accepted(self, tmp_path):
        path = tmp_path / "model.arpa"
        path.write_text("\\data\\\nngram 1=2\n\\1-grams:\n-0.3\ta\n-inf\tb\t-inf\n\\end\\\n",
                        encoding="utf-8")
        model = read_arpa(path)
        assert model.probs[1][("b",)] == -math.inf and model.bows[("b",)] == -math.inf

    def test_section_without_header_named(self, tmp_path):
        path = tmp_path / "bad.arpa"
        path.write_text("\\data\\\nngram 1=1\n\\1-grams:\n-0.3\ta\n\\2-grams:\n-0.1\ta a\n"
                        "\\end\\\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:5: .*'ngram 2=' header"):
            read_arpa(path)

    @pytest.mark.parametrize("text", ["", "\\data\\\nngram 0=0\n\\end\\\n"])
    def test_no_unigrams_rejected(self, tmp_path, text):
        path = tmp_path / "empty.arpa"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: no unigrams"):
            read_arpa(path)

    def test_whitespace_only_line_is_blank(self, tmp_path):
        path = tmp_path / "model.arpa"
        path.write_text("\\data\\\nngram 1=1\n \t\n\\1-grams:\n-0.3\ta\n\\end\\\n",
                        encoding="utf-8")
        assert read_arpa(path).probs[1] == {("a",): -0.3}

    @pytest.mark.parametrize("order, gram, unknown", [
        (2, "a zz", "zz"),
        (2, "zz a", "zz"),
        (2, "zz yy", "zz yy"),
        (3, "a b zz", "zz"),
    ])
    def test_ngram_with_word_outside_unigrams_named(self, tmp_path, order, gram, unknown):
        # log10_prob maps such a word to <unk> first, so the entry could
        # never be queried
        path = tmp_path / "bad.arpa"
        path.write_text(f"\\data\\\nngram 1=2\nngram {order}=1\n\\1-grams:\n-0.3\ta\t-0.2\n"
                        f"-0.5\tb\t-0.1\n\\{order}-grams:\n-0.1\t{gram}\n\\end\\\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:8: {order}-gram "
                                             rf"'{gram}' has words that are not 1-grams: "
                                             rf"'{unknown}'$"):
            read_arpa(path)

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
