import copy
import dataclasses
import gc
import pickle
import random
from collections import Counter

import numpy as np
import pytest

from traitmt import stylometry
from traitmt.stylometry import (
    MAX_SUFFIX,
    MIN_FRACTION,
    Chunk,
    FeatureSpace,
    TaggedSentence,
    TaggerModel,
    build_feature_space,
    chunk_corpus,
    default_function_words,
    vectorize_chunk,
)


def sent(tokens, tags=None):
    tokens = tuple(tokens.split())
    if tags is None:
        tags = ("W",) * len(tokens)
    else:
        tags = tuple(tags.split())
    return TaggedSentence(tokens, tags)


def reference_train(model, sentences):
    """TaggerModel.train by the plain per-token loop: each token adds 1 to
    its own counter, to the global counter and to each suffix counter the
    token is longer than."""
    model._memo.clear()
    for s in sentences:
        for token, tag in zip(s.tokens, s.tags):
            model.token_tags.setdefault(token, Counter())[tag] += 1
            model.global_tags[tag] += 1
            for n in range(1, MAX_SUFFIX + 1):
                if len(token) > n:
                    model.suffix_tags.setdefault(token[-n:], Counter())[tag] += 1
    return model


def random_word(rng, alphabet, longest):
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(1, longest)))


def random_tagged_corpus(rng, n_sentences):
    """Tokens of length 1-5 over three letters, so that tokens repeat and
    their suffixes collide; sentences of 0-8 tokens."""
    corpus = []
    for _ in range(n_sentences):
        k = rng.randint(0, 8)
        corpus.append(TaggedSentence(tuple(random_word(rng, "abc", 5) for _ in range(k)),
                                     tuple(rng.choice("PQRS") for _ in range(k))))
    return corpus


def tables(model):
    return model.token_tags, model.suffix_tags, model.global_tags


def reference_vectorize_values(sentences, space):
    """Feature values of a chunk of these sentences by the plain per-token
    loop: float counts over index maps built for this call, trigrams cut by
    slicing."""
    n = sum(len(s.tokens) for s in sentences)
    fw_index = {w: i for i, w in enumerate(space.function_words)}
    tri_index = {t: len(space.function_words) + i for i, t in enumerate(space.pos_trigrams)}
    counts = {}
    for s in sentences:
        for token in s.tokens:
            idx = fw_index.get(token.lower())
            if idx is not None:
                counts[idx] = counts.get(idx, 0.0) + 1.0
        padded = ("<S>", "<S>") + s.tags + ("</S>", "</S>")
        for i in range(len(padded) - 2):
            idx = tri_index.get(padded[i: i + 3])
            if idx is not None:
                counts[idx] = counts.get(idx, 0.0) + 1.0
    return {i: c / n for i, c in counts.items()}


def reference_pos_trigrams(chunk_sentences, k):
    """Top-k padded POS trigrams by one count over every sentence of every
    chunk's sentence list, ties in lexicographic order."""
    counts = {}
    for sentences in chunk_sentences:
        for s in sentences:
            padded = ("<S>", "<S>") + s.tags + ("</S>", "</S>")
            for i in range(len(padded) - 2):
                counts[padded[i: i + 3]] = counts.get(padded[i: i + 3], 0) + 1
    return tuple(sorted(counts, key=lambda t: (-counts[t], t))[:k])


def chunk_counts(chunk):
    """Everything a chunk holds, in a form == compares."""
    tags, codes, counts = chunk.pos_trigram_counts
    return (chunk.label, chunk.status, chunk.language, chunk.token_count, chunk.words,
            chunk.word_counts.tolist(), tags, codes.tolist(), counts.tolist())


def dense(values, space):
    """A reference {index: value} dict as a row over the space's columns."""
    row = np.zeros(space.dimension)
    row[list(values)] = list(values.values())
    return row


class TestTagger:
    def train_model(self):
        data = [
            sent("the dog runs", "D N V"),
            sent("the dogs run quickly", "D N V ADV"),
            sent("dog bites man", "N V N"),
            sent("happily the man runs", "ADV D N V"),
        ]
        return TaggerModel().train(data)

    def test_majority_tag(self):
        model = self.train_model()
        assert model.tag_token("dog") == "N"
        assert model.tag_token("the") == "D"

    def test_suffix_fallback(self):
        model = self.train_model()
        # unseen token; training suffix "-ly" only ever carried ADV
        assert model.tag_token("slowly") == "ADV"

    def test_global_majority_for_opaque_token(self):
        model = self.train_model()
        tag = model.tag_token("zzz")
        assert tag in {"D", "N", "V", "ADV"}
        counts = model.global_tags
        assert counts[tag] == max(counts.values())

    def test_tag_agrees_with_tag_token(self):
        model = self.train_model()
        tokens = "the dog runs slowly zzz the dog".split()
        for _ in range(2):  # the second pass reads the memo
            assert model.tag(tokens).tags == tuple(model.tag_token(t) for t in tokens)

    def test_tag_keeps_the_token_tuple(self):
        model = self.train_model()
        tokens = ("the", "dog", "zzz")
        assert model.tag(tokens).tokens is tokens

    def test_tagged_sentence_is_slotted_and_pickles(self):
        tagged = sent("the dog", "D N")
        assert not hasattr(tagged, "__dict__")
        assert pickle.loads(pickle.dumps(tagged)) == tagged

    def test_tagged_sentence_is_frozen_and_length_checked(self):
        tagged = sent("the dog", "D N")
        for field in ("tokens", "tags"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(tagged, field, ("x",))
        assert dataclasses.replace(tagged, tags=("N", "V")) == sent("the dog", "N V")
        with pytest.raises(ValueError, match="length mismatch: 2 vs 1"):
            dataclasses.replace(tagged, tags=("N",))
        with pytest.raises(ValueError, match="length mismatch: 1 vs 2"):
            TaggedSentence(("the",), ("D", "N"))

    def test_training_after_tagging_changes_tags(self):
        model = self.train_model()
        assert model.tag(["dog", "slowly"]).tags == ("N", "ADV")
        model.train([sent("dog dog dog slowly", "V V V ADJ")] * 2)
        assert model.tag(["dog", "slowly"]).tags == ("V", "ADJ")

    @pytest.mark.parametrize("seed", range(5))
    def test_train_matches_per_token_reference(self, seed):
        rng = random.Random(seed)
        first, second = random_tagged_corpus(rng, 40), random_tagged_corpus(rng, 40)
        # mostly unseen words, some longer than any training token or with a new letter
        probes = tuple(random_word(rng, "abcd", 6) for _ in range(200))
        model, reference = TaggerModel(), TaggerModel()
        for corpus in (first, second):  # the second call adds to the first's tables
            model.train(s for s in corpus)
            reference_train(reference, corpus)
            assert tables(model) == tables(reference)
            assert model.tag(probes).tags == reference.tag(probes).tags

    def test_failed_training_leaves_the_model_as_it_was(self):
        def broken():
            yield sent("dog dog slowly zzz", "V V ADJ V")
            yield TaggedSentence(("dog",), ())  # refused: length mismatch

        model = self.train_model()
        tokens = ("dog", "slowly", "zzz", "cat")
        before_tags = model.tag(tokens).tags
        before = copy.deepcopy(tables(model))
        with pytest.raises(ValueError, match="length mismatch"):
            model.train(broken())
        assert tables(model) == before
        assert model.tag(tokens).tags == before_tags
        untrained = TaggerModel()
        with pytest.raises(ValueError, match="length mismatch"):
            untrained.train(broken())
        assert not untrained.trained

    def test_untrained_model_rejected(self):
        with pytest.raises(RuntimeError, match="untrained"):
            TaggerModel().tag(["word"])
        with pytest.raises(RuntimeError, match="untrained"):
            TaggerModel().tag(())
        with pytest.raises(RuntimeError, match="untrained"):
            TaggerModel().train([]).tag(())


class TestChunking:
    def test_closes_past_target(self):
        sents = [sent(" ".join(["w"] * n)) for n in (400, 400, 300)]
        chunks = chunk_corpus(sents, target=1000)
        assert len(chunks) == 1
        assert chunks[0].token_count == 1100

    def test_trailing_chunk_discarded(self):
        sents = [sent(" ".join(["w"] * n)) for n in (400, 400, 300, 200)]
        chunks = chunk_corpus(sents, target=1000)
        assert len(chunks) == 1  # trailing 200 < 500 dropped

    def test_trailing_chunk_kept_at_half(self):
        sents = [sent(" ".join(["w"] * n)) for n in (1000, 500)]
        chunks = chunk_corpus(sents, target=1000)
        assert [c.token_count for c in chunks] == [1000, 500]

    def test_exact_target_single_sentence(self):
        chunks = chunk_corpus([sent(" ".join(["w"] * 1000))], target=1000)
        assert len(chunks) == 1 and chunks[0].token_count == 1000

    def test_no_sentence_in_two_chunks(self):
        rng = random.Random(1)
        sents = [sent(" ".join([f"w{i}"] * rng.randint(5, 60))) for i in range(200)]
        chunks = chunk_corpus(sents, target=300)
        # each sentence's one word lands in one chunk with its full count,
        # and the chunks hold a prefix of the sentences, in order
        flat = [(w, int(n)) for c in chunks for w, n in zip(c.words, c.word_counts)]
        assert flat == [(s.tokens[0], len(s)) for s in sents[: len(flat)]]

    def test_chunk_holds_counts_only(self):
        rng = random.Random(6)
        sents = []
        for _ in range(120):
            n = rng.randint(1, 20)
            sents.append(TaggedSentence(tuple(f"w{rng.randint(0, 30)}" for _ in range(n)),
                                        tuple(rng.choice("DNV") for _ in range(n))))
        chunks = chunk_corpus(sents, target=100)
        assert len(chunks) > 5
        held = {id(obj) for s in sents for obj in (s, s.tokens, s.tags)}
        seen, todo = set(), list(chunks)
        while todo:
            obj = todo.pop()
            if id(obj) in seen or isinstance(obj, type):
                continue
            seen.add(id(obj))
            assert id(obj) not in held and not isinstance(obj, TaggedSentence)
            todo += gc.get_referents(obj)

    def test_chunk_reads_its_sentences_once(self):
        sents = [sent("the cat sat", "D N V"), sent("a dog", "D N"), sent("the end", "D N")]
        from_list = Chunk(sents, "M", "original", "en")
        from_generator = Chunk((s for s in sents), "M", "original", "en")
        assert chunk_counts(from_generator) == chunk_counts(from_list)
        assert from_list.words == ("the", "cat", "sat", "a", "dog", "end")
        assert from_list.word_counts.tolist() == [2, 1, 1, 1, 1, 1]
        assert from_list.token_count == 7

    @pytest.mark.parametrize("target", [0, -5])
    def test_target_below_one_rejected(self, target):
        # at target 0 every sentence would close a chunk, the empty one too
        sents = [sent("a b"), sent(""), sent("c")]
        with pytest.raises(ValueError, match="target"):
            chunk_corpus(sents, target=target)

    def test_trailing_chunk_without_tokens_discarded(self):
        # at target 1 the size test alone keeps any trailing token, and
        # refuses a trailing chunk of empty sentences
        chunks = chunk_corpus([sent("a"), sent("")], target=1)
        assert [c.token_count for c in chunks] == [1]
        assert chunk_corpus([sent(""), sent("")], target=1) == []
        chunks = chunk_corpus([sent("a b"), sent(""), sent("c")], target=2)
        assert [c.token_count for c in chunks] == [2, 1]

    def test_size_bounds(self):
        rng = random.Random(2)
        sents = [sent(" ".join(["w"] * rng.randint(1, 80))) for _ in range(500)]
        target = 250
        chunks = chunk_corpus(sents, target=target)
        max_len = max(len(s) for s in sents)
        for c in chunks:
            assert c.token_count >= target * MIN_FRACTION
            assert c.token_count < target + max_len


class TestFeatureSpace:
    def test_trigram_inventory_with_padding(self):
        chunks = [Chunk([sent("a b c", "D N V"), sent("d e f", "D N V")], "M", "original", "en")]
        fs = build_feature_space(chunks, ["the"], k=10)
        expected = {
            ("<S>", "<S>", "D"),
            ("<S>", "D", "N"),
            ("D", "N", "V"),
            ("N", "V", "</S>"),
            ("V", "</S>", "</S>"),
        }
        assert set(fs.pos_trigrams) == expected
        # equal counts -> pure lexicographic order
        assert list(fs.pos_trigrams) == sorted(expected)

    def test_top_k_cut(self):
        chunks = [Chunk([sent("a b c", "D N V")], "M", "original", "en")]
        fs = build_feature_space(chunks, ["the"], k=2)
        assert len(fs.pos_trigrams) == 2

    def test_fw_dedup(self):
        chunks = [Chunk([sent("a", "X")], "M", "original", "en")]
        fs = build_feature_space(chunks, ["The", "the", "of"], k=1)
        assert fs.function_words == ("the", "of")

    def test_k_validation(self):
        chunks = [Chunk([sent("a", "X")], "M", "original", "en")]
        with pytest.raises(ValueError):
            build_feature_space(chunks, ["the"], k=0)

    def test_feature_name_index_outside_dimension(self):
        fs = FeatureSpace(("the", "of"), (("D", "N", "V"),))
        assert fs.names() == ["fw:the", "fw:of", "pos:D+N+V"]
        for index in (-1, -3, 3, 10):
            with pytest.raises(IndexError, match=rf"feature index {index} outside \[0, 3\)"):
                fs.feature_name(index)

    def test_deterministic(self):
        rng = random.Random(3)
        tags = ["D", "N", "V", "P"]
        sents = [
            sent(" ".join(["w"] * 6), " ".join(rng.choice(tags) for _ in range(6)))
            for _ in range(50)
        ]
        chunks = [Chunk(sents, "M", "original", "en")]
        a = build_feature_space(chunks, ["the", "of"], k=20)
        b = build_feature_space(chunks, ["the", "of"], k=20)
        assert a == b


class TestVectorize:
    def test_fw_normalization(self):
        words = ["the"] * 50 + ["x"] * 948
        chunk = Chunk([TaggedSentence(tuple(words), ("W",) * 998)], "M", "original", "en")
        fs = FeatureSpace(("the",), ())
        vec = vectorize_chunk(chunk, fs)
        assert vec.values[0] == pytest.approx(50 / 998)

    def test_no_fw_occurrences(self):
        chunk = Chunk([sent("x y z")], "M", "original", "en")
        fs = FeatureSpace(("the", "of"), ())
        vec = vectorize_chunk(chunk, fs)
        assert np.array_equal(vec.values, [0.0, 0.0])

    def test_case_insensitive_fw(self):
        chunk = Chunk([sent("The THE the")], "M", "original", "en")
        fs = FeatureSpace(("the",), ())
        assert vectorize_chunk(chunk, fs).values[0] == pytest.approx(1.0)

    def test_trigram_values_match_hand_count(self):
        chunks = [Chunk([sent("a b c", "D N V"), sent("d e f", "D N V")], "M", "original", "en")]
        fs = build_feature_space(chunks, ["a"], k=10)
        vec = vectorize_chunk(chunks[0], fs)
        # each of the 5 padded trigrams occurs twice over 6 tokens
        assert vec.values.shape == (fs.dimension,)
        tri_values = vec.values[fs.fw_dimension:]
        assert np.count_nonzero(tri_values) == 5
        for value in tri_values[tri_values != 0]:
            assert value == pytest.approx(2 / 6)

    def test_sentence_permutation_invariance(self):
        rng = random.Random(4)
        sents = [
            sent("the cat sat", "D N V"),
            sent("a dog ran quickly", "D N V ADV"),
            sent("the end", "D N"),
        ]
        chunks = [Chunk(sents, "M", "original", "en")]
        fs = build_feature_space(chunks, ["the", "a"], k=50)
        base = vectorize_chunk(chunks[0], fs).values
        for _ in range(5):
            shuffled = sents[:]
            rng.shuffle(shuffled)
            v = vectorize_chunk(Chunk(shuffled, "M", "original", "en"), fs).values
            assert np.array_equal(v, base)

    def test_duplication_scale_invariance(self):
        sents = [sent("the cat sat", "D N V"), sent("dog ran", "N V")]
        chunks = [Chunk(sents, "M", "original", "en")]
        fs = build_feature_space(chunks, ["the"], k=50)
        once = vectorize_chunk(chunks[0], fs).values
        twice = vectorize_chunk(Chunk(sents * 2, "M", "original", "en"), fs).values
        assert np.array_equal(np.flatnonzero(once), np.flatnonzero(twice))
        assert twice.tolist() == pytest.approx(once.tolist())

    def test_matches_reference_loop(self):
        rng = random.Random(5)
        words = ["the", "The", "THE", "of", "Of", "and", "AND", "cat", "Dog", "x", "ran"]
        # real tags spelled like the boundaries, and tags whose sorted order
        # differs from the order a chunk first meets them in
        tags = ["D", "N", "V", "ADV", "P", "<S>", "</S>", "a", "Z", "é", "<"]
        fw = ["the", "of", "and", "but"]

        def random_sentences():
            chunk_tags = rng.sample(tags, rng.randint(1, len(tags)))
            sents = []
            for _ in range(rng.randint(1, 6)):
                n = rng.choice([0, 0] + list(range(1, 13)))  # empty sentences too
                sents.append(TaggedSentence(tuple(rng.choice(words) for _ in range(n)),
                                            tuple(rng.choice(chunk_tags) for _ in range(n))))
            return sents

        def check_vectors(chunk_sentences, fs):
            for sents in chunk_sentences:
                chunk = Chunk(sents, "M", "original", "en")
                if chunk.token_count:
                    assert np.array_equal(vectorize_chunk(chunk, fs).values,
                                          dense(reference_vectorize_values(sents, fs), fs))

        for _ in range(300):
            chunk_sents = [random_sentences() for _ in range(rng.randint(1, 3))]
            others = [random_sentences() for _ in range(2)]  # tags the space may never have seen
            distinct = len(reference_pos_trigrams(chunk_sents, 10**9))
            k = rng.randint(1, distinct + 5)
            fs = build_feature_space([Chunk(sents, "M", "original", "en") for sents in chunk_sents],
                                     fw, k=k)
            assert fs.pos_trigrams == reference_pos_trigrams(chunk_sents, k)
            check_vectors(chunk_sents + others, fs)

        unseen = [sent("the cat", "NEW D"), TaggedSentence((), ())]
        fs = build_feature_space([Chunk([sent("the dog ran", "D N V")], "M", "original", "en")],
                                 fw, k=50)
        check_vectors([unseen], fs)

        # 2,100 tags: trigram codes pass 2**31
        many = [f"T{i:04d}" for i in range(2100)]
        rng.shuffle(many)
        chunk_sents = [[TaggedSentence(("x",) * len(part), tuple(part))
                   for part in (many[:1000], many[1000:], many[::-7])],
                  [TaggedSentence(("of",) * 3, ("T2099", "T2098", "T0000"))]]
        chunks = [Chunk(sents, "M", "original", "en") for sents in chunk_sents]
        assert chunks[0].pos_trigram_counts[1].max() > 2**31
        fs = build_feature_space(chunks, fw, k=3000)
        assert fs.pos_trigrams == reference_pos_trigrams(chunk_sents, 3000)
        check_vectors(chunk_sents, fs)

    def test_trigrams_counted_once_per_chunk(self, monkeypatch):
        calls = []
        count = stylometry._count_pos_trigrams
        monkeypatch.setattr(stylometry, "_count_pos_trigrams",
                            lambda tag_seqs: calls.append(tag_seqs) or count(tag_seqs))
        chunks = [Chunk([sent("a b c", "D N V"), sent("d e", "D N")], "M", "original", "en"),
                  Chunk([sent("f g", "N V")], "F", "original", "en")]
        assert calls == [[("D", "N", "V"), ("D", "N")], [("N", "V")]]
        fs = build_feature_space(chunks, ["a"], k=10)
        for chunk in chunks:
            vectorize_chunk(chunk, fs)
        assert len(calls) == 2

    def test_empty_chunk_rejected(self):
        fs = FeatureSpace(("the",), ())
        with pytest.raises(ValueError):
            vectorize_chunk(Chunk([], "M", "original", "en"), fs)


class TestIo:
    def test_fw_file_loading(self):
        # the rule the vendored lists are read by
        text = "# comment\nthe\nof # trailing\n\nand\n"
        assert stylometry._parse_function_words(text) == ["the", "of", "and"]

    def test_vendored_lists(self):
        for lang in ("en", "fr"):
            words = default_function_words(lang)
            assert len(words) > 100
        with pytest.raises(ValueError):
            default_function_words("xx")
