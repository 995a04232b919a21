import pickle
import random
import re

import pytest

from traitmt import stylometry
from traitmt.stylometry import (
    Chunk,
    FeatureSpace,
    TaggedSentence,
    TaggerModel,
    build_feature_space,
    chunk_corpus,
    default_function_words,
    load_function_words,
    read_vectors,
    vectorize_chunk,
    write_vectors,
)


def sent(tokens, tags=None):
    tokens = tuple(tokens.split())
    if tags is None:
        tags = ("W",) * len(tokens)
    else:
        tags = tuple(tags.split())
    return TaggedSentence(tokens, tags)


def reference_vectorize_values(chunk, space):
    """Feature values by the plain per-token loop: float counts over
    index maps built for this call, trigrams cut by slicing."""
    n = chunk.token_count
    fw_index = {w: i for i, w in enumerate(space.function_words)}
    tri_index = {t: len(space.function_words) + i for i, t in enumerate(space.pos_trigrams)}
    counts = {}
    for s in chunk.sentences:
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


def reference_pos_trigrams(chunks, k):
    """Top-k padded POS trigrams by one count over every sentence of every
    chunk, ties in lexicographic order."""
    counts = {}
    for chunk in chunks:
        for s in chunk.sentences:
            padded = ("<S>", "<S>") + s.tags + ("</S>", "</S>")
            for i in range(len(padded) - 2):
                counts[padded[i: i + 3]] = counts.get(padded[i: i + 3], 0) + 1
    return tuple(sorted(counts, key=lambda t: (-counts[t], t))[:k])


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

    def test_training_after_tagging_changes_tags(self):
        model = self.train_model()
        assert model.tag(["dog", "slowly"]).tags == ("N", "ADV")
        model.train([sent("dog dog dog slowly", "V V V ADJ")] * 2)
        assert model.tag(["dog", "slowly"]).tags == ("V", "ADJ")

    def test_untrained_model_rejected(self):
        with pytest.raises(RuntimeError):
            TaggerModel().tag(["word"])


class TestChunking:
    def test_closes_past_target(self):
        sents = [sent(" ".join(["w"] * n)) for n in (400, 400, 300)]
        chunks = chunk_corpus(sents, target=1000)
        assert len(chunks) == 1
        assert chunks[0].token_count == 1100

    def test_trailing_chunk_discarded(self):
        sents = [sent(" ".join(["w"] * n)) for n in (400, 400, 300, 200)]
        chunks = chunk_corpus(sents, target=1000, min_fraction=0.5)
        assert len(chunks) == 1  # trailing 200 < 500 dropped

    def test_trailing_chunk_kept_at_half(self):
        sents = [sent(" ".join(["w"] * n)) for n in (1000, 500)]
        chunks = chunk_corpus(sents, target=1000, min_fraction=0.5)
        assert [c.token_count for c in chunks] == [1000, 500]

    def test_exact_target_single_sentence(self):
        chunks = chunk_corpus([sent(" ".join(["w"] * 1000))], target=1000)
        assert len(chunks) == 1 and chunks[0].token_count == 1000

    def test_no_sentence_in_two_chunks(self):
        rng = random.Random(1)
        sents = [sent(" ".join([f"w{i}"] * rng.randint(5, 60))) for i in range(200)]
        chunks = chunk_corpus(sents, target=300)
        flat = [s for c in chunks for s in c.sentences]
        assert flat == sents[: len(flat)]

    def test_size_bounds(self):
        rng = random.Random(2)
        sents = [sent(" ".join(["w"] * rng.randint(1, 80))) for _ in range(500)]
        target, frac = 250, 0.5
        chunks = chunk_corpus(sents, target=target, min_fraction=frac)
        max_len = max(len(s) for s in sents)
        for c in chunks:
            assert c.token_count >= target * frac
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
        assert vec.values == {}

    def test_case_insensitive_fw(self):
        chunk = Chunk([sent("The THE the")], "M", "original", "en")
        fs = FeatureSpace(("the",), ())
        assert vectorize_chunk(chunk, fs).values[0] == pytest.approx(1.0)

    def test_trigram_values_match_hand_count(self):
        chunks = [Chunk([sent("a b c", "D N V"), sent("d e f", "D N V")], "M", "original", "en")]
        fs = build_feature_space(chunks, ["a"], k=10)
        vec = vectorize_chunk(chunks[0], fs)
        # each of the 5 padded trigrams occurs twice over 6 tokens
        tri_indices = [i for i in vec.values if i >= fs.fw_dimension]
        assert len(tri_indices) == 5
        for i in tri_indices:
            assert vec.values[i] == pytest.approx(2 / 6)

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
            assert v == base

    def test_duplication_scale_invariance(self):
        sents = [sent("the cat sat", "D N V"), sent("dog ran", "N V")]
        chunks = [Chunk(sents, "M", "original", "en")]
        fs = build_feature_space(chunks, ["the"], k=50)
        once = vectorize_chunk(chunks[0], fs).values
        twice = vectorize_chunk(Chunk(sents * 2, "M", "original", "en"), fs).values
        assert set(once) == set(twice)
        for i in once:
            assert twice[i] == pytest.approx(once[i])

    def test_matches_reference_loop(self):
        rng = random.Random(5)
        words = ["the", "The", "THE", "of", "Of", "and", "AND", "cat", "Dog", "x", "ran"]
        tags = ["D", "N", "V", "ADV", "P"]
        for _ in range(200):
            chunks = []
            for _ in range(rng.randint(1, 3)):
                sents = []
                for _ in range(rng.randint(1, 6)):
                    n = rng.randint(1, 12)
                    sents.append(TaggedSentence(tuple(rng.choice(words) for _ in range(n)),
                                                tuple(rng.choice(tags) for _ in range(n))))
                chunks.append(Chunk(sents, "M", "original", "en"))
            k = rng.randint(1, 40)
            fs = build_feature_space(chunks, ["the", "of", "and", "but"], k=k)
            assert fs.pos_trigrams == reference_pos_trigrams(chunks, k)
            for chunk in chunks:
                assert vectorize_chunk(chunk, fs).values == reference_vectorize_values(chunk, fs)

    def test_trigrams_counted_once_per_chunk(self, monkeypatch):
        calls = []
        padded = stylometry._padded_trigrams
        monkeypatch.setattr(stylometry, "_padded_trigrams",
                            lambda tags: calls.append(tags) or padded(tags))
        chunks = [Chunk([sent("a b c", "D N V"), sent("d e", "D N")], "M", "original", "en"),
                  Chunk([sent("f g", "N V")], "F", "original", "en")]
        fs = build_feature_space(chunks, ["a"], k=10)
        for chunk in chunks:
            vectorize_chunk(chunk, fs)
        assert len(calls) == 3

    def test_empty_chunk_rejected(self):
        fs = FeatureSpace(("the",), ())
        with pytest.raises(ValueError):
            vectorize_chunk(Chunk([], "M", "original", "en"), fs)


class TestIo:
    def test_vector_file_round_trip(self, tmp_path):
        chunks = [
            Chunk([sent("the cat sat", "D N V")], "M", "original", "en"),
            Chunk([sent("a dog ran", "D N V")], "F", "human", "en"),
        ]
        fs = build_feature_space(chunks, ["the", "a"], k=10)
        vectors = [vectorize_chunk(c, fs) for c in chunks]
        path = tmp_path / "v.fv"
        write_vectors(vectors, fs, path)
        loaded, names = read_vectors(path)
        assert names == fs.names()
        assert len(loaded) == 2
        for orig, back in zip(vectors, loaded):
            assert back.label == orig.label and back.status == orig.status
            assert set(back.values) == set(orig.values)
            for i in orig.values:
                assert back.values[i] == pytest.approx(orig.values[i], abs=1e-12)

    @pytest.mark.parametrize("line, message", [
        ("M\toriginal", "not enough values"),
        ("M\toriginal\t0:x", "could not convert"),
        ("M\toriginal\tx:0.5", "invalid literal"),
        ("M\toriginal\t2:0.5", "feature index 2 outside the 2 header names"),
        ("M\toriginal\t-1:0.5", "feature index -1 outside"),
        ("M\toriginal\t0:0.5 0:0.7", "repeated feature index 0"),
        ("M\toriginal\t1:0.5 0:0.2 1:0.5", "repeated feature index 1"),
        ("#2", "expected feature header #2"),
        ("#x\tthe", "expected feature header #2"),
    ])
    def test_vector_file_error_names_line(self, tmp_path, line, message):
        p = tmp_path / "v.fv"
        p.write_text(f"#0\tthe\n#1\ta\n{line}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}:3: .*{message}"):
            read_vectors(p)

    def test_fw_file_loading(self, tmp_path):
        p = tmp_path / "fw.txt"
        p.write_text("# comment\nthe\nof # trailing\n\nand\n", encoding="utf-8")
        assert load_function_words(p) == ["the", "of", "and"]

    def test_vendored_lists(self):
        for lang in ("en", "fr", "de"):
            words = default_function_words(lang)
            assert len(words) > 100
        with pytest.raises(ValueError):
            default_function_words("xx")
