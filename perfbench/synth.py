"""Seeded generator of a speaker-annotated parallel corpus.

The source side is English-like, built from a small tagged grammar: real
English function words plus invented content words whose suffix marks
their part of speech and whose frequencies follow a Zipf law.  The target
side is French-like: every source word has a fixed gloss, adjectives move
behind their noun (local reordering), "not" becomes two words, and
adjectives and some nouns take a gender-marked form that follows the
speaker's gender.  Male and female speakers draw their grammar choices
from skewed rates (personal pronouns, intensifiers, "the"/"of" phrases),
each speaker with a jitter of its own, so the stylometric signal is real
but imperfect.

Speaker genders are not written into the corpus.  They are recovered
through a JSON-lines evidence fixture of the kind annotate.py reads:
knowledge-base entries, name- and image-service lookups (some
disagreeing, some under the confidence threshold) and manual labels.

The vocabulary is drawn once from a fixed seed, so every corpus speaks
the same language; speakers, training sentences and evidence are drawn
from the seed and held-out sentences from their own seed, so the same
seeds give the same files byte for byte.
"""

from __future__ import annotations

import datetime
import json
import random
from dataclasses import dataclass

# source word -> target gloss, per closed-class tag
FUNCTION_WORDS = {
    "DT": {"the": "le", "a": "un", "this": "ce", "these": "ces", "some": "quelques",
           "each": "chaque", "all": "tous", "no": "aucun"},
    "PRP": {"i": "je", "we": "nous", "you": "vous", "he": "il", "she": "elle",
            "they": "ils", "it": "on"},
    "PRPS": {"my": "mon", "our": "notre", "your": "votre", "his": "son",
             "their": "leur"},
    "IN": {"of": "de", "in": "dans", "on": "sur", "with": "avec", "for": "pour",
           "about": "selon", "from": "depuis", "by": "par", "under": "sous",
           "between": "entre", "without": "sans"},
    "CC": {"and": "et", "but": "mais", "or": "ou"},
    "MD": {"can": "peut", "must": "doit", "should": "devrait", "will": "va",
           "may": "pourrait"},
    "RB": {"very": "tres", "quite": "assez", "so": "si", "also": "aussi",
           "however": "cependant", "therefore": "donc", "perhaps": "peut-etre",
           "only": "seulement", "then": "puis"},
    "VBZ": {"is": "est", "was": "etait", "has": "a"},
    "NEG": {"not": ("ne", "pas")},
}

CONTENT_SUFFIX = {"NN": ("ion", "ment", "ness", "ity"), "VB": ("ize", "ate", "ify"),
                  "JJ": ("ive", "ous", "al", "ful")}
TARGET_SUFFIX = {"NN": "ion", "VB": "er", "JJ": "if"}
SYLLABLES = ("ba", "ko", "mi", "tu", "re", "sa", "lo", "ne", "pi", "da",
             "fe", "gu", "vo", "ri", "ta", "ze")

LANGUAGE_SEED = 20161017
NOUNS, VERBS, ADJECTIVES = 600, 250, 200   # vocabulary sizes per part of speech
MAX_LEN = 16        # source words per sentence, full stop not counted
SIGNAL = 0.1        # gender shift of each style rate (F minus M)
JITTER = 0.3        # width of each speaker's own uniform jitter on a rate
TREEBANK = 1500     # tagger training sentences per side

INTENSIFIERS = ("very", "quite", "so")
ADVERBS = ("also", "however", "therefore", "perhaps", "only", "then")

# one source function word -> its translation's feature name, for
# following markers from original into translated text
MARKER_LEXICON = {
    f"fw:{src}": f"fw:{tgt if isinstance(tgt, str) else tgt[0]}"
    for words in FUNCTION_WORDS.values() for src, tgt in words.items()
}


@dataclass(frozen=True)
class Style:
    """Per-speaker grammar rates; gender shifts their means."""

    pronoun_subject: float
    intensifier: float
    definite: float
    of_phrase: float
    adverb: float
    modal: float


@dataclass(frozen=True)
class Speaker:
    speaker_id: str
    gender: str
    style: Style


@dataclass
class SyntheticData:
    pairs: list            # (source text, target text, speaker id, session date)
    held_out: dict         # set name -> pairs in the same layout
    speakers: list         # Speaker
    evidence: list         # JSON-serialisable evidence records
    src_treebank: list     # (tokens, tags) for tagger training
    tgt_treebank: list


def _zipf_words(rng, tag, count):
    """`count` distinct invented words of one part of speech with their
    target glosses, most frequent first, plus cumulative Zipf weights."""
    words, seen = [], set()
    while len(words) < count:
        stem = "".join(rng.choice(SYLLABLES) for _ in range(rng.randint(2, 3)))
        word = stem + rng.choice(CONTENT_SUFFIX[tag])
        if word not in seen:
            seen.add(word)
            gloss = "".join(reversed([stem[i:i + 2] for i in range(0, len(stem), 2)]))
            words.append((word, gloss + TARGET_SUFFIX[tag]))
    cum, total = [], 0.0
    for rank in range(1, count + 1):
        total += 1.0 / rank
        cum.append(total)
    return words, cum


class _Lexicon:
    def __init__(self, rng):
        self.content = {
            "NN": _zipf_words(rng, "NN", NOUNS),
            "VB": _zipf_words(rng, "VB", VERBS),
            "JJ": _zipf_words(rng, "JJ", ADJECTIVES),
        }
        # about one noun in four has a synonym that female speakers prefer
        self.gendered_nouns = {
            src for i, (src, _) in enumerate(self.content["NN"][0]) if i % 4 == 1
        }

    def content_word(self, rng, tag):
        words, cum = self.content[tag]
        return rng.choices(words, cum_weights=cum)[0]


def _make_style(rng, gender, jitter):
    """Rates for one speaker: a gender shift of +-SIGNAL/2 on each rate
    plus a uniform speaker jitter of width `jitter`."""
    sign = 1.0 if gender == "F" else -1.0

    def rate(base, direction):
        value = base + direction * sign * SIGNAL / 2 + rng.uniform(-jitter / 2, jitter / 2)
        return min(max(value, 0.02), 0.98)

    return Style(
        pronoun_subject=rate(0.45, 1),
        intensifier=rate(0.30, 1),
        definite=rate(0.50, -1),
        of_phrase=rate(0.35, -1),
        adverb=rate(0.20, 1),
        modal=rate(0.25, -1),
    )


def _target_form(word, tag, gender, gendered_nouns, rng):
    """Gender-marked target form: adjectives agree with the speaker
    (90% of the time), gendered nouns switch synonym (80%)."""
    src, gloss = word
    draw = rng.random()
    if gender == "F" and tag == "JJ" and draw < 0.9:
        return gloss + "e"
    if gender == "F" and tag == "NN" and src in gendered_nouns and draw < 0.8:
        return gloss[:-3] + "ette"
    return gloss


class _SentenceMaker:
    """Generates one tagged sentence pair from a speaker's style."""

    def __init__(self, lexicon):
        self.lex = lexicon

    def _fw(self, tag, word=None, rng=None):
        table = FUNCTION_WORDS[tag]
        if word is None:
            word = rng.choice(sorted(table))
        return word, table[word]

    def noun_phrase(self, rng, style, gender, out):
        """Appends (src word, src tag, tgt words, tgt tags) groups; a JJ NN
        pair is reordered NN JJ on the target side."""
        if rng.random() < style.definite:
            det = self._fw("DT", "the")
        elif rng.random() < 0.3:
            det = self._fw("PRPS", rng=rng)
        else:
            det = self._fw("DT", rng=rng)
        out.append(([det[0]], ["DT"], [det[1]], ["DT"]))
        noun = self.lex.content_word(rng, "NN")
        noun_tgt = _target_form(noun, "NN", gender, self.lex.gendered_nouns, rng)
        if rng.random() < 0.4:
            adv = None
            if rng.random() < style.intensifier:
                adv = self._fw("RB", rng.choice(INTENSIFIERS))
            adj = self.lex.content_word(rng, "JJ")
            adj_tgt = _target_form(adj, "JJ", gender, self.lex.gendered_nouns, rng)
            if adv is None:
                out.append(([adj[0], noun[0]], ["JJ", "NN"], [noun_tgt, adj_tgt], ["NN", "JJ"]))
            else:
                out.append(([adv[0], adj[0], noun[0]], ["RB", "JJ", "NN"],
                            [noun_tgt, adv[1], adj_tgt], ["NN", "RB", "JJ"]))
        else:
            out.append(([noun[0]], ["NN"], [noun_tgt], ["NN"]))
        if rng.random() < style.of_phrase / 2:
            prep = self._fw("IN", "of")
            out.append(([prep[0]], ["IN"], [prep[1]], ["IN"]))
            self.noun_phrase(rng, _no_recursion(style), gender, out)

    def clause(self, rng, style, gender, out):
        if rng.random() < style.pronoun_subject:
            prp = self._fw("PRP", rng=rng)
            out.append(([prp[0]], ["PRP"], [prp[1]], ["PRP"]))
        else:
            self.noun_phrase(rng, style, gender, out)
        if rng.random() < style.modal:
            md = self._fw("MD", rng=rng)
            out.append(([md[0]], ["MD"], [md[1]], ["MD"]))
            if rng.random() < 0.25:
                out.append((["not"], ["NEG"], ["ne", "pas"], ["NEG", "NEG"]))
            verb = self.lex.content_word(rng, "VB")
            out.append(([verb[0]], ["VB"], [verb[1]], ["VB"]))
            self.noun_phrase(rng, style, gender, out)
        elif rng.random() < 0.5:
            vbz = self._fw("VBZ", rng=rng)
            out.append(([vbz[0]], ["VBZ"], [vbz[1]], ["VBZ"]))
            if rng.random() < style.intensifier:
                adv = self._fw("RB", rng.choice(INTENSIFIERS))
                out.append(([adv[0]], ["RB"], [adv[1]], ["RB"]))
            adj = self.lex.content_word(rng, "JJ")
            out.append(([adj[0]], ["JJ"],
                        [_target_form(adj, "JJ", gender, self.lex.gendered_nouns, rng)], ["JJ"]))
        else:
            verb = self.lex.content_word(rng, "VB")
            out.append(([verb[0]], ["VB"], [verb[1]], ["VB"]))
            self.noun_phrase(rng, style, gender, out)
        if rng.random() < style.of_phrase:
            prep = self._fw("IN", rng=rng)
            out.append(([prep[0]], ["IN"], [prep[1]], ["IN"]))
            self.noun_phrase(rng, _no_recursion(style), gender, out)

    def sentence(self, rng, style, gender, max_len):
        """One sentence pair as (src tokens, src tags, tgt tokens, tgt tags),
        at most max_len source tokens before the final full stop."""
        while True:
            out = []
            if rng.random() < style.adverb:
                adv = self._fw("RB", rng.choice(ADVERBS))
                out.append(([adv[0]], ["RB"], [adv[1]], ["RB"]))
            self.clause(rng, style, gender, out)
            if rng.random() < 0.2:
                cc = self._fw("CC", rng=rng)
                out.append(([cc[0]], ["CC"], [cc[1]], ["CC"]))
                self.clause(rng, style, gender, out)
            src = [w for group in out for w in group[0]]
            if len(src) <= max_len:
                break
        src_tags = [t for group in out for t in group[1]]
        tgt = [w for group in out for w in group[2]]
        tgt_tags = [t for group in out for t in group[3]]
        return src + ["."], src_tags + ["."], tgt + ["."], tgt_tags + ["."]


def _no_recursion(style):
    return Style(style.pronoun_subject, style.intensifier, style.definite, 0.0,
                 style.adverb, style.modal)


def _detokenize(tokens, rng):
    """Surface text: the full stop sticks to the last word, and now and
    then a comma follows the first word, so the tokenizer has real work."""
    text = " ".join(tokens[:-1]) + tokens[-1]
    if len(tokens) > 4 and rng.random() < 0.1:
        first, rest = text.split(" ", 1)
        text = first + ", " + rest
    return text


# evidence kinds dealt to every 16 speakers of one gender; the last two
# leave the gender unresolved (1 in 8 speakers)
EVIDENCE_MIX = ("kb", "agree", "image", "kb", "agree", "manual", "kb", "agree",
                "kb", "agree", "image", "kb", "agree", "kb", "disagree", "low")
UNRESOLVED = ("disagree", "low")


def _evidence(rng, speaker, kind):
    """Lookup records for one speaker: knowledge base (outvoting a
    low-confidence name lookup), two agreeing services, the image service
    alone, a manual label, two disagreeing services, or a name lookup under
    the confidence threshold."""
    g = speaker.gender
    other = "M" if g == "F" else "F"

    def conf(lo, hi):
        return round(rng.uniform(lo, hi), 3)

    records = {
        "kb": [("knowledge_base", g, 1.0), ("name_service", other, conf(0.5, 0.89))],
        "agree": [("name_service", g, conf(0.9, 1.0)), ("image_service", g, conf(0.9, 1.0))],
        "image": [("image_service", g, conf(0.9, 1.0))],
        "manual": [("manual", g, 1.0)],
        "disagree": [("name_service", g, conf(0.9, 1.0)), ("image_service", other, conf(0.9, 1.0))],
        "low": [("name_service", g, conf(0.3, 0.8))],
    }[kind]
    return [{"speaker_id": speaker.speaker_id, "source": source, "label": label,
             "confidence": confidence} for source, label, confidence in records]


def generate(seed, n_pairs, n_speakers, held_out, held_out_seed):
    """A seeded corpus of n_pairs sentence pairs from n_speakers speakers
    (half of them female), tagger training sentences for both sides, and
    one held-out set per entry of held_out.

    held_out is a sequence of (name, lengths); the set gets one pair per
    entry of lengths, whose source side has exactly that many tokens (full
    stop included), alternately from a male and a female speaker whose
    gender the evidence resolves.  Held-out sentences are drawn from
    held_out_seed alone, so a fixed training corpus can be tested on new
    sentences, and new training data on the same sentences.
    """
    # the language is fixed; the seeds draw speakers and sentences from it
    lexicon = _Lexicon(random.Random(LANGUAGE_SEED))
    rng = random.Random(seed)
    maker = _SentenceMaker(lexicon)
    kinds = {g: [EVIDENCE_MIX[i % len(EVIDENCE_MIX)] for i in range((n_speakers + 1) // 2)]
             for g in "MF"}
    for dealt in kinds.values():
        rng.shuffle(dealt)
    speakers, evidence, resolved = [], [], []
    for k in range(n_speakers):
        gender = "F" if k % 2 else "M"
        spk = Speaker(f"spk{k:03d}", gender, _make_style(rng, gender, JITTER))
        kind = kinds[gender][k // 2]
        speakers.append(spk)
        evidence += _evidence(rng, spk, kind)
        if kind not in UNRESOLVED:
            resolved.append(spk)
    start = datetime.date(2010, 1, 4)

    def pair(spk, src, tgt, r=rng):
        date = start + datetime.timedelta(days=r.randrange(1500))
        return (_detokenize(src, r), _detokenize(tgt, r), spk.speaker_id, date)

    pairs, turns = [], []
    for _ in range(n_pairs):
        # every speaker gets its turn once per round, in a shuffled order
        if not turns:
            turns = list(speakers)
            rng.shuffle(turns)
        spk = turns.pop()
        src, _, tgt, _ = maker.sentence(rng, spk.style, spk.gender, MAX_LEN)
        pairs.append(pair(spk, src, tgt))
    # held-out sentences come from typical speakers of each gender; a
    # resolved speaker of that gender is named as the one who said it
    typical = {g: _make_style(rng, g, 0.0) for g in "MF"}
    sets = {}
    for name, lengths in held_out:
        held_rng = random.Random(f"{held_out_seed}-{name}")
        sets[name] = []
        for k, length in enumerate(lengths):
            gender = "MF"[k % 2]
            while True:
                src, _, tgt, _ = maker.sentence(held_rng, typical[gender], gender, length - 1)
                if len(src) == length:
                    break
            spk = held_rng.choice([s for s in resolved if s.gender == gender])
            sets[name].append(pair(spk, src, tgt, held_rng))
    src_bank, tgt_bank = [], []
    for _ in range(TREEBANK):
        spk = speakers[rng.randrange(n_speakers)]
        src, src_tags, tgt, tgt_tags = maker.sentence(rng, spk.style, spk.gender, MAX_LEN)
        src_bank.append((tuple(src), tuple(src_tags)))
        tgt_bank.append((tuple(tgt), tuple(tgt_tags)))
    return SyntheticData(pairs, sets, speakers, evidence, src_bank, tgt_bank)


def write_evidence(records, path):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
