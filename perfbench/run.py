"""Seeded end-to-end benchmark of traitmt's two experiments.

    python3 perfbench/run.py --workload tune --seed 1 --seconds 20 --trace 0

Run from the repository root.  The benchmark generates its own
speaker-annotated corpus from --seed (synth.py), drives the public
functions of traitmt (imported from ./src) on it, checks the outputs and
prints one line per metric, the output digests, and as the last line one
JSON object: {"correct", "attempted", "failed", "metrics"}.

Workloads (the timed body of each is one "pass"):
  train      build the general, M and F systems: one phrase table and one
             KN LM each.  Operation: one system build.
  translate  decode the held-out test set, each sentence with the system
             personalized for its speaker's gender (general + gender table,
             general + gender LM), then corpus BLEU.  Operation: one test
             sentence (options + 1-best decode).
  tune       one round of MERT on the general system over a dev set: the
             n-best callback builds options and decodes n-best lists, then
             coordinate ascent picks weights.  Operation: one n-best decode.
  style      gender classification of original (source) and translated
             (target) text: tokenize, tag, chunk, vectorize, balance,
             10-fold CV, info gain, PCA, then marker persistence.
             Operation: one text variant through the pipeline.
translate and tune train their systems on one fixed corpus (SYSTEM_SEED)
and draw the test or dev sentences from --seed; train and style draw their
corpus from --seed.  BENCHMARK.json gates tune and style only; train
and translate are kept for runs by hand.  A translate pass takes about
11 s, too long for enough passes in the time a full benchmark may take;
its decoder is gated through tune.  train is dominated by align's phrase
extraction and scoring, which slow far less than the probe (below) when
the host is busy: in one run a pass took 1.33 times as long while the
probe took 1.83 times as long, so its reference time moved with the
host's load by up to a fifth.  align and lm training still run in tune's
set-up (setup_s) and in its traced run.

Set-up (corpus generation, TSV round trip, cleaning, speaker annotation,
tokenization, tagger training and the models a workload needs) runs at
least three times and for at least three reference seconds.  Then the pass
runs a fixed number of times: --seconds over the workload's pass time at
the reference speed (PASS_REF_S), and at least three, so that every run of
a seed attempts the same operations however fast the machine is.  Every
pass must give bit-identical outputs.  Each pass starts from a garbage
collection, so that it does not pay for the previous pass's garbage.

Times are given in reference seconds.  The cores of a shared host change
speed for seconds or minutes at a time (on a two-vCPU Xeon guest a
pure-Python loop ran 1.8 times slower for most of some minutes), which no
number of repeats averages away.  So a pass or set-up is timed in
segments (one operation, or a stage of one), a short fixed pure-Python
probe (probe()) runs between segments, and each segment's wall time is
scaled by the probe's reference time over the mean of the probes around
it.  Code that slows less than the interpreter under contention (numpy,
memory-bound loops) is then over-corrected a little while the core runs
slow.

--trace 0 reports the end-to-end metrics: setup_s (median set-up), run_s
(each segment's median over the passes, summed), peak_rss_mb, and quality
(translate: test BLEU x100; tune: tuned dev BLEU x100; style: 10-fold CV
accuracy pooled over both text variants; train: BLEU x100 of a greedy
monotone gloss of the test set with the general table).  Per-operation
latency percentiles are not among them: drawn sentences of equal length
cost up to three times as much as one another to decode, so from seed to
seed the percentiles spread wider than any bound a regression gate could
use.
--trace 1 sets up once with timing wrappers installed (tracing.py), runs
one pass without and one with them, and reports the per-layer metrics,
each layer's busy and self time, trace.overhead_frac, the untraced
pass's time (run.wall_s) and its nearest-rank p50 and p90 operation time
(run.op_p50_ms, run.op_p90_ms).  All of these are wall times, not scaled,
so they move with the host's speed, trace.overhead_frac too.
The spans go to .perfbench/spans-<workload>-<seed>.jsonl.

A decode that finds no complete hypothesis is a failed operation.  In
translate its sentence scores as an empty translation; in tune it is
searched again monotonically (distortion limit 0), because MERT cannot go
on without a candidate list for every dev sentence.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import gc
import hashlib
import inspect
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# one single-threaded process: pin the BLAS pools before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread pins)

import synth  # noqa: E402
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train", "translate", "tune", "style")
SETUP_REPEATS = 3      # at least this many set-ups,
SETUP_SECONDS = 3.0    # and more while they took less reference seconds than this
MIN_PASSES = 3
# Reference seconds of one pass, which set how many passes fill --seconds.
PASS_REF_S = {"train": 2.6, "translate": 11.0, "tune": 6.6, "style": 3.0}
# The probe loop, and its time on an unloaded core of an Intel Xeon
# (Sapphire Rapids) with CPython 3, the reference core of all *_s metrics.
PROBE_LOOPS = 8000
PROBE_REF_S = 0.0028

TRAIN_PAIRS = 800
# translate and tune decode with systems trained on this seed's corpus, like
# a deployed system that meets new sentences, and --seed draws the
# sentences.  Systems trained on different seeds' corpora of this size
# decode the same dev set up to a quarter faster or slower than one another.
SYSTEM_SEED = 0
SPEAKERS = 40
LM_ORDER = 3
# source lengths (tokens, full stop included) of the held-out sets: mostly
# 3-10 words, as most training sentences are, and one sentence each of
# 12-16 words, where the decoder's search is widest
TEST_LENGTHS = sum(([n] * k for n, k in zip(range(4, 12), (12, 16, 16, 16, 14, 10, 7, 4))),
                   []) + [13, 14, 15, 16, 17]
# The dev set's long sentences are the ones where a search can dead-end.
# They cost most of a pass, so there are ten of them: with five, the time of
# a pass depended on which five were drawn (run_s spread 0.21 over ten seeds).
DEV_LENGTHS = sum(([n] * k for n, k in zip(range(4, 11), (18, 18, 18, 16, 10, 6, 4))), []) + [
    13, 13, 14, 14, 15, 15, 16, 16, 17, 17]
# One round: the n-best lists at the default weights, then coordinate ascent.
# A second round decodes at the weights the first picked, and those differ so
# much from seed to seed that a pass took 5.9-11.4 s over ten seeds.
MERT_ROUNDS = 1
MERT_NBEST = 20
MERT_RESTARTS = 2
MERT_SEED = 0          # restarts are drawn the same way for every data seed
STYLE_PAIRS = 30000
STYLE_SPEAKERS = 300
STYLE_LAP_PAIRS = 2000  # tokenize and tag are timed in segments of this many pairs
CV_FOLDS = 10


class CheckFailed(Exception):
    """An output check did not hold."""


def check(condition, message):
    if not condition:
        raise CheckFailed(message)


def digest(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def percentile(values, q):
    """Nearest-rank q-th percentile (0 < q < 100): one of the values, never
    above the largest."""
    ordered = sorted(values)
    return ordered[math.ceil(q / 100 * len(ordered)) - 1]


def import_library():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import traitmt  # noqa: F401
        from traitmt import (align, analysis, annotate, bleu, classify, corpus, decoder,
                             lm, mert, stylometry)
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import traitmt from {src}: {exc}")
    if Path(traitmt.__file__).resolve().parent.parent != src:
        sys.exit(f"perfbench: traitmt was imported from {traitmt.__file__}, not from {src}")
    return dict(align=align, analysis=analysis, annotate=annotate, bleu=bleu,
                classify=classify, corpus=corpus, decoder=decoder, lm=lm, mert=mert,
                stylometry=stylometry)


@dataclasses.dataclass
class PassResult:
    failed: int          # failed operations
    outputs: object      # what quality(), digests() and check_outputs() read


def probe():
    """Seconds a fixed pure-Python loop takes: how fast the core runs now."""
    t0 = time.perf_counter()
    counts, total = {}, 0.0
    for i in range(PROBE_LOOPS):
        key = (i & 63, i % 7)
        counts[key] = counts.get(key, 0.0) + math.log1p(i)
        total += counts[key] * 0.5
    return time.perf_counter() - t0


class Clock:
    """Times a pass or a set-up in segments, split at lap().

    raw holds each segment's wall time.  With probing on, ref holds it in
    reference seconds: scaled by PROBE_REF_S over the mean of the probe run
    just before and just after the segment, so that a stretch in which the
    shared core runs slow does not read as a slower program.  The probes
    run between segments and are not counted in either.  op_times holds the
    wall time of each operation, the segments up to each lap(op_done=True).
    """

    def __init__(self, probing):
        self.probing = probing
        self.raw, self.ref, self.op_times = [], [], []
        self.op_s = 0.0
        self.before = probe() if probing else PROBE_REF_S
        self.t0 = time.perf_counter()

    def lap(self, op_done=False):
        elapsed = time.perf_counter() - self.t0
        after = probe() if self.probing else PROBE_REF_S
        self.raw.append(elapsed)
        self.ref.append(elapsed * 2.0 * PROBE_REF_S / (self.before + after))
        self.op_s += elapsed
        if op_done:
            self.op_times.append(self.op_s)
            self.op_s = 0.0
        self.before = after
        self.t0 = time.perf_counter()


class Workload:
    """Set-up, one timed pass, and the untimed reading of its outputs."""

    n_pairs = TRAIN_PAIRS
    n_speakers = SPEAKERS
    held_out = (("test", TEST_LENGTHS),)
    fixed_training = False   # True: train on SYSTEM_SEED's corpus, test on --seed's sentences

    def __init__(self, lib, seed, work):
        self.seed, self.work = seed, work
        for name, module in lib.items():
            setattr(self, name, module)

    # -- set-up shared by all workloads ---------------------------------
    def prepare(self):
        """Generate, round-trip through TSV, clean and annotate; returns
        split name -> list of AnnotatedSentencePair with resolved gender."""
        corpus_seed = SYSTEM_SEED if self.fixed_training else self.seed
        data = synth.generate(corpus_seed, self.n_pairs, self.n_speakers, self.held_out,
                              held_out_seed=self.seed)
        self.synth_data = data
        evidence_path = self.work / "evidence.jsonl"
        synth.write_evidence(data.evidence, evidence_path)
        records = self.annotate.annotate_speakers(self.annotate.load_evidence_fixture(evidence_path))
        gender_of = {r.speaker_id: r.resolved_gender for r in records}
        true_gender = {s.speaker_id: s.gender for s in data.speakers}
        check(all(g in ("U", true_gender[s]) for s, g in gender_of.items()),
              "annotate_speakers resolved a speaker to the wrong gender")
        splits = {"train": data.pairs, **data.held_out}
        out = {}
        for name, pairs in splits.items():
            rows = [self.corpus.AnnotatedSentencePair(src, tgt, sid, "en", date)
                    for src, tgt, sid, date in pairs]
            path = self.work / f"{name}.tsv"
            self.corpus.save_corpus(self.corpus.Corpus(rows, "en", "fr"), path)
            loaded, errors = self.corpus.load_corpus(path)
            check(not errors, f"{path.name}: load_corpus reported {errors[:3]}")
            cleaned, _ = self.corpus.clean_corpus(loaded)
            out[name] = [dataclasses.replace(p, gender=gender_of.get(p.speaker_id, "U"))
                         for p in cleaned.pairs]
        for name, _ in self.held_out:
            check(len(out[name]) == len(splits[name]), f"cleaning dropped {name} pairs")
            check(all(p.gender in ("M", "F") for p in out[name]),
                  f"a {name} speaker has no resolved gender")
        return out

    def tokenized(self, pairs):
        tok = self.corpus.tokenize
        return [(tok(p.source_text, "en").tokens, tok(p.target_text, "fr").tokens, p.gender)
                for p in pairs]

    def build_system(self, pairs, clock):
        table, _, _ = self.align.build_phrase_table([(s, t) for s, t, _ in pairs])
        clock.lap()
        model = self.lm.train_kn_lm([t for _, t, _ in pairs], LM_ORDER)
        return table, model

    def check_tables(self, tables):
        for table in tables:
            for src, row in table.entries.items():
                total = sum(scores[0] for scores in row.values())
                check(abs(total - 1.0) <= 1e-9, f"phi_fwd of {src} sums to {total}")

    def table_digest(self, tables):
        """sha256 over the write_phrase_table bytes of each table."""
        lines = []
        for k, table in enumerate(tables):
            path = self.work / f"table{k}.txt"
            self.align.write_phrase_table(table, path)
            lines.append(hashlib.sha256(path.read_bytes()).hexdigest())
        return digest(lines)

    def check_scores(self, scored):
        """Every decoder score must equal weights . features."""
        for score, weights, features in scored:
            model = float(weights @ features)
            check(abs(score - model) <= 1e-6 * max(1.0, abs(model)),
                  f"decoder score {score} != weights.features {model}")

    def setup(self):
        raise NotImplementedError

    def run_pass(self):
        raise NotImplementedError

    def quality(self, outputs):
        raise NotImplementedError

    def digests(self, outputs):
        raise NotImplementedError

    def check_outputs(self, outputs):
        raise NotImplementedError


class Train(Workload):
    def setup(self, clock):
        splits = self.prepare()
        clock.lap()
        self.train = self.tokenized(splits["train"])
        self.test = self.tokenized(splits["test"])

    def run_pass(self, clock):
        tables = []
        for gender in (None, "M", "F"):
            pairs = [p for p in self.train if gender is None or p[2] == gender]
            table, _ = self.build_system(pairs, clock)
            clock.lap(op_done=True)
            tables.append(table)
        return PassResult(0, tables)

    def quality(self, tables):
        glosses = [self.gloss(tables[0], src) for src, _, _ in self.test]
        return 100.0 * self.bleu.compute_bleu(glosses, [tgt for _, tgt, _ in self.test])

    @staticmethod
    def gloss(table, sentence):
        """Greedy longest-match monotone gloss with the best phi_fwd target."""
        out, i = [], 0
        while i < len(sentence):
            for j in range(min(len(sentence), i + table.max_len), i, -1):
                row = table.lookup(sentence[i:j])
                if row:
                    out.extend(max(sorted(row), key=lambda tgt: row[tgt][0]))
                    i = j
                    break
            else:
                out.append(sentence[i])
                i += 1
        return out

    def digests(self, tables):
        return {"phrase_tables": self.table_digest(tables)}

    def check_outputs(self, tables):
        self.check_tables(tables)


class Translate(Workload):
    fixed_training = True

    def setup(self, clock):
        splits = self.prepare()
        clock.lap()
        train = self.tokenized(splits["train"])
        self.test = self.tokenized(splits["test"])
        clock.lap()
        self.general = self.build_system(train, clock)
        clock.lap()
        self.personal = {}
        for g in "MF":
            self.personal[g] = self.build_system([p for p in train if p[2] == g], clock)
            clock.lap()
        self.layout = self.decoder.FeatureLayout(2, 2)
        self.weights = self.layout.default_weights()

    def run_pass(self, clock):
        decoder = self.decoder
        best, failed = [], 0
        for src, _, gender in self.test:
            table, model = self.personal[gender]
            tables, lms = [self.general[0], table], [self.general[1], model]
            options = decoder.build_options(src, tables, weights=self.weights, layout=self.layout)
            try:
                result = decoder.decode(src, options, self.weights, lms, layout=self.layout)[0]
            except RuntimeError as exc:
                if "no complete hypothesis" not in str(exc):
                    raise
                result = None
                failed += 1
            clock.lap(op_done=True)
            best.append(result)
        hyps = [() if r is None else r.target for r in best]
        score = self.bleu.compute_bleu(hyps, [tgt for _, tgt, _ in self.test])
        return PassResult(failed, {"best": best, "bleu": score})

    def tables(self):
        return [self.general[0], self.personal["M"][0], self.personal["F"][0]]

    @functools.cached_property
    def tables_digest(self):
        return self.table_digest(self.tables())

    def quality(self, outputs):
        return 100.0 * outputs["bleu"]

    def digests(self, outputs):
        lines = []
        for k, r in enumerate(outputs["best"]):
            lines += [f"{k} ||| <failed>"] if r is None else self.decoder.format_nbest(
                k, [r], self.layout)
        return {"phrase_tables": self.tables_digest, "onebest": digest(lines)}

    def check_outputs(self, outputs):
        self.check_tables(self.tables())
        check(0.0 <= outputs["bleu"] <= 1.0, f"BLEU {outputs['bleu']} outside [0, 1]")
        check(len(outputs["best"]) == len(self.test), "not every test sentence was decoded")
        self.check_scores((r.score, self.weights, r.features)
                          for r in outputs["best"] if r is not None)


class Tune(Workload):
    held_out = (("dev", DEV_LENGTHS),)
    fixed_training = True

    def setup(self, clock):
        splits = self.prepare()
        clock.lap()
        train = self.tokenized(splits["train"])
        self.dev = self.tokenized(splits["dev"])
        clock.lap()
        self.table, self.model = self.build_system(train, clock)
        self.layout = self.decoder.FeatureLayout(1, 1)
        self.initial = self.layout.default_weights()

    def run_pass(self, clock):
        decoder = self.decoder
        calls = []   # (weights, n-best list, dead-ended)

        def decode_nbest(sentence, weights, nbest_size):
            options = decoder.build_options(sentence, [self.table], weights=weights,
                                            layout=self.layout)
            kwargs = dict(layout=self.layout, nbest_size=nbest_size)
            try:
                results, failed = decoder.decode(sentence, options, weights, [self.model],
                                                 **kwargs), False
            except RuntimeError as exc:
                if "no complete hypothesis" not in str(exc):
                    raise
                # tune_weights stops once a dev sentence has no candidate, so
                # the failed operation is searched again monotonically, which
                # cannot dead-end
                results, failed = decoder.decode(sentence, options, weights, [self.model],
                                                 distortion_limit=0, **kwargs), True
            clock.lap(op_done=True)
            calls.append((weights.copy(), results, failed))
            return [(r.target, r.features) for r in results]

        weights, dev_bleu = self.mert.tune_weights(
            decode_nbest, [s for s, _, _ in self.dev], [t for _, t, _ in self.dev],
            self.initial, iterations=MERT_ROUNDS, nbest_size=MERT_NBEST,
            restarts=MERT_RESTARTS, seed=MERT_SEED)
        failed = sum(f for _, _, f in calls)
        return PassResult(failed, {"calls": calls, "weights": weights, "dev_bleu": dev_bleu})

    def quality(self, outputs):
        return 100.0 * outputs["dev_bleu"]

    def digests(self, outputs):
        # tune_weights decodes the dev set in order, once per round
        lines = [line for k, (_, results, _) in enumerate(outputs["calls"])
                 for line in self.decoder.format_nbest(k % len(self.dev), results, self.layout)]
        lines += [repr(w) for w in outputs["weights"].tolist()]
        return {"phrase_tables": self.tables_digest, "nbest": digest(lines)}

    @functools.cached_property
    def tables_digest(self):
        return self.table_digest([self.table])

    def pool_stats(self, outputs):
        """(distinct candidates in the final pool, share of returned
        candidates that were new to their sentence's pool)."""
        pool = [set() for _ in self.dev]
        returned = new = 0
        for k, (_, results, _) in enumerate(outputs["calls"]):
            for r in results:
                returned += 1
                new += r.target not in pool[k % len(self.dev)]
                pool[k % len(self.dev)].add(r.target)
        return sum(len(p) for p in pool), new / returned if returned else 0.0

    def check_outputs(self, outputs):
        self.check_tables([self.table])
        check(0.0 <= outputs["dev_bleu"] <= 1.0, f"tuned BLEU {outputs['dev_bleu']} outside [0, 1]")
        self.check_scores((r.score, weights, r.features)
                          for weights, results, _ in outputs["calls"] for r in results)
        first_round = [results for _, results, _ in outputs["calls"][:len(self.dev)]]
        mert, bleu = self.mert, self.bleu
        pool = [[mert.PoolCandidate(r.target, tuple(r.features), bleu.sentence_stats(r.target, ref))
                 for r in results]
                for results, (_, ref, _) in zip(first_round, self.dev)]
        initial = mert.pool_bleu(pool, self.initial)
        check(outputs["dev_bleu"] >= initial - 1e-12,
              f"tuned BLEU {outputs['dev_bleu']} below the initial weights' {initial}")


class Style(Workload):
    n_pairs = STYLE_PAIRS
    n_speakers = STYLE_SPEAKERS
    held_out = ()

    def setup(self, clock):
        splits = self.prepare()
        clock.lap()
        stylometry = self.stylometry
        # chunks follow each speaker's sentences, as in a session record
        self.pairs = sorted((p for p in splits["train"] if p.gender in ("M", "F")),
                            key=lambda p: p.speaker_id)
        self.variants = []
        for status, lang, bank, side in (
            (stylometry.ORIGINAL, "en", self.synth_data.src_treebank, "source_text"),
            (stylometry.HUMAN_TRANSLATED, "fr", self.synth_data.tgt_treebank, "target_text"),
        ):
            tagger = stylometry.TaggerModel().train(
                stylometry.TaggedSentence(toks, tags) for toks, tags in bank)
            fw = stylometry.default_function_words(lang)
            self.variants.append((status, lang, side, tagger, fw))
            clock.lap()

    def run_pass(self, clock):
        stylometry, classify, analysis = self.stylometry, self.classify, self.analysis
        variants = []
        for status, lang, side, tagger, fw in self.variants:
            tagged = {"F": [], "M": []}
            for k, p in enumerate(self.pairs, 1):
                tokens = self.corpus.tokenize(getattr(p, side), lang).tokens
                tagged[p.gender].append(tagger.tag(tokens))
                if k % STYLE_LAP_PAIRS == 0:
                    clock.lap()
            chunks = []
            for gender in ("F", "M"):
                chunks += stylometry.chunk_corpus(tagged[gender], label=gender,
                                                  status=status, language=lang)
            clock.lap()
            space = stylometry.build_feature_space(chunks, fw)
            vectors = [stylometry.vectorize_chunk(c, space) for c in chunks]
            X, labels = classify.vectors_to_matrix(vectors, space.dimension)
            rows, labels = classify.balance_classes(list(X), labels, self.seed)
            X = np.array(rows)
            clock.lap()
            report = classify.cross_validate(X, labels, folds=CV_FOLDS, seed=self.seed)
            clock.lap()
            ranking = analysis.info_gain_rank(X, labels, space.names())
            clock.lap()
            projection = analysis.pca_project(X[:, :space.fw_dimension], labels,
                                              [status] * len(labels))
            clock.lap(op_done=True)
            variants.append((status, report, ranking, projection, len(labels), space.dimension))
        persistence = analysis.marker_persistence_report(
            {v[0]: v[2] for v in variants}, stylometry.ORIGINAL, lexicon=synth.MARKER_LEXICON,
            cross_language=True)
        return PassResult(0, {"variants": variants, "persistence": persistence})

    def quality(self, outputs):
        confusion = sum(v[1].confusion for v in outputs["variants"])
        return 100.0 * float(np.trace(confusion) / confusion.sum())

    def digests(self, outputs):
        analysis = self.analysis
        lines = []
        for status, report, ranking, projection, _, _ in outputs["variants"]:
            lines += [status, analysis.markers_csv(ranking), analysis.projection_csv(projection)]
        return {"cv_confusion": digest(repr(v[1].confusion.tolist()) for v in outputs["variants"]),
                "markers": digest(lines + [outputs["persistence"].as_csv()])}

    def check_outputs(self, outputs):
        for status, report, ranking, _, n, dimension in outputs["variants"]:
            check(0.0 <= report.accuracy <= 100.0,
                  f"{status} CV accuracy {report.accuracy} outside [0, 100]")
            check(int(report.confusion.sum()) == n, f"{status} CV did not classify every chunk once")
            check(len(ranking) == dimension, f"{status} info gain did not rank every feature")


CLASSES = {"train": Train, "translate": Translate, "tune": Tune, "style": Style}


def pass_count(workload_name, seconds):
    """Passes in a run: as many as fill `seconds` at the reference speed,
    and at least MIN_PASSES.  The count does not depend on how fast the
    machine runs, so every run of a seed attempts the same operations."""
    return max(MIN_PASSES, round(seconds / PASS_REF_S[workload_name]))


def timed_passes(workload, passes):
    """Run the pass `passes` times.  Returns (Clock, PassResult) per pass and
    the first pass's digests, which every later pass must reproduce."""
    runs, first = [], None
    for _ in range(passes):
        gc.collect()
        clock = Clock(probing=True)
        result = workload.run_pass(clock)
        clock.lap()
        runs.append((clock, result))
        digests = workload.digests(result.outputs)
        first = first or digests
        check(digests == first, "a repeated pass gave different outputs")
        check(len(clock.ref) == len(runs[0][0].ref), "a repeated pass ran other segments")
        if len(runs) > 1:
            result.outputs = None   # only the first pass's outputs are read
    return runs, first


def end_to_end(make_workload, passes):
    setups = []
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
        workload = None   # drop the previous set-up before timing the next
        gc.collect()
        clock = Clock(probing=True)
        workload = make_workload()
        workload.setup(clock)
        clock.lap()
        setups.append(sum(clock.ref))
    runs, digests = timed_passes(workload, passes)
    outputs = runs[0][1].outputs
    workload.check_outputs(outputs)
    # each segment's median over the passes, summed
    run_s = sum(statistics.median(times) for times in zip(*(c.ref for c, _ in runs)))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (run_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "quality": (workload.quality(outputs), "%"),
    }
    info = {"ops": sum(len(c.op_times) for c, _ in runs),
            "failed": sum(r.failed for _, r in runs), "digests": digests}
    return metrics, info


def traced(make_workload, spans_path):
    """Set up once under the tracer, then run one pass without it and one
    with it.  Neither is probed: tune's probes would run inside
    mert.tune_weights and count as its time."""
    tracer = tracing.Tracer()
    for name, hook in tracing_hooks().items():
        tracer.on_result(name, hook)
    workload = make_workload()
    with tracer, tracer.span("bench.setup"):
        workload.setup(Clock(probing=False))
    gc.collect()
    plain_clock = Clock(probing=False)
    plain = workload.run_pass(plain_clock)
    plain_clock.lap()
    gc.collect()
    clock = Clock(probing=False)
    with tracer:
        with tracer.span("bench.run"):
            result = workload.run_pass(clock)
        clock.lap()
    digests = workload.digests(result.outputs)
    check(digests == workload.digests(plain.outputs), "tracing changed the outputs")
    workload.check_outputs(result.outputs)
    tracer.write_spans(spans_path)
    metrics = per_layer(tracer, workload, result, plain_clock, clock)
    info = {"ops": len(plain_clock.op_times) + len(clock.op_times),
            "failed": plain.failed + result.failed, "digests": digests}
    return metrics, info


def tracing_hooks():
    """Counters read from arguments and return values, by traced name."""
    from traitmt import classify, decoder

    smo_sig = inspect.signature(classify.smo_solve)
    decode_sig = inspect.signature(decoder.decode)

    def add(key, value):
        def hook(counts, args, kwargs, result):
            counts[key] += value(result)
        return hook

    def smo(counts, args, kwargs, result):
        bound = smo_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        counts["smo_iters"] += result[2]
        counts["smo_capped"] += result[2] >= bound.arguments["max_iter"]

    def decode(counts, args, kwargs, result):
        bound = decode_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        counts["nbest_requested"] += bound.arguments["nbest_size"]
        counts["nbest_returned"] += len(result)

    def annotate(counts, args, kwargs, result):
        counts["speakers"] += len(result)
        counts["unknown"] += sum(r.resolved_gender == "U" for r in result)

    def clean(counts, args, kwargs, result):
        counts["pairs_in"] += result[1].total
        counts["pairs_kept"] += result[1].kept

    def ranked(counts, args, kwargs, result):
        counts["features_ranked"] += len(result)
        counts["weak"] += sum(m.weak for m in result)

    def space(counts, args, kwargs, result):
        counts["dimension"] = max(counts["dimension"], result.dimension)

    return {
        "corpus.clean_corpus": clean,
        "corpus.tokenize": add("tokens", lambda r: len(r.tokens)),
        "annotate.annotate_speakers": annotate,
        "stylometry.TaggerModel.tag": add("tagged_tokens", len),
        "stylometry.chunk_corpus": add("chunks", len),
        "stylometry.build_feature_space": space,
        "classify.smo_solve": smo,
        "analysis.info_gain_rank": ranked,
        "align.ibm1_em": add("ibm1_iters", lambda r: len(r[1])),
        "align.extract_phrases": add("extracted", len),
        "align.score_phrases": add("table_entries", len),
        "lm.train_kn_lm": add("ngrams", lambda r: sum(len(v) for v in r.probs.values())),
        "decoder.build_options": add("options", lambda r: sum(len(v) for v in r.values())),
        "decoder.decode": decode,
    }


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(tracer, workload, result, plain_clock, clock):
    t, n, c = tracer.total, tracer.calls, tracer.counts
    rounds, pool, pool_new = 0.0, 0, 0.0
    if isinstance(workload, Tune):
        rounds = len(result.outputs["calls"]) / len(workload.dev)
        pool, pool_new = workload.pool_stats(result.outputs)
    m = {
        "corpus.io_s": t("corpus.load_corpus", "corpus.save_corpus"),
        "corpus.clean_s": t("corpus.clean_corpus"),
        "corpus.kept_frac": ratio(c["pairs_kept"], c["pairs_in"]),
        "corpus.tokenize_s": t("corpus.tokenize"),
        "corpus.tokens": c["tokens"],
        "annotate.resolve_s": t("annotate.annotate_speakers"),
        "annotate.speakers": c["speakers"],
        "annotate.unknown_frac": ratio(c["unknown"], c["speakers"]),
        "stylometry.tag_s": t("stylometry.TaggerModel.tag"),
        "stylometry.tagged_tokens": c["tagged_tokens"],
        "stylometry.chunk_s": t("stylometry.chunk_corpus"),
        "stylometry.chunks": c["chunks"],
        "stylometry.space_s": t("stylometry.build_feature_space"),
        "stylometry.vectorize_s": t("stylometry.vectorize_chunk"),
        "stylometry.dimension": c["dimension"],
        "classify.cv_s": t("classify.cross_validate"),
        "classify.svm_trains": n("classify.train_svm"),
        "classify.svm_train_s": t("classify.train_svm"),
        "classify.smo_iters": c["smo_iters"],
        "classify.smo_capped": c["smo_capped"],
        "classify.predicts": n("classify.predict"),
        "analysis.info_gain_s": t("analysis.info_gain_rank"),
        "analysis.features_ranked": c["features_ranked"],
        "analysis.weak_frac": ratio(c["weak"], c["features_ranked"]),
        "analysis.pca_s": t("analysis.pca_project"),
        "analysis.persistence_s": t("analysis.marker_persistence_report"),
        "align.ibm1_s": t("align.ibm1_em"),
        "align.ibm1_iters": c["ibm1_iters"],
        "align.viterbi_s": t("align.viterbi_align"),
        "align.symmetrize_s": t("align.symmetrize"),
        "align.extract_s": t("align.extract_phrases"),
        "align.extracted": c["extracted"],
        "align.score_s": t("align.score_phrases"),
        "align.table_entries": c["table_entries"],
        "align.distinct_frac": ratio(c["table_entries"], c["extracted"]),
        "lm.train_s": t("lm.train_kn_lm"),
        "lm.ngrams": c["ngrams"],
        "lm.queries": n("lm.NgramLanguageModel.log10_prob", "lm.NgramLanguageModel.unigram_log10"),
        "lm.query_s": t("lm.NgramLanguageModel.log10_prob", "lm.NgramLanguageModel.unigram_log10",
                        outer=True),
        "decoder.options_s": t("decoder.build_options"),
        "decoder.options": c["options"],
        "decoder.decode_s": t("decoder.decode"),
        "decoder.decodes": n("decoder.decode"),
        "decoder.failed": tracer.errors("decoder.decode"),
        "decoder.nbest_fill": ratio(c["nbest_returned"], c["nbest_requested"]),
        "mert.tune_s": t("mert.tune_weights"),
        "mert.rounds": rounds,
        "mert.ascent_calls": n("mert.coordinate_ascent"),
        "mert.ascent_s": t("mert.coordinate_ascent"),
        "mert.line_searches": n("mert.line_search"),
        "mert.line_search_s": t("mert.line_search"),
        "mert.pool_cands": pool,
        "mert.pool_new_frac": pool_new,
        "bleu.stats_calls": n("bleu.sentence_stats"),
        "bleu.stats_s": t("bleu.sentence_stats"),
        "bleu.score_s": t("bleu.compute_bleu", "bleu.bleu_from_stats", outer=True),
    }
    for layer, (busy, self_time) in tracer.layer_times().items():
        if layer != "bench":
            m[f"{layer}.busy_s"] = busy
        m[f"{layer}.self_s"] = self_time
    m["trace.overhead_frac"] = sum(clock.raw) / sum(plain_clock.raw) - 1.0
    m["trace.spans"] = len(tracer.spans)
    m["run.ops"] = len(clock.op_times)
    m["run.failed_frac"] = ratio(result.failed, len(clock.op_times))
    m["run.wall_s"] = sum(plain_clock.raw)
    m["run.op_p50_ms"] = 1e3 * statistics.median(plain_clock.op_times)
    m["run.op_p90_ms"] = 1e3 * percentile(plain_clock.op_times, 90)
    return {name: (float(value), unit_of(name)) for name, value in m.items()}


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_frac") or name == "decoder.nbest_fill":
        return "ratio"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    lib = import_library()
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir()

    def make_workload():
        return CLASSES[args.workload](lib, args.seed, work)

    try:
        if args.trace:
            spans_path = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
            metrics, info = traced(make_workload, spans_path)
        else:
            metrics, info = end_to_end(make_workload, pass_count(args.workload, args.seconds))
        correct = True
    except CheckFailed as exc:
        print(f"perfbench: output check failed: {exc}", file=sys.stderr)
        metrics, info, correct = {}, {"ops": 0, "failed": 0, "digests": {}}, False
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{name:28} {value:.6g} {unit}")
    print("digests " + json.dumps(info["digests"], sort_keys=True))
    print(f"operations {info['ops']} failed {info['failed']}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(info["ops"], 1),
        "failed": info["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
