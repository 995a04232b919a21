"""Timing wrappers on traitmt's public functions, spans and per-layer sums.

A wrapper replaces a function wherever the traitmt package binds it: the
defining module, every module that imported it by name, or the class that
owns a method.  The library's own internal calls are therefore captured,
not only the calls the benchmark makes.  Wrappers pass arguments and
return values through untouched and re-raise every exception.

Each call becomes a span (name, start, end, parent).  Spans are kept in
memory; functions called once per sentence or more often (tokenize, tag,
LM queries, BLEU from statistics) are only summed, so the record stays
small.  A layer's busy time counts its spans whose caller is in another
layer; its self time subtracts the time spent in traced children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

PACKAGE = "traitmt"
LAYERS = ("corpus", "annotate", "stylometry", "classify", "analysis",
          "align", "lm", "decoder", "mert", "bleu")

# (layer, class or "" for a module function, attribute, summed only).  A
# name missing from the library is skipped.
TRACED = [
    ("corpus", "", "load_corpus", False),
    ("corpus", "", "save_corpus", False),
    ("corpus", "", "clean_corpus", False),
    ("corpus", "", "tokenize", True),
    ("annotate", "", "load_evidence_fixture", False),
    ("annotate", "", "annotate_speakers", False),
    ("stylometry", "TaggerModel", "train", False),
    ("stylometry", "TaggerModel", "tag", True),
    ("stylometry", "", "chunk_corpus", False),
    ("stylometry", "", "build_feature_space", False),
    ("stylometry", "", "vectorize_chunk", False),
    ("classify", "", "vectors_to_matrix", False),
    ("classify", "", "balance_classes", False),
    ("classify", "", "cross_validate", False),
    ("classify", "", "train_svm", False),
    ("classify", "", "smo_solve", False),
    ("classify", "", "predict", False),
    ("analysis", "", "info_gain_rank", False),
    ("analysis", "", "pca_project", False),
    ("analysis", "", "marker_persistence_report", False),
    ("align", "", "build_phrase_table", False),
    ("align", "", "ibm1_em", False),
    ("align", "", "viterbi_align", False),
    ("align", "", "symmetrize", False),
    ("align", "", "extract_phrases", False),
    ("align", "", "score_phrases", False),
    ("lm", "", "train_kn_lm", False),
    ("lm", "NgramLanguageModel", "log10_prob", True),
    ("lm", "NgramLanguageModel", "unigram_log10", True),
    ("decoder", "", "build_options", False),
    ("decoder", "", "decode", False),
    ("mert", "", "tune_weights", False),
    ("mert", "", "coordinate_ascent", False),
    ("mert", "", "line_search", False),
    ("bleu", "", "compute_bleu", False),
    ("bleu", "", "sentence_stats", False),
    ("bleu", "", "bleu_from_stats", True),
]


class _Fn:
    """Sums for one traced function."""

    __slots__ = ("name", "layer", "calls", "errors", "total", "outer", "self_time")

    def __init__(self, name, layer):
        self.name, self.layer = name, layer
        self.calls = self.errors = 0
        self.total = self.outer = self.self_time = 0.0


class Tracer:
    """Installs the wrappers, records spans and derives per-layer sums.

    on_result hooks, keyed by function name, see (counts, args, kwargs,
    result) after each successful call and add to the `counts` mapping.
    """

    def __init__(self):
        self.fns: dict[str, _Fn] = {}
        self.counts = defaultdict(float)
        self.spans = []        # (name, start, end, parent span index or -1, ok)
        self._stack = []       # open frames: [fn, start, child time, span index]
        self._patched = []     # (owner, attribute, original)
        self._hooks = {}

    def on_result(self, name, hook):
        self._hooks[name] = hook

    def span(self, name):
        """Context manager recording one span from the benchmark's own code
        (layer "bench")."""
        return _Region(self, self._fn(name, "bench"))

    def _fn(self, name, layer):
        fn = self.fns.get(name)
        if fn is None:
            fn = self.fns[name] = _Fn(name, layer)
        return fn

    def _enter(self, fn, hot):
        index = -1
        if not hot:
            index = len(self.spans)
            parent = self._stack[-1][3] if self._stack else -1
            self.spans.append([fn.name, 0.0, 0.0, parent, True])
        frame = [fn, 0.0, 0.0, index]
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _exit(self, frame, ok):
        end = time.perf_counter()
        self._stack.pop()
        fn, start, child, index = frame
        duration = end - start
        fn.calls += 1
        fn.total += duration
        fn.self_time += duration - child
        if not ok:
            fn.errors += 1
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            if parent[0].layer != fn.layer:
                fn.outer += duration
        else:
            fn.outer += duration
        if index >= 0:
            span = self.spans[index]
            span[1], span[2], span[4] = start, end, ok

    def _wrap(self, layer, qualname, original, hot):
        fn = self._fn(qualname, layer)
        enter, exit_ = self._enter, self._exit
        hook = self._hooks.get(qualname)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            frame = enter(fn, hot)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                exit_(frame, False)
                raise
            exit_(frame, True)
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for layer, cls, attr, hot in TRACED:
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            owner = getattr(module, cls, None) if cls else module
            if owner is None or not hasattr(owner, attr):
                continue
            qualname = ".".join(filter(None, (layer, cls, attr)))
            if cls:
                original = vars(owner)[attr]
                self._patched.append((owner, attr, original))
                setattr(owner, attr, self._wrap(layer, qualname, original, hot))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(layer, qualname, original, hot)
            # rebind the function in every package module that holds it
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def total(self, *names, outer=False):
        fns = [self.fns[n] for n in names if n in self.fns]
        return sum(f.outer if outer else f.total for f in fns)

    def calls(self, *names):
        return sum(self.fns[n].calls for n in names if n in self.fns)

    def errors(self, *names):
        return sum(self.fns[n].errors for n in names if n in self.fns)

    def layer_times(self):
        """layer -> (busy seconds, self seconds), the benchmark's own
        regions included as layer "bench"."""
        out = {layer: [0.0, 0.0] for layer in LAYERS + ("bench",)}
        for fn in self.fns.values():
            out[fn.layer][0] += fn.outer
            out[fn.layer][1] += fn.self_time
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, ok in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "ok": ok}) + "\n")
            for fn in sorted(self.fns.values(), key=lambda f: f.name):
                fh.write(json.dumps({"function": fn.name, "layer": fn.layer, "calls": fn.calls,
                                     "errors": fn.errors, "total_s": fn.total,
                                     "self_s": fn.self_time}) + "\n")


class _Region:
    def __init__(self, tracer, fn):
        self.tracer, self.fn = tracer, fn

    def __enter__(self):
        self.frame = self.tracer._enter(self.fn, False)
        return self

    def __exit__(self, exc_type, exc, tb):
        self.tracer._exit(self.frame, exc_type is None)
