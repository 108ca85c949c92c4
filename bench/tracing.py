"""Per-layer tracing from outside the program.

Each public function of interest is wrapped at the module binding through
which the program (or the benchmark) calls it; the wrappers are installed
only while the benchmark runs set-up or an operation, and removed again
before its checks.  Spans (name, start, end, parent, operation id) are
kept in memory and written out when the run ends.  High-frequency
functions get a call counter (and a summed time) instead of a span.
No private name is wrapped.  A binding that no longer exists is skipped,
and the metrics that depend on it are reported absent rather than 0.
"""

from __future__ import annotations

import importlib
import json
import time
import types
from collections import defaultdict
from contextlib import contextmanager

# (span name, module, attribute)
SPANS = (
    ("corpus.ingest", "qer.corpus", "ingest"),
    ("corpus.ingest", "qer.synthgen", "ingest"),
    ("synthgen.generate", "qer.synthgen", "generate"),
    ("expansion.build_relevant_set", "qer.expansion", "build_relevant_set"),
    ("expansion.x_a", "qer.expansion", "x_a"),
    ("expansion.x_h", "qer.expansion", "x_h"),
    ("expansion.AmbiguityEstimator", "qer.expansion", "AmbiguityEstimator"),
    ("similarity.SimilarityContext", "qer.rcer", "SimilarityContext"),
    ("rcer.run_rcer", "qer.rcer", "run_rcer"),
    ("rcer.run_rcer", "qer.evalkit", "run_rcer"),
    ("rcer.block_candidates", "qer.rcer", "block_candidates"),
    ("rcer.bootstrap", "qer.rcer", "bootstrap"),
    ("rcer.partition_at_threshold", "qer.evalkit", "partition_at_threshold"),
    ("evalkit.pairwise_metrics", "qer.evalkit", "pairwise_metrics"),
)

# (counter name, module, attribute, timed)
COUNTERS = (
    ("corpus.normalize_name", "qer.corpus", "normalize_name", False),
    ("corpus.normalize_name", "qer.similarity", "normalize_name", False),
    ("corpus.normalize_name", "qer.expansion", "normalize_name", False),
    ("similarity.name_sim", "qer.similarity", "name_sim", True),
    ("similarity.delta_similar_names", "qer.similarity",
     "delta_similar_names", False),
    ("similarity.delta_similar_names", "qer.expansion",
     "delta_similar_names", False),
)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.op: str | None = None
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.present: set[str] = set()
        self.rcer_runs: list[tuple[int, str]] = []   # (merges, stop reason)
        self._saved: list[tuple] = []

    def begin(self, op: str | None, name: str = "bench.op"):
        """Open a root span; ``op`` is None for set-up."""
        self.op = op
        self.stack.append(len(self.spans))
        self.spans.append({"name": name, "op": op, "parent": None,
                           "start": time.perf_counter()})

    def end(self):
        self.spans[self.stack.pop()]["end"] = time.perf_counter()
        self.op = None

    @contextmanager
    def setup(self):
        """Trace one set-up step.  Its spans are kept; its calls stay out
        of the counters, which are per round of operations."""
        calls, seconds = dict(self.calls), dict(self.seconds)
        self.install()
        self.begin(None, "bench.setup")
        try:
            yield
        finally:
            self.end()
            self.remove()
            self.calls.clear()
            self.calls.update(calls)
            self.seconds.clear()
            self.seconds.update(seconds)

    # -- wrappers -----------------------------------------------------
    def _span(self, name, fn):
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            span = {"name": name, "op": self.op,
                    "parent": self.stack[-1] if self.stack else None}
            self.spans.append(span)
            self.stack.append(idx)
            span["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
            if self.op is not None:
                if name == "rcer.run_rcer":
                    self.rcer_runs.append((len(out.merge_log),
                                           out.stopped_reason))
                elif name == "rcer.block_candidates":
                    self.calls["rcer.candidate_pairs"] += len(out)
            return out
        return wrapper

    def _counter(self, name, fn, timed):
        calls, seconds, clock = self.calls, self.seconds, time.perf_counter
        if not timed:
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def timed_wrapper(*args, **kwargs):
            calls[name] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += clock() - t0
        return timed_wrapper

    def _heapq_proxy(self, heapq_mod):
        calls = self.calls
        push, pop = heapq_mod.heappush, heapq_mod.heappop

        def heappush(heap, item):
            calls["rcer.heappush"] += 1
            return push(heap, item)

        def heappop(heap):
            calls["rcer.heappop"] += 1
            return pop(heap)

        proxy = types.SimpleNamespace(**{k: getattr(heapq_mod, k)
                                         for k in dir(heapq_mod)
                                         if not k.startswith("_")})
        proxy.heappush, proxy.heappop = heappush, heappop
        return proxy

    # -- install / remove ---------------------------------------------
    def install(self):
        patches = []
        for name, mod_name, attr in SPANS:
            mod = importlib.import_module(mod_name)
            if hasattr(mod, attr):
                wrapper = self._span(name, getattr(mod, attr))
                patches.append((mod, attr, wrapper))
                self.present.add(name)
        for name, mod_name, attr, timed in COUNTERS:
            mod = importlib.import_module(mod_name)
            if hasattr(mod, attr):
                wrapper = self._counter(name, getattr(mod, attr), timed)
                patches.append((mod, attr, wrapper))
                self.present.add(name)
        rcer = importlib.import_module("qer.rcer")
        if hasattr(rcer, "heapq"):
            patches.append((rcer, "heapq", self._heapq_proxy(rcer.heapq)))
            self.present.add("rcer.heapq")
        for mod, attr, new in patches:
            self._saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, new)

    def remove(self):
        while self._saved:
            mod, attr, old = self._saved.pop()
            setattr(mod, attr, old)

    def write(self, path):
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")

    # -- summaries ----------------------------------------------------
    def total(self, name: str) -> float:
        """Summed duration in seconds of the spans named ``name`` inside
        operations, counting a span nested in one of the same name once."""
        out = 0.0
        for s in self.spans:
            if s["name"] != name or s["op"] is None:
                continue
            p = s["parent"]
            nested = False
            while p is not None:
                if self.spans[p]["name"] == name:
                    nested = True
                    break
                p = self.spans[p]["parent"]
            if not nested:
                out += s["end"] - s["start"]
        return out

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of the set-up spans named ``name``."""
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and s["op"] is None]
