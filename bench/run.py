#!/usr/bin/env python3
"""qer benchmark: adaptive name-query latency and offline RC-ER
throughput, with independent output checks and an optional traced run that
times each layer from outside.

    python3 bench/run.py --workload text-adaptive --seed 1 \
        --seconds 40 --trace 0

One client in one process runs a closed loop: the next operation starts
when the previous one (and its checks) has finished.  A run repeats one
round of operations, fixed by the seed and by --seconds, for the whole
number of rounds whose operation time comes closest to --seconds.  Every
time it reports is given at the reference speed of the machine (see
``reference_work``).  The last line of standard output is the JSON result;
the line before it carries the raw times, the answer digest and the merge
count per round.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

import checks  # noqa: E402
import textgen  # noqa: E402
from tracing import Tracer  # noqa: E402

GRID = [i / 20 for i in range(21)]
# Highest pooled level-0 F1 over GRID on calibration seed 1000, summed over
# these adaptive queries and full depth-3 queries of ambiguous names, and
# clear of 0.5, where every exact-name pair ties
# under alpha = 0.5 from the singleton bootstrap.
TEXT_THRESHOLD = 0.3
# Best pooled F1 over GRID on calibration seed 1000; fixed, never the best
# threshold of the run being scored.
NUMERIC_SCORED_THRESHOLD = 0.25
# Time of one reference_work() call at the reference speed: about the middle
# of the 2.5-5.5 ms it took on the 2-CPU machine the benchmark was written on.
REFERENCE_S = 0.004


def reference_work() -> int:
    """A fixed piece of pure-Python work of the kinds the program spends
    its time on: string keys, dict and set updates, heap pushes and pops,
    sorting.  It is timed before every operation.  The machine's speed
    drifts, both from one fraction of a second to the next and in phases
    of tens of seconds to minutes (up to twice as slow, with the process
    on the CPU all the while), and this work slows with it; so a time
    multiplied by REFERENCE_S over the mean reference time around it is
    that time at a fixed speed.  It does not touch the program, so a
    change to the program moves the scaled times as it moves the raw
    ones."""
    rng = random.Random(0)
    words = ["".join(rng.choice("abcdefghij") for _ in range(6))
             for _ in range(300)]
    groups: dict[str, set[int]] = {}
    for i, w in enumerate(words):
        groups.setdefault(w[:2], set()).add(i)
    hits = sum(1 for a in words for b in words[:30]
               if a[0] == b[0] and a[-1] == b[-1])
    heap: list[tuple[float, int]] = []
    for i in range(2000):
        heapq.heappush(heap, (rng.random(), i))
    order = [heapq.heappop(heap)[1] for _ in range(len(heap))]
    return hits + len(groups) + sorted(order)[-1]


def time_reference(reps: int) -> float:
    """Mean time of ``reps`` back-to-back reference_work() calls."""
    t0 = time.perf_counter()
    for _ in range(reps):
        reference_work()
    return (time.perf_counter() - t0) / reps


def import_program():
    if not (SRC / "qer" / "__init__.py").is_file():
        sys.exit(f"bench: the qer sources are missing ({SRC / 'qer'})")
    sys.path.insert(0, str(SRC))
    global corpus, evalkit, expansion, rcer, similarity, synthgen
    from qer import corpus, evalkit, expansion, rcer, similarity, synthgen


class TextAdaptive:
    """Adaptive name queries against one generated text corpus: the names
    of references drawn systematically, ``round_ops_per_second`` of them per
    second of --seconds."""

    round_ops_per_second = 5
    setup_units = 9          # timed ingests per run; setup_s is their median
    digest_prefix = 10       # queries the hash-seed child repeats
    # reference_work() calls before each query, and the operation
    # boundaries on either side of a query whose reference times set its
    # speed factor
    reference_reps = 2
    reference_window = 5

    def __init__(self, seed: int, seconds: int):
        self.seed = seed
        self.n_ops = max(1, math.ceil(self.round_ops_per_second * seconds))
        self.cfg = similarity.SimilarityConfig(
            alpha=0.5, epsilon=0.9, delta=0.9, merge_threshold=TEXT_THRESHOLD)
        # h_max and a_max as in acceptance criterion 7
        self.params = expansion.ExpansionParams(
            d_star=3, delta=self.cfg.delta, h_max=4, a_max=0.2)
        self.ds = None

    def prepare(self, stem: str):
        tc = textgen.generate(n_entities=4000, n_relationships=6000,
                              n_pubs=6000, seed=self.seed)
        self.path = OUT / f"{stem}.jsonl"
        self.files = [self.path, OUT / f"{stem}.gold"]
        tc.write(*self.files)
        self.gold = tc.gold
        self.index = checks.RawIndex(tc.records)
        self.raw_names = {a["id"]: a["name"]
                          for rec in tc.records for a in rec["authors"]}
        self.ops = self.pick_queries()
        # ingests spread evenly over the first round, so that setup_s is
        # not decided by one short stretch of the run
        self.setup_at = {k * len(self.ops) // self.setup_units
                         for k in range(self.setup_units)}

    def pick_queries(self) -> list[str]:
        # a systematic sample of references ordered by the size of their
        # name's level 0: uniform over references, with every seed's round
        # covering the same spread of level-0 sizes
        rng = random.Random(f"adaptive-{self.seed}")
        ids = sorted(self.raw_names)
        rng.shuffle(ids)
        level0 = {}
        for rid in ids:
            n = self.index.name_of[rid]
            if n not in level0:
                level0[n] = len(self.index.liberal_lookup(n))
        ids.sort(key=lambda r: level0[self.index.name_of[r]])
        k = min(self.n_ops, len(ids))
        u = rng.random()
        picked = [ids[int((i + u) * len(ids) / k)] for i in range(k)]
        rng.shuffle(picked)
        return [self.raw_names[r] for r in picked]

    def setup_step(self, k: int) -> float:
        """Ingest the records file; the queries use the first ingest, later
        ones are timed and dropped."""
        gc.collect()
        t0 = time.perf_counter()
        ds = corpus.ingest_file(self.path)
        dt = time.perf_counter() - t0
        if self.ds is None:
            self.ds = ds
        return dt

    def run(self, value: str):
        rset = expansion.build_relevant_set(
            self.ds, corpus.Query(value=value), self.params)
        result = rcer.run_rcer(self.ds, sorted(rset.union), self.cfg)
        level0 = rset.levels[0]
        answer = [c & level0 for c in result.clusters if c & level0]
        return rset, result, answer

    def check(self, value: str, out):
        rset, result, answer = out
        levels = [set(lv) for lv in rset.levels]
        full = self.index.full_expansion(value, self.params.d_star)
        errs = checks.check_adaptive_levels(
            levels, self.index, value, self.params.h_max, set().union(*full))
        union = set().union(*levels)
        errs += checks.check_rcer(
            result, union, self.cfg.merge_threshold,
            lambda c: checks.text_cluster_connected(c, self.index.name_of))
        if not checks.is_partition_of(answer, levels[0]):
            errs.append("answer groups do not partition level 0")
        tally = checks.pair_counts(answer, self.gold, levels[0])
        return errs, tally, len(union), levels, self.answer_only(value, out)

    @staticmethod
    def rcer_result(out):
        return out[1]

    def answer_only(self, value: str, out):
        rset, _, answer = out
        return [value, [len(lv) for lv in rset.levels],
                checks.canonical(answer)]


class NumericOffline:
    """Whole-corpus RC-ER threshold sweeps over synthgen corpora."""

    round_ops_per_second = 0.25
    digest_prefix = 1
    reference_reps = 16
    reference_window = 1

    def __init__(self, seed: int, seconds: int):
        self.seed = seed
        self.n_ops = max(1, math.ceil(self.round_ops_per_second * seconds))
        self.cfg = similarity.SimilarityConfig(
            alpha=0.5, epsilon=0.9, delta=0.7, merge_threshold=0.0)
        self.outs, self.values, self.golds = {}, {}, {}

    def prepare(self, stem: str):
        self.files = []
        self.ops = list(range(self.n_ops))
        # each corpus is generated just before its first sweep, so the
        # set-up times are spread over the first round
        self.setup_at = set(self.ops)

    def params(self, i: int):
        return synthgen.GenParams(n_entities=400, n_relationships=800,
                                  n_hyperedges=2000, p_a=0.1, p_r_a=0.3,
                                  p_c=0.5, p_r=1.0,
                                  seed=self.seed * 1000 + i)

    def setup_step(self, i: int) -> float:
        t0 = time.perf_counter()
        out = synthgen.generate(self.params(i))
        dt = time.perf_counter() - t0
        self.outs[i] = out
        self.values[i] = {a["id"]: float(a["name"]) for rec in out.records
                          for a in rec["authors"]}
        self.golds[i] = out.gold.assignments
        return dt

    def run(self, i: int):
        out = self.outs[i]
        captured = []
        inner = evalkit.run_rcer

        def capture(*args, **kwargs):
            res = inner(*args, **kwargs)
            captured.append(res)
            return res

        evalkit.run_rcer = capture
        try:
            sweep = evalkit.rcer_threshold_sweep(
                out.dataset, out.dataset.references, self.cfg, GRID, out.gold)
        finally:
            evalkit.run_rcer = inner
        return sweep, captured

    def partitions(self, result):
        return [rcer.partition_at_threshold(result, t) for t in GRID]

    def check(self, i: int, out):
        sweep, captured = out
        if len(captured) != 1:
            return [f"expected one clustering run, saw {len(captured)}"], \
                (0, 0, 0), 0, None, None
        result = captured[0]
        scope, gold = set(self.values[i]), self.golds[i]
        errs = checks.check_rcer(
            result, scope, self.cfg.merge_threshold,
            lambda c: checks.numeric_cluster_connected(
                c, self.values[i], self.cfg.delta))
        parts = self.partitions(result)
        own = checks.replay_at(result.initial_clusters, result.merge_log, GRID)
        for k, (t, part) in enumerate(zip(GRID, parts)):
            if not checks.is_partition_of(part, scope):
                errs.append(f"partition at {t} does not cover the corpus")
            if checks.as_set(part) != own[k]:
                errs.append(f"partition at {t} differs from the replay")
            if k and not checks.refines(part, parts[k - 1]):
                errs.append(f"partition at {t} does not refine {GRID[k - 1]}")
            m = sweep[t]
            if checks.pair_counts(part, gold, scope) != (m.tp, m.fp, m.fn):
                errs.append(f"tp/fp/fn at {t} differ from the recount")
        m = sweep[NUMERIC_SCORED_THRESHOLD]
        return errs, (m.tp, m.fp, m.fn), len(scope), None, \
            self.record(i, parts)

    def record(self, i, parts):
        return [i, [hashlib.sha256(json.dumps(checks.canonical(p)).encode())
                    .hexdigest() for p in parts]]

    @staticmethod
    def rcer_result(out):
        return out[1][0]

    def answer_only(self, i: int, out):
        return self.record(i, self.partitions(self.rcer_result(out)))


WORKLOADS = {
    "text-adaptive": TextAdaptive,
    "numeric-offline": NumericOffline,
}


def digest(records) -> str:
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


def child_digest(wl, n: int) -> None:
    """Digest of the first ``n`` answers, for the hash-seed check."""
    records = []
    for k, op in enumerate(wl.ops[:n]):
        if k in wl.setup_at:
            wl.setup_step(k)
        records.append(wl.answer_only(op, wl.run(op)))
    print(json.dumps({"digest": digest(records)}))


def run_child(args, n: int) -> tuple[bool, str]:
    """Recompute the prefix digest in a subprocess under another hash seed."""
    parent = os.environ.get("PYTHONHASHSEED")
    hseed = (args.seed * 7919 + 14) % 4294967295
    if parent is not None and parent == str(hseed):
        hseed += 1
    env = dict(os.environ, PYTHONHASHSEED=str(hseed))
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0",
           "--digest-prefix", str(n)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=150, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return False, str(hseed)
    return True, json.loads(proc.stdout.strip().splitlines()[-1])["digest"]


def p90(values) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


def at_reference_speed(dt: float, i: int, ref_times, w: int) -> float:
    """``dt`` scaled to the reference speed, by the mean reference time of
    the ``w`` operation boundaries on either side of boundary ``i``."""
    return dt * REFERENCE_S / statistics.fmean(
        ref_times[max(0, i - w):i + w + 2])


def timing_metrics(setup_times, latencies, refs_done) -> dict:
    if not latencies:
        return {}
    op_seconds = sum(latencies)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "query_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "query_p90_ms": (p90(latencies) * 1e3, "ms"),
        "queries_per_s": (len(latencies) / op_seconds, "1/s"),
        "resolve_refs_per_s": (refs_done / op_seconds, "refs/s"),
    }


def layer_metrics(tr: Tracer, n_ops: int, n_rounds: int, level_sizes,
                  overhead: float) -> dict:
    def per_op_ms(name):
        return tr.total(name) / n_ops * 1e3

    def med(xs):
        return statistics.median(xs) if xs else 0.0

    calls = tr.calls
    merges = sum(m for m, _ in tr.rcer_runs)
    stops = sum(1 for _, why in tr.rcer_runs if why == "threshold")
    pushes, pops = calls["rcer.heappush"], calls["rcer.heappop"]
    run_ms = per_op_ms("rcer.run_rcer")
    blocking_ms = per_op_ms("rcer.block_candidates")
    bootstrap_ms = per_op_ms("rcer.bootstrap")
    context_ms = per_op_ms("similarity.SimilarityContext")
    levels = [0.0] * 5
    if level_sizes:
        for k in range(4):
            levels[k] = statistics.fmean(
                s[k] if k < len(s) else 0 for s in level_sizes)
        levels[4] = statistics.fmean(sum(s) for s in level_sizes)
    # metric -> (value, unit, bindings it needs)
    table = {
        "corpus.ingest_s": (med(tr.durations("corpus.ingest")), "s",
                            ["corpus.ingest"]),
        "corpus.normalize_name_calls": (
            calls["corpus.normalize_name"] / n_rounds, "count",
            ["corpus.normalize_name"]),
        "expansion.build_ms": (per_op_ms("expansion.build_relevant_set"),
                               "ms", ["expansion.build_relevant_set"]),
        "expansion.x_a_ms": (per_op_ms("expansion.x_a"), "ms",
                             ["expansion.x_a"]),
        "expansion.x_h_ms": (per_op_ms("expansion.x_h"), "ms",
                             ["expansion.x_h"]),
        "expansion.estimator_ms": (
            per_op_ms("expansion.AmbiguityEstimator"), "ms",
            ["expansion.AmbiguityEstimator"]),
        **{f"expansion.level{k}_refs": (levels[k], "count", [])
           for k in range(4)},
        "expansion.relevant_refs": (levels[4], "count", []),
        "similarity.context_ms": (context_ms, "ms",
                                  ["similarity.SimilarityContext"]),
        "similarity.name_sim_misses": (
            calls["similarity.name_sim"] / n_rounds, "count",
            ["similarity.name_sim"]),
        "similarity.name_sim_ms": (
            tr.seconds["similarity.name_sim"] / n_ops * 1e3, "ms",
            ["similarity.name_sim"]),
        "similarity.delta_tests": (
            calls["similarity.delta_similar_names"] / n_rounds, "count",
            ["similarity.delta_similar_names"]),
        "rcer.run_ms": (run_ms, "ms", ["rcer.run_rcer"]),
        "rcer.blocking_ms": (blocking_ms, "ms", ["rcer.block_candidates"]),
        "rcer.candidate_pairs": (calls["rcer.candidate_pairs"] / n_rounds,
                                 "count", ["rcer.block_candidates"]),
        "rcer.bootstrap_ms": (bootstrap_ms, "ms", ["rcer.bootstrap"]),
        "rcer.merge_loop_ms": (
            run_ms - blocking_ms - bootstrap_ms - context_ms, "ms",
            ["rcer.run_rcer", "rcer.block_candidates", "rcer.bootstrap",
             "similarity.SimilarityContext"]),
        "rcer.heap_pushes": (pushes / n_rounds, "count", ["rcer.heapq"]),
        "rcer.heap_pops": (pops / n_rounds, "count", ["rcer.heapq"]),
        "rcer.merges": (merges / n_rounds, "count", ["rcer.run_rcer"]),
        "rcer.stale_pops": ((pops - merges - stops) / n_rounds, "count",
                            ["rcer.heapq", "rcer.run_rcer"]),
        "rcer.pushes_per_merge": (pushes / merges if merges else 0.0,
                                  "ratio", ["rcer.heapq", "rcer.run_rcer"]),
        "rcer.useful_pop_ratio": (merges / pops if pops else 0.0, "ratio",
                                  ["rcer.heapq", "rcer.run_rcer"]),
        "rcer.replay_ms": (per_op_ms("rcer.partition_at_threshold"), "ms",
                           ["rcer.partition_at_threshold"]),
        "evalkit.score_ms": (per_op_ms("evalkit.pairwise_metrics"), "ms",
                             ["evalkit.pairwise_metrics"]),
        "synthgen.generate_s": (med(tr.durations("synthgen.generate")), "s",
                                ["synthgen.generate"]),
        "trace.overhead_ratio": (overhead, "ratio", []),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit, needs) in table.items()
            if all(n in tr.present for n in needs)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--digest-prefix", type=int, default=0,
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    import_program()
    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, args.seconds)
    stem = f"{args.workload}-s{args.seed}-p{os.getpid()}"
    wl.prepare(stem)
    try:
        if args.digest_prefix:
            child_digest(wl, args.digest_prefix)
            return 0
        return measure(args, wl)
    finally:
        for f in wl.files:
            f.unlink(missing_ok=True)


def measure(args, wl) -> int:
    tracer = Tracer() if args.trace else None
    # reference_work() times, one taken just before each operation and one
    # after the last; a set-up step keeps the index of the reference time
    # taken just after it, an operation that of the one just before it
    ref_times = []
    setup_times = []
    pending = set(wl.setup_at)

    def setup_before(k):
        """Run the set-up step due before operation ``k``, if one is."""
        if k not in pending:
            return
        pending.discard(k)
        if tracer:
            with tracer.setup():
                dt = wl.setup_step(k)
        else:
            dt = wl.setup_step(k)
        setup_times.append((dt, len(ref_times)))

    attempted = failed = 0
    latencies, refs_done = [], 0
    tp = fp = fn = 0
    level_sizes = []
    records_by_round, merges_by_round = [], []
    correct = True

    def attempt(k, label, traced):
        """One checked operation: (seconds in the operation, answer record,
        merges, passed).  A failed operation's time is counted too."""
        nonlocal attempted, failed, refs_done, tp, fp, fn
        setup_before(k)
        ref_times.append(time_reference(wl.reference_reps))
        op = wl.ops[k]
        attempted += 1
        dt = 0.0
        try:
            if traced:
                tracer.install()
                tracer.begin(label)
            t0 = time.perf_counter()
            try:
                out = wl.run(op)
            finally:
                dt = time.perf_counter() - t0
                if traced:
                    tracer.end()
                    tracer.remove()
            errs, tally, n_refs, levels, record = wl.check(op, out)
        except Exception:
            sys.stderr.write(f"bench: operation {label} raised\n"
                             + traceback.format_exc())
            failed += 1
            return dt, None, 0, False
        if errs:
            sys.stderr.write(f"bench: operation {label} failed its checks: "
                             + "; ".join(errs) + "\n")
            failed += 1
            return dt, None, 0, False
        latencies.append((dt, len(ref_times) - 1))
        refs_done += n_refs
        tp, fp, fn = tp + tally[0], fp + tally[1], fn + tally[2]
        if levels is not None:
            level_sizes.append([len(lv) for lv in levels])
        return dt, record, len(wl.rcer_result(out).merge_log), True

    overhead = None
    if tracer:
        # the same prefix of the round, untraced first, for the overhead
        n_base = max(1, len(wl.ops) // 5)
        base = []
        for k in range(n_base):
            dt, _, _, ok = attempt(k, f"base.{k}", False)
            base.append((dt, ok))
        latencies.clear()
        level_sizes.clear()
        refs_done = 0
        tp = fp = fn = 0

    # whole rounds only: stop at the round count whose total operation time,
    # failed operations included, comes closest to --seconds, or after a
    # round in which every operation failed
    measured = 0.0
    rounds = 0
    while rounds == 0 or measured + measured / rounds / 2 < args.seconds:
        records, merges, results = [], 0, []
        for k in range(len(wl.ops)):
            dt, record, m, ok = attempt(k, f"r{rounds}.{k}",
                                        tracer is not None)
            records.append(record)
            results.append((dt, ok))
            measured += dt
            merges += m
        if tracer and rounds == 0 and all(
                ok for _, ok in base + results[:n_base]):
            overhead = (sum(dt for dt, _ in results[:n_base])
                        / sum(dt for dt, _ in base))
        records_by_round.append(records)
        merges_by_round.append(merges)
        rounds += 1
        if not any(ok for _, ok in results):
            break

    ref_times.append(time_reference(wl.reference_reps))

    if any(r != records_by_round[0] for r in records_by_round[1:]):
        sys.stderr.write("bench: answers differ between rounds\n")
        correct = False
    n = wl.digest_prefix
    own = digest(records_by_round[0][:n])
    ok, child = run_child(args, n)
    if not ok or child != own:
        sys.stderr.write(f"bench: answer digest under another hash seed "
                         f"({child}) differs from this run's ({own})\n")
        correct = False

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw = {}
    if tracer:
        tracer.write(OUT / f"spans-{args.workload}-s{args.seed}.jsonl")
        metrics = layer_metrics(tracer, len(wl.ops) * rounds, rounds,
                                level_sizes, overhead or 0.0)
    else:
        metrics = timing_metrics(
            [at_reference_speed(dt, i, ref_times, wl.reference_window)
             for dt, i in setup_times],
            [at_reference_speed(dt, i, ref_times, wl.reference_window)
             for dt, i in latencies],
            refs_done)
        if metrics:
            metrics["pairwise_f1"] = (checks.f1(tp, fp, fn), "ratio")
            metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        raw = timing_metrics([dt for dt, _ in setup_times],
                             [dt for dt, _ in latencies], refs_done)
    info = {"workload": args.workload, "seed": args.seed, "rounds": rounds,
            "ops_per_round": len(wl.ops), "samples": len(latencies),
            "reference_ms": [round(statistics.quantiles(ref_times, n=4)[k]
                                   * 1e3, 3) for k in range(3)],
            "raw": {k: v for k, (v, _) in raw.items()},
            "merges_per_round": merges_by_round[0],
            "digest": digest(records_by_round[0]),
            "prefix_digest": own, "child_hash_seed_digest": child,
            "tp_fp_fn": [tp, fp, fn]}
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": correct and bool(latencies),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
