import hashlib
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from qer.corpus import GoldLabeling, ingest
from qer.evalkit import (
    baseline_scores,
    best_f1_over_thresholds,
    evaluate_baseline,
    pairwise_metrics,
    query_level_sweep,
    rcer_threshold_sweep,
    replay_sweep,
    run_trend_experiment,
    threshold_sweep,
)
from qer.expansion import AmbiguityEstimator
from qer.rcer import RcerResult, partition_at_threshold, run_rcer
from qer.similarity import SimilarityConfig, SimilarityContext
from qer import evalkit, synthgen

from conftest import GOLD_ASSIGNMENTS


@pytest.fixture
def ctx(corpus_ds, text_cfg):
    return SimilarityContext(corpus_ds, text_cfg)


def _gold_partition():
    groups = {}
    for rid, e in GOLD_ASSIGNMENTS.items():
        groups.setdefault(e, set()).add(rid)
    return list(groups.values())


def test_perfect_prediction(corpus_gold):
    scope = set(GOLD_ASSIGNMENTS)
    m = pairwise_metrics(_gold_partition(), corpus_gold, scope)
    assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)


def test_exact_name_grouping_fixture(corpus_ds, corpus_gold):
    groups = {}
    for rid, ref in corpus_ds.references.items():
        groups.setdefault(ref.norm_name, set()).add(rid)
    m = pairwise_metrics(list(groups.values()), corpus_gold,
                         set(corpus_ds.references))
    assert m.precision == pytest.approx(4 / 7)
    assert m.recall == pytest.approx(4 / 6)
    assert m.f1 == pytest.approx(16 / 26)


def test_all_singletons_convention(corpus_gold):
    scope = set(GOLD_ASSIGNMENTS)
    m = pairwise_metrics([{r} for r in scope], corpus_gold, scope)
    assert m.precision == 1.0  # no predicted pairs
    assert m.recall == 0.0
    assert m.f1 == 0.0


def test_non_partition_rejected(corpus_gold):
    scope = set(GOLD_ASSIGNMENTS)
    with pytest.raises(ValueError):
        pairwise_metrics([scope, {"r1"}], corpus_gold, scope)
    with pytest.raises(ValueError):
        pairwise_metrics([{"r1"}], corpus_gold, scope)


def _brute_force_metrics(partition, gold, scope):
    label = {}
    for i, c in enumerate(partition):
        for r in c:
            label[r] = i
    tp = fp = fn = 0
    for a, b in itertools.combinations(sorted(scope), 2):
        same_pred = label[a] == label[b]
        same_gold = gold.entity_of(a) == gold.entity_of(b)
        tp += same_pred and same_gold
        fp += same_pred and not same_gold
        fn += same_gold and not same_pred
    return tp, fp, fn


def test_metrics_match_brute_force_on_random_partitions():
    rng = random.Random(42)
    for _ in range(60):
        n = rng.randint(2, 60)
        scope = {f"r{i}" for i in range(n)}
        gold = GoldLabeling({r: f"e{rng.randint(0, 6)}" for r in scope})
        labels = {r: rng.randint(0, 8) for r in scope}
        partition = {}
        for r, lab in labels.items():
            partition.setdefault(lab, set()).add(r)
        partition = list(partition.values())
        m = pairwise_metrics(partition, gold, scope)
        tp, fp, fn = _brute_force_metrics(partition, gold, scope)
        assert (m.tp, m.fp, m.fn) == (tp, fp, fn)


def test_f1_invariant_under_relabeling(corpus_gold):
    scope = set(GOLD_ASSIGNMENTS)
    partition = [{"r1", "r4"}, {"r8", "r9"}] + \
        [{r} for r in scope - {"r1", "r4", "r8", "r9"}]
    m1 = pairwise_metrics(partition, corpus_gold, scope)
    renamed = {r: f"z_{r}" for r in scope}
    gold2 = GoldLabeling({renamed[r]: e for r, e in GOLD_ASSIGNMENTS.items()})
    part2 = [{renamed[r] for r in c} for c in partition]
    m2 = pairwise_metrics(part2, gold2, {renamed[r] for r in scope})
    assert m1 == m2


def test_baseline_a_threshold_extremes(corpus_ds, corpus_gold, ctx):
    refs = set(corpus_ds.references)
    from qer.rcer import block_candidates
    blocked = block_candidates(corpus_ds, refs, ctx)
    scores = baseline_scores("A", corpus_ds, refs, ctx)
    assert list(scores) == blocked
    assert all(0.0 <= s <= 1.0 for s in scores.values())
    at_zero = evaluate_baseline("A", corpus_ds, refs, ctx.cfg, 0.0,
                                corpus_gold)
    assert at_zero.tp + at_zero.fp == len(blocked)
    at_one = evaluate_baseline("A", corpus_ds, refs, ctx.cfg, 1.0,
                               corpus_gold)
    assert at_one.tp + at_one.fp == sum(s >= 1.0 for s in scores.values())
    with pytest.raises(ValueError, match="1.01"):
        evaluate_baseline("A", corpus_ds, refs, ctx.cfg, 1.01, corpus_gold)


def test_baseline_a_wang_pairs(corpus_ds, ctx):
    refs = set(corpus_ds.references)
    accepted = {frozenset(p) for p, s in baseline_scores("A", corpus_ds, refs,
                                                         ctx).items()
                if s >= ctx.cfg.epsilon}
    wangs = {"r1", "r4", "r8", "r9"}
    wang_accepted = {p for p in accepted if p <= wangs}
    assert wang_accepted == {frozenset(("r1", "r4")), frozenset(("r1", "r8")),
                             frozenset(("r4", "r8"))}


def test_nr_scores_relational_context(corpus_ds, ctx):
    from qer.evalkit import _nr_relational_term
    alpha = ctx.cfg.alpha

    def nr_score(a, b):
        return ((1 - alpha) * ctx.ref_attribute_sim(a, b)
                + alpha * _nr_relational_term(corpus_ds, ctx, a, b))

    def a_score(a, b):
        return ctx.ref_attribute_sim(a, b)

    # same co-author name "A. Ansari" raises the relational term
    assert nr_score("r1", "r9") > (1 - alpha) * a_score("r1", "r9")
    # inflated despite non-coreference: shared co-author name "C. Chen"
    assert _nr_relational_term(corpus_ds, ctx, "r1", "r8") > 0


def test_nr_without_relations_reduces_to_attribute_term():
    ds = ingest([
        {"pub_id": "p1", "authors": [{"id": "a", "name": "X. Yu"}]},
        {"pub_id": "p2", "authors": [{"id": "b", "name": "X. Yu"}]},
    ])
    cfg = SimilarityConfig(alpha=0.5, epsilon=0.9, delta=0.9,
                           merge_threshold=0.5)
    ctx = SimilarityContext(ds, cfg)
    # (1-alpha)*1.0 = 0.5, relational term is 0; acceptance is inclusive
    assert baseline_scores("NR", ds, {"a", "b"}, ctx) == {("a", "b"): 0.5}
    gold = GoldLabeling({"a": "e", "b": "e"})
    at = evaluate_baseline("NR", ds, {"a", "b"}, cfg, 0.5, gold)
    assert (at.tp, at.fp, at.fn) == (1, 0, 0)
    above = evaluate_baseline("NR", ds, {"a", "b"}, cfg, 0.5 + 1e-9, gold)
    assert (above.tp, above.fp, above.fn) == (0, 0, 1)


def test_transitive_closure_monotone(corpus_ds, corpus_gold, ctx):
    refs = set(corpus_ds.references)
    for t in (0.0, 0.5, 0.9, 0.98):
        raw = evaluate_baseline("A", corpus_ds, refs, ctx.cfg, t,
                                corpus_gold)
        closed = evaluate_baseline("A*", corpus_ds, refs, ctx.cfg, t,
                                   corpus_gold)
        assert closed.recall >= raw.recall - 1e-12


def test_transitive_closure_groups():
    # numeric names 0, 3 and 6 score 0.5 pairwise with their neighbor and 0
    # end to end: A* closes a-b and b-c into {a, b, c}, which puts the
    # unaccepted a-c pair in the answer; A counts the accepted pairs only
    ds = ingest([{"pub_id": f"p{r}", "authors": [{"id": r, "name": v}]}
                 for r, v in (("a", "0.0"), ("b", "3.0"), ("c", "6.0"),
                              ("d", "50.0"))], name_mode="numeric")
    cfg = SimilarityConfig(alpha=0.5, epsilon=0.9, delta=0.0,
                           merge_threshold=0.5)
    gold = GoldLabeling({"a": "E", "b": "E", "c": "G", "d": "F"})
    thresholds = [0.5, 0.0, 0.75, 0.5]
    counts = {kind: {t: (m.tp, m.fp, m.fn) for t, m in threshold_sweep(
        kind, ds, set(ds.references), cfg, thresholds, gold).items()}
        for kind in ("A", "A*")}
    assert counts["A*"] == {0.75: (0, 0, 1), 0.5: (1, 2, 0),
                            0.0: (1, 2, 0)}
    assert counts["A"] == {0.75: (0, 0, 1), 0.5: (1, 1, 0), 0.0: (1, 2, 0)}


def test_best_f1_tie_prefers_lowest_threshold(corpus_ds, corpus_gold, ctx):
    refs = set(corpus_ds.references)
    resolver = lambda t: evaluate_baseline("A", corpus_ds, refs, ctx.cfg,
                                           t, corpus_gold)
    t, m = best_f1_over_thresholds(resolver, [0.7, 0.8, 0.9])
    # all three thresholds accept the same exact-name pairs
    assert t == 0.7
    with pytest.raises(ValueError):
        best_f1_over_thresholds(resolver, [])


def test_single_threshold(corpus_ds, corpus_gold, ctx):
    refs = set(corpus_ds.references)
    resolver = lambda t: evaluate_baseline("A", corpus_ds, refs, ctx.cfg,
                                           t, corpus_gold)
    t, m = best_f1_over_thresholds(resolver, [0.98])
    assert t == 0.98
    assert m == resolver(0.98)


def test_rcer_baseline_wrapper(corpus_ds, corpus_gold, text_cfg):
    refs = set(corpus_ds.references)
    m = evaluate_baseline("RC-ER", corpus_ds, refs, text_cfg, 0.99, corpus_gold)
    assert m.recall == 0.0  # nothing merges above the maximum similarity
    with pytest.raises(ValueError):
        evaluate_baseline("bogus", corpus_ds, refs, text_cfg, 0.5, corpus_gold)


def test_trend_report_shape():
    cfg = SimilarityConfig(alpha=0.5, epsilon=0.8, delta=0.7,
                           merge_threshold=0.0)
    base = synthgen.GenParams(n_entities=20, n_relationships=40,
                              n_hyperedges=60, p_a=0.4, p_c=0.5)
    rep = run_trend_experiment("pR_recall", [0.5, 1.0], range(2), base, cfg,
                               thresholds=[0.3, 0.4])
    assert len(rep.rows) == 2 * 2
    header = rep.to_text().splitlines()[0]
    assert header == "setting\tthreshold\tmean\tstddev\tn_runs"
    with pytest.raises(ValueError):
        run_trend_experiment("bogus", [1], range(1), base, cfg)


def test_level_convergence_report():
    cfg = SimilarityConfig(alpha=0.5, epsilon=0.8, delta=0.7,
                           merge_threshold=0.0)
    base = synthgen.GenParams(n_entities=20, n_relationships=40,
                              n_hyperedges=60, p_a=0.4, p_c=0.5)
    levels, thresholds, seeds = (0, 1, 2), [0.3, 0.6], [1, 2]
    rep = run_trend_experiment("level_convergence", None, seeds, base, cfg,
                               thresholds=thresholds, levels=levels)
    assert len(rep.rows) == len(levels) * len(thresholds) * 2
    assert {s for s, *_ in rep.rows} == {
        f"level={d}:{m}" for d in levels for m in ("recall", "precision")}
    for _, _, mean, _, n_runs in rep.rows:
        assert n_runs == len(seeds)
        assert 0.0 <= mean <= 1.0


def test_baseline_sweeps_pinned():
    # (tp, fp, fn) of the four attribute baselines over the CLI's 21-point
    # grid, computed by scoring afresh at each threshold
    from qer.cli import DEFAULT_CFG, SWEEP
    out = synthgen.generate(synthgen.GenParams(seed=3))
    refs = set(out.dataset.references)
    rows = []
    for kind, label in (("A", "A"), ("A*", "A_star"), ("NR", "NR"),
                        ("NR*", "NR_star")):
        sweep = threshold_sweep(kind, out.dataset, refs, DEFAULT_CFG, SWEEP,
                                out.gold)
        rows += [[label, t, sweep[t].tp, sweep[t].fp, sweep[t].fn]
                 for t in SWEEP]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == (
        "cc4ef2aebaab91b4a40279b6ad13b0e1322c0807d226c0e1797af01a51b3f9d7")


_RCER_SEED3 = """
from qer import evalkit, synthgen
from qer.similarity import SimilarityConfig
out = synthgen.generate(synthgen.GenParams(seed=3))
cfg = SimilarityConfig(alpha=0.5, epsilon=0.9, delta=0.9, merge_threshold=0.3)
m = evalkit.evaluate_baseline("RC-ER", out.dataset, set(out.dataset.references),
                              cfg, 0.3, out.gold)
print(m.tp, m.fp, m.fn)
"""


def test_rcer_baseline_independent_of_hash_seed():
    # the reference ids reach run_rcer as a set, whose order follows the
    # string hash seed
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    runs = []
    for hash_seed in ("0", "14"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", _RCER_SEED3], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        runs.append(proc.stdout)
    assert runs[0] == runs[1]


def test_rcer_sweep_pinned():
    # (tp, fp, fn) of the RC-ER sweep over the CLI's 21-point grid, computed
    # by replaying the merge log and scoring each partition afresh
    from qer.cli import DEFAULT_CFG, SWEEP
    out = synthgen.generate(synthgen.GenParams(seed=3))
    sweep = rcer_threshold_sweep(out.dataset, out.dataset.references,
                                 DEFAULT_CFG, SWEEP, out.gold)
    rows = [["RCER", t, sweep[t].tp, sweep[t].fp, sweep[t].fn] for t in SWEEP]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == (
        "e8a991a2303afeea6e601f77333b8c3c5305f0c5445d0c9022172b3c6840515f")


SIMS = [0.0, 0.1, 0.25, 0.5, 0.75, 1.0]


@st.composite
def merge_histories(draw):
    """A random initial partition of r0..r(n-1), a merge log over it with
    scores in no particular order, gold labels and a strict-subset scope."""
    n = draw(st.integers(1, 14))
    refs = [f"r{i}" for i in range(n)]
    labels = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    initial: dict[int, list[str]] = {}
    for rid, lab in zip(refs, labels):
        initial.setdefault(lab, []).append(rid)
    clusters = [(cid, tuple(m)) for cid, m in enumerate(initial.values())]
    live, new, log = [cid for cid, _ in clusters], len(clusters), []
    for _ in range(draw(st.integers(0, len(live) - 1))):
        c1, c2 = draw(st.permutations(live))[:2]
        live = [c for c in live if c not in (c1, c2)] + [new]
        log.append((draw(st.sampled_from(SIMS)), c1, c2, new))
        new += 1
    result = RcerResult(clusters=[], merge_log=log, stopped_reason="exhausted",
                        merge_threshold=0.0, initial_clusters=clusters)
    gold = GoldLabeling({r: draw(st.sampled_from("xyz")) for r in refs})
    scope = draw(st.sets(st.sampled_from(refs), max_size=n - 1)) if n > 1 \
        else set()
    return result, gold, scope


@given(merge_histories(),
       st.lists(st.sampled_from(SIMS + [0.3, 0.9]), min_size=1, max_size=8))
@settings(max_examples=300, deadline=None)
def test_replay_sweep_equals_replay_then_score(history, thresholds):
    result, gold, scope = history
    assert replay_sweep(result, thresholds, gold, scope) == {
        t: pairwise_metrics(partition_at_threshold(result, t), gold, scope)
        for t in thresholds}


@pytest.mark.parametrize("seed", range(5))
def test_rcer_sweep_equals_replay_then_score(seed):
    from qer.cli import DEFAULT_CFG, SWEEP
    out = synthgen.generate(synthgen.GenParams(seed=seed))
    ds, gold = out.dataset, out.gold
    refs = sorted(ds.references)
    est = AmbiguityEstimator(ds)
    exact_name = {"premerge": lambda name: est.estimate(name) < 0.01}
    for multiset, kwargs in ((False, {}), (True, {}), (False, exact_name)):
        cfg = replace(DEFAULT_CFG, merge_threshold=0.0,
                      multiset_neighborhood=multiset)
        result = run_rcer(ds, refs, cfg, **kwargs)
        if kwargs:
            assert len(result.initial_clusters) < len(refs)
        for scope in (set(refs[::3]), set(refs)):
            expected = {t: pairwise_metrics(partition_at_threshold(result, t),
                                            gold, scope) for t in SWEEP}
            assert replay_sweep(result, SWEEP, gold, scope) == expected
        # the whole corpus is the scope of the one-call sweep
        assert rcer_threshold_sweep(ds, refs, cfg, SWEEP, gold,
                                    **kwargs) == expected


BAD_THRESHOLDS = [[], [0.5, 1.5], [float("nan")], [-0.2], [math.inf], ["0.5"]]


@pytest.mark.parametrize("thresholds", BAD_THRESHOLDS)
def test_sweeps_reject_bad_thresholds(corpus_ds, corpus_gold, text_cfg,
                                      thresholds):
    refs = set(corpus_ds.references)
    named = repr(thresholds[-1]) if thresholds else "no thresholds"
    sweeps = [lambda k=k: threshold_sweep(k, corpus_ds, refs, text_cfg,
                                          thresholds, corpus_gold)
              for k in ("A", "A*", "NR", "NR*", "RC-ER")]
    sweeps += [
        lambda: rcer_threshold_sweep(corpus_ds, refs, text_cfg, thresholds,
                                     corpus_gold),
        lambda: query_level_sweep(corpus_ds, "W. Wang", text_cfg,
                                  corpus_gold, 1, thresholds),
        lambda: query_level_sweep(corpus_ds, "Nobody", text_cfg,
                                  corpus_gold, 1, thresholds)]
    for sweep in sweeps:
        with pytest.raises(ValueError, match=re.escape(named)):
            sweep()


def test_sweeps_check_gold_before_clustering(corpus_ds, text_cfg,
                                             monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("clustered or scored before the gold check")

    monkeypatch.setattr(evalkit, "run_rcer", fail)
    monkeypatch.setattr(evalkit, "block_candidates", fail)
    refs = set(corpus_ds.references)
    partial = GoldLabeling({r: e for r, e in GOLD_ASSIGNMENTS.items()
                            if r != "r9"})
    for kind in ("A", "A*", "NR", "NR*", "RC-ER"):
        with pytest.raises(ValueError, match="gold labeling does not cover"):
            threshold_sweep(kind, corpus_ds, refs, text_cfg, [0.5], partial)
    with pytest.raises(ValueError, match="gold labeling does not cover"):
        rcer_threshold_sweep(corpus_ds, refs, text_cfg, [0.5], partial)


def test_whole_corpus_sweep_does_not_build_the_name_index():
    # the bench's numeric corpus and sweep read no name -> ids index
    from qer.cli import SWEEP
    out = synthgen.generate(synthgen.GenParams(
        n_entities=400, n_relationships=800, n_hyperedges=2000, p_a=0.1,
        p_r_a=0.3, p_c=0.5, p_r=1.0, seed=1000))
    rcer_threshold_sweep(out.dataset, out.dataset.references,
                         SimilarityConfig(alpha=0.5, epsilon=0.9, delta=0.7,
                                          merge_threshold=0.0),
                         SWEEP, out.gold)
    assert "name_index" not in out.dataset.__dict__


def test_query_level_sweep_without_match(corpus_ds, corpus_gold, text_cfg):
    sweep = query_level_sweep(corpus_ds, "Nobody", text_cfg, corpus_gold, 1,
                              [0.5, 0.2])
    assert sweep == {t: pairwise_metrics([], corpus_gold, set())
                     for t in (0.5, 0.2)}
