"""Pairwise evaluation metrics, baseline resolvers, and trend experiments.

Baselines: A scores reference pairs by attribute similarity alone and NR
adds a best-match comparison of the pairs' co-occurring names; both are
evaluated on raw pair decisions, while A* and NR* take the transitive
closure of the accepted pairs first.

Every sweep scores all its thresholds in one ordered pass over its
decisions (``_ordered_sweep``): merge-log entries, or scored pairs from
the highest score down, each adding to running pair counts.
"""

from __future__ import annotations

import numbers
import statistics
from collections import Counter
from dataclasses import dataclass, field, replace

from .corpus import Dataset, GoldLabeling, Query
from .expansion import ExpansionParams
# partition_at_threshold is unused here; bench/tracing.py times it here
from .rcer import (RcerResult, block_candidates,  # noqa: F401
                   check_replayable, partition_at_threshold, resolve,
                   run_rcer)
from .similarity import SimilarityConfig, SimilarityContext, greedy_matching
from . import synthgen

BASELINE_KINDS = ("A", "A*", "NR", "NR*", "RC-ER")


@dataclass
class PairwiseMetrics:
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int


def _metrics_from_counts(tp: int, fp: int, fn: int) -> PairwiseMetrics:
    """An empty side has precision (or recall) 1; F1 is then 0 unless the
    other side is empty too."""
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / (tp + fn) if tp + fn else 1.0
    f1 = 2 * precision * recall / (precision + recall) \
        if precision + recall else 0.0
    return PairwiseMetrics(precision, recall, f1, tp, fp, fn)


def _pairs_within(sizes) -> int:
    return sum(n * (n - 1) // 2 for n in sizes)


def _gold_pair_count(gold: GoldLabeling, scope: set[str]) -> int:
    return _pairs_within(Counter(map(gold.entity_of, scope)).values())


def pairwise_metrics(pred, gold: GoldLabeling, scope: set[str]
                     ) -> PairwiseMetrics:
    """Metrics over unordered co-reference pair decisions implied by the
    predicted partition, restricted to ``scope``."""
    label: dict[str, int] = {}
    for i, cluster in enumerate(pred):
        for rid in cluster:
            if rid in scope:
                if rid in label:
                    raise ValueError(f"reference {rid} in multiple clusters")
                label[rid] = i
    if set(label) != scope:
        raise ValueError("prediction does not cover the evaluation scope")
    if not gold.covers(scope):
        raise ValueError("gold labeling does not cover the evaluation scope")
    cells = Counter((c, gold.entity_of(rid)) for rid, c in label.items())
    tp = _pairs_within(cells.values())
    pred_pairs = _pairs_within(Counter(label.values()).values())
    gold_pairs = _gold_pair_count(gold, scope)
    return _metrics_from_counts(tp, pred_pairs - tp, gold_pairs - tp)


def _check_sweep(thresholds, gold: GoldLabeling, scope) -> list:
    """The thresholds as a list, once each is known to be a number in
    [0, 1] (not NaN) and the gold labels to cover ``scope``."""
    ts = list(thresholds)
    if not ts:
        raise ValueError("no thresholds given")
    for t in ts:
        if not isinstance(t, numbers.Real) or not 0.0 <= t <= 1.0:
            raise ValueError(f"threshold {t!r} is not a number in [0, 1]")
    if not gold.covers(scope):
        raise ValueError("gold labeling does not cover the evaluation scope")
    return ts


def _ordered_sweep(steps, thresholds, gold_pairs: int, tp: int = 0,
                   pred: int = 0) -> dict[float, PairwiseMetrics]:
    """Metrics at each threshold from ``steps``, the (score, true pairs,
    predicted pairs) each decision adds, in the order they are taken.  A
    threshold takes every step before the first one scored below it; that
    step only moves forward as the threshold falls, so the thresholds are
    visited from high to low with one pointer."""
    steps = iter(steps)
    step = next(steps, None)
    at = {}
    for t in sorted(set(thresholds), reverse=True):
        while step is not None and step[0] >= t:
            tp += step[1]
            pred += step[2]
            step = next(steps, None)
        at[t] = _metrics_from_counts(tp, pred - tp, gold_pairs - tp)
    return {t: at[t] for t in thresholds}


def _merge_steps(groups: dict, merges):
    """Steps of the merges (score, c1, c2, merged id).  ``groups`` maps a
    cluster to the count and gold-entity Counter of its in-scope members;
    merging X and Y adds |X|·|Y| predicted and Σₑ Xₑ·Yₑ true pairs."""
    for score, c1, c2, new in merges:
        (nx, x), (ny, y) = groups.pop(c1), groups.pop(c2)
        if len(x) < len(y):
            x, y = y, x
        tp = sum(n * x[e] for e, n in y.items())
        x.update(y)
        groups[new] = (nx + ny, x)
        yield score, tp, nx * ny


def _closure_merges(ranked, scope):
    """The merges (score, root, root, merged root) that take the transitive
    closure of the ranked (score, a, b) pairs, in their order."""
    parent: dict[str, str] = {rid: rid for rid in scope}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for score, a, b in ranked:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            yield score, ra, rb, rb


def replay_sweep(result: RcerResult, thresholds, gold: GoldLabeling, scope
                 ) -> dict[float, PairwiseMetrics]:
    """``pairwise_metrics(partition_at_threshold(result, t), gold, scope)``
    at each threshold t, from one pass over the merge log."""
    ts = _check_sweep(thresholds, gold, scope)
    check_replayable(result, min(ts))
    ents = {cid: Counter(gold.entity_of(r) for r in m if r in scope)
            for cid, m in result.initial_clusters}
    groups = {cid: (e.total(), e) for cid, e in ents.items()}
    if sum(n for n, _ in groups.values()) != len(scope):
        raise ValueError("prediction does not cover the evaluation scope")
    return _ordered_sweep(
        _merge_steps(groups, result.merge_log), ts,
        _gold_pair_count(gold, scope),
        sum(_pairs_within(e.values()) for e in ents.values()),
        _pairs_within(n for n, _ in groups.values()))


def baseline_scores(kind: str, ds: Dataset, refs, ctx: SimilarityContext
                    ) -> dict[tuple[str, str], float]:
    """Score of each blocked id pair: its attribute similarity for the A
    baselines, mixed with ``_nr_relational_term`` by alpha for NR."""
    nr = kind.startswith("NR")
    alpha = ctx.cfg.alpha
    scores = {}
    for a, b in block_candidates(ds, refs, ctx):
        score = ctx.ref_attribute_sim(a, b)
        if nr:
            score = ((1 - alpha) * score
                     + alpha * _nr_relational_term(ds, ctx, a, b))
        scores[a, b] = score
    return scores


def _nr_relational_term(ds: Dataset, ctx: SimilarityContext,
                        r1: str, r2: str) -> float:
    """Best-match (greedy one-to-one) average name similarity between the
    two references' co-occurring reference sets."""
    def conames(rid: str) -> list[str]:
        return [ds.references[other].norm_name
                for other in ds.cooccurrences(rid)]

    n1, n2 = conames(r1), conames(r2)
    if not n1 or not n2:
        return 0.0
    matches = greedy_matching((ctx.name_sim(a, b), i, j)
                              for i, a in enumerate(n1)
                              for j, b in enumerate(n2))
    return sum([s for s, _, _ in matches], 0.0) / min(len(n1), len(n2))


def threshold_sweep(kind: str, ds: Dataset, refs, cfg: SimilarityConfig,
                    thresholds, gold: GoldLabeling
                    ) -> dict[float, PairwiseMetrics]:
    """Metrics of one resolver at each threshold.  A baseline blocks and
    scores its pairs once and walks them from the highest score down: A
    and NR count each pair, A* and NR* merge the pairs' transitive closure.
    RC-ER clusters once and walks its merge log (``rcer_threshold_sweep``).
    """
    if kind not in BASELINE_KINDS:
        raise ValueError(f"unknown baseline kind: {kind}")
    scope = set(refs)
    if kind == "RC-ER":
        return rcer_threshold_sweep(ds, scope, cfg, thresholds, gold)
    ts = _check_sweep(thresholds, gold, scope)
    scores = baseline_scores(kind, ds, scope, SimilarityContext(ds, cfg))
    ranked = sorted(((s, *pair) for pair, s in scores.items()),
                    key=lambda x: x[0], reverse=True)
    if kind.endswith("*"):
        groups = {rid: (1, Counter([gold.entity_of(rid)])) for rid in scope}
        steps = _merge_steps(groups, _closure_merges(ranked, scope))
    else:
        steps = ((s, gold.entity_of(a) == gold.entity_of(b), 1)
                 for s, a, b in ranked)
    return _ordered_sweep(steps, ts, _gold_pair_count(gold, scope))


def evaluate_baseline(kind: str, ds: Dataset, refs, cfg: SimilarityConfig,
                      threshold: float, gold: GoldLabeling) -> PairwiseMetrics:
    """Metrics of one resolver at one threshold."""
    return threshold_sweep(kind, ds, refs, cfg, [threshold], gold)[threshold]


def best_f1_over_thresholds(resolver, thresholds) -> tuple[float, PairwiseMetrics]:
    """``resolver(threshold) -> PairwiseMetrics``; ties favor the first
    threshold given (the lowest, on an ascending grid)."""
    if not thresholds:
        raise ValueError("no thresholds given")
    return max(((t, resolver(t)) for t in thresholds), key=lambda b: b[1].f1)


def rcer_threshold_sweep(ds: Dataset, refs, cfg: SimilarityConfig,
                         thresholds, gold: GoldLabeling, premerge=None):
    """One clustering run (``run_rcer`` with ``premerge``), recorded at the
    lowest threshold and scored at each (``replay_sweep``)."""
    scope = set(refs)
    ts = _check_sweep(thresholds, gold, scope)
    result = run_rcer(ds, scope, replace(cfg, merge_threshold=min(ts)),
                      premerge)
    return replay_sweep(result, ts, gold, scope)


@dataclass
class TrendReport:
    kind: str
    rows: list[tuple] = field(default_factory=list)  # (setting, threshold, mean, stddev, n)

    def to_text(self) -> str:
        lines = ["setting\tthreshold\tmean\tstddev\tn_runs"]
        for s, t, m, sd, n in self.rows:
            lines.append(f"{s}\t{t:.3f}\t{m:.4f}\t{sd:.4f}\t{n}")
        return "\n".join(lines)


def _mean_sd(values) -> tuple[float, float]:
    m = statistics.fmean(values)
    sd = statistics.stdev(values) if len(values) > 1 else 0.0
    return m, sd


def run_trend_experiment(kind: str, grid, seeds, base_params,
                         cfg: SimilarityConfig, thresholds=None,
                         levels=(0, 1, 2, 3)) -> TrendReport:
    """Synthetic trend studies.

    ``pR_recall`` varies the neighbor-draw probability and tracks recall;
    ``pRa_precision`` varies the ambiguous-relationship rate and tracks
    precision; ``level_convergence`` tracks recall/precision of
    most-ambiguous-name queries as the expansion depth grows.
    """
    if thresholds is None:
        thresholds = [i / 10 for i in range(1, 10)]
    report = TrendReport(kind=kind)
    if kind in ("pR_recall", "pRa_precision"):
        param_name = "p_r" if kind == "pR_recall" else "p_r_a"
        metric = "recall" if kind == "pR_recall" else "precision"
        for setting in grid:
            per_threshold: dict[float, list[float]] = {t: [] for t in thresholds}
            for seed in seeds:
                params = replace(base_params, seed=seed,
                                 **{param_name: setting})
                out = synthgen.generate(params)
                sweep = rcer_threshold_sweep(out.dataset,
                                             out.dataset.references,
                                             cfg, thresholds, out.gold)
                for t, m in sweep.items():
                    per_threshold[t].append(getattr(m, metric))
            for t in thresholds:
                mean, sd = _mean_sd(per_threshold[t])
                report.rows.append((f"{param_name}={setting}", t, mean, sd,
                                    len(seeds)))
        return report
    if kind == "level_convergence":
        acc: dict[tuple, list[float]] = {
            (d, t, met): [] for d in levels for t in thresholds
            for met in ("recall", "precision")}
        for seed in seeds:
            params = replace(base_params, seed=seed)
            out = synthgen.generate(params)
            names = out.dataset.name_index
            query_name = max(names, key=lambda n: (len(names[n]), n))
            for d in levels:
                sweep = query_level_sweep(out.dataset, query_name, cfg,
                                          out.gold, d, thresholds)
                for t, m in sweep.items():
                    acc[(d, t, "recall")].append(m.recall)
                    acc[(d, t, "precision")].append(m.precision)
        for d in levels:
            for t in thresholds:
                for met in ("recall", "precision"):
                    mean, sd = _mean_sd(acc[(d, t, met)])
                    report.rows.append((f"level={d}:{met}", t, mean, sd,
                                        len(seeds)))
        return report
    raise ValueError(f"unknown experiment kind: {kind}")


def query_level_sweep(ds: Dataset, value: str, cfg: SimilarityConfig,
                      gold: GoldLabeling, depth: int, thresholds
                      ) -> dict[float, PairwiseMetrics]:
    """Resolve one query at the given expansion depth; score the answer
    (the level-0 references) at each threshold."""
    answer = resolve(ds, Query(value=value),
                     ExpansionParams(d_star=depth, delta=cfg.delta),
                     replace(cfg, merge_threshold=0.0))
    # with no match, level 0 is empty and so is the clustering
    result = answer.result or RcerResult([], [], "empty", 0.0)
    return replay_sweep(result, thresholds, gold, answer.rset.levels[0])
