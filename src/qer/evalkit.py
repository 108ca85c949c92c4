"""Pairwise evaluation metrics, baseline resolvers, and trend experiments.

Baselines: A scores reference pairs by attribute similarity alone and NR
adds a best-match comparison of the pairs' co-occurring names; both are
evaluated on raw pair decisions, while A* and NR* take the transitive
closure of the accepted pairs first.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field, replace

from .corpus import Dataset, GoldLabeling, Query
from .expansion import AmbiguityEstimator, ExpansionParams
from .rcer import block_candidates, partition_at_threshold, resolve, run_rcer
from .similarity import SimilarityConfig, SimilarityContext
from . import synthgen

BASELINE_KINDS = ("A", "A_star", "NR", "NR_star", "RCER")


@dataclass
class PairwiseMetrics:
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int


def _f1(p: float, r: float) -> float:
    if p + r == 0:
        return 0.0
    return 2 * p * r / (p + r)


def _metrics_from_counts(tp: int, fp: int, fn: int) -> PairwiseMetrics:
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / (tp + fn) if tp + fn else 1.0
    f1 = _f1(precision, recall)
    if (tp + fp == 0) != (tp + fn == 0):
        # one side has pairs, the other none
        f1 = 0.0 if tp == 0 else f1
    return PairwiseMetrics(precision, recall, f1, tp, fp, fn)


def _gold_pair_count(gold: GoldLabeling, scope: set[str]) -> int:
    sizes: dict[str, int] = {}
    for rid in scope:
        e = gold.entity_of(rid)
        sizes[e] = sizes.get(e, 0) + 1
    return sum(n * (n - 1) // 2 for n in sizes.values())


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
    cell_sizes: dict[tuple, int] = {}
    cluster_sizes: dict[int, int] = {}
    for rid in scope:
        c = label[rid]
        cluster_sizes[c] = cluster_sizes.get(c, 0) + 1
        key = (c, gold.entity_of(rid))
        cell_sizes[key] = cell_sizes.get(key, 0) + 1
    tp = sum(n * (n - 1) // 2 for n in cell_sizes.values())
    pred_pairs = sum(n * (n - 1) // 2 for n in cluster_sizes.values())
    gold_pairs = _gold_pair_count(gold, scope)
    return _metrics_from_counts(tp, pred_pairs - tp, gold_pairs - tp)


def pairwise_metrics_from_pairs(accepted, gold: GoldLabeling,
                                scope: set[str]) -> PairwiseMetrics:
    """Metrics over raw accepted pair decisions (no transitive closure)."""
    tp = fp = 0
    for pair in accepted:
        a, b = tuple(pair)
        if a not in scope or b not in scope:
            continue
        if gold.entity_of(a) == gold.entity_of(b):
            tp += 1
        else:
            fp += 1
    gold_pairs = _gold_pair_count(gold, scope)
    return _metrics_from_counts(tp, fp, gold_pairs - tp)


def transitive_closure(pairs, scope) -> list[set[str]]:
    parent: dict[str, str] = {rid: rid for rid in scope}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for pair in pairs:
        a, b = tuple(pair)
        if a in parent and b in parent:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    groups: dict[str, set[str]] = {}
    for rid in scope:
        groups.setdefault(find(rid), set()).add(rid)
    return list(groups.values())


def baseline_scores(kind: str, ds: Dataset, refs, ctx: SimilarityContext
                    ) -> dict[frozenset, float]:
    """Score of each blocked reference pair: its attribute similarity for
    the A baselines, mixed with ``_nr_relational_term`` by alpha for NR."""
    nr = kind.startswith("NR")
    alpha = ctx.cfg.alpha
    scores = {}
    for pair in block_candidates(ds, refs, ctx):
        a, b = tuple(pair)
        score = ctx.ref_attribute_sim(a, b)
        if nr:
            score = ((1 - alpha) * score
                     + alpha * _nr_relational_term(ds, ctx, a, b))
        scores[pair] = score
    return scores


def _nr_relational_term(ds: Dataset, ctx: SimilarityContext,
                        r1: str, r2: str) -> float:
    """Best-match (greedy one-to-one) average name similarity between the
    two references' co-occurring reference sets."""
    def conames(rid: str) -> list[str]:
        return [ds.references[other].norm_name
                for _, other in ds.cooccurrences(rid)]

    n1, n2 = conames(r1), conames(r2)
    if not n1 or not n2:
        return 0.0
    scored = sorted(
        ((ctx.name_sim(a, b), i, j)
         for i, a in enumerate(n1) for j, b in enumerate(n2)),
        key=lambda t: (-t[0], t[1], t[2]))
    used1: set[int] = set()
    used2: set[int] = set()
    total = 0.0
    for s, i, j in scored:
        if i in used1 or j in used2:
            continue
        used1.add(i)
        used2.add(j)
        total += s
    return total / min(len(n1), len(n2))


def threshold_sweep(kind: str, ds: Dataset, refs, cfg: SimilarityConfig,
                    thresholds, gold: GoldLabeling
                    ) -> dict[float, PairwiseMetrics]:
    """Metrics of one resolver at each threshold.  A baseline blocks and
    scores its pairs once and thresholds the stored scores; RC-ER clusters
    once and replays (``rcer_threshold_sweep``)."""
    if kind not in BASELINE_KINDS:
        raise ValueError(f"unknown baseline kind: {kind}")
    scope = set(refs)
    if kind == "RCER":
        return rcer_threshold_sweep(ds, scope, cfg, thresholds, gold)
    scores = baseline_scores(kind, ds, scope, SimilarityContext(ds, cfg))
    out = {}
    for t in thresholds:
        pairs = [p for p, s in scores.items() if s >= t]
        out[t] = (pairwise_metrics(transitive_closure(pairs, scope), gold,
                                   scope)
                  if kind.endswith("_star")
                  else pairwise_metrics_from_pairs(pairs, gold, scope))
    return out


def evaluate_baseline(kind: str, ds: Dataset, refs, cfg: SimilarityConfig,
                      threshold: float, gold: GoldLabeling) -> PairwiseMetrics:
    """Metrics of one resolver at one threshold."""
    return threshold_sweep(kind, ds, refs, cfg, [threshold], gold)[threshold]


def best_f1_over_thresholds(resolver, thresholds) -> tuple[float, PairwiseMetrics]:
    """``resolver(threshold) -> PairwiseMetrics``; ties favor the lowest
    threshold."""
    if not thresholds:
        raise ValueError("no thresholds given")
    best = None
    for t in thresholds:
        m = resolver(t)
        if best is None or m.f1 > best[1].f1:
            best = (t, m)
    return best


def rcer_threshold_sweep(ds: Dataset, refs, cfg: SimilarityConfig,
                         thresholds, gold: GoldLabeling, **rcer_kwargs):
    """One clustering run, recorded at the lowest threshold and replayed
    at each."""
    scope = set(refs)
    result = run_rcer(ds, scope,
                      replace(cfg, merge_threshold=min(thresholds)),
                      **rcer_kwargs)
    out = {}
    for t in thresholds:
        part = partition_at_threshold(result, t)
        out[t] = pairwise_metrics(part, gold, scope)
    return out


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
            est = AmbiguityEstimator(out.dataset)
            query_name = max(est.name_counts,
                             key=lambda n: (est.name_counts[n], n))
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
    return {t: pairwise_metrics(answer.groups(t), gold, answer.rset.levels[0])
            for t in thresholds}
