"""Analytical model of resolution quality on gold-labeled data.

Four structural probabilities are estimated per entity (pair): how often
same-entity reference pairs look similar (a_I), how often cross-entity
pairs look similar (a_A), and how often such pairs are connected by
identifying (r_I) or ambiguity-inducing (r_A) co-occurrence evidence.
Depth-limited recursions then predict recall and imprecision of
relationship-propagating resolution.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import combinations, product

from .corpus import Dataset, GoldLabeling
from .similarity import SimilarityConfig, SimilarityContext


@dataclass
class StructuralProbs:
    a_i: dict[str, float] = field(default_factory=dict)
    a_a: dict[tuple[str, str], float] = field(default_factory=dict)
    r_i: dict[str, float] = field(default_factory=dict)
    r_a: dict[tuple[str, str], float] = field(default_factory=dict)
    neighbor_weights: dict[str, dict[str, float]] = field(default_factory=dict)


def _pair_key(e1: str, e2: str) -> tuple[str, str]:
    return (e1, e2) if e1 <= e2 else (e2, e1)


def _pair_rates(ds: Dataset, gold: GoldLabeling, keep, hit):
    """Per entity, the fraction of its reference pairs passing ``keep`` that
    pass ``hit(r1, r2, True)``; per entity pair, the same over its cross
    pairs with ``hit(r1, r2, False)``.  An entity (pair) without a kept
    pair is left out."""
    by_entity: dict[str, list[str]] = defaultdict(list)
    for rid in sorted(ds.references):
        by_entity[gold.entity_of(rid)].append(rid)

    def rate(pairs, same_entity: bool):
        kept = [p for p in pairs if keep(*p)]
        return sum(hit(*p, same_entity) for p in kept) / len(kept) \
            if kept else None

    within = {e: x for e, refs in by_entity.items()
              if (x := rate(combinations(refs, 2), True)) is not None}
    cross = {_pair_key(e1, e2): x
             for e1, e2 in combinations(sorted(by_entity), 2)
             if (x := rate(product(by_entity[e1], by_entity[e2]), False))
             is not None}
    return within, cross


def estimate_attribute_probs(ds: Dataset, gold: GoldLabeling,
                             cfg: SimilarityConfig):
    """a_I(e): fraction of within-entity reference pairs that clear the
    conservative similarity threshold; a_A(e1,e2): same over cross pairs."""
    ctx = SimilarityContext(ds, cfg)
    return _pair_rates(ds, gold, lambda r1, r2: True,
                       lambda r1, r2, _: ctx.epsilon_similar(r1, r2))


def _has_witness(ds: Dataset, gold: GoldLabeling, ctx: SimilarityContext,
                 r1: str, r2: str, same_entity: bool) -> bool:
    """Some co-occurring partners of r1 and r2 are a liberal-similar pair of
    one entity (an identifying witness) or, without ``same_entity``, of two
    (an ambiguous witness); one partner seen from both sides is not a
    pair."""
    for p1 in ds.cooccurrences(r1):
        n1 = ds.references[p1].norm_name
        for p2 in ds.cooccurrences(r2):
            if (gold.entity_of(p1) == gold.entity_of(p2)) == same_entity \
                    and p1 != p2 \
                    and ctx.delta_similar(n1, ds.references[p2].norm_name):
                return True
    return False


def estimate_relational_probs(ds: Dataset, gold: GoldLabeling,
                              cfg: SimilarityConfig):
    """r_I(e): fraction of liberal-similar within-entity pairs connected by
    an identifying witness; r_A(e1,e2): analog over cross-entity pairs with
    an ambiguous witness.  Entities (pairs) with no liberal-similar pairs
    are omitted (callers treat missing as 0)."""
    ctx = SimilarityContext(ds, cfg)
    name = lambda rid: ds.references[rid].norm_name
    return _pair_rates(
        ds, gold, lambda r1, r2: ctx.delta_similar(name(r1), name(r2)),
        lambda r1, r2, same: _has_witness(ds, gold, ctx, r1, r2, same))


def estimate_neighbor_weights(ds: Dataset, gold: GoldLabeling
                              ) -> dict[str, dict[str, float]]:
    """Empirical fraction of each entity's co-occurrence incidences that
    involve each neighbor entity."""
    counts: dict[str, Counter] = defaultdict(Counter)
    for rid in ds.references:
        e = gold.entity_of(rid)
        for other in ds.cooccurrences(rid):
            counts[e][gold.entity_of(other)] += 1
    out: dict[str, dict[str, float]] = {}
    for e, c in counts.items():
        total = sum(c.values())
        out[e] = {n: v / total for n, v in c.items()}
    return out


def estimate_structural_probs(ds: Dataset, gold: GoldLabeling,
                              cfg: SimilarityConfig) -> StructuralProbs:
    a_i, a_a = estimate_attribute_probs(ds, gold, cfg)
    r_i, r_a = estimate_relational_probs(ds, gold, cfg)
    return StructuralProbs(
        a_i=a_i, a_a=a_a, r_i=r_i, r_a=r_a,
        neighbor_weights=estimate_neighbor_weights(ds, gold),
    )


def predict_recall(probs: StructuralProbs, entity: str, depth: int) -> float:
    """Depth-limited recursion: an entity's references resolve either by
    attribute alone, or through identifying relationships with neighbors
    that have themselves resolved one level shallower."""
    a = probs.a_i.get(entity, 0.0)
    if depth <= 0:
        return a
    r = probs.r_i.get(entity, 0.0)
    weights = probs.neighbor_weights.get(entity, {})
    nbr_term = sum(p * predict_recall(probs, n, depth - 1)
                   for n, p in weights.items())
    return a + (1 - a) * r * nbr_term


def predict_imprecision(probs: StructuralProbs, e1: str, e2: str,
                        depth: int) -> float:
    a = probs.a_a.get(_pair_key(e1, e2), 0.0)
    if depth <= 0:
        return a
    r = probs.r_a.get(_pair_key(e1, e2), 0.0)
    w1 = probs.neighbor_weights.get(e1, {})
    w2 = probs.neighbor_weights.get(e2, {})
    nbr_term = sum(
        p1 * p2 * predict_imprecision(probs, n1, n2, depth - 1)
        for n1, p1 in w1.items() for n2, p2 in w2.items()
    )
    return a + (1 - a) * r * nbr_term


def closed_form_gp(a: float, r: float, n: int) -> float:
    """a * sum_{i=0..n} ((1-a) r)^i, with the ratio-1 limit a*(n+1)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    q = (1 - a) * r
    if abs(q - 1.0) < 1e-15:
        return a * (n + 1)
    return a * (1 - q ** (n + 1)) / (1 - q)


def uniform_probs(a: float, r: float, entity: str = "e") -> StructuralProbs:
    """Single self-neighboring entity with constant probabilities; its
    depth-n predicted recall is the (n+1)-term geometric partial sum."""
    return StructuralProbs(
        a_i={entity: a}, r_i={entity: r},
        neighbor_weights={entity: {entity: 1.0}},
    )


def prediction_table(probs: StructuralProbs, depth: int) -> str:
    lines = ["entity\tdepth\tpredicted_recall"]
    for e in sorted(probs.a_i):
        lines.append(f"{e}\t{depth}\t{predict_recall(probs, e, depth):.6f}")
    return "\n".join(lines)
