"""Query expansion: building the set of references relevant to a query.

Level 0 retrieves references whose name matches the query value exactly or
liberally; odd levels add co-occurring references; even levels add
same-name references of the previous frontier.  Adaptive variants cap the
growth of each level using a cheap per-name ambiguity estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .corpus import (Dataset, Query, finite_number, first_initial, last_name,
                     normalize_name)
from .similarity import delta_neighbours

# Query names whose last name shows fewer distinct first initials than this
# expand to depth 1 under ``adaptive_depth``.
INITIALS_CUTOFF = 10


@dataclass
class ExpansionParams:
    """``delta`` parametrizes level 0's liberal rule
    (``similarity.delta_similar_names``); only the numeric rule reads it."""

    d_star: int = 3
    delta: float = 0.0
    h_max: float | None = None
    a_max: float | None = None
    adaptive_depth: bool = False

    def __post_init__(self):
        if self.d_star < 0:
            raise ValueError("d_star must be non-negative")
        if self.h_max is not None and not 1 <= self.h_max < math.inf:
            raise ValueError(f"h_max must be finite and at least 1, not "
                             f"{self.h_max}")
        if self.a_max is not None and not 0 < self.a_max <= 1:
            raise ValueError("a_max must be in (0, 1]")


@dataclass
class RelevantSet:
    levels: list[set[str]]

    @property
    def answerable(self) -> bool:
        return bool(self.levels[0])  # some reference matches the query

    @property
    def union(self) -> set[str]:
        return set().union(*self.levels)


def x_a(ds: Dataset, value: str, delta: float = 0.0) -> set[str]:
    """References whose name matches ``value`` exactly or passes the liberal
    (delta) rule with it; a non-finite numeric value raises ``ValueError``."""
    numeric = ds.name_mode == "numeric"
    value = normalize_name(value)
    if numeric:
        finite_number(value)
    out = set(ds.name_index.get(value, ()))
    for name in delta_neighbours(value, ds.name_buckets, numeric, delta):
        out.update(ds.name_index[name])
    return out


def x_h(ds: Dataset, refs: set[str]) -> set[str]:
    """References co-occurring with the input set, the input set excluded."""
    return {other for rid in refs for other in ds.cooccurrences(rid)} - refs


def x_a_exact(ds: Dataset, refs) -> set[str]:
    """All references sharing an exact normalized name with the input set."""
    out: set[str] = set()
    for rid in refs:
        out.update(ds.name_index[ds.references[rid].norm_name])
    return out


class AmbiguityEstimator:
    """Per-name ambiguity estimates from corpus counts.

    The naive estimate is the fraction of all references carrying the name;
    the conditional estimate, which text datasets use (the secondary
    attribute is the first initial given the last name), counts distinct
    secondary values instead.  Numeric datasets have no secondary attribute
    and use the naive one.  Both take normalized names.
    """

    def __init__(self, ds: Dataset):
        self.numeric = ds.name_mode == "numeric"
        self.total = len(ds.references)
        self.name_index = ds.name_index
        self.initials_by_last: dict[str, set[str]] = {}
        if not self.numeric:
            for r in ds.references.values():
                ln = last_name(r.norm_name)
                fi = first_initial(r.norm_name)
                if ln and fi:
                    self.initials_by_last.setdefault(ln, set()).add(fi)

    def estimate(self, value: str) -> float:
        if self.total == 0:
            return 0.0
        if self.numeric:
            return len(self.name_index.get(value, ())) / self.total
        return self.distinct_initials(value) / self.total

    def distinct_initials(self, value: str) -> int:
        return len(self.initials_by_last.get(last_name(value), set()))


def adaptive_depth(est: AmbiguityEstimator, query: Query,
                   params: ExpansionParams) -> int:
    """Depth 1 suffices for query names whose last name shows fewer than
    ``INITIALS_CUTOFF`` distinct first initials in the corpus
    (low-ambiguity names)."""
    if est.distinct_initials(normalize_name(query.value)) < INITIALS_CUTOFF:
        return 1
    return params.d_star


def _by_ambiguity(ds: Dataset, est: AmbiguityEstimator, rids, k: int,
                  most: bool = False) -> list[str]:
    """The k least (with ``most``, the k most) ambiguous of the reference
    ids; ties by name, then id."""
    def key(rid: str):
        name = ds.references[rid].norm_name
        return est.estimate(name), name, rid
    return sorted(rids, key=key, reverse=most)[:k]


def adaptive_x_h(ds: Dataset, frontier, h_max: float,
                 est: AmbiguityEstimator) -> set[str]:
    """The k least-ambiguous co-occurring references, k = floor(h_max *
    |frontier|)."""
    k = int(h_max * len(frontier))
    full = x_h(ds, frontier)
    if len(full) <= k:
        return full
    return set(_by_ambiguity(ds, est, full, k))


def adaptive_x_a(ds: Dataset, frontier, a_max: float,
                 est: AmbiguityEstimator) -> set[str]:
    """Exact-name expansion of only the k most-ambiguous frontier
    references, k = ceil(a_max * |frontier|)."""
    k = math.ceil(a_max * len(frontier))
    return x_a_exact(ds, _by_ambiguity(ds, est, frontier, k, most=True))


def build_relevant_set(ds: Dataset, q: Query,
                       params: ExpansionParams | None = None) -> RelevantSet:
    """Alternating breadth-limited expansion around the query value.

    Level 0 is the liberal name lookup; odd levels follow co-occurrences;
    even levels (2+) follow exact names.  Each reference appears only at
    its first-discovered level.
    """
    if params is None:
        params = ExpansionParams()
    adaptive = params.h_max is not None or params.a_max is not None \
        or params.adaptive_depth
    est = AmbiguityEstimator(ds) if adaptive else None
    depth = adaptive_depth(est, q, params) if params.adaptive_depth \
        else params.d_star

    level0 = x_a(ds, q.value, params.delta)
    if not level0:
        return RelevantSet(levels=[set()])
    levels = [level0]
    seen = set(level0)
    frontier = level0
    for i in range(1, depth + 1):
        if i % 2 == 1:
            if params.h_max is not None:
                nxt = adaptive_x_h(ds, frontier, params.h_max, est)
            else:
                nxt = x_h(ds, frontier)
        elif params.a_max is not None:
            nxt = adaptive_x_a(ds, frontier, params.a_max, est)
        else:
            nxt = x_a_exact(ds, frontier)
        nxt -= seen
        levels.append(nxt)
        seen |= nxt
        frontier = nxt
        if not frontier:
            # remaining levels are necessarily empty
            levels.extend(set() for _ in range(i + 1, depth + 1))
            break
    return RelevantSet(levels=levels)
