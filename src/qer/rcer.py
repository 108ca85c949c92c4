"""Greedy agglomerative relational clustering.

References start as (near-)singleton clusters; the algorithm repeatedly
extracts the most similar candidate cluster pair from a priority queue,
merges it, and re-queues the pairs whose score the merge changed.  Candidate
pairs come from cheap blocking; the loop stops when the best remaining
similarity drops below the merge threshold.  ``resolve`` answers a name
query: it expands the query's relevant set, clusters it and projects the
clusters onto level 0.

Refresh rule.  Merging a and b into ``new`` changes the representatives of
``new`` only, and the neighbor labels of ``new`` and of the clusters in
``nbr[new]`` (the clusters that neighbored a or b) only.  So after the pairs
of ``new``, a pair (ck, cn) with ck in ``nbr[new]`` is re-queued when cn is
also in ``nbr[new]`` (once, not from both sides), or, under set semantics,
when ck neighbored both a and b.  Every other pair keeps its queued score:
neighbors are symmetric, so cn neighbored neither a nor b and the two
clusters' common labels are unchanged; under multiset semantics ck's counts
only move from a and b to ``new``, and under set semantics ck swapped one
label for another, so their union is unchanged too.  So the newest entry
(-score, a, b) of a live pair holds its current score, and a popped entry is
live when both clusters are live and their score still equals it; of two
entries with that score, the second to pop finds the pair merged.  A refresh
only raises a queued score under multiset semantics, so an outdated entry
pops after the merge anyway; under set semantics two clusters that lose a
shared label can score lower, and only the score check turns that entry away.
"""

from __future__ import annotations

import heapq
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations

from .corpus import Dataset, Query, name_buckets
from .expansion import ExpansionParams, RelevantSet, build_relevant_set
from .similarity import (
    SimilarityConfig,
    SimilarityContext,
    delta_neighbours,
    jaccard,
)


def block_candidates(ds: Dataset, refs, ctx: SimilarityContext
                     ) -> list[tuple[str, str]]:
    """Each unordered pair of the given reference ids whose names pass the
    liberal (delta) rule once, as (smaller id, larger id), found with
    ``similarity.delta_neighbours``.  The list's order does not depend on
    the order of ``refs``."""
    by_name: dict[str, list[str]] = {}
    for rid in sorted(refs):
        by_name.setdefault(ds.references[rid].norm_name, []).append(rid)
    buckets = name_buckets(by_name, ctx.numeric)
    pairs: list[tuple[str, str]] = []
    for n1, ids1 in by_name.items():
        for n2 in delta_neighbours(n1, buckets, ctx.numeric, ctx.cfg.delta):
            if n2 == n1:  # ids1 is sorted
                pairs.extend(combinations(ids1, 2))
            elif n2 > n1:  # each pair of names once
                pairs.extend((a, b) if a < b else (b, a)
                             for a in ids1 for b in by_name[n2])
    return pairs


def bootstrap(ds: Dataset, refs, premerge=None) -> list[list[str]]:
    """Initial partition of the reference ids: one singleton per reference,
    in the given order.  With ``premerge``, the references sharing a
    normalized name for which ``premerge(name)`` holds start as one cluster
    instead (names in order of first appearance)."""
    if premerge is None:
        return [[rid] for rid in refs]
    groups: dict[str, list[str]] = {}
    for rid in refs:
        groups.setdefault(ds.references[rid].norm_name, []).append(rid)
    out: list[list[str]] = []
    for name, members in groups.items():
        if premerge(name):
            out.append(members)
        else:
            out.extend([rid] for rid in members)
    return out


@dataclass
class RcerResult:
    clusters: list[frozenset]
    merge_log: list[tuple]  # (sim, c1, c2, new_id)
    stopped_reason: str
    merge_threshold: float  # the log is complete down to this similarity
    initial_clusters: list[tuple] = field(default_factory=list)  # (id, frozenset)
    heap_pushes: int = 0  # merge-loop counters
    stale_pops: int = 0  # popped entries of retired clusters or old scores


class ClusterState:
    """The merge loop's clusters: members, per-attribute representatives
    and neighbor-label counters, kept up to date by ``merge``.  Cluster ids
    count up from 0 in the order of ``initial``."""

    def __init__(self, ds: Dataset, ctx: SimilarityContext,
                 initial: list[list[str]]):
        self.ds = ds
        self.ctx = ctx
        self.members: dict[int, set[str]] = {}
        self.labels: dict[str, int] = {}
        self.reps: dict[int, dict[str, str | None]] = {}
        self.next_id = len(initial)
        for cid, group in enumerate(initial):
            self.members[cid] = set(group)
            for rid in group:
                self.labels[rid] = cid
            self.reps[cid] = ctx.representatives(self.members[cid])
        self.nbr: dict[int, Counter] = {cid: self._compute_nbr(cid)
                                        for cid in self.members}

    def _compute_nbr(self, cid: int) -> Counter:
        """Labels of the cluster members' co-occurrence partners, its own
        label excluded.  Each partner counts once, and so each edge's
        references once, since a partner lies on one edge."""
        labels = self.labels
        partners = {p for rid in self.members[cid]
                    for p in self.ds.cooccurrences(rid)}
        return Counter(lab for p in partners
                       if (lab := labels.get(p)) is not None and lab != cid)

    def rel_sim(self, c1: int, c2: int) -> float:
        if self.ctx.cfg.multiset_neighborhood:
            return jaccard(self.nbr[c1], self.nbr[c2])
        return jaccard(self.nbr[c1].keys(), self.nbr[c2].keys())

    def combined(self, c1: int, c2: int) -> float:
        alpha = self.ctx.cfg.alpha
        a = self.ctx.attribute_sim(self.reps[c1], self.reps[c2]) \
            if alpha < 1.0 else 0.0
        r = self.rel_sim(c1, c2) if alpha > 0.0 else 0.0
        return (1 - alpha) * a + alpha * r

    def merge(self, c1: int, c2: int) -> int:
        if c1 == c2:
            raise ValueError("cannot merge a cluster with itself")
        if c1 not in self.members or c2 not in self.members:
            raise KeyError("merge of a retired cluster")
        new = self.next_id
        self.next_id += 1
        self.members[new] = self.members.pop(c1) | self.members.pop(c2)
        for rid in self.members[new]:
            self.labels[rid] = new
        self.reps.pop(c1), self.reps.pop(c2)
        self.reps[new] = self.ctx.representatives(self.members[new])
        self.nbr.pop(c1), self.nbr.pop(c2)
        self.nbr[new] = self._compute_nbr(new)
        for n in self.nbr[new]:
            cnt = self.nbr[n]
            moved = cnt.pop(c1, 0) + cnt.pop(c2, 0)
            if moved:
                cnt[new] = moved
        return new


def run_rcer(ds: Dataset, refs, cfg: SimilarityConfig,
             premerge=None) -> RcerResult:
    """Cluster the given reference ids from ``bootstrap(ds, refs,
    premerge)``; see the module docstring.

    The references are taken in sorted id order, so cluster ids, and with
    them the tie-breaks between equal scores, do not depend on the order
    (or hash order) of ``refs``.  The merge log records (similarity at
    extraction, cluster 1, cluster 2, merged id) in execution order, which
    lets a threshold sweep replay one run recorded at a low threshold
    instead of re-clustering per threshold.
    """
    ref_ids = sorted(refs)
    if not ref_ids:
        raise ValueError("no references to cluster")
    ctx = SimilarityContext(ds, cfg)
    state = ClusterState(ds, ctx, bootstrap(ds, ref_ids, premerge))
    initial = [(cid, frozenset(state.members[cid]))
               for cid in sorted(state.members)]

    cand: dict[int, set[int]] = {cid: set() for cid in state.members}
    for a, b in block_candidates(ds, ref_ids, ctx):
        ca, cb = state.labels[a], state.labels[b]
        if ca != cb:
            cand[ca].add(cb)
            cand[cb].add(ca)

    heap: list[tuple] = []

    def push(c1: int, c2: int):
        a, b = (c1, c2) if c1 < c2 else (c2, c1)
        heapq.heappush(heap, (-state.combined(a, b), a, b))

    for c1 in sorted(cand):
        for c2 in cand[c1]:
            if c1 < c2:
                push(c1, c2)

    merge_log: list[tuple] = []
    stopped_reason = "exhausted"
    stale_pops = 0
    while heap:
        neg, a, b = heapq.heappop(heap)
        if (a not in state.members or b not in state.members
                or state.combined(a, b) != -neg):  # see the module docstring
            stale_pops += 1
            continue
        sim = -neg
        if sim < cfg.merge_threshold:
            stopped_reason = "threshold"
            break
        # under set semantics, clusters that lose a neighbor label
        lost = set() if cfg.multiset_neighborhood \
            else state.nbr[a].keys() & state.nbr[b].keys()
        new = state.merge(a, b)
        merge_log.append((sim, a, b, new))
        cand[new] = (cand.pop(a) | cand.pop(b)) - {a, b}
        for p in cand[new]:
            cand[p].difference_update((a, b))
            cand[p].add(new)
            push(new, p)
        # refresh rule (module docstring): only the neighbors of new changed
        nbr_new = state.nbr[new]
        for ck in nbr_new:
            for cn in cand[ck]:
                if cn in nbr_new:
                    if ck < cn:
                        push(ck, cn)
                elif ck in lost and cn != new:
                    push(ck, cn)

    # a cluster no merge touched keeps its id, below len(initial), and
    # shares its initial frozenset
    clusters = [initial[cid][1] if cid < len(initial)
                else frozenset(state.members[cid])
                for cid in sorted(state.members)]
    return RcerResult(
        clusters=clusters,
        merge_log=merge_log,
        stopped_reason=stopped_reason,
        merge_threshold=cfg.merge_threshold,
        initial_clusters=initial,
        heap_pushes=(len(merge_log) + (stopped_reason == "threshold")
                     + stale_pops + len(heap)),  # popped or still queued
        stale_pops=stale_pops,
    )


def check_replayable(result: RcerResult, threshold: float):
    """``ValueError`` if ``threshold`` is below the one the merge log was
    recorded at: replaying there would need merges the log does not hold."""
    if threshold < result.merge_threshold:
        raise ValueError(
            f"cannot replay at threshold {threshold}: the merge log was "
            f"recorded at {result.merge_threshold}")


def partition_at_threshold(result: RcerResult,
                           threshold: float) -> list[frozenset]:
    """Replay the merge log, stopping at the first merge whose extraction
    similarity falls below ``threshold``.  Equivalent to a fresh run at that
    threshold, since the threshold only controls when the loop stops
    (within ``check_replayable``'s bound).  Only merged clusters are new
    objects: every other one is its frozenset in ``initial_clusters``."""
    check_replayable(result, threshold)
    members = {cid: frozenset(m) for cid, m in result.initial_clusters}
    for sim, c1, c2, new in result.merge_log:
        if sim < threshold:
            break
        members[new] = members.pop(c1) | members.pop(c2)
    return list(members.values())


@dataclass
class Answer:
    """A resolved query: its relevant set, the clustering of that set
    (None when nothing matches the query) and the time of each stage."""

    rset: RelevantSet
    result: RcerResult | None
    extract_seconds: float
    resolve_seconds: float

    def groups(self, threshold: float | None = None) -> list[list[str]]:
        """The clusters' level-0 parts, sorted; with a threshold, the
        clusters come from replaying the merge log at it."""
        if self.result is None:
            return []
        clusters = self.result.clusters if threshold is None \
            else partition_at_threshold(self.result, threshold)
        level0 = self.rset.levels[0]
        return sorted(sorted(c & level0) for c in clusters if c & level0)


def resolve(ds: Dataset, query: Query, params: ExpansionParams,
            cfg: SimilarityConfig) -> Answer:
    """Expand the query's relevant set and cluster it at
    ``cfg.merge_threshold``."""
    t0 = time.perf_counter()
    rset = build_relevant_set(ds, query, params)
    t1 = time.perf_counter()
    result = run_rcer(ds, rset.union, cfg) if rset.answerable else None
    return Answer(rset, result, t1 - t0, time.perf_counter() - t1)
