import gc
import heapq
import itertools
import random
import tracemalloc
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from qer.corpus import Query, ingest
from qer.expansion import ExpansionParams
from qer.rcer import (
    ClusterState,
    block_candidates,
    bootstrap,
    partition_at_threshold,
    resolve,
    run_rcer,
)
from qer.similarity import SimilarityConfig, SimilarityContext
from qer import rcer, synthgen
from qer.cli import SWEEP

from conftest import CORPUS_RECORDS, bench_module


@pytest.fixture
def ctx(corpus_ds, text_cfg):
    return SimilarityContext(corpus_ds, text_cfg)


def _blocked(ds, refs, ctx):
    """``block_candidates`` as a set of unordered pairs."""
    return {frozenset(p) for p in block_candidates(ds, refs, ctx)}


def test_block_candidates_wang_pairs(corpus_ds, ctx):
    wangs = {"r1", "r4", "r8", "r9"}
    pairs = _blocked(corpus_ds, corpus_ds.references, ctx)
    wang_pairs = {p for p in pairs if p <= wangs}
    assert wang_pairs == {frozenset(p) for p in itertools.combinations(sorted(wangs), 2)}
    assert frozenset(("r1", "r6")) not in pairs  # W. Wang vs L. Li


def test_block_candidates_single_ref(corpus_ds, ctx):
    assert _blocked(corpus_ds, {"r1"}, ctx) == set()


def test_block_candidates_numeric_window():
    ds = ingest([{"pub_id": "p", "authors": [
        {"id": "a", "name": "0.0"}, {"id": "b", "name": "1.0"},
        {"id": "c", "name": "30.0"}]}], name_mode="numeric")
    cfg = SimilarityConfig(alpha=0.5, epsilon=0.8, delta=0.7,
                           merge_threshold=0.3)
    pairs = _blocked(ds, ds.references, SimilarityContext(ds, cfg))
    assert pairs == {frozenset(("a", "b"))}


def test_block_candidates_lists_each_pair_once_in_id_order(corpus_ds, ctx):
    # same-name and cross-name pairs, text and numeric, refs in any order
    numeric = synthgen.generate(synthgen.GenParams(
        n_entities=40, n_relationships=80, n_hyperedges=150, p_a=0.5,
        seed=3)).dataset
    for ds, c in ((corpus_ds, ctx), (numeric, SimilarityContext(
            numeric, SimilarityConfig(alpha=0.5, epsilon=0.9, delta=0.7,
                                      merge_threshold=0.5)))):
        ids = list(ds.references)
        pairs = block_candidates(ds, ids, c)
        assert pairs and all(type(p) is tuple and len(p) == 2 and p[0] < p[1]
                             for p in pairs)
        assert len(set(pairs)) == len(pairs)
        random.Random(1).shuffle(ids)
        assert block_candidates(ds, ids, c) == pairs
        assert block_candidates(ds, set(ids), c) == pairs


def test_bootstrap_default_singletons(corpus_ds):
    parts = bootstrap(corpus_ds, sorted(corpus_ds.references))
    assert len(parts) == 10
    assert all(len(p) == 1 for p in parts)
    assert bootstrap(corpus_ds, []) == []


def test_bootstrap_exact_name_mode(corpus_ds):
    # Ansari is unambiguous (estimate below cutoff) and starts merged;
    # Wang is ambiguous and stays singleton
    ambiguity = {"a ansari": 0.05, "w wang": 0.5, "w w wang": 0.5,
                 "c chen": 0.5, "l li": 0.5}
    parts = bootstrap(corpus_ds, sorted(corpus_ds.references),
                      premerge=lambda name: ambiguity[name] < 0.1)
    assert {"r10", "r3", "r5"} in [set(p) for p in parts]
    assert sum(len(p) for p in parts) == 10
    assert all(len(p) == 1 for p in parts if "r1" in p or "r8" in p)


def test_merge_errors(corpus_ds, ctx):
    state = ClusterState(corpus_ds, ctx, [["r1"], ["r4"], ["r8"], ["r2"],
                                          ["r5"]])
    with pytest.raises(ValueError):
        state.merge(0, 0)
    new = state.merge(0, 1)
    assert state.members[new] == {"r1", "r4"}
    # the co-authors of both members, r2 on h1 and r5 on h2
    assert state.nbr[new] == {3: 1, 4: 1}
    with pytest.raises(KeyError):
        state.merge(0, 2)  # 0 retired by the previous merge


def _recount(ds, state, cid):
    """Neighbor labels of a cluster from scratch: each reference on its
    members' hyper-edges once, the cluster's own label left out."""
    edges = {ds.references[rid].edge for rid in state.members[cid]}
    return Counter(state.labels[other] for hid in edges
                   for other in ds.hyperedges[hid]
                   if state.labels[other] != cid)


MERGE_PICKS = st.lists(st.tuples(st.integers(0, 99), st.integers(1, 99)),
                       max_size=25)


def _merge_and_recount(ds, cfg, picks):
    """After any sequence of merges, every incrementally kept neighbor
    counter equals a recount from the hyper-edges."""
    state = ClusterState(ds, SimilarityContext(ds, cfg),
                         [[r] for r in sorted(ds.references)])
    for i, step in picks:
        live = sorted(state.members)
        if len(live) < 2:
            break
        a = live[i % len(live)]
        b = live[(i + step) % len(live)]
        if a == b:
            continue
        state.merge(a, b)
        for cid in state.members:
            assert state.nbr[cid] == _recount(ds, state, cid)


@given(st.integers(0, 9), MERGE_PICKS)
@settings(max_examples=30, deadline=None)
def test_neighbor_counters_match_recount(seed, picks):
    ds = synthgen.generate(synthgen.GenParams(
        n_entities=8, n_relationships=10, n_hyperedges=14, p_a=0.5,
        p_c=0.5, seed=seed)).dataset
    _merge_and_recount(ds, SimilarityConfig(
        alpha=0.5, epsilon=0.8, delta=0.7, merge_threshold=0.0), picks)


@given(st.integers(0, 9), MERGE_PICKS)
@settings(max_examples=30, deadline=None)
def test_text_neighbor_counters_match_recount(seed, picks):
    # records of several authors, so that merged members share edges
    ds = ingest(textgen.generate(n_entities=12, n_relationships=18,
                                 n_pubs=10, seed=seed).records)
    _merge_and_recount(ds, SimilarityConfig(
        alpha=0.5, epsilon=0.9, delta=0.9, merge_threshold=0.0), picks)


def test_run_rcer_empty_refs(corpus_ds, text_cfg):
    with pytest.raises(ValueError):
        run_rcer(corpus_ds, [], text_cfg)


def test_high_threshold_returns_bootstrap(corpus_ds, text_cfg):
    cfg = replace(text_cfg, merge_threshold=0.99)
    res = run_rcer(corpus_ds, sorted(corpus_ds.references), cfg)
    assert len(res.clusters) == 10
    assert res.merge_log == []


def test_attribute_only_identical_names_merge():
    ds = ingest([
        {"pub_id": "p1", "authors": [{"id": "a", "name": "X. Yu"}]},
        {"pub_id": "p2", "authors": [{"id": "b", "name": "X. Yu"}]},
    ])
    cfg = SimilarityConfig(alpha=0.0, epsilon=0.9, delta=0.9,
                           merge_threshold=0.5)
    res = run_rcer(ds, ["a", "b"], cfg)
    assert res.clusters == [frozenset(("a", "b"))]
    assert res.stopped_reason in ("exhausted", "threshold")


def test_running_example_cascade(corpus_ds, text_cfg):
    """With the merge threshold at 0 every blocked group eventually
    collapses: the relational feedback pulls the second W. Wang into the
    first Wang cluster once the two C. Chens merge."""
    res = run_rcer(corpus_ds, sorted(corpus_ds.references),
                   replace(text_cfg, merge_threshold=0.0))
    parts = {frozenset(c) for c in res.clusters}
    assert frozenset(("r1", "r4", "r8", "r9")) in parts   # both Wangs merged
    assert frozenset(("r2", "r7")) in parts               # both Chens merged
    assert frozenset(("r10", "r3", "r5")) in parts
    assert frozenset(("r6",)) in parts
    sims = [e[0] for e in res.merge_log]
    assert min(sims) >= 0.5  # every extraction was at least the name floor


def test_partition_invariant(corpus_ds, text_cfg):
    res = run_rcer(corpus_ds, sorted(corpus_ds.references), text_cfg)
    all_refs = sorted(r for c in res.clusters for r in c)
    assert all_refs == sorted(corpus_ds.references)


def test_determinism(corpus_ds, text_cfg):
    r1 = run_rcer(corpus_ds, sorted(corpus_ds.references), text_cfg)
    r2 = run_rcer(corpus_ds, sorted(corpus_ds.references), text_cfg)
    assert r1.merge_log == r2.merge_log
    assert r1.clusters == r2.clusters


def _naive_rcer(ds, ref_ids, cfg):
    """Reference implementation: recompute every candidate pair similarity
    from scratch each iteration."""
    ctx = SimilarityContext(ds, cfg)
    state = ClusterState(ds, ctx, [[r] for r in ref_ids])
    cand = set()
    for a, b in block_candidates(ds, ref_ids, ctx):
        ca, cb = state.labels[a], state.labels[b]
        if ca != cb:
            cand.add(frozenset((ca, cb)))
    log = []
    while cand:
        scored = []
        for pair in cand:
            a, b = sorted(pair)
            scored.append((-state.combined(a, b), a, b))
        scored.sort()
        neg, a, b = scored[0]
        if -neg < cfg.merge_threshold:
            break
        new = state.merge(a, b)
        log.append((-neg, a, b, new))
        nxt = set()
        for pair in cand:
            mapped = frozenset(new if c in (a, b) else c for c in pair)
            if len(mapped) == 2:
                nxt.add(mapped)
        cand = nxt
    clusters = {frozenset(m) for m in state.members.values()}
    return clusters, log


@pytest.mark.parametrize("seed", range(6))
def test_matches_naive_recompute_oracle(seed):
    params = synthgen.GenParams(n_entities=8, n_relationships=10,
                                n_hyperedges=14, p_a=0.5, p_c=0.5, seed=seed)
    out = synthgen.generate(params)
    cfg = SimilarityConfig(alpha=0.5, epsilon=0.8, delta=0.7,
                           merge_threshold=0.35)
    ref_ids = sorted(out.dataset.references)
    fast = run_rcer(out.dataset, ref_ids, cfg)
    naive_clusters, naive_log = _naive_rcer(out.dataset, ref_ids, cfg)
    assert set(fast.clusters) == naive_clusters
    assert [round(e[0], 9) for e in fast.merge_log] == \
        [round(e[0], 9) for e in naive_log]


@pytest.mark.parametrize("multiset", [False, True])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("seed", range(3))
def test_merge_log_equals_naive_oracle(seed, alpha, multiset):
    """Ids and scores of every merge, exactly, on corpora of about 160
    references with ambiguous relationships, so that every case of the
    refresh rule runs: pairs of two neighbors of the merged cluster, pairs
    of a neighbor that lost a label (set semantics) and skipped pairs."""
    out = synthgen.generate(synthgen.GenParams(
        n_entities=30, n_relationships=60, n_hyperedges=80, p_a=0.5,
        p_r_a=0.5, p_c=0.5, seed=seed))
    cfg = SimilarityConfig(alpha=alpha, epsilon=0.8, delta=0.7,
                           merge_threshold=0.0,
                           multiset_neighborhood=multiset)
    ref_ids = sorted(out.dataset.references)
    assert len(ref_ids) > 150
    assert run_rcer(out.dataset, ref_ids, cfg).merge_log == \
        _naive_rcer(out.dataset, ref_ids, cfg)[1]


textgen = bench_module("textgen")


@pytest.fixture(scope="module", params=[1, 2])
def text_corpus(request):
    return ingest(textgen.generate(
        n_entities=200, n_relationships=300, n_pubs=200,
        seed=request.param).records)


@pytest.mark.parametrize("multiset", [False, True])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_text_merge_log_equals_naive_oracle(text_corpus, alpha, multiset):
    """The same oracle on corpora of the benchmark's text generator: about
    450 references whose names share surnames, initials and typos."""
    cfg = SimilarityConfig(alpha=alpha, epsilon=0.9, delta=0.9,
                           merge_threshold=0.0,
                           multiset_neighborhood=multiset)
    ref_ids = sorted(text_corpus.references)
    assert len(ref_ids) > 400
    log = run_rcer(text_corpus, ref_ids, cfg).merge_log
    assert len(log) > 200
    assert log == _naive_rcer(text_corpus, ref_ids, cfg)[1]


class _CountingHeapq:
    def __init__(self):
        self.pushes = self.pops = 0

    def heappush(self, heap, item):
        self.pushes += 1
        heapq.heappush(heap, item)

    def heappop(self, heap):
        self.pops += 1
        return heapq.heappop(heap)


def test_loop_counters_match_heap_calls(monkeypatch):
    out = synthgen.generate(synthgen.GenParams(
        n_entities=30, n_relationships=60, n_hyperedges=80, p_a=0.5,
        p_r_a=0.5, p_c=0.5, seed=0))
    counting = _CountingHeapq()
    monkeypatch.setattr(rcer, "heapq", counting)
    for t in (0.0, 0.5):
        counting.pushes = counting.pops = 0
        res = run_rcer(out.dataset, out.dataset.references,
                       SimilarityConfig(alpha=0.5, epsilon=0.8, delta=0.7,
                                        merge_threshold=t))
        stops = res.stopped_reason == "threshold"
        assert res.heap_pushes == counting.pushes > 0
        assert res.stale_pops == counting.pops - len(res.merge_log) - stops
        assert res.stale_pops > 0


def test_merge_loop_refreshes_few_pairs():
    # re-queueing every pair of every neighbor of a merged cluster made
    # 38,284 pushes for 896 merges here (42.7 per merge)
    ds = synthgen.generate(synthgen.GenParams(seed=3)).dataset
    res = run_rcer(ds, ds.references,
                   SimilarityConfig(alpha=0.5, epsilon=0.9, delta=0.7,
                                    merge_threshold=0.0))
    assert len(res.merge_log) == 896
    assert res.heap_pushes < 25 * len(res.merge_log)


@pytest.mark.parametrize("seed", range(4))
def test_threshold_replay_equals_fresh_run(seed):
    params = synthgen.GenParams(n_entities=12, n_relationships=20,
                                n_hyperedges=30, p_a=0.5, p_c=0.5, seed=seed)
    out = synthgen.generate(params)
    cfg = SimilarityConfig(alpha=0.5, epsilon=0.8, delta=0.7,
                           merge_threshold=0.0)
    ref_ids = sorted(out.dataset.references)
    base = run_rcer(out.dataset, ref_ids, cfg)
    for t in (0.2, 0.35, 0.5, 0.8):
        replayed = {frozenset(c) for c in partition_at_threshold(base, t)}
        fresh = run_rcer(out.dataset, ref_ids,
                         replace(cfg, merge_threshold=t))
        assert replayed == set(fresh.clusters)


def test_replays_copy_only_the_clusters_they_merge():
    # the bench's numeric corpus and sweep: 2.9 MB for the 21 partitions
    # on CPython 3.11 (11.6 MB when each replay copied every cluster)
    ds = synthgen.generate(synthgen.GenParams(
        n_entities=400, n_relationships=800, n_hyperedges=2000, p_a=0.1,
        p_r_a=0.3, p_c=0.5, p_r=1.0, seed=1000)).dataset
    result = run_rcer(ds, ds.references, SimilarityConfig(
        alpha=0.5, epsilon=0.9, delta=0.7, merge_threshold=0.0))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        parts = [partition_at_threshold(result, t) for t in SWEEP]
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 5_000_000, retained
    for t, part in zip(SWEEP, parts):
        merged = set()
        for sim, c1, c2, _ in result.merge_log:
            if sim < t:
                break
            merged.update((c1, c2))
        held = {id(c) for c in part}
        untouched = [m for cid, m in result.initial_clusters
                     if cid not in merged]
        assert untouched and all(id(m) in held for m in untouched), t
        assert all(isinstance(c, frozenset) for c in part)


def test_ref_order_does_not_matter(corpus_ds, text_cfg):
    cfg = replace(text_cfg, merge_threshold=0.0)
    fwd = run_rcer(corpus_ds, sorted(corpus_ds.references), cfg)
    rev = run_rcer(corpus_ds, sorted(corpus_ds.references, reverse=True), cfg)
    assert fwd == rev


def test_replay_below_recorded_threshold_raises():
    # a log recorded at 0.5 holds no merge below 0.5: replayed at 0.3 it
    # would give 784 clusters where a fresh run at 0.3 gives 173
    out = synthgen.generate(synthgen.GenParams(seed=3))
    ds = out.dataset
    cfg = SimilarityConfig(alpha=0.5, epsilon=0.9, delta=0.9,
                           merge_threshold=0.5)
    recorded = run_rcer(ds, ds.references, cfg)
    assert recorded.merge_threshold == 0.5
    with pytest.raises(ValueError, match="recorded at 0.5"):
        partition_at_threshold(recorded, 0.3)
    assert len(run_rcer(ds, ds.references,
                        replace(cfg, merge_threshold=0.3)).clusters) == 173
    for t in (0.5, 0.7):
        fresh = run_rcer(ds, ds.references, replace(cfg, merge_threshold=t))
        assert {frozenset(c) for c in partition_at_threshold(recorded, t)} \
            == set(fresh.clusters)


def test_resolve_running_example(corpus_ds, text_cfg):
    params = ExpansionParams(d_star=3, delta=text_cfg.delta)
    answer = resolve(corpus_ds, Query(value="W. Wang"), params,
                     replace(text_cfg, merge_threshold=0.0))
    assert answer.rset.levels[0] == {"r1", "r4", "r8", "r9"}
    assert answer.result.merge_threshold == 0.0
    assert answer.extract_seconds >= 0 and answer.resolve_seconds >= 0
    assert answer.groups() == [["r1", "r4", "r8", "r9"]]
    assert answer.groups(0.6) == [["r1"], ["r4"], ["r8"], ["r9"]]
    for t in (0.0, 0.5, 0.6):
        at_t = resolve(corpus_ds, Query(value="W. Wang"), params,
                       replace(text_cfg, merge_threshold=t))
        assert at_t.groups() == answer.groups(t)
    with pytest.raises(ValueError):
        at_t.groups(0.5)  # recorded at 0.6
    nothing = resolve(corpus_ds, Query(value="Z. Zz"), params, text_cfg)
    assert not nothing.rset.answerable
    assert nothing.result is None and nothing.groups() == []


ORDER_CORPORA = {
    "text": CORPUS_RECORDS,
    "numeric": synthgen.generate(synthgen.GenParams(
        n_entities=12, n_relationships=20, n_hyperedges=30, p_a=0.5,
        p_c=0.5, seed=4)).records,
}


def _answers(records, mode):
    """Groups of adaptive queries for every distinct name, and the
    full-corpus clusters."""
    ds = ingest(records, name_mode=mode)
    cfg = SimilarityConfig(alpha=0.5, epsilon=0.9,
                           delta=0.7 if mode == "numeric" else 0.9,
                           merge_threshold=0.4)
    params = ExpansionParams(d_star=3, delta=cfg.delta, h_max=2.0,
                             a_max=0.5)
    names = sorted({r.name for r in ds.references.values()})
    return ({n: resolve(ds, Query(n), params, cfg).groups() for n in names},
            set(run_rcer(ds, ds.references, cfg).clusters))


@pytest.mark.parametrize("mode", sorted(ORDER_CORPORA))
@given(rng=st.randoms(use_true_random=False))
@settings(max_examples=8, deadline=None)
def test_record_order_does_not_change_answers(mode, rng):
    records = list(ORDER_CORPORA[mode])
    rng.shuffle(records)
    assert _answers(records, mode) == _answers(ORDER_CORPORA[mode], mode)


def _query_log(ds, name):
    """The merge log, with each similarity's exact bits, and the groups
    of the text query ``name`` on ``ds``."""
    cfg = SimilarityConfig(alpha=0.5, epsilon=0.9, delta=0.9,
                           merge_threshold=0.0)
    params = ExpansionParams(d_star=3, delta=cfg.delta, h_max=2.0, a_max=0.5)
    answer = resolve(ds, Query(name), params, cfg)
    return ([(sim.hex(), a, b, new) for sim, a, b, new
             in answer.result.merge_log], answer.groups())


@pytest.mark.parametrize("shuffled", [False, True])
def test_queries_leave_no_state_behind(shuffled):
    # a query on a dataset that already answered others gives what it
    # gives on a freshly ingested one, whatever came before it
    records = list(CORPUS_RECORDS)
    if shuffled:
        random.Random(5).shuffle(records)
    names = sorted({r.name for r in ingest(records).references.values()})
    alone = {n: _query_log(ingest(records), n) for n in names}
    assert any(log for log, _ in alone.values())
    for order in (names, names[::-1]):
        ds = ingest(records)
        assert {n: _query_log(ds, n) for n in order} == alone
