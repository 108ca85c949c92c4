import gc
import hashlib
import json
import random
import statistics
import tracemalloc

import pytest

from qer.analysis import estimate_relational_probs
from qer.corpus import ingest
from qer.similarity import SimilarityConfig
from qer.synthgen import (
    GenParams,
    OCCUPIED_HALF_WIDTH,
    SyntheticWorld,
    add_relationships,
    create_entities,
    generate,
    generate_hyperedges,
)


def _digest(out) -> str:
    w = out.world
    blob = json.dumps([out.records, w.relationships,
                       w.ambiguous_relationships, w.relationship_fallbacks])
    return hashlib.sha256(blob.encode()).hexdigest()


def test_params_validation():
    with pytest.raises(ValueError):
        GenParams(n_entities=-1)
    with pytest.raises(ValueError):
        GenParams(p_a=1.5)
    with pytest.raises(ValueError):
        GenParams(p_c=1.0)  # would never terminate


def test_determinism():
    params = GenParams(n_entities=40, n_relationships=80, n_hyperedges=120,
                       p_a=0.4, p_r_a=0.3, p_c=0.5, seed=99)
    a = generate(params)
    b = generate(params)
    assert a.records == b.records
    assert a.gold.assignments == b.gold.assignments


def test_p_a_zero_ranges_disjoint():
    world = create_entities(GenParams(n_entities=60, p_a=0.0, seed=1),
                            random.Random(1))
    xs = sorted(e.x for e in world.entities)
    for x1, x2 in zip(xs, xs[1:]):
        assert x2 - x1 > 2 * OCCUPIED_HALF_WIDTH
    assert not any(e.ambiguous for e in world.entities)


def test_p_a_one_second_entity_in_first_range():
    world = create_entities(GenParams(n_entities=2, p_a=1.0, seed=3),
                            random.Random(3))
    first, second = world.entities
    assert second.ambiguous
    assert first.lo <= second.x <= first.hi


def test_p_a_half_monte_carlo():
    fracs = []
    for seed in range(20):
        world = create_entities(GenParams(n_entities=1000, p_a=0.5, seed=seed),
                                random.Random(seed))
        fracs.append(sum(e.ambiguous for e in world.entities) / 1000)
    assert statistics.fmean(fracs) == pytest.approx(0.5, abs=0.05)


def test_no_relationships():
    params = GenParams(n_entities=10, n_relationships=0, n_hyperedges=5,
                       p_c=0.0, seed=2)
    out = generate(params)
    assert out.world.relationships == []
    assert all(not e.nbrs for e in out.world.entities)


def test_relationships_symmetric_and_counted():
    params = GenParams(n_entities=30, n_relationships=50, p_a=0.5,
                       p_r_a=0.5, seed=4)
    rng = random.Random(4)
    world = create_entities(params, rng)
    add_relationships(world, params, rng)
    assert len(world.relationships) == 50
    for a, b in world.relationships:
        assert b in world.entity(a).nbrs
        assert a in world.entity(b).nbrs


def test_p_r_a_zero_has_no_ambiguous_relationships():
    # with p_a = 0 no ranges intersect, so the witness scan finds nothing
    params = GenParams(n_entities=40, n_relationships=80, n_hyperedges=200,
                       p_a=0.0, p_r_a=0.0, p_c=0.5, seed=7)
    out = generate(params)
    assert out.world.ambiguous_relationships == 0
    cfg = SimilarityConfig(alpha=0.5, epsilon=0.8, delta=0.7,
                           merge_threshold=0.3)
    _, r_a = estimate_relational_probs(out.dataset, out.gold, cfg)
    assert all(v == 0.0 for v in r_a.values())


def test_p_r_a_monte_carlo():
    fracs = []
    for seed in range(20):
        out = generate(GenParams(n_entities=100, n_relationships=200,
                                 n_hyperedges=1, p_a=0.5, p_r_a=0.6,
                                 p_c=0.5, seed=seed))
        fracs.append(out.world.ambiguous_relationships / 200)
    assert statistics.fmean(fracs) == pytest.approx(0.6, abs=0.07)


def test_p_c_zero_singleton_edges():
    out = generate(GenParams(n_entities=20, n_relationships=40,
                             n_hyperedges=50, p_c=0.0, seed=5))
    assert all(len(ids) == 1 for ids in out.dataset.hyperedges.values())


def test_isolated_initiator_singleton_edge():
    params = GenParams(n_entities=5, n_relationships=0, n_hyperedges=30,
                       p_c=0.9, seed=6)
    out = generate(params)
    assert all(len(ids) == 1 for ids in out.dataset.hyperedges.values())


def test_mean_edge_size_dense_graph():
    means = []
    for seed in range(20):
        out = generate(GenParams(n_entities=40, n_relationships=400,
                                 n_hyperedges=300, p_a=0.0, p_c=0.5,
                                 seed=seed))
        sizes = [len(ids) for ids in out.dataset.hyperedges.values()]
        means.append(statistics.fmean(sizes))
    assert statistics.fmean(means) == pytest.approx(2.0, abs=0.1)


def test_gold_labels_and_counts():
    out = generate(GenParams(n_entities=25, n_relationships=50,
                             n_hyperedges=80, p_a=0.4, p_c=0.6, seed=8))
    entity_ids = {e.id for e in out.world.entities}
    assert set(out.gold.assignments.values()) <= entity_ids
    assert set(out.gold.assignments) == set(out.dataset.references)
    assert len(out.dataset.references) == \
        sum(len(ids) for ids in out.dataset.hyperedges.values())
    assert len(out.dataset.hyperedges) == 80


def test_values_track_entity_attribute():
    out = generate(GenParams(n_entities=10, n_relationships=20,
                             n_hyperedges=60, p_a=0.0, p_c=0.5, seed=9))
    for rid, eid in out.gold.assignments.items():
        x = out.world.entity(eid).x
        value = float(out.dataset.references[rid].norm_name)
        assert abs(value - x) < 6.0  # ~6 sigma


@pytest.mark.parametrize("p_r_a, digest", [
    (0.3, "dba10944544c8264c9b73a31ec590d9e2bc88f227629b194bed0e15ad585d02a"),
    (0.6, "974f3eebfe3df3ae416a18a8faf55aacd84618972fbc815a4b15b94e4edc50a9"),
    (1.0, "9efd658026635a163ef735dea180bfe46bcb17f08aecf1cba88884e99fc81d86"),
])
def test_output_pinned(p_r_a, digest):
    """Records and relationships of the benchmark's corpus shape are fixed
    byte for byte: a faster generator must draw the same values."""
    out = generate(GenParams(n_entities=400, n_relationships=800,
                             n_hyperedges=2000, p_a=0.1, p_r_a=p_r_a,
                             p_c=0.5, p_r=1.0, seed=1000))
    assert _digest(out) == digest


@pytest.mark.parametrize("params, digest", [
    # criterion 5's shape at its largest p_r_a
    (GenParams(n_entities=100, n_relationships=200, n_hyperedges=500,
               p_a=0.5, p_r_a=0.6, p_c=0.5, p_r=1.0, seed=5),
     "553779076015772c61bddb036905e4e7f41c873ebcc8066449940070c972441a"),
    # undirected extension draws (p_r < 1)
    (GenParams(n_entities=100, n_relationships=200, n_hyperedges=500,
               p_a=0.5, p_r_a=0.3, p_c=0.5, p_r=0.5, seed=4),
     "35b0d310598ae30abc671cfdb5fe16dddc882d1bd438e7804fbeb41409ccec95"),
    (GenParams(n_entities=800, n_relationships=1600, n_hyperedges=4000,
               p_a=0.3, p_r_a=0.3, p_c=0.5, p_r=1.0, seed=8),
     "50e96dc3f1b4a08ca4cb58fa5a091bc6ebb021494ac24d00f2e7092c62780faf"),
], ids=["criterion-5", "p_r-half", "800-entities"])
def test_more_shapes_pinned(params, digest):
    assert _digest(generate(params)) == digest


BENCH_SHAPE = GenParams(n_entities=400, n_relationships=800,
                        n_hyperedges=2000, p_a=0.1, p_r_a=0.3, p_c=0.5,
                        p_r=1.0, seed=1000)


def test_records_rebuild_the_dataset():
    out = generate(BENCH_SHAPE)
    again = ingest(out.records, name_mode="numeric")
    assert [(r.id, r.name, r.norm_name, r.edge, dict(r.extra_attrs))
            for r in again.references.values()] == \
        [(r.id, r.name, r.norm_name, r.edge, dict(r.extra_attrs))
         for r in out.dataset.references.values()]
    assert again.hyperedges == out.dataset.hyperedges
    assert again.name_index == out.dataset.name_index


def test_generate_keeps_one_copy_of_the_corpus():
    # resident bytes per reference of a generated corpus, its world
    # included: 390 B on CPython 3.11 (491 B with a HyperEdge object per
    # edge and name_index built at ingest, 826 B while the output also
    # held the records it was ingested from)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = generate(BENCH_SHAPE)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained / len(out.dataset) < 430, retained / len(out.dataset)


@pytest.mark.parametrize("p_a, digest", [
    (0.0, "f02a53a89d2b56ad74a90d3903c59be350b0675764ad5b335d8781b8fed20b64"),
    (0.5, "1e3f0d66f0305e377cee728d9f78c93e0fd742ee61f92945202d4ad8b9093fbd"),
])
def test_entities_pinned(p_a, digest):
    """The fresh-slot draws of 1,000 entities are fixed value for value."""
    world = create_entities(GenParams(n_entities=1000, p_a=p_a, seed=10),
                            random.Random(10))
    blob = json.dumps([[e.id, e.x, e.ambiguous] for e in world.entities])
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


@pytest.mark.parametrize("n", [200, 400, 800])
def test_lookalike_tests_per_entity_stay_flat(n, monkeypatch):
    """The look-alike search tests a handful of pairs per entity, not every
    other entity, whatever the size of the world."""
    calls = [0]
    test = SyntheticWorld.ranges_intersect

    def counted(self, e1, e2):
        calls[0] += 1
        return test(self, e1, e2)

    monkeypatch.setattr(SyntheticWorld, "ranges_intersect", counted)
    out = generate(GenParams(n_entities=n, n_relationships=2 * n,
                             n_hyperedges=1, p_a=0.3, p_r_a=0.3, p_c=0.5,
                             seed=n))
    assert out.world.ambiguous_relationships
    assert calls[0] <= 5 * n, calls[0] / n
