import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from qer.analysis import (
    StructuralProbs,
    closed_form_gp,
    estimate_attribute_probs,
    estimate_neighbor_weights,
    estimate_relational_probs,
    estimate_structural_probs,
    predict_imprecision,
    predict_recall,
    prediction_table,
    uniform_probs,
)
from qer.corpus import GoldLabeling, ingest
from qer.similarity import SimilarityConfig, SimilarityContext
from qer import synthgen


def test_attribute_probs_running_example(corpus_ds, corpus_gold, text_cfg):
    a_i, a_a = estimate_attribute_probs(corpus_ds, corpus_gold, text_cfg)
    assert a_i["e1"] == pytest.approx(1 / 3)
    assert a_a[("e1", "e2")] == pytest.approx(2 / 3)
    assert a_i["e5"] == 1.0  # all Ansari references share one exact name
    assert "e2" not in a_i   # single-reference entity: undefined


def test_relational_probs_running_example(corpus_ds, corpus_gold, text_cfg):
    r_i, r_a = estimate_relational_probs(corpus_ds, corpus_gold, text_cfg)
    assert r_i["e1"] == 1.0
    assert r_a[("e1", "e2")] == pytest.approx(1 / 3)


def test_relational_probs_size_one_edges_only():
    ds = ingest([
        {"pub_id": "p1", "authors": [{"id": "a", "name": "X. Yu"}]},
        {"pub_id": "p2", "authors": [{"id": "b", "name": "X. Yu"}]},
        {"pub_id": "p3", "authors": [{"id": "c", "name": "X. Yi"}]},
    ])
    gold = GoldLabeling({"a": "e1", "b": "e1", "c": "e2"})
    cfg = SimilarityConfig(alpha=0.5, epsilon=0.98, delta=0.9,
                           merge_threshold=0.5)
    r_i, r_a = estimate_relational_probs(ds, gold, cfg)
    assert all(v == 0.0 for v in r_i.values())
    assert all(v == 0.0 for v in r_a.values())


def test_neighbor_weights_rows_sum_to_one(corpus_ds, corpus_gold):
    weights = estimate_neighbor_weights(corpus_ds, corpus_gold)
    for row in weights.values():
        assert sum(row.values()) == pytest.approx(1.0)
    # e1's co-occurrence incidences: r1-(e3,e5), r4-(e5), r9-(e5)
    assert weights["e1"]["e5"] == pytest.approx(3 / 4)
    assert weights["e1"]["e3"] == pytest.approx(1 / 4)


def _brute_force_relational(ds, gold, cfg):
    """Independent exhaustive witness scan over all hyper-edge pairs."""
    ctx = SimilarityContext(ds, cfg)
    refs = sorted(ds.references)
    name = lambda r: ds.references[r].norm_name

    def witness(r1, r2, same_entity):
        h1, h2 = ds.references[r1].edge, ds.references[r2].edge
        for p1 in ds.hyperedges[h1]:
            if p1 == r1:
                continue
            for p2 in ds.hyperedges[h2]:
                if p2 == r2 or (p1 == p2 and h1 == h2):
                    continue
                same = gold.entity_of(p1) == gold.entity_of(p2)
                if same != same_entity:
                    continue
                if ctx.delta_similar(name(p1), name(p2)):
                    return True
        return False

    within, cross = {}, {}
    for r1, r2 in itertools.combinations(refs, 2):
        if not ctx.delta_similar(name(r1), name(r2)):
            continue
        e1, e2 = gold.entity_of(r1), gold.entity_of(r2)
        if e1 == e2:
            hit = witness(r1, r2, True)
            within.setdefault(e1, []).append(hit)
        else:
            hit = witness(r1, r2, False)
            cross.setdefault(tuple(sorted((e1, e2))), []).append(hit)
    r_i = {e: sum(v) / len(v) for e, v in within.items()}
    r_a = {p: sum(v) / len(v) for p, v in cross.items()}
    return r_i, r_a


@pytest.mark.parametrize("seed", range(5))
def test_relational_probs_match_exhaustive_scan(seed):
    out = synthgen.generate(synthgen.GenParams(
        n_entities=6, n_relationships=8, n_hyperedges=9,
        p_a=0.6, p_c=0.6, seed=seed))
    cfg = SimilarityConfig(alpha=0.5, epsilon=0.8, delta=0.7,
                           merge_threshold=0.3)
    r_i, r_a = estimate_relational_probs(out.dataset, out.gold, cfg)
    oracle_i, oracle_a = _brute_force_relational(out.dataset, out.gold, cfg)
    assert r_i == pytest.approx(oracle_i)
    assert r_a == pytest.approx(oracle_a)


def test_predict_recall_depth_zero():
    probs = uniform_probs(0.4, 0.9)
    assert predict_recall(probs, "e", 0) == pytest.approx(0.4)


def test_predict_recall_uniform_partial_sum():
    probs = uniform_probs(0.33, 1.0)
    expected = 0.33 * (1 + 0.67 + 0.67 ** 2)
    assert predict_recall(probs, "e", 2) == pytest.approx(expected, abs=1e-9)
    assert expected == pytest.approx(0.699237, abs=1e-6)


def test_predict_recall_no_relations():
    probs = uniform_probs(0.4, 0.0)
    for d in range(5):
        assert predict_recall(probs, "e", d) == pytest.approx(0.4)


def test_predict_imprecision_cases():
    probs = StructuralProbs(
        a_a={("e1", "e2"): 0.66}, r_a={("e1", "e2"): 0.33},
        neighbor_weights={"e1": {"e1": 1.0}, "e2": {"e2": 1.0}},
    )
    probs.a_a[("e1", "e1")] = 0.66
    probs.a_a[("e2", "e2")] = 0.66
    probs.r_a[("e1", "e1")] = 0.33
    probs.r_a[("e2", "e2")] = 0.33
    assert predict_imprecision(probs, "e1", "e2", 0) == pytest.approx(0.66)
    q = 0.34 * 0.33
    expected = 0.66 * (1 + q + q * q)
    assert predict_imprecision(probs, "e1", "e2", 2) == \
        pytest.approx(expected, abs=1e-9)
    zero_r = StructuralProbs(a_a={("e1", "e2"): 0.66})
    for d in range(4):
        assert predict_imprecision(zero_r, "e1", "e2", d) == pytest.approx(0.66)


def test_closed_form_values():
    assert closed_form_gp(0.4, 0.5, 0) == pytest.approx(0.4)
    assert closed_form_gp(0.33, 1.0, 2) == pytest.approx(0.699237, abs=1e-6)
    assert closed_form_gp(0.0, 1.0, 5) == 0.0  # ratio-1 limit
    with pytest.raises(ValueError):
        closed_form_gp(0.4, 0.5, -1)


@given(st.floats(0.001, 0.999), st.floats(0.001, 0.999), st.integers(0, 10))
@settings(max_examples=100)
def test_closed_form_equals_unrolled_recursion(a, r, n):
    probs = uniform_probs(a, r)
    assert abs(closed_form_gp(a, r, n) - predict_recall(probs, "e", n)) < 1e-12


@given(st.floats(0.01, 0.99), st.floats(0.0, 1.0), st.integers(0, 8))
def test_convergence_tail_bound(a, r, n):
    probs = uniform_probs(a, r)
    diff = abs(predict_recall(probs, "e", n + 1) - predict_recall(probs, "e", n))
    assert diff <= ((1 - a) * r) ** (n + 1) + 1e-12


@given(st.floats(0.01, 0.99), st.floats(0.0, 1.0))
def test_monotone_in_depth(a, r):
    probs = uniform_probs(a, r)
    vals = [predict_recall(probs, "e", d) for d in range(6)]
    assert all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))


def test_prediction_table_format(corpus_ds, corpus_gold, text_cfg):
    probs = estimate_structural_probs(corpus_ds, corpus_gold, text_cfg)
    table = prediction_table(probs, 2)
    lines = table.splitlines()
    assert lines[0].split("\t") == ["entity", "depth", "predicted_recall"]
    assert len(lines) == 1 + len(probs.a_i)
