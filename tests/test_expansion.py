import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qer.corpus import Query, ingest
from qer.expansion import (
    AmbiguityEstimator,
    ExpansionParams,
    adaptive_depth,
    adaptive_x_a,
    adaptive_x_h,
    build_relevant_set,
    x_a,
    x_a_exact,
    x_h,
)
from qer import synthgen

from conftest import CORPUS_RECORDS


def test_params_validation():
    with pytest.raises(ValueError):
        ExpansionParams(d_star=-1)
    for h_max in (0.5, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="h_max"):
            ExpansionParams(h_max=h_max)
    with pytest.raises(ValueError):
        ExpansionParams(a_max=0.0)
    assert ExpansionParams().d_star == 3


def test_x_a_running_example(corpus_ds):
    assert x_a(corpus_ds, "W. Wang") == {"r1", "r4", "r8", "r9"}
    assert x_a(corpus_ds, "W. W. Wang") == {"r1", "r4", "r8", "r9"}
    assert x_a(corpus_ds, "Q. Nobody") == set()


def test_x_h(corpus_ds):
    assert x_h(corpus_ds, {"r1"}) == {"r2", "r3"}
    assert x_h(corpus_ds, set()) == set()
    assert x_h(corpus_ds, {"r1", "r4", "r8", "r9"}) == \
        {"r2", "r3", "r5", "r6", "r7", "r10"}


def test_x_a_exact(corpus_ds):
    assert x_a_exact(corpus_ds, {"r2"}) == {"r2", "r7"}
    assert x_a_exact(corpus_ds, {"r6"}) == {"r6"}
    assert x_a_exact(corpus_ds, set()) == set()


def test_build_relevant_set_levels(corpus_ds):
    r0 = build_relevant_set(corpus_ds, Query(value="W. Wang"),
                            ExpansionParams(d_star=0))
    assert r0.levels == [{"r1", "r4", "r8", "r9"}]
    r1 = build_relevant_set(corpus_ds, Query(value="W. Wang"),
                            ExpansionParams(d_star=1))
    assert r1.levels[1] == {"r2", "r3", "r5", "r6", "r7", "r10"}
    r3 = build_relevant_set(corpus_ds, Query(value="W. Wang"),
                            ExpansionParams(d_star=3))
    assert r3.union == set(corpus_ds.references)
    assert len(r3.levels) == 4


def test_unanswerable_query(corpus_ds):
    rset = build_relevant_set(corpus_ds, Query(value="Z. Zz"),
                              ExpansionParams(d_star=2))
    assert not rset.answerable
    assert rset.union == set()


def test_levels_are_disjoint(corpus_ds):
    rset = build_relevant_set(corpus_ds, Query(value="A. Ansari"),
                              ExpansionParams(d_star=3))
    seen = set()
    for lv in rset.levels:
        assert not (lv & seen)
        seen |= lv


def test_monotone_coverage(corpus_ds):
    unions = [
        build_relevant_set(corpus_ds, Query(value="C. Chen"),
                           ExpansionParams(d_star=d)).union
        for d in range(4)
    ]
    for smaller, larger in zip(unions, unions[1:]):
        assert smaller <= larger


def test_estimator_naive():
    # numeric datasets use the naive estimate: the fixture corpus with
    # each name replaced by a number ("W. Wang" -> "1.0", "L. Li" -> "4.0")
    numbers = {"W. Wang": "1.0", "C. Chen": "2.0", "A. Ansari": "3.0",
               "L. Li": "4.0", "W. W. Wang": "5.0"}
    ds = ingest([{**rec, "authors": [{**a, "name": numbers[a["name"]]}
                                     for a in rec["authors"]]}
                 for rec in CORPUS_RECORDS], name_mode="numeric")
    est = AmbiguityEstimator(ds)
    assert est.estimate("1.0") == pytest.approx(0.3)
    assert est.estimate("4.0") == pytest.approx(0.1)
    assert est.estimate("9.0") == 0.0


def test_estimator_conditional(corpus_ds):
    est = AmbiguityEstimator(corpus_ds)  # secondary attribute on by default
    # one distinct first initial for last name "wang", out of 10 references
    assert est.estimate("w wang") == pytest.approx(0.1)


def test_adaptive_depth(corpus_ds):
    est = AmbiguityEstimator(corpus_ds)
    params = ExpansionParams(d_star=3)
    assert adaptive_depth(est, Query(value="W. Wang"), params) == 1
    # "wang" with INITIALS_CUTOFF (10) distinct first initials
    wide = ingest([{"pub_id": f"p{c}", "authors": [f"{c}. Wang"]}
                   for c in "ABCDEFGHIJ"])
    assert adaptive_depth(AmbiguityEstimator(wide), Query(value="W. Wang"),
                          params) == 3


def test_adaptive_x_h_bound_inactive(corpus_ds):
    est = AmbiguityEstimator(corpus_ds)
    frontier = {"r1", "r4", "r8", "r9"}
    assert adaptive_x_h(corpus_ds, frontier, 10.0, est) == x_h(corpus_ds, frontier)
    assert adaptive_x_h(corpus_ds, set(), 2.0, est) == set()


def test_adaptive_x_h_rank_and_ties(corpus_ds):
    est = AmbiguityEstimator(corpus_ds)
    frontier = {"r1", "r4", "r8", "r9"}
    out = adaptive_x_h(corpus_ds, frontier, 1.0, est)
    # k = 4; every co-occurring name ties on the estimate, so the name/id
    # tie-break keeps all three Ansari refs plus the first Chen ref
    assert out == {"r10", "r3", "r5", "r2"}


def test_adaptive_x_a(corpus_ds):
    est = AmbiguityEstimator(corpus_ds)
    frontier = {"r2", "r3", "r6", "r7", "r9"}
    full = adaptive_x_a(corpus_ds, frontier, 1.0, est)
    assert full == x_a_exact(corpus_ds, frontier)
    one = adaptive_x_a(corpus_ds, frontier, 0.2, est)
    # exactly one name expanded
    expanded_names = {corpus_ds.references[r].norm_name for r in one}
    assert len(expanded_names) == 1
    assert adaptive_x_a(corpus_ds, set(), 0.2, est) == set()


@given(st.integers(0, 5), st.floats(1.0, 6.0), st.floats(0.05, 1.0))
@settings(max_examples=25, deadline=None)
def test_adaptive_bounds_hold(seed, h_max, a_max):
    out = synthgen.generate(synthgen.GenParams(
        n_entities=30, n_relationships=60, n_hyperedges=60,
        p_a=0.4, p_c=0.6, seed=seed))
    ds = out.dataset
    est = AmbiguityEstimator(ds)
    frontier = set(list(ds.references)[:9])
    hx = adaptive_x_h(ds, frontier, h_max, est)
    assert len(hx) <= int(h_max * len(frontier))
    assert hx <= x_h(ds, frontier)
    ax = adaptive_x_a(ds, frontier, a_max, est)
    expanded = {ds.references[r].norm_name for r in ax}
    assert len(expanded) <= math.ceil(a_max * len(frontier))
    assert ax <= x_a_exact(ds, frontier)


def test_adaptive_levels_subset_of_unconstrained(corpus_ds):
    q = Query(value="W. Wang")
    full = build_relevant_set(corpus_ds, q, ExpansionParams(d_star=3))
    capped = build_relevant_set(corpus_ds, q,
                                ExpansionParams(d_star=3, h_max=1.0, a_max=0.2))
    assert capped.levels[1] <= full.levels[1]
    assert capped.union <= full.union


def test_estimator_correlates_with_true_ambiguity():
    out = synthgen.generate(synthgen.GenParams(
        n_entities=150, n_relationships=300, n_hyperedges=900,
        p_a=0.5, p_c=0.5, seed=5))
    ds, gold = out.dataset, out.gold
    est = AmbiguityEstimator(ds)
    names, estimates, true_entities = [], [], []
    for name, ids in ds.name_index.items():
        names.append(name)
        estimates.append(est.estimate(name))
        true_entities.append(len({gold.entity_of(r) for r in ids}))
    corr = np.corrcoef(estimates, true_entities)[0, 1]
    assert corr >= 0.6
