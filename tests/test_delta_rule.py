"""The liberal (delta) rule is written once, in
``similarity.delta_similar_names``; level 0 (``expansion.x_a``) and RC-ER
blocking (``rcer.block_candidates``) must agree with a brute-force scan
under it."""

import itertools
import random

import pytest

from qer.corpus import Dataset, Reference, ingest, normalize_name
from qer.expansion import x_a
from qer.rcer import block_candidates
from qer.similarity import (SimilarityConfig, SimilarityContext,
                            delta_similar_names)
from qer import synthgen


def _numeric_ds(names):
    return ingest([{"pub_id": "p", "authors": [
        {"id": f"r{i}", "name": n} for i, n in enumerate(names)]}],
        name_mode="numeric")


def _text_dataset(records):
    """A text dataset of {pub_id: [(reference id, name), ...]}, built by
    hand: ``ingest`` refuses a name that normalizes to nothing, as "."
    does."""
    refs = [Reference(rid, name, normalize_name(name), pub)
            for pub, authors in records.items() for rid, name in authors]
    return Dataset(refs)


def _text_ds(seed):
    """Short names over a tiny alphabet, so that many share a blocking key
    and differ by few edits; "." normalizes to the empty name."""
    rng = random.Random(seed)

    def name():
        if rng.random() < 0.03:
            return "."
        last = "".join(rng.choice("abn") for _ in range(rng.randint(1, 5)))
        middle = rng.choice(["", "b. ", "a "])
        return f"{rng.choice('AaB')}. {middle}{last.capitalize()}"

    return _text_dataset({f"p{i}": [(f"p{i}:{j}", name())
                                    for j in range(rng.randint(1, 3))]
                          for i in range(120)})


def _corpora():
    for seed in (0, 1):
        yield _text_ds(seed), 0.9
    for seed in (3, 4):
        ds = synthgen.generate(synthgen.GenParams(
            n_entities=40, n_relationships=80, n_hyperedges=150,
            p_a=0.5, seed=seed)).dataset
        for delta in (0.7, 0.9):
            yield ds, delta


@pytest.mark.parametrize("ds,delta", list(_corpora()))
def test_x_a_equals_brute_force_scan(ds, delta):
    numeric = ds.name_mode == "numeric"
    for value in ds.name_index:
        want = set(ds.name_index[value])
        for name, ids in ds.name_index.items():
            if delta_similar_names(value, name, numeric, delta):
                want.update(ids)
        assert x_a(ds, value, delta) == want, value


@pytest.mark.parametrize("ds,delta", list(_corpora()))
def test_block_candidates_equal_brute_force_scan(ds, delta):
    numeric = ds.name_mode == "numeric"
    ctx = SimilarityContext(ds, SimilarityConfig(
        alpha=0.5, epsilon=0.9, delta=delta, merge_threshold=0.5))
    want = {frozenset((r1.id, r2.id)) for r1, r2 in
            itertools.combinations(ds.references.values(), 2)
            if delta_similar_names(r1.norm_name, r2.norm_name, numeric,
                                   delta)}
    pairs = block_candidates(ds, ds.references, ctx)
    assert {frozenset(p) for p in pairs} == want
    assert len(pairs) == len(want)  # each pair once


def test_empty_names_are_not_candidates():
    ds = _text_dataset({"p": [("a", "."), ("b", "..")]})
    ctx = SimilarityContext(ds, SimilarityConfig(
        alpha=0.5, epsilon=0.9, delta=0.9, merge_threshold=0.5))
    assert block_candidates(ds, ds.references, ctx) == []
    assert x_a(ds, ".") == {"a", "b"}  # exact matches stay at level 0


def test_x_a_leaves_out_names_the_rule_rejects():
    # 168.3 - 166.5 = 1.8000000000000114 > (1 - 0.7) * 6 = 1.8000000000000003
    ds = _numeric_ds(["166.5", "168.2", "168.3", "164.8", "164.7"])
    assert x_a(ds, "166.5", 0.7) == {"r0", "r1", "r3"}
    assert not delta_similar_names("166.5", "168.3", True, 0.7)


def test_rule_and_blocking_agree_at_the_boundary():
    # 32.0 - 30.2 = 1.8000000000000007, just above the 0.7 gap
    ds = _numeric_ds(["30.2", "32.0"])
    ctx = SimilarityContext(ds, SimilarityConfig(
        alpha=0.5, epsilon=0.8, delta=0.7, merge_threshold=0.3))
    accepted = delta_similar_names("30.2", "32.0", True, 0.7)
    assert (("r0", "r1") in block_candidates(
        ds, ds.references, ctx)) == accepted
    assert ({"r0", "r1"} == x_a(ds, "30.2", 0.7)) == accepted


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "bob"])
def test_numeric_x_a_rejects_non_finite_values(value):
    ds = _numeric_ds(["1.0", "2.0"])
    with pytest.raises(ValueError, match=repr(value.lower())):
        x_a(ds, value, 0.7)
