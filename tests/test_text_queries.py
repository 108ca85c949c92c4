"""The benchmark's independent checks (``bench/checks.py``) on text queries
against a small ``bench/textgen`` corpus.  Levels, clusters and answer
groups are checked against indexes the checks rebuild from the raw records,
and the answers must not depend on the record order or the string hash
seed.  Run as a program, this file prints the digest of those answers."""

import hashlib
import json
import os
import random
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import pytest

from qer.corpus import Dataset, Query, ingest
from qer.expansion import ExpansionParams
from qer.rcer import resolve
from qer.similarity import SimilarityConfig

from conftest import bench_module

checks = bench_module("checks")
textgen = bench_module("textgen")

RECORDS = textgen.generate(n_entities=1000, n_relationships=1500,
                           n_pubs=1000, seed=7).records
# the benchmark's text-adaptive settings, and the same queries at full depth
CFG = SimilarityConfig(alpha=0.5, epsilon=0.9, delta=0.9, merge_threshold=0.3)
H_MAX = 4
PARAMS = {
    "adaptive": ExpansionParams(d_star=3, delta=CFG.delta, h_max=H_MAX,
                                a_max=0.2),
    "full": ExpansionParams(d_star=3, delta=CFG.delta),
}
# the raw names of every 25th reference
QUERIES = [a["name"] for rec in RECORDS for a in rec["authors"]][::25]


def _answers(records):
    """Each query's answer under each expansion, keyed (kind, value)."""
    ds = ingest(records)
    return {(kind, value): resolve(ds, Query(value), params, CFG)
            for value in QUERIES for kind, params in PARAMS.items()}


def _canonical(answers):
    """The levels and answer groups of every answer, as sorted lists."""
    return [[kind, value, [sorted(lv) for lv in a.rset.levels], a.groups()]
            for (kind, value), a in answers.items()]


def _digest(answers):
    canonical = json.dumps(_canonical(answers))
    return hashlib.sha256(canonical.encode()).hexdigest()


@pytest.fixture(scope="module")
def answers():
    return _answers(RECORDS)


def test_checks_find_no_error(answers):
    index = checks.RawIndex(RECORDS)
    cut = 0  # adaptive levels that h_max or a_max made smaller
    for (kind, value), a in answers.items():
        levels = a.rset.levels
        full = index.full_expansion(value, PARAMS[kind].d_star)
        if kind == "full":
            assert levels == full, value
            errs = []
        else:
            errs = checks.check_adaptive_levels(levels, index, value, H_MAX,
                                                set().union(*full))
            cut += sum(len(lv) < len(f) for lv, f in zip(levels[1:], full[1:]))
        errs += checks.check_rcer(
            a.result, a.rset.union, CFG.merge_threshold,
            lambda c: checks.text_cluster_connected(c, index.name_of))
        assert checks.is_partition_of(a.groups(), levels[0]), value
        assert not errs, (kind, value, errs)
    assert cut > 0


def test_a_query_builds_the_name_index_once(monkeypatch):
    builds = []
    build = Dataset.name_index.func
    counted = cached_property(lambda ds: builds.append(1) or build(ds))
    counted.__set_name__(Dataset, "name_index")
    monkeypatch.setattr(Dataset, "name_index", counted)
    ds = ingest(RECORDS)
    assert builds == []
    resolve(ds, Query(QUERIES[0]), PARAMS["adaptive"], CFG)
    assert builds == [1]
    names = {}
    for r in ds.references.values():
        names.setdefault(r.norm_name, []).append(r.id)
    assert ds.name_index == {n: tuple(ids) for n, ids in names.items()}
    assert builds == [1]


def test_record_order_does_not_change_answers(answers):
    records = list(RECORDS)
    random.Random(3).shuffle(records)
    assert _canonical(_answers(records)) == _canonical(answers)


def test_answers_do_not_depend_on_the_hash_seed(answers):
    hash_seed = "14" if os.environ.get("PYTHONHASHSEED") != "14" else "15"
    here = Path(__file__).resolve()
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(filter(None, [
                   str(here.parent.parent / "src"),
                   os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(here)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == _digest(answers)


if __name__ == "__main__":
    print(_digest(_answers(RECORDS)))
