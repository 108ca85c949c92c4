import json

import pytest
from hypothesis import given, strategies as st

from qer.corpus import (
    GoldLabeling,
    IngestError,
    SNAPSHOT_HEADER,
    Query,
    blocking_key,
    first_initial,
    ingest,
    last_name,
    load_gold,
    load_snapshot,
    normalize_name,
    save_gold,
    save_snapshot,
)

from conftest import CORPUS_RECORDS, GOLD_ASSIGNMENTS


def test_normalize_name():
    assert normalize_name("  W.   Wang ") == "w wang"
    assert normalize_name("W. Wang") == normalize_name("W Wang") == "w wang"
    assert normalize_name("ANSARI, A.") == "ansari, a"


@given(st.text(max_size=40))
def test_normalize_idempotent(s):
    assert normalize_name(normalize_name(s)) == normalize_name(s)


def test_name_parts():
    assert first_initial("w wang") == "w"
    assert last_name("w w wang") == "wang"
    assert blocking_key("a ansari") == ("a", "a")


def test_ingest_structure(corpus_ds):
    assert len(corpus_ds.references) == 10
    assert len(corpus_ds.hyperedges) == 4
    assert corpus_ds.hyperedges["h1"].refs == ("r1", "r2", "r3")
    assert corpus_ds.references["r9"].norm_name == "w w wang"
    assert corpus_ds.references["r4"].hyperedges == {"h2"}


def test_ingest_rejects_duplicate_pub():
    records = [CORPUS_RECORDS[0], CORPUS_RECORDS[0]]
    with pytest.raises(IngestError, match="duplicate pub_id"):
        ingest(records)


def test_ingest_rejects_missing_fields():
    with pytest.raises(IngestError, match="pub_id"):
        ingest([{"authors": ["X. Yu"]}])
    with pytest.raises(IngestError, match="no authors"):
        ingest([{"pub_id": "p", "authors": []}])
    with pytest.raises(IngestError, match="name"):
        ingest([{"pub_id": "p", "authors": [{"id": "x"}]}])


def test_record_level_fields_copied_to_refs():
    ds = ingest([{"pub_id": "p", "title": "On Things",
                  "authors": ["A. Aa", "B. Bb"]}])
    for r in ds.references.values():
        assert r.extra_attrs["title"] == "On Things"


def test_string_authors_get_slot_ids():
    ds = ingest([{"pub_id": "p7", "authors": ["A. Aa", "B. Bb"]}])
    assert set(ds.references) == {"p7:0", "p7:1"}


def test_lookup_name(corpus_ds):
    index = corpus_ds.name_index
    assert index[normalize_name("W. Wang")] == {"r1", "r4", "r8"}
    assert normalize_name("nobody") not in index


def test_cooccurring(corpus_ds):
    assert set(corpus_ds.cooccurrences("r1")) == {("h1", "r2"), ("h1", "r3")}
    assert set(corpus_ds.cooccurrences("r4")) == {("h2", "r5")}
    with pytest.raises(KeyError):
        list(corpus_ds.cooccurrences("zz"))


def test_query_requires_value():
    with pytest.raises(ValueError):
        Query(value="")


def test_snapshot_roundtrip(corpus_ds, tmp_path):
    path = tmp_path / "snap.txt"
    save_snapshot(corpus_ds, path)
    ds2 = load_snapshot(path)
    assert set(ds2.references) == set(corpus_ds.references)
    assert ds2.hyperedges["h3"].refs == corpus_ds.hyperedges["h3"].refs
    assert ds2.name_mode == corpus_ds.name_mode


def test_gold_roundtrip(tmp_path):
    gold = GoldLabeling(dict(GOLD_ASSIGNMENTS))
    path = tmp_path / "gold.txt"
    save_gold(gold, path)
    gold2 = load_gold(path)
    assert gold2.assignments == gold.assignments
    assert gold2.entity_of("r9") == "e1"
    assert gold2.covers({"r1", "r10"})
    assert not gold2.covers({"r1", "zz"})


def test_numeric_mode_indexes():
    ds = ingest([{"pub_id": "p", "authors": [
        {"id": "a", "name": "1.5"}, {"id": "b", "name": "12.0"}]}],
        name_mode="numeric")
    assert ds.numeric_value("a") == 1.5
    assert [x for x, _ in ds.name_buckets] == [1.5, 12.0]


@pytest.mark.parametrize("name", ["nan", "inf", "-Infinity", "bob"])
def test_numeric_mode_rejects_non_finite_names(name):
    records = [{"pub_id": "p", "authors": [
        {"id": "a", "name": "1.0"}, {"id": "bad", "name": name}]}]
    with pytest.raises(IngestError, match="reference bad"):
        ingest(records, name_mode="numeric")
    assert ingest(records).references["bad"].name == name  # text mode


@pytest.mark.parametrize("payload", [json.dumps(p) for p in [
    {},
    [],
    {"references": [], "hyperedges": {}},
    {"references": [{"name": "A. Aa"}], "hyperedges": []},
    {"references": [{"id": 1, "name": "A. Aa"}], "hyperedges": []},
    {"references": [{"id": "a", "name": "A. Aa", "hyperedges": [["p"]]}],
     "hyperedges": [{"id": "p", "refs": ["a"]}]},
    {"references": [], "hyperedges": [{"id": "p", "refs": "a"}]},
    {"references": [], "hyperedges": [], "name_mode": "roman"},
    {"references": [{"id": "a", "name": "A. Aa", "hyperedges": ["p"]},
                    {"id": "a", "name": "B. Bb", "hyperedges": ["p"]}],
     "hyperedges": [{"id": "p", "refs": ["a"]}]},
    {"references": [{"id": "a", "name": "A. Aa", "hyperedges": ["p"]}],
     "hyperedges": [{"id": "p", "refs": ["a"]}, {"id": "p", "refs": ["a"]}]},
]] + ["{"])
def test_malformed_snapshot_raises_ingest_error(tmp_path, payload):
    path = tmp_path / "snap.txt"
    path.write_text(SNAPSHOT_HEADER + "\n" + payload)
    with pytest.raises(IngestError, match="snapshot"):
        load_snapshot(path)
