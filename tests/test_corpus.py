import gc
import hashlib
import json
import random
import re
import tracemalloc

import pytest
from hypothesis import given, strategies as st

import qer.corpus
import qer.expansion
import qer.similarity
from qer import rcer, synthgen
from qer.similarity import SimilarityConfig, SimilarityContext
from qer.corpus import (
    Dataset,
    GoldLabeling,
    IngestError,
    Query,
    Reference,
    blocking_key,
    first_initial,
    ingest,
    ingest_file,
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


raw_names = (st.text(st.sampled_from("aB. \t\n\x1c\x85\xa0\u2003\u3000İ"),
                     max_size=40)
             | st.text(max_size=40))


@given(raw_names)
def test_normalize_idempotent(s):
    # similarity takes stored names as they are: normalizing them again
    # would change nothing
    assert normalize_name(normalize_name(s)) == normalize_name(s)


@given(raw_names)
def test_normalize_matches_regex_split(s):
    # the regex form of the rule: split the stripped, lowercased name on
    # runs of whitespace
    tokens = re.split(r"\s+", s.strip().lower())
    assert normalize_name(s) == " ".join(t.rstrip(".") for t in tokens
                                         if t.rstrip("."))


def test_name_parts():
    assert first_initial("w wang") == "w"
    assert last_name("w w wang") == "wang"
    assert blocking_key("a ansari") == ("a", "a")


def test_ingest_structure(corpus_ds):
    assert len(corpus_ds.references) == 10
    assert len(corpus_ds.hyperedges) == 4
    assert corpus_ds.hyperedges["h1"] == ("r1", "r2", "r3")
    assert corpus_ds.references["r9"].norm_name == "w w wang"
    assert corpus_ds.references["r4"].edge == "h2"


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


@pytest.mark.parametrize("authors", ["Wang", {"W. Wang": 1, "C. Chen": 2}])
def test_ingest_rejects_authors_that_are_not_a_list(authors):
    # a string would ingest as one reference per letter, a mapping as
    # its keys
    records = [CORPUS_RECORDS[0], {"pub_id": "p1", "authors": authors}]
    with pytest.raises(IngestError,
                       match=r"record 1 \(p1\): authors is not a list"):
        ingest(records)


def test_record_level_fields_copied_to_refs():
    ds = ingest([{"pub_id": "p", "title": "On Things",
                  "authors": ["A. Aa", "B. Bb"]}])
    for r in ds.references.values():
        assert r.extra_attrs["title"] == "On Things"


def test_null_extra_attributes_are_dropped():
    ds = ingest([{"pub_id": "p", "venue": None, "year": 2007, "authors": [
        {"id": "a", "name": "A. Aa", "affil": None},
        {"id": "b", "name": "Z. Zz", "affil": None},
        {"id": "c", "name": "C. Cc", "affil": "umd"}]}])
    assert ds.references["a"].extra_attrs == {"year": "2007"}
    assert ds.references["c"].extra_attrs == {"affil": "umd", "year": "2007"}
    # two unknown affiliations are not a matching one
    cfg = SimilarityConfig(alpha=0.5, epsilon=0.9, delta=0.9,
                           merge_threshold=0.5,
                           attr_weights={"name": 0.5, "affil": 0.5})
    assert SimilarityContext(ds, cfg).ref_attribute_sim("a", "b") == 0.0


@pytest.mark.parametrize("value", [["er", "db"], {"topic": "er"}])
def test_list_or_mapping_attribute_rejected(value):
    with pytest.raises(IngestError,
                       match=r"record p7: author 1: attribute 'kw' is a"):
        ingest([{"pub_id": "p7", "authors": [
            "A. Aa", {"name": "B. Bb", "kw": value}]}])
    with pytest.raises(IngestError,
                       match=r"record 0 \(p7\): attribute 'kw' is a"):
        ingest([{"pub_id": "p7", "kw": value, "authors": ["A. Aa"]}])


@pytest.mark.parametrize("mode", ["Numeric", "bogus", ""])
def test_unknown_name_mode_rejected(mode, tmp_path):
    records = [{"pub_id": "p", "authors": ["1.0"]}]
    path = tmp_path / "records.jsonl"
    path.write_text(json.dumps(records[0]) + "\n")
    for build in (lambda: ingest(records, name_mode=mode),
                  lambda: ingest_file(path, name_mode=mode),
                  lambda: Dataset([], name_mode=mode)):
        with pytest.raises(IngestError, match="unknown name_mode"):
            build()


def test_string_authors_get_slot_ids():
    ds = ingest([{"pub_id": "p7", "authors": ["A. Aa", "B. Bb"]}])
    assert set(ds.references) == {"p7:0", "p7:1"}


def test_lookup_name(corpus_ds):
    index = corpus_ds.name_index
    assert index[normalize_name("W. Wang")] == ("r1", "r4", "r8")
    assert normalize_name("nobody") not in index


def test_cooccurring(corpus_ds):
    assert list(corpus_ds.cooccurrences("r1")) == ["r2", "r3"]
    assert list(corpus_ds.cooccurrences("r2")) == ["r1", "r3"]
    assert list(corpus_ds.cooccurrences("r4")) == ["r5"]
    with pytest.raises(KeyError):
        list(corpus_ds.cooccurrences("zz"))


def test_query_requires_value():
    with pytest.raises(ValueError):
        Query(value="")


def test_gold_roundtrip(tmp_path):
    gold = GoldLabeling(dict(GOLD_ASSIGNMENTS))
    path = tmp_path / "gold.txt"
    save_gold(gold, path)
    gold2 = load_gold(path)
    assert gold2.assignments == gold.assignments
    assert gold2.entity_of("r9") == "e1"
    assert gold2.covers({"r1", "r10"})
    assert not gold2.covers({"r1", "zz"})


@pytest.mark.parametrize("text, match", [
    ("r1 e1\nr2\n", "gold line 2: expected"),
    ("r1 e1\n\nr2 e2 extra\n", "gold line 3: expected"),
    ("r1 e1\nr2 e2\nr1 e3\n", "gold line 3: reference 'r1' listed twice"),
])
def test_malformed_gold_names_the_line(tmp_path, text, match):
    path = tmp_path / "gold.txt"
    path.write_text(text)
    with pytest.raises(IngestError, match=match):
        load_gold(path)


def test_numeric_mode_indexes():
    ds = ingest([{"pub_id": "p", "authors": [
        {"id": "a", "name": "1.5"}, {"id": "b", "name": "12.0"}]}],
        name_mode="numeric")
    assert float(ds.references["a"].norm_name) == 1.5
    assert [x for x, _ in ds.name_buckets] == [1.5, 12.0]


@pytest.mark.parametrize("name", ["nan", "inf", "-Infinity", "bob"])
def test_numeric_mode_rejects_non_finite_names(name):
    records = [{"pub_id": "p", "authors": [
        {"id": "a", "name": "1.0"}, {"id": "bad", "name": name}]}]
    with pytest.raises(IngestError, match="reference bad"):
        ingest(records, name_mode="numeric")
    assert ingest(records).references["bad"].name == name  # text mode
    # each distinct name is checked once; the error names the first
    # reference carrying it
    records = [{"pub_id": "p", "authors": [{"id": "a", "name": "1.0"}]},
               {"pub_id": "q", "authors": [{"id": "b1", "name": name},
                                           {"id": "ok", "name": "2.0"},
                                           {"id": "b2", "name": name}]}]
    with pytest.raises(IngestError, match=r"^reference b1: "):
        ingest(records, name_mode="numeric")


REC = '{"pub_id": "p", "authors": [{"id": "a", "name": "A. Aa"}]}'


@pytest.mark.parametrize("text, match", [
    # the header names the format and the name mode
    ("qer-dataset-v2\n" + REC,
     "snapshot header 'qer-dataset-v2': unknown name_mode ''"),
    ("qer-dataset-v2 roman\n" + REC,
     "snapshot header 'qer-dataset-v2 roman': unknown name_mode 'roman'"),
    # record lines are numbered after the header
    ("qer-dataset-v2 text\n{\n", "line 2: invalid record: Expecting"),
    ("qer-dataset-v2 text\n" + REC + "\n\n[]\n",
     "record 1: not a mapping"),
    ("qer-dataset-v2 text\n" + REC + "\n" + REC + "\n",
     "record 1: duplicate pub_id 'p'"),
    ('qer-dataset-v2 text\n{"pub_id": "p", "authors": [{"id": "a"}]}\n',
     "record p: author 0 has no name"),
    ('qer-dataset-v2 text\n{"pub_id": "p", "authors": ['
     '{"id": "a", "name": "A. Aa"}, {"id": "b", "name": ". ."}]}\n',
     "record 0 (p): empty author name"),
    ('qer-dataset-v2 numeric\n{"pub_id": "p", "authors": ['
     '{"id": "a", "name": "1.5"}, {"id": "b", "name": "nan"}]}\n',
     "reference b: numeric value 'nan' is not a finite number"),
], ids=["no name mode", "unknown name mode", "broken line", "not a mapping",
        "duplicate pub_id", "no author name", "empty author name",
        "non-finite numeric name"])
def test_malformed_snapshot_raises_ingest_error(tmp_path, text, match):
    path = tmp_path / "snap.txt"
    path.write_text(text)
    with pytest.raises(IngestError, match=re.escape(match)):
        load_snapshot(path)


FIRST = "adam alice ben carla david elena farid grace hugo irene".split()
LAST = ["wang"] + [a + b for a in ("ka", "lo", "mi", "ne", "ru", "sa", "te")
                   for b in ("bor", "den", "gan", "lis", "mot", "rek")]


def _text_records(n_pubs=450, seed=0):
    """Records of 2-3 authors drawn from a pool of 430 names, written as
    "F. Last" or "First  Last" (so most raw names are not normalized)."""
    rng = random.Random(seed)
    records = []
    for i in range(n_pubs):
        authors = []
        for _ in range(rng.choice((2, 3))):
            first, last = rng.choice(FIRST), rng.choice(LAST).title()
            authors.append(f"{first[0].upper()}. {last}" if rng.random() < 0.6
                           else f"{first.title()}  {last}")
        records.append({"pub_id": f"p{i}", "authors": authors})
    return records


@pytest.fixture
def normalize_calls(monkeypatch):
    """Counts calls through every module binding of ``normalize_name``."""
    calls = []
    for module in (qer.corpus, qer.similarity, qer.expansion):
        monkeypatch.setattr(
            module, "normalize_name",
            lambda name: calls.append(name) or normalize_name(name))
    return calls


def test_names_normalized_once_per_distinct_name(normalize_calls,
                                                 tmp_path):
    records = _text_records()
    raw = [a for rec in records for a in rec["authors"]]
    distinct = sorted(set(raw))
    ds = ingest(records)
    assert len(ds) == len(raw) >= 1000 and len(distinct) < 0.6 * len(raw)
    assert sorted(normalize_calls) == distinct
    # the names seen are kept for one ingest or load only
    normalize_calls.clear()
    ingest(records)
    assert sorted(normalize_calls) == distinct
    path = tmp_path / "snap.txt"
    save_snapshot(ds, path)
    normalize_calls.clear()
    load_snapshot(path)
    assert sorted(normalize_calls) == distinct
    normalize_calls.clear()
    params = qer.expansion.ExpansionParams(d_star=3, delta=0.9, h_max=4,
                                           a_max=0.2)
    cfg = qer.similarity.SimilarityConfig(alpha=0.5, epsilon=0.9, delta=0.9,
                                          merge_threshold=0.3)
    answer = rcer.resolve(ds, Query("A. Wang"), params, cfg)
    assert answer.rset.levels[0] and answer.result.merge_log
    # stored names are read as they are: the one call left normalizes the
    # query's own value
    assert normalize_calls == ["A. Wang"]


def _built_datasets(tmp_path):
    text = _text_records(n_pubs=40)
    numeric = synthgen.generate(synthgen.GenParams(
        n_entities=20, n_relationships=40, n_hyperedges=60, seed=1))
    padded = [{"pub_id": "q", "authors": [" 1.50", "2.0 ", "-3.25"]}]
    out = {"ingest text": ingest(text),
           "ingest numeric": ingest(padded, name_mode="numeric"),
           "synthgen": numeric.dataset}
    path = tmp_path / "records.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in text))
    out["ingest_file text"] = ingest_file(path)
    path = tmp_path / "numeric.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in numeric.records))
    out["ingest_file numeric"] = ingest_file(path, name_mode="numeric")
    for key in ("ingest text", "synthgen"):
        path = tmp_path / "snap.txt"
        save_snapshot(out[key], path)
        out[f"load_snapshot {out[key].name_mode}"] = load_snapshot(path)
    return out


def test_stored_name_is_normalized_name(tmp_path):
    built = _built_datasets(tmp_path)
    assert len(built) == 7
    for how, ds in built.items():
        assert ds.references, how
        for r in ds.references.values():
            assert r.norm_name == normalize_name(r.name), (how, r.name)
    # equal names share one string: a normalized name is stored as itself,
    # the others are interned
    for r in built["synthgen"].references.values():
        assert r.norm_name is r.name
    by_name = {}
    for r in built["ingest text"].references.values():
        assert by_name.setdefault(r.norm_name, r.norm_name) is r.norm_name


def test_set_up_builds_no_statistics(tmp_path):
    # the lazily built indexes wait for the first query, so timing set-up
    # does not time them
    for how, ds in _built_datasets(tmp_path).items():
        assert "corpus_stats" not in ds.__dict__, how
        assert "name_buckets" not in ds.__dict__, how


def test_snapshot_bytes_unchanged(corpus_ds, tmp_path):
    path = tmp_path / "snap.txt"
    save_snapshot(corpus_ds, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "2f0c27d31322a9a2ae50f2cb63c5d39cfaeb037bb54fdbfd06e0346e7aac06c8")


def _layout(ds):
    """Everything a dataset holds, and how many distinct attribute mappings
    its references and edges share."""
    refs = [(r.id, r.name, r.norm_name, r.norm_name is r.name,
             list(r.extra_attrs.items()), r.edge)
            for r in ds.references.values()]
    edge_attrs = [ds.edge_attrs.get(e, qer.corpus.NO_ATTRS)
                  for e in ds.hyperedges]
    edges = [(e, ids, list(attrs.items()))
             for (e, ids), attrs in zip(ds.hyperedges.items(), edge_attrs)]
    objects = [r.extra_attrs for r in ds.references.values()] + edge_attrs
    return (ds.name_mode, refs, edges, ds.name_index,
            len({id(x) for x in objects}))


def _assert_round_trip(ds, tmp_path):
    """save -> load rebuilds ``ds``, and saving that gives the same bytes."""
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    save_snapshot(ds, first)
    loaded = load_snapshot(first)
    assert _layout(loaded) == _layout(ds)
    save_snapshot(loaded, second)
    assert second.read_bytes() == first.read_bytes()


def test_snapshot_roundtrip(corpus_ds, tmp_path):
    _assert_round_trip(corpus_ds, tmp_path)
    # authors with attributes of their own
    _assert_round_trip(ingest([
        {"pub_id": "p", "year": 2007, "venue": "kdd", "authors": [
            "A. Aa", {"id": "b", "name": "B. Bb"},
            {"id": "c", "name": "C. Cc", "affil": "umd", "year": "2008"}]},
        {"pub_id": "q", "year": 2007, "venue": "kdd", "authors": [
            {"id": "d", "name": "A.  Aa", "affil": "umd"}]},
        # a record attribute an author's own "name" must not overwrite
        {"pub_id": "r", "name": "Proc. KDD", "authors": [
            {"id": "e", "name": "E. Ee", "affil": "umd"}]}]), tmp_path)


@pytest.mark.parametrize("how", [
    "ingest text", "ingest numeric", "synthgen", "ingest_file text",
    "ingest_file numeric", "load_snapshot text", "load_snapshot numeric"])
def test_snapshot_round_trip_of_each_built_dataset(tmp_path, how):
    _assert_round_trip(_built_datasets(tmp_path)[how], tmp_path)


def test_storage_layout(tmp_path):
    # however a dataset is built: slotted references, each edge a tuple
    # keyed by the record's own id string, which its authors share, the
    # one empty mapping for every reference without attributes, no mapping
    # kept for an edge without them, and name_index tuples in reference
    # order
    for how, ds in _built_datasets(tmp_path).items():
        assert ds.edge_attrs == {}, how
        for e, ids in ds.hyperedges.items():
            assert type(ids) is tuple, how
            for rid in ids:
                assert ds.references[rid].edge is e, (how, rid)
        for r in ds.references.values():
            assert not hasattr(r, "__dict__"), how
            assert r.extra_attrs is qer.corpus.NO_ATTRS, how
        order = {rid: i for i, rid in enumerate(ds.references)}
        for ids in ds.name_index.values():
            assert type(ids) is tuple, how
            assert list(ids) == sorted(ids, key=order.get), how
    with pytest.raises(TypeError):
        qer.corpus.NO_ATTRS["year"] = "2007"


def test_extra_attrs_are_shared_read_only_mappings(tmp_path):
    ingested = ingest([{"pub_id": "p", "year": 2007, "venue": "kdd",
                        "authors": ["A. Aa", {"id": "b", "name": "B. Bb"},
                                    {"id": "c", "name": "C. Cc",
                                     "affil": "umd", "year": "2008"}]}])
    path = tmp_path / "snap.txt"
    save_snapshot(ingested, path)
    for how, ds in (("ingest", ingested),
                    ("load_snapshot", load_snapshot(path))):
        refs, edge_attrs = ds.references, ds.edge_attrs["p"]
        a, b, c = refs["p:0"], refs["b"], refs["c"]
        # authors without attributes of their own share the record's mapping
        assert a.extra_attrs is b.extra_attrs is edge_attrs, how
        assert dict(edge_attrs) == {"year": "2007", "venue": "kdd"}
        # the author's own keys first (they win), then the record's it lacks
        assert list(c.extra_attrs.items()) == [
            ("affil", "umd"), ("year", "2008"), ("venue", "kdd")], how
        for attrs in (a.extra_attrs, c.extra_attrs):
            with pytest.raises(TypeError):
                attrs["venue"] = "icde"
        assert a.edge is b.edge is c.edge is next(iter(ds.hyperedges)), how


def test_ingest_retains_under_180_bytes_per_reference():
    # the resident cost of a loaded corpus, counted by tracemalloc: 144 B
    # per reference on CPython 3.11 (245 B with a HyperEdge object per
    # edge and name_index built at ingest; 764 B with a mutable hyper-edge
    # set and an attribute dict per reference and a set per name)
    records = synthgen.generate(synthgen.GenParams(
        n_entities=400, n_relationships=800, n_hyperedges=2000, p_a=0.1,
        p_r_a=0.3, p_c=0.5, p_r=1.0, seed=1000)).records
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ds = ingest(records, name_mode="numeric")
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained / len(ds) < 180, retained / len(ds)


def test_reference_repr_hides_norm_name():
    r = Reference(id="r1", name="W.  Wang",
                  norm_name=normalize_name("W.  Wang"), edge="h1")
    assert r.norm_name == "w wang"
    assert "norm_name" not in repr(r) and "w wang" not in repr(r)


def _ref(rid, edge):
    return Reference(rid, "A. Aa", "a aa", edge)


def test_hand_built_dataset_groups_references_by_edge():
    ds = Dataset([_ref("a", "q"), _ref("b", "p"), _ref("c", "q")],
                 {"p": {"year": "2007"}})
    assert list(ds.hyperedges.items()) == [("q", ("a", "c")), ("p", ("b",))]
    assert ds.edge_attrs == {"p": {"year": "2007"}}
    # an empty mapping is not kept
    assert Dataset([_ref("a", "q")], {"q": {}}).edge_attrs == {}


@pytest.mark.parametrize("refs, edge_attrs, match", [
    pytest.param([_ref("a", "p"), _ref("a", "q")], {},
                 "duplicate reference id a", id="duplicate-id"),
    pytest.param([_ref("a", "p")], {"p": {}, "q": {"year": "2007"}},
                 "hyper-edge q has attributes but no references",
                 id="attrs-without-refs"),
])
def test_hand_built_dataset_refusal_names_the_id_or_edge(refs, edge_attrs,
                                                          match):
    # ingest refuses such records first, naming the record
    with pytest.raises(IngestError, match=match):
        Dataset(refs, edge_attrs)


def test_snapshot_with_a_wrong_header_is_refused(tmp_path):
    path = tmp_path / "snap.txt"
    for header in ("qer-dataset-v0", "qer-dataset-v1"):
        path.write_text(header + '\n{"references": [], "hyperedges": []}')
        with pytest.raises(IngestError,
                           match=f"unrecognized snapshot header '{header}'"):
            load_snapshot(path)


@pytest.mark.parametrize("record, match", [
    (["W. Wang"], r"record 1: not a mapping"),
    ({"pub_id": "p", "authors": ["A. Aa", 7]},
     r"record p: malformed author entry 7"),
    ({"pub_id": "p", "authors": ["A. Aa", "  "]},
     r"record 1 \(p\): empty author name"),
    ({"pub_id": "p", "authors": [{"id": "x", "name": " "}]},
     r"record 1 \(p\): empty author name"),
    ({"pub_id": "p", "authors": [{"id": "x", "name": "A. Aa"},
                                 {"id": "x", "name": "B. Bb"}]},
     r"record 1 \(p\): duplicate ref id x"),
    ({"pub_id": "p", "authors": [{"id": "r1", "name": "W. Wang"}]},
     r"record 1 \(p\): duplicate ref id r1"),
    # names that normalize to nothing
    ({"pub_id": "p", "authors": ["A. Aa", "."]},
     r"record 1 \(p\): empty author name"),
    ({"pub_id": "p", "authors": [{"id": "x", "name": ". ."}]},
     r"record 1 \(p\): empty author name"),
])
def test_malformed_record_names_the_record(record, match):
    with pytest.raises(IngestError, match=match):
        ingest([CORPUS_RECORDS[0], record])
    if "empty author name" in match:
        with pytest.raises(IngestError, match=match):
            ingest([CORPUS_RECORDS[0], record], name_mode="numeric")


REC_1 = '{"pub_id": "p1", "authors": ["A. Aa"]}'
REC_2 = '{"pub_id": "p2", "authors": ["B. Bb"]}'


@pytest.mark.parametrize("text, match", [
    # a broken line
    (REC_1 + "\n" + REC_2[:-2] + "\n",
     "line 2: invalid record: Expecting ',' delimiter: "
     "line 1 column 37 (char 36)"),
    # trailing data after a record, after blanks or none
    (REC_1 + "\n" + REC_2 + "  x\n",
     "line 2: invalid record: Extra data: line 1 column 41 (char 40)"),
    (REC_1 + REC_2 + "\n",
     "line 1: invalid record: Extra data: line 1 column 39 (char 38)"),
    (REC_1 + "\f{}\n",
     "line 1: invalid record: Extra data: line 1 column 39 (char 38)"),
    # blank lines are skipped but counted
    ("\n" + REC_1 + "\n   \n\n{bad\n",
     "line 5: invalid record: Expecting property name enclosed in double "
     "quotes: line 1 column 2 (char 1)"),
    ("\ufeff" + REC_1 + "\n",
     "line 1: invalid record: Unexpected UTF-8 BOM"),
    # a whole JSON value that is not a record
    (REC_1 + "\n\n[1]\n", "record 1: not a mapping"),
])
def test_malformed_line_names_the_line(tmp_path, text, match):
    path = tmp_path / "records.jsonl"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(IngestError, match=re.escape(match)):
        ingest_file(path)


def test_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text("\n  " + REC_1 + " \n\t\n" + REC_2 + "\n\n")
    assert list(ingest_file(path).hyperedges) == ["p1", "p2"]
