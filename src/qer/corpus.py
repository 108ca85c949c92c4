"""Data model, ingestion and immutable lookup indexes for reference datasets.

A dataset holds author-name *references* grouped into co-occurrence
*hyper-edges* (one per publication record).  After ingest the dataset is
read-only; all query machinery works against its indexes.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType


class IngestError(ValueError):
    """Raised for malformed or duplicate input records."""


# "text" for author names (string similarity), "numeric" for synthetic
# scalar attributes rendered as decimal text
NAME_MODES = ("text", "numeric")


def normalize_name(name: str) -> str:
    """Case-fold, collapse whitespace and strip trailing periods of initials.

    "W. Wang" and "W Wang" normalize to the same string.
    """
    tokens = (t.rstrip(".") for t in name.lower().split())
    return " ".join(t for t in tokens if t)


def name_tokens(norm_name: str) -> list[str]:
    return norm_name.split()


def last_name(norm_name: str) -> str:
    toks = name_tokens(norm_name)
    return toks[-1] if toks else ""


def first_initial(norm_name: str) -> str:
    toks = name_tokens(norm_name)
    return toks[0][0] if toks and toks[0] else ""


def blocking_key(norm_name: str) -> tuple[str, str]:
    """(first initial of first name, first character of last name)."""
    ln = last_name(norm_name)
    return (first_initial(norm_name), ln[0] if ln else "")


def name_buckets(names, numeric: bool):
    """Distinct normalized names for ``similarity.delta_neighbours``: numeric
    ones as (value, name) sorted by value, text ones listed by
    ``blocking_key``, which every pair the text rule accepts shares."""
    if numeric:
        return sorted((float(n), n) for n in names)
    buckets: dict[tuple[str, str], list[str]] = {}
    for n in names:
        buckets.setdefault(blocking_key(n), []).append(n)
    return buckets


class CorpusStats:
    """Token document frequencies over all reference name strings."""

    def __init__(self, ds: Dataset):
        self.n_docs = max(len(ds.references), 1)
        self.df: Counter = Counter()
        for r in ds.references.values():
            for tok in set(name_tokens(r.norm_name)):
                self.df[tok] += 1

    def idf(self, token: str) -> float:
        return math.log((1 + self.n_docs) / (1 + self.df.get(token, 0))) + 1.0


def finite_number(text: str) -> float:
    """``float(text)``; ``ValueError`` naming ``text`` unless it is finite."""
    try:
        if math.isfinite(x := float(text)):
            return x
    except ValueError:
        pass
    raise ValueError(f"numeric value {text!r} is not a finite number")


# the extra attributes of every reference and hyper-edge that has none
NO_ATTRS: Mapping[str, str] = MappingProxyType({})


def _norm_name(name: str, norms: dict[str, str]) -> str:
    """The ``norm_name`` of a reference named ``name``: ``name`` itself if it
    is normalized, else its interned normal form.  ``norms`` maps each raw
    name seen to that form, so equal names are normalized once."""
    norm = norms.get(name)
    if norm is None:
        norm = normalize_name(name)
        norm = norms[name] = name if norm == name else sys.intern(norm)
    return name if norm == name else norm


@dataclass(eq=False, slots=True)  # identity comparison: each mention is unique
class Reference:
    """One name mention.  ``norm_name`` is ``normalize_name(name)``, computed
    once, when the reference is built (``ingest`` and ``load_snapshot``
    compute it once per distinct name); ``name`` is not reassigned
    afterwards.  An already normalized name (every numeric one) is stored as
    itself and the others are interned, so equal names share one string.
    ``extra_attrs`` and ``hyperedges`` are read-only and may be shared with
    other references."""

    id: str
    name: str
    extra_attrs: Mapping[str, str] = field(default_factory=lambda: NO_ATTRS)
    hyperedges: tuple[str, ...] = ()
    norm_name: str = field(init=False, repr=False)

    def __post_init__(self):
        self.norm_name = _norm_name(self.name, {})


@dataclass(slots=True)
class HyperEdge:
    id: str
    refs: tuple[str, ...]
    extra_attrs: Mapping[str, str] = field(default_factory=lambda: NO_ATTRS)


@dataclass
class GoldLabeling:
    assignments: dict[str, str]

    def entity_of(self, ref_id: str) -> str:
        return self.assignments[ref_id]

    def covers(self, ref_ids) -> bool:
        return all(r in self.assignments for r in ref_ids)


class Dataset:
    """Immutable after construction; safe for concurrent readers.

    ``name_mode`` is one of ``NAME_MODES``.  ``name_index`` maps each
    normalized name to the tuple of its reference ids, in reference order.
    Each reference's ``hyperedges`` is a tuple of distinct ids and its
    ``extra_attrs`` a read-only mapping; ``ingest`` gives all authors of one
    record one ``hyperedges`` object, and the record's own mapping to every
    author without attributes of its own (``NO_ATTRS`` where there are
    none).  ``name_buckets`` and ``corpus_stats`` are built on first use,
    not at ingest; two concurrent first readers may both compute the same
    value.
    """

    def __init__(self, references, hyperedges, name_mode: str = "text"):
        if name_mode not in NAME_MODES:
            raise IngestError(f"unknown name_mode {name_mode!r}")
        self.references: dict[str, Reference] = {r.id: r for r in references}
        self.hyperedges: dict[str, HyperEdge] = {h.id: h for h in hyperedges}
        self.name_mode = name_mode
        self.name_index: dict[str, tuple[str, ...]] = self._name_index()
        self._check_invariants()

    def _name_index(self) -> dict[str, tuple[str, ...]]:
        ids: dict = {}
        for r in self.references.values():
            norm = r.norm_name
            ids.setdefault(norm, []).append(r.id)
            if self.name_mode == "numeric":
                try:
                    finite_number(norm)
                except ValueError as e:
                    raise IngestError(f"reference {r.id}: {e}") from None
        for n, group in ids.items():  # in place: one dict at the peak
            ids[n] = tuple(group)
        return ids

    @cached_property
    def name_buckets(self):
        """``name_buckets`` of the distinct names, built on first use."""
        return name_buckets(self.name_index, self.name_mode == "numeric")

    @cached_property
    def corpus_stats(self) -> CorpusStats:
        """``CorpusStats`` of the references, built on first use."""
        return CorpusStats(self)

    def _check_invariants(self):
        for r in self.references.values():
            for hid in r.hyperedges:
                h = self.hyperedges.get(hid)
                if h is None or r.id not in h.refs:
                    raise IngestError(
                        f"reference {r.id} lists hyper-edge {hid} "
                        "which does not list it back"
                    )
        for h in self.hyperedges.values():
            if not h.refs:
                raise IngestError(f"hyper-edge {h.id} is empty")
            if len(set(h.refs)) != len(h.refs):
                raise IngestError(f"hyper-edge {h.id} has duplicate references")
            for rid in h.refs:
                r = self.references.get(rid)
                if r is None or h.id not in r.hyperedges:
                    raise IngestError(
                        f"hyper-edge {h.id} lists unknown/inconsistent "
                        f"reference {rid}"
                    )

    def cooccurrences(self, rid: str):
        """(hyper-edge id, partner reference id) for each other reference
        on each of the reference's hyper-edges."""
        for hid in self.references[rid].hyperedges:
            for other in self.hyperedges[hid].refs:
                if other != rid:
                    yield hid, other

    def __len__(self):
        return len(self.references)


@dataclass
class Query:
    value: str

    def __post_init__(self):
        if not self.value:
            raise ValueError("query value must be non-empty")


def _extras(fields: dict, skip: tuple, where: str) -> dict[str, str]:
    """The fields outside ``skip`` as extra attributes: scalars as strings,
    nulls dropped, and a list or mapping refused."""
    extra = {}
    for k, v in fields.items():
        if k in skip or v is None:
            continue
        if isinstance(v, (list, dict)):
            raise IngestError(f"{where}: attribute {k!r} is a "
                              f"{type(v).__name__}, not a scalar")
        extra[k] = str(v)
    return extra


def _reference_builder():
    """``build(id, name, extra_attrs, hyperedges)``: the ``Reference`` its
    constructor would build, normalizing each distinct raw name once for as
    long as ``build`` lives (one ingest or snapshot load).  A name that
    normalizes to nothing is refused with ``IngestError("empty author
    name")``, for the caller to say where."""
    norms: dict[str, str] = {}

    def build(rid: str, name: str, extra_attrs, hyperedges) -> Reference:
        norm = _norm_name(name, norms)
        if not norm:
            raise IngestError("empty author name")
        r = object.__new__(Reference)  # with norm_name, skip __post_init__
        r.id = rid
        r.name = name
        r.extra_attrs = extra_attrs
        r.hyperedges = hyperedges
        r.norm_name = norm
        return r

    return build


def _author_entry(entry, pub_id: str, slot: int,
                  record_attrs: Mapping[str, str]):
    """(id, name, extra attributes) of a bare name string or of
    {"id":..., "name":..., ...}.  An author without attributes of its own
    shares ``record_attrs``; one with its own gets a mapping of them
    followed by the record's ones it lacks."""
    if isinstance(entry, str):
        return f"{pub_id}:{slot}", entry, record_attrs
    if isinstance(entry, dict):
        name = entry.get("name")
        if not name:
            raise IngestError(f"record {pub_id}: author {slot} has no name")
        attrs = record_attrs
        if len(entry) > 1 + ("id" in entry):  # a key beside id and name
            own = _extras(entry, ("id", "name"),
                          f"record {pub_id}: author {slot}")
            if own:
                for k, v in record_attrs.items():
                    own.setdefault(k, v)
                attrs = MappingProxyType(own)
        rid = str(entry["id"]) if "id" in entry else f"{pub_id}:{slot}"
        return rid, str(name), attrs
    raise IngestError(f"record {pub_id}: malformed author entry {entry!r}")


def ingest(records, name_mode: str = "text") -> Dataset:
    """Build a Dataset from an iterable of publication records.

    Each record is a mapping with ``pub_id`` and a non-empty ordered
    ``authors`` list; optional record-level fields (keywords, affiliation,
    title, ...) become extra attributes of every reference in the record.
    An author name that normalizes to nothing (" ", ". .") is refused.
    """
    refs: dict[str, Reference] = {}
    edges: dict[str, HyperEdge] = {}
    reference = _reference_builder()
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise IngestError(f"record {i}: not a mapping")
        pub_id = rec.get("pub_id")
        if pub_id is None:
            raise IngestError(f"record {i}: missing pub_id")
        pub_id = str(pub_id)
        if pub_id in edges:
            raise IngestError(f"record {i}: duplicate pub_id {pub_id!r}")
        authors = rec.get("authors")
        if not authors:
            raise IngestError(f"record {i} ({pub_id}): no authors")
        if not isinstance(authors, list):
            raise IngestError(f"record {i} ({pub_id}): authors is not a list")
        record_attrs = NO_ATTRS
        if len(rec) > 2:  # a key beside pub_id and authors
            shared = _extras(rec, ("pub_id", "authors"),
                             f"record {i} ({pub_id})")
            if shared:
                record_attrs = MappingProxyType(shared)
        on_edge = (pub_id,)
        edge_refs = []
        for slot, entry in enumerate(authors):
            rid, name, attrs = _author_entry(entry, pub_id, slot, record_attrs)
            try:
                r = reference(rid, name, attrs, on_edge)
            except IngestError as e:
                raise IngestError(f"record {i} ({pub_id}): {e}") from None
            if rid in refs:
                raise IngestError(f"record {i} ({pub_id}): duplicate ref id "
                                  f"{rid}")
            refs[rid] = r
            edge_refs.append(rid)
        edges[pub_id] = HyperEdge(pub_id, tuple(edge_refs), record_attrs)
    return Dataset(refs.values(), edges.values(), name_mode=name_mode)


def ingest_file(path, name_mode: str = "text") -> Dataset:
    """Ingest a newline-delimited JSON record file.  Blank lines are
    skipped, but counted in the line number an error names."""

    def gen():
        decode = json.JSONDecoder().raw_decode
        with open(path) as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec, end = decode(line)
                except json.JSONDecodeError:
                    end = None
                if end != len(line):
                    # not one whole value: json.loads names the fault
                    # (bad JSON, trailing data, a byte-order mark)
                    try:
                        rec = json.loads(line)
                    except json.JSONDecodeError as e:
                        raise IngestError(
                            f"line {lineno}: invalid record: {e}") from None
                yield rec

    return ingest(gen(), name_mode=name_mode)


SNAPSHOT_HEADER = "qer-dataset-v1"


def save_snapshot(ds: Dataset, path):
    payload = {
        "name_mode": ds.name_mode,
        "references": [
            {
                "id": r.id,
                "name": r.name,
                "extra_attrs": dict(r.extra_attrs),
                "hyperedges": sorted(r.hyperedges),
            }
            for r in ds.references.values()
        ],
        "hyperedges": [
            {"id": h.id, "refs": list(h.refs),
             "extra_attrs": dict(h.extra_attrs)}
            for h in ds.hyperedges.values()
        ],
    }
    with open(path, "w") as f:
        f.write(SNAPSHOT_HEADER + "\n")
        json.dump(payload, f)


def _field(obj, key: str, kind: type, where: str, default=None):
    """``obj[key]``, checked to be a ``kind``; ``default`` stands in for a
    missing optional key (a key without a default is required)."""
    if not isinstance(obj, dict):
        raise IngestError(f"snapshot {where}: not a mapping")
    if key not in obj and default is not None:
        return default
    value = obj.get(key)
    if not isinstance(value, kind):
        raise IngestError(f"snapshot {where}: {key!r} missing or not "
                          f"a {kind.__name__}")
    return value


def _strings(obj, key: str, kind: type, where: str, default=None):
    """A list of strings, or a mapping to strings, at ``obj[key]``."""
    value = _field(obj, key, kind, where, default)
    items = value.values() if isinstance(value, dict) else value
    if not all(isinstance(v, str) for v in items):
        raise IngestError(f"snapshot {where}: {key!r} holds a non-string")
    return value


def load_snapshot(path) -> Dataset:
    with open(path) as f:
        header = f.readline().strip()
        if header != SNAPSHOT_HEADER:
            raise IngestError(f"unrecognized snapshot header {header!r}")
        try:
            payload = json.load(f)
        except json.JSONDecodeError as e:
            raise IngestError(f"snapshot {path}: invalid JSON: {e}") from e
    name_mode = _field(payload, "name_mode", str, "payload", "text")
    if name_mode not in NAME_MODES:
        raise IngestError(f"snapshot payload: unknown name_mode {name_mode!r}")
    # equal hyper-edge lists and equal attribute mappings share one
    # read-only object, as after ingest
    lists: dict[tuple[str, ...], tuple[str, ...]] = {}
    maps: dict[tuple, Mapping[str, str]] = {(): NO_ATTRS}
    build = _reference_builder()

    def attrs(values):
        return maps.setdefault(tuple(values.items()), MappingProxyType(values))

    def reference(r, where):
        rid = _field(r, "id", str, where)
        ids = tuple(_strings(r, "hyperedges", list, where, []))
        if len(set(ids)) != len(ids):
            twice = next(h for h in ids if ids.count(h) > 1)
            raise IngestError(f"snapshot reference {rid}: hyper-edge "
                              f"{twice} listed twice")
        name = _field(r, "name", str, where)
        extra = attrs(_strings(r, "extra_attrs", dict, where, {}))
        try:
            return build(rid, name, extra, lists.setdefault(ids, ids))
        except IngestError as e:
            raise IngestError(f"snapshot reference {rid}: {e}") from None

    refs = [reference(r, f"reference {i}") for i, r in
            enumerate(_field(payload, "references", list, "payload"))]
    edges = [
        HyperEdge(
            id=_field(h, "id", str, f"hyper-edge {i}"),
            refs=tuple(_strings(h, "refs", list, f"hyper-edge {i}")),
            extra_attrs=attrs(_strings(h, "extra_attrs", dict,
                                       f"hyper-edge {i}", {})),
        )
        for i, h in enumerate(_field(payload, "hyperedges", list, "payload"))
    ]
    for kind, items in (("reference", refs), ("hyper-edge", edges)):
        seen: set[str] = set()
        for x in items:
            if x.id in seen:
                raise IngestError(f"snapshot: duplicate {kind} id {x.id!r}")
            seen.add(x.id)
    return Dataset(refs, edges, name_mode=name_mode)


def save_gold(gold: GoldLabeling, path):
    with open(path, "w") as f:
        for rid in sorted(gold.assignments):
            f.write(f"{rid} {gold.assignments[rid]}\n")


def load_gold(path) -> GoldLabeling:
    """Read "reference-id entity-id" lines; each reference at most once."""
    assignments = {}
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            fields = line.split()
            if not fields:
                continue
            if len(fields) != 2:
                raise IngestError(f"gold line {lineno}: expected "
                                  f"'reference entity', got {line.strip()!r}")
            rid, eid = fields
            if rid in assignments:
                raise IngestError(f"gold line {lineno}: reference {rid!r} "
                                  "listed twice")
            assignments[rid] = eid
    return GoldLabeling(assignments)
