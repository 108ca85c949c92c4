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


@dataclass(eq=False, slots=True)  # identity comparison: each mention is unique
class Reference:
    """One name mention.  ``norm_name`` is ``normalize_name(name)``, passed
    in by ``ingest``, which normalizes each distinct raw name once per call;
    ``name`` is not reassigned afterwards.  An already normalized name
    (every numeric one) is stored as itself and the others are interned, so
    equal names share one string.  ``edge`` is the id of the hyper-edge
    (record) it was read from.  ``extra_attrs`` is read-only and may be
    shared with other references."""

    id: str
    name: str
    norm_name: str = field(repr=False)
    edge: str
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

    ``Dataset(refs)`` maps each ``Reference.edge`` to the tuple of its
    reference ids, in reference order (``hyperedges``).  ``edge_attrs``
    maps an edge id to its record's read-only attribute mapping; the
    dataset keeps the non-empty ones, and ``ingest`` gives that mapping to
    every author without attributes of its own.  A duplicate reference
    id, attributes for an edge without references, or a numeric-mode name
    that is not a finite number raise ``IngestError``.  ``name_mode`` is
    one of ``NAME_MODES``.  ``name_index``, ``name_buckets`` and
    ``corpus_stats`` are built on first use, not at ingest; two
    concurrent first readers may both compute the same value.
    """

    def __init__(self, references, edge_attrs: Mapping = NO_ATTRS,
                 name_mode: str = "text"):
        if name_mode not in NAME_MODES:
            raise IngestError(f"unknown name_mode {name_mode!r}")
        numeric = name_mode == "numeric"
        self.references: dict[str, Reference] = {}
        members: dict = {}
        for r in references:
            if r.id in self.references:
                raise IngestError(f"duplicate reference id {r.id}")
            if numeric:
                try:
                    finite_number(r.norm_name)
                except ValueError as e:
                    raise IngestError(f"reference {r.id}: {e}") from None
            self.references[r.id] = r
            members.setdefault(r.edge, []).append(r.id)
        for e in edge_attrs:
            if e not in members:
                raise IngestError(f"hyper-edge {e} has attributes but no "
                                  "references")
        for e, ids in members.items():  # in place: one dict at the peak
            members[e] = tuple(ids)
        self.hyperedges: dict[str, tuple[str, ...]] = members
        self.edge_attrs = {e: a for e, a in edge_attrs.items() if a}
        self.name_mode = name_mode

    @cached_property
    def name_index(self) -> dict[str, tuple[str, ...]]:
        """Each normalized name -> its reference ids, in reference order."""
        ids: dict = {}
        for r in self.references.values():
            ids.setdefault(r.norm_name, []).append(r.id)
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

    def cooccurrences(self, rid: str):
        """The id of each other reference on the reference's hyper-edge."""
        for other in self.hyperedges[self.references[rid].edge]:
            if other != rid:
                yield other

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
    attrs_of: dict[str, Mapping[str, str]] = {}  # pub_id -> record's attrs
    norms: dict[str, str] = {}  # each raw name seen -> its stored norm_name
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise IngestError(f"record {i}: not a mapping")
        pub_id = rec.get("pub_id")
        if pub_id is None:
            raise IngestError(f"record {i}: missing pub_id")
        pub_id = str(pub_id)
        if pub_id in attrs_of:
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
        attrs_of[pub_id] = record_attrs
        for slot, entry in enumerate(authors):
            rid, name, attrs = _author_entry(entry, pub_id, slot, record_attrs)
            norm = norms.get(name)
            if norm is None:
                norm = normalize_name(name)
                if not norm:
                    raise IngestError(f"record {i} ({pub_id}): empty author "
                                      "name")
                norm = norms[name] = name if norm == name else sys.intern(norm)
            if rid in refs:
                raise IngestError(f"record {i} ({pub_id}): duplicate ref id "
                                  f"{rid}")
            refs[rid] = Reference(rid, name, name if norm == name else norm,
                                  pub_id, attrs)
    return Dataset(refs.values(), attrs_of, name_mode=name_mode)


def _records(lines, start: int = 1):
    """The record on each non-blank line of ``lines``.  A line that is not
    one JSON value raises ``IngestError`` naming its number, counted from
    ``start``."""
    decode = json.JSONDecoder().raw_decode
    for lineno, line in enumerate(lines, start):
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


def ingest_file(path, name_mode: str = "text") -> Dataset:
    """Ingest a newline-delimited JSON record file.  Blank lines are
    skipped, but counted in the line number an error names."""
    with open(path) as f:
        return ingest(_records(f), name_mode=name_mode)


def records_of(ds: Dataset):
    """One record per hyper-edge, in edge order, as ``ingest`` reads it:
    ingesting them in ``ds.name_mode`` rebuilds ``ds``.  An author carries
    its attributes only when they are not the record's own mapping."""
    for e, ids in ds.hyperedges.items():
        attrs = ds.edge_attrs.get(e, NO_ATTRS)
        authors = []
        for rid in ids:
            r = ds.references[rid]
            author = {"id": rid, "name": r.name}
            if r.extra_attrs is not attrs:
                author = {**r.extra_attrs, **author}
            authors.append(author)
        yield {"pub_id": e, **attrs, "authors": authors}


SNAPSHOT_HEADER = "qer-dataset-v2"


def save_snapshot(ds: Dataset, path):
    """Write a header line, ``SNAPSHOT_HEADER`` and ``ds.name_mode``, then
    ``records_of(ds)``, one per line, so that ``load_snapshot`` rebuilds
    ``ds`` by ingesting them."""
    with open(path, "w") as f:
        f.write(f"{SNAPSHOT_HEADER} {ds.name_mode}\n")
        for rec in records_of(ds):
            f.write(json.dumps(rec) + "\n")


def load_snapshot(path) -> Dataset:
    """The dataset ``save_snapshot`` wrote: its records, ingested in the
    header's ``name_mode``; record lines are numbered from 2."""
    with open(path) as f:
        header = f.readline().strip()
        version, _, name_mode = header.partition(" ")
        if version != SNAPSHOT_HEADER:
            raise IngestError(f"unrecognized snapshot header {header!r}")
        if name_mode not in NAME_MODES:
            raise IngestError(f"snapshot header {header!r}: unknown "
                              f"name_mode {name_mode!r}")
        return ingest(_records(f, 2), name_mode=name_mode)


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
