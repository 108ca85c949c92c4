"""Independent checks of the program's outputs.

Everything here is computed from the raw JSONL records and the gold labels
with the benchmark's own name normalization, liberal (delta) rule,
breadth-first expansion, merge-log replay and pair counting.  Nothing is
compared against a stored copy of an earlier output, and nothing calls back
into the program except where a check is about one of its public functions
(``partition_at_threshold`` for the refinement check).
"""

from __future__ import annotations

from collections import Counter

NUMERIC_RANGE = 6.0   # width of one synthetic entity's attribute range


def norm(name: str) -> str:
    """Lower-case, whitespace-split, trailing periods dropped per token."""
    out = []
    for tok in name.lower().split():
        while tok.endswith("."):
            tok = tok[:-1]
        if tok:
            out.append(tok)
    return " ".join(out)


def edit_distance_at_most(a: str, b: str, k: int) -> bool:
    """True when the Levenshtein distance of a and b is at most k."""
    if abs(len(a) - len(b)) > k:
        return False
    row = list(range(len(b) + 1))
    for i in range(1, len(a) + 1):
        diag, row[0] = row[0], i
        for j in range(1, len(b) + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            diag, row[j] = row[j], min(row[j] + 1, row[j - 1] + 1, diag + cost)
        if min(row) > k:
            return False
    return row[-1] <= k


def delta_key(n: str) -> tuple[str, str] | None:
    toks = n.split()
    if not toks or not toks[-1]:
        return None
    return (toks[0][0], toks[-1][0])


def delta_similar(n1: str, n2: str) -> bool:
    """Same first initial, same first letter of the last name, last names
    at most two edits apart."""
    k1, k2 = delta_key(n1), delta_key(n2)
    if k1 is None or k1 != k2:
        return False
    return edit_distance_at_most(n1.split()[-1], n2.split()[-1], 2)


class RawIndex:
    """Co-occurrence and name indexes built from the raw records."""

    def __init__(self, records):
        self.name_of: dict[str, str] = {}
        self.pubs_of: dict[str, list[str]] = {}
        self.authors_of: dict[str, list[str]] = {}
        self.by_name: dict[str, set[str]] = {}
        for rec in records:
            pub = rec["pub_id"]
            ids = []
            for a in rec["authors"]:
                rid, n = a["id"], norm(a["name"])
                ids.append(rid)
                self.name_of[rid] = n
                self.pubs_of.setdefault(rid, []).append(pub)
                self.by_name.setdefault(n, set()).add(rid)
            self.authors_of[pub] = ids
        self.names_by_key: dict[tuple, list[str]] = {}
        for n in self.by_name:
            key = delta_key(n)
            if key is not None:
                self.names_by_key.setdefault(key, []).append(n)

    def liberal_lookup(self, value: str) -> set[str]:
        v = norm(value)
        out = set(self.by_name.get(v, ()))
        for n in self.names_by_key.get(delta_key(v), ()):
            if delta_similar(v, n):
                out |= self.by_name[n]
        return out

    def cooccurring(self, refs) -> set[str]:
        out = set()
        for rid in refs:
            for pub in self.pubs_of[rid]:
                out.update(self.authors_of[pub])
        return out - set(refs)

    def exact_names(self, refs) -> set[str]:
        out = set()
        for rid in refs:
            out |= self.by_name[self.name_of[rid]]
        return out

    def full_expansion(self, value: str, depth: int) -> list[set[str]]:
        level0 = self.liberal_lookup(value)
        levels, seen = [level0], set(level0)
        for i in range(1, depth + 1):
            frontier = levels[-1]
            nxt = (self.cooccurring(frontier) if i % 2 else
                   self.exact_names(frontier)) - seen
            levels.append(nxt)
            seen |= nxt
        return levels


def check_adaptive_levels(levels, index: RawIndex, value: str,
                          h_max: float, full_union: set[str]) -> list[str]:
    errs = []
    seen: set[str] = set()
    for i, lv in enumerate(levels):
        if lv & seen:
            errs.append(f"level {i} overlaps an earlier level")
        seen |= lv
    if levels[0] != index.liberal_lookup(value):
        errs.append("level 0 differs from the independent liberal lookup")
    for i in range(1, len(levels)):
        prev, lv = levels[i - 1], levels[i]
        if i % 2:
            if not lv <= index.cooccurring(prev):
                errs.append(f"level {i} holds non-co-occurring references")
            if len(lv) > int(h_max * len(prev)):
                errs.append(f"level {i} exceeds floor(h_max*|L{i-1}|)")
        elif not lv <= index.exact_names(prev):
            errs.append(f"level {i} holds references without an exact-name "
                        "match in the previous level")
    if not seen <= full_union:
        errs.append("adaptive union is not inside the full-expansion union")
    return errs


def replay_at(initial_clusters, merge_log, thresholds) -> list[set]:
    """Partition at each threshold: the merge log replayed up to its first
    entry below the threshold, as a set of frozensets."""
    stops = []
    for t in thresholds:
        stop = next((i for i, e in enumerate(merge_log) if e[0] < t),
                    len(merge_log))
        stops.append(stop)
    members = {cid: set(m) for cid, m in initial_clusters}
    out: dict[int, set] = {}
    done = 0
    for stop in sorted(set(stops)):
        for sim, c1, c2, new in (e[:4] for e in merge_log[done:stop]):
            members[new] = members.pop(c1) | members.pop(c2)
        done = stop
        out[stop] = as_set(members.values())
    return [out[s] for s in stops]


def as_set(partition) -> set:
    return {frozenset(c) for c in partition}


def canonical(partition) -> list[list[str]]:
    return sorted(sorted(c) for c in partition)


def is_partition_of(parts, scope: set[str]) -> bool:
    total = 0
    union: set[str] = set()
    for c in parts:
        if not c:
            return False
        total += len(c)
        union |= set(c)
    return total == len(union) and union == scope


def connected(members, related) -> bool:
    """Whether ``members`` form one component under ``related(a, b)``."""
    members = list(members)
    parent = list(range(len(members)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            if find(i) != find(j) and related(members[i], members[j]):
                parent[find(i)] = find(j)
    return len({find(i) for i in range(len(members))}) <= 1


def text_cluster_connected(cluster, name_of) -> bool:
    """Connectivity under the delta rule; references with equal names are
    trivially related, so test the distinct names only."""
    return connected({name_of[r] for r in cluster}, delta_similar)


def numeric_cluster_connected(cluster, value_of, delta: float) -> bool:
    # values are one-decimal strings; the margin only absorbs float rounding
    gap = (1.0 - delta) * NUMERIC_RANGE + 1e-9
    xs = sorted(value_of[r] for r in cluster)
    return all(b - a <= gap for a, b in zip(xs, xs[1:]))


def check_rcer(result, scope: set[str], threshold: float,
               cluster_connected) -> list[str]:
    errs = []
    clusters = [set(c) for c in result.clusters]
    if not is_partition_of(clusters, scope):
        errs.append("clusters do not partition the input")
    low = [e[0] for e in result.merge_log if e[0] < threshold]
    if low:
        errs.append(f"{len(low)} merges below the threshold {threshold}")
    if replay_at(result.initial_clusters, result.merge_log,
                 [float("-inf")])[0] != as_set(clusters):
        errs.append("replaying the merge log does not give the clusters")
    bad = sum(1 for c in clusters if not cluster_connected(c))
    if bad:
        errs.append(f"{bad} clusters are not delta-connected")
    return errs


def refines(finer, coarser) -> bool:
    where = {}
    for i, c in enumerate(coarser):
        for r in c:
            where[r] = i
    return all(len({where[r] for r in c}) == 1 for c in finer)


def pair_counts(partition, gold: dict[str, str],
                scope) -> tuple[int, int, int]:
    """(tp, fp, fn) over unordered pairs of ``scope``."""
    cells: Counter = Counter()
    sizes: Counter = Counter()
    ents: Counter = Counter()
    for i, c in enumerate(partition):
        for r in c:
            if r in scope:
                cells[(i, gold[r])] += 1
                sizes[i] += 1
    for r in scope:
        ents[gold[r]] += 1

    def pairs(counter):
        return sum(n * (n - 1) // 2 for n in counter.values())

    tp = pairs(cells)
    return tp, pairs(sizes) - tp, pairs(ents) - tp


def f1(tp: int, fp: int, fn: int) -> float:
    if tp == 0:
        return 0.0
    p, r = tp / (tp + fp), tp / (tp + fn)
    return 2 * p * r / (p + r)
