"""Attribute similarity measures and the helpers cluster similarity uses.

Names are compared with Soft TF-IDF over Jaro-Winkler token matches; the
synthetic numeric attribute uses a range-scaled absolute difference.  The
liberal (delta) test picks candidate pairs and the conservative (epsilon)
test accepts reference pairs.  ``SimilarityContext.attribute_sim`` scores
two attribute-value mappings under the configured weights;
``SimilarityContext.representatives`` gives the attribute values of a
reference or cluster and ``jaccard`` a neighborhood overlap.  The combined
cluster similarity

    sim(c1, c2) = (1 - alpha) * attribute + alpha * relational

is computed by the merge loop's ``rcer.ClusterState``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field

from .corpus import (
    CorpusStats,
    Dataset,
    blocking_key,
    first_initial,
    last_name,
    name_tokens,
    normalize_name,
)

# Width of the occupied attribute range of one synthetic entity; two numeric
# values further apart than this are maximally dissimilar.
NUMERIC_RANGE = 6.0

SOFT_TFIDF_THRESHOLD = 0.9
WINKLER_PREFIX = 4
WINKLER_SCALE = 0.1


@dataclass
class SimilarityConfig:
    """``delta`` parametrizes the liberal rule (``delta_similar_names``)
    that picks candidate pairs; only the numeric rule reads it."""

    alpha: float
    epsilon: float
    delta: float
    merge_threshold: float
    attr_weights: dict[str, float] = field(default_factory=lambda: {"name": 1.0})
    multiset_neighborhood: bool = False

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha out of range: {self.alpha}")
        for nm, v in (("epsilon", self.epsilon), ("delta", self.delta),
                      ("merge_threshold", self.merge_threshold)):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{nm} out of range: {v}")
        for attr, w in self.attr_weights.items():
            if not 0 <= w < math.inf:
                raise ValueError(f"attribute weight {attr!r} must be finite "
                                 f"and non-negative, not {w}")
        total = sum(self.attr_weights.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"attribute weights sum to {total}, expected 1")


def levenshtein(s1: str, s2: str) -> int:
    if len(s1) < len(s2):
        s1, s2 = s2, s1
    prev = list(range(len(s2) + 1))
    for i, c1 in enumerate(s1, 1):
        cur = [i]
        for j, c2 in enumerate(s2, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (c1 != c2)))
        prev = cur
    return prev[-1]


def jaro(s1: str, s2: str) -> float:
    if s1 == s2:
        return 1.0
    if not s1 or not s2:
        return 0.0
    window = max(len(s1), len(s2)) // 2 - 1
    window = max(window, 0)
    used = [False] * len(s2)
    matches = []
    for i, c in enumerate(s1):
        lo, hi = max(0, i - window), min(len(s2), i + window + 1)
        for j in range(lo, hi):
            if not used[j] and s2[j] == c:
                used[j] = True
                matches.append((i, j))
                break
    m = len(matches)
    if m == 0:
        return 0.0
    transpositions = 0
    s2_matched = [j for _, j in matches]
    for a, b in zip(s2_matched, sorted(s2_matched)):
        if a != b:
            transpositions += 1
    t = transpositions / 2
    return (m / len(s1) + m / len(s2) + (m - t) / m) / 3


def jaro_winkler(s1: str, s2: str) -> float:
    """Jaro with the standard prefix boost (prefix <= 4, scale 0.1) of two
    normalized names or tokens."""
    j = jaro(s1, s2)
    prefix = 0
    for a, b in zip(s1, s2):
        if a != b or prefix == WINKLER_PREFIX:
            break
        prefix += 1
    return j + prefix * WINKLER_SCALE * (1 - j)


def _tfidf_vector(tokens, stats: CorpusStats) -> dict[str, float]:
    tf = Counter(tokens)
    vec = {t: c * stats.idf(t) for t, c in tf.items()}
    norm = math.sqrt(sum(v * v for v in vec.values()))
    if norm == 0:
        return {}
    return {t: v / norm for t, v in vec.items()}


def greedy_matching(scored) -> list[tuple]:
    """The (score, x, y) of a greedy one-to-one matching of the scored
    (score, x, y) candidates: highest score first, ties by x, then by y."""
    used_x, used_y, matches = set(), set(), []
    for c in sorted(scored, key=lambda c: (-c[0], c[1], c[2])):
        if c[1] not in used_x and c[2] not in used_y:
            used_x.add(c[1])
            used_y.add(c[2])
            matches.append(c)
    return matches


def soft_tfidf(tokens1, tokens2, stats: CorpusStats) -> float:
    """Greedy one-to-one Soft TF-IDF; symmetric and bounded in [0, 1]."""
    v1 = _tfidf_vector(tokens1, stats)
    v2 = _tfidf_vector(tokens2, stats)
    if not v1 or not v2:
        return 0.0
    matches = greedy_matching(
        [(s, t1, t2) for t1 in v1 for t2 in v2
         if (s := 1.0 if t1 == t2 else jaro_winkler(t1, t2))
         >= SOFT_TFIDF_THRESHOLD])
    return min(sum([v1[t1] * v2[t2] * s for s, t1, t2 in matches], 0.0), 1.0)


def numeric_sim(x1: float, x2: float) -> float:
    return 1.0 - min(1.0, abs(x1 - x2) / NUMERIC_RANGE)


def name_sim(n1: str, n2: str, stats: CorpusStats | None,
             numeric: bool = False) -> float:
    """Similarity of two normalized names; ``stats`` is None only for
    numeric ones."""
    if numeric:
        return numeric_sim(float(n1), float(n2))
    return soft_tfidf(name_tokens(n1), name_tokens(n2), stats)


def delta_similar_names(n1: str, n2: str, numeric: bool = False,
                        delta: float = 0.0) -> bool:
    """Liberal candidate test for a pair of (normalized) name values.

    Text rule: first initials match, last names share their first character
    and differ by at most 2 edits; ``delta`` is ignored.  Numeric rule: the
    values differ by at most (1 - delta) * NUMERIC_RANGE.
    """
    if numeric:
        return abs(float(n1) - float(n2)) <= (1.0 - delta) * NUMERIC_RANGE
    if first_initial(n1) != first_initial(n2):
        return False
    l1, l2 = last_name(n1), last_name(n2)
    if not l1 or not l2 or l1[0] != l2[0]:
        return False
    return levenshtein(l1, l2) <= 2


def delta_neighbours(name: str, buckets, numeric: bool = False,
                     delta: float = 0.0):
    """The names in ``buckets`` (``corpus.name_buckets``) that pass
    ``delta_similar_names`` with the normalized ``name``.  Numeric names
    are walked outward from ``name``'s value, each side up to its first
    rejected name: the numeric rule rejects all names further away."""
    if not numeric:
        yield from (other for other in buckets.get(blocking_key(name), ())
                    if delta_similar_names(name, other))
        return
    start = bisect_left(buckets, (float(name),))
    for side in (range(start, len(buckets)), range(start - 1, -1, -1)):
        for i in side:
            if not delta_similar_names(name, buckets[i][1], True, delta):
                break
            yield buckets[i][1]


class SimilarityContext:
    """Reads the dataset's corpus statistics (``Dataset.corpus_stats``,
    built once per dataset) and caches pairwise name scores per run."""

    def __init__(self, ds: Dataset, cfg: SimilarityConfig):
        self.ds = ds
        self.cfg = cfg
        self.numeric = ds.name_mode == "numeric"
        self.stats = None if self.numeric else ds.corpus_stats
        self._name_cache: dict[tuple[str, str], float] = {}

    def name_sim(self, n1: str, n2: str) -> float:
        """``name_sim`` of two normalized names, cached per pair."""
        if n1 == n2:
            return 1.0
        key = (n1, n2) if n1 < n2 else (n2, n1)
        cached = self._name_cache.get(key)
        if cached is None:
            cached = name_sim(n1, n2, self.stats, numeric=self.numeric)
            self._name_cache[key] = cached
        return cached

    def delta_similar(self, n1: str, n2: str) -> bool:
        return delta_similar_names(n1, n2, numeric=self.numeric,
                                   delta=self.cfg.delta)

    def attribute_sim(self, values1, values2) -> float:
        """Weighted similarity of two attribute -> value mappings (one per
        reference or cluster representative); an attribute whose value is
        missing or None on either side contributes 0."""
        score = 0.0
        for attr, w in self.cfg.attr_weights.items():
            if w == 0:
                continue
            v1, v2 = values1.get(attr), values2.get(attr)
            if v1 is None or v2 is None:
                continue
            if attr == "name":
                score += w * self.name_sim(v1, v2)
            else:
                score += w * self._text_attr_sim(v1, v2)
        return score

    def representatives(self, members) -> dict[str, str | None]:
        """Each configured attribute's ``representative`` over the given
        reference ids, None where no member has a value; a reference is a
        one-member cluster.  Every normalized name counts, the empty one
        too; an extra attribute counts only when non-empty."""
        refs = self.ds.references
        reps: dict[str, str | None] = {}
        for attr in self.cfg.attr_weights:
            if attr == "name":
                values = [refs[rid].norm_name for rid in members]
            else:
                values = [v for rid in members
                          if (v := refs[rid].extra_attrs.get(attr))]
            reps[attr] = representative(
                values, self.numeric and attr == "name") if values else None
        return reps

    def ref_attribute_sim(self, rid1: str, rid2: str) -> float:
        return self.attribute_sim(self.representatives((rid1,)),
                                  self.representatives((rid2,)))

    def _text_attr_sim(self, v1: str, v2: str) -> float:
        t1 = normalize_name(v1).split()
        t2 = normalize_name(v2).split()
        if not t1 or not t2:
            return 0.0
        if t1 == t2:
            return 1.0
        # plain TF-IDF cosine (exact token matches) for non-name attributes
        stats = self.stats
        if stats is None:
            return 0.0
        va = _tfidf_vector(t1, stats)
        vb = _tfidf_vector(t2, stats)
        return min(sum(va[t] * vb.get(t, 0.0) for t in va), 1.0)

    def epsilon_similar(self, rid1: str, rid2: str) -> bool:
        return self.ref_attribute_sim(rid1, rid2) >= self.cfg.epsilon


def representative(values, numeric: bool = False) -> str:
    """Most frequent value; ties broken lexicographically (numerically for
    the numeric attribute)."""
    counts = Counter(values)
    top = max(counts.values())
    tied = [v for v, c in counts.items() if c == top]
    return min(tied, key=float) if numeric else min(tied)


def jaccard(a, b) -> float:
    """Jaccard overlap of two sets (or set-like key views), or of two
    Counters as multisets; empty-vs-empty is 0."""
    if isinstance(a, Counter):
        inter = (a & b).total()
        union = a.total() + b.total() - inter
    else:
        inter = len(a & b)
        union = len(a) + len(b) - inter
    return inter / union if union else 0.0


CONFIG_KEYS = ("alpha", "epsilon", "delta", "merge_threshold", "attr_weights")
BOOLEANS = {"1": True, "true": True, "yes": True,
            "0": False, "false": False, "no": False}


def load_config(path) -> SimilarityConfig:
    """Read a key = value configuration file.

    Mandatory scalars: alpha, epsilon, delta, merge_threshold, plus
    attr_weights given as "attr:weight" pairs separated by commas, each
    attribute once; the optional multiset_neighborhood is one of the
    ``BOOLEANS``.  Any other key, or a malformed or repeated attr_weights
    entry, raises ``ValueError``.
    """
    raw: dict[str, str] = {}
    with open(path) as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            k, v = (part.strip() for part in line.split("=", 1))
            if k not in CONFIG_KEYS + ("multiset_neighborhood",):
                raise ValueError(f"unknown config key: {k!r}")
            raw[k] = v
    missing = [k for k in CONFIG_KEYS if k not in raw]
    if missing:
        raise ValueError(f"missing config keys: {', '.join(missing)}")
    multiset = raw.get("multiset_neighborhood", "false").lower()
    if multiset not in BOOLEANS:
        raise ValueError(f"config key 'multiset_neighborhood': {multiset!r} "
                         "is not a boolean")
    weights: dict[str, float] = {}
    for entry in raw["attr_weights"].split(","):
        attr, _, w = (part.strip() for part in entry.partition(":"))
        try:
            weight = float(w)  # w is "" when the entry has no colon
        except ValueError:
            weight = None
        if not attr or weight is None:
            raise ValueError(f"config key 'attr_weights': entry "
                             f"{entry.strip()!r} is not attr:weight")
        if attr in weights:
            raise ValueError(f"config key 'attr_weights': attribute {attr!r} "
                             "is given twice")
        weights[attr] = weight
    return SimilarityConfig(
        alpha=float(raw["alpha"]),
        epsilon=float(raw["epsilon"]),
        delta=float(raw["delta"]),
        merge_threshold=float(raw["merge_threshold"]),
        attr_weights=weights,
        multiset_neighborhood=BOOLEANS[multiset],
    )
