#!/usr/bin/env python3
"""End-to-end walkthrough on a tiny four-publication author corpus:
extract the relevant set for a name query, cluster it collectively, and
print the answer groups at a sweep of merge thresholds."""

from qer.corpus import Query, ingest
from qer.expansion import ExpansionParams
from qer.rcer import resolve
from qer.similarity import SimilarityConfig

RECORDS = [
    {"pub_id": "h1", "authors": [{"id": "r1", "name": "W. Wang"},
                                 {"id": "r2", "name": "C. Chen"},
                                 {"id": "r3", "name": "A. Ansari"}]},
    {"pub_id": "h2", "authors": [{"id": "r4", "name": "W. Wang"},
                                 {"id": "r5", "name": "A. Ansari"}]},
    {"pub_id": "h3", "authors": [{"id": "r6", "name": "L. Li"},
                                 {"id": "r7", "name": "C. Chen"},
                                 {"id": "r8", "name": "W. Wang"}]},
    {"pub_id": "h4", "authors": [{"id": "r9", "name": "W. W. Wang"},
                                 {"id": "r10", "name": "A. Ansari"}]},
]


def main() -> int:
    ds = ingest(RECORDS)
    cfg = SimilarityConfig(alpha=0.5, epsilon=0.98, delta=0.9,
                           merge_threshold=0.0)
    answer = resolve(ds, Query(value="W. Wang"),
                     ExpansionParams(d_star=3, delta=cfg.delta), cfg)
    print("relevant set by level:")
    for d, level in enumerate(answer.rset.levels):
        print(f"  level {d}: {sorted(level)}")
    print("answer groups by merge threshold:")
    for i in range(0, 21, 2):
        t = i / 20
        print(f"  t={t:.2f}: {answer.groups(t)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
