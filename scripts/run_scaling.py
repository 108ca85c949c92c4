#!/usr/bin/env python3
"""Time the collective clustering on growing synthetic inputs and fit a
log-log slope, to check that runtime stays near-linear in the number of
references."""

import argparse
import time

import numpy as np

from qer.rcer import run_rcer
from qer.similarity import SimilarityConfig
from qer.synthgen import GenParams, generate


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--targets", type=int, nargs="+",
                    default=[1000, 2000, 4000, 8000],
                    help="approximate reference counts")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--threshold", type=float, default=0.3)
    args = ap.parse_args()

    cfg = SimilarityConfig(alpha=0.5, epsilon=0.8, delta=0.7,
                           merge_threshold=args.threshold)
    sizes, times = [], []
    print("references\tseconds")
    for target in args.targets:
        out = generate(GenParams(n_entities=target // 10,
                                 n_relationships=target // 5,
                                 n_hyperedges=target // 2,
                                 p_a=0.3, p_c=0.5, seed=args.seed))
        refs = out.dataset.references
        t0 = time.perf_counter()
        run_rcer(out.dataset, refs, cfg)
        elapsed = time.perf_counter() - t0
        sizes.append(len(refs))
        times.append(elapsed)
        print(f"{len(refs)}\t{elapsed:.3f}")
    slope = float(np.polyfit(np.log(sizes), np.log(times), 1)[0])
    print(f"fitted log-log slope: {slope:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
