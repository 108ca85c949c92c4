"""Command-line interface: ingest, query, synth, eval, analyze."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import analysis, corpus, evalkit, expansion, rcer, similarity, synthgen

DEFAULT_CFG = similarity.SimilarityConfig(
    alpha=0.5, epsilon=0.9, delta=0.9, merge_threshold=0.5)
SWEEP = [i / 20 for i in range(21)]


def _load_cfg(args) -> similarity.SimilarityConfig:
    if args.config:
        return similarity.load_config(args.config)
    return DEFAULT_CFG


def _load_dataset(args) -> corpus.Dataset:
    if args.dataset:
        return corpus.load_snapshot(args.dataset)
    if args.records:
        return corpus.ingest_file(args.records, name_mode=args.name_mode)
    raise ValueError("either --dataset or --records is required")


def _emit(args, groups, extra=None):
    if args.output == "structured":
        for g in groups:
            print(json.dumps(g))
        if extra:
            print(json.dumps(extra))
    else:
        for g in groups:
            print(" ".join(sorted(g)))
        if extra:
            for k, v in extra.items():
                print(f"# {k}: {v}", file=sys.stderr)


def cmd_ingest(args) -> int:
    ds = corpus.ingest_file(args.records, name_mode=args.name_mode)
    if args.dataset:
        corpus.save_snapshot(ds, args.dataset)
    print(f"references: {len(ds.references)}")
    print(f"hyperedges: {len(ds.hyperedges)}")
    return 0


def cmd_query(args) -> int:
    if args.sweep and not args.gold:
        raise ValueError("--sweep requires --gold")
    ds = _load_dataset(args)
    cfg = _load_cfg(args)
    if args.ref_id:
        ref = ds.references.get(args.ref_id)
        if ref is None:
            raise ValueError(f"unknown reference id: {args.ref_id}")
        value = ref.name
    elif args.value:
        value = args.value
    else:
        raise ValueError("a query value or --ref-id is required")
    params = expansion.ExpansionParams(
        d_star=args.depth, delta=cfg.delta,
        h_max=args.h_max, a_max=args.a_max,
        adaptive_depth=args.adaptive_depth)
    if args.sweep:
        threshold = 0.0
    elif args.threshold is not None:
        threshold = args.threshold
    else:
        threshold = cfg.merge_threshold
    answer = rcer.resolve(ds, corpus.Query(value=value), params,
                          replace(cfg, merge_threshold=threshold))
    if not answer.rset.answerable:
        print("empty answer: no reference matches the query value")
        return 0
    metrics = None
    if args.sweep:
        gold = corpus.load_gold(args.gold)
        sweep = evalkit.replay_sweep(answer.result, SWEEP, gold,
                                     answer.rset.levels[0])
        threshold, metrics = evalkit.best_f1_over_thresholds(sweep.get, SWEEP)
    groups = answer.groups(threshold if args.sweep else None)
    if args.ref_id:
        groups = [g for g in groups if args.ref_id in g]
    extra = {
        "levels": [len(lv) for lv in answer.rset.levels],
        "threshold": threshold,
        "extraction_seconds": round(answer.extract_seconds, 4),
        "resolution_seconds": round(answer.resolve_seconds, 4),
    }
    if metrics:
        extra["f1"] = round(metrics.f1, 4)
    _emit(args, groups, extra)
    return 0


def cmd_synth(args) -> int:
    params = synthgen.GenParams(
        n_entities=args.entities, n_relationships=args.relationships,
        n_hyperedges=args.hyperedges, p_a=args.p_a, p_r_a=args.p_r_a,
        p_c=args.p_c, p_r=args.p_r, seed=args.seed)
    out = synthgen.generate(params)
    with open(args.records_out, "w") as f:
        for rec in corpus.records_of(out.dataset):
            f.write(json.dumps(rec) + "\n")
    corpus.save_gold(out.gold, args.gold_out)
    print(f"hyperedges: {len(out.dataset.hyperedges)}")
    print(f"references: {len(out.dataset.references)}")
    return 0


def cmd_eval(args) -> int:
    ds = _load_dataset(args)
    cfg = _load_cfg(args)
    gold = corpus.load_gold(args.gold)
    kind, refs = args.baseline, set(ds.references)
    if args.sweep:
        sweep = evalkit.threshold_sweep(kind, ds, refs, cfg, SWEEP, gold)
        threshold, m = evalkit.best_f1_over_thresholds(sweep.get, SWEEP)
    else:
        threshold = args.threshold if args.threshold is not None \
            else cfg.merge_threshold
        m = evalkit.evaluate_baseline(kind, ds, refs, cfg, threshold, gold)
    print(f"baseline={kind}\tthreshold={threshold:.3f}\t"
          f"precision={m.precision:.4f}\trecall={m.recall:.4f}\t"
          f"f1={m.f1:.4f}")
    return 0


def cmd_analyze(args) -> int:
    if args.closed_form:
        print(f"{analysis.closed_form_gp(args.a, args.r, args.n):.5f}")
        return 0
    if not args.gold:
        raise ValueError("analyze requires --gold, or --closed-form")
    ds = _load_dataset(args)
    cfg = _load_cfg(args)
    gold = corpus.load_gold(args.gold)
    probs = analysis.estimate_structural_probs(ds, gold, cfg)
    print(analysis.prediction_table(probs, args.depth))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qer", description="query-time entity resolution")
    p.add_argument("--config", help="similarity configuration file")
    p.add_argument("--output", choices=("text", "structured"), default="text")
    sub = p.add_subparsers(dest="command", required=True)
    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--dataset", help="dataset snapshot")
    data.add_argument("--records", help="record file to ingest")
    data.add_argument("--name-mode", choices=corpus.NAME_MODES, default="text")

    pi = sub.add_parser("ingest", help="parse records and snapshot a dataset")
    pi.add_argument("records")
    pi.add_argument("--dataset", help="snapshot output path")
    pi.add_argument("--name-mode", choices=corpus.NAME_MODES, default="text")
    pi.set_defaults(fn=cmd_ingest)

    pq = sub.add_parser("query", parents=[data],
                        help="resolve the entities for a name")
    pq.add_argument("value", nargs="?")
    pq.add_argument("--ref-id", help="query by reference id instead of name")
    pq.add_argument("--depth", type=int, default=3)
    pq.add_argument("--threshold", type=float)
    pq.add_argument("--sweep", action="store_true",
                    help="pick the best-F1 threshold (requires --gold)")
    pq.add_argument("--gold")
    pq.add_argument("--h-max", type=float)
    pq.add_argument("--a-max", type=float)
    pq.add_argument("--adaptive-depth", action="store_true")
    pq.set_defaults(fn=cmd_query)

    ps = sub.add_parser("synth", help="generate labeled synthetic data")
    ps.add_argument("--entities", type=int, default=100)
    ps.add_argument("--relationships", type=int, default=200)
    ps.add_argument("--hyperedges", type=int, default=500)
    ps.add_argument("--p-a", type=float, default=0.3)
    ps.add_argument("--p-r-a", type=float, default=0.0)
    ps.add_argument("--p-c", type=float, default=0.5)
    ps.add_argument("--p-r", type=float, default=1.0)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--records-out", default="synth_records.jsonl")
    ps.add_argument("--gold-out", default="synth_gold.txt")
    ps.set_defaults(fn=cmd_synth)

    pe = sub.add_parser("eval", parents=[data],
                        help="score a resolver against gold labels")
    pe.add_argument("--gold", required=True)
    pe.add_argument("--baseline", default="RC-ER",
                    choices=evalkit.BASELINE_KINDS)
    pe.add_argument("--threshold", type=float)
    pe.add_argument("--sweep", action="store_true")
    pe.set_defaults(fn=cmd_eval)

    pa = sub.add_parser("analyze", parents=[data],
                        help="structural probabilities and model predictions")
    pa.add_argument("--closed-form", action="store_true")
    pa.add_argument("--a", type=float, default=0.0)
    pa.add_argument("--r", type=float, default=0.0)
    pa.add_argument("--n", type=int, default=0)
    pa.add_argument("--gold")
    pa.add_argument("--depth", type=int, default=3)
    pa.set_defaults(fn=cmd_analyze)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:  # IngestError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
