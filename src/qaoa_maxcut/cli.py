"""Command-line harness: generate | bench | depth | verify.

`generate` writes the canonical MC_<n> instance suite, `bench` runs the
full benchmark protocol and emits line-delimited records plus a summary
table, `depth` reports compiled circuit depths for both scheduling
strategies, and `verify` cross-checks one instance against the in-repo
oracles. "Budget" counts objective evaluations, which is the only
iteration notion a derivative-free optimizer can honor exactly.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import bench
from .engine import EXACT, SAMPLED
from .graphs import generate_random_graph, load_graph, save_graph
from .seeding import mix64
from .simulator import CapacityError


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qaoa-maxcut", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write random Max-Cut instance files")
    gen.add_argument("--sizes", type=int, nargs="+", default=list(bench.DEFAULT_SIZES),
                     help="node counts, one MC_<n> file each (default: the 15-instance suite)")
    gen.add_argument("--density", type=float, default=bench.DEFAULT_DENSITY,
                     help="edge probability (default 0.5)")
    gen.add_argument("--seed", type=int, default=bench.DEFAULT_SEED, help="master seed")
    gen.add_argument("--out", type=Path, default=Path("instances"), help="output directory")
    gen.set_defaults(func=cmd_generate)

    b = sub.add_parser("bench", help="run the benchmark protocol over instance files")
    b.add_argument("instances", type=Path, nargs="+", help="instance files")
    b.add_argument("--layers", type=int, nargs="+", default=list(bench.DEFAULT_LAYERS))
    b.add_argument("--runs", type=int, default=bench.DEFAULT_RUNS)
    b.add_argument("--shots", type=int, default=bench.DEFAULT_SHOTS)
    b.add_argument("--budget", type=int, default=bench.DEFAULT_BUDGET,
                   help="max objective evaluations per run")
    b.add_argument("--strategy", choices=["naive", "scheduled"], default="scheduled")
    b.add_argument("--mode", choices=["exact", "sampled"], default="sampled")
    b.add_argument("--seed", type=int, default=bench.DEFAULT_SEED)
    b.add_argument("--out", type=Path, default=Path("results.jsonl"),
                   help="records file; summary lands next to it as .summary.csv")
    b.add_argument("--workers", type=int, default=1)
    b.set_defaults(func=cmd_bench)

    d = sub.add_parser("depth", help="compiled-depth table, naive vs scheduled")
    d.add_argument("instances", type=Path, nargs="+")
    d.add_argument("--layers", type=int, nargs="+", default=list(bench.DEFAULT_LAYERS))
    d.add_argument("--out", type=Path, default=None, help="also write CSV here")
    d.set_defaults(func=cmd_depth)

    v = sub.add_parser("verify", help="oracle cross-checks for one instance")
    v.add_argument("instance", type=Path)
    v.set_defaults(func=cmd_verify)
    return parser


def cmd_generate(args) -> int:
    if not args.sizes:
        print("error: --sizes must not be empty", file=sys.stderr)
        return 2
    args.out.mkdir(parents=True, exist_ok=True)
    for n in sorted(set(args.sizes)):
        g = generate_random_graph(n, args.density, mix64(args.seed, n))
        path = args.out / f"MC_{n}.txt"
        save_graph(g, path)
        print(f"wrote {path} ({g.num_nodes} nodes, {g.num_edges} edges)")
    return 0


def cmd_bench(args) -> int:
    if not args.layers:
        print("error: --layers must not be empty", file=sys.stderr)
        return 2
    instances = [(path.stem, load_graph(path)) for path in args.instances]
    try:
        records, warnings = bench.run_benchmark(
            instances,
            layer_counts=args.layers,
            runs=args.runs,
            shots=args.shots,
            budget=args.budget,
            mode=EXACT if args.mode == "exact" else SAMPLED,
            strategy=args.strategy,
            master_seed=args.seed,
            workers=args.workers,
        )
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    bench.write_records(records, args.out)
    rows = bench.summarize(records)
    table = bench.format_summary_table(rows, sorted(set(args.layers)))
    csv_path = args.out.with_suffix(".summary.csv")
    csv_path.write_text(bench.summary_csv(rows))
    print(table, end="")
    for warning in warnings:
        print(f"warning: {warning}")
    total = sum(r.wall_time for r in records)
    print(f"{len(records)} records -> {args.out} (summary: {csv_path}); total run time {total:.1f}s")
    return 0


def cmd_depth(args) -> int:
    if not args.layers:
        print("error: --layers must not be empty", file=sys.stderr)
        return 2
    instances = [(path.stem, load_graph(path)) for path in args.instances]
    rows = bench.depth_table(instances, sorted(set(args.layers)))
    print(bench.format_depth_table(rows), end="")
    if args.out is not None:
        args.out.write_text(bench.depth_csv(rows))
        print(f"wrote {args.out}")
    return 0


def cmd_verify(args) -> int:
    checks = bench.verify_instance(args.instance)
    failed = False
    for name, ok, detail in checks:
        status = "ok" if ok else "FAIL"
        print(f"check {name}: {status} ({detail})")
        failed |= not ok
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
