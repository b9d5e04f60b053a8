"""Command-line harness: generate | bench | depth | verify.

`generate` writes the canonical MC_<n> instance suite, `bench` runs the
full benchmark protocol and emits line-delimited records plus a summary
table, `depth` reports compiled circuit depths for every scheduling
strategy, and `verify` cross-checks one instance against the in-repo
oracles. "Budget" counts objective evaluations, which is the only
iteration notion a derivative-free optimizer can honor exactly.

Exit status: 0 done, 1 a `verify` check failed, 2 input refused before any
work, with one `error:` line on stderr (argparse's usage errors exit 2 too).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from . import bench
from .circuits import STRATEGIES
from .engine import MODES, QaoaConfig
from .graphs import Graph, GraphFormatError, generate_random_graph, load_graph, save_graph
from .seeding import mix64
from .simulator import CapacityError


class Refusal(Exception):
    """Input refused before any work; `main` prints it as `error: ...` and returns 2."""


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (Refusal, CapacityError, bench.BenchArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


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
    b.add_argument("--shots", type=int, default=QaoaConfig.shots)
    b.add_argument("--budget", type=int, default=QaoaConfig.budget,
                   help="max objective evaluations per run")
    b.add_argument("--strategy", choices=STRATEGIES, default=QaoaConfig.strategy)
    b.add_argument("--mode", choices=MODES, default=QaoaConfig.mode)
    b.add_argument("--seed", type=int, default=bench.DEFAULT_SEED)
    b.add_argument("--out", type=Path, default=Path("results.jsonl"),
                   help="records file; summary lands next to it as .summary.csv")
    b.add_argument("--workers", type=int, default=1)
    b.set_defaults(func=cmd_bench)

    d = sub.add_parser("depth", help=f"compiled-depth table, {' vs '.join(STRATEGIES)}")
    d.add_argument("instances", type=Path, nargs="+")
    d.add_argument("--layers", type=int, nargs="+", default=list(bench.DEFAULT_LAYERS))
    d.add_argument("--out", type=Path, default=None, help="also write CSV here")
    d.set_defaults(func=cmd_depth)

    v = sub.add_parser("verify", help="oracle cross-checks for one instance")
    v.add_argument("instance", type=Path)
    v.set_defaults(func=cmd_verify)
    return parser


def cmd_generate(args) -> int:
    try:
        suite = [generate_random_graph(n, args.density, mix64(args.seed, n)) for n in sorted(set(args.sizes))]
    except ValueError as exc:
        raise Refusal(exc) from None
    try:  # an --out that is, or lies under, a file fails here, before anything is made
        args.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise Refusal(f"cannot make output directory {args.out}: {exc.strerror}") from None
    for g in suite:
        path = args.out / f"MC_{g.num_nodes}.txt"
        save_graph(g, path)
        print(f"wrote {path} ({g.num_nodes} nodes, {g.num_edges} edges)")
    return 0


def load_instances(paths: list[Path]) -> list[tuple[str, Graph]]:
    """(stem, graph) per instance file; the first unreadable or malformed
    file is refused."""
    try:
        return [(path.stem, load_graph(path)) for path in paths]
    except (OSError, GraphFormatError) as exc:
        raise Refusal(exc) from None


def check_out(path: Path | None, instances: list[Path]) -> None:
    """Refuse an output file `path` whose directory is missing, that is a
    directory, or that is one of `instances`, also through a symlink or a
    hardlink. Nothing is created or opened; None (no output) passes."""
    if path is None:
        return
    if not path.parent.is_dir():
        raise Refusal(f"output directory {path.parent} does not exist")
    if path.is_dir():
        raise Refusal(f"output file {path} is a directory")
    # samefile needs both files to exist; every instance does, so a missing output is none of them.
    if path.exists() and any(os.path.samefile(path, instance) for instance in instances):
        raise Refusal(f"output file {path} is one of the instance files")


def cmd_bench(args) -> int:
    instances = load_instances(args.instances)
    check_out(args.out, args.instances)
    csv_path = args.out.with_suffix(".summary.csv")  # after the check: `--out .` has no name to suffix
    check_out(csv_path, args.instances)
    start = time.perf_counter()
    records, warnings = bench.run_benchmark(
        instances,
        layer_counts=args.layers,
        runs=args.runs,
        shots=args.shots,
        budget=args.budget,
        mode=args.mode,
        strategy=args.strategy,
        master_seed=args.seed,
        workers=args.workers,
    )
    elapsed = time.perf_counter() - start
    bench.write_records(records, args.out)
    rows = bench.summarize(records)
    table = bench.format_summary_table(rows, args.layers)
    csv_path.write_text(bench.summary_csv(rows))
    print(table, end="")
    for warning in warnings:
        print(f"warning: {warning}")
    print(f"{len(records)} records -> {args.out} (summary: {csv_path}); total run time {elapsed:.1f}s")
    return 0


def cmd_depth(args) -> int:
    instances = load_instances(args.instances)
    check_out(args.out, args.instances)
    rows = bench.depth_table(instances, args.layers)
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
