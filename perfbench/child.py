"""One benchmark call in a fresh interpreter.

    python3 perfbench/child.py <workload> <seed> <run_dir> <timed|traced>

The parent puts the package under test, src/ or the reference copy, on
PYTHONPATH. Set-up is timed first: importing the package, generating the workload's
instances from the seed and writing them. The workload's user-facing call
is then timed, under tracing for "traced", and its outputs are left in
run_dir for the parent to check.
Measurements go to run_dir/result.json, spans to run_dir/spans.json.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from layers import ROOT, SITES
from tracing import Tracer, dump
from workloads import DENSITY, WORKLOADS, Workload

RECORDS = "results.jsonl"
DEPTHS = "depth.csv"
OPTIMA = "optima.jsonl"


def _timed_call(workload: Workload, seed: int, files: list[str], run_dir: Path):
    """The call a user makes; returns the exact optima for suite-prep."""
    from qaoa_maxcut import cli, graphs

    if workload.variational:
        _require_ok(cli.main(workload.bench_argv(files, seed, str(run_dir / RECORDS))))
        return None
    optima = [graphs.brute_force_optimum(graphs.load_graph(f)) for f in files]
    _require_ok(cli.main(workload.depth_argv(files, str(run_dir / DEPTHS))))
    return optima


def _require_ok(code: int) -> None:
    if code != 0:
        raise RuntimeError(f"qaoa-maxcut exited with code {code}")


def main(argv: list[str]) -> None:
    name, seed, run_dir, phase = argv[0], int(argv[1]), Path(argv[2]), argv[3]
    workload = WORKLOADS[name]
    instance_dir = run_dir / "instances"
    instance_dir.mkdir(parents=True, exist_ok=True)

    start = time.perf_counter()
    from qaoa_maxcut import graphs
    from qaoa_maxcut.seeding import mix64

    files = []
    for n in workload.sizes:
        path = instance_dir / f"MC_{n}.txt"
        graphs.save_graph(graphs.generate_random_graph(n, DENSITY, mix64(seed, n)), path)
        files.append(str(path))
    result = {"setup_s": time.perf_counter() - start}

    tracer = Tracer()
    call = _timed_call
    if phase == "traced":
        tracer.install(SITES)
        call = tracer.wrap(ROOT, _timed_call)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            optima = call(workload, seed, files, run_dir)
            result["wall_s"] = time.perf_counter() - start
    finally:
        tracer.restore()
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if optima is not None:
        lines = [
            json.dumps({"instance": Path(f).stem, "value": o.value, "assignment": list(o.assignment)})
            for f, o in zip(files, optima)
        ]
        (run_dir / OPTIMA).write_text("\n".join(lines) + "\n")
    if phase == "traced":
        (run_dir / "spans.json").write_text(json.dumps(dump(tracer.spans)))
    (run_dir / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
