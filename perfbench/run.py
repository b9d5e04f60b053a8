"""Benchmark entry point: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload exact-large --seed 11 --seconds 45 --trace 0

Run from the root of a checkout. Every call is made in a fresh
interpreter (perfbench/child.py) that imports the package, generates the
workload's instances from the seed and writes them, then makes the
user-facing call on those files.

--trace 0 reports the end-to-end metrics. Calls come in pairs: one of
the package in src/ and one of the frozen reference copy in
perfbench/reference/, back to back, the order alternating from pair to
pair. The box's speed drifts by tens of percent over minutes, so times
are reported as the ratio to the reference call of the same pair, which
cancels the drift; raw times are printed alongside. --trace 1 pairs
untraced and traced calls of src/ and reports the per-layer metrics of
the traced ones. Pairs repeat while another fits in --seconds, and each
metric is the median over pairs.

Every operation's output is checked (checks.py); the last line of
standard output is the result as one JSON object. Without src/qaoa_maxcut
the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import layers
import tracing
from child import OPTIMA, RECORDS
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference"  # the package as it was when the benchmark was defined
WORK_ROOT = ROOT / ".perfbench_work"

# One process, no extra threads: the box is shared and has two cores.
THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RUN_LIMIT_S = 170.0  # a run must end within 180 s

E2E_UNITS = {
    "setup_s": "s",
    "wall_vs_ref": "ratio",
    "evals_per_s_vs_ref": "ratio",
    "peak_rss_mib": "MiB",
    "ar_mean": "ratio",
}


class ChildFailed(RuntimeError):
    pass


def _child(workload: Workload, seed: int, run_dir: Path, phase: str, deadline: float) -> dict:
    """One call; phase "reference" is an untraced call of the reference copy."""
    package = REFERENCE if phase == "reference" else SRC
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(package), os.environ.get("PYTHONPATH")) if p)
    mode = "timed" if phase == "reference" else phase
    argv = [sys.executable, str(HERE / "child.py"), workload.name, str(seed), str(run_dir), mode]
    proc = subprocess.run(
        argv, env=env, capture_output=True, text=True, timeout=max(1.0, deadline - time.perf_counter())
    )
    if proc.returncode != 0:
        raise ChildFailed(f"{phase} call exited with code {proc.returncode}:\n{proc.stderr}")
    return json.loads((run_dir / "result.json").read_text())


def _operations(workload: Workload, run_dir: Path, ref: checks.Reference) -> list[checks.Operation]:
    if workload.variational:
        return checks.bench_operations(workload, run_dir, ref)
    return checks.suite_operations(workload, run_dir, ref)


def _work(workload: Workload, run_dir: Path, ref: checks.Reference) -> int:
    """Objective evaluations one call made. For suite-prep, the 2^(n-1)
    cuts the exact optimum visits with node 0 fixed."""
    if workload.variational:
        # Read as plain JSON: the reference's records keep today's format.
        lines = (run_dir / RECORDS).read_text().splitlines()
        return sum(json.loads(line)["evaluations"] for line in lines)
    return sum(1 << (g.num_nodes - 1) for g in ref.graphs.values())


def end_to_end(workload: Workload, pairs: list[tuple[dict, Path, dict, Path]], ref: checks.Reference) -> dict:
    """Metrics over (call, its run dir, reference call, its run dir) pairs."""
    walls, speeds, wall_ratios, speed_ratios = [], [], [], []
    for result, run_dir, base, base_dir in pairs:
        speed = _work(workload, run_dir, ref) / result["wall_s"]
        base_speed = _work(workload, base_dir, ref) / base["wall_s"]
        walls.append(result["wall_s"])
        speeds.append(speed)
        wall_ratios.append(result["wall_s"] / base["wall_s"])
        speed_ratios.append(speed / base_speed)
    run_dir = pairs[0][1]
    if workload.variational:
        from qaoa_maxcut.bench import read_records

        ar_mean = statistics.fmean(r.ar_expectation for r in read_records(run_dir / RECORDS))
    else:
        from qaoa_maxcut.graphs import cut_value

        # The exact optimum's approximation ratio: 1 when it is correct.
        optima = [json.loads(line) for line in (run_dir / OPTIMA).read_text().splitlines()]
        ar_mean = statistics.fmean(
            cut_value(ref.graphs[o["instance"]], o["assignment"]) / o["value"] for o in optima
        )
    print(f"{workload.name} raw wall_s {statistics.median(walls):.6g} s, evals_per_s {statistics.median(speeds):.6g} 1/s")
    print(f"{workload.name} wall_vs_ref per pair: {' '.join(f'{r:.3f}' for r in wall_ratios)}")
    return {
        "setup_s": statistics.median(result["setup_s"] for result, *_ in pairs),
        "wall_vs_ref": statistics.median(wall_ratios),
        "evals_per_s_vs_ref": statistics.median(speed_ratios),
        "peak_rss_mib": statistics.median(result["peak_rss_mib"] for result, *_ in pairs),
        "ar_mean": ar_mean,
    }


def per_layer(workload: Workload, traced: list[tuple[dict, Path]], untraced_wall: float) -> dict:
    runs = []
    for result, run_dir in traced:
        spans = tracing.load(json.loads((run_dir / "spans.json").read_text()))
        runs.append(layers.per_layer_metrics(spans, workload, result["wall_s"], untraced_wall))
    return {name: statistics.median(run[name] for run in runs) for name in runs[0]}


def attribution(metrics: dict, wall: float) -> list[str]:
    """Self time per span, largest first, as a share of the traced wall time."""
    rows = sorted(
        ((name[: -len(".self_s")], value) for name, value in metrics.items() if name.endswith(".self_s")),
        key=lambda row: -row[1],
    )
    return [
        f"  {name:<34} {int(metrics[name + '.calls']):>7} calls {value:10.4f} s {100 * value / wall:6.1f}%"
        for name, value in rows
        if metrics[name + ".calls"]
    ]


def _mib(text: str) -> float | None:
    match = re.match(r"\s*([\d.]+)\s*([KMG])", text)
    if not match:
        return None
    return float(match.group(1)) * {"K": 1 / 1024, "M": 1.0, "G": 1024.0}[match.group(2)]


def environment(workload: Workload) -> dict:
    """Hardware facts from lscpu or /sys only, plus library versions."""
    import numpy
    import scipy

    try:
        out = subprocess.run(
            ["lscpu"], capture_output=True, text=True, timeout=10, env=dict(os.environ, LC_ALL="C")
        ).stdout
    except (OSError, subprocess.TimeoutExpired):
        out = ""
    lscpu = dict(line.split(":", 1) for line in out.splitlines() if ":" in line)
    lscpu = {k.strip(): v.strip() for k, v in lscpu.items()}
    cache = {}
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            cache[int((index / "level").read_text())] = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    l3_mib = _mib(lscpu.get("L3 cache", cache.get(3, "")))
    largest_mib = 16 * (1 << max(workload.sizes)) / 2**20 if workload.variational else 0.0
    return {
        "nproc": lscpu.get("CPU(s)") or Path("/sys/devices/system/cpu/online").read_text().strip(),
        "cpu_model": lscpu.get("Model name", "unknown"),
        "l2_cache": lscpu.get("L2 cache", cache.get(2, "unknown")),
        "l3_cache": lscpu.get("L3 cache", cache.get(3, "unknown")),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "largest_array_mib": largest_mib,
        "bandwidth": (
            f"no array reaches 4x the L3 ({l3_mib:g} MiB), so no memory-bandwidth figure is claimed; "
            "simulator.bytes_moved_computed is computed, not measured"
            if l3_mib and largest_mib < 4 * l3_mib
            else "L3 size unknown or exceeded: no memory-bandwidth figure is claimed"
        ),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "qaoa_maxcut" / "__init__.py").is_file():
        print(f"error: {SRC / 'qaoa_maxcut'} not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    os.environ.update(THREAD_CAPS)  # for this process's numpy and every call's
    # The two vCPUs of a shared box run at different speeds at any moment;
    # pinning every call (they inherit this) to one makes a pair comparable.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    print(json.dumps({"environment": environment(workload)}))
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_ROOT))  # own directory: runs may overlap
    try:
        return measure(args, workload, work, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # unless another run still uses it


def measure(args, workload: Workload, work: Path, started: float) -> int:
    """Make the calls, check their outputs and print the result."""
    deadline = started + RUN_LIMIT_S
    # A pair is (src, reference) or (untraced, traced); at least two pairs
    # for the set-up median and the replay check of src's outputs.
    sides = ("traced", "timed") if args.trace else ("reference", "timed")
    pairs: list[dict[str, tuple[dict, Path]]] = []
    measuring = time.perf_counter()
    try:
        for count in itertools.count(1):
            pair_start = time.perf_counter()
            pair = {}
            for phase in sides if count % 2 else sides[::-1]:
                run_dir = work / f"run{2 * len(pairs) + len(pair)}"
                pair[phase] = (_child(workload, args.seed, run_dir, phase, deadline), run_dir)
            pairs.append(pair)
            now = time.perf_counter()
            # Stop when one more pair like the last would overrun --seconds.
            if count >= 2 and now - measuring + (now - pair_start) > args.seconds:
                break
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    ref = checks.build_reference(workload, pairs[0]["timed"][1] / "instances")

    # The reference copy's outputs are the yardstick, not under test.
    checked = [pair[phase][1] for pair in pairs for phase in sides if phase != "reference"]
    attempted, failed, notes = checks.tally([_operations(workload, d, ref) for d in checked])
    for note in notes:
        print(f"failed: {note}")
    timed = [pair["timed"] for pair in pairs]
    if args.trace:
        traced = [pair["traced"] for pair in pairs]
        values = per_layer(workload, traced, statistics.median(r["wall_s"] for r, _ in timed))
        units = layers.metric_units()
        traced_wall = statistics.median(r["wall_s"] for r, _ in traced)
        print(f"self time by span, traced wall {traced_wall:.3f} s:")
        print("\n".join(attribution(values, traced_wall)))
    else:
        values = end_to_end(workload, [(*pair["timed"], *pair["reference"]) for pair in pairs], ref)
        units = E2E_UNITS
    for name, value in values.items():
        print(f"{args.workload} {name} {value:.6g} {units[name]}")
    print(f"{len(pairs)} pairs, {attempted} operations, {failed} failed, {time.perf_counter() - started:.1f} s")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
