"""Benchmark harness: the instance-suite protocol behind the CLI.

One benchmark record corresponds to one (instance, layer count, run)
triple. Per-run seeds are pre-assigned as
mix64(master_seed, fnv1a64(instance_name), layers, run_index), so runs
are reproducible and independent of execution order or worker count.
Records serialize as one JSON object per line with a fixed key order;
wall_time is tracked in memory for the summary but kept out of the
records file so identical invocations produce identical files.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .circuits import build_qaoa_ansatz, decompose, depth
from .engine import EXACT, SAMPLED, QaoaConfig, maxcut_problem, run_qaoa
from .graphs import Graph, brute_force_optimum
from .seeding import fnv1a64, mix64
from .simulator import DEFAULT_MAX_QUBITS, CapacityError

DEFAULT_SIZES = (8, 10, 12, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25)
DEFAULT_DENSITY = 0.5
DEFAULT_LAYERS = (1, 3, 5)
DEFAULT_RUNS = 5
DEFAULT_SHOTS = 10_000
DEFAULT_BUDGET = 5_000
DEFAULT_SEED = 11

_RECORD_FIELDS = (
    "instance",
    "n",
    "layers",
    "run",
    "seed",
    "ar_expectation",
    "ar_best",
    "expected_cost",
    "optimum",
    "evaluations",
    "compiled_depth",
    "gate_counts",
    "strategy",
)


@dataclass
class BenchRecord:
    instance: str
    n: int
    layers: int
    run: int
    seed: int
    ar_expectation: float
    ar_best: float
    expected_cost: float
    optimum: float
    evaluations: int
    compiled_depth: int
    gate_counts: dict[str, int]
    strategy: str
    wall_time: float = 0.0


def record_to_json(r: BenchRecord) -> str:
    payload = {name: getattr(r, name) for name in _RECORD_FIELDS}
    payload["gate_counts"] = dict(sorted(r.gate_counts.items()))
    return json.dumps(payload)


def record_from_json(line: str) -> BenchRecord:
    data = json.loads(line)
    return BenchRecord(**{name: data[name] for name in _RECORD_FIELDS})


def run_seed(master_seed: int, instance: str, layers: int, run: int) -> int:
    return mix64(master_seed, fnv1a64(instance), layers, run)


def run_single(
    name: str,
    g: Graph,
    layers: int,
    run: int,
    optimum: float,
    *,
    shots: int = DEFAULT_SHOTS,
    budget: int = DEFAULT_BUDGET,
    mode: str = SAMPLED,
    strategy: str = "naive",
    master_seed: int = DEFAULT_SEED,
) -> BenchRecord:
    seed = run_seed(master_seed, name, layers, run)
    config = QaoaConfig(
        layers=layers,
        shots=shots,
        max_evaluations=budget,
        objective_mode=mode,
        seed=seed,
        strategy=strategy,
    )
    start = time.perf_counter()
    result = run_qaoa(maxcut_problem(g), config, optimum)
    elapsed = time.perf_counter() - start
    return BenchRecord(
        instance=name,
        n=g.num_nodes,
        layers=layers,
        run=run,
        seed=seed,
        ar_expectation=result.ar_expectation,
        ar_best=result.ar_best,
        expected_cost=result.expected_cost,
        optimum=optimum,
        evaluations=result.evaluations,
        compiled_depth=result.compiled_depth,
        gate_counts=result.gate_counts,
        strategy=strategy,
        wall_time=elapsed,
    )


def _task(args) -> BenchRecord:
    return run_single(*args[:5], **args[5])


def run_benchmark(
    instances: list[tuple[str, Graph]],
    layer_counts: list[int],
    runs: int,
    *,
    shots: int = DEFAULT_SHOTS,
    budget: int = DEFAULT_BUDGET,
    mode: str = SAMPLED,
    strategy: str = "naive",
    master_seed: int = DEFAULT_SEED,
    workers: int = 1,
) -> tuple[list[BenchRecord], list[str]]:
    """All (instance, layers, run) records plus skip warnings.

    Any instance wider than the simulator's DEFAULT_MAX_QUBITS raises
    CapacityError before any optimum is computed or any run starts; an
    instance whose optimum cut is 0 is skipped with a warning. Results
    are sorted into a canonical order regardless of worker scheduling.
    """
    if not layer_counts:
        raise ValueError("need at least one layer count")
    too_wide = [f"{name} ({g.num_nodes} nodes)" for name, g in instances if g.num_nodes > DEFAULT_MAX_QUBITS]
    if too_wide:
        raise CapacityError(
            f"wider than the simulator's {DEFAULT_MAX_QUBITS}-qubit limit: {', '.join(too_wide)}"
        )
    warnings: list[str] = []
    optima: dict[str, float] = {}
    usable: list[tuple[str, Graph]] = []
    for name, g in instances:
        optima[name] = brute_force_optimum(g).value  # cached once per instance
        if optima[name] <= 0:
            warnings.append(f"skipped {name}: optimum cut is 0 (edgeless graph?)")
            continue
        usable.append((name, g))

    opts = dict(shots=shots, budget=budget, mode=mode, strategy=strategy, master_seed=master_seed)
    tasks = [
        (name, g, layers, run, optima[name], opts)
        for name, g in usable
        for layers in layer_counts
        for run in range(runs)
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_task, tasks))
    else:
        records = [_task(t) for t in tasks]
    records.sort(key=lambda r: (r.n, r.instance, r.layers, r.run))
    return records, warnings


def write_records(records: list[BenchRecord], path) -> None:
    with open(path, "w") as fh:
        for r in records:
            fh.write(record_to_json(r) + "\n")


def read_records(path) -> list[BenchRecord]:
    with open(path) as fh:
        return [record_from_json(line) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# Aggregation and tables


def summarize(records: list[BenchRecord]) -> list[dict]:
    """Mean and population standard deviation of ar_expectation per
    (instance, layers); one row per instance, sorted by size."""
    grouped: dict[tuple[str, int, int], list[float]] = {}
    for r in records:
        grouped.setdefault((r.instance, r.n, r.layers), []).append(r.ar_expectation)
    rows: dict[tuple[int, str], dict] = {}
    for (instance, n, layers), ars in sorted(grouped.items(), key=lambda kv: (kv[0][1], kv[0][0], kv[0][2])):
        row = rows.setdefault((n, instance), {"instance": instance, "n": n, "layers": {}})
        arr = np.asarray(ars)
        row["layers"][layers] = {
            "mean": float(arr.mean()),
            "std": float(arr.std()),  # population std over the runs
            "runs": len(ars),
        }
    return [rows[key] for key in sorted(rows)]


def format_summary_table(rows: list[dict], layer_counts: list[int]) -> str:
    header = ["instance", "n"]
    for p in layer_counts:
        header += [f"{p}-layer mean", f"{p}-layer std"]
    table = [header]
    for row in rows:
        cells = [row["instance"], str(row["n"])]
        for p in layer_counts:
            stats = row["layers"].get(p)
            if stats is None:
                cells += ["-", "-"]
            else:
                cells += [f"{stats['mean']:.4f}", f"{stats['std']:.4f}"]
        table.append(cells)
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in table]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def summary_csv(rows: list[dict]) -> str:
    lines = ["instance,n,layers,mean_ar,std_ar,runs"]
    for row in rows:
        for p, stats in sorted(row["layers"].items()):
            lines.append(
                f"{row['instance']},{row['n']},{p},{stats['mean']:.12g},{stats['std']:.12g},{stats['runs']}"
            )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Depth curves (Fig. 2-style measurement: no simulation involved)


def depth_table(
    instances: list[tuple[str, Graph]],
    layer_counts: list[int],
) -> list[dict]:
    """Compiled circuit depth per (instance, layers, strategy).

    Depth does not depend on the parameter values, so placeholder angles
    are used.
    """
    rows = []
    for name, g in sorted(instances, key=lambda ng: (ng[1].num_nodes, ng[0])):
        model = maxcut_problem(g)
        for p in layer_counts:
            gammas = [0.5] * p
            betas = [0.5] * p
            row = {"instance": name, "n": g.num_nodes, "layers": p}
            for strategy in ("naive", "scheduled"):
                circuit = build_qaoa_ansatz(model, p, gammas, betas, strategy)
                row[strategy] = depth(decompose(circuit))
            rows.append(row)
    return rows


def format_depth_table(rows: list[dict]) -> str:
    table = [["instance", "n", "layers", "naive depth", "scheduled depth"]]
    for row in rows:
        table.append(
            [row["instance"], str(row["n"]), str(row["layers"]), str(row["naive"]), str(row["scheduled"])]
        )
    widths = [max(len(r[i]) for r in table) for i in range(5)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in table]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def depth_csv(rows: list[dict]) -> str:
    lines = ["instance,n,layers,naive_depth,scheduled_depth"]
    for row in rows:
        lines.append(f"{row['instance']},{row['n']},{row['layers']},{row['naive']},{row['scheduled']}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Instance self-checks (cross-validation of the in-repo oracles)


def verify_instance(path) -> list[tuple[str, bool, str]]:
    """Named consistency checks for one instance file.

    Returns (check name, passed, detail) triples: file parsing, exact
    QUBO/Ising round-trip against cut values, Gray-code vs naive
    enumeration agreement (n <= 12), and the zero-angle expectation
    identity (n <= 20).
    """
    from .engine import objective  # local import to keep module load light
    from . import encoding, graphs

    checks: list[tuple[str, bool, str]] = []
    try:
        g = graphs.load_graph(path)
    except (OSError, ValueError) as exc:
        checks.append(("parse", False, str(exc)))
        return checks
    checks.append(("parse", True, f"{g.num_nodes} nodes, {g.num_edges} edges"))

    model = maxcut_problem(g)
    if g.num_nodes <= 12:
        assignments = (
            tuple((z >> i) & 1 for i in range(g.num_nodes)) for z in range(1 << g.num_nodes)
        )
        scope = "all assignments"
    else:
        rng = np.random.default_rng(mix64(fnv1a64(str(path)), 0xC0FFEE))
        assignments = (tuple(rng.integers(0, 2, g.num_nodes).tolist()) for _ in range(512))
        scope = "512 random assignments"
    worst = max(
        abs(encoding.ising_energy(model, a) + graphs.cut_value(g, a)) for a in assignments
    )
    checks.append(("encoding-roundtrip", worst <= 1e-12, f"max |E+cut| = {worst:.2e} over {scope}"))

    if g.num_nodes <= 12:
        gray = graphs.brute_force_optimum(g)
        naive = graphs.exhaustive_optimum(g)
        consistent = (
            gray.value == naive.value
            and graphs.cut_value(g, gray.assignment) == gray.value
            and graphs.cut_value(g, naive.assignment) == naive.value
        )
        checks.append(("optimum-oracle", consistent, f"optimum = {gray.value}"))
    else:
        checks.append(("optimum-oracle", True, "skipped (n > 12)"))

    if g.num_edges > 0 and g.num_nodes <= 20:
        config = QaoaConfig(layers=1, shots=1, objective_mode=EXACT, seed=0)
        value = objective(model, config, [0.0, 0.0])
        target = -g.total_weight() / 2.0
        checks.append(
            ("zero-angle-expectation", abs(value - target) <= 1e-9, f"{value:.12g} vs {target:.12g}")
        )
    else:
        checks.append(("zero-angle-expectation", True, "skipped"))
    return checks
