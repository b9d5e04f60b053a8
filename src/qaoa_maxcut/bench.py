"""Benchmark harness: the instance-suite protocol behind the CLI.

One benchmark record corresponds to one (instance, layer count, run)
triple. `run_benchmark` and `depth_table` share one front end, `_plan`,
which checks the instance set and layer list and puts both in canonical
order. `QaoaConfig` names, defaults and judges every run parameter,
which `run_benchmark` forwards; each triple gets a copy of its layer
count's config, seeded with
mix64(master_seed, fnv1a64(instance_name), layers, run_index), so runs
are reproducible and independent of execution order or worker count;
`run_single` hands that config to `run_qaoa` and copies its layers,
seed and strategy into the record; its compiled depth and gate counts
come from `circuits.compiled_metrics`, where the compile model lives.
Records serialize as one JSON object per line, with the keys in
`BenchRecord`'s field order; no record holds a timing, so identical
invocations produce identical files.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import encoding, graphs
from .circuits import STRATEGIES, compiled_metrics
# Unused here, but perfbench/layers.py wraps bench:build_qaoa_ansatz, decompose and depth.
from .circuits import build_qaoa_ansatz, decompose, depth
from .engine import EXACT, QaoaConfig, QaoaObjective, run_qaoa
from .graphs import Graph, brute_force_optimum
from .seeding import fnv1a64, mix64
from .simulator import DEFAULT_MAX_QUBITS, CapacityError

DEFAULT_SIZES = (8, 10, 12, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25)
DEFAULT_DENSITY = 0.5
DEFAULT_LAYERS = (1, 3, 5)
DEFAULT_RUNS = 5
DEFAULT_SEED = 11

# Peak bytes per amplitude of one `run_qaoa` call, either objective mode,
# set by its final draw: the full gate-level state (16) and the float64
# CDF of `sample` (8), beside the objective's half energy table (4) and
# level index (at most 1), and about 1 MiB of slice temporaries. The
# objective's own evaluations peak at about 12. Pinned by the tracemalloc
# test of run_qaoa at n = 18 (30.3), where that fixed part still shows;
# the memory gate of `run_benchmark` budgets each worker by it.
BYTES_PER_AMPLITUDE = 34
# Peak bytes per shot of `sample` beside its CDF when nearly every shot
# is a distinct outcome, as at the study's widths (about 18 when few
# outcomes repeat). Pinned by the tracemalloc test of `sample`; the
# memory gate adds it per shot to each worker's budget.
BYTES_PER_SHOT = 42

_MEMINFO = Path("/proc/meminfo")
_CGROUP_MEMORY_MAX = Path("/sys/fs/cgroup/memory.max")

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


def record_to_json(r: BenchRecord) -> str:
    payload = asdict(r)
    payload["gate_counts"] = dict(sorted(r.gate_counts.items()))
    return json.dumps(payload)


def record_from_json(line: str) -> BenchRecord:
    return BenchRecord(**json.loads(line))


class BenchArgumentError(ValueError):
    """A `run_benchmark` argument is out of range; raised before any work."""


def run_seed(master_seed: int, instance: str, layers: int, run: int) -> int:
    return mix64(master_seed, fnv1a64(instance), layers, run)


def run_single(name: str, g: Graph, run: int, optimum: float, config: QaoaConfig) -> BenchRecord:
    result = run_qaoa(g, config, optimum)
    compiled_depth, counts = compiled_metrics(g, config.strategy, [config.layers])[config.layers]
    return BenchRecord(
        instance=name,
        n=g.num_nodes,
        layers=config.layers,
        run=run,
        seed=config.seed,
        ar_expectation=result.ar_expectation,
        ar_best=result.ar_best,
        expected_cost=result.expected_cost,
        optimum=optimum,
        evaluations=result.evaluations,
        compiled_depth=compiled_depth,
        gate_counts=counts,
        strategy=config.strategy,
    )


def run_benchmark(
    instances: list[tuple[str, Graph]],
    layer_counts: list[int],
    runs: int,
    *,
    master_seed: int = DEFAULT_SEED,
    workers: int = 1,
    **run,
) -> tuple[list[BenchRecord], list[str]]:
    """All (instance, layers, run) records plus skip warnings.

    `run` holds the `QaoaConfig` fields but `layers` and `seed` (`shots`,
    `budget`, `mode`, `strategy`), each left out at the field's default; a
    `layers` or `seed` key raises TypeError, as run seeds come from
    `run_seed`. Each distinct layer count runs once. `_plan` refuses a
    bad layer list and an instance name given twice (names key the run
    seeds and optima), this function `runs` or `workers` below 1, and
    `QaoaConfig` any other out-of-range run parameter; all raise
    BenchArgumentError. Any instance wider than the simulator's
    DEFAULT_MAX_QUBITS raises CapacityError, and so do `workers` runs of
    the widest instance at BYTES_PER_AMPLITUDE and `shots` draws at
    BYTES_PER_SHOT each that would not fit in `available_memory()`; all
    before any optimum is computed or any run starts. An instance whose
    optimum cut is 0 is skipped with a warning. Records come in `_plan`'s
    canonical order whatever the worker scheduling.
    """
    instances, layer_counts = _plan(instances, layer_counts)
    for name, value in (("runs", runs), ("workers", workers)):
        if value < 1:
            raise BenchArgumentError(f"{name} must be >= 1, got {value}")
    workers = min(workers, len(instances) * len(layer_counts) * runs)  # no idle worker is budgeted
    try:
        configs = {p: QaoaConfig(p, seed=0, **run) for p in layer_counts}
    except ValueError as exc:
        raise BenchArgumentError(str(exc)) from None
    too_wide = [f"{name} ({g.num_nodes} nodes)" for name, g in instances if g.num_nodes > DEFAULT_MAX_QUBITS]
    if too_wide:
        raise CapacityError(
            f"wider than the simulator's {DEFAULT_MAX_QUBITS}-qubit limit: {', '.join(too_wide)}"
        )
    widest = max((g.num_nodes for _, g in instances), default=0)
    shots = configs[layer_counts[0]].shots
    need = workers * ((BYTES_PER_AMPLITUDE << widest) + BYTES_PER_SHOT * shots)
    available = available_memory()
    if need > available:
        raise CapacityError(
            f"{workers} worker(s) at {widest} qubits need {need / 2**20:.0f} MiB "
            f"({BYTES_PER_AMPLITUDE} B per amplitude and {BYTES_PER_SHOT} B per shot of {shots} each), "
            f"but only {available / 2**20:.0f} MiB is available; use fewer --workers or --shots, or smaller instances"
        )
    warnings: list[str] = []
    optima: dict[str, float] = {}
    usable: list[tuple[str, Graph]] = []
    for name, g in instances:
        optima[name] = brute_force_optimum(g).value  # once per instance: cut_value of the optimal assignment
        if optima[name] <= 0:
            warnings.append(f"skipped {name}: optimum cut is 0 (edgeless graph?)")
            continue
        usable.append((name, g))

    tasks = [
        (name, g, run, optima[name], replace(configs[layers], seed=run_seed(master_seed, name, layers, run)))
        for name, g in usable
        for layers in layer_counts
        for run in range(runs)
    ]
    workers = min(workers, len(tasks))  # nor started for the runs of a skipped instance
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # kept off the import path of every CLI call

        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(run_single, *zip(*tasks)))  # map keeps the tasks' order
    else:
        records = [run_single(*t) for t in tasks]
    return records, warnings


def available_memory() -> int:
    """Bytes a run may still allocate: MemAvailable from /proc/meminfo,
    or the free physical pages from `os.sysconf` where that is missing,
    capped by the cgroup's memory.max when one is set."""
    try:
        with open(_MEMINFO) as fh:
            kib = next(int(line.split()[1]) for line in fh if line.startswith("MemAvailable:"))
        available = kib * 1024
    except (OSError, StopIteration, ValueError):
        available = os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    try:
        limit = _CGROUP_MEMORY_MAX.read_text().strip()
    except OSError:
        return available
    return min(available, int(limit)) if limit.isdigit() else available


def _plan(instances: list[tuple[str, Graph]], layer_counts: list[int]) -> tuple[list[tuple[str, Graph]], list[int]]:
    """The instances in canonical (num_nodes, name) order and the distinct
    layer counts ascending; an empty layer list, a count below 1 or an
    instance name given twice raises BenchArgumentError."""
    if not layer_counts:
        raise BenchArgumentError("need at least one layer count")
    if min(layer_counts) < 1:
        raise BenchArgumentError(f"layer count must be >= 1, got {min(layer_counts)}")
    names = [name for name, _ in instances]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise BenchArgumentError(f"instance name given more than once: {', '.join(repeated)}")
    return sorted(instances, key=lambda ng: (ng[1].num_nodes, ng[0])), sorted(set(layer_counts))


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
    """One column pair per distinct layer count, ascending."""
    layer_counts = sorted(set(layer_counts))
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
    return _text_table(table)


def _text_table(table: list[list[str]]) -> str:
    """Left-aligned columns two spaces apart, with a dashed rule under the
    header row (the first row)."""
    widths = [max(len(r[i]) for r in table) for i in range(len(table[0]))]
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
    """Compiled circuit depth per (instance, layers, strategy), from one
    `compiled_metrics` call per (instance, strategy). Rows come in
    `_plan`'s canonical order, one per distinct layer count; `_plan`
    refuses a bad layer list and a repeated instance name with
    BenchArgumentError before any depth is computed.
    """
    instances, layer_counts = _plan(instances, layer_counts)
    rows = []
    for name, g in instances:
        metrics = {strategy: compiled_metrics(g, strategy, layer_counts) for strategy in STRATEGIES}
        for p in layer_counts:
            rows.append({"instance": name, "n": g.num_nodes, "layers": p,
                         **{strategy: metrics[strategy][p][0] for strategy in STRATEGIES}})
    return rows


def format_depth_table(rows: list[dict]) -> str:
    table = [["instance", "n", "layers", *(f"{s} depth" for s in STRATEGIES)]]
    table += [[str(row[key]) for key in ("instance", "n", "layers", *STRATEGIES)] for row in rows]
    return _text_table(table)


def depth_csv(rows: list[dict]) -> str:
    lines = [["instance", "n", "layers", *(f"{s}_depth" for s in STRATEGIES)]]
    lines += [[str(row[key]) for key in ("instance", "n", "layers", *STRATEGIES)] for row in rows]
    return "".join(",".join(cells) + "\n" for cells in lines)


# ---------------------------------------------------------------------------
# Instance self-checks (cross-validation of the in-repo oracles)


def verify_instance(path) -> list[tuple[str, bool, str]]:
    """Named consistency checks for one instance file.

    Returns (check name, passed, detail) triples: file parsing, the
    objective's half energy table (`encoding.energy_table`) against
    minus the cut value of each entry's assignment (every entry for
    n <= 12, else 512 random ones drawn from the file's stem, so the same
    however the path is spelled; skipped above the simulator's
    DEFAULT_MAX_QUBITS, where no run could use the table), the chunked
    exact optimum equal to naive enumeration's, assignment included
    (n <= 12), and the zero-angle expectation identity (n <= 20).
    """
    checks: list[tuple[str, bool, str]] = []
    try:
        g = graphs.load_graph(path)
    except (OSError, graphs.GraphFormatError) as exc:
        checks.append(("parse", False, str(exc)))
        return checks
    checks.append(("parse", True, f"{g.num_nodes} nodes, {g.num_edges} edges"))

    n = g.num_nodes
    if n <= DEFAULT_MAX_QUBITS:
        table = encoding.energy_table(g)
        if n <= 12:
            entries, scope = range(table.size), "every half entry"
        else:
            rng = np.random.default_rng(mix64(fnv1a64(Path(path).stem), 0xC0FFEE))
            entries, scope = rng.integers(0, table.size, 512).tolist(), "512 random half entries"
        worst = max(abs(table[k] + graphs.cut_value(g, [(2 * k >> i) & 1 for i in range(n)])) for k in entries)
        checks.append(("encoding-roundtrip", worst == 0, f"max |E+cut| = {worst:.2e} over {scope}"))
    else:
        checks.append(("encoding-roundtrip", True, f"skipped (n > {DEFAULT_MAX_QUBITS})"))

    if g.num_nodes <= 12:
        fast = graphs.brute_force_optimum(g)
        naive = graphs.exhaustive_optimum(g)
        consistent = fast == naive and graphs.cut_value(g, fast.assignment) == fast.value
        checks.append(("optimum-oracle", consistent, f"optimum = {fast.value}"))
    else:
        checks.append(("optimum-oracle", True, "skipped (n > 12)"))

    if g.num_edges > 0 and g.num_nodes <= 20:
        config = QaoaConfig(layers=1, shots=1, mode=EXACT, seed=0)
        value = QaoaObjective(g, config)([0.0, 0.0])
        target = -g.total_weight() / 2.0
        checks.append(
            ("zero-angle-expectation", abs(value - target) <= 1e-9, f"{value:.12g} vs {target:.12g}")
        )
    else:
        checks.append(("zero-angle-expectation", True, "skipped"))
    return checks
