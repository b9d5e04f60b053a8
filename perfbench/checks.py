"""Output checks, one verdict per operation.

An operation is one (instance, layers, run) record of a variational
workload, or one instance of suite-prep. Its references come from the
graph alone or from functions run outside the timed region. A failed
check marks the operation failed and the run goes on. An operation whose
output bytes differ from the first run's output for the same key also
fails: outputs must replay byte-identically for one workload and seed.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

from child import DEPTHS, OPTIMA, RECORDS
from workloads import Workload

EXHAUSTIVE_MAX_N = 14


@dataclass
class Operation:
    key: tuple
    output: str  # the bytes this operation wrote, compared across runs
    problems: list[str]


@dataclass
class Reference:
    graphs: dict[str, object]
    depths: dict[tuple[str, int, str], int]  # (instance, layers, strategy) -> depth_table entry
    exact: dict[str, float]  # exhaustive_optimum value, for n <= EXHAUSTIVE_MAX_N


def build_reference(workload: Workload, instance_dir: Path) -> Reference:
    from qaoa_maxcut import bench, graphs

    loaded = {name: graphs.load_graph(instance_dir / f"{name}.txt") for name in workload.instance_names()}
    rows = bench.depth_table(list(loaded.items()), list(workload.layers))
    depths = {(r["instance"], r["layers"], s): r[s] for r in rows for s in ("naive", "scheduled")}
    exact = {
        name: graphs.exhaustive_optimum(g).value
        for name, g in loaded.items()
        if g.num_nodes <= EXHAUSTIVE_MAX_N
    }
    return Reference(loaded, depths, exact)


def expected_gate_counts(g, layers: int) -> dict[str, int]:
    """Decomposed Max-Cut ansatz: H per node, RX per node and layer, and
    one RZ between two CX per edge and layer (the Ising fields cancel)."""
    n, m = g.num_nodes, g.num_edges
    counts = {"H": n, "RX": n * layers, "RZ": m * layers, "CX": 2 * m * layers}
    return {kind: c for kind, c in counts.items() if c}


def record_problems(record, ref: Reference, budget: int) -> list[str]:
    g = ref.graphs[record.instance]
    problems = []
    expected = expected_gate_counts(g, record.layers)
    if record.gate_counts != expected:
        problems.append(f"gate_counts {record.gate_counts} != {expected}")
    if not record.evaluations <= budget:
        problems.append(f"evaluations {record.evaluations} > budget {budget}")
    if not 0 < record.ar_expectation <= record.ar_best <= 1:
        problems.append(f"not 0 < ar_expectation {record.ar_expectation} <= ar_best {record.ar_best} <= 1")
    depth = ref.depths[(record.instance, record.layers, record.strategy)]
    if record.compiled_depth != depth:
        problems.append(f"compiled_depth {record.compiled_depth} != depth_table {depth}")
    if record.instance in ref.exact and record.optimum != ref.exact[record.instance]:
        problems.append(f"optimum {record.optimum} != exhaustive {ref.exact[record.instance]}")
    return problems


def suite_problems(name: str, value: float, assignment, depths: dict[tuple[int, str], int], ref: Reference) -> list[str]:
    """depths maps (layers, strategy) to the depth the program reported."""
    from qaoa_maxcut.graphs import cut_value

    g = ref.graphs[name]
    problems = []
    if cut_value(g, assignment) != value:
        problems.append(f"cut_value of the assignment != reported optimum {value}")
    if name in ref.exact and value != ref.exact[name]:
        problems.append(f"optimum {value} != exhaustive {ref.exact[name]}")
    layers = sorted({p for p, _ in depths})
    for p in layers:
        if depths[(p, "scheduled")] > depths[(p, "naive")]:
            problems.append(f"p={p}: scheduled depth > naive depth")
    if layers == [1, 3, 5]:
        for strategy in ("naive", "scheduled"):
            d1, d3, d5 = (depths[(p, strategy)] for p in layers)
            if d5 - d3 != d3 - d1:
                problems.append(f"{strategy} depth not linear in p: {d1}, {d3}, {d5}")
    return problems


def bench_operations(workload: Workload, run_dir: Path, ref: Reference) -> list[Operation]:
    from qaoa_maxcut.bench import record_from_json

    expected = set(workload.operations())
    ops: list[Operation] = []
    path = run_dir / RECORDS
    for line in path.read_text().splitlines() if path.exists() else []:
        record = record_from_json(line)
        key = (record.instance, record.layers, record.run)
        if key not in expected:
            ops.append(Operation(key, line, ["unexpected or duplicate record"]))
            continue
        expected.discard(key)
        ops.append(Operation(key, line, record_problems(record, ref, workload.budget)))
    ops += [Operation(key, "", ["missing from the records file"]) for key in sorted(expected)]
    return ops


def suite_operations(workload: Workload, run_dir: Path, ref: Reference) -> list[Operation]:
    optima = {}
    if (run_dir / OPTIMA).exists():
        for line in (run_dir / OPTIMA).read_text().splitlines():
            optima[json.loads(line)["instance"]] = line
    rows: dict[str, list[dict]] = {}
    if (run_dir / DEPTHS).exists():
        with open(run_dir / DEPTHS, newline="") as fh:
            for row in csv.DictReader(fh):
                rows.setdefault(row["instance"], []).append(row)
    ops = []
    for (name,) in workload.operations():
        line, own_rows = optima.get(name), rows.get(name, [])
        depths = {
            (int(r["layers"]), strategy): int(r[f"{strategy}_depth"])
            for r in own_rows
            for strategy in ("naive", "scheduled")
        }
        if line is None or len(own_rows) != len(workload.layers):
            ops.append(Operation((name,), "", ["missing optimum or depth rows"]))
            continue
        data = json.loads(line)
        output = line + "\n" + json.dumps(own_rows, sort_keys=True)
        ops.append(Operation((name,), output, suite_problems(name, data["value"], data["assignment"], depths, ref)))
    return ops


def tally(runs: list[list[Operation]]) -> tuple[int, int, list[str]]:
    """Operations attempted and failed over all runs, plus failure notes.

    The first run's output per key is the one later runs must repeat.
    """
    first = {op.key: op.output for op in runs[0]} if runs else {}
    attempted = failed = 0
    notes = []
    for index, ops in enumerate(runs):
        for op in ops:
            attempted += 1
            problems = list(op.problems)
            if op.output != first.get(op.key):
                problems.append("output differs from the first run")
            if problems:
                failed += 1
                notes.append(f"run {index} {op.key}: {'; '.join(problems)}")
    return attempted, failed, notes
