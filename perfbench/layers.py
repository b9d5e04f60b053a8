"""Which package functions the traced run wraps, and the per-layer metrics
derived from their spans.

Every site is a public function of the package, wrapped where its caller
looks it up. The end-to-end metric each layer should move, per workload,
is listed in perfbench/README.md.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracing import Site, Span, self_times
from workloads import GATED, WORKLOADS, Workload

ROOT = "timed_region"
_P = "qaoa_maxcut"


def _simulate(args, kwargs, state) -> dict:
    circuit = args[0] if args else kwargs["c"]
    gates = sum(1 for g in circuit.gates if hasattr(g, "kind"))  # barriers have no kind
    return {"n": state.size.bit_length() - 1, "gates": gates}


def _sample(args, kwargs, counts) -> dict:
    return {"n": counts.num_qubits, "shots": counts.total, "distinct": len(counts.counts)}


def _brute_force(args, kwargs, result) -> dict:
    g = args[0] if args else kwargs["g"]
    return {"n": g.num_nodes}


def _minimize(args, kwargs, result) -> dict:
    config = args[2] if len(args) > 2 else kwargs["config"]
    best, improving = float("inf"), 0
    for _, value in result.trace or ():
        if value < best:
            best, improving = value, improving + 1
    return {
        "converged": bool(result.converged),
        "evaluations": result.evaluations,
        "budget": config.max_evaluations,
        "improving": improving,
    }


SITES = [
    Site("cli.main", (f"{_P}.cli:main",)),
    Site("bench.run_benchmark", (f"{_P}.bench:run_benchmark",)),
    Site("bench.write_records", (f"{_P}.bench:write_records",)),
    Site("bench.depth_table", (f"{_P}.bench:depth_table",)),
    Site(
        "graphs.brute_force_optimum",
        (f"{_P}.bench:brute_force_optimum", f"{_P}.graphs:brute_force_optimum"),
        _brute_force,
    ),
    Site("engine.run_qaoa", (f"{_P}.bench:run_qaoa",)),
    Site("optimize.minimize", (f"{_P}.engine:minimize",), _minimize),
    Site("engine.QaoaObjective.__call__", (f"{_P}.engine:QaoaObjective.__call__",)),
    Site("engine.QaoaObjective.mean_cost", (f"{_P}.engine:QaoaObjective.mean_cost",)),
    Site("engine.QaoaObjective.min_cost", (f"{_P}.engine:QaoaObjective.min_cost",)),
    Site("engine.build_ansatz", (f"{_P}.engine:build_ansatz",)),
    Site("circuits.build_qaoa_ansatz", (f"{_P}.bench:build_qaoa_ansatz",)),
    Site("circuits.decompose", (f"{_P}.engine:decompose", f"{_P}.bench:decompose")),
    Site("circuits.depth", (f"{_P}.engine:depth", f"{_P}.bench:depth")),
    Site("circuits.gate_counts", (f"{_P}.engine:gate_counts",)),
    Site("encoding.energy_table", (f"{_P}.engine:energy_table",)),
    Site("simulator.simulate", (f"{_P}.engine:simulate",), _simulate),
    Site("simulator.sample", (f"{_P}.engine:sample",), _sample),
]

# Per-size metrics cover the gated workloads' sizes.
_GATED = [WORKLOADS[name] for name in GATED]
_SIM_SIZES = sorted({n for w in _GATED if w.variational for n in w.sizes})
_ALL_SIZES = sorted({n for w in _GATED for n in w.sizes})
PER_SIZE = {
    "simulator.simulate": _SIM_SIZES,
    "simulator.sample": _SIM_SIZES,
    "graphs.brute_force_optimum": _ALL_SIZES,
}
HIGHER_IS_BETTER = {"optimize.converged_frac", "optimize.improving_frac"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name, in report order, with its unit."""
    units: dict[str, str] = {}
    for name in [ROOT] + [site.name for site in SITES]:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name, sizes in PER_SIZE.items():
        for n in sizes:
            units[f"{name}.ms_per_call.n{n}"] = "ms"
    units.update({
        "simulator.gates_applied": "count",
        "simulator.bytes_moved_computed": "B",
        "simulator.sample.distinct_outcomes_per_shot": "1/shot",
        "encoding.energy_table.calls_per_instance": "calls/instance",
        "circuits.depth.calls_per_key": "calls/key",
        "optimize.converged_frac": "ratio",
        "optimize.budget_used_frac": "ratio",
        "optimize.improving_frac": "ratio",
        "trace_overhead_frac": "ratio",
    })
    return units


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(spans: list[Span], workload: Workload, traced_wall: float, untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced run; a span with no calls reports 0."""
    by_name: dict[str, list[tuple[Span, float]]] = defaultdict(list)
    for span, own in zip(spans, self_times(spans)):
        by_name[span.name].append((span, own))
    out: dict[str, float] = {}
    for name in [ROOT] + [site.name for site in SITES]:
        out[f"{name}.calls"] = len(by_name[name])
        out[f"{name}.self_s"] = sum(own for _, own in by_name[name])
    for name, sizes in PER_SIZE.items():
        for n in sizes:
            ms = [1e3 * (s.end - s.start) for s, _ in by_name[name] if s.attrs.get("n") == n]
            out[f"{name}.ms_per_call.n{n}"] = statistics.fmean(ms) if ms else 0.0

    sims = [s.attrs for s, _ in by_name["simulator.simulate"]]
    out["simulator.gates_applied"] = sum(a["gates"] for a in sims)
    # Computed, not measured: each gate reads and writes the whole state.
    out["simulator.bytes_moved_computed"] = sum(a["gates"] * (1 << a["n"]) * 16 * 2 for a in sims)
    draws = [s.attrs for s, _ in by_name["simulator.sample"]]
    out["simulator.sample.distinct_outcomes_per_shot"] = _ratio(
        sum(a["distinct"] for a in draws), sum(a["shots"] for a in draws)
    )
    out["encoding.energy_table.calls_per_instance"] = _ratio(
        len(by_name["encoding.energy_table"]), len(workload.sizes)
    )
    keys = len(workload.sizes) * len(workload.layers) * len(workload.strategies)
    out["circuits.depth.calls_per_key"] = _ratio(len(by_name["circuits.depth"]), keys)
    opts = [s.attrs for s, _ in by_name["optimize.minimize"]]
    out["optimize.converged_frac"] = _ratio(sum(a["converged"] for a in opts), len(opts))
    out["optimize.budget_used_frac"] = _ratio(
        sum(a["evaluations"] for a in opts), sum(a["budget"] for a in opts)
    )
    out["optimize.improving_frac"] = _ratio(
        sum(a["improving"] for a in opts), sum(a["evaluations"] for a in opts)
    )
    out["trace_overhead_frac"] = traced_wall / untraced_wall - 1.0
    return out
