"""Max-Cut QAOA toolkit.

Library layers, bottom to top: problem instances (`graphs`), cost
encodings (`encoding`), circuit IR and compilation (`circuits`),
statevector execution (`simulator`), derivative-free parameter search
(`optimize`), the variational loop (`engine`), and the benchmark
harness (`bench`, `cli`).
"""

from .circuits import (
    Barrier,
    Circuit,
    Gate,
    build_qaoa_ansatz,
    decompose,
    depth,
    export_circuit_text,
    gate_counts,
    parse_circuit_text,
    schedule_rounds,
)
from .encoding import (
    IsingModel,
    Qubo,
    energy_table,
    ising_energy,
    maxcut_to_qubo,
    qubo_energy,
    qubo_to_ising,
)
from .engine import (
    QaoaConfig,
    QaoaResult,
    build_ansatz,
    maxcut_problem,
    objective,
    run_qaoa,
)
from .graphs import (
    CutSolution,
    Graph,
    GraphFormatError,
    brute_force_optimum,
    cut_value,
    exhaustive_optimum,
    generate_random_graph,
    graph_from_pairs,
    load_graph,
    save_graph,
)
from .optimize import NonFiniteObjectiveError, OptimizerConfig, OptResult, minimize
from .simulator import CapacityError, Counts, sample, simulate

__version__ = "0.1.0"

__all__ = [
    "Barrier",
    "CapacityError",
    "Circuit",
    "Counts",
    "CutSolution",
    "Gate",
    "Graph",
    "GraphFormatError",
    "IsingModel",
    "NonFiniteObjectiveError",
    "OptResult",
    "OptimizerConfig",
    "QaoaConfig",
    "QaoaResult",
    "Qubo",
    "brute_force_optimum",
    "build_ansatz",
    "build_qaoa_ansatz",
    "cut_value",
    "decompose",
    "depth",
    "energy_table",
    "exhaustive_optimum",
    "export_circuit_text",
    "gate_counts",
    "generate_random_graph",
    "graph_from_pairs",
    "ising_energy",
    "load_graph",
    "maxcut_problem",
    "maxcut_to_qubo",
    "minimize",
    "objective",
    "parse_circuit_text",
    "qubo_energy",
    "qubo_to_ising",
    "run_qaoa",
    "sample",
    "save_graph",
    "schedule_rounds",
    "simulate",
]
