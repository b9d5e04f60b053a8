"""Max-Cut QAOA toolkit.

Library layers, bottom to top: the cost -cut of a graph on every
assignment (`encoding`), problem instances and their exact optimum
(`graphs`), circuit IR and compilation (`circuits`),
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
    gate_counts,
    schedule_rounds,
)
from .encoding import energy_table
from .engine import (
    QaoaConfig,
    QaoaResult,
    build_ansatz,
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
from .simulator import CapacityError, Counts, qaoa_state, sample, simulate

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
    "NonFiniteObjectiveError",
    "OptResult",
    "OptimizerConfig",
    "QaoaConfig",
    "QaoaResult",
    "brute_force_optimum",
    "build_ansatz",
    "build_qaoa_ansatz",
    "cut_value",
    "decompose",
    "depth",
    "energy_table",
    "exhaustive_optimum",
    "gate_counts",
    "generate_random_graph",
    "graph_from_pairs",
    "load_graph",
    "minimize",
    "qaoa_state",
    "run_qaoa",
    "sample",
    "save_graph",
    "schedule_rounds",
    "simulate",
]
