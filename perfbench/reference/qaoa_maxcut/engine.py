"""The variational run loop tying ansatz, simulator, and optimizer together.

A `QaoaProblem` bundles the four pluggable pieces: an initial-state
builder, a phase-separator builder, a mixer builder, and the classical
cost used to score sampled assignments. The defaults reproduce the
standard Max-Cut setup (uniform superposition, Ising phase separator,
transverse-field mixer, Ising energy). The cost convention is
minimization throughout: for Max-Cut, cost(z) = -cut(z), and the
reported approximation ratios re-invert the sign.

Parameter vectors are ordered all gammas first, then all betas:
params = (gamma_1..gamma_p, beta_1..beta_p).

Seeding: all stochastic pieces of one run derive from config.seed via
mix64 (see `seeding`): initial parameters use mix64(seed, STREAM_INIT),
the sampled objective at evaluation k uses mix64(seed, STREAM_EVAL, k)
with k counting from 1, and the final report draw uses
mix64(seed, STREAM_FINAL). The optimizer therefore sees a deterministic
(if noisy) objective and whole runs replay bit-identically.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .circuits import (
    Barrier,
    Circuit,
    Gate,
    decompose,
    depth,
    gate_counts,
    initial_state_gates,
    mixer_gates,
    phase_separator_gates,
)
from .encoding import IsingModel, energy_table, ising_energy, maxcut_to_qubo, qubo_to_ising
from .graphs import Graph
from .optimize import OptimizerConfig, minimize
from .seeding import mix64
from .simulator import Counts, bitstring_to_index, expectation_diagonal, sample, simulate

STREAM_INIT = 0x01
STREAM_EVAL = 0x02
STREAM_FINAL = 0x03

EXACT = "exact_expectation"
SAMPLED = "sampled_expectation"


@dataclass
class QaoaProblem:
    """Cost model plus the circuit builders that define one QAOA family."""

    ising: IsingModel
    initial_state: Callable[[int], list[Gate]] = initial_state_gates
    phase_separator: Callable[[IsingModel, float, str], list[Gate]] = phase_separator_gates
    mixer: Callable[[int, float], list[Gate]] = mixer_gates
    classical_cost: Callable[[Sequence[int]], float] | None = None

    def __post_init__(self):
        if self.classical_cost is None:
            self.classical_cost = functools.partial(ising_energy, self.ising)
            self._default_cost = True
        else:
            self._default_cost = False

    @property
    def num_qubits(self) -> int:
        return self.ising.n


def maxcut_problem(g: Graph) -> QaoaProblem:
    """Standard Max-Cut problem: minimize the Ising form of -cut."""
    return QaoaProblem(ising=qubo_to_ising(maxcut_to_qubo(g)))


@dataclass
class QaoaConfig:
    layers: int
    shots: int = 10_000
    max_evaluations: int = 5_000
    objective_mode: str = SAMPLED
    seed: int = 0
    strategy: str = "naive"

    def __post_init__(self):
        if self.layers < 1:
            raise ValueError(f"layers must be >= 1, got {self.layers}")
        if self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")
        if self.objective_mode not in (EXACT, SAMPLED):
            raise ValueError(f"unknown objective mode {self.objective_mode!r}")
        if self.strategy not in ("naive", "scheduled"):
            raise ValueError(f"unknown strategy {self.strategy!r}")


@dataclass
class QaoaResult:
    best_params: np.ndarray
    final_counts: Counts
    expected_cost: float
    best_sampled_cost: float
    ar_expectation: float
    ar_best: float
    evaluations: int
    compiled_depth: int
    gate_counts: dict[str, int] = field(default_factory=dict)


def build_ansatz(problem: QaoaProblem, params: Sequence[float], strategy: str = "naive") -> Circuit:
    """Assemble the circuit for one parameter vector (gammas then betas)."""
    params = np.asarray(params, dtype=float)
    if params.size % 2:
        raise ValueError(f"parameter vector must have even length, got {params.size}")
    p = params.size // 2
    if p < 1:
        raise ValueError("need at least one layer of parameters")
    n = problem.num_qubits
    gates = list(problem.initial_state(n))
    for k in range(p):
        if k > 0:
            gates.append(Barrier())
        gates.extend(problem.phase_separator(problem.ising, float(params[k]), strategy))
        gates.extend(problem.mixer(n, float(params[p + k])))
    return Circuit(n, tuple(gates))


class QaoaObjective:
    """Counted, seeded objective: params -> estimated cost.

    exact_expectation: exact diagonal expectation from the statevector.
    sampled_expectation: counts-weighted mean of the classical cost over
    a fresh `shots`-shot draw whose seed is mix64(seed, STREAM_EVAL, k)
    at evaluation k.
    """

    def __init__(self, problem: QaoaProblem, config: QaoaConfig):
        self.problem = problem
        self.config = config
        self.evaluations = 0
        self._table = energy_table(problem.ising) if problem._default_cost else None
        self._cost_cache: dict[int, float] = {}

    def __call__(self, params: Sequence[float]) -> float:
        self.evaluations += 1
        state = simulate(build_ansatz(self.problem, params, self.config.strategy))
        if self.config.objective_mode == EXACT:
            if self._table is not None:
                return float((np.abs(state) ** 2) @ self._table)
            return expectation_diagonal(state, self.problem.ising)
        seed = mix64(self.config.seed, STREAM_EVAL, self.evaluations)
        counts = sample(state, self.config.shots, seed)
        return self.mean_cost(counts)

    def mean_cost(self, counts: Counts) -> float:
        total = 0.0
        for key, c in counts.counts.items():
            total += c * self._cost_of(key)
        return total / counts.total

    def min_cost(self, counts: Counts) -> float:
        return min(self._cost_of(key) for key in counts.counts)

    def _cost_of(self, key: str) -> float:
        index = bitstring_to_index(key)
        if self._table is not None:
            return float(self._table[index])
        if index not in self._cost_cache:
            bits = tuple(int(ch) for ch in key)
            self._cost_cache[index] = float(self.problem.classical_cost(bits))
        return self._cost_cache[index]


def objective(problem: QaoaProblem, config: QaoaConfig, params: Sequence[float]) -> float:
    """One-shot objective evaluation (evaluation counter starts at 1)."""
    params = np.asarray(params, dtype=float)
    if params.size != 2 * config.layers:
        raise ValueError(f"expected {2 * config.layers} parameters, got {params.size}")
    return QaoaObjective(problem, config)(params)


def run_qaoa(problem: QaoaProblem, config: QaoaConfig, optimum: float) -> QaoaResult:
    """Full variational loop: random init, minimize, sample, and score.

    `optimum` is the exact maximum cut (must be positive); approximation
    ratios are cut values over `optimum`, with cut = -cost.
    """
    if optimum <= 0:
        raise ValueError(f"optimum must be positive, got {optimum}")
    p = config.layers
    rng = np.random.default_rng(mix64(config.seed, STREAM_INIT))
    x0 = rng.uniform(0.0, np.pi, size=2 * p)

    obj = QaoaObjective(problem, config)
    opt = minimize(obj, x0, OptimizerConfig(max_evaluations=config.max_evaluations))

    final_circuit = build_ansatz(problem, opt.best_params, config.strategy)
    state = simulate(final_circuit)
    final_counts = sample(state, config.shots, mix64(config.seed, STREAM_FINAL))
    expected_cost = obj.mean_cost(final_counts)
    best_sampled_cost = obj.min_cost(final_counts)

    compiled = decompose(final_circuit)
    return QaoaResult(
        best_params=opt.best_params,
        final_counts=final_counts,
        expected_cost=expected_cost,
        best_sampled_cost=best_sampled_cost,
        ar_expectation=-expected_cost / optimum,
        ar_best=-best_sampled_cost / optimum,
        evaluations=opt.evaluations,
        compiled_depth=depth(compiled),
        gate_counts=gate_counts(compiled),
    )
