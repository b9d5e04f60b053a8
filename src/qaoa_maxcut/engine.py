"""The variational run loop tying ansatz, simulator, and optimizer together.

A Max-Cut instance enters as the Ising model of -cut (`maxcut_problem`).
Its energy table (`encoding.energy_table`, one entry per basis state)
is built once per objective and is the only cost representation: the
exact objective is the probability-weighted sum over the table, and a
sampled one scores the shot histogram's basis-state indices against it.
The cost convention is minimization throughout: for Max-Cut,
cost(z) = -cut(z), and the reported approximation ratios re-invert the
sign.

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

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .circuits import Circuit, build_qaoa_ansatz, decompose, depth, gate_counts
from .encoding import IsingModel, energy_table, maxcut_to_qubo, qubo_to_ising
from .graphs import Graph
from .optimize import OptimizerConfig, minimize
from .seeding import mix64
from .simulator import Counts, probabilities, sample, simulate

STREAM_INIT = 0x01
STREAM_EVAL = 0x02
STREAM_FINAL = 0x03

EXACT = "exact_expectation"
SAMPLED = "sampled_expectation"


def maxcut_problem(g: Graph) -> IsingModel:
    """Standard Max-Cut problem: the Ising form of -cut, to be minimized."""
    return qubo_to_ising(maxcut_to_qubo(g))

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


def build_ansatz(model: IsingModel, params: Sequence[float], strategy: str = "naive") -> Circuit:
    """Assemble the circuit for one parameter vector (gammas then betas)."""
    params = np.asarray(params, dtype=float)
    if params.size % 2:
        raise ValueError(f"parameter vector must have even length, got {params.size}")
    p = params.size // 2
    return build_qaoa_ansatz(model, p, params[:p].tolist(), params[p:].tolist(), strategy)


class QaoaObjective:
    """Counted, seeded objective: params -> estimated cost.

    exact_expectation: probability-weighted mean of the energy table.
    sampled_expectation: counts-weighted mean of the energy table over
    a fresh `shots`-shot draw whose seed is mix64(seed, STREAM_EVAL, k)
    at evaluation k.
    """

    def __init__(self, model: IsingModel, config: QaoaConfig):
        self.model = model
        self.config = config
        self.evaluations = 0
        self._table = energy_table(model)

    def __call__(self, params: Sequence[float]) -> float:
        self.evaluations += 1
        state = simulate(build_ansatz(self.model, params, self.config.strategy))
        if self.config.objective_mode == EXACT:
            return float(probabilities(state) @ self._table)
        seed = mix64(self.config.seed, STREAM_EVAL, self.evaluations)
        return self.mean_cost(sample(state, self.config.shots, seed))

    def mean_cost(self, counts: Counts) -> float:
        return float(counts.counts @ self._table[counts.indices]) / counts.total

    def min_cost(self, counts: Counts) -> float:
        return float(self._table[counts.indices].min())


def objective(model: IsingModel, config: QaoaConfig, params: Sequence[float]) -> float:
    """One-shot objective evaluation (evaluation counter starts at 1)."""
    params = np.asarray(params, dtype=float)
    if params.size != 2 * config.layers:
        raise ValueError(f"expected {2 * config.layers} parameters, got {params.size}")
    return QaoaObjective(model, config)(params)


def run_qaoa(model: IsingModel, config: QaoaConfig, optimum: float) -> QaoaResult:
    """Full variational loop: random init, minimize, sample, and score.

    `optimum` is the exact maximum cut (must be positive); approximation
    ratios are cut values over `optimum`, with cut = -cost.
    """
    if optimum <= 0:
        raise ValueError(f"optimum must be positive, got {optimum}")
    p = config.layers
    rng = np.random.default_rng(mix64(config.seed, STREAM_INIT))
    x0 = rng.uniform(0.0, np.pi, size=2 * p)

    obj = QaoaObjective(model, config)
    opt = minimize(obj, x0, OptimizerConfig(max_evaluations=config.max_evaluations))

    final_circuit = build_ansatz(model, opt.best_params, config.strategy)
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
