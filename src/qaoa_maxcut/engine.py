"""The variational run loop tying ansatz, simulator, and optimizer together.

A Max-Cut instance enters as its `graphs.Graph`, and the cost is -cut.
Its half energy table (`encoding.energy_table`: entry k is assignment
2k, the 2^(n-1) assignments with node 0 on side 0) is built once per
objective and is the only cost representation; the objective also
caches the table's levels and per-entry level index
(`encoding.energy_levels`). Each evaluation evolves the half state from
those (`simulator.qaoa_state`: a phase multiply gathered from one
exponential per level, a fused mixer and the mirror step per layer, no
circuit). The cost has no fields, so the state is unchanged when every
spin flips, and each half entry stands for an assignment and its
complement, of equal probability and energy: the exact objective is
twice the probability-weighted sum over the half table, and a sampled
one draws half indices from the half state and scores them against it
directly.
The gate-level ansatz is built once per run, only for the final draw
(`simulator.simulate`), which is over all 2^n basis states; each drawn
index is folded onto the half before scoring, an odd one through its
complement. No circuit is measured here: a record's compiled depth and
gate counts come from `circuits.compiled_metrics`, where the compile
model lives.
`QaoaConfig` alone names, defaults and judges a run's parameters, the
budget floor included, under the names the `bench` flags take; `bench`
forwards them, re-raises its refusals and checks none of them itself.
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

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circuits import STRATEGIES, Circuit, build_qaoa_ansatz
# Unused here, but perfbench/layers.py wraps engine:decompose, depth and gate_counts.
from .circuits import decompose, depth, gate_counts
from .encoding import energy_levels, energy_table
from .graphs import Graph
from .optimize import OptimizerConfig, min_evaluations, minimize
from .seeding import mix64
from .simulator import Counts, check_width, probabilities, qaoa_state, sample, simulate

STREAM_INIT = 0x01
STREAM_EVAL = 0x02
STREAM_FINAL = 0x03

EXACT = "exact"
SAMPLED = "sampled"
MODES = (EXACT, SAMPLED)


@dataclass
class QaoaConfig:
    layers: int
    shots: int = 10_000
    budget: int = 5_000
    mode: str = SAMPLED
    seed: int = 0
    strategy: str = "scheduled"

    def __post_init__(self):
        if self.layers < 1:
            raise ValueError(f"layers must be >= 1, got {self.layers}")
        if self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")
        if self.mode not in MODES:
            raise ValueError(f"unknown objective mode {self.mode!r}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        need = min_evaluations(2 * self.layers)
        if self.budget < need:
            raise ValueError(
                f"budget {self.budget} is below {need}, the least the optimizer accepts at {self.layers} layers"
            )


@dataclass
class QaoaResult:
    best_params: np.ndarray
    expected_cost: float
    ar_expectation: float
    ar_best: float
    evaluations: int


def split_params(params: Sequence[float]) -> tuple[list[float], list[float]]:
    """(gammas, betas) of a parameter vector ordered gammas then betas."""
    params = np.asarray(params, dtype=float)
    if params.size % 2:
        raise ValueError(f"parameter vector must have even length, got {params.size}")
    p = params.size // 2
    return params[:p].tolist(), params[p:].tolist()


def build_ansatz(g: Graph, params: Sequence[float], strategy: str) -> Circuit:
    """Assemble the circuit for one parameter vector (gammas then betas)."""
    gammas, betas = split_params(params)
    return build_qaoa_ansatz(g, gammas, betas, strategy)


class QaoaObjective:
    """Counted, seeded objective: params -> estimated cost.

    The objective mode is EXACT ("exact") or SAMPLED ("sampled"), the
    names `bench --mode` takes.
    exact: probability-weighted mean of the energy table, over the half
    state and half table, doubled.
    sampled: counts-weighted mean of the energy table over a fresh
    `shots`-shot draw from the half state whose seed is
    mix64(seed, STREAM_EVAL, k) at evaluation k.

    The half table and its `energy_levels` are built once, at
    construction; the levels drive the state evolution and the table the
    scoring.
    """

    def __init__(self, g: Graph, config: QaoaConfig):
        check_width(g.num_nodes)
        self.graph = g
        self.config = config
        self.evaluations = 0
        self._table = energy_table(g)
        self._levels, self._index = energy_levels(self._table)

    def __call__(self, params: Sequence[float]) -> float:
        gammas, betas = split_params(params)
        if len(gammas) != self.config.layers:
            raise ValueError(f"expected {2 * self.config.layers} parameters, got {2 * len(gammas)}")
        self.evaluations += 1
        half = qaoa_state(self._levels, self._index, gammas, betas)
        if self.config.mode == EXACT:
            return float(2.0 * (probabilities(half) @ self._table))
        seed = mix64(self.config.seed, STREAM_EVAL, self.evaluations)
        return self.mean_cost(sample(half, self.config.shots, seed))

    def mean_cost(self, counts: Counts) -> float:
        return float(counts.counts @ self._costs(counts)) / counts.total

    def min_cost(self, counts: Counts) -> float:
        return float(self._costs(counts).min())

    def _costs(self, counts: Counts) -> np.ndarray:
        """Table entry of each sampled index, in the histogram's order.

        A draw from the half state is keyed by half indices already. A
        draw from the full state (n qubits) is folded onto them: an odd
        index x has the energy of its complement x ^ (2^n - 1), which is
        even, and even assignment 2k is half index k.
        """
        n, x = self.graph.num_nodes, counts.indices
        if counts.num_qubits == n:
            x = np.where(x & 1, x ^ ((1 << n) - 1), x) >> 1
        elif counts.num_qubits != n - 1:
            raise ValueError(f"a {counts.num_qubits}-qubit histogram does not fit a {n}-node graph")
        return self._table[x]


def run_qaoa(g: Graph, config: QaoaConfig, optimum: float) -> QaoaResult:
    """Full variational loop: random init, minimize, sample, and score.

    `optimum` is the exact maximum cut (must be positive); approximation
    ratios are cut values over `optimum`, with cut = -cost.
    """
    if optimum <= 0:
        raise ValueError(f"optimum must be positive, got {optimum}")
    p = config.layers
    rng = np.random.default_rng(mix64(config.seed, STREAM_INIT))
    x0 = rng.uniform(0.0, np.pi, size=2 * p)

    obj = QaoaObjective(g, config)
    opt = minimize(obj, x0, OptimizerConfig(max_evaluations=config.budget))

    state = simulate(build_ansatz(g, opt.best_params, config.strategy))
    final_counts = sample(state, config.shots, mix64(config.seed, STREAM_FINAL))
    expected_cost = obj.mean_cost(final_counts)
    return QaoaResult(
        best_params=opt.best_params,
        expected_cost=expected_cost,
        ar_expectation=-expected_cost / optimum,
        ar_best=-obj.min_cost(final_counts) / optimum,
        evaluations=opt.evaluations,
    )
