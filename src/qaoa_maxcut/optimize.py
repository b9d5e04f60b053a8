"""Derivative-free minimization with an exact evaluation budget.

The default backend is a self-contained Nelder-Mead simplex with fixed
coefficients: reflection 1, expansion 2, contraction 0.5, shrink 0.5.
The initial simplex is x0 plus a step of `initial_step` (default 0.1)
along each coordinate. Termination: the evaluation budget is exhausted,
or the simplex collapses (max infinity-norm distance of any vertex from
the best vertex <= `tolerance`), or the objective values across the
simplex are exactly degenerate (spread <= `f_tolerance`, default 0,
which stops immediately on constant objectives).

A COBYLA backend (scipy's linear-approximation trust-region method) is
available behind the same interface via method="cobyla"; its trust
region shrinks from `initial_step` down to `tolerance`.

Both backends run the objective through a counting wrapper, so the
budget is respected exactly, the best point ever evaluated is what gets
returned, every (evaluation, value) pair is kept in `OptResult.trace`,
and a non-finite objective value aborts immediately with the offending
point attached to the exception.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.optimize


class NonFiniteObjectiveError(RuntimeError):
    """Objective returned NaN or infinity; `point` holds the evaluated parameters."""

    def __init__(self, point: np.ndarray, value: float):
        super().__init__(f"objective returned non-finite value {value} at {point.tolist()}")
        self.point = point
        self.value = value


class _BudgetExhausted(Exception):
    """Internal control flow: stop the backend once the budget is spent."""


@dataclass
class OptimizerConfig:
    max_evaluations: int
    tolerance: float = 1e-6
    f_tolerance: float = 0.0
    initial_step: float = 0.1
    method: str = "nelder-mead"


@dataclass
class OptResult:
    best_params: np.ndarray
    best_value: float
    evaluations: int
    converged: bool
    trace: list[tuple[int, float]] = field(default_factory=list, repr=False)


class _CountingObjective:
    def __init__(self, f: Callable[[np.ndarray], float], budget: int):
        self.f = f
        self.budget = budget
        self.evaluations = 0
        self.best_x: np.ndarray | None = None
        self.best_f = np.inf
        self.trace: list[tuple[int, float]] = []

    def __call__(self, x: np.ndarray) -> float:
        if self.evaluations >= self.budget:
            raise _BudgetExhausted
        x = np.asarray(x, dtype=float)
        value = float(self.f(x))
        self.evaluations += 1
        if not np.isfinite(value):
            raise NonFiniteObjectiveError(x.copy(), value)
        self.trace.append((self.evaluations, value))
        if value < self.best_f:
            self.best_f = value
            self.best_x = x.copy()
        return value


def minimize(
    f: Callable[[np.ndarray], float],
    x0: Sequence[float],
    config: OptimizerConfig,
) -> OptResult:
    """Minimize f from x0 under `config`; returns the best point evaluated."""
    x0 = np.asarray(x0, dtype=float)
    dim = x0.size
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    if config.max_evaluations < dim + 2:
        raise ValueError(
            f"budget {config.max_evaluations} below minimum {dim + 2} for dimension {dim}"
        )
    counted = _CountingObjective(f, config.max_evaluations)
    if config.method == "nelder-mead":
        converged = _nelder_mead(counted, x0, config)
    elif config.method == "cobyla":
        converged = _cobyla(counted, x0, config)
    else:
        raise ValueError(f"unknown method {config.method!r}")
    assert counted.best_x is not None
    return OptResult(
        best_params=counted.best_x,
        best_value=counted.best_f,
        evaluations=counted.evaluations,
        converged=converged,
        trace=counted.trace,
    )


def _nelder_mead(f: _CountingObjective, x0: np.ndarray, config: OptimizerConfig) -> bool:
    alpha, chi, rho, sigma = 1.0, 2.0, 0.5, 0.5
    dim = x0.size
    try:
        simplex = [x0.copy()]
        values = [f(x0)]
        for i in range(dim):
            vertex = x0.copy()
            vertex[i] += config.initial_step
            simplex.append(vertex)
            values.append(f(vertex))
        while True:
            order = sorted(range(dim + 1), key=lambda k: values[k])
            simplex = [simplex[k] for k in order]
            values = [values[k] for k in order]
            if _simplex_converged(simplex, values, config):
                return True
            centroid = np.mean(simplex[:-1], axis=0)
            worst = simplex[-1]
            reflected = centroid + alpha * (centroid - worst)
            f_r = f(reflected)
            if f_r < values[0]:
                expanded = centroid + chi * (centroid - worst)
                f_e = f(expanded)
                if f_e < f_r:
                    simplex[-1], values[-1] = expanded, f_e
                else:
                    simplex[-1], values[-1] = reflected, f_r
            elif f_r < values[-2]:
                simplex[-1], values[-1] = reflected, f_r
            else:
                if f_r < values[-1]:  # outside contraction
                    contracted = centroid + rho * (centroid - worst)
                    f_c = f(contracted)
                    accept = f_c <= f_r
                else:  # inside contraction
                    contracted = centroid - rho * (centroid - worst)
                    f_c = f(contracted)
                    accept = f_c < values[-1]
                if accept:
                    simplex[-1], values[-1] = contracted, f_c
                else:  # shrink toward the best vertex
                    for i in range(1, dim + 1):
                        simplex[i] = simplex[0] + sigma * (simplex[i] - simplex[0])
                        values[i] = f(simplex[i])
    except _BudgetExhausted:
        return False


def _simplex_converged(simplex: list[np.ndarray], values: list[float], config: OptimizerConfig) -> bool:
    spread = max(np.max(np.abs(v - simplex[0])) for v in simplex[1:])
    f_spread = values[-1] - values[0]
    return spread <= config.tolerance or f_spread <= config.f_tolerance


def _cobyla(f: _CountingObjective, x0: np.ndarray, config: OptimizerConfig) -> bool:
    try:
        res = scipy.optimize.minimize(
            f,
            x0,
            method="COBYLA",
            options={
                "maxiter": config.max_evaluations,
                "rhobeg": config.initial_step,
                "tol": config.tolerance,
            },
        )
    except _BudgetExhausted:
        return False
    return bool(res.success)
