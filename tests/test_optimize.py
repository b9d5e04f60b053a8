"""Exact evaluation-budget accounting of both optimizer backends."""

import numpy as np
import pytest

from qaoa_maxcut.optimize import OptimizerConfig, minimize

METHODS = ["nelder-mead", "cobyla"]


class Recorded:
    """Objective wrapper that keeps every value it returned, in call order."""

    def __init__(self, f):
        self.f = f
        self.values: list[float] = []

    def __call__(self, x):
        value = self.f(x)
        self.values.append(value)
        return value


def bowl(x):
    return float(np.sum((x - 0.3) ** 2))


def downhill(x):
    # Unbounded below and linear, so neither backend ever converges.
    return -float(np.sum(x))


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("budget", [4, 9, 500])
def test_calls_equal_evaluations_and_trace(method, budget):
    f = Recorded(bowl)
    result = minimize(f, [0.0, 0.0], OptimizerConfig(max_evaluations=budget, method=method))
    assert len(f.values) == result.evaluations <= budget
    assert result.trace == list(enumerate(f.values, start=1))
    assert result.best_value == min(f.values)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("budget", [5, 37, 200])
def test_never_converging_run_stops_at_the_budget(method, budget):
    f = Recorded(downhill)
    result = minimize(f, [0.0, 0.0, 0.0], OptimizerConfig(max_evaluations=budget, method=method))
    assert result.evaluations == len(f.values) == len(result.trace) == budget
    assert not result.converged


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_budget_below_dim_plus_two_is_refused(method, dim):
    f = Recorded(bowl)
    with pytest.raises(ValueError, match="below minimum"):
        minimize(f, [0.0] * dim, OptimizerConfig(max_evaluations=dim + 1, method=method))
    assert f.values == []
