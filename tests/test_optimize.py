"""The Nelder-Mead optimizer: exact evaluation-budget accounting, and
convergence to minimizers known in closed form."""

import numpy as np
import pytest

from qaoa_maxcut.optimize import NonFiniteObjectiveError, OptimizerConfig, minimize


class Recorded:
    """Objective wrapper that keeps every point it was called at and every
    value it returned, in call order."""

    def __init__(self, f):
        self.f = f
        self.points: list[np.ndarray] = []
        self.values: list[float] = []

    def __call__(self, x):
        value = self.f(x)
        self.points.append(np.array(x, dtype=float))
        self.values.append(value)
        return value


def bowl(x):
    return float(np.sum((x - 0.3) ** 2))


def downhill(x):
    # Unbounded below and linear, so the simplex never converges.
    return -float(np.sum(x))


@pytest.mark.parametrize("budget", [4, 9, 500])
def test_calls_equal_evaluations_and_trace(budget):
    f = Recorded(bowl)
    result = minimize(f, [0.0, 0.0], OptimizerConfig(max_evaluations=budget))
    assert len(f.values) == result.evaluations <= budget
    assert result.trace == list(enumerate(f.values, start=1))
    assert result.best_value == min(f.values)


@pytest.mark.parametrize("budget", [5, 37, 200])
def test_never_converging_run_stops_at_the_budget(budget):
    f = Recorded(downhill)
    result = minimize(f, [0.0, 0.0, 0.0], OptimizerConfig(max_evaluations=budget))
    assert result.evaluations == len(f.values) == len(result.trace) == budget
    assert not result.converged


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_budget_below_dim_plus_two_is_refused(dim):
    f = Recorded(bowl)
    with pytest.raises(ValueError, match="below minimum"):
        minimize(f, [0.0] * dim, OptimizerConfig(max_evaluations=dim + 1))
    assert f.values == []


def test_convex_quadratic_converges_to_its_minimizer():
    minimizer = np.array([0.3, -0.7, 1.1])
    hessian = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 3.0]])  # positive definite

    def quadratic(x):
        d = x - minimizer
        return float(d @ hessian @ d)

    result = minimize(quadratic, [0.0, 0.0, 0.0], OptimizerConfig(max_evaluations=2000))
    assert result.converged
    assert np.max(np.abs(result.best_params - minimizer)) <= 1e-5


def test_rosenbrock_converges_to_its_minimizer():
    def rosenbrock(x):
        return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)

    result = minimize(rosenbrock, [-1.2, 1.0], OptimizerConfig(max_evaluations=5000))
    assert result.converged
    assert np.max(np.abs(result.best_params - 1.0)) <= 1e-5


@pytest.mark.parametrize("dim", [1, 2, 5])
def test_constant_objective_stops_after_the_initial_simplex(dim):
    f = Recorded(lambda x: 4.0)
    result = minimize(f, [0.0] * dim, OptimizerConfig(max_evaluations=100))
    assert result.converged
    assert result.evaluations == len(f.values) == dim + 1


def test_nan_on_the_third_call_raises_with_that_point():
    def nan_on_third_call(x):
        return float("nan") if len(f.values) == 2 else bowl(x)

    f = Recorded(nan_on_third_call)
    with pytest.raises(NonFiniteObjectiveError) as exc:
        minimize(f, [0.0, 0.0], OptimizerConfig(max_evaluations=100))
    assert len(f.points) == 3
    np.testing.assert_array_equal(exc.value.point, f.points[2])
    assert np.isnan(exc.value.value)
