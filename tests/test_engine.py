import math
from pathlib import Path

import numpy as np
import pytest
from oracles import maxcut_p1_edge_expectation, random_state

from qaoa_maxcut.circuits import build_qaoa_ansatz
from qaoa_maxcut.encoding import ising_energy
from qaoa_maxcut.engine import (
    EXACT,
    SAMPLED,
    STREAM_EVAL,
    QaoaConfig,
    QaoaObjective,
    build_ansatz,
    maxcut_problem,
    objective,
)
from qaoa_maxcut.graphs import Graph, generate_random_graph, load_graph
from qaoa_maxcut.seeding import mix64
from qaoa_maxcut.simulator import sample, simulate

UNIT = generate_random_graph(8, 0.5, seed=5)
WEIGHTED_GRAPH = load_graph(Path(__file__).resolve().parent / "golden" / "W_9.txt")


def loop_mean_cost(model, counts):
    """Reference scorer: re-derive each sampled index's bits and energy."""
    total = 0.0
    for z, c in zip(counts.indices.tolist(), counts.counts.tolist()):
        total += c * ising_energy(model, [(z >> q) & 1 for q in range(model.n)])
    return total / counts.total


def loop_min_cost(model, counts):
    return min(ising_energy(model, [(z >> q) & 1 for q in range(model.n)]) for z in counts.indices.tolist())


class TestClosedFormP1:
    @pytest.mark.parametrize("case", range(40))
    def test_exact_objective_matches_edge_formula(self, case):
        rng = np.random.default_rng(case)
        n = int(rng.integers(3, 9))
        g = generate_random_graph(n, float(rng.uniform(0.3, 1.0)), seed=case)
        if g.num_edges == 0:
            g = Graph(n, ((0, 1, 1.0),))
        gamma, beta = rng.uniform(-math.pi, math.pi, size=2)
        config = QaoaConfig(layers=1, objective_mode=EXACT)
        got = objective(maxcut_problem(g), config, [gamma, beta])
        # The cost here is -cut, so exp(-i gamma cost) is the paper's
        # exp(-i gamma' C) with gamma' = -gamma; the mixer angles agree.
        want = -sum(maxcut_p1_edge_expectation(g, u, v, -gamma, beta) for u, v, _ in g.edges)
        assert got == pytest.approx(want, rel=0, abs=1e-12)


class TestScoring:
    @pytest.mark.parametrize("seed", range(3))
    def test_unit_weight_scores_equal_reference_loop(self, seed):
        model = maxcut_problem(UNIT)
        obj = QaoaObjective(model, QaoaConfig(layers=1))
        counts = sample(random_state(model.n, seed), 10_000, seed)
        assert obj.mean_cost(counts) == loop_mean_cost(model, counts)
        assert obj.min_cost(counts) == loop_min_cost(model, counts)

    @pytest.mark.parametrize("seed", range(3))
    def test_weighted_scores_match_reference_loop(self, seed):
        model = maxcut_problem(WEIGHTED_GRAPH)
        obj = QaoaObjective(model, QaoaConfig(layers=1))
        counts = sample(random_state(model.n, seed), 10_000, seed)
        assert obj.mean_cost(counts) == pytest.approx(loop_mean_cost(model, counts), rel=1e-12, abs=0)
        assert obj.min_cost(counts) == pytest.approx(loop_min_cost(model, counts), rel=1e-12, abs=0)

    def test_sampled_objective_draws_with_the_evaluation_seed(self):
        model = maxcut_problem(UNIT)
        params = [0.4, 1.1, 0.2, 0.7]
        config = QaoaConfig(layers=2, shots=2000, objective_mode=SAMPLED, seed=9)
        state = simulate(build_ansatz(model, params))
        want = loop_mean_cost(model, sample(state, 2000, mix64(9, STREAM_EVAL, 1)))
        assert objective(model, config, params) == want


class TestBuildAnsatz:
    def test_splits_gammas_then_betas(self):
        model = maxcut_problem(UNIT)
        params = [0.1, 0.2, 0.3, 1.0, 2.0, 3.0]
        want = build_qaoa_ansatz(model, 3, [0.1, 0.2, 0.3], [1.0, 2.0, 3.0], "scheduled")
        assert build_ansatz(model, params, "scheduled") == want

    @pytest.mark.parametrize("params", [[], [0.1, 0.2, 0.3]])
    def test_rejects_bad_lengths(self, params):
        with pytest.raises(ValueError):
            build_ansatz(maxcut_problem(UNIT), params)
