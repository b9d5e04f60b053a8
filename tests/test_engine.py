import math
from pathlib import Path

import numpy as np
import pytest
from oracles import maxcut_p1_edge_expectation, maxcut_to_qubo, qubo_to_ising, random_state, strided_energy_table

from qaoa_maxcut import engine
from qaoa_maxcut.circuits import build_qaoa_ansatz, decompose, gate_counts
from qaoa_maxcut.encoding import IsingModel, energy_table, ising_energy, maxcut_problem
from qaoa_maxcut.engine import (
    EXACT,
    SAMPLED,
    STREAM_EVAL,
    QaoaConfig,
    QaoaObjective,
    build_ansatz,
)
from qaoa_maxcut.graphs import Graph, cut_value, generate_random_graph, load_graph
from qaoa_maxcut.optimize import min_evaluations
from qaoa_maxcut.seeding import mix64
from qaoa_maxcut.simulator import DEFAULT_MAX_QUBITS, CapacityError, sample, simulate

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


class TestMaxcutProblem:
    @pytest.mark.parametrize("g", [UNIT, WEIGHTED_GRAPH], ids=["unit", "weighted"])
    def test_energies_are_negated_cuts(self, g):
        table = energy_table(maxcut_problem(g))
        cuts = [cut_value(g, [(z >> q) & 1 for q in range(g.num_nodes)]) for z in range(1 << g.num_nodes)]
        np.testing.assert_allclose(table, -np.array(cuts), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("g", [UNIT, WEIGHTED_GRAPH], ids=["unit", "weighted"])
    def test_energies_equal_the_qubo_route(self, g):
        via_qubo = qubo_to_ising(maxcut_to_qubo(g))
        np.testing.assert_allclose(energy_table(maxcut_problem(g)), strided_energy_table(via_qubo), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("p", [1, 3])
    def test_weighted_graph_compiles_one_rz_per_edge_and_layer(self, p):
        model = maxcut_problem(WEIGHTED_GRAPH)
        counts = gate_counts(decompose(build_ansatz(model, [0.3] * p + [0.7] * p)))
        assert counts["RZ"] == WEIGHTED_GRAPH.num_edges * p


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
        got = QaoaObjective(maxcut_problem(g), config)([gamma, beta])
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
        assert QaoaObjective(model, config)(params) == want


class TestObjectivePath:
    @pytest.mark.parametrize("mode", [EXACT, SAMPLED], ids=["exact_expectation", "sampled_expectation"])
    def test_evaluations_build_no_circuit(self, mode, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the objective must not build or simulate a circuit")

        monkeypatch.setattr(engine, "build_ansatz", forbidden)
        monkeypatch.setattr(engine, "simulate", forbidden)
        QaoaObjective(maxcut_problem(UNIT), QaoaConfig(layers=2, objective_mode=mode))([0.4, 1.1, 0.2, 0.7])

    def test_refuses_too_wide_before_the_table(self, monkeypatch):
        def no_table(model):
            raise AssertionError("energy table built before the width check")

        monkeypatch.setattr(engine, "energy_table", no_table)
        with pytest.raises(CapacityError, match=f"{DEFAULT_MAX_QUBITS}-qubit limit"):
            QaoaObjective(IsingModel(DEFAULT_MAX_QUBITS + 1), QaoaConfig(layers=1))

    @pytest.mark.parametrize("params", [[0.1, 0.2], [0.1, 0.2, 0.3], [0.1] * 6])
    def test_rejects_parameter_count_other_than_two_per_layer(self, params):
        with pytest.raises(ValueError, match="parameter"):
            QaoaObjective(maxcut_problem(UNIT), QaoaConfig(layers=2))(params)


class TestBudgetFloor:
    # The optimizer's least budget at p layers is its 2p + 1 simplex points plus one step.
    @pytest.mark.parametrize("p", [1, 3, 5])
    def test_the_least_budget_is_accepted(self, p):
        assert QaoaConfig(layers=p, max_evaluations=min_evaluations(2 * p)).max_evaluations == 2 * p + 2

    @pytest.mark.parametrize("p", [1, 3, 5])
    def test_one_less_is_refused(self, p):
        budget = min_evaluations(2 * p) - 1
        message = f"budget {budget} is below {budget + 1}, the least the optimizer accepts at {p} layers"
        with pytest.raises(ValueError, match=f"^{message}$"):
            QaoaConfig(layers=p, max_evaluations=budget)


class TestBuildAnsatz:
    def test_splits_gammas_then_betas(self):
        model = maxcut_problem(UNIT)
        params = [0.1, 0.2, 0.3, 1.0, 2.0, 3.0]
        want = build_qaoa_ansatz(model, [0.1, 0.2, 0.3], [1.0, 2.0, 3.0], "scheduled")
        assert build_ansatz(model, params, "scheduled") == want

    @pytest.mark.parametrize("params", [[], [0.1, 0.2, 0.3]])
    def test_rejects_bad_lengths(self, params):
        with pytest.raises(ValueError):
            build_ansatz(maxcut_problem(UNIT), params)
