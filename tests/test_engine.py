import math
from pathlib import Path

import numpy as np
import pytest
from oracles import p1_expected_cut, random_state, strided_cut_table

from qaoa_maxcut import engine
from qaoa_maxcut.circuits import build_qaoa_ansatz, decompose, gate_counts
from qaoa_maxcut.encoding import energy_levels, energy_table
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
from qaoa_maxcut.simulator import DEFAULT_MAX_QUBITS, CapacityError, Counts, probabilities, qaoa_state, sample, simulate

UNIT = generate_random_graph(8, 0.5, seed=5)
WEIGHTED_GRAPH = load_graph(Path(__file__).resolve().parent / "golden" / "W_9.txt")


def loop_mean_cost(g, counts):
    """Reference scorer: re-derive each sampled index's bits and score
    them with -cut_value."""
    total = 0.0
    for z, c in zip(counts.indices.tolist(), counts.counts.tolist()):
        total += c * -cut_value(g, [(z >> q) & 1 for q in range(g.num_nodes)])
    return total / counts.total


def loop_min_cost(g, counts):
    return min(-cut_value(g, [(z >> q) & 1 for q in range(g.num_nodes)]) for z in counts.indices.tolist())


def random_unit_graph(n: int, seed: int) -> Graph:
    g = generate_random_graph(n, 0.6, seed=seed)
    return g if g.num_edges else Graph(n, ((0, n - 1, 1.0),))


class TestMaxcutCost:
    @pytest.mark.parametrize("g", [UNIT, WEIGHTED_GRAPH], ids=["unit", "weighted"])
    def test_energies_are_negated_cuts(self, g):
        # The table holds the assignments with node 0 on side 0.
        table = energy_table(g)
        cuts = [cut_value(g, [(z >> q) & 1 for q in range(g.num_nodes)]) for z in range(0, 1 << g.num_nodes, 2)]
        np.testing.assert_array_equal(table, -np.array(cuts))

    @pytest.mark.parametrize("p", [1, 3])
    def test_weighted_graph_compiles_one_rz_per_edge_and_layer(self, p):
        counts = gate_counts(decompose(build_ansatz(WEIGHTED_GRAPH, [0.3] * p + [0.7] * p, "scheduled")))
        assert counts["RZ"] == WEIGHTED_GRAPH.num_edges * p


class TestClosedFormP1:
    @pytest.mark.parametrize("case", range(40))
    def test_exact_objective_matches_closed_form_on_random_densities(self, case):
        rng = np.random.default_rng(case)
        n = int(rng.integers(3, 9))
        g = generate_random_graph(n, float(rng.uniform(0.3, 1.0)), seed=case)
        if g.num_edges == 0:
            g = Graph(n, ((0, 1, 1.0),))
        gamma, beta = rng.uniform(-math.pi, math.pi, size=2)
        config = QaoaConfig(layers=1, mode=EXACT)
        got = QaoaObjective(g, config)([gamma, beta])
        want = -float(p1_expected_cut(g, gamma, beta).sum())
        assert got == pytest.approx(want, rel=0, abs=1e-12)

    @pytest.mark.parametrize("n", [*range(2, 17), 20])
    def test_exact_objective_matches_closed_form_on_seeded_graphs(self, n):
        # n = 20 is MC_20 as `generate` writes it, where a gate-level
        # reference would be too slow.
        g = generate_random_graph(n, 0.5, mix64(11, n)) if n == 20 else random_unit_graph(n, 300 + n)
        obj = QaoaObjective(g, QaoaConfig(layers=1, mode=EXACT))
        for gamma, beta in np.random.default_rng(200 + n).uniform(-math.pi, math.pi, size=(3, 2)):
            want = -float(p1_expected_cut(g, gamma, beta).sum())
            assert obj([gamma, beta]) == pytest.approx(want, rel=1e-12, abs=0)


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov D: the largest gap between the two
    empirical distribution functions."""
    grid = np.union1d(a, b)
    fa = np.searchsorted(np.sort(a), grid, side="right") / a.size
    fb = np.searchsorted(np.sort(b), grid, side="right") / b.size
    return float(np.abs(fa - fb).max())


class TestHalfState:
    """The objective evolves, scores and samples half the state; each
    check compares it with the full 2^n-amplitude state of the gate-level
    reference and the full energy table of the strided oracle."""

    @pytest.mark.parametrize("n", range(2, 17))
    def test_exact_objective_equals_the_full_state_oracle(self, n):
        rng = np.random.default_rng(500 + n)
        g = random_unit_graph(n, 600 + n)
        obj = QaoaObjective(g, QaoaConfig(layers=2, mode=EXACT))
        params = rng.uniform(-math.pi, math.pi, size=4)
        gammas, betas = params[:2].tolist(), params[2:].tolist()
        full = probabilities(simulate(build_qaoa_ansatz(g, gammas, betas, "naive")))
        want = float(full @ strided_cut_table(g))
        assert obj(params) == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_half_probabilities_fold_the_full_ones(self, n):
        # Half index k stands for assignment 2k and its complement.
        rng = np.random.default_rng(700 + n)
        g = random_unit_graph(n, 800 + n) if n > 1 else Graph(1, ())
        gammas, betas = rng.uniform(-math.pi, math.pi, size=(2, 3)).tolist()
        half = probabilities(qaoa_state(*energy_levels(energy_table(g)), gammas, betas))
        full = probabilities(simulate(build_qaoa_ansatz(g, gammas, betas, "naive")))
        even = np.arange(0, 1 << n, 2)
        np.testing.assert_allclose(2 * half, full[even] + full[even ^ ((1 << n) - 1)], rtol=0, atol=1e-12)

    def test_sampled_objective_matches_full_state_draws_in_distribution(self):
        # 200 evaluations of the sampled objective at fixed parameters
        # against 200 draws of the full gate-level state under other
        # seeds, scored by the full oracle table. Two-sample
        # Kolmogorov-Smirnov at alpha = 0.001: D must stay below
        # sqrt(-ln(alpha / 2) / 2) * sqrt(2 / 200) = 0.195.
        evaluations, shots = 200, 1000
        g = random_unit_graph(10, 17)
        params = [0.45, -0.8, 1.1, 0.35]
        obj = QaoaObjective(g, QaoaConfig(layers=2, shots=shots, mode=SAMPLED, seed=5))
        half = np.array([obj(params) for _ in range(evaluations)])
        table = strided_cut_table(g)
        state = simulate(build_ansatz(g, params, "naive"))
        full = []
        for k in range(evaluations):
            counts = sample(state, shots, mix64(6, STREAM_EVAL, k + 1))
            full.append(float(counts.counts @ table[counts.indices]) / shots)
        critical = math.sqrt(-math.log(0.001 / 2) / 2) * math.sqrt(2 / evaluations)
        assert ks_statistic(half, np.array(full)) < critical


class TestScoring:
    @pytest.mark.parametrize("seed", range(3))
    def test_unit_weight_scores_equal_reference_loop(self, seed):
        obj = QaoaObjective(UNIT, QaoaConfig(layers=1))
        counts = sample(random_state(UNIT.num_nodes, seed), 10_000, seed)
        assert obj.mean_cost(counts) == loop_mean_cost(UNIT, counts)
        assert obj.min_cost(counts) == loop_min_cost(UNIT, counts)

    @pytest.mark.parametrize("seed", range(3))
    def test_weighted_scores_match_reference_loop(self, seed):
        obj = QaoaObjective(WEIGHTED_GRAPH, QaoaConfig(layers=1))
        counts = sample(random_state(WEIGHTED_GRAPH.num_nodes, seed), 10_000, seed)
        assert obj.mean_cost(counts) == loop_mean_cost(WEIGHTED_GRAPH, counts)
        assert obj.min_cost(counts) == loop_min_cost(WEIGHTED_GRAPH, counts)

    def test_refuses_a_histogram_of_another_width(self):
        obj = QaoaObjective(UNIT, QaoaConfig(layers=1))
        counts = Counts(np.array([0]), np.array([1]), 1, UNIT.num_nodes - 2)
        with pytest.raises(ValueError, match="6-qubit histogram does not fit a 8-node graph"):
            obj.mean_cost(counts)

    def test_sampled_objective_draws_with_the_evaluation_seed(self):
        params = [0.4, 1.1, 0.2, 0.7]
        config = QaoaConfig(layers=2, shots=2000, mode=SAMPLED, seed=9)
        # The objective draws from the half state, the gate-level state's
        # even entries; half index k is assignment 2k.
        half = sample(simulate(build_ansatz(UNIT, params, "scheduled"))[::2], 2000, mix64(9, STREAM_EVAL, 1))
        want = loop_mean_cost(UNIT, Counts(2 * half.indices, half.counts, half.total, UNIT.num_nodes))
        assert QaoaObjective(UNIT, config)(params) == want


class TestObjectivePath:
    @pytest.mark.parametrize("mode", [EXACT, SAMPLED], ids=["exact_expectation", "sampled_expectation"])
    def test_evaluations_build_no_circuit(self, mode, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the objective must not build or simulate a circuit")

        monkeypatch.setattr(engine, "build_ansatz", forbidden)
        monkeypatch.setattr(engine, "simulate", forbidden)
        QaoaObjective(UNIT, QaoaConfig(layers=2, mode=mode))([0.4, 1.1, 0.2, 0.7])

    def test_refuses_too_wide_before_the_table(self, monkeypatch):
        def no_table(g):
            raise AssertionError("energy table built before the width check")

        monkeypatch.setattr(engine, "energy_table", no_table)
        with pytest.raises(CapacityError, match=f"{DEFAULT_MAX_QUBITS}-qubit limit"):
            QaoaObjective(Graph(DEFAULT_MAX_QUBITS + 1), QaoaConfig(layers=1))

    @pytest.mark.parametrize("params", [[0.1, 0.2], [0.1, 0.2, 0.3], [0.1] * 6])
    def test_rejects_parameter_count_other_than_two_per_layer(self, params):
        with pytest.raises(ValueError, match="parameter"):
            QaoaObjective(UNIT, QaoaConfig(layers=2))(params)


class TestBudgetFloor:
    # The optimizer's least budget at p layers is its 2p + 1 simplex points plus one step.
    @pytest.mark.parametrize("p", [1, 3, 5])
    def test_the_least_budget_is_accepted(self, p):
        assert QaoaConfig(layers=p, budget=min_evaluations(2 * p)).budget == 2 * p + 2

    @pytest.mark.parametrize("p", [1, 3, 5])
    def test_one_less_is_refused(self, p):
        budget = min_evaluations(2 * p) - 1
        message = f"budget {budget} is below {budget + 1}, the least the optimizer accepts at {p} layers"
        with pytest.raises(ValueError, match=f"^{message}$"):
            QaoaConfig(layers=p, budget=budget)


class TestBuildAnsatz:
    def test_splits_gammas_then_betas(self):
        params = [0.1, 0.2, 0.3, 1.0, 2.0, 3.0]
        want = build_qaoa_ansatz(UNIT, [0.1, 0.2, 0.3], [1.0, 2.0, 3.0], "scheduled")
        assert build_ansatz(UNIT, params, "scheduled") == want

    @pytest.mark.parametrize("params", [[], [0.1, 0.2, 0.3]])
    def test_rejects_bad_lengths(self, params):
        with pytest.raises(ValueError):
            build_ansatz(UNIT, params, "scheduled")
