from pathlib import Path

import numpy as np
import pytest
from oracles import circuit_unitary, random_circuit

from qaoa_maxcut.circuits import (
    Barrier,
    build_qaoa_ansatz,
    compiled_metrics,
    decompose,
    depth,
    gate_counts,
    rzz_order,
    schedule_rounds,
)
from qaoa_maxcut.engine import build_ansatz
from qaoa_maxcut.graphs import Graph, generate_random_graph, graph_from_pairs, load_graph
from qaoa_maxcut.seeding import mix64


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", range(5))
def test_decompose_preserves_the_unitary(n, seed):
    c = random_circuit(n, 25, np.random.default_rng(1000 * n + seed))
    compiled = decompose(c)
    assert all(g.kind != "RZZ" for g in compiled.gates)
    np.testing.assert_allclose(circuit_unitary(compiled), circuit_unitary(c), rtol=0, atol=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_schedule_rounds_are_disjoint_and_cover_each_pair_once(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 16))
    pairs = [(u, v) for u, v, _ in generate_random_graph(n, float(rng.uniform(0.2, 1.0)), seed).edges]
    rounds = schedule_rounds(pairs)
    for rnd in rounds:
        qubits = [q for pair in rnd for q in pair]
        assert len(qubits) == len(set(qubits))
    scheduled = [pair for rnd in rounds for pair in rnd]
    assert sorted(scheduled) == sorted(pairs) and len(scheduled) == len(set(scheduled))


@pytest.mark.parametrize("strategy", ["naive", "scheduled"])
def test_phase_separator_is_one_rzz_per_edge(strategy):
    # RZZ(t) = exp(-i t ZZ / 2) and the edge's term of -cut is (w/2) ZZ,
    # so exp(-i gamma (w/2) ZZ) is RZZ(gamma w).
    weighted = Graph(5, ((0, 1, 1.0), (1, 2, 3.0), (2, 4, 4.0), (0, 4, 2.0), (3, 4, 7.0)))
    gammas = [0.3, 0.7]
    for graph in (weighted, generate_random_graph(9, 0.5, seed=6)):
        c = build_qaoa_ansatz(graph, gammas, [0.1, 0.2], strategy)
        layers = [[]]
        for g in c.gates:
            if isinstance(g, Barrier):
                layers.append([])
            elif g.kind == "RZZ":
                layers[-1].append(g)
        assert len(layers) == len(gammas)
        order = rzz_order(graph, strategy)
        if strategy == "naive":
            assert order == list(graph.edges)
        assert sorted(order) == sorted(graph.edges)
        for gamma, rzz in zip(gammas, layers):
            assert [(g.qubits, g.angle) for g in rzz] == [((u, v), gamma * w) for u, v, w in order]


@pytest.mark.parametrize("strategy", ["naive", "scheduled"])
def test_barriers_make_depth_linear_in_layers(strategy):
    g = generate_random_graph(9, 0.5, seed=4)
    depths = [depth(decompose(build_ansatz(g, [0.3] * p + [0.7] * p, strategy))) for p in range(1, 5)]
    steps = np.diff(depths)
    assert np.all(steps == steps[0]) and steps[0] > 0


@pytest.mark.parametrize(
    "gammas, betas",
    [([], []), ([0.3], []), ([0.3, 0.4], [0.7])],
    ids=["no-layers", "no-betas", "one-beta-short"],
)
def test_ansatz_needs_one_beta_per_gamma_and_at_least_one_layer(gammas, betas):
    with pytest.raises(ValueError):
        build_qaoa_ansatz(generate_random_graph(4, 0.5, seed=1), gammas, betas, "naive")


def test_ansatz_has_one_layer_per_gamma():
    graph = generate_random_graph(5, 0.5, seed=2)
    for p in (1, 2, 4):
        c = build_qaoa_ansatz(graph, [0.3] * p, [0.7] * p, "naive")
        assert sum(isinstance(g, Barrier) for g in c.gates) == p - 1
        assert sum(getattr(g, "kind", None) == "RX" for g in c.gates) == p * graph.num_nodes


# The one-layer depth d1 of shapes where the frontier arithmetic could slip;
# every RZZ decomposes to three gates in a row on its endpoints.
KNOWN_D1 = {
    "one_node": (graph_from_pairs(1, []), 2),  # H, RX
    "star_1_7": (graph_from_pairs(8, [(0, k) for k in range(1, 8)]), 23),  # H, 7 RZZ on the hub, RX
    "matching_8": (graph_from_pairs(8, [(0, 1), (2, 3), (4, 5), (6, 7)]), 5),  # H, 4 parallel RZZ, RX
}

DEPTH_GRAPHS = {
    **{f"random_{n}_{density}": generate_random_graph(n, density, mix64(5, n)) for n, density in
       [(2, 1.0), (4, 0.3), (6, 0.5), (9, 0.7), (11, 0.4), (12, 0.9)]},
    "W_9": load_graph(Path(__file__).resolve().parent / "golden" / "W_9.txt"),
    "edgeless": graph_from_pairs(5, []),
    "complete": generate_random_graph(8, 1.0, 0),
    **{name: g for name, (g, _) in KNOWN_D1.items()},
    "isolated_nodes": graph_from_pairs(9, [(0, 3), (3, 5), (5, 0), (1, 7)]),  # 2, 4, 6, 8 have no edge
    "unsorted_pairs": graph_from_pairs(7, [(5, 2), (6, 0), (1, 4), (3, 0), (2, 1), (6, 5), (4, 3), (0, 5)]),
    **{f"sweep_{n}_{density}": generate_random_graph(n, density, mix64(29, n, int(10 * density)))
       for n in range(2, 15) for density in (0.2, 0.5, 0.8)},
}


@pytest.mark.parametrize("name", DEPTH_GRAPHS)
def test_compiled_metrics_match_full_circuits(name):
    """The one-layer identities against the depth and gate counts of every
    full p-layer circuit."""
    g = DEPTH_GRAPHS[name]
    layer_counts = list(range(1, 7))
    metrics = {strategy: compiled_metrics(g, strategy, layer_counts) for strategy in ("naive", "scheduled")}
    for p in layer_counts:
        gammas, betas = [0.1 * (k + 1) for k in range(p)], [0.9 - 0.1 * k for k in range(p)]
        for strategy in ("naive", "scheduled"):
            full = decompose(build_qaoa_ansatz(g, gammas, betas, strategy))
            assert metrics[strategy][p] == (depth(full), gate_counts(full)), (p, strategy)


@pytest.mark.parametrize("name", KNOWN_D1)
def test_one_layer_depth_of_known_shapes(name):
    g, d1 = KNOWN_D1[name]
    for strategy in ("naive", "scheduled"):
        assert depth(decompose(build_qaoa_ansatz(g, [0.5], [0.5], strategy))) == d1, strategy
        assert compiled_metrics(g, strategy, [1])[1][0] == d1, strategy


def test_unsorted_pairs_keep_their_naive_order():
    g = DEPTH_GRAPHS["unsorted_pairs"]
    assert g.edges[:3] == ((2, 5, 1.0), (0, 6, 1.0), (1, 4, 1.0))
    assert rzz_order(g, "naive") == list(g.edges)
