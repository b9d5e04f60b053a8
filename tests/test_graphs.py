import tracemalloc

import numpy as np
import pytest
from oracles import naive_max_cut

from qaoa_maxcut import graphs
from qaoa_maxcut.encoding import energy_blocks
from qaoa_maxcut.graphs import (
    MAX_TOTAL_WEIGHT,
    CutSolution,
    Graph,
    GraphFormatError,
    brute_force_optimum,
    cut_value,
    exhaustive_optimum,
    generate_random_graph,
    graph_from_pairs,
    load_graph,
    save_graph,
)

K3 = graph_from_pairs(3, [(0, 1), (1, 2), (0, 2)])
C4 = graph_from_pairs(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
PETERSEN = graph_from_pairs(
    10,
    [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
     (5, 7), (7, 9), (6, 9), (6, 8), (5, 8),
     (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)],
)


class TestGraphType:
    def test_canonicalizes_edge_order(self):
        g = Graph(3, ((2, 0, 1.0),))
        assert g.edges == ((0, 2, 1.0),)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, ((1, 1, 1.0),))

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, ((0, 1, 1.0), (1, 0, 2.0)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, ((0, 2, 1.0),))

    @pytest.mark.parametrize("weight", [-1.0, 0, -0.0])
    def test_rejects_nonpositive_weight(self, weight):
        with pytest.raises(ValueError, match=r"edge \(0,1\) has weight -?\d.0, not a positive integer"):
            Graph(2, ((0, 1, weight),))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Graph(0)

    @pytest.mark.parametrize("weight", [float("inf"), float("-inf"), float("nan")])
    def test_rejects_nonfinite_weight(self, weight):
        with pytest.raises(ValueError, match=r"edge \(0,1\) has weight .*, not a positive integer"):
            Graph(2, ((0, 1, weight),))

    @pytest.mark.parametrize("weight", [0.5, 1.5, 2.000001])
    def test_rejects_non_integer_weight(self, weight):
        with pytest.raises(ValueError, match=r"edge \(1,2\) has weight .*, not a positive integer"):
            Graph(3, ((0, 1, 1.0), (2, 1, weight)))

    def test_stores_integer_weights_as_floats(self):
        g = Graph(3, ((0, 1, 3), (1, 2, 2.0)))
        assert g.edges == ((0, 1, 3.0), (1, 2, 2.0))
        assert all(type(w) is float for _, _, w in g.edges)

    def test_total_weight_stays_below_the_bound(self):
        assert MAX_TOTAL_WEIGHT == 1 << 16
        assert Graph(2, ((0, 1, 65535.0),)).total_weight() == 65535.0
        with pytest.raises(ValueError, match=r"edge \(0,1\) brings the total weight to 65536, not below 65536"):
            Graph(2, ((0, 1, 65536.0),))
        with pytest.raises(ValueError, match=r"edge \(1,2\) brings the total weight to 65536"):
            Graph(3, ((0, 1, 65535.0), (1, 2, 1.0)))


class TestGenerator:
    def test_density_one_is_complete(self):
        g = generate_random_graph(5, 1.0, seed=123)
        assert g.num_edges == 10

    def test_density_zero_is_empty(self):
        g = generate_random_graph(5, 0.0, seed=123)
        assert g.num_edges == 0

    def test_deterministic(self):
        a = generate_random_graph(8, 0.5, seed=7)
        b = generate_random_graph(8, 0.5, seed=7)
        assert a.edges == b.edges

    def test_seed_changes_output(self):
        a = generate_random_graph(12, 0.5, seed=1)
        b = generate_random_graph(12, 0.5, seed=2)
        assert a.edges != b.edges

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            generate_random_graph(1, 0.5, seed=0)

    def test_rejects_bad_density(self):
        with pytest.raises(ValueError):
            generate_random_graph(4, 1.5, seed=0)
        with pytest.raises(ValueError):
            generate_random_graph(4, -0.1, seed=0)

    def test_byte_identical_files(self, tmp_path):
        for name in ("a", "b"):
            save_graph(generate_random_graph(10, 0.4, seed=99), tmp_path / name)
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


class TestCutValue:
    def test_triangle(self):
        assert cut_value(K3, "010") == 2.0

    def test_all_zeros(self):
        # A sum over no edges is the float 0.0, as the annotation says.
        assert repr(cut_value(PETERSEN, [0] * 10)) == "0.0"

    def test_single_edge(self):
        g = graph_from_pairs(2, [(0, 1)])
        assert cut_value(g, "01") == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            cut_value(K3, "01")

    @pytest.mark.parametrize("assignment", [(2, 0), (0, -1), "20", (0.5, 1)])
    def test_rejects_entries_other_than_0_and_1(self, assignment):
        # Each of these would read as a cut of the one edge if taken as unequal sides.
        with pytest.raises(ValueError, match="0 or 1"):
            cut_value(graph_from_pairs(2, [(0, 1)]), assignment)

    def test_complement_symmetry(self):
        for seed in range(5):
            g = generate_random_graph(9, 0.5, seed=seed)
            for mask in (0, 5, 17, 100, 511):
                bits = [(mask >> i) & 1 for i in range(9)]
                flipped = [1 - b for b in bits]
                assert cut_value(g, bits) == cut_value(g, flipped)


class TestTotalWeight:
    def test_sums_edge_weights(self):
        assert PETERSEN.total_weight() == 15.0
        assert Graph(3, ((0, 1, 3.0), (1, 2, 5.0))).total_weight() == 8.0

    def test_edgeless_graph_is_float_zero(self):
        # A sum over no edges is the float 0.0, as the annotation says.
        assert repr(Graph(3).total_weight()) == "0.0"


class TestFileFormat:
    def test_parse_two_nodes(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("2 1\n0 1\n")
        g = load_graph(path)
        assert g == graph_from_pairs(2, [(0, 1)])

    def test_parse_triangle(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("3 3\n0 1\n1 2\n0 2\n")
        assert load_graph(path) == K3

    def test_self_loop_rejected_with_line(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("2 1\n1 1\n")
        with pytest.raises(GraphFormatError, match=":2:"):
            load_graph(path)

    @pytest.mark.parametrize("weight", ["0.5", "1.5", "0", "-1", "inf", "nan", "65536"])
    def test_bad_weight_rejected_with_line(self, tmp_path, weight):
        path = tmp_path / "g.txt"
        path.write_text(f"3 2\n0 1\n1 2 {weight}\n")
        with pytest.raises(GraphFormatError, match=r":3: edge \(1,2\) (has weight|brings the total)"):
            load_graph(path)

    def test_total_weight_of_2_16_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("3 2\n0 1 32768\n1 2 32768\n")
        with pytest.raises(GraphFormatError, match=r"g.txt: edge \(1,2\) brings the total weight to 65536"):
            load_graph(path)

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("3 2\n0 1\n0 x\n")
        with pytest.raises(GraphFormatError, match=":3:"):
            load_graph(path)

    def test_out_of_range_index(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("2 1\n0 5\n")
        with pytest.raises(GraphFormatError, match=":2:"):
            load_graph(path)

    def test_duplicate_edge(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("3 3\n0 1\n1 2\n1 0\n")
        with pytest.raises(GraphFormatError, match="duplicate"):
            load_graph(path)

    def test_edge_count_mismatch(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("3 3\n0 1\n")
        with pytest.raises(GraphFormatError, match="promises"):
            load_graph(path)

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# a triangle\n3 3\n\n0 1  # first\n1 2\n0 2\n")
        assert load_graph(path) == K3

    def test_weighted_round_trip(self, tmp_path):
        g = Graph(4, ((0, 1, 3.0), (1, 3, 1.0), (2, 3, 65000.0)))
        path = tmp_path / "g.txt"
        save_graph(g, path)
        assert path.read_text() == "4 3\n0 1 3\n1 3\n2 3 65000\n"
        assert load_graph(path) == g

    def test_round_trip_random(self, tmp_path):
        for seed in range(4):
            g = generate_random_graph(11, 0.3, seed=seed)
            path = tmp_path / f"g{seed}.txt"
            save_graph(g, path)
            assert load_graph(path) == g


class TestBruteForce:
    def test_triangle(self):
        sol = brute_force_optimum(K3)
        assert sol.value == 2.0
        assert cut_value(K3, sol.assignment) == 2.0

    def test_four_cycle_alternating(self):
        sol = brute_force_optimum(C4)
        assert sol.value == 4.0
        assert sol.assignment == (0, 1, 0, 1)

    def test_petersen(self):
        # independent naive oracle first, then the chunked pass
        naive = exhaustive_optimum(PETERSEN)
        assert naive.value == 12.0
        sol = brute_force_optimum(PETERSEN)
        assert sol.value == naive.value
        assert cut_value(PETERSEN, sol.assignment) == sol.value

    def test_gray_matches_naive_on_random_graphs(self):
        for seed in range(20):
            n = 4 + seed % 9  # sizes 4..12
            g = generate_random_graph(n, 0.5, seed=seed)
            gray = brute_force_optimum(g)
            naive = exhaustive_optimum(g)
            assert gray.value == naive.value
            assert cut_value(g, gray.assignment) == gray.value
            assert cut_value(g, naive.assignment) == naive.value

    def test_bounds(self):
        for seed in range(5):
            g = generate_random_graph(10, 0.6, seed=seed)
            sol = brute_force_optimum(g)
            assert 0.0 <= sol.value <= g.total_weight()

    def test_canonical_assignment(self):
        for seed in range(5):
            g = generate_random_graph(9, 0.5, seed=seed)
            assert brute_force_optimum(g).assignment[0] == 0

    def test_rejects_oversize(self):
        with pytest.raises(ValueError, match="capped"):
            brute_force_optimum(Graph(29))

    def test_single_node(self):
        assert brute_force_optimum(Graph(1)) == CutSolution((0,), 0.0)


def weighted(n: int, density: float, seed: int) -> Graph:
    """G(n, density) with integer weights drawn uniformly from 1..8."""
    rng = np.random.default_rng(seed)
    pairs = generate_random_graph(n, density, seed).edges
    return Graph(n, tuple((u, v, float(rng.integers(1, 9))) for u, v, _ in pairs))


class TestChunkedOptimum:
    """brute_force_optimum against the naive even-mask enumeration.

    It scores the 2^(n-1) assignments with node 0 on side 0 in blocks of
    `graphs._BLOCK` = 2^15 energies, so n <= 16 is one block, n = 17 two
    and n = 18 four.
    """

    @pytest.mark.parametrize("n, blocks", [(14, 1), (16, 1), (17, 2), (18, 4)])
    def test_sizes_span_one_and_several_blocks(self, n, blocks):
        g = generate_random_graph(n, 0.5, seed=100 + n)
        assert len(list(energy_blocks(g, graphs._BLOCK))) == blocks

    @pytest.mark.parametrize("n", [2, 3, 6, 11, 12, 14, 15, 16])
    @pytest.mark.parametrize("weights", ["unit", "weighted"])
    def test_matches_naive_enumeration(self, n, weights):
        g = generate_random_graph(n, 0.5, seed=100 + n)
        if weights == "weighted":
            g = weighted(n, 0.5, seed=100 + n)
        assignment, value = naive_max_cut(g)
        assert brute_force_optimum(g) == CutSolution(assignment, value)

    def test_sparse_weighted_graphs_tie_to_the_lowest_assignment(self):
        # Sparse graphs are often disconnected: flipping a component that
        # does not hold node 0 keeps the cut, so ties are common here.
        for seed in range(60):
            g = weighted(5 + seed % 6, 0.2, seed)
            assignment, value = naive_max_cut(g)
            assert brute_force_optimum(g) == CutSolution(assignment, value), seed

    @pytest.mark.parametrize(
        "g",
        [
            graph_from_pairs(15, [(i, (i + 1) % 15) for i in range(15)]),
            graph_from_pairs(16, [(u, v) for u in range(16) for v in range(u + 1, 16)]),
        ],
        ids=["odd-cycle-15", "complete-16"],
    )
    def test_optima_in_several_blocks_tie_to_the_lowest_assignment(self, g, monkeypatch):
        # Blocks of 2^13 energies, so that these graphs span several.
        monkeypatch.setattr(graphs, "_BLOCK", 1 << 13)
        assert len(list(energy_blocks(g, graphs._BLOCK))) > 1
        assignment, value = naive_max_cut(g)
        assert brute_force_optimum(g) == CutSolution(assignment, value)

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 16])
    def test_edgeless_graph_is_all_zeros(self, n):
        assert brute_force_optimum(Graph(n)) == CutSolution((0,) * n, 0.0)

    def test_value_matches_exhaustive_optimum_with_integer_weights(self):
        for seed in range(12):
            g = weighted(4 + seed % 9, 0.5, seed)
            assert brute_force_optimum(g).value == exhaustive_optimum(g).value

    @pytest.mark.parametrize("block", [1, 2, 4, 64])
    def test_any_block_size_gives_the_same_optimum(self, block, monkeypatch):
        # Blocks of a single row, and of rows cut from the middle of the table.
        monkeypatch.setattr(graphs, "_BLOCK", block)
        for n in range(2, 13):
            for g in (generate_random_graph(n, 0.5, seed=200 + n), weighted(n, 0.5, seed=200 + n)):
                assert brute_force_optimum(g) == CutSolution(*naive_max_cut(g)), n
        for seed in range(60):
            g = weighted(5 + seed % 6, 0.2, seed)
            assert brute_force_optimum(g) == CutSolution(*naive_max_cut(g)), seed

    def test_memory_stays_small(self):
        # A table of all 2^23 cuts would take 64 MiB.
        g = generate_random_graph(24, 0.5, seed=7)
        tracemalloc.start()
        try:
            brute_force_optimum(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
