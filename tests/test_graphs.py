import pytest

from qaoa_maxcut.graphs import (
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

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError, match="non-positive"):
            Graph(2, ((0, 1, -1.0),))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Graph(0)

    @pytest.mark.parametrize("weight", [float("inf"), float("-inf"), float("nan")])
    def test_rejects_nonfinite_weight(self, weight):
        with pytest.raises(ValueError, match="non-finite"):
            Graph(2, ((0, 1, weight),))


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
        assert cut_value(PETERSEN, [0] * 10) == 0.0

    def test_single_edge(self):
        g = graph_from_pairs(2, [(0, 1)])
        assert cut_value(g, "01") == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            cut_value(K3, "01")

    def test_complement_symmetry(self):
        for seed in range(5):
            g = generate_random_graph(9, 0.5, seed=seed)
            for mask in (0, 5, 17, 100, 511):
                bits = [(mask >> i) & 1 for i in range(9)]
                flipped = [1 - b for b in bits]
                assert cut_value(g, bits) == cut_value(g, flipped)


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

    @pytest.mark.parametrize("weight", ["inf", "nan"])
    def test_nonfinite_weight_rejected_with_line(self, tmp_path, weight):
        path = tmp_path / "g.txt"
        path.write_text(f"3 2\n0 1\n1 2 {weight}\n")
        with pytest.raises(GraphFormatError, match=":3: .*non-finite"):
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
        g = Graph(4, ((0, 1, 2.5), (1, 3, 1.0), (2, 3, 0.125)))
        path = tmp_path / "g.txt"
        save_graph(g, path)
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
        # independent naive oracle first, then the Gray-code path
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
