import codecs
import itertools
import tracemalloc

import numpy as np
import pytest
from oracles import naive_max_cut, strided_cut_table

from qaoa_maxcut import encoding, graphs
from qaoa_maxcut.graphs import (
    MAX_BRUTE_FORCE_NODES,
    MAX_TOTAL_WEIGHT,
    CutSolution,
    EdgeError,
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
from qaoa_maxcut.seeding import SplitMix64, mix64

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

    @pytest.mark.parametrize("edges, position", [
        (((0, 1, 1.0), (1, 1, 1.0)), 1),
        (((0, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0)), 2),
        (((0, 5, 1.0), (1, 2, 1.0)), 0),
        (((0, 1, 1.0), (1, 2, 0.5)), 1),
        (((0, 1, 65535.0), (0, 2, 1.0), (1, 2, 1.0)), 1),
    ], ids=["self-loop", "duplicate", "out-of-range", "weight", "total"])
    def test_refusal_names_the_edge_position(self, edges, position):
        with pytest.raises(EdgeError) as info:
            Graph(3, edges)
        assert info.value.position == position

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

    def test_stops_drawing_at_the_weight_cap(self, monkeypatch):
        # `Graph` refuses the MAX_TOTAL_WEIGHT-th unit edge, so the pairs
        # after it need no draw; all n(n - 1)/2 = 4498500 take seconds.
        n, seed = 3000, mix64(11, 3000)
        rng, included, expected = SplitMix64(seed), 0, 0
        while included < MAX_TOTAL_WEIGHT:
            included += rng.next_float() < 0.5
            expected += 1
        draws = []
        next_float = SplitMix64.next_float
        monkeypatch.setattr(SplitMix64, "next_float", lambda self: draws.append(1) or next_float(self))
        with pytest.raises(EdgeError) as refused:
            generate_random_graph(n, 0.5, seed)
        assert len(draws) == expected
        assert next(itertools.islice(itertools.combinations(range(n), 2), expected - 1, None)) == (43, 2798)
        assert refused.value.position == MAX_TOTAL_WEIGHT - 1
        assert str(refused.value) == "edge (43,2798) brings the total weight to 65536, not below 65536"

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

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    def test_parse_triangle_with_other_line_ends(self, tmp_path, newline):
        path = tmp_path / "g.txt"
        path.write_bytes(newline.join([b"# a triangle", b"3 3", b"0 1", b"", b"1 2", b"0 2", b""]))
        assert load_graph(path) == K3

    def test_a_leading_byte_order_mark_is_dropped(self, tmp_path):
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        save_graph(PETERSEN, plain)
        marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        assert load_graph(marked) == load_graph(plain) == PETERSEN

    @pytest.mark.parametrize("data, where, message", [
        (b"3\n0 1\n", ":1:", "header must be '<num_nodes> <num_edges>'"),
        (b"# three fields\n3 1 1\n0 1\n", ":2:", "header must be '<num_nodes> <num_edges>'"),
        (b"3 x\n0 1\n", ":1:", "non-integer header"),
        (b"3 1.0\n0 1\n", ":1:", "non-integer header"),
        (b"3 1\r\r0\r", ":3:", "expected 'u v' or 'u v w'"),
        (b"3 1\n0 1 1 1  # four fields\n", ":2:", "expected 'u v' or 'u v w'"),
        (b"3 1\n  1   x  # inner spaces\n", ":2:", "malformed edge line '1   x'"),
        (b"# comments\n\n   \n# and blank lines only\n", ":", "empty file"),
        # A byte that is not UTF-8 is refused on its line, comment or not.
        (b"3 1\xff\n0 1\n", ":1:", "not valid UTF-8"),
        (b"3 2\n0 1\n1 2 \xe9\n", ":3:", "not valid UTF-8"),
        (b"3 2\n0 1\n# caf\xe9\n1 2\n", ":3:", "not valid UTF-8"),
        (b"3 2\r0 1\r1 2 \xc3\r", ":3:", "not valid UTF-8"),
    ], ids=["header-1-field", "header-3-fields", "header-x", "header-float", "edge-1-field-cr",
            "edge-4-fields", "edge-inner-spaces", "comments-only", "non-utf8-header",
            "non-utf8-edge", "non-utf8-comment", "non-utf8-edge-cr"])
    def test_refusal_names_its_line(self, tmp_path, data, where, message):
        path = tmp_path / "g.txt"
        path.write_bytes(data)
        with pytest.raises(GraphFormatError) as refused:
            load_graph(path)
        assert str(refused.value) == f"{path}{where} {message}"

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
        with pytest.raises(GraphFormatError, match=r"g.txt:3: edge \(1,2\) brings the total weight to 65536"):
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

    def test_duplicate_edge_rejected_with_line(self, tmp_path):
        # Comments and blank lines shift the lines; the refusal names the
        # second copy's line, not the last edge's.
        path = tmp_path / "g.txt"
        path.write_text("3 3\n# edges\n0 1\n\n1 0\n1 2\n")
        with pytest.raises(GraphFormatError, match=r"g.txt:5: duplicate edge \(0,1\)$"):
            load_graph(path)

    def test_zero_nodes_rejected_with_header_line(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# empty graph\n0 0\n")
        with pytest.raises(GraphFormatError, match=r"g.txt:2: num_nodes must be >= 1"):
            load_graph(path)

    def test_edge_count_mismatch(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("3 3\n0 1\n")
        with pytest.raises(GraphFormatError, match="promises"):
            load_graph(path)

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# a triangle, café\n3 3\n\n0 1  # first\n1 2\n0 2\n", encoding="utf-8")
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
            assert gray == naive
            assert cut_value(g, gray.assignment) == gray.value

    def test_both_solvers_put_node_0_on_side_0(self):
        star = graph_from_pairs(4, [(0, 1), (0, 2), (0, 3)])
        assert exhaustive_optimum(star) == brute_force_optimum(star) == CutSolution((0, 1, 1, 1), 3.0)

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
        assert len(block_starts(generate_random_graph(n, 0.5, seed=100 + n))) == blocks

    def test_builds_each_factor_once(self, monkeypatch):
        # One spin-row matrix per half, however many blocks the product takes.
        monkeypatch.setattr(graphs, "_BLOCK", 1 << 13)
        calls = []
        spin_rows = encoding._spin_rows
        monkeypatch.setattr(encoding, "_spin_rows", lambda *args: calls.append(args) or spin_rows(*args))
        g = generate_random_graph(18, 0.5, seed=118)
        table = strided_cut_table(g)[::2]
        k = int(np.argmin(table))
        assert brute_force_optimum(g) == CutSolution(tuple((2 * k >> i) & 1 for i in range(18)), -table[k])
        assert len(calls) == 2
        assert len(block_starts(g)) == 16

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
        assert len(block_starts(g)) > 1
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
        # A table of all 2^23 cuts would take 64 MiB; 0.74 MiB measured.
        g = generate_random_graph(24, 0.5, seed=7)
        assert traced(brute_force_optimum, g)[1] < 2**20

    def test_complete_bipartite_graph_at_the_cap(self):
        # K_{14,14} on the even and the odd nodes: the optimum cuts every
        # edge, and node 0 on side 0 leaves one such assignment.
        n = MAX_BRUTE_FORCE_NODES
        assert n == 28
        g = graph_from_pairs(n, [(u, v) for u in range(0, n, 2) for v in range(1, n, 2)])
        assert g.num_edges == 196
        solution, peak = traced(brute_force_optimum, g)
        assert solution == CutSolution(tuple(i % 2 for i in range(n)), 196.0)
        # A float32 table of all 2^27 cuts would take 512 MiB; 3.38 MiB measured.
        assert peak < 4 * 2**20


def block_starts(g: Graph) -> range:
    """The first rows of the blocks `brute_force_optimum` scores: slices
    of `graphs._BLOCK` energies, in whole rows of the factors' product."""
    left, right = encoding.energy_factors(g)
    return range(0, len(left), max(1, graphs._BLOCK // right.shape[1]))


def traced(call, *args):
    """(call(*args), its tracemalloc peak in bytes)."""
    tracemalloc.start()
    try:
        return call(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
