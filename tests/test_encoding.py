import itertools

import numpy as np
import pytest
from oracles import strided_cut_table, unique_energy_levels

from qaoa_maxcut import graphs
from qaoa_maxcut.encoding import energy_blocks, energy_levels, energy_table
from qaoa_maxcut.graphs import (
    MAX_TOTAL_WEIGHT,
    Graph,
    cut_value,
    generate_random_graph,
    graph_from_pairs,
)
from qaoa_maxcut.simulator import qaoa_state

K3 = graph_from_pairs(3, [(0, 1), (1, 2), (0, 2)])


class TestEnergyTable:
    def test_matches_scalar_energy(self):
        g = Graph(4, ((0, 1, 3.0), (1, 3, 2.0), (2, 3, 4.0), (0, 2, 1.0)))
        table = energy_table(g)
        for z in range(16):
            bits = [(z >> i) & 1 for i in range(4)]
            # Half entry k holds assignment 2k, and an odd z its complement's energy.
            assert table[(z if z % 2 == 0 else z ^ 15) >> 1] == -cut_value(g, bits)

    def test_maxcut_table_is_negated_cut(self):
        g = generate_random_graph(7, 0.5, seed=3)
        table = energy_table(g)
        assert table.size == 1 << 6
        for z in range(0, 1 << 7, 2):
            bits = [(z >> i) & 1 for i in range(7)]
            assert table[z >> 1] == -cut_value(g, bits)

    @pytest.mark.parametrize("n", [1, 2, 3, 9])
    def test_edgeless_table_is_positive_zero(self, n):
        # The offset of an edgeless graph is -0.0 / 2; no entry may keep its sign.
        table = energy_table(Graph(n))
        assert table.tobytes() == np.zeros(1 << max(n - 1, 0)).tobytes()


def weighted_maxcut(n: int, seed: int, density: float = 0.5, heavy: bool = False) -> Graph:
    """G(n, density) with integer weights uniform in 1..8, or, with
    `heavy`, in 1..(MAX_TOTAL_WEIGHT - 1) // m for its m edges, so that
    the total weight may come close to the bound."""
    rng = np.random.default_rng(seed)
    edges = generate_random_graph(n, density, seed).edges if n > 1 else ()
    top = (MAX_TOTAL_WEIGHT - 1) // max(1, len(edges)) if heavy else 8
    weights = rng.integers(1, top + 1, len(edges))
    return Graph(n, tuple((u, v, float(w)) for (u, v, _), w in zip(edges, weights)))


def negated_cuts(g: Graph) -> np.ndarray:
    """-cut_value of every assignment, little-endian, one call each."""
    n = g.num_nodes
    return np.array([-cut_value(g, [(z >> i) & 1 for i in range(n)]) for z in range(1 << n)])


class TestStridedCutTable:
    """The tests' -cut oracle against `cut_value`, assignment by assignment."""

    def test_single_edge(self):
        table = strided_cut_table(graph_from_pairs(2, [(0, 1)]))
        np.testing.assert_array_equal(table, [0.0, -1.0, -1.0, 0.0])

    def test_empty_graph_is_all_zero(self):
        np.testing.assert_array_equal(strided_cut_table(Graph(3)), np.zeros(8))

    def test_triangle_minimum_is_every_split(self):
        table = strided_cut_table(K3)
        assert table.min() == -2.0
        assert set(np.flatnonzero(table == -2.0)) == set(range(1, 7))

    def test_argmin_is_argmax_cut(self):
        for seed in range(5):
            g = generate_random_graph(6, 0.5, seed=seed)
            table, cuts = strided_cut_table(g), -negated_cuts(g)
            assert set(np.flatnonzero(table == table.min())) == set(np.flatnonzero(cuts == cuts.max()))

    @pytest.mark.parametrize("seed", range(10))
    def test_unit_weights_equal_negated_cut_exactly(self, seed):
        g = generate_random_graph(4 + seed % 7, 0.5, seed=100 + seed)
        np.testing.assert_array_equal(strided_cut_table(g), negated_cuts(g))

    @pytest.mark.parametrize("n", [2, 5, 9])
    @pytest.mark.parametrize("heavy", [False, True], ids=["weights-1-8", "heavy-weights"])
    def test_integer_weights_equal_negated_cut_exactly(self, n, heavy):
        g = weighted_maxcut(n, seed=50 + n, heavy=heavy)
        np.testing.assert_array_equal(strided_cut_table(g), negated_cuts(g))


@pytest.mark.parametrize("weights", ["unit", "weighted"])
@pytest.mark.parametrize("n", range(1, 17))
def test_half_table_holds_every_assignment_and_its_complement(n, weights):
    # Entry 2^n - 1 - x of the strided oracle's full table is the
    # complement of assignment x. The half table must equal both its even
    # entries and their complements bit for bit, so that a full-state
    # draw folded onto half indices scores as the full table would.
    if n == 1:
        g = Graph(1, ())
    elif weights == "unit":
        g = generate_random_graph(n, 0.5, seed=20 + n)
    else:
        g = weighted_maxcut(n, seed=30 + n)
    full = strided_cut_table(g)
    half = energy_table(g)
    assert half.tobytes() == full[::2].tobytes() == full[::-1][::2].tobytes()


class TestBlockedEnergyTable:
    @pytest.mark.parametrize("n", [*range(1, 13), 16])
    def test_unit_weight_maxcut_equals_strided_oracle_exactly(self, n):
        g = generate_random_graph(n, 0.5, seed=40 + n) if n > 1 else Graph(1, ())
        np.testing.assert_array_equal(energy_table(g), strided_cut_table(g)[::2])

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 12])
    @pytest.mark.parametrize("heavy", [False, True], ids=["weights-1-8", "heavy-weights"])
    def test_integer_weights_equal_strided_oracle_exactly(self, n, heavy):
        g = weighted_maxcut(n, seed=n, heavy=heavy)
        np.testing.assert_array_equal(energy_table(g), strided_cut_table(g)[::2])


# Every width from 2 to 11 splits into its own low and high halves; the
# complete graphs set every coupling of both halves and of the cross block.
GRAPH_SIZES = range(2, 12)
GRAPHS = {
    "one-node": Graph(1, ()),
    **{f"unit-{n}": generate_random_graph(n, 0.5, seed=80 + n) for n in GRAPH_SIZES},
    **{f"complete-{n}": generate_random_graph(n, 1.0, seed=0) for n in GRAPH_SIZES},
    **{f"weighted-{n}": weighted_maxcut(n, seed=90 + n) for n in GRAPH_SIZES},
    **{f"heavy-weights-{n}": weighted_maxcut(n, seed=90 + n, heavy=True) for n in GRAPH_SIZES},
    **{f"weighted-complete-{n}": weighted_maxcut(n, seed=110 + n, density=1.0) for n in GRAPH_SIZES},
}

# At n = 18 the table is four blocks of the size `brute_force_optimum`
# asks for.
BLOCK_GRAPHS = {
    "unit-18": generate_random_graph(18, 0.5, seed=98),
    "weighted-18": weighted_maxcut(18, seed=108),
    "heavy-weights-18": weighted_maxcut(18, seed=108, heavy=True),
}
TILINGS = [
    *((entries, name) for name in sorted(GRAPHS) for entries in ("1", "4", "64", "2^n")),
    *(("_BLOCK", name) for name in BLOCK_GRAPHS),
]


def concatenated(g: Graph, entries: int) -> np.ndarray:
    """The blocks of `energy_blocks` flattened and joined, after checking
    that each starts at the half index after its predecessor's last and
    holds whole rows, at most `entries` or one row."""
    blocks = list(energy_blocks(g, entries))
    sizes = [block.size for _, block in blocks]
    assert [first for first, _ in blocks] == np.cumsum([0, *sizes[:-1]]).tolist()
    columns = blocks[0][1].shape[1]
    assert all(block.shape[1] == columns and block.size <= max(entries, columns) for _, block in blocks)
    return np.concatenate([block.ravel() for _, block in blocks])


class TestEnergyBlocks:
    """`energy_blocks` in pieces against `energy_table`, the half table as
    one block, and against the strided oracle's even entries.

    Integer weights make every energy exact in any summation order, so
    the pieces must equal the table bit for bit, also where BLAS takes a
    one-row block through its matrix-vector kernel.
    """

    @pytest.mark.parametrize("entries, name", TILINGS)
    def test_exact_energies_tile_the_table_bit_for_bit(self, name, entries):
        g = {**GRAPHS, **BLOCK_GRAPHS}[name]
        entries = {"2^n": 1 << g.num_nodes, "_BLOCK": graphs._BLOCK}.get(entries) or int(entries)
        tiles = concatenated(g, entries)
        np.testing.assert_array_equal(tiles, energy_table(g))
        np.testing.assert_array_equal(tiles, strided_cut_table(g)[::2])


class TestEnergyLevels:
    @pytest.mark.parametrize("g", [
        generate_random_graph(12, 0.5, seed=7),
        weighted_maxcut(7, seed=70),
        Graph(1, ()),
    ], ids=["unit-12", "weighted-7", "constant-1"])
    def test_levels_gather_back_to_the_table(self, g):
        table = energy_table(g)
        levels, index = energy_levels(table)
        np.testing.assert_array_equal(levels[index], table)
        assert np.all(np.diff(levels) > 0)
        assert index.shape == table.shape

    def test_index_dtype_is_the_smallest_unsigned_that_fits(self):
        table = energy_table(generate_random_graph(12, 0.5, seed=7))
        levels, index = energy_levels(table)
        assert index.dtype.kind == "u" and index.dtype.itemsize <= 2
        assert index.dtype == np.min_scalar_type(levels.size - 1)


def assert_same_phases(got, want):
    """Both (levels, index) pairs gather the same table and drive
    `qaoa_state` to the same amplitudes, bit for bit."""
    (levels, index), (want_levels, want_index) = got, want
    np.testing.assert_array_equal(levels[index], want_levels[want_index])
    np.testing.assert_array_equal(levels[np.unique(index)], want_levels)
    for gammas, betas in (([0.3], [1.1]), ([0.7, -2.2, 1.9], [0.4, 0.05, -1.3])):
        np.testing.assert_array_equal(
            qaoa_state(levels, index, gammas, betas), qaoa_state(want_levels, want_index, gammas, betas)
        )


class TestArithmeticLevels:
    """The arithmetic levels against the sorting oracle they replace."""

    @pytest.mark.parametrize("n", range(1, 17))
    def test_unit_weight_tables(self, n):
        g = generate_random_graph(n, 0.5, seed=60 + n) if n > 1 else Graph(1, ())
        table = energy_table(g)
        levels, index = energy_levels(table)
        np.testing.assert_array_equal(levels, table.min() + np.arange(levels.size))
        assert levels[-1] == table.max()
        assert_same_phases((levels, index), unique_energy_levels(table))

    def test_table_with_gaps(self):
        # A triangle cuts 0 or 2 edges, never 1; K4 cuts 0, 3 or 4.
        for g in (K3, graph_from_pairs(4, list(itertools.combinations(range(4), 2)))):
            table = energy_table(g)
            levels, index = energy_levels(table)
            want_levels, _ = unique_energy_levels(table)
            assert levels.size > want_levels.size
            assert_same_phases((levels, index), unique_energy_levels(table))

    @pytest.mark.parametrize("n", [2, 5, 9, 12])
    @pytest.mark.parametrize("heavy", [False, True], ids=["weights-1-8", "heavy-weights"])
    def test_integer_weight_tables(self, n, heavy):
        table = energy_table(weighted_maxcut(n, seed=70 + n, heavy=heavy))
        levels, index = energy_levels(table)
        np.testing.assert_array_equal(levels, table.min() + np.arange(levels.size))
        assert levels[-1] == table.max()
        assert_same_phases((levels, index), unique_energy_levels(table))

    def test_largest_total_weight_indexes_as_uint16(self):
        table = energy_table(Graph(2, ((0, 1, float(MAX_TOTAL_WEIGHT - 1)),)))
        levels, index = energy_levels(table)
        assert index.dtype == np.uint16
        assert levels.size == MAX_TOTAL_WEIGHT
        np.testing.assert_array_equal(levels[index], table)
        np.testing.assert_array_equal(index, [MAX_TOTAL_WEIGHT - 1, 0])
