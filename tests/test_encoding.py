import itertools

import numpy as np
import pytest
from oracles import Qubo, maxcut_to_qubo, qubo_energy, qubo_to_ising, strided_energy_table, unique_energy_levels

from qaoa_maxcut.encoding import IsingModel, energy_blocks, energy_levels, energy_table, ising_energy, maxcut_problem
from qaoa_maxcut.graphs import (
    Graph,
    cut_value,
    generate_random_graph,
    graph_from_pairs,
)
from qaoa_maxcut.simulator import qaoa_state

SINGLE_EDGE = graph_from_pairs(2, [(0, 1)])
K3 = graph_from_pairs(3, [(0, 1), (1, 2), (0, 2)])


def all_bits(n):
    return itertools.product((0, 1), repeat=n)


class TestMaxcutToQubo:
    def test_single_edge_coefficients(self):
        q = maxcut_to_qubo(SINGLE_EDGE)
        assert q.coeffs == {(0, 0): -1.0, (1, 1): -1.0, (0, 1): 2.0}
        assert q.offset == 0.0

    def test_single_edge_minimum(self):
        q = maxcut_to_qubo(SINGLE_EDGE)
        values = {bits: qubo_energy(q, bits) for bits in all_bits(2)}
        assert min(values.values()) == -1.0
        assert {b for b, v in values.items() if v == -1.0} == {(0, 1), (1, 0)}

    def test_empty_graph(self):
        q = maxcut_to_qubo(Graph(3))
        assert q.coeffs == {}
        assert all(qubo_energy(q, bits) == 0.0 for bits in all_bits(3))

    def test_triangle_minimum(self):
        q = maxcut_to_qubo(K3)
        assert min(qubo_energy(q, bits) for bits in all_bits(3)) == -2.0

    def test_equals_negated_cut(self):
        for seed in range(5):
            g = generate_random_graph(7, 0.5, seed=seed)
            q = maxcut_to_qubo(g)
            for bits in all_bits(7):
                assert qubo_energy(q, bits) == -cut_value(g, bits)


class TestQuboToIsing:
    def test_single_edge(self):
        m = qubo_to_ising(maxcut_to_qubo(SINGLE_EDGE))
        assert m.h == {}
        assert m.J == {(0, 1): 0.5}
        assert m.offset == -0.5
        for bits in all_bits(2):
            assert m.energy(bits) == qubo_energy(maxcut_to_qubo(SINGLE_EDGE), bits)

    def test_single_linear_term(self):
        c = 3.0
        m = qubo_to_ising(Qubo(1, {(0, 0): c}))
        assert m.h == {0: -c / 2}
        assert m.offset == c / 2
        for bits in all_bits(1):
            assert m.energy(bits) == qubo_energy(Qubo(1, {(0, 0): c}), bits)

    def test_zero_qubo(self):
        m = qubo_to_ising(Qubo(2))
        assert m.h == {} and m.J == {} and m.offset == 0.0

    def test_exact_on_all_assignments(self):
        rng = np.random.default_rng(5)
        coeffs = {}
        n = 5
        for i in range(n):
            for j in range(i, n):
                coeffs[(i, j)] = float(rng.normal())
        q = Qubo(n, coeffs, offset=float(rng.normal()))
        m = qubo_to_ising(q)
        for bits in all_bits(n):
            assert m.energy(bits) == pytest.approx(qubo_energy(q, bits), abs=1e-12)

    def test_rejects_bad_keys(self):
        with pytest.raises(ValueError):
            Qubo(2, {(1, 0): 1.0})
        with pytest.raises(ValueError):
            IsingModel(2, J={(1, 1): 1.0})


class TestIsingEnergy:
    def test_single_edge_values(self):
        m = maxcut_problem(SINGLE_EDGE)
        assert ising_energy(m, "01") == -1.0
        assert ising_energy(m, "00") == 0.0

    def test_zero_model(self):
        m = IsingModel(3)
        assert ising_energy(m, "101") == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            ising_energy(IsingModel(3), "01")

    @pytest.mark.parametrize("assignment", [(2, 0), (0, -1), "20", (0.5, 1)])
    def test_rejects_entries_other_than_0_and_1(self, assignment):
        # One edge has energies 0 and -1 only; a spin of 1 - 2*2 would read -2.
        with pytest.raises(ValueError, match="0 or 1"):
            ising_energy(maxcut_problem(SINGLE_EDGE), assignment)
        with pytest.raises(ValueError, match="0 or 1"):
            cut_value(SINGLE_EDGE, assignment)


class TestRoundTrip:
    def test_matches_negated_cut_exactly(self):
        for seed in range(20):
            n = 4 + seed % 7  # 4..10
            g = generate_random_graph(n, 0.5, seed=100 + seed)
            m = qubo_to_ising(maxcut_to_qubo(g))
            for bits in all_bits(n):
                assert abs(m.energy(bits) + cut_value(g, bits)) <= 1e-12

    def test_unweighted_has_no_linear_terms(self):
        for seed in range(10):
            g = generate_random_graph(8, 0.6, seed=seed)
            assert qubo_to_ising(maxcut_to_qubo(g)).h == {}

    def test_argmin_energy_is_argmax_cut(self):
        for seed in range(5):
            g = generate_random_graph(6, 0.5, seed=seed)
            m = qubo_to_ising(maxcut_to_qubo(g))
            energies = {bits: m.energy(bits) for bits in all_bits(6)}
            cuts = {bits: cut_value(g, bits) for bits in all_bits(6)}
            best_e = min(energies.values())
            best_c = max(cuts.values())
            assert {b for b, e in energies.items() if e == best_e} == {
                b for b, c in cuts.items() if c == best_c
            }


class TestEnergyTable:
    def test_matches_scalar_energy(self):
        rng = np.random.default_rng(9)
        m = IsingModel(4, J={(0, 1): 1.5, (1, 3): -0.75, (2, 3): 2.0}, offset=0.3)
        table = energy_table(m)
        for z in range(16):
            bits = [(z >> i) & 1 for i in range(4)]
            # Half entry k holds assignment 2k, and an odd z its complement's energy.
            assert table[(z if z % 2 == 0 else z ^ 15) >> 1] == pytest.approx(ising_energy(m, bits), abs=1e-12)

    def test_maxcut_table_is_negated_cut(self):
        g = generate_random_graph(7, 0.5, seed=3)
        table = energy_table(maxcut_problem(g))
        assert table.size == 1 << 6
        for z in range(0, 1 << 7, 2):
            bits = [(z >> i) & 1 for i in range(7)]
            assert table[z >> 1] == pytest.approx(-cut_value(g, bits), abs=1e-12)


def random_ising(n: int, seed: int) -> IsingModel:
    """Signed real couplings on about half the pairs and a real offset."""
    rng = np.random.default_rng(seed)
    J = {(i, j): float(rng.normal()) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5}
    return IsingModel(n, J, float(rng.normal()))


@pytest.mark.parametrize("weights", ["unit", "real"])
@pytest.mark.parametrize("n", range(1, 17))
def test_half_table_holds_every_assignment_and_its_complement(n, weights):
    # `energy_blocks` as one block scores all 2^n assignments; entry
    # 2^n - 1 - x is the complement of assignment x. The half table must
    # equal both its even entries and their complements bit for bit, so
    # that a full-state draw folded onto half indices scores as before.
    if n == 1:
        model = maxcut_problem(Graph(1, ()))
    elif weights == "unit":
        model = maxcut_problem(generate_random_graph(n, 0.5, seed=20 + n))
    else:
        model = real_weighted_maxcut(n, seed=30 + n)
    ((_, full),) = energy_blocks(model, 1 << n)
    full = full.ravel()
    half = energy_table(model)
    assert half.tobytes() == full[::2].tobytes() == full[::-1][::2].tobytes()


class TestBlockedEnergyTable:
    @pytest.mark.parametrize("n", [*range(1, 13), 16])
    def test_unit_weight_maxcut_equals_strided_oracle_exactly(self, n):
        g = generate_random_graph(n, 0.5, seed=40 + n) if n > 1 else Graph(1, ())
        model = maxcut_problem(g)
        np.testing.assert_array_equal(energy_table(model), strided_energy_table(model)[::2])

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 12])
    def test_real_ising_matches_strided_oracle(self, n):
        model = random_ising(n, seed=n)
        np.testing.assert_allclose(energy_table(model), strided_energy_table(model)[::2], rtol=1e-12, atol=1e-12)


def real_weighted_maxcut(n: int, seed: int, dyadic: bool = False) -> IsingModel:
    """Max-Cut of G(n, 0.5) with weights uniform in [0.05, 3), or, with
    `dyadic`, in sixteenths from 1/16 to 3, whose sums are exact in any order."""
    rng = np.random.default_rng(seed)
    edges = generate_random_graph(n, 0.5, seed).edges
    weights = rng.integers(1, 49, len(edges)) / 16 if dyadic else rng.uniform(0.05, 3.0, len(edges))
    return maxcut_problem(Graph(n, tuple((u, v, float(w)) for (u, v, _), w in zip(edges, weights))))


def dyadic_ising(n: int, seed: int) -> IsingModel:
    """`random_ising` with every coefficient rounded to eighths, so every
    energy is exact in any summation order."""
    m = random_ising(n, seed)
    return IsingModel(n, {ij: round(8 * v) / 8 for ij, v in m.J.items()}, round(8 * m.offset) / 8)


MODEL_SIZES = (1, 2, 5, 8, 11)
EXACT_MODELS = {
    **{f"unit-{n}": maxcut_problem(generate_random_graph(n, 0.5, seed=80 + n)) for n in MODEL_SIZES[1:]},
    **{f"dyadic-weights-{n}": real_weighted_maxcut(n, seed=90 + n, dyadic=True) for n in MODEL_SIZES[1:]},
    **{f"dyadic-couplings-{n}": dyadic_ising(n, seed=100 + n) for n in MODEL_SIZES},
}
ROUNDED_MODELS = {
    **{f"real-weights-{n}": real_weighted_maxcut(n, seed=90 + n) for n in MODEL_SIZES[1:]},
    **{f"real-couplings-{n}": random_ising(n, seed=100 + n) for n in MODEL_SIZES},
}


def concatenated(model: IsingModel, entries: int, even_only: bool = False) -> np.ndarray:
    """The blocks of `energy_blocks` stacked, after checking that they come
    in ascending row order, each of at most `entries` or one row."""
    blocks = list(energy_blocks(model, entries, even_only))
    rows, columns = blocks[0][1].shape
    assert [start for start, _ in blocks] == list(range(0, 1 << (model.n - model.n // 2), rows))
    assert all(block.size <= max(entries, columns) for _, block in blocks)
    return np.concatenate([block for _, block in blocks])


def table_columns(model: IsingModel, even_only: bool) -> np.ndarray:
    """The table as one block: `energy_table` for the even columns, or
    `energy_blocks` with room for all 2^n entries."""
    if even_only and model.n > 1:
        return energy_table(model).reshape(1 << (model.n - model.n // 2), -1)
    ((_, table),) = energy_blocks(model, 1 << model.n)
    return table


class TestEnergyBlocks:
    """`energy_blocks` in pieces against the table as one block.

    Where every energy is exact in any summation order (unit and dyadic
    weights, dyadic couplings) the pieces must equal the table bit for bit.
    With arbitrary real coefficients a block of one or two rows may round
    differently in the last bits, because BLAS takes a matrix-vector or a
    thin product through other kernels than the table's.
    """

    @pytest.mark.parametrize("name", sorted(EXACT_MODELS))
    @pytest.mark.parametrize("entries", ["1", "4", "2^n"])
    @pytest.mark.parametrize("even_only", [False, True], ids=["all", "even"])
    def test_exact_energies_tile_the_table_bit_for_bit(self, name, entries, even_only):
        model = EXACT_MODELS[name]
        entries = 1 << model.n if entries == "2^n" else int(entries)
        np.testing.assert_array_equal(concatenated(model, entries, even_only), table_columns(model, even_only))

    @pytest.mark.parametrize("name", sorted(ROUNDED_MODELS))
    @pytest.mark.parametrize("entries", [1, 4, 64])
    @pytest.mark.parametrize("even_only", [False, True], ids=["all", "even"])
    def test_real_energies_tile_the_table_to_rounding(self, name, entries, even_only):
        model = ROUNDED_MODELS[name]
        np.testing.assert_allclose(
            concatenated(model, entries, even_only), table_columns(model, even_only), rtol=0, atol=1e-12
        )


class TestEnergyLevels:
    @pytest.mark.parametrize("model", [
        maxcut_problem(generate_random_graph(12, 0.5, seed=7)),
        random_ising(7, seed=70),
        IsingModel(1, offset=0.5),
    ], ids=["unit-12", "real-7", "constant-1"])
    def test_levels_gather_back_to_the_table(self, model):
        table = energy_table(model)
        levels, index = energy_levels(table)
        np.testing.assert_array_equal(levels[index], table)
        assert np.all(np.diff(levels) > 0)
        assert index.shape == table.shape

    def test_index_dtype_is_the_smallest_unsigned_that_fits(self):
        table = energy_table(maxcut_problem(generate_random_graph(12, 0.5, seed=7)))
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
        table = energy_table(maxcut_problem(g))
        levels, index = energy_levels(table)
        np.testing.assert_array_equal(levels, table.min() + np.arange(levels.size))
        assert levels[-1] == table.max()
        assert_same_phases((levels, index), unique_energy_levels(table))

    def test_table_with_gaps(self):
        # A triangle cuts 0 or 2 edges, never 1; K4 cuts 0, 3 or 4.
        for g in (K3, graph_from_pairs(4, list(itertools.combinations(range(4), 2)))):
            table = energy_table(maxcut_problem(g))
            levels, index = energy_levels(table)
            want_levels, _ = unique_energy_levels(table)
            assert levels.size > want_levels.size
            assert_same_phases((levels, index), unique_energy_levels(table))

    @pytest.mark.parametrize("table", [
        energy_table(random_ising(7, seed=71)),
        energy_table(IsingModel(1, offset=0.5)),
        np.array([0.0, 1.0, 0.5, 2.0]),
        np.concatenate([np.arange(1 << 16) % 7, [3.5]]),
        np.array([3.0, 0.0, float(1 << 16), 5.0, 3.0, 0.0, 1.0, 2.0]),
    ], ids=["real-weights", "half-offset", "half-entry", "half-entry-at-the-end", "span-2^16"])
    def test_other_tables_fall_back_to_sorting(self, table):
        levels, index = energy_levels(table)
        want_levels, want_index = unique_energy_levels(table)
        np.testing.assert_array_equal(levels, want_levels)
        np.testing.assert_array_equal(index, want_index)
        assert index.dtype == want_index.dtype
