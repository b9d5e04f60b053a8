import itertools

import numpy as np
import pytest
from oracles import (
    circuit_unitary,
    diagonal_after_h_layer,
    mirror_step,
    one_qubit_gate,
    random_circuit,
    random_state,
    rzz_gate,
    sample_index_counts,
    simulate_full_width,
)

from qaoa_maxcut.circuits import Barrier, Circuit, Gate, build_qaoa_ansatz, decompose
from qaoa_maxcut.encoding import energy_levels, energy_table
from qaoa_maxcut import simulator
from qaoa_maxcut.graphs import Graph, generate_random_graph
from qaoa_maxcut.seeding import mix64
from qaoa_maxcut.simulator import (
    DEFAULT_MAX_QUBITS,
    CapacityError,
    Counts,
    qaoa_state,
    sample,
    simulate,
)

# The gate kinds of `build_qaoa_ansatz`, the only ones `simulate` runs.
ANSATZ_KINDS = ("H", "RX", "RZZ")


class TestSimulate:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_unitary(self, n, seed):
        c = random_circuit(n, 30, np.random.default_rng(100 * n + seed), ANSATZ_KINDS)
        np.testing.assert_allclose(simulate(c), circuit_unitary(c)[:, 0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("slice_size", [1, 2, 4, 8])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_small_slices_match_dense_unitary(self, n, slice_size, monkeypatch):
        # Slices this small cut the axes on both sides of a gate's bits.
        monkeypatch.setattr(simulator, "_SLICE", slice_size)
        for seed in range(3):
            c = random_circuit(n, 30, np.random.default_rng(1000 * slice_size + 10 * n + seed), ANSATZ_KINDS)
            np.testing.assert_allclose(simulate(c), circuit_unitary(c)[:, 0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [16, 17])
    def test_diagonal_gates_across_the_run_width_match_the_phase_oracle(self, n):
        # With runs of 2^15 amplitudes, qubits from 15 up select a run.
        assert simulator._SLICE == 1 << 15
        rng = np.random.default_rng(n)
        diagonal = [Gate("RZZ", (3, 15), -1.3), Gate("RZZ", (15, 0), 2.1)]
        if n == 17:
            diagonal += [Gate("RZZ", (16, 15), 1.7), Gate("RZZ", (7, 16), 0.6)]
        for _ in range(40):
            qubits = tuple(map(int, rng.choice(n, 2, replace=False)))
            diagonal.append(Gate("RZZ", qubits, float(rng.uniform(-2 * np.pi, 2 * np.pi))))
        c = Circuit(n, tuple(Gate("H", (q,)) for q in range(n)) + tuple(diagonal))
        np.testing.assert_allclose(simulate(c), diagonal_after_h_layer(n, diagonal), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("slice_size", [1, 4, 1 << 6])
    @pytest.mark.parametrize("n", [6, 16])
    def test_small_slices_give_the_same_state(self, n, slice_size, monkeypatch):
        rng = np.random.default_rng(10 * n + slice_size)
        boundary = (Gate("H", (n - 1,)), Gate("RZZ", (2, n - 1), 0.4), Gate("RX", (n - 1,), 1.1))
        c = Circuit(n, random_circuit(n, 60 if n == 6 else 12, rng, ANSATZ_KINDS).gates + boundary)
        want = simulate(c)
        monkeypatch.setattr(simulator, "_SLICE", slice_size)
        np.testing.assert_array_equal(simulate(c), want)

    def test_one_qubit_circuit_has_only_one_qubit_gates(self):
        c = random_circuit(1, 50, np.random.default_rng(0))
        assert {g.kind for g in c.gates} <= {"H", "RX", "RZ"}

    @pytest.mark.parametrize("circuit, kind", [
        (Circuit(2, (Gate("H", (0,)), Gate("CX", (0, 1)))), "CX"),
        (Circuit(2, (Gate("RX", (1,), 0.3), Gate("RZ", (0,), 0.5))), "RZ"),
        # The compiled circuit is H on every qubit, then CX, RZ, CX per edge.
        (decompose(build_qaoa_ansatz(Graph(3, ((0, 1, 1.0), (1, 2, 1.0))), [0.4], [0.2], "naive")),
         "CX"),
    ], ids=["CX", "RZ", "decomposed_ansatz"])
    def test_refuses_gates_outside_the_ansatz(self, circuit, kind):
        with pytest.raises(ValueError, match=f"cannot simulate a {kind} gate: .* only the ansatz's H, RX and RZZ"):
            simulate(circuit)

    def test_barrier_is_identity(self):
        gates = (Gate("H", (0,)), Gate("RZZ", (0, 1), 0.7), Gate("RX", (1,), 0.3))
        plain = Circuit(2, gates)
        fenced = Circuit(2, (gates[0], Barrier(), gates[1], Barrier(), gates[2]))
        np.testing.assert_array_equal(simulate(plain), simulate(fenced))

    def test_refuses_too_wide_before_allocating(self):
        with pytest.raises(CapacityError, match=f"{DEFAULT_MAX_QUBITS}-qubit limit"):
            simulate(Circuit(DEFAULT_MAX_QUBITS + 1))


class TestPairKernels:
    """`apply_gate`'s H/RX kernel, its RZZ kernel and the mirror step of
    `qaoa_state` equal their oracles bit for bit, for parts that cut the
    axes on both sides of the gate's bits and for whole-slice parts."""

    @pytest.mark.parametrize("slice_size", [1, 2, 4, 32, 1 << 15])
    @pytest.mark.parametrize("n", [1, 2, 5, 9, 12])
    def test_one_qubit_gates_equal_the_index_oracle(self, n, slice_size, monkeypatch):
        monkeypatch.setattr(simulator, "_SLICE", slice_size)
        rng = np.random.default_rng(n)
        state = random_state(n, n)
        for q in range(n):
            angle = float(rng.uniform(-2 * np.pi, 2 * np.pi))
            for g in (Gate("H", (q,)), Gate("RX", (q,), angle), Gate("RX", (q,), np.pi)):
                got = state.copy()
                simulator.apply_gate(got, g)
                np.testing.assert_array_equal(got, one_qubit_gate(state, g))

    @pytest.mark.parametrize("slice_size", [1, 4, 1 << 6, 1 << 15])
    @pytest.mark.parametrize("n", [2, 5, 9, 16, 17])
    def test_rzz_equals_the_parity_oracle(self, n, slice_size, monkeypatch):
        # Runs of 2, 4, 64 and 2^15 amplitudes: a pair has both qubits
        # below the run width, one, or none. Every pair runs, except at
        # runs of 2 and 4 amplitudes for n >= 16, where one gate takes up
        # to 66 ms in its per-run loop: there the pairs are one of each
        # kind, at both ends of the register.
        monkeypatch.setattr(simulator, "_SLICE", slice_size)
        rng = np.random.default_rng(n + slice_size)
        state = random_state(n, 50 + n)
        pairs = list(itertools.combinations(range(n), 2))
        if n >= 16 and slice_size < 64:
            pairs = [(0, 1), (0, 15), (1, n - 1), (2, 3), (14, 15), (n - 2, n - 1)]
        for k, (u, v) in enumerate(pairs):
            g = Gate("RZZ", (u, v) if k % 2 else (v, u), float(rng.uniform(-2 * np.pi, 2 * np.pi)))
            got = state.copy()
            simulator.apply_gate(got, g)
            np.testing.assert_array_equal(got, rzz_gate(state, g))

    @pytest.mark.parametrize("slice_size", [1, 2, 4, 32, 1 << 15])
    @pytest.mark.parametrize("size", [1, 2, 4, 1 << 11])
    def test_mirror_equals_the_whole_array_oracle(self, size, slice_size, monkeypatch):
        monkeypatch.setattr(simulator, "_SLICE", slice_size)
        half = random_state(size.bit_length() - 1, size)
        for beta in np.random.default_rng(size).uniform(-np.pi, np.pi, 3):
            got = half.copy()
            simulator._apply_mirror(got, beta)
            np.testing.assert_array_equal(got, mirror_step(half, beta))


def reaching_circuit(n: int, order, rng: np.random.Generator) -> Circuit:
    """H on each qubit of `order` in turn, each followed by an RX on it and
    an RZZ between it and a qubit reached before, so the highest qubit
    reached grows as `order` climbs; then a few random gates below the
    highest qubit of `order`."""
    gates, reached = [], []
    for q in map(int, order):
        gates += [Gate("H", (q,)), Gate("RX", (q,), float(rng.uniform(-np.pi, np.pi)))]
        if reached:
            gates.append(Gate("RZZ", (q, int(rng.choice(reached))), float(rng.uniform(-np.pi, np.pi))))
        reached.append(q)
    tail = random_circuit(1 + max(reached), 6, rng, ANSATZ_KINDS).gates
    return Circuit(n, tuple(gates) + tail)


class TestReachedWidth:
    """`simulate` applies an H or RX that first reaches a qubit to the
    amplitudes of the qubits reached so far, and every other gate to the
    whole state; the oracle applies every gate to the whole state. They
    must agree bit for bit."""

    @pytest.mark.parametrize("slice_size", [1, 4, 1 << 6])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_random_circuits_match_full_width(self, n, slice_size, monkeypatch):
        monkeypatch.setattr(simulator, "_SLICE", slice_size)
        for seed in range(3):
            rng = np.random.default_rng(100 * slice_size + 10 * n + seed)
            c = random_circuit(n, 40, rng, ANSATZ_KINDS)
            np.testing.assert_array_equal(simulate(c), simulate_full_width(c))
            c = reaching_circuit(n, range(n), rng)
            np.testing.assert_array_equal(simulate(c), simulate_full_width(c))

    @pytest.mark.parametrize("n", [16, 17])
    def test_across_the_run_width(self, n):
        # With runs of 2^15 amplitudes, the reached width crosses a run.
        assert simulator._SLICE == 1 << 15
        c = reaching_circuit(n, range(n), np.random.default_rng(n))
        np.testing.assert_array_equal(simulate(c), simulate_full_width(c))

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_first_gate_on_the_top_qubit(self, n):
        rng = np.random.default_rng(n)
        c = reaching_circuit(n, [n - 1, *range(n - 1)], rng)
        assert c.gates[0].qubits == (n - 1,)
        np.testing.assert_array_equal(simulate(c), simulate_full_width(c))

    @pytest.mark.parametrize("n", [4, 7, 16])
    def test_shuffled_first_touches(self, n):
        rng = np.random.default_rng(10 + n)
        c = reaching_circuit(n, rng.permutation(n), rng)
        np.testing.assert_array_equal(simulate(c), simulate_full_width(c))

    @pytest.mark.parametrize("angle", ["random", "pi"])
    @pytest.mark.parametrize("slice_size", [1, 4, 1 << 6])
    @pytest.mark.parametrize("n", [4, 16, 17])
    def test_rx_first_touches(self, n, slice_size, angle, monkeypatch):
        # The first gate on each qubit is an RX, at a random angle or at
        # pi, where m00 = cos(pi/2) is about 6e-17, not 0. The first
        # touches skip qubits, and a later one falls below the reached
        # width. Only values are pinned: a first touch may give a zero
        # the other sign than the full-width kernel.
        rng = np.random.default_rng(30 + n)
        gates, reached = [], []
        for q in [1, 3, 0, 2] if n == 4 else [2, 0, 9, n - 1]:
            theta = np.pi if angle == "pi" else float(rng.uniform(-2 * np.pi, 2 * np.pi))
            gates.append(Gate("RX", (q,), theta))
            if reached:
                gates.append(Gate("RZZ", (q, int(rng.choice(reached))), float(rng.uniform(-np.pi, np.pi))))
            reached.append(q)
        c = Circuit(n, tuple(gates))
        # The oracle runs at the default slicing, which gives the same
        # state as any other (TestSimulate); at runs of 1 or 4 amplitudes
        # one full-width RX at n = 17 takes up to half a second.
        want = simulate_full_width(c)
        monkeypatch.setattr(simulator, "_SLICE", slice_size)
        np.testing.assert_array_equal(simulate(c), want)

    @pytest.mark.parametrize("n", [2, 6, 16])
    def test_untouched_top_qubit_leaves_the_upper_half_zero(self, n):
        c = reaching_circuit(n, range(n - 1), np.random.default_rng(20 + n))
        assert max(q for g in c.gates for q in g.qubits) == n - 2
        state = simulate(c)
        np.testing.assert_array_equal(state, simulate_full_width(c))
        assert np.all(state[1 << (n - 1) :] == 0)
        assert np.any(state[: 1 << (n - 1)] != 0)

    @pytest.mark.parametrize("strategy", ["naive", "scheduled"])
    @pytest.mark.parametrize("p", [1, 3])
    @pytest.mark.parametrize("n", [16, 17, 18])
    def test_ansatz_matches_full_width(self, n, p, strategy):
        # MC_<n> as `generate --seed 11` writes it.
        g = generate_random_graph(n, 0.5, mix64(11, n))
        gammas, betas = np.random.default_rng(n + p).uniform(-np.pi, np.pi, size=(2, p)).tolist()
        c = build_qaoa_ansatz(g, gammas, betas, strategy)
        np.testing.assert_array_equal(simulate(c), simulate_full_width(c))


class TestSlices:
    @pytest.mark.parametrize("slice_size", [1, 2, 4, 8, 32, 1 << 15])
    @pytest.mark.parametrize("shape", [
        (8, 2, 4), (1, 2, 64), (64, 2, 1), (4, 16, 2), (2, 2, 4, 2, 4), (1, 2, 32, 2, 1), (16, 2, 1, 2, 2),
    ])
    def test_parts_tile_the_view_once_with_odd_axes_whole(self, shape, slice_size, monkeypatch):
        monkeypatch.setattr(simulator, "_SLICE", slice_size)
        view = np.zeros(shape)
        core = int(np.prod(shape[1::2]))
        for part in simulator._slices(view):
            assert part.shape[1::2] == shape[1::2]
            assert part.size <= max(slice_size, core)
            part += 1
        np.testing.assert_array_equal(view, 1)


def random_graph(n: int, weighted: bool, rng: np.random.Generator) -> Graph:
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6]
    return Graph(n, tuple((u, v, float(rng.integers(1, 9)) if weighted else 1.0) for u, v in pairs))


class TestQaoaState:
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_gate_level_ansatz(self, n, weighted):
        rng = np.random.default_rng(10 * n + weighted)
        g = random_graph(n, weighted, rng)
        levels, index = energy_levels(energy_table(g))
        for p in range(1, 6):
            gammas, betas = rng.uniform(-np.pi, np.pi, size=(2, p)).tolist()
            want = simulate(build_qaoa_ansatz(g, gammas, betas, "naive"))
            # The circuit drops the cost offset -W/2, a global phase of
            # exp(-i gamma offset) per layer.
            got = qaoa_state(levels, index, gammas, betas) * np.exp(-0.5j * sum(gammas) * g.total_weight())
            # The half holds the even entries; read backwards, the odd ones.
            np.testing.assert_allclose(got, want[::2], rtol=0, atol=1e-12)
            np.testing.assert_allclose(got[::-1], want[1::2], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("slice_size", [2, 16, 64, 256, 1 << 12])
    @pytest.mark.parametrize("n", [9, 17, 18])
    def test_small_slices_give_the_same_state(self, n, slice_size, monkeypatch):
        rng = np.random.default_rng(slice_size + n)
        levels, index = energy_levels(energy_table(random_graph(n, False, rng)))
        gammas, betas = rng.uniform(-np.pi, np.pi, size=(2, 3)).tolist()
        want = qaoa_state(levels, index, gammas, betas)
        monkeypatch.setattr(simulator, "_SLICE", slice_size)
        got = qaoa_state(levels, index, gammas, betas)
        if slice_size >= 64:
            np.testing.assert_array_equal(got, want)
        else:
            # Slices of fewer than four mixer blocks round differently.
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_zero_layers_is_uniform_superposition(self):
        # Eight half entries are the state of four qubits.
        state = qaoa_state(*energy_levels(np.arange(8.0)), [], [])
        np.testing.assert_allclose(state, np.full(8, 16**-0.5), rtol=0, atol=1e-15)

    def test_rejects_mismatched_angles(self):
        with pytest.raises(ValueError, match="gammas"):
            qaoa_state(np.zeros(1), np.zeros(4, dtype=np.uint8), [0.1, 0.2], [0.3])

    def test_refuses_too_wide_before_allocating(self):
        # A zero-stride view: the index's length without its memory. A
        # half index of 2^k entries is a state of k + 1 qubits.
        index = np.broadcast_to(np.zeros(1, dtype=np.uint8), 1 << DEFAULT_MAX_QUBITS)
        with pytest.raises(CapacityError, match=f"{DEFAULT_MAX_QUBITS}-qubit limit"):
            qaoa_state(np.zeros(1), index, [0.1], [0.2])


class TestSample:
    def test_histogram_is_index_keyed(self):
        state = random_state(6, 1)
        counts = sample(state, 5000, seed=7)
        dense = sample_index_counts(state, 5000, seed=7)
        assert counts.total == 5000 and counts.num_qubits == 6
        assert np.all(np.diff(counts.indices) > 0)
        np.testing.assert_array_equal(counts.indices, np.flatnonzero(dense))
        np.testing.assert_array_equal(counts.counts, dense[counts.indices])
        assert len(counts.counts) == np.count_nonzero(dense)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_equals_dense_counts(self, n):
        state = 3.0 * random_state(n, 40 + n)  # unnormalized: both renormalize the CDF
        counts = sample(state, 3000, seed=n)
        dense = sample_index_counts(state, 3000, seed=n)
        np.testing.assert_array_equal(counts.indices, np.flatnonzero(dense))
        np.testing.assert_array_equal(counts.counts, dense[counts.indices])
        assert counts.indices.dtype == counts.counts.dtype == dense.dtype

    def test_seeded_draws_replay(self):
        state = random_state(5, 2)
        a, b, c = sample(state, 1000, 3), sample(state, 1000, 3), sample(state, 1000, 4)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.counts, b.counts)
        assert not (np.array_equal(a.indices, c.indices) and np.array_equal(a.counts, c.counts))

    def test_basis_state_takes_every_shot(self):
        state = np.zeros(8, dtype=complex)
        state[5] = 1j
        counts = sample(state, 100, 0)
        assert counts.indices.tolist() == [5] and counts.counts.tolist() == [100]

    def test_frequencies_follow_probabilities(self):
        state = random_state(3, 3)
        counts = sample(state, 200_000, 11)
        freq = np.zeros(8)
        freq[counts.indices] = counts.counts / counts.total
        np.testing.assert_allclose(freq, np.abs(state) ** 2, atol=5e-3)

    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError, match="shots"):
            sample(random_state(2, 0), 0, 0)


class TestCounts:
    def make(self, indices, counts, total, n=3):
        return Counts(np.array(indices), np.array(counts), total, n)

    def test_accepts_valid(self):
        c = self.make([0, 3, 7], [1, 2, 3], 6)
        assert len(c.counts) == 3

    def test_rejects_wrong_total(self):
        with pytest.raises(ValueError, match="sum"):
            self.make([0, 1], [1, 1], 3)

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValueError, match="positive"):
            self.make([0, 1], [2, 0], 2)

    def test_rejects_unsorted_or_repeated_indices(self):
        with pytest.raises(ValueError, match="ascending"):
            self.make([3, 1], [1, 1], 2)
        with pytest.raises(ValueError, match="ascending"):
            self.make([1, 1], [1, 1], 2)

    @pytest.mark.parametrize("index", [-1, 8])
    def test_rejects_out_of_range_index(self, index):
        with pytest.raises(ValueError, match="out of range"):
            self.make([index], [1], 1)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError, match="one length"):
            self.make([0, 1], [2], 2)
