import numpy as np
import pytest
from oracles import circuit_unitary, random_circuit, random_state

from qaoa_maxcut.circuits import Barrier, Circuit, Gate
from qaoa_maxcut.simulator import (
    DEFAULT_MAX_QUBITS,
    CapacityError,
    Counts,
    sample,
    sample_index_counts,
    simulate,
)


class TestSimulate:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_unitary(self, n, seed):
        c = random_circuit(n, 30, np.random.default_rng(100 * n + seed))
        np.testing.assert_allclose(simulate(c), circuit_unitary(c)[:, 0], rtol=0, atol=1e-12)

    def test_one_qubit_circuit_has_only_one_qubit_gates(self):
        c = random_circuit(1, 50, np.random.default_rng(0))
        assert {g.kind for g in c.gates} <= {"H", "RX", "RZ"}

    def test_barrier_is_identity(self):
        gates = (Gate("H", (0,)), Gate("RZZ", (0, 1), 0.7), Gate("RX", (1,), 0.3))
        plain = Circuit(2, gates)
        fenced = Circuit(2, (gates[0], Barrier(), gates[1], Barrier(), gates[2]))
        np.testing.assert_array_equal(simulate(plain), simulate(fenced))

    def test_refuses_too_wide_before_allocating(self):
        with pytest.raises(CapacityError, match=f"{DEFAULT_MAX_QUBITS}-qubit limit"):
            simulate(Circuit(DEFAULT_MAX_QUBITS + 1))


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
