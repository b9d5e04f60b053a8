"""Per-amplitude and per-shot working set of a QAOA run, pinned with
tracemalloc.

Every figure counts what a call allocates while it runs, in bytes per
amplitude of its 2^n-long arrays or per shot. The memory gate of
`run_benchmark` budgets each worker by `bench.BYTES_PER_AMPLITUDE`, the
bound of the `run_qaoa` test, and `bench.BYTES_PER_SHOT`, the bound of
the per-shot `sample` test.
"""

import tracemalloc

import numpy as np
import pytest
from oracles import random_state

from qaoa_maxcut.bench import BYTES_PER_AMPLITUDE, BYTES_PER_SHOT
from qaoa_maxcut.encoding import energy_levels, energy_table
from qaoa_maxcut.engine import EXACT, SAMPLED, QaoaConfig, QaoaObjective, build_ansatz, run_qaoa
from qaoa_maxcut.graphs import generate_random_graph
from qaoa_maxcut.seeding import mix64
from qaoa_maxcut.simulator import sample, simulate


def mc(n):
    return generate_random_graph(n, 0.5, mix64(11, n))


def peak_per_amplitude(n, call, *args):
    """Peak bytes allocated during call(*args), per amplitude of n qubits.

    The call runs once on its own first, so one-off allocations of a
    first call (caches, lazy set-up) do not count.
    """
    call(*args)
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1] / (1 << n)
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("mode", [EXACT, SAMPLED], ids=["exact_expectation", "sampled_expectation"])
def test_run_qaoa_stays_within_the_gate_figure(mode):
    # The fixed few MiB of slice temporaries still show at n = 18.
    config = QaoaConfig(layers=1, budget=4, mode=mode, seed=3, strategy="scheduled")
    assert peak_per_amplitude(18, run_qaoa, mc(18), config, 1.0) <= BYTES_PER_AMPLITUDE


@pytest.mark.parametrize("mode", [EXACT, SAMPLED], ids=["exact_expectation", "sampled_expectation"])
def test_objective_evaluation_holds_half_a_state(mode):
    # The half state is 8 bytes per amplitude of the 2^n-long state, and
    # its probabilities or CDF another 4.
    objective = QaoaObjective(mc(20), QaoaConfig(layers=1, mode=mode, seed=3))
    assert peak_per_amplitude(20, objective, [0.3, 0.7]) <= 13


def test_energy_table_holds_little_beyond_its_table():
    # The float64 table is 4 bytes per amplitude of the 2^n-long state; a
    # float32 product widened after it would add 2 more.
    g = mc(20)
    assert peak_per_amplitude(20, energy_table, g) <= 4.5


def test_energy_levels_adds_little_beyond_its_table():
    table = energy_table(mc(20))
    assert peak_per_amplitude(20, energy_levels, table) <= 10


def test_sample_adds_little_beyond_its_state():
    state = random_state(20, 5)
    assert peak_per_amplitude(20, sample, state, 10_000, 7) <= 10


def test_sample_holds_the_gate_figure_per_shot():
    # Beside its CDF of 8 bytes per amplitude. 10k shots from a uniform
    # state of 2^20 amplitudes are nearly all distinct, as at the study's
    # widths, and a distinct outcome costs more than a repeated one.
    n, shots = 20, 10_000
    state = np.full(1 << n, 2 ** (-n / 2), dtype=complex)
    peak = peak_per_amplitude(n, sample, state, shots, 7) * (1 << n)
    assert (peak - (8 << n)) / shots <= BYTES_PER_SHOT


def test_simulate_holds_little_beyond_its_state():
    circuit = build_ansatz(mc(20), [0.3, 0.7], "scheduled")
    assert peak_per_amplitude(20, simulate, circuit) <= 18
