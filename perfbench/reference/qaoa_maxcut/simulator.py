"""Dense statevector simulation with seeded shot sampling.

State layout is a flat complex128 array of 2^n amplitudes in
little-endian order: bit i of the basis-state index is qubit i, so
index = sum_i bit_i << i, matching the assignment encoding in
`graphs`/`encoding`. Bitstring keys in `Counts` follow the same
convention positionally: character i of the key is qubit i's bit.

Gate kernels never form operator matrices. Single-qubit kernels act on
a (blocks, 2, stride) view of the state where the middle axis is the
target bit; two-qubit kernels use a (blocks, 2, mid, 2, stride) view
exposing both bits. Diagonal gates (RZ, RZZ) are pure phase multiplies,
CX is a strided swap, and H/RX mix amplitude pairs. Memory is the state
itself plus one temporary slice, so ~26 qubits (1 GiB of amplitudes) is
the practical ceiling; `simulate` refuses wider circuits up front.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import Barrier, Circuit, Gate
from .encoding import IsingModel, energy_table

DEFAULT_MAX_QUBITS = 26

_SQRT_HALF = math.sqrt(0.5)


class CapacityError(ValueError):
    """Circuit width exceeds the configured simulator maximum."""


@dataclass(frozen=True)
class Counts:
    """Measurement histogram: bitstring -> count, with the shot total."""

    counts: dict[str, int]
    total: int
    num_qubits: int

    def __post_init__(self):
        if sum(self.counts.values()) != self.total:
            raise ValueError("counts do not sum to total")
        for key, c in self.counts.items():
            if len(key) != self.num_qubits or set(key) - {"0", "1"}:
                raise ValueError(f"invalid bitstring key {key!r}")
            if c < 0:
                raise ValueError(f"negative count for {key!r}")


def num_qubits_of(state: np.ndarray) -> int:
    n = int(round(math.log2(state.size)))
    if 1 << n != state.size:
        raise ValueError(f"state length {state.size} is not a power of two")
    return n


def zero_state(num_qubits: int) -> np.ndarray:
    state = np.zeros(1 << num_qubits, dtype=np.complex128)
    state[0] = 1.0
    return state


def simulate(c: Circuit, max_qubits: int = DEFAULT_MAX_QUBITS) -> np.ndarray:
    """Amplitudes of U_c |0...0>."""
    if c.num_qubits > max_qubits:
        need_gib = (1 << c.num_qubits) * 16 / 2**30
        raise CapacityError(
            f"{c.num_qubits} qubits exceeds the {max_qubits}-qubit limit "
            f"(statevector alone would need {need_gib:.1f} GiB)"
        )
    state = zero_state(c.num_qubits)
    for g in c.gates:
        if not isinstance(g, Barrier):
            apply_gate(state, g)
    return state


def apply_gate(state: np.ndarray, g: Gate) -> None:
    """Apply one gate in place."""
    if g.kind == "H":
        view = _single(state, g.qubits[0])
        a = view[:, 0, :].copy()
        b = view[:, 1, :]
        view[:, 0, :] = (a + b) * _SQRT_HALF
        view[:, 1, :] = (a - b) * _SQRT_HALF
    elif g.kind == "RX":
        cos = math.cos(g.angle / 2.0)
        msin = -1j * math.sin(g.angle / 2.0)
        view = _single(state, g.qubits[0])
        a = view[:, 0, :].copy()
        b = view[:, 1, :]
        view[:, 0, :] = cos * a + msin * b
        view[:, 1, :] = msin * a + cos * b
    elif g.kind == "RZ":
        view = _single(state, g.qubits[0])
        view[:, 0, :] *= np.exp(-0.5j * g.angle)
        view[:, 1, :] *= np.exp(0.5j * g.angle)
    elif g.kind == "RZZ":
        view, a_axis, b_axis = _pair(state, g.qubits[0], g.qubits[1])
        same = np.exp(-0.5j * g.angle)
        diff = np.exp(0.5j * g.angle)
        view[_idx(a_axis, 0, b_axis, 0)] *= same
        view[_idx(a_axis, 1, b_axis, 1)] *= same
        view[_idx(a_axis, 0, b_axis, 1)] *= diff
        view[_idx(a_axis, 1, b_axis, 0)] *= diff
    elif g.kind == "CX":
        control, target = g.qubits
        view, c_axis, t_axis = _pair(state, control, target)
        lo = view[_idx(c_axis, 1, t_axis, 0)].copy()
        view[_idx(c_axis, 1, t_axis, 0)] = view[_idx(c_axis, 1, t_axis, 1)]
        view[_idx(c_axis, 1, t_axis, 1)] = lo
    else:  # pragma: no cover - Gate validation forbids this
        raise ValueError(f"unsupported gate {g.kind}")


def _single(state: np.ndarray, q: int) -> np.ndarray:
    return state.reshape(-1, 2, 1 << q)


def _pair(state: np.ndarray, qa: int, qb: int) -> tuple[np.ndarray, int, int]:
    """5-axis view exposing bits qa and qb; returns (view, axis_of_qa, axis_of_qb)."""
    hi, lo = (qa, qb) if qa > qb else (qb, qa)
    view = state.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
    return (view, 1, 3) if qa == hi else (view, 3, 1)


def _idx(axis_a: int, bit_a: int, axis_b: int, bit_b: int):
    sl: list = [slice(None)] * 5
    sl[axis_a] = bit_a
    sl[axis_b] = bit_b
    return tuple(sl)


def probabilities(state: np.ndarray) -> np.ndarray:
    return np.abs(state) ** 2


def expectation_diagonal(state: np.ndarray, m: IsingModel) -> float:
    """<state| C |state> for the diagonal cost C, summed over all basis states."""
    if num_qubits_of(state) != m.n:
        raise ValueError(f"state has {num_qubits_of(state)} qubits, model has {m.n}")
    return float(probabilities(state) @ energy_table(m))


def sample_index_counts(state: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """Multinomial shot counts per basis-state index.

    Inverse-CDF sampling: `shots` uniforms from numpy's PCG64 seeded
    with `seed` are placed into the cumulative probability vector.
    Deterministic for a fixed seed. Probabilities are renormalized to
    absorb float drift in the state norm.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    probs = probabilities(state)
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    rng = np.random.default_rng(seed)
    draws = rng.random(shots)
    indices = np.searchsorted(cdf, draws, side="right")
    return np.bincount(indices, minlength=state.size)


def sample(state: np.ndarray, shots: int, seed: int) -> Counts:
    """Shot-sampled measurement histogram in the computational basis."""
    n = num_qubits_of(state)
    idx_counts = sample_index_counts(state, shots, seed)
    counts = {
        index_to_bitstring(int(z), n): int(c)
        for z, c in enumerate(idx_counts)
        if c > 0
    }
    return Counts(counts, shots, n)


def index_to_bitstring(index: int, num_qubits: int) -> str:
    """Little-endian positional key: character i is qubit i's bit."""
    return "".join("1" if (index >> q) & 1 else "0" for q in range(num_qubits))


def bitstring_to_index(key: str) -> int:
    return sum(1 << q for q, ch in enumerate(key) if ch == "1")
