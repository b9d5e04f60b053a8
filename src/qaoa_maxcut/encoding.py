"""Cost-function encodings: the Ising model, its energy table and levels.

Everything downstream minimizes. A Max-Cut instance becomes the Ising
model of -cut (`engine.maxcut_problem`), under the spin convention
z_i = 1 - 2 bit_i: bit 0 maps to spin z = +1 and bit 1 to z = -1.

`energy_table` tabulates an Ising model's energy on all 2^n
assignments: the spins split into a low and a high half, and the table
is the cross-half couplings as one blocked matrix product plus each
half's own energies as a row and a column. `energy_levels` reduces a
table to ascending levels and a small unsigned index per entry, which
is how the simulator's phase separator consumes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .graphs import _bit_rows

# Tables whose integer levels span less than this take arithmetic levels
# in `energy_levels`, with an index of at most 2 bytes per entry.
_ARITHMETIC_SPAN = 1 << 16


@dataclass(frozen=True)
class IsingModel:
    """E(z) = sum_i h[i] z_i + sum_{i<j} J[i,j] z_i z_j + offset over z in {-1,+1}^n."""

    n: int
    h: dict[int, float] = field(default_factory=dict)
    J: dict[tuple[int, int], float] = field(default_factory=dict)
    offset: float = 0.0

    def __post_init__(self):
        for i in self.h:
            if not 0 <= i < self.n:
                raise ValueError(f"h index {i} out of range for n={self.n}")
        for i, j in self.J:
            if not 0 <= i < j < self.n:
                raise ValueError(f"non-canonical J key ({i},{j}) for n={self.n}")


def ising_energy(m: IsingModel, assignment: Sequence[int] | str) -> float:
    """Energy of a bit vector under the spin convention z_i = 1 - 2*bit_i."""
    b = _bits(assignment, m.n)
    z = [1 - 2 * bi for bi in b]
    e = m.offset
    for i, hi in m.h.items():
        e += hi * z[i]
    for (i, j), jij in m.J.items():
        e += jij * z[i] * z[j]
    return e


def energy_table(m: IsingModel) -> np.ndarray:
    """Energies of all 2^n assignments, indexed little-endian (bit i of the
    index = bit i of the assignment).

    The spins split into a low half of L = n // 2 and a high half. With
    Z_L and Z_H the +-1 spin rows of every half assignment, the table is
    a (2^(n-L), 2^L) array whose row is the high half's index and whose
    column is the low half's: the cross-half couplings as one product
    (Z_H @ J_LH^T) @ Z_L^T, plus each half's own energy h.z + z^T J z as
    a row and as a column, plus the offset. Flattened, row-major order
    is the little-endian index. Integer and half-integer energies are
    exact in any summation order, so Max-Cut tables of unit-weight
    graphs equal the edge-by-edge sum bit for bit.
    """
    low = m.n // 2
    h = np.zeros(m.n)
    for i, hi in m.h.items():
        h[i] = hi
    J = np.zeros((m.n, m.n))
    for (i, j), jij in m.J.items():
        J[i, j] = jij
    z_low = _spin_rows(low)
    z_high = _spin_rows(m.n - low)
    table = (z_high @ J[:low, low:].T) @ z_low.T
    table += _half_energies(z_low, h[:low], J[:low, :low])
    table += _half_energies(z_high, h[low:], J[low:, low:])[:, None]
    table += m.offset
    return table.ravel()


def _spin_rows(width: int) -> np.ndarray:
    """+-1 matrix whose row r holds the spins z = 1 - 2 bit of r's `width` low bits."""
    return 1.0 - 2.0 * _bit_rows(0, 1 << width, width)


def _half_energies(z: np.ndarray, h: np.ndarray, J: np.ndarray) -> np.ndarray:
    """h.z + z^T J z for each spin row z, with J strictly upper triangular."""
    return z @ h + ((z @ J) * z).sum(axis=1)


def energy_levels(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(levels, index) with levels[index] == table: ascending levels and
    each entry's position among them in the smallest unsigned dtype that
    holds it, so a phase separator can exponentiate the levels once and
    gather per entry.

    An integer-valued table whose span max - min is below 2^16, as every
    unit-weight Max-Cut table is, takes the arithmetic levels
    min, min + 1, ..., max, some of which may not occur, and the index
    table - min. Beside its output the call then holds one float64
    temporary, 8 bytes per entry. Any other table takes its distinct
    values from `np.unique`, which sorts a copy of the table and peaks at
    about 40 bytes per entry.
    """
    low, high = table.min(), table.max()
    span = high - low
    if span < _ARITHMETIC_SPAN and low == np.floor(low):
        shifted = table - low
        index = shifted.astype(np.min_scalar_type(int(span)))
        shifted -= index
        if not shifted.any():
            return low + np.arange(int(span) + 1), index
    levels, index = np.unique(table, return_inverse=True)
    return levels, index.astype(np.min_scalar_type(levels.size - 1))


def _bits(assignment: Sequence[int] | str, n: int) -> tuple[int, ...]:
    bits = tuple(int(b) for b in assignment)
    if len(bits) != n:
        raise ValueError(f"assignment length {len(bits)} != n {n}")
    return bits
