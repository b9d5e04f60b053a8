"""Cost-function encodings: the Ising model, Max-Cut's Ising form, and
its energies on every assignment.

Everything downstream minimizes. A Max-Cut instance becomes the Ising
model of -cut (`maxcut_problem`), under the spin convention
z_i = 1 - 2 bit_i: bit 0 maps to spin z = +1 and bit 1 to z = -1.
Max-Cut's cost is ZZ couplings plus an offset, so `IsingModel` has no
fields: every energy, and so every QAOA amplitude, is unchanged when all
spins flip (the Z2 symmetry of Bravyi et al., arXiv:1910.08980).

`energy_blocks` is the one kernel that scores the assignments, in
blocks of a table split into a low and a high half of the spins. With
`even_only` it scores only the 2^(n-1) assignments with spin 0 at +1
(bit 0 clear); by the symmetry, each other assignment is the complement
of one of them and has its energy. The simulator's cost vector is that
half table as one block (`energy_table`: entry k is assignment 2k), and
`graphs.brute_force_optimum` takes its argmin block by block.
`energy_levels` reduces a table to ascending levels and a small
unsigned index per entry, which is how the simulator's phase separator
consumes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

# Tables whose integer levels span less than this take arithmetic levels
# in `energy_levels`, with an index of at most 2 bytes per entry.
_ARITHMETIC_SPAN = 1 << 16


@dataclass(frozen=True)
class IsingModel:
    """E(z) = sum_{i<j} J[i,j] z_i z_j + offset over z in {-1,+1}^n, so E(z) = E(-z)."""

    n: int
    J: dict[tuple[int, int], float] = field(default_factory=dict)
    offset: float = 0.0

    def __post_init__(self):
        for i, j in self.J:
            if not 0 <= i < j < self.n:
                raise ValueError(f"non-canonical J key ({i},{j}) for n={self.n}")


def maxcut_problem(g) -> IsingModel:
    """Standard Max-Cut problem of a `graphs.Graph`: the Ising form of
    -cut, to be minimized.

    -cut(z) = sum over edges of w (z_u z_v - 1) / 2, so J[u,v] = w/2 and
    the offset is -W/2.
    """
    J = {(u, v): w / 2.0 for u, v, w in g.edges}
    return IsingModel(g.num_nodes, J, -g.total_weight() / 2.0)


def as_bits(assignment: Sequence[int] | str, n: int) -> tuple[int, ...]:
    """An assignment as n bits; a wrong length or an entry other than 0
    or 1 raises ValueError."""
    if len(assignment) != n:
        raise ValueError(f"assignment length {len(assignment)} != {n} nodes")
    if any(b not in (0, 1, "0", "1") for b in assignment):
        raise ValueError("assignment entries must be 0 or 1")
    return tuple(int(b) for b in assignment)


def ising_energy(m: IsingModel, assignment: Sequence[int] | str) -> float:
    """Energy of a bit vector under the spin convention z_i = 1 - 2*bit_i."""
    z = [1 - 2 * bi for bi in as_bits(assignment, m.n)]
    e = m.offset
    for (i, j), jij in m.J.items():
        e += jij * z[i] * z[j]
    return e


def energy_table(m: IsingModel) -> np.ndarray:
    """Energies of the 2^(n-1) assignments with bit 0 clear: entry k is
    assignment 2k, little-endian (bit i of 2k = bit i of the assignment).

    `energy_blocks` with `even_only` as one block, flattened row-major.
    Every other assignment is the complement of one of these, with the
    same energy. A one-spin table is the offset alone.
    """
    if m.n < 2:
        return np.full(1, m.offset)
    ((_, table),) = energy_blocks(m, 1 << (m.n - 1), even_only=True)
    return table.ravel()


def energy_blocks(m: IsingModel, entries: int, even_only: bool = False) -> Iterator[tuple[int, np.ndarray]]:
    """(first row, block) pairs that tile the (2^(n-L), 2^L) energy table,
    in ascending row order, each block of as many whole rows as fit in
    `entries` (at least one).

    The spins split into a low half of L = n // 2 and a high half. Row r
    and column c of the table hold assignment r * 2^L + c: with Z_L and
    Z_H the +-1 spin rows of the half assignments, a block is the
    cross-half couplings as one product (Z_H @ J_LH^T) @ Z_L^T, plus each
    half's own energy z^T J z as a row and as a column, plus the offset.
    Integer and half-integer energies are exact in any summation order,
    so Max-Cut tables of unit-weight graphs equal the edge-by-edge sum
    bit for bit.

    With `even_only`, a block keeps only the even columns, the
    assignments with bit 0 clear, as its columns (for n >= 2; a one-spin
    model has no low half).
    """
    low = m.n // 2
    J = np.zeros((m.n, m.n))
    for (i, j), jij in m.J.items():
        J[i, j] = jij
    z_low = _spin_rows(np.arange(0, 1 << low, 2 if even_only else 1), low)
    low_energy = _half_energies(z_low, J[:low, :low])
    cross = J[:low, low:].T
    high_rows = 1 << (m.n - low)
    rows = max(1, entries // len(z_low))
    for start in range(0, high_rows, rows):
        z_high = _spin_rows(np.arange(start, min(start + rows, high_rows)), m.n - low)
        block = (z_high @ cross) @ z_low.T
        block += low_energy
        block += _half_energies(z_high, J[low:, low:])[:, None]
        block += m.offset
        yield start, block


def _spin_rows(indices: np.ndarray, width: int) -> np.ndarray:
    """+-1 matrix whose row r holds the spins z = 1 - 2 bit of the `width`
    low bits of indices[r]."""
    return 1.0 - 2.0 * ((indices[:, None] >> np.arange(width)) & 1)


def _half_energies(z: np.ndarray, J: np.ndarray) -> np.ndarray:
    """z^T J z for each spin row z, with J strictly upper triangular."""
    return ((z @ J) * z).sum(axis=1)


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

