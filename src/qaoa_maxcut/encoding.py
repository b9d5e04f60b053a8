"""Cost-function encodings: Max-Cut -> QUBO -> Ising.

Everything downstream minimizes. A Max-Cut instance becomes a QUBO with
f(x) = -cut(x): each edge (u, v, w) contributes -w to both diagonal
entries and +2w to the off-diagonal entry. The Ising form substitutes
x_i = (1 - z_i) / 2, i.e. bit 0 maps to spin z = +1 and bit 1 to
z = -1; constant offsets are carried exactly so Ising energies equal
QUBO values on every assignment.

`energy_table` tabulates an Ising model's energy on all 2^n
assignments: the spins split into a low and a high half, and the table
is the cross-half couplings as one blocked matrix product plus each
half's own energies as a row and a column. `energy_levels` reduces a
table to its distinct energies and a small unsigned index per entry,
which is how the simulator's phase separator consumes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .graphs import Graph, _bit_rows


@dataclass(frozen=True)
class Qubo:
    """Minimize sum_{i<=j} coeffs[i,j] x_i x_j + offset over binary x."""

    n: int
    coeffs: dict[tuple[int, int], float] = field(default_factory=dict)
    offset: float = 0.0

    def __post_init__(self):
        for i, j in self.coeffs:
            if not 0 <= i <= j < self.n:
                raise ValueError(f"non-canonical QUBO key ({i},{j}) for n={self.n}")


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


def maxcut_to_qubo(g: Graph) -> Qubo:
    """QUBO whose minimum is the negated maximum cut: f(x) = -cut(x)."""
    coeffs: dict[tuple[int, int], float] = {}
    for u, v, w in g.edges:
        coeffs[(u, u)] = coeffs.get((u, u), 0.0) - w
        coeffs[(v, v)] = coeffs.get((v, v), 0.0) - w
        coeffs[(u, v)] = coeffs.get((u, v), 0.0) + 2.0 * w
    return Qubo(g.num_nodes, coeffs, 0.0)


def qubo_to_ising(q: Qubo) -> IsingModel:
    """Exact change of variables x_i = (1 - z_i)/2; zero coefficients are pruned."""
    h = {i: 0.0 for i in range(q.n)}
    J: dict[tuple[int, int], float] = {}
    offset = q.offset
    for (i, j), c in q.coeffs.items():
        if i == j:
            # c*x_i = c/2 - (c/2) z_i
            h[i] -= c / 2.0
            offset += c / 2.0
        else:
            # c*x_i*x_j = c/4 (1 - z_i - z_j + z_i z_j)
            quarter = c / 4.0
            h[i] -= quarter
            h[j] -= quarter
            J[(i, j)] = J.get((i, j), 0.0) + quarter
            offset += quarter
    return IsingModel(
        q.n,
        {i: v for i, v in h.items() if v != 0.0},
        {k: v for k, v in J.items() if v != 0.0},
        offset,
    )


def qubo_energy(q: Qubo, assignment: Sequence[int] | str) -> float:
    x = _bits(assignment, q.n)
    return sum(c * x[i] * x[j] for (i, j), c in q.coeffs.items()) + q.offset


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
    """(levels, index) with levels[index] == table: the distinct energies,
    ascending, and each entry's position among them in the smallest
    unsigned dtype that holds it.

    A unit-weight Max-Cut table has at most one more level than the
    graph has edges, so a phase separator can exponentiate the levels
    once and gather per entry.
    """
    levels, index = np.unique(table, return_inverse=True)
    return levels, index.astype(np.min_scalar_type(levels.size - 1))


def _bits(assignment: Sequence[int] | str, n: int) -> tuple[int, ...]:
    bits = tuple(int(b) for b in assignment)
    if len(bits) != n:
        raise ValueError(f"assignment length {len(bits)} != n {n}")
    return bits
