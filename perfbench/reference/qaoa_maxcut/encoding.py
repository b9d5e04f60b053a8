"""Cost-function encodings: Max-Cut -> QUBO -> Ising.

Everything downstream minimizes. A Max-Cut instance becomes a QUBO with
f(x) = -cut(x): each edge (u, v, w) contributes -w to both diagonal
entries and +2w to the off-diagonal entry. The Ising form substitutes
x_i = (1 - z_i) / 2, i.e. bit 0 maps to spin z = +1 and bit 1 to
z = -1; constant offsets are carried exactly so Ising energies equal
QUBO values on every assignment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .graphs import Graph


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

    Built by strided adds over reshaped views, one pass per nonzero
    coefficient, so no index array is materialized.
    """
    size = 1 << m.n
    e = np.full(size, m.offset, dtype=np.float64)
    for i, hi in m.h.items():
        view = e.reshape(-1, 2, 1 << i)
        view[:, 0, :] += hi  # bit 0 -> z = +1
        view[:, 1, :] -= hi
    for (i, j), jij in m.J.items():
        view = e.reshape(-1, 2, 1 << (j - i - 1), 2, 1 << i)
        view[:, 0, :, 0, :] += jij  # equal bits -> z_i z_j = +1
        view[:, 1, :, 1, :] += jij
        view[:, 0, :, 1, :] -= jij
        view[:, 1, :, 0, :] -= jij
    return e


def _bits(assignment: Sequence[int] | str, n: int) -> tuple[int, ...]:
    bits = tuple(int(b) for b in assignment)
    if len(bits) != n:
        raise ValueError(f"assignment length {len(bits)} != n {n}")
    return bits
