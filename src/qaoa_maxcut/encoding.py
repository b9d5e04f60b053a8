"""Max-Cut's cost on every assignment, read straight off the graph.

Everything downstream minimizes the cost -cut. Under the spin convention
z_i = 1 - 2 bit_i (bit 0 maps to spin z = +1, bit 1 to z = -1),

    -cut(z) = sum over edges (u, v, w) of w (z_u z_v - 1) / 2,

ZZ couplings J[u, v] = w/2 plus the offset -W/2, W the total weight. The
cost has no fields, so every energy, and so every QAOA amplitude, is
unchanged when all spins flip (the Z2 symmetry of Bravyi et al.,
arXiv:1910.08980).

`energy_factors` is the one kernel that scores the assignments: two
float32 factors, one per half of the spins, whose product is the table,
exact as its docstring shows. It scores only the 2^(n-1) assignments
with spin 0 at +1 (bit 0 clear); by the symmetry, each other assignment
is the complement of one of them and has its energy. The simulator's
cost vector is the whole product widened to float64 (`energy_table`:
entry k is assignment 2k), and `graphs.brute_force_optimum` takes its
argmin over float32 products of row slices. `energy_levels` reduces a
table to ascending levels and a small unsigned index per entry, which is
how the simulator's phase separator consumes it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .graphs import Graph


def energy_table(g: Graph) -> np.ndarray:
    """-cut of the 2^(n-1) assignments with bit 0 clear: entry k is
    assignment 2k, little-endian (bit i of 2k = bit i of the assignment).

    The product of `energy_factors`, widened to float64 inside the
    product and flattened row-major. Beside the table, 4 bytes per
    amplitude of the 2^n-long state, the call holds only the factors and
    their float64 copies: tracemalloc reads 4.2 bytes per amplitude at
    n = 20. Every other assignment is the complement of one of these,
    with the same energy.
    """
    left, right = energy_factors(g)
    return np.matmul(left, right, dtype=np.float64).ravel()


def energy_factors(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """C-contiguous float32 (left, right) whose product left @ right is
    the half table as a (2^(n-L), 2^(L-1)) matrix: entry [r, c] is -cut
    of assignment r * 2^L + 2c, so row slices of `left` give whole rows
    of the table.

    The spins split into a low half of L = max(1, n // 2) and a high
    half. With Z_L the +-1 spin rows of the even low half assignments,
    Z_H those of the high half and E_L, E_H each half's energies z^T J z,
        right = [Z_L | E_L + offset | 1]^T, K = L + 2 rows, and
        left = [Z_H @ J_LH^T | 1 | E_H],
    so that each entry sums the cross-half couplings, the low half's
    energy with the offset and the high half's energy in one dot product.
    Every factor entry and partial sum is a multiple of 1/2 of magnitude
    at most 3W/2 < 2^17, W < `graphs.MAX_TOTAL_WEIGHT` = 2^16 the total
    weight, within float32's 24-bit significand, so products equal the
    edge-by-edge sum bit for bit in any order, in float32 as in float64.
    """
    n = g.num_nodes
    low = max(1, n // 2)
    J = np.zeros((n, n), dtype=np.float32)
    for u, v, w in g.edges:
        J[u, v] = w / 2.0
    offset = np.float32(-g.total_weight() / 2.0)
    z_low = _spin_rows(np.arange(0, 1 << low, 2), low)
    right = np.column_stack([z_low, _half_energies(z_low, J[:low, :low]) + offset, np.ones(len(z_low), np.float32)])
    right = np.ascontiguousarray(right.T)
    del z_low
    z_high = _spin_rows(np.arange(1 << (n - low)), n - low)
    left = np.column_stack([z_high @ J[:low, low:].T, np.ones(len(z_high), np.float32),
                            _half_energies(z_high, J[low:, low:])])
    return left, right


def _spin_rows(indices: np.ndarray, width: int) -> np.ndarray:
    """Float32 +-1 matrix: row r holds the spins z = 1 - 2 bit of the
    `width` <= 32 low bits of indices[r], from its little-endian bytes."""
    octets = indices.astype("<u4").view(np.uint8).reshape(-1, 4)
    return 1 - 2 * np.unpackbits(octets, axis=1, count=width, bitorder="little").astype(np.float32)


def _half_energies(z: np.ndarray, J: np.ndarray) -> np.ndarray:
    """z^T J z for each spin row z, with J strictly upper triangular."""
    return np.einsum("ij,ij->i", z @ J, z)


def energy_levels(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(levels, index) with levels[index] == table: ascending levels and
    each entry's position among them in the smallest unsigned dtype that
    holds it, so a phase separator can exponentiate the levels once and
    gather per entry.

    The table must be an energy table of a `Graph`: its entries are
    integers spanning at most the total weight, which is below
    `graphs.MAX_TOTAL_WEIGHT` = 2^16, so the levels are
    min, min + 1, ..., max, some of which may not occur, and the index
    table - min is at most uint16. Beside its output the call holds one
    float64 temporary, 8 bytes per entry.
    """
    low = table.min()
    span = int(table.max() - low)
    return low + np.arange(span + 1), (table - low).astype(np.min_scalar_type(span))

