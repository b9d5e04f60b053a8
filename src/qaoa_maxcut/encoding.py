"""Max-Cut's cost on every assignment, read straight off the graph.

Everything downstream minimizes the cost -cut. Under the spin convention
z_i = 1 - 2 bit_i (bit 0 maps to spin z = +1, bit 1 to z = -1),

    -cut(z) = sum over edges (u, v, w) of w (z_u z_v - 1) / 2,

ZZ couplings J[u, v] = w/2 plus the offset -W/2, W the total weight. The
cost has no fields, so every energy, and so every QAOA amplitude, is
unchanged when all spins flip (the Z2 symmetry of Bravyi et al.,
arXiv:1910.08980).

`energy_blocks` is the one kernel that scores the assignments, in
blocks of a table split into a low and a high half of the spins that
only it reads: each block comes with its first entry's half index. It
scores only the 2^(n-1) assignments with spin 0 at +1 (bit 0 clear); by
the symmetry, each other assignment is the complement of one of them
and has its energy. The simulator's cost vector is that half table as
one block (`energy_table`: entry k is assignment 2k), and
`graphs.brute_force_optimum` takes its argmin block by block.
`energy_levels` reduces a table to ascending levels and a small
unsigned index per entry, which is how the simulator's phase separator
consumes it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

import numpy as np

if TYPE_CHECKING:
    from .graphs import Graph


def energy_table(g: Graph) -> np.ndarray:
    """-cut of the 2^(n-1) assignments with bit 0 clear: entry k is
    assignment 2k, little-endian (bit i of 2k = bit i of the assignment).

    `energy_blocks` as one block, flattened row-major. Every other
    assignment is the complement of one of these, with the same energy.
    """
    ((_, table),) = energy_blocks(g, 1 << (g.num_nodes - 1))
    return table.ravel()


def energy_blocks(g: Graph, entries: int) -> Iterator[tuple[int, np.ndarray]]:
    """(first, block) pairs that tile the half table in ascending order:
    block.flat[i] is -cut of assignment 2 * (first + i). Each block is as
    many whole rows of the (2^(n-L), 2^(L-1)) table as fit in `entries`
    (at least one).

    The spins split into a low half of L = max(1, n // 2) and a high
    half; row r and column c of the table hold assignment r * 2^L + 2c.
    With Z_L the +-1 spin rows of the even low half assignments, Z_H
    those of the high half and E_L, E_H each half's own energies z^T J z,
    a block is one product left @ right^T of
        right = [Z_L | E_L + offset | 1], built once, and
        left = [Z_H @ J_LH^T | 1 | E_H], built per block,
    so that each entry sums the cross-half couplings, the low half's
    energy with the offset and the high half's energy in one dot product.
    Integer and half-integer energies are exact in any summation order,
    so the tables of integer-weight graphs equal the edge-by-edge sum bit
    for bit.
    """
    n = g.num_nodes
    low = max(1, n // 2)
    J = np.zeros((n, n))
    for u, v, w in g.edges:
        J[u, v] = w / 2.0
    offset = -g.total_weight() / 2.0
    z_low = _spin_rows(np.arange(0, 1 << low, 2), low)
    right = np.column_stack([z_low, _half_energies(z_low, J[:low, :low]) + offset, np.ones(len(z_low))])
    del z_low
    cross = J[:low, low:].T
    high_rows = 1 << (n - low)
    rows = max(1, entries // len(right))
    for start in range(0, high_rows, rows):
        z_high = _spin_rows(np.arange(start, min(start + rows, high_rows)), n - low)
        left = np.column_stack([z_high @ cross, np.ones(len(z_high)), _half_energies(z_high, J[low:, low:])])
        yield start * len(right), left @ right.T


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

