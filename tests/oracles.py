"""Independent reference implementations used only by the tests.

Everything here is deliberately naive and kept separate from the
package code paths it checks: dense operator matrices built entry by
entry, one-qubit gates applied through index arrays, RZZ phases
chosen by parities read off index arrays, the mirror step over whole
arrays, diagonal phases read off the index bits, expectation
values summed state by state, a closed form for one layer, -cut of
every assignment edge by edge from the definition of a cut
(`strided_cut_table`), energy levels by sorting, and shot histograms
counted over every basis state. The one exception,
`simulate_full_width`, reuses the simulator's gate kernels (checked bit
for bit against `one_qubit_gate` and `rzz_gate`, and to 1e-12 against
the dense matrices) to check how `simulate` limits each gate to the
qubits it has reached.
"""

from __future__ import annotations

import cmath
import math
from typing import Sequence

import numpy as np

from qaoa_maxcut.circuits import Barrier, Circuit, Gate
from qaoa_maxcut.graphs import Graph
from qaoa_maxcut.simulator import apply_gate


def gate_matrix(g: Gate) -> np.ndarray:
    """Dense matrix of one gate over its own qubits.

    Two-qubit matrices are indexed with qubits[0] as the low bit of the
    2-bit subspace index, matching the little-endian state layout.
    """
    if g.kind == "H":
        # sqrt(0.5) is 1/sqrt(2) rounded once; 1 / math.sqrt(2) is one ulp low.
        return np.array([[1, 1], [1, -1]], dtype=complex) * math.sqrt(0.5)
    if g.kind == "RX":
        c = math.cos(g.angle / 2)
        s = -1j * math.sin(g.angle / 2)
        return np.array([[c, s], [s, c]], dtype=complex)
    if g.kind == "RZ":
        return np.array(
            [[cmath.exp(-0.5j * g.angle), 0], [0, cmath.exp(0.5j * g.angle)]], dtype=complex
        )
    if g.kind == "RZZ":
        same = cmath.exp(-0.5j * g.angle)
        diff = cmath.exp(0.5j * g.angle)
        return np.diag([same, diff, diff, same]).astype(complex)
    if g.kind == "CX":
        # sub-index = bit(control) + 2*bit(target)
        m = np.zeros((4, 4), dtype=complex)
        for control in (0, 1):
            for target in (0, 1):
                src = control + 2 * target
                dst = control + 2 * (target ^ control)
                m[dst, src] = 1.0
        return m
    raise ValueError(g.kind)


def embed(g: Gate, num_qubits: int) -> np.ndarray:
    """Lift a gate to the full 2^n-dimensional space by explicit basis mapping."""
    dim = 1 << num_qubits
    small = gate_matrix(g)
    full = np.zeros((dim, dim), dtype=complex)
    qubits = g.qubits
    for src in range(dim):
        sub_src = sum(((src >> q) & 1) << k for k, q in enumerate(qubits))
        for sub_dst in range(small.shape[0]):
            amp = small[sub_dst, sub_src]
            if amp == 0:
                continue
            dst = src
            for k, q in enumerate(qubits):
                bit = (sub_dst >> k) & 1
                dst = (dst & ~(1 << q)) | (bit << q)
            full[dst, src] += amp
    return full


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Product of embedded gate matrices in sequence order (barriers are identity)."""
    dim = 1 << c.num_qubits
    u = np.eye(dim, dtype=complex)
    for g in c.gates:
        if isinstance(g, Barrier):
            continue
        u = embed(g, c.num_qubits) @ u
    return u


def one_qubit_gate(state: np.ndarray, g: Gate) -> np.ndarray:
    """`state` after the one-qubit gate g, through index arrays: i0 holds
    every index with bit q clear and i1 = i0 | 1 << q, and
    new[i0] = m00 s[i0] + m01 s[i1], new[i1] = m10 s[i0] + m11 s[i1]
    with the entries of `gate_matrix`."""
    (q,) = g.qubits
    m = gate_matrix(g)
    index = np.arange(state.size)
    i0 = index[(index >> q) & 1 == 0]
    i1 = i0 | 1 << q
    new = np.empty_like(state)
    new[i0] = m[0, 0] * state[i0] + m[0, 1] * state[i1]
    new[i1] = m[1, 0] * state[i0] + m[1, 1] * state[i1]
    return new


def rzz_gate(state: np.ndarray, g: Gate) -> np.ndarray:
    """`state` after the RZZ gate g: each index's parity on g's two qubits,
    read off an index array, picks one of the first two entries of
    `gate_matrix(g)`'s diagonal (the phases of even and odd parity)."""
    u, v = g.qubits
    index = np.arange(state.size)
    parity = ((index >> u) ^ (index >> v)) & 1
    # Bound to a name: numpy reuses an unnamed temporary operand of 256 KiB
    # or more as the product's output and then rounds as if the operands
    # were swapped.
    phases = np.diag(gate_matrix(g))[:2][parity]
    return state * phases


def mirror_step(half: np.ndarray, beta: float) -> np.ndarray:
    """RX(2 beta) on qubit 0 of a spin-flip-symmetric half state, over
    whole arrays: cos(beta) phi - i sin(beta) phi[::-1]."""
    return math.cos(beta) * half + -1j * math.sin(beta) * half[::-1]


def simulate_full_width(c: Circuit) -> np.ndarray:
    """`simulator.simulate` without its reached-width prefix: a zero state
    of all 2^n amplitudes, then `apply_gate` of every non-barrier gate on
    the whole array."""
    state = np.zeros(1 << c.num_qubits, dtype=np.complex128)
    state[0] = 1.0
    for g in c.gates:
        if not isinstance(g, Barrier):
            apply_gate(state, g)
    return state


def random_circuit(
    num_qubits: int, num_gates: int, rng: np.random.Generator, kinds: Sequence[str] = ("H", "RX", "RZ", "RZZ", "CX")
) -> Circuit:
    """Random mix of `kinds` (default: every gate kind) with random
    angles; one-qubit circuits draw only the one-qubit kinds."""
    kinds = [k for k in kinds if num_qubits > 1 or k not in ("RZZ", "CX")]
    gates = []
    for _ in range(num_gates):
        kind = rng.choice(kinds)
        if kind in ("RZZ", "CX"):
            q1, q2 = rng.choice(num_qubits, size=2, replace=False)
            angle = float(rng.uniform(-2 * math.pi, 2 * math.pi)) if kind == "RZZ" else None
            gates.append(Gate(kind, (int(q1), int(q2)), angle))
        else:
            q = int(rng.integers(num_qubits))
            angle = float(rng.uniform(-2 * math.pi, 2 * math.pi)) if kind != "H" else None
            gates.append(Gate(kind, (q,), angle))
    return Circuit(num_qubits, tuple(gates))


def random_state(num_qubits: int, seed: int) -> np.ndarray:
    """Normalized statevector with Gaussian real and imaginary parts."""
    rng = np.random.default_rng(seed)
    state = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    return state / np.linalg.norm(state)


def strided_cut_table(g: Graph) -> np.ndarray:
    """-cut of all 2^n assignments, little-endian, by strided subtracts:
    the reference for `encoding.energy_table`.

    A table of zeros, then per edge (u, v, w) one pass over a reshaped
    view of it that subtracts w wherever bits u and v differ. No spins,
    couplings or offset enter.
    """
    e = np.zeros(1 << g.num_nodes)
    for u, v, w in g.edges:
        view = e.reshape(-1, 2, 1 << (v - u - 1), 2, 1 << u)
        view[:, 0, :, 1, :] -= w
        view[:, 1, :, 0, :] -= w
    return e


def naive_max_cut(g: Graph) -> tuple[tuple[int, ...], float]:
    """(assignment, value) of the maximum cut with node 0 on side 0.

    Visits the even assignment integers in ascending order, sums each cut
    edge by edge, and keeps a later one only if it is strictly larger, so
    ties go to the lowest integer.
    """
    best_mask, best_value = 0, 0.0
    for mask in range(0, 1 << g.num_nodes, 2):
        value = 0.0
        for u, v, w in g.edges:
            if (mask >> u) & 1 != (mask >> v) & 1:
                value += w
        if value > best_value:
            best_mask, best_value = mask, value
    return tuple((best_mask >> i) & 1 for i in range(g.num_nodes)), best_value


def p1_expected_cut(g: Graph, gamma: float, beta: float) -> np.ndarray:
    """Expected cut of each edge of a unit-weight graph, in `g.edges`
    order, after one layer of this package's QAOA.

    The closed form of Wang, Hadfield, Jiang & Rieffel (PRA 97, 022304,
    arXiv:1706.02998) with gamma -> -gamma, because the package's phase
    separator exp(-i gamma cost) with cost = -cut is exp(+i gamma cut).
    For edge (u, v) with d = deg u - 1, e = deg v - 1 and f common
    neighbours it is
    1/2 - 1/4 sin 4b sin g (cos^d g + cos^e g) - 1/4 sin^2 2b cos^(d+e-2f) g (1 - cos^f 2g).
    Degrees and common neighbours come from the adjacency matrix, and the
    edges are evaluated as one numpy expression: no energy table, level
    or state enters.
    """
    if any(w != 1.0 for _, _, w in g.edges):
        raise ValueError("the p = 1 closed form holds for unit weights only")
    adjacency = np.zeros((g.num_nodes, g.num_nodes))
    u = np.array([a for a, _, _ in g.edges], dtype=int)
    v = np.array([b for _, b, _ in g.edges], dtype=int)
    adjacency[u, v] = adjacency[v, u] = 1.0
    degree = adjacency.sum(axis=1)
    d, e = degree[u] - 1, degree[v] - 1
    f = (adjacency[u] * adjacency[v]).sum(axis=1)
    cos = math.cos(gamma)
    return (
        0.5
        - 0.25 * math.sin(4 * beta) * math.sin(gamma) * (cos**d + cos**e)
        - 0.25 * math.sin(2 * beta) ** 2 * cos ** (d + e - 2 * f) * (1 - math.cos(2 * gamma) ** f)
    )


def diagonal_after_h_layer(num_qubits: int, gates: Sequence[Gate]) -> np.ndarray:
    """Amplitudes of H on every qubit followed by RZ/RZZ `gates`.

    Each basis state x keeps its uniform amplitude and gathers the phase
    exp(-i/2 sum_g theta_g (-1)^parity_g(x)), where parity_g(x) is the
    XOR of x's bits on g's qubits, read straight off the index.
    """
    x = np.arange(1 << num_qubits)
    exponent = np.zeros(x.size)
    for g in gates:
        if g.kind not in ("RZ", "RZZ"):
            raise ValueError(f"{g.kind} is not diagonal")
        parity = np.zeros(x.size, dtype=np.int64)
        for q in g.qubits:
            parity ^= (x >> q) & 1
        exponent += g.angle * (1 - 2 * parity)
    return 2.0 ** (-num_qubits / 2) * np.exp(-0.5j * exponent)


def unique_energy_levels(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(levels, index) by sorting: the distinct energies, ascending, and
    each entry's position among them in the smallest unsigned dtype."""
    levels, index = np.unique(table, return_inverse=True)
    return levels, index.astype(np.min_scalar_type(levels.size - 1))


def sample_index_counts(state: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """Multinomial shot counts per basis-state index, one per amplitude.

    Inverse-CDF sampling with the same seeded uniforms as
    `simulator.sample`, placed in the order they are drawn (unsorted)
    and counted with a bincount over all 2^n indices.
    """
    cdf = np.cumsum(np.abs(state) ** 2)
    cdf /= cdf[-1]
    draws = np.random.default_rng(seed).random(shots)
    return np.bincount(np.searchsorted(cdf, draws, side="right"), minlength=state.size)
