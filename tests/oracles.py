"""Independent reference implementations used only by the tests.

Everything here is deliberately naive and kept separate from the
package code paths it checks: dense operator matrices built entry by
entry, and expectation values summed state by state.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from qaoa_maxcut.circuits import Barrier, Circuit, Gate
from qaoa_maxcut.graphs import Graph


def gate_matrix(g: Gate) -> np.ndarray:
    """Dense matrix of one gate over its own qubits.

    Two-qubit matrices are indexed with qubits[0] as the low bit of the
    2-bit subspace index, matching the little-endian state layout.
    """
    if g.kind == "H":
        return np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
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


def states_equal_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    k = int(np.argmax(np.abs(a)))
    if abs(a[k]) < 1e-12:
        return bool(np.max(np.abs(a - b)) <= tol)
    phase = b[k] / a[k]
    return abs(abs(phase) - 1.0) <= tol and bool(np.max(np.abs(a * phase - b)) <= tol)


def unitaries_equal_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    flat_a, flat_b = a.ravel(), b.ravel()
    k = int(np.argmax(np.abs(flat_a)))
    phase = flat_b[k] / flat_a[k]
    return abs(abs(phase) - 1.0) <= tol and bool(np.max(np.abs(a * phase - b)) <= tol)


def random_circuit(num_qubits: int, num_gates: int, rng: np.random.Generator) -> Circuit:
    """Random mix of all gate kinds with random angles; one-qubit circuits
    draw only the one-qubit kinds."""
    kinds = ["H", "RX", "RZ", "RZZ", "CX"] if num_qubits > 1 else ["H", "RX", "RZ"]
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


def maxcut_p1_edge_expectation(g: Graph, u: int, v: int, gamma: float, beta: float) -> float:
    """<(1 - Z_u Z_v)/2> after one QAOA layer on a unit-weight graph.

    Closed form of Wang, Hadfield, Jiang & Rieffel (PRA 97, 022304,
    arXiv:1706.02998) for the state exp(-i beta B) exp(-i gamma C) |+>^n,
    C = sum over edges of (1 - Z_u Z_v)/2 and B = sum_i X_i. No
    simulation: only degrees and the triangles through (u, v) enter.
    """
    neighbours: dict[int, set[int]] = {i: set() for i in range(g.num_nodes)}
    for a, b, _ in g.edges:
        neighbours[a].add(b)
        neighbours[b].add(a)
    d_u = len(neighbours[u]) - 1
    d_v = len(neighbours[v]) - 1
    f = len(neighbours[u] & neighbours[v])
    cos = math.cos(gamma)
    return (
        0.5
        + 0.25 * math.sin(4 * beta) * math.sin(gamma) * (cos**d_u + cos**d_v)
        - 0.25 * math.sin(2 * beta) ** 2 * cos ** (d_u + d_v - 2 * f) * (1 - math.cos(2 * gamma) ** f)
    )
