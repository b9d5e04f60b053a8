"""Gate-level circuit IR, ansatz construction, compilation, and depth metrics.

Gate kinds are H, RX, RZ, RZZ, CX. Rotation angles follow the half-angle
convention: RX(t) = exp(-i t X / 2), RZ(t) = exp(-i t Z / 2),
RZZ(t) = exp(-i t Z(x)Z / 2). CX lists (control, target).

In addition to gates, a circuit sequence may contain Barrier markers.
A barrier is a pure scheduling directive spanning all qubits: it is the
identity to the simulator and to decomposition, contributes nothing to
gate counts, and synchronizes the per-qubit frontiers in depth
computation. The ansatz builder places one barrier between consecutive
layers so that each (phase separator, mixer) block occupies its own
depth window and total depth grows exactly linearly in the layer count:
the initial H layer has depth 1 on every qubit, so a p-layer ansatz
whose one-layer form has depth d1 has depth 1 + p * (d1 - 1), before
and after decomposition; `bench.compiled_metrics` derives every p's
compiled depth from that. Without the barrier, ASAP packing lets later
layers slide into earlier layers' idle slots, which breaks the exact
per-layer depth accounting on irregular graphs.

Two emission strategies for the commuting phase-separator terms:

* naive      - RZZ gates in edge-list order (one long conflict chain).
* scheduled  - RZZ gates grouped into non-overlapping rounds by greedy
               edge coloring (edges sorted by endpoint degree sum,
               descending; smallest free color wins). All terms commute,
               so reordering is exact.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Union

from .encoding import IsingModel

GATE_KINDS = ("H", "RX", "RZ", "RZZ", "CX")
_ROTATIONS = ("RX", "RZ", "RZZ")
_TWO_QUBIT = ("RZZ", "CX")


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        arity = 2 if self.kind in _TWO_QUBIT else 1
        if len(self.qubits) != arity:
            raise ValueError(f"{self.kind} takes {arity} qubit(s), got {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"{self.kind} qubits must be distinct, got {self.qubits}")
        if self.kind in _ROTATIONS:
            if self.angle is None:
                raise ValueError(f"{self.kind} requires an angle")
            object.__setattr__(self, "angle", float(self.angle))
        elif self.angle is not None:
            raise ValueError(f"{self.kind} takes no angle")


@dataclass(frozen=True)
class Barrier:
    """Full-width scheduling synchronization point; not a gate."""


Instruction = Union[Gate, Barrier]


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    gates: tuple[Instruction, ...] = ()

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be positive")
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if isinstance(g, Gate) and max(g.qubits) >= self.num_qubits:
                raise ValueError(f"gate {g} exceeds width {self.num_qubits}")


# ---------------------------------------------------------------------------
# Ansatz construction


def initial_state_gates(num_qubits: int) -> list[Gate]:
    """Uniform superposition: H on every qubit."""
    return [Gate("H", (q,)) for q in range(num_qubits)]


def mixer_gates(num_qubits: int, beta: float) -> list[Gate]:
    """Transverse-field mixer exp(-i beta sum_i X_i) as RX(2*beta) per qubit."""
    return [Gate("RX", (q,), 2.0 * beta) for q in range(num_qubits)]


def phase_separator_gates(m: IsingModel, gamma: float, strategy: str) -> list[Gate]:
    """exp(-i gamma C) for the diagonal cost C, dropping the offset's global phase.

    One RZZ(2*gamma*J_ij) per nonzero coupling J_ij and no other gate,
    ordered per `strategy`.
    """
    pairs = [p for p, jij in m.J.items() if jij != 0.0]
    if strategy == "naive":
        ordered = pairs
    elif strategy == "scheduled":
        ordered = [p for rnd in schedule_rounds(pairs) for p in rnd]
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return [Gate("RZZ", p, 2.0 * gamma * m.J[p]) for p in ordered]


def schedule_rounds(pairs: Iterable[tuple[int, int]]) -> list[list[tuple[int, int]]]:
    """Greedy edge coloring into rounds of mutually disjoint pairs.

    Pairs are processed by descending endpoint degree sum (ties keep
    input order) and take the smallest color unused at either endpoint.
    Deterministic; round count is near the max degree on the graphs we
    target, though greedy coloring has no Vizing-style guarantee.
    """
    pairs = list(pairs)
    deg: Counter[int] = Counter()
    for u, v in pairs:
        deg[u] += 1
        deg[v] += 1
    order = sorted(range(len(pairs)), key=lambda k: -(deg[pairs[k][0]] + deg[pairs[k][1]]))
    used: dict[int, set[int]] = {}
    rounds: list[list[tuple[int, int]]] = []
    for k in order:
        u, v = pairs[k]
        busy = used.setdefault(u, set()) | used.setdefault(v, set())
        color = 0
        while color in busy:
            color += 1
        if color == len(rounds):
            rounds.append([])
        rounds[color].append((u, v))
        used[u].add(color)
        used[v].add(color)
    return rounds


def build_qaoa_ansatz(
    m: IsingModel,
    gammas: Iterable[float],
    betas: Iterable[float],
    strategy: str,
) -> Circuit:
    """p-layer ansatz, p = len(gammas): H on all qubits, then p blocks of
    phase separator followed by mixer, with a barrier between
    consecutive blocks.
    """
    gammas = list(gammas)
    betas = list(betas)
    if not gammas:
        raise ValueError("need at least one layer, got no gammas")
    if len(betas) != len(gammas):
        raise ValueError(f"need as many betas as gammas, got {len(gammas)} gammas and {len(betas)} betas")
    gates: list[Instruction] = list(initial_state_gates(m.n))
    for k, (gamma, beta) in enumerate(zip(gammas, betas)):
        if k > 0:
            gates.append(Barrier())
        gates.extend(phase_separator_gates(m, gamma, strategy))
        gates.extend(mixer_gates(m.n, beta))
    return Circuit(m.n, tuple(gates))


# ---------------------------------------------------------------------------
# Compilation passes and metrics


def decompose(c: Circuit) -> Circuit:
    """Rewrite to the {H, RX, RZ, CX} basis.

    RZZ(q, r, t) -> CX(q, r), RZ(r, t), CX(q, r); exact, no global phase
    change. Everything else (barriers included) passes through.
    """
    out: list[Instruction] = []
    for g in c.gates:
        if isinstance(g, Gate) and g.kind == "RZZ":
            q, r = g.qubits
            out.append(Gate("CX", (q, r)))
            out.append(Gate("RZ", (r,), g.angle))
            out.append(Gate("CX", (q, r)))
        else:
            out.append(g)
    return Circuit(c.num_qubits, tuple(out))


def depth(c: Circuit) -> int:
    """Longest conflict chain: gates conflict iff they share a qubit.

    Computed by ASAP layering with per-qubit frontiers; a barrier raises
    every frontier to the current maximum without occupying a layer.
    Empty circuit has depth 0.
    """
    frontier = [0] * c.num_qubits
    for g in c.gates:
        if isinstance(g, Barrier):
            m = max(frontier)
            frontier = [m] * c.num_qubits
        else:
            level = 1 + max(frontier[q] for q in g.qubits)
            for q in g.qubits:
                frontier[q] = level
    return max(frontier, default=0)


def gate_counts(c: Circuit) -> dict[str, int]:
    """Tally of gate kinds (scheduling directives excluded); zero counts omitted."""
    counts: Counter[str] = Counter(g.kind for g in c.gates if isinstance(g, Gate))
    return dict(counts)


# ---------------------------------------------------------------------------
# Portable text format


def export_circuit_text(c: Circuit) -> str:
    """One instruction per line: "KIND q..." plus the angle (17 significant
    digits) for rotations; barriers as "BARRIER". Round-trips through
    parse_circuit_text.
    """
    lines = []
    for g in c.gates:
        if isinstance(g, Barrier):
            lines.append("BARRIER")
        else:
            parts = [g.kind, *map(str, g.qubits)]
            if g.angle is not None:
                parts.append(format(g.angle, ".17g"))
            lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")


def parse_circuit_text(text: str, num_qubits: int | None = None) -> Circuit:
    """Inverse of export_circuit_text; width is inferred from the highest
    qubit index unless given explicitly."""
    gates: list[Instruction] = []
    widest = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        kind = fields[0].upper()
        if kind == "BARRIER":
            gates.append(Barrier())
            continue
        if kind not in GATE_KINDS:
            raise ValueError(f"line {lineno}: unknown instruction {kind!r}")
        n_qubits = 2 if kind in _TWO_QUBIT else 1
        has_angle = kind in _ROTATIONS
        if len(fields) != 1 + n_qubits + (1 if has_angle else 0):
            raise ValueError(f"line {lineno}: malformed {kind} line {line!r}")
        qubits = tuple(int(f) for f in fields[1 : 1 + n_qubits])
        angle = float(fields[-1]) if has_angle else None
        gates.append(Gate(kind, qubits, angle))
        widest = max(widest, *qubits)
    if num_qubits is None:
        num_qubits = widest + 1
    return Circuit(num_qubits, tuple(gates))
