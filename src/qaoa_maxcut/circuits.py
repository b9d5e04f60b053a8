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
and after decomposition. Without the barrier, ASAP packing lets later
layers slide into earlier layers' idle slots, which breaks the exact
per-layer depth accounting on irregular graphs. `decompose` (each RZZ
to CX, RZ, CX), `depth` and `gate_counts` define the compiled metrics
and are the test oracle of `compiled_metrics`, which gives them with no
circuit built, by frontier arithmetic over `rzz_order` and that identity.

The ansatz is built from the Max-Cut graph itself: each layer's phase
separator is one RZZ per edge, and its mixer one RX per node.

`STRATEGIES` names the emission strategies for the commuting
phase-separator terms; the engine, the CLI and the depth table take
theirs from it, and `rzz_order` alone orders the terms by them:

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

from .graphs import Edge, Graph

GATE_KINDS = ("H", "RX", "RZ", "RZZ", "CX")
_ROTATIONS = ("RX", "RZ", "RZZ")
_TWO_QUBIT = ("RZZ", "CX")
STRATEGIES = ("naive", "scheduled")


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


def rzz_order(g: Graph, strategy: str) -> list[Edge]:
    """The edges (u, v, w) in the order `strategy` emits their RZZ terms:
    the edge list's for naive, `schedule_rounds`' rounds in turn for
    scheduled. Any other strategy raises ValueError."""
    if strategy == "naive":
        return list(g.edges)
    if strategy == "scheduled":
        return [e for rnd in schedule_rounds(g.edges) for e in rnd]
    raise ValueError(f"unknown strategy {strategy!r}")


def schedule_rounds(edges: Iterable[tuple]) -> list[list[tuple]]:
    """Greedy edge coloring into rounds of mutually disjoint edges.

    Each edge is a tuple whose first two entries are its endpoints, as a
    bare (u, v) pair or a weighted (u, v, w) edge; the rounds hold the
    given tuples. Edges are processed by descending endpoint degree sum
    (ties keep input order) and take the smallest color unused at either
    endpoint. Deterministic, but greedy coloring has no Vizing-style
    guarantee: on the study suite (`generate --seed 11`) it uses more
    rounds than the maximum degree on 7 of 15 instances: one more on
    five, two more on MC_21 and three more on MC_22 (ROADMAP item 7).
    """
    edges = list(edges)
    deg = Counter(q for e in edges for q in e[:2])
    used: dict[int, set[int]] = {}
    rounds: list[list[tuple]] = []
    for e in sorted(edges, key=lambda e: -(deg[e[0]] + deg[e[1]])):
        u, v = e[:2]
        busy = used.setdefault(u, set()) | used.setdefault(v, set())
        color = 0
        while color in busy:
            color += 1
        if color == len(rounds):
            rounds.append([])
        rounds[color].append(e)
        used[u].add(color)
        used[v].add(color)
    return rounds


def build_qaoa_ansatz(
    g: Graph,
    gammas: Iterable[float],
    betas: Iterable[float],
    strategy: str,
) -> Circuit:
    """p-layer ansatz, p = len(gammas): H on all qubits, then p blocks of
    phase separator followed by mixer exp(-i beta sum_i X_i), RX(2 beta)
    per qubit, with a barrier between consecutive blocks.

    Layer k's phase separator is exp(-i gamma_k C) for the cost C = -cut,
    dropping the offset's global phase: one RZZ(gamma_k w) per edge of
    weight w, in the order of one `rzz_order` call per ansatz. That is
    RZZ(2 gamma J) for the coupling J = w/2 of `encoding`; halving and
    doubling are exact, so gamma * w has the bits of 2 gamma (w/2) unless
    w/2 is subnormal or 2 gamma overflows.
    """
    gammas = list(gammas)
    betas = list(betas)
    if not gammas:
        raise ValueError("need at least one layer, got no gammas")
    if len(betas) != len(gammas):
        raise ValueError(f"need as many betas as gammas, got {len(gammas)} gammas and {len(betas)} betas")
    n = g.num_nodes
    order = rzz_order(g, strategy)
    gates: list[Instruction] = [Gate("H", (q,)) for q in range(n)]
    for k, (gamma, beta) in enumerate(zip(gammas, betas)):
        if k > 0:
            gates.append(Barrier())
        gates.extend(Gate("RZZ", (u, v), gamma * w) for u, v, w in order)
        gates.extend(Gate("RX", (q,), 2.0 * beta) for q in range(n))
    return Circuit(n, tuple(gates))


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


def compiled_metrics(g: Graph, strategy: str, layer_counts: list[int]) -> dict[int, tuple[int, dict[str, int]]]:
    """{p: (depth, gate counts)} of the decomposed p-layer ansatz per p in
    `layer_counts`, with no circuit built. Neither depends on the angles.

    The one-layer depth d1 is `depth`'s frontier pass over the decomposed
    one-layer ansatz, run on `rzz_order` alone: the H layer puts every
    qubit at 1, each RZZ(u, v) becomes CX, RZ, CX and puts both endpoints
    3 past the later of the two, and the RX layer adds 1. Only edge
    endpoints get a frontier, so memory follows the edges, not n. The
    p-layer depth follows by the barrier identity, and every gate kind
    but H occurs p times as often as in one layer; zero counts are omitted.
    `decompose`, `depth` and `gate_counts` of the built ansatz define
    both and are the tests' oracle."""
    n, order = g.num_nodes, rzz_order(g, strategy)
    frontier: dict[int, int] = {}
    for u, v, _ in order:
        frontier[u] = frontier[v] = max(frontier.get(u, 1), frontier.get(v, 1)) + 3
    d1 = max(frontier.values(), default=1) + 1
    counts = {"H": n, "RX": n, **({"CX": 2 * len(order), "RZ": len(order)} if order else {})}
    return {p: (1 + p * (d1 - 1), {kind: c if kind == "H" else p * c for kind, c in counts.items()})
            for p in layer_counts}
