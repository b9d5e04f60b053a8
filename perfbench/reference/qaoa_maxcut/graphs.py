"""Max-Cut problem instances: generation, file I/O, and exact solving.

A graph is a weighted undirected simple graph with nodes 0..n-1. A cut
assignment is a bit vector where bit i gives the side of node i; its
value is the total weight of edges whose endpoints land on opposite
sides. Assignments are also referred to by their integer encoding
sum(bit_i << i), i.e. node 0 is the least significant bit. The same
little-endian convention is used for simulator basis states, so sampled
bitstrings map onto assignments index-for-index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .seeding import SplitMix64

MAX_BRUTE_FORCE_NODES = 28

Edge = tuple[int, int, float]


class GraphFormatError(ValueError):
    """Raised when an instance file cannot be parsed."""


@dataclass(frozen=True)
class Graph:
    """Weighted undirected graph; edges stored canonically as (u, v, w) with u < v.

    Edge list order is preserved (it defines the naive gate-emission
    order downstream). Self-loops, duplicate pairs, and non-positive
    weights are rejected.
    """

    num_nodes: int
    edges: tuple[Edge, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {self.num_nodes}")
        canonical: list[Edge] = []
        seen: set[tuple[int, int]] = set()
        for u, v, w in self.edges:
            if u == v:
                raise ValueError(f"self-loop on node {u}")
            if u > v:
                u, v = v, u
            if not (0 <= u < v < self.num_nodes):
                raise ValueError(f"edge ({u},{v}) out of range for {self.num_nodes} nodes")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            if not w > 0.0:
                raise ValueError(f"edge ({u},{v}) has non-positive weight {w}")
            seen.add((u, v))
            canonical.append((u, v, float(w)))
        object.__setattr__(self, "edges", tuple(canonical))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def total_weight(self) -> float:
        return sum(w for _, _, w in self.edges)

    def degrees(self) -> list[int]:
        deg = [0] * self.num_nodes
        for u, v, _ in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg


@dataclass(frozen=True)
class CutSolution:
    """A cut assignment together with its (recomputable) value."""

    assignment: tuple[int, ...]
    value: float


def graph_from_pairs(num_nodes: int, pairs: Iterable[tuple[int, int]]) -> Graph:
    """Convenience constructor for unit-weight graphs."""
    return Graph(num_nodes, tuple((u, v, 1.0) for u, v in pairs))


def generate_random_graph(n: int, density: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, density) with unit weights.

    Every unordered pair (u, v), visited in lexicographic order, is
    included independently with probability `density` using one
    SplitMix64 draw per pair (see seeding module for the exact
    constants). Deterministic for fixed (n, density, seed).
    """
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    rng = SplitMix64(seed)
    pairs = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.next_float() < density:
                pairs.append((u, v))
    return graph_from_pairs(n, pairs)


def cut_value(g: Graph, assignment: Sequence[int] | str) -> float:
    """Total weight of edges crossing the partition given by `assignment`."""
    bits = _as_bits(assignment, g.num_nodes)
    return sum(w for u, v, w in g.edges if bits[u] != bits[v])


def _as_bits(assignment: Sequence[int] | str, n: int) -> tuple[int, ...]:
    bits = tuple(int(b) for b in assignment)
    if len(bits) != n:
        raise ValueError(f"assignment length {len(bits)} != num_nodes {n}")
    if any(b not in (0, 1) for b in bits):
        raise ValueError("assignment entries must be 0 or 1")
    return bits


def save_graph(g: Graph, path) -> None:
    """Write in the instance file format (see load_graph)."""
    lines = [f"{g.num_nodes} {g.num_edges}"]
    for u, v, w in g.edges:
        lines.append(f"{u} {v}" if w == 1.0 else f"{u} {v} {w:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_graph(path) -> Graph:
    """Read an instance file.

    Format: first data line "<num_nodes> <num_edges>", then one edge per
    line as "u v" or "u v w" (0-indexed, whitespace separated). '#'
    starts a comment; blank lines are ignored. Parse errors report the
    offending 1-based line number.
    """
    header: tuple[int, int] | None = None
    edges: list[Edge] = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if header is None:
                if len(fields) != 2:
                    raise GraphFormatError(f"{path}:{lineno}: header must be '<num_nodes> <num_edges>'")
                try:
                    header = (int(fields[0]), int(fields[1]))
                except ValueError:
                    raise GraphFormatError(f"{path}:{lineno}: non-integer header") from None
                continue
            if len(fields) not in (2, 3):
                raise GraphFormatError(f"{path}:{lineno}: expected 'u v' or 'u v w'")
            try:
                u, v = int(fields[0]), int(fields[1])
                w = float(fields[2]) if len(fields) == 3 else 1.0
            except ValueError:
                raise GraphFormatError(f"{path}:{lineno}: malformed edge line {line!r}") from None
            try:
                Graph(header[0], ((u, v, w),))
            except ValueError as exc:
                raise GraphFormatError(f"{path}:{lineno}: {exc}") from None
            edges.append((u, v, w))
    if header is None:
        raise GraphFormatError(f"{path}: empty file")
    n, m = header
    if len(edges) != m:
        raise GraphFormatError(f"{path}: header promises {m} edges, found {len(edges)}")
    try:
        return Graph(n, tuple(edges))
    except ValueError as exc:
        raise GraphFormatError(f"{path}: {exc}") from None


def brute_force_optimum(g: Graph) -> CutSolution:
    """Exact maximum cut by Gray-code enumeration.

    Node 0 is fixed to side 0 (cuts are complement-symmetric), so only
    2^(n-1) assignments are visited. Consecutive Gray codes differ in
    one node, so each step updates the running cut value in O(degree)
    by re-signing that node's incident edge weights. Ties are broken
    toward the lowest assignment integer (little-endian encoding).
    """
    n = g.num_nodes
    if n > MAX_BRUTE_FORCE_NODES:
        raise ValueError(
            f"brute force capped at {MAX_BRUTE_FORCE_NODES} nodes, got {n}"
        )
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for u, v, w in g.edges:
        adj[u].append((v, w))
        adj[v].append((u, w))

    mask = 0  # bit i = side of node i; starts all-zeros
    value = 0.0
    best_mask, best_value = 0, 0.0
    for k in range(1, 1 << max(n - 1, 0)):
        node = ((k & -k).bit_length() - 1) + 1  # Gray code flips bit ctz(k); node 0 stays fixed
        side = (mask >> node) & 1
        delta = 0.0
        for other, w in adj[node]:
            # edge becomes cut if endpoints currently agree, uncut otherwise
            delta += w if ((mask >> other) & 1) == side else -w
        mask ^= 1 << node
        value += delta
        if value > best_value or (value == best_value and mask < best_mask):
            best_mask, best_value = mask, value
    assignment = tuple((best_mask >> i) & 1 for i in range(n))
    return CutSolution(assignment, best_value)


def exhaustive_optimum(g: Graph) -> CutSolution:
    """Reference maximum cut by naive full enumeration of all 2^n assignments.

    Independent of the Gray-code path (recomputes every cut from
    scratch); used to cross-check it. Ties break toward the lowest
    assignment integer.
    """
    n = g.num_nodes
    if n > 24:
        raise ValueError("naive enumeration is for small instances (n <= 24)")
    best_mask, best_value = 0, 0.0
    for mask in range(1 << n):
        val = sum(w for u, v, w in g.edges if ((mask >> u) ^ (mask >> v)) & 1)
        if val > best_value:
            best_mask, best_value = mask, val
    assignment = tuple((best_mask >> i) & 1 for i in range(n))
    return CutSolution(assignment, best_value)
