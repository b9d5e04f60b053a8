"""Max-Cut problem instances: generation, file I/O, and exact solving.

A graph is an undirected simple graph with nodes 0..n-1 and positive
integer edge weights whose total is below `MAX_TOTAL_WEIGHT` = 2^16, so
every cut, and every energy a kernel sums in any order, is an exact
integer in float64. A cut assignment is a bit vector where bit i gives
the side of node i; its value is the total weight of edges whose
endpoints land on opposite sides. Assignments are also referred to by their integer encoding
sum(bit_i << i), i.e. node 0 is the least significant bit. The same
little-endian convention is used for simulator basis states, so a
sampled basis-state index is the assignment integer itself.

The exact optimum, `brute_force_optimum`, scores the assignments with
the float32 factors of `encoding.energy_factors`, the kernel behind the
simulator's energy table, which also states why float32 is exact.
"""

from __future__ import annotations

import codecs
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .encoding import energy_factors
from .seeding import SplitMix64

MAX_BRUTE_FORCE_NODES = 28

# Total edge weight a Graph stays below, so that energy levels index as uint16.
MAX_TOTAL_WEIGHT = 1 << 16

# Energies per brute_force_optimum block (128 KiB of float32). 2^16 was not
# resolvably better: suite-prep wall_vs_ref and peak_rss_mib matched over 6
# alternating pairs, and it won 13 of 20 fresh-interpreter suite timings
# (medians 4.30 vs 4.59 ms, RSS +0.1 MiB).
_BLOCK = 1 << 15

Edge = tuple[int, int, float]


class GraphFormatError(ValueError):
    """Raised when an instance file cannot be parsed."""


class EdgeError(ValueError):
    """Raised by `Graph` for the edge it refuses: `position` is that
    edge's index in the edge list it was given."""

    def __init__(self, position: int, message: str):
        super().__init__(message)
        self.position = position


@dataclass(frozen=True)
class Graph:
    """Undirected graph; edges stored canonically as (u, v, w) with u < v.

    Edge list order is preserved (it defines the naive gate-emission
    order downstream). Weights are stored as floats. Self-loops,
    duplicate pairs, weights other than integers >= 1, and a total
    weight of `MAX_TOTAL_WEIGHT` or more are rejected, with an EdgeError
    that names the edge at fault and its position.
    """

    num_nodes: int
    edges: tuple[Edge, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {self.num_nodes}")
        canonical: list[Edge] = []
        seen: set[tuple[int, int]] = set()
        total = 0.0
        for position, (u, v, w) in enumerate(self.edges):
            if u == v:
                raise EdgeError(position, f"self-loop on node {u}")
            if u > v:
                u, v = v, u
            if not (0 <= u < v < self.num_nodes):
                raise EdgeError(position, f"edge ({u},{v}) out of range for {self.num_nodes} nodes")
            if (u, v) in seen:
                raise EdgeError(position, f"duplicate edge ({u},{v})")
            w = float(w)
            if not (w >= 1.0 and w.is_integer()):
                raise EdgeError(position, f"edge ({u},{v}) has weight {w}, not a positive integer")
            total += w
            if total >= MAX_TOTAL_WEIGHT:
                raise EdgeError(
                    position,
                    f"edge ({u},{v}) brings the total weight to {total:.0f}, not below {MAX_TOTAL_WEIGHT}"
                )
            seen.add((u, v))
            canonical.append((u, v, w))
        object.__setattr__(self, "edges", tuple(canonical))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def total_weight(self) -> float:
        return sum((w for _, _, w in self.edges), 0.0)


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
    constants). Deterministic for fixed (n, density, seed). Drawing
    stops at the `MAX_TOTAL_WEIGHT`-th included pair, the edge that
    `Graph` refuses, so a graph over the weight cap fails after about
    MAX_TOTAL_WEIGHT / density draws, not n(n - 1)/2.
    """
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    rng = SplitMix64(seed)
    pairs = ((u, v) for u in range(n) for v in range(u + 1, n) if rng.next_float() < density)
    return graph_from_pairs(n, itertools.islice(pairs, MAX_TOTAL_WEIGHT))


def as_bits(assignment: Sequence[int] | str, n: int) -> tuple[int, ...]:
    """An assignment as n bits; a wrong length or an entry other than 0
    or 1 raises ValueError."""
    if len(assignment) != n:
        raise ValueError(f"assignment length {len(assignment)} != {n} nodes")
    if any(b not in (0, 1, "0", "1") for b in assignment):
        raise ValueError("assignment entries must be 0 or 1")
    return tuple(int(b) for b in assignment)


def cut_value(g: Graph, assignment: Sequence[int] | str) -> float:
    """Total weight of edges crossing the partition given by `assignment`."""
    bits = as_bits(assignment, g.num_nodes)
    return sum((w for u, v, w in g.edges if bits[u] != bits[v]), 0.0)


def save_graph(g: Graph, path) -> None:
    """Write in the instance file format (see load_graph)."""
    lines = [f"{g.num_nodes} {g.num_edges}"]
    for u, v, w in g.edges:
        lines.append(f"{u} {v}" if w == 1.0 else f"{u} {v} {w:.0f}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_graph(path) -> Graph:
    """Read an instance file.

    Format: first data line "<num_nodes> <num_edges>", then one edge per
    line as "u v" or "u v w", w a positive integer weight (0-indexed,
    whitespace separated). '#' starts a comment; blank lines are
    ignored. The file is read as UTF-8 with universal newlines, one
    leading byte-order mark dropped, in two passes: its data lines with
    their 1-based numbers, then the header and edges from those. A line
    that is not UTF-8, and a refused line, header or edge, is named by
    its line number.
    """
    rows: list[tuple[int, str]] = []  # (line number, text) of each data line
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh.read().removeprefix(codecs.BOM_UTF8).splitlines(), start=1):
            try:
                line = raw.decode("utf-8").split("#", 1)[0].strip()
            except UnicodeDecodeError:
                raise GraphFormatError(f"{path}:{lineno}: not valid UTF-8") from None
            if line:
                rows.append((lineno, line))
    if not rows:
        raise GraphFormatError(f"{path}: empty file")
    (header_line, header), *edge_rows = rows
    fields = header.split()
    if len(fields) != 2:
        raise GraphFormatError(f"{path}:{header_line}: header must be '<num_nodes> <num_edges>'")
    try:
        n, m = int(fields[0]), int(fields[1])
    except ValueError:
        raise GraphFormatError(f"{path}:{header_line}: non-integer header") from None
    edges: list[Edge] = []
    for lineno, line in edge_rows:
        fields = line.split()
        if len(fields) not in (2, 3):
            raise GraphFormatError(f"{path}:{lineno}: expected 'u v' or 'u v w'")
        try:
            edges.append((int(fields[0]), int(fields[1]), float(fields[2]) if len(fields) == 3 else 1.0))
        except ValueError:
            raise GraphFormatError(f"{path}:{lineno}: malformed edge line {line!r}") from None
    try:
        g = Graph(n, tuple(edges))
    except EdgeError as exc:
        raise GraphFormatError(f"{path}:{edge_rows[exc.position][0]}: {exc}") from None
    except ValueError as exc:
        raise GraphFormatError(f"{path}:{header_line}: {exc}") from None
    if len(edges) != m:
        raise GraphFormatError(f"{path}: header promises {m} edges, found {len(edges)}")
    return g


def brute_force_optimum(g: Graph) -> CutSolution:
    """Exact maximum cut: the lowest -cut over every assignment.

    Node 0 is fixed to side 0 (cuts are complement-symmetric), so only
    the 2^(n-1) even assignment integers are scored: the float32 factors
    of `encoding.energy_factors` (exact, as `encoding` says), built once,
    then one product of a row slice of `left` per `_BLOCK` energies. Each
    block is dropped before the next is made, which then takes its
    memory back from the heap. The peak comes while `energy_factors`
    builds the high-half factor: tracemalloc reads 0.34 MiB at n = 22,
    0.74 MiB at n = 24 and 3.38 MiB at n = 28.

    Ties break toward the lowest assignment integer: blocks come in
    ascending order, `np.argmin` returns the first minimum of a block,
    and a later block wins only with a strictly lower energy. Every
    energy is exact, so equal cuts tie exactly. The reported value is
    `cut_value`, the edge-order sum.
    """
    n = g.num_nodes
    if n > MAX_BRUTE_FORCE_NODES:
        raise ValueError(f"brute force capped at {MAX_BRUTE_FORCE_NODES} nodes, got {n}")
    left, right = energy_factors(g)
    rows = max(1, _BLOCK // right.shape[1])
    best_index, best_energy = 0, math.inf
    for start in range(0, len(left), rows):
        block = left[start:start + rows] @ right
        i = int(np.argmin(block))
        if block.flat[i] < best_energy:
            best_index, best_energy = 2 * (start * block.shape[1] + i), block.flat[i]
        del block  # so that the next block reuses its memory
    assignment = tuple((best_index >> i) & 1 for i in range(n))
    return CutSolution(assignment, cut_value(g, assignment))


def exhaustive_optimum(g: Graph) -> CutSolution:
    """Reference maximum cut by naive enumeration of the assignments.

    Independent of the blocked kernel behind brute_force_optimum (recomputes
    every cut from scratch in edge order); used to cross-check it. Node 0
    is fixed to side 0, as there, so only the even assignment integers are
    visited, in ascending order; ties break toward the lowest one, and
    both solvers return the same `CutSolution`.
    """
    n = g.num_nodes
    if n > 24:
        raise ValueError("naive enumeration is for small instances (n <= 24)")
    best_mask, best_value = 0, 0.0
    for mask in range(0, 1 << n, 2):
        val = sum(w for u, v, w in g.edges if ((mask >> u) ^ (mask >> v)) & 1)
        if val > best_value:
            best_mask, best_value = mask, val
    assignment = tuple((best_mask >> i) & 1 for i in range(n))
    return CutSolution(assignment, best_value)
