"""Dense statevector simulation with seeded shot sampling.

State layout is a flat complex128 array in little-endian order: bit i
of the basis-state index is qubit i, so index = sum_i bit_i << i,
matching the assignment encoding in `graphs`/`encoding`. A shot
histogram (`Counts`) is keyed by the indices of the array it was drawn
from.

Two evolution paths share that layout:

* `simulate` runs the gate-level QAOA ansatz
  (`circuits.build_qaoa_ansatz`: H, RX, RZZ and barriers) and is the
  reference; any other gate kind, such as the CX and RZ of a
  `circuits.decompose`d circuit, raises ValueError. Only the block of
  the first 2^w amplitudes can be nonzero, w being 1 + the highest
  qubit an H or RX has reached so far. An H or RX that first reaches a
  qubit q >= w writes m01 times that block at 2^q and scales the block
  by m00, so the opening H layer costs about one pass over the state,
  not n; every other gate runs over the whole state. The kernels never
  form operator matrices: H and RX share one scaled flip over a
  (blocks, 2, stride) view. Per slice, the partner amplitudes
  (the view with its pair axis reversed) times m01 go into a one-slice
  buffer; then the slice is scaled by m00 and the buffer added, both
  over whole contiguous slices, so only the partner read is strided.
  RZZ is a parity-phase kernel: each contiguous run of `_SLICE`
  amplitudes is multiplied once by one of two patterns of
  exp(-/+ i theta/2), chosen by the parity of the run's bits above the
  run width on the gate's two qubits. The patterns are filled in place
  by contiguous copies, with no index pattern or gather.
* `qaoa_state` is the QAOA fast path (after Lykov et al., "Fast
  Simulation of High-Depth QAOA Circuits", arXiv:2309.04841). It
  evolves only the half phi[k] = psi[2k] of the state psi, the 2^(n-1)
  amplitudes with qubit 0 at 0: Max-Cut's cost has no fields, so psi is
  unchanged when every qubit flips (Bravyi et al., arXiv:1910.08980),
  and psi[2k + 1] is phi[2^(n-1) - 1 - k], the half read backwards. The
  whole phase separator is one elementwise multiply by exp(-i gamma E)
  over the half energy table E (`encoding.energy_table`), given as its
  levels and a per-entry index into them (`encoding.energy_levels`):
  the exponential is taken once per level (a Max-Cut graph has at most
  one more level than its total weight) and gathered per entry with
  `np.take`. The mixer applies RX(2 beta) to qubits 1..n-1, phi's own
  bits, as fused blocks of up to 4 qubits: one 16x16 Kronecker-product
  matrix per block, applied to the lowest block as one (rows, 16)
  product per slice and to the others as batched `np.matmul`. RX on
  qubit 0 pairs psi[2k] with psi[2k + 1], so it is the mirror step
  phi <- cos(beta) phi - i sin(beta) phi[::-1]: the same scaled flip,
  over a slice from the front and its mirror slice from the back at a
  time, each the other's partner read backwards.

Both work in place on the state, over slices or runs of at most
`_SLICE` amplitudes, so their temporaries stay small and cache-resident:
about 1.5 MiB at most. That is the parity-phase kernel's two complex
patterns, or the mirror step's two partner buffers beside `qaoa_state`'s
gather buffer; the pair kernel's one buffer is half a MiB.
`simulate` is bit-identical whatever the slicing, and equal value for
value to every gate applied to all 2^n amplitudes (a first touch may
give a zero the other sign). `qaoa_state` is the same
whatever the slicing for slices of 64 amplitudes or more (four of the
mixer's 16-amplitude blocks); below that its products can differ in the
last bit.

In bytes per amplitude of the 2^n-amplitude state psi: `simulate` holds
psi, 16, and `qaoa_state` holds phi, 8, each plus that fixed part.
`sample` adds one float64 buffer as long as the state it draws from: 8
for psi, 4 for phi, as does the exact objective's `probabilities`. So
one objective evaluation peaks at about 12, and a QAOA run, which also
holds the half energy table (4) and level index (at most 1), at about
30 in its final draw from `simulate` plus the fixed part; that is what
`bench.BYTES_PER_AMPLITUDE` budgets. ~26 qubits (1 GiB of psi) is the
practical ceiling; both paths refuse wider states up front.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .circuits import Barrier, Circuit, Gate

DEFAULT_MAX_QUBITS = 26

_SQRT_HALF = math.sqrt(0.5)

# Amplitudes per slice of every kernel, so temporaries stay small and
# cache-resident.
_SLICE = 1 << 15
_MIXER_BLOCK = 4


class CapacityError(ValueError):
    """State width exceeds DEFAULT_MAX_QUBITS, or the runs asked for
    exceed the available memory (`bench.run_benchmark`)."""


def check_width(num_qubits: int) -> None:
    """Raise CapacityError if a statevector of this width is over the limit."""
    if num_qubits > DEFAULT_MAX_QUBITS:
        need_gib = (1 << num_qubits) * 16 / 2**30
        raise CapacityError(
            f"{num_qubits} qubits exceeds the {DEFAULT_MAX_QUBITS}-qubit limit "
            f"(statevector alone would need {need_gib:.1f} GiB)"
        )


@dataclass(frozen=True, eq=False)
class Counts:
    """Measurement histogram: `counts[k]` shots landed on basis state
    `indices[k]`; `indices` holds each sampled state once, ascending."""

    indices: np.ndarray
    counts: np.ndarray
    total: int
    num_qubits: int

    def __post_init__(self):
        if self.indices.shape != self.counts.shape or self.indices.ndim != 1:
            raise ValueError("indices and counts must be 1-D arrays of one length")
        if int(self.counts.sum()) != self.total:
            raise ValueError("counts do not sum to total")
        if np.any(self.counts < 1):
            raise ValueError("counts must be positive")
        if np.any(np.diff(self.indices) <= 0):
            raise ValueError("indices must be strictly ascending")
        if self.indices.size and not (0 <= self.indices[0] and self.indices[-1] < 1 << self.num_qubits):
            raise ValueError(f"index out of range for {self.num_qubits} qubits")


def num_qubits_of(state: np.ndarray) -> int:
    n = int(round(math.log2(state.size)))
    if 1 << n != state.size:
        raise ValueError(f"state length {state.size} is not a power of two")
    return n


def simulate(c: Circuit) -> np.ndarray:
    """Amplitudes of U_c |0...0> for a circuit of H, RX, RZZ and barriers.

    Only state[: 2^width] can be nonzero, width being 1 + the highest
    qubit an H or RX has touched so far: every amplitude above it has a
    bit set on a qubit still at |0>. An H or RX on a qubit q >= width,
    the first to touch it, has only that block to mix, with zeros: it
    writes m01 times the block to state[2^q : 2^q + 2^width], scales
    the block by m00 and sets width to q + 1. Those are the products
    `apply_gate` would form, so every value is the same; only the sign
    of a zero may differ. Every other gate runs over the whole state:
    RZZ is diagonal, so it keeps the zeros zero.
    """
    check_width(c.num_qubits)
    state = np.zeros(1 << c.num_qubits, dtype=np.complex128)
    state[0] = 1.0
    width = 0
    for g in c.gates:
        if isinstance(g, Barrier):
            continue
        top = max(g.qubits)
        if top >= width and g.kind in ("H", "RX"):
            m00, m01 = _entries(g)
            np.multiply(state[: 1 << width], m01, out=state[1 << top : (1 << top) + (1 << width)])
            state[: 1 << width] *= m00
            width = top + 1
        else:
            apply_gate(state, g)
    return state


def qaoa_state(
    levels: np.ndarray, index: np.ndarray, gammas: Sequence[float], betas: Sequence[float]
) -> np.ndarray:
    """Half phi of the QAOA state psi for the diagonal cost levels[index]:
    phi[k] = psi[2k], the 2^(n-1) amplitudes with qubit 0 at 0.

    `levels` and `index` are `encoding.energy_levels` of a half
    `encoding.energy_table`, so n = log2(index.size) + 1. The cost is
    unchanged when every spin flips, and so are |+>^n and the mixer, so
    psi[x] = psi[complement of x] and phi holds all of psi: psi[2k + 1]
    is phi[2^(n-1) - 1 - k], the half read backwards.

    Starts from |+>^n; layer k multiplies by exp(-i gammas[k] table) and
    then applies RX(2 betas[k]) to every qubit: to qubits 1..n-1 as
    blocks over phi's bits, and to qubit 0 as the mirror step
    phi <- cos(beta) phi - i sin(beta) phi[::-1]. The exponential is
    taken once per level and gathered per entry, which gives every entry
    the same value as exponentiating the table itself. Equals the even
    entries of `simulate` of `circuits.build_qaoa_ansatz` up to the
    global phase exp(-i sum(gammas) offset), since the circuit drops the
    cost offset; probabilities agree.
    """
    if len(gammas) != len(betas):
        raise ValueError(f"need as many gammas as betas, got {len(gammas)} and {len(betas)}")
    n = num_qubits_of(index) + 1
    check_width(n)
    state = np.full(index.size, 2.0 ** (-n / 2), dtype=np.complex128)
    gathered = np.empty(min(_SLICE, index.size), dtype=np.complex128)
    for gamma, beta in zip(gammas, betas):
        phases = np.exp(-1j * gamma * levels)
        for part, index_part in zip(_slices(state), _slices(index)):
            part *= np.take(phases, index_part, out=gathered[: part.size])
        for low in range(0, n - 1, _MIXER_BLOCK):
            _apply_block(state, low, min(_MIXER_BLOCK, n - 1 - low), beta)
        _apply_mirror(state, beta)
    return state


def _apply_block(state: np.ndarray, low: int, width: int, beta: float) -> None:
    """RX(2 beta) on bits low..low+width-1 as one Kronecker-product matrix:
    on the lowest block one (rows, 2^width) @ block.T product per slice,
    on a higher one a batch of 2^width-row products."""
    rx = np.array([[math.cos(beta), -1j * math.sin(beta)], [-1j * math.sin(beta), math.cos(beta)]])
    block = rx
    for _ in range(width - 1):
        block = np.kron(block, rx)
    if low == 0:
        for part in _slices(state.reshape(-1, 1 << width)):
            part[...] = part @ block.T
        return
    for part in _slices(state.reshape(-1, 1 << width, 1 << low)):
        part[...] = np.matmul(block, part)


def _apply_mirror(state: np.ndarray, beta: float) -> None:
    """RX(2 beta) on qubit 0 of the half state: phi[k] pairs with
    phi[-1 - k], so each slice from the front is mixed with its mirror
    slice from the back, as the scaled flip of `apply_gate`: both
    partners, read reversed and times -i sin(beta), go into two
    one-slice buffers before either slice is scaled by cos(beta) and
    gets its buffer added. The one entry of a one-entry half pairs with
    itself."""
    cos, msin = math.cos(beta), -1j * math.sin(beta)
    size = state.size
    middle = (size + 1) // 2
    bufs = np.empty((2, min(_SLICE, middle)), dtype=np.complex128)
    for start in range(0, middle, _SLICE):
        stop = min(start + _SLICE, middle)
        front, back = state[start:stop], state[size - stop : size - start]
        to_front = np.multiply(back[::-1], msin, out=bufs[0, : stop - start])
        to_back = np.multiply(front[::-1], msin, out=bufs[1, : stop - start])
        front *= cos
        front += to_front
        if size > 1:
            back *= cos
            back += to_back


def _slices(view: np.ndarray) -> Iterator[np.ndarray]:
    """Sub-views covering `view` whose odd axes are kept whole.

    The views here reshape the state so that the odd axes are the bits
    (or the block) a kernel acts on and the even axes run over
    everything else; a flat array is cut into runs of `_SLICE`. Each
    sub-view holds at most `_SLICE` amplitudes, or one run of the odd
    axes when that alone is larger: the innermost even axis is cut
    first, and an outer one only once every inner one fits whole.
    """
    free = range(0, view.ndim, 2)
    steps = {}
    budget = max(1, _SLICE // math.prod(view.shape[1::2]))
    for axis in reversed(free):
        steps[axis] = min(view.shape[axis], budget)
        budget = max(1, budget // view.shape[axis])
    for starts in itertools.product(*(range(0, view.shape[a], steps[a]) for a in free)):
        index = [slice(None)] * view.ndim
        for axis, start in zip(free, starts):
            index[axis] = slice(start, start + steps[axis])
        yield view[tuple(index)]


def apply_gate(state: np.ndarray, g: Gate) -> None:
    """Apply one gate in place, one `_slices` part or `_apply_phase` run at a time.

    H and RX are symmetric 2x2 matrices [[m00, m01], [m01, m11]] with
    m11 = m00 for RX and -m00 for H, applied as one scaled flip per part:
    the partner amplitudes times m01 into a one-slice buffer, the part
    times m00 (H then negates its bit-1 half), and the buffer added.
    Each scalar factor has a zero real or imaginary part, so each
    product is rounded once whether or not numpy fuses its multiply-add,
    and each sum adds the same two products as the matrix-vector product.
    """
    if g.kind == "RZZ":
        _apply_phase(state, g.qubits, np.exp([-0.5j * g.angle, 0.5j * g.angle]))
        return
    m00, m01 = _entries(g)
    buf = np.empty(min(max(_SLICE, 2), state.size), dtype=np.complex128)
    for part in _slices(state.reshape(-1, 2, 1 << g.qubits[0])):
        flip = np.multiply(part[:, ::-1, :], m01, out=buf[: part.size].reshape(part.shape))
        part *= m00
        if g.kind == "H":
            np.negative(part[:, 1, :], out=part[:, 1, :])
        part += flip


def _entries(g: Gate) -> tuple[float, complex]:
    """(m00, m01) of an H or RX gate; any other kind raises ValueError."""
    if g.kind == "H":
        return _SQRT_HALF, _SQRT_HALF
    if g.kind == "RX":
        return math.cos(g.angle / 2.0), -1j * math.sin(g.angle / 2.0)
    raise ValueError(f"cannot simulate a {g.kind} gate: simulate runs only the ansatz's H, RX and RZZ gates")


def _apply_phase(state: np.ndarray, qubits: Sequence[int], phases: np.ndarray) -> None:
    """Multiply each amplitude by phases[parity of its bits on `qubits`].

    Runs of `_SLICE` contiguous amplitudes (at least two: numpy rounds a
    lone complex product differently, without its vector loop's fused
    multiply-add) share one parity pattern from the bits below the run
    width; bits above it give each run a parity, and an odd run takes
    the pattern's phases swapped. The even and odd patterns are filled
    in place: a constant phase over the bits below the lowest qubit,
    then doubled one bit at a time up to the run width, each pattern
    copying its own first half, or the other pattern's on a gate qubit.
    Each copy takes one row: over both rows, source and target would
    overlap in their bounds, and numpy would copy the source first.
    """
    width = min(num_qubits_of(state), max(1, _SLICE.bit_length() - 1))
    parity = np.zeros(state.size >> width, dtype=np.uint8)
    for q in qubits:
        if q >= width:
            parity.reshape(-1, 2, 1 << (q - width))[:, 1] ^= 1
    patterns = np.empty((2, 1 << width), dtype=np.complex128)
    low = min(*qubits, width)
    patterns[:, : 1 << low] = phases[:, None]
    for b in range(low, width):
        for row, done in enumerate(patterns[::-1] if b in qubits else patterns):
            patterns[row, 1 << b : 2 << b] = done[: 1 << b]
    for run, odd in zip(state.reshape(-1, 1 << width), parity):
        run *= patterns[odd]


def probabilities(state: np.ndarray) -> np.ndarray:
    return np.abs(state) ** 2


def sample(state: np.ndarray, shots: int, seed: int) -> Counts:
    """Shot-sampled measurement histogram in the computational basis.

    Inverse-CDF sampling: `shots` uniforms from numpy's PCG64 seeded
    with `seed` are placed into the cumulative probability vector, which
    is renormalized to absorb float drift in the state norm.
    Deterministic for a fixed seed. The uniforms are sorted in place
    first: the histogram does not depend on their order, and ascending
    keys let `np.searchsorted` keep each hit as the next search's lower
    bound, so its reads move through the vector front to back. The vector
    is built in place in one float64 buffer (8 bytes per amplitude), and
    the hits are counted among themselves, so no other array is as long
    as the state; the uniforms are freed before the count.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    cdf = probabilities(state)
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]
    draws = np.random.default_rng(seed).random(shots)
    draws.sort()
    hits = np.searchsorted(cdf, draws, side="right")
    del draws
    indices, counts = np.unique(hits, return_counts=True)
    return Counts(indices, counts, shots, num_qubits_of(state))
