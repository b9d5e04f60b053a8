"""Portable deterministic random streams.

Instance generation and seed derivation use SplitMix64 (Steele, Lea &
Flood, 2014), chosen because it is fully specified by three 64-bit
constants and trivially portable across languages:

    state   <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z       <- state
    z       <- (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9   mod 2^64
    z       <- (z XOR (z >> 27)) * 0x94D049BB133111EB   mod 2^64
    output  <- z XOR (z >> 31)

Uniform floats take the top 53 bits of an output word, giving values in
[0, 1). Simulator sampling and parameter initialization use numpy's
PCG64 via :func:`numpy.random.default_rng`, seeded with integers derived
here, so any run is reproducible from a single master seed.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _finalize(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Minimal SplitMix64 stream; deterministic for a given seed."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _finalize(self._state)

    def next_float(self) -> float:
        """Uniform in [0, 1) with 53-bit resolution."""
        return (self.next_u64() >> 11) / float(1 << 53)


def mix64(*parts: int) -> int:
    """Collapse integers into one 64-bit seed.

    Defined as iterated SplitMix64 finalization: h starts at 0 and each
    part is absorbed via h <- finalize((h + part + GOLDEN) mod 2^64).
    Used to derive independent sub-stream seeds (per-run seeds, per-
    evaluation shot seeds) from a master seed; documented so results can
    be reproduced outside this package.
    """
    h = 0
    for p in parts:
        h = _finalize((h + (p & _MASK64) + _GOLDEN) & _MASK64)
    return h


def fnv1a64(text: str) -> int:
    """FNV-1a hash of a UTF-8 string; stable across runs and platforms."""
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h
