"""Counter-based random streams for reproducible parallel sampling.

Randomness that must be invariant under sharding and worker count is drawn
from a stateless 64-bit mix of (seed, stream id, counter) rather than from a
sequential generator, so the value consumed by one walk never depends on how
many other walks ran before it. The sampler's stream id is its walk id.
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)


def splitmix64(x: np.ndarray | int) -> np.ndarray | np.uint64:
    """Vectorized SplitMix64 finalizer; uint64 in, uint64 out, mixed in place in one new array."""
    with np.errstate(over="ignore"):  # wrapping multiply is the algorithm
        z = np.asarray(x, dtype=np.uint64) + _GOLDEN
        z ^= z >> _U64(30)
        z *= _MIX1
        z ^= z >> _U64(27)
        z *= _MIX2
        z ^= z >> _U64(31)
    return z if z.ndim else _U64(z)


class HashStream:
    """Keyed family of uniform streams indexed by (stream id, counter)."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._base = splitmix64(np.uint64(self.seed & 0xFFFFFFFFFFFFFFFF))

    def raw(self, stream_ids: np.ndarray, counter: int) -> np.ndarray:
        """uint64 values, one per stream id, at the given counter; int64 ids are viewed, not copied."""
        h = splitmix64(self._base ^ np.asarray(stream_ids, dtype=np.int64).view(np.uint64))
        h ^= np.uint64(counter)
        return splitmix64(h)

    def bounded(self, stream_ids: np.ndarray, counter: int, bounds: np.ndarray) -> np.ndarray:
        """Integers in [0, bounds) per stream; bounds must be >= 1.

        Uses modulo reduction; bias is bounds/2**64, negligible for node
        degrees. The draws are reduced in place and returned as an int64 view.
        """
        h = self.raw(stream_ids, counter)
        h %= np.asarray(bounds, dtype=np.int64).view(np.uint64)
        return h.view(np.int64)


def derive_seed(seed: int, label: str) -> int:
    """Stable per-stage seed derived from a global seed and a stage label."""
    h = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    for byte in label.encode("utf-8"):
        h = splitmix64(h ^ np.uint64(byte))
    return int(h) & 0x7FFFFFFFFFFFFFFF
