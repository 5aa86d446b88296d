"""Deterministic random numbers from a SplitMix64 stream.

The generator is fully specified so identical seeds give identical draws on
every platform: state advances by the 64-bit golden-ratio constant and each
output is the SplitMix64 finalizer of the new state (Steele, Lea & Flood,
"Fast splittable pseudorandom number generators"). Because the k-th output
depends only on ``seed + k * GOLDEN``, bulk draws are vectorized with numpy
uint64 arithmetic and agree bit-for-bit with the scalar path. The same fact
lets any block of the stream be computed on its own: bulk normals are drawn
2**14 outputs at a time, so every temporary stays in cache, and they equal the
whole-array draws bit for bit.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# 2**-53, for mapping the top 53 bits of a draw onto [0, 1)
_INV53 = 1.0 / (1 << 53)

# outputs per block of a bulk normal draw: each temporary is 128 KB
_CHUNK = 1 << 14


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


class Rng:
    """SplitMix64 stream seeded with a 64-bit integer."""

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return _mix(self._state)

    @staticmethod
    def _draws(start: int, a: int, b: int) -> np.ndarray:
        """Outputs a+1 .. b of the stream whose state is ``start``."""
        z = np.arange(a + 1, b + 1, dtype=np.uint64) * np.uint64(_GOLDEN) + np.uint64(start)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))

    def _bulk_u64(self, n: int) -> np.ndarray:
        start = self._state
        self._state = (start + n * _GOLDEN) & _MASK
        return self._draws(start, 0, n)

    def uniform(self, shape=None, low: float = 0.0, high: float = 1.0):
        """Floats in [low, high); scalar when shape is None."""
        if shape is None:
            u = (self.next_u64() >> 11) * _INV53
            return low + (high - low) * u
        n = int(np.prod(shape))
        u = (self._bulk_u64(n) >> np.uint64(11)).astype(np.float64) * _INV53
        return (low + (high - low) * u).reshape(shape)

    def normal(self, shape, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        """Gaussian draws via Box-Muller (two uniforms per output, no rejection).

        Output i pairs draw i of the stream with draw n + i. The output is
        filled ``_CHUNK`` entries at a time, each block computing its own
        slice of both draw ranges, which gives the same bits as drawing
        both ranges whole.
        """
        n = int(np.prod(shape))
        start = self._state
        self._state = (start + 2 * n * _GOLDEN) & _MASK
        out = np.empty(n, dtype=np.float64)
        for a in range(0, n, _CHUNK):
            b = min(a + _CHUNK, n)
            # shift into (0, 1] so the log is finite
            u1 = ((self._draws(start, a, b) >> np.uint64(11)).astype(np.float64) + 1.0) * _INV53
            u2 = (self._draws(start, n + a, n + b) >> np.uint64(11)).astype(np.float64) * _INV53
            out[a:b] = mean + std * (np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2))
        return out.reshape(shape)

    def randint(self, n: int) -> int:
        """Integer in [0, n). Modulo bias is negligible for n << 2**64."""
        return self.next_u64() % n

    def permutation(self, n: int) -> np.ndarray:
        """Permutation of range(n): stable argsort of n fresh 64-bit keys."""
        return np.argsort(self._bulk_u64(n), kind="stable")

    def choice(self, seq):
        return seq[self.randint(len(seq))]
