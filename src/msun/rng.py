"""Deterministic random numbers from a SplitMix64 stream.

The generator is fully specified so identical seeds give identical draws on
every platform: state advances by the 64-bit golden-ratio constant and each
output is the SplitMix64 finalizer of the new state (Steele, Lea & Flood,
"Fast splittable pseudorandom number generators"). Because the k-th output
depends only on ``seed + k * GOLDEN``, bulk draws are vectorized with numpy
uint64 arithmetic and agree bit-for-bit with the scalar path.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# 2**-53, for mapping the top 53 bits of a draw onto [0, 1)
_INV53 = 1.0 / (1 << 53)


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

    def _bulk_u64(self, n: int) -> np.ndarray:
        start = self._state
        self._state = (start + n * _GOLDEN) & _MASK
        z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GOLDEN) + np.uint64(start)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))

    def uniform(self, shape=None, low: float = 0.0, high: float = 1.0):
        """Floats in [low, high); scalar when shape is None."""
        if shape is None:
            u = (self.next_u64() >> 11) * _INV53
            return low + (high - low) * u
        n = int(np.prod(shape))
        u = (self._bulk_u64(n) >> np.uint64(11)).astype(np.float64) * _INV53
        return (low + (high - low) * u).reshape(shape)

    def normal(self, shape, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        """Gaussian draws via Box-Muller (two uniforms per output, no rejection)."""
        n = int(np.prod(shape))
        # shift into (0, 1] so the log is finite
        u1 = ((self._bulk_u64(n) >> np.uint64(11)).astype(np.float64) + 1.0) * _INV53
        u2 = (self._bulk_u64(n) >> np.uint64(11)).astype(np.float64) * _INV53
        z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
        return (mean + std * z).reshape(shape)

    def randint(self, n: int) -> int:
        """Integer in [0, n). Modulo bias is negligible for n << 2**64."""
        return self.next_u64() % n

    def permutation(self, n: int) -> np.ndarray:
        """Permutation of range(n): stable argsort of n fresh 64-bit keys."""
        return np.argsort(self._bulk_u64(n), kind="stable")

    def choice(self, seq):
        return seq[self.randint(len(seq))]
