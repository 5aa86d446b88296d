"""Deterministic random numbers from a SplitMix64 stream.

The generator is fully specified so identical seeds give identical draws on
every platform: state advances by the 64-bit golden-ratio constant and each
output is the SplitMix64 finalizer of the new state (Steele, Lea & Flood,
"Fast splittable pseudorandom number generators"). Because the k-th output
depends only on ``seed + k * GOLDEN``, bulk draws are vectorized with numpy
uint64 arithmetic and agree bit-for-bit with the scalar path. The same fact
lets any block of the stream be computed on its own: bulk normals are drawn
2**14 outputs at a time, so every temporary stays in cache, and they equal the
whole-array draws bit for bit. It also lets a bulk draw return only rows
[start, stop) of its first axis: those rows equal the whole draw sliced the
same way, the rest is never computed, and the stream still advances past the
whole draw. ``normal_blocks`` hands such rows out a block at a time, so a
caller need not hold the whole draw.
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
    def _draws(state: int, a: int, b: int) -> np.ndarray:
        """Outputs a+1 .. b of the stream whose state is ``state``."""
        z = np.arange(a + 1, b + 1, dtype=np.uint64) * np.uint64(_GOLDEN) + np.uint64(state)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))

    def _bulk_u64(self, n: int) -> np.ndarray:
        state = self._state
        self._state = (state + n * _GOLDEN) & _MASK
        return self._draws(state, 0, n)

    def _claim(self, shape, per_output: int, start: int = 0, stop: int = None):
        """Advance past a whole draw of ``shape``, ``per_output`` draws per output.

        Returns the state before the draw, its output count n, the flat
        output range [a, b) of rows [start, stop) of the first axis (all rows
        when ``stop`` is None) and that range's shape.
        """
        shape = tuple(int(d) for d in np.atleast_1d(shape))
        stop = shape[0] if stop is None else stop
        if not 0 <= start <= stop <= shape[0]:
            raise ValueError(f"rows [{start}, {stop}) outside a draw of {shape[0]}")
        n = int(np.prod(shape))
        state = self._state
        self._state = (state + per_output * n * _GOLDEN) & _MASK
        row = n // shape[0] if shape[0] else 0
        return state, n, start * row, stop * row, (stop - start,) + shape[1:]

    def uniform(self, shape=None, start: int = 0, stop: int = None):
        """Floats in [0, 1); scalar when shape is None.

        ``start``/``stop`` return rows [start, stop) of the first axis only.
        """
        if shape is None:
            return (self.next_u64() >> 11) * _INV53
        state, _, a, b, out_shape = self._claim(shape, 1, start, stop)
        u = (self._draws(state, a, b) >> np.uint64(11)).astype(np.float64) * _INV53
        return u.reshape(out_shape)

    def normal(self, shape, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        """Gaussian draws via Box-Muller (two uniforms per output, no rejection).

        Output i of an n-output draw pairs draw i of the stream with draw
        n + i. The outputs are filled ``_CHUNK`` entries at a time, each
        block computing its own slice of both draw ranges, which gives the
        same bits as drawing both ranges whole.
        """
        state, n, _, _, out_shape = self._claim(shape, 2)
        return self._normals(state, n, 0, n, mean, std).reshape(out_shape)

    def normal_blocks(self, shape, rows: int, std: float = 1.0, start: int = 0,
                      stop: int = None):
        """Rows [start, stop) of a zero-mean ``normal`` draw, ``rows`` rows at a time.

        The whole draw is claimed now, as ``normal`` claims it; the returned
        iterator computes each block of rows (the last may be shorter) when
        it is taken. The blocks equal ``normal``'s result cut the same way,
        bit for bit, so a caller holds one block instead of the whole draw.
        """
        state, n, a, b, out_shape = self._claim(shape, 2, start, stop)
        step = max(1, rows * int(np.prod(out_shape[1:])))
        return (self._normals(state, n, i, min(i + step, b), 0.0, std)
                .reshape((-1,) + out_shape[1:]) for i in range(a, b, step))

    def _normals(self, state: int, n: int, a: int, b: int, mean: float, std: float) -> np.ndarray:
        """Flat outputs [a, b) of the n-output normal draw at ``state``."""
        out = np.empty(b - a, dtype=np.float64)
        for i in range(a, b, _CHUNK):
            j = min(i + _CHUNK, b)
            # shift into (0, 1] so the log is finite
            u1 = ((self._draws(state, i, j) >> np.uint64(11)).astype(np.float64) + 1.0) * _INV53
            u2 = (self._draws(state, n + i, n + j) >> np.uint64(11)).astype(np.float64) * _INV53
            out[i - a:j - a] = mean + std * (np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2))
        return out

    def randint(self, n: int) -> int:
        """Integer in [0, n). Modulo bias is negligible for n << 2**64."""
        return self.next_u64() % n

    def permutation(self, n: int) -> np.ndarray:
        """Permutation of range(n): stable argsort of n fresh 64-bit keys."""
        return np.argsort(self._bulk_u64(n), kind="stable")

    def choice(self, seq):
        return seq[self.randint(len(seq))]
