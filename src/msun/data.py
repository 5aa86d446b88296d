"""Deterministic multi-scale data: shape renderer, IDX files, batch streams.

The generator draws parametric grayscale shapes analytically at the requested
native resolution, so a 16-pixel dataset is genuinely low-information rather
than a downsampled copy. All randomness comes from the SplitMix64 stream, so
a seed pins the dataset bit-for-bit, and any range of samples can be
rendered on its own, equal to the same range of the whole set.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Iterator, List

import numpy as np

from .fileio import atomic_write
from .layers import resize_images
from .rng import Rng
from .tensor import FieldError

# noise values per block of a render: 2 MB of float64, 64 samples at 64 px
_NOISE_BLOCK = 1 << 18

CLASS_NAMES = ("disk", "square", "triangle", "cross", "ring", "bar", "diamond", "checker")


class IdxFormatError(ValueError):
    """Base for malformed IDX files."""


class IdxMagicError(IdxFormatError):
    pass


class IdxTruncatedError(IdxFormatError):
    pass


class IdxCountMismatchError(IdxFormatError):
    pass


class IdxEmptyError(IdxFormatError):
    pass


@dataclass
class Dataset:
    images: np.ndarray          # [N,1,H,W] float32 in [0,1]: grey, one channel
    labels: np.ndarray          # [N] int64
    class_names: List[str]
    native_size: int

    def __post_init__(self):
        n_classes = len(self.class_names)
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= n_classes):
            raise ValueError(f"labels outside [0, {n_classes})")
        lo, hi = float(self.images.min()), float(self.images.max())
        if lo < 0.0 or hi > 1.0:
            raise ValueError(f"pixel values outside [0,1]: [{lo}, {hi}]")

    def __len__(self):
        return self.images.shape[0]

    def subset(self, indices) -> "Dataset":
        return Dataset(self.images[indices], self.labels[indices],
                       self.class_names, self.native_size)


@dataclass
class MultiScaleBatch:
    """The same samples, in the same order, resized to every quantized scale."""

    images: List[np.ndarray]    # one [B,C,R_i,R_i] array per scale
    labels: np.ndarray


def _shape_field(kind: str, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Signed boundary field: negative inside, zero on the outline."""
    if kind == "disk":
        return np.hypot(u, v) - 1.0
    if kind == "square":
        return np.maximum(np.abs(u), np.abs(v)) - 0.75
    if kind == "triangle":
        return np.maximum(0.866 * np.abs(u) + 0.5 * v - 0.5, -v - 0.5)
    if kind == "cross":
        arm_h = np.maximum(np.abs(u) - 1.0, np.abs(v) - 0.35)
        arm_v = np.maximum(np.abs(v) - 1.0, np.abs(u) - 0.35)
        return np.minimum(arm_h, arm_v)
    if kind == "ring":
        return np.abs(np.hypot(u, v) - 0.775) - 0.225
    if kind == "bar":
        return np.maximum(np.abs(u) - 1.0, np.abs(v) - 0.3)
    if kind == "diamond":
        return (np.abs(u) + np.abs(v)) * 0.7071 - 0.75
    if kind == "checker":
        sq = np.maximum(np.abs(u), np.abs(v)) - 0.75
        return np.where(u * v > 0, sq, np.maximum(sq, 0.05))
    raise ValueError(f"unknown shape kind {kind!r}")


def gen_shapes(seed: int, n_samples: int, n_classes: int, size: int,
               noise: float = 0.05, start: int = 0, stop: int = None) -> Dataset:
    """Balanced procedural shape dataset, rendered natively at ``size``.

    Images are grey, ``[N,1,size,size]``: a stem convolution reads the one
    channel as each of its input channels (see ``layers.conv2d``).

    ``start``/``stop`` render only samples [start, stop) of the
    ``n_samples``-sample set (all of them by default), bit for bit equal to
    the whole set sliced the same way. Only that range is drawn: parameter
    draws 5*start .. 5*stop, and the matching rows of the noise field, which
    follows all 5*n_samples parameter draws in the stream. The noise is
    drawn ``_NOISE_BLOCK`` values' worth of samples at a time, so a render
    holds its float32 images and one block of float64 noise, not the whole
    field.
    """
    if n_classes > len(CLASS_NAMES):
        raise FieldError("n_classes", f"at most {len(CLASS_NAMES)} classes, got {n_classes}")
    if n_classes < 1:
        raise FieldError("n_classes", f"need at least one class, got {n_classes}")
    if size < 16:
        raise FieldError("size", f"native size must be >= 16, got {size}")
    if n_samples < 1:
        raise FieldError("n_samples", f"n_samples must be >= 1, got {n_samples}")
    if not (math.isfinite(noise) and noise >= 0.0):
        raise FieldError("noise", f"noise must be finite and >= 0, got {noise}")
    stop = n_samples if stop is None else stop
    if not 0 <= start < stop <= n_samples:
        raise ValueError(f"samples [start={start}, stop={stop}) not a non-empty "
                         f"range of n_samples={n_samples}")
    rng = Rng(seed)
    params = rng.uniform((n_samples, 5), start=start, stop=stop)
    block = max(1, _NOISE_BLOCK // (size * size))
    noise_blocks = (rng.normal_blocks((n_samples, size, size), block, std=noise,
                                      start=start, stop=stop) if noise else None)

    coords = (np.arange(size, dtype=np.float64) + 0.5) / size
    yy, xx = np.meshgrid(coords, coords, indexing="ij")

    images = np.empty((stop - start, 1, size, size), dtype=np.float32)
    labels = np.arange(start, stop, dtype=np.int64) % n_classes
    for idx in range(stop - start):
        cx = 0.35 + 0.30 * params[idx, 0]
        cy = 0.35 + 0.30 * params[idx, 1]
        radius = 0.18 + 0.20 * params[idx, 2]
        theta = (params[idx, 3] - 0.5) * (np.pi / 6.0)   # +-15 degrees
        bright = 0.55 + 0.45 * params[idx, 4]

        ct, st = np.cos(theta), np.sin(theta)
        dx, dy = xx - cx, yy - cy
        u = (dx * ct + dy * st) / radius
        v = (-dx * st + dy * ct) / radius
        d = _shape_field(CLASS_NAMES[labels[idx]], u, v)
        # ~1.5px linear anti-alias ramp across the outline
        edge = 1.5 / (size * radius)
        img = bright * np.clip(0.5 - d / edge, 0.0, 1.0)
        if noise_blocks is not None:
            if idx % block == 0:
                noise_block = next(noise_blocks)
            img = img + noise_block[idx % block]
        images[idx, 0] = np.clip(img, 0.0, 1.0)
    return Dataset(images, labels, list(CLASS_NAMES[:n_classes]), size)


def split_dataset(ds: Dataset, train_fraction: float, seed: int):
    """Seed-fixed permutation split into (train, test)."""
    perm = Rng(seed).permutation(len(ds))
    k = int(round(train_fraction * len(ds)))
    return ds.subset(perm[:k]), ds.subset(perm[k:])


_IMAGES_MAGIC = 0x00000803
_LABELS_MAGIC = 0x00000801


def _read_exact(buf: bytes, offset: int, n: int, path: str) -> bytes:
    if offset + n > len(buf):
        raise IdxTruncatedError(f"{path}: expected {offset + n} bytes, file has {len(buf)}")
    return buf[offset:offset + n]


def load_idx(images_path: str, labels_path: str) -> Dataset:
    """Read an IDX image/label pair into a float dataset.

    Pixels are scaled to [0,1] and kept as one channel, ``[N,1,H,W]``. Classes
    are named ``class0`` up to the largest label.
    """
    with open(images_path, "rb") as fh:
        raw = fh.read()
    magic, n, h, w = struct.unpack(">IIII", _read_exact(raw, 0, 16, images_path))
    if magic != _IMAGES_MAGIC:
        raise IdxMagicError(f"{images_path}: magic {magic:#010x}, "
                            f"expected {_IMAGES_MAGIC:#010x}")
    if not n * h * w:
        raise IdxEmptyError(f"{images_path}: holds no images ({n} of {h}x{w} pixels)")
    payload = _read_exact(raw, 16, n * h * w, images_path)
    if len(raw) != 16 + n * h * w:
        raise IdxTruncatedError(f"{images_path}: {len(raw) - 16 - n * h * w} trailing bytes")
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(n, h, w)

    with open(labels_path, "rb") as fh:
        raw = fh.read()
    magic, n_labels = struct.unpack(">II", _read_exact(raw, 0, 8, labels_path))
    if magic != _LABELS_MAGIC:
        raise IdxMagicError(f"{labels_path}: magic {magic:#010x}, "
                            f"expected {_LABELS_MAGIC:#010x}")
    label_bytes = _read_exact(raw, 8, n_labels, labels_path)
    if len(raw) != 8 + n_labels:
        raise IdxTruncatedError(f"{labels_path}: {len(raw) - 8 - n_labels} trailing bytes")
    if n_labels != n:
        raise IdxCountMismatchError(f"{images_path} has {n} images but "
                                    f"{labels_path} has {n_labels} labels")
    labels = np.frombuffer(label_bytes, dtype=np.uint8).astype(np.int64)

    images = (pixels.astype(np.float32) / 255.0)[:, None, :, :]
    n_classes = int(labels.max()) + 1
    return Dataset(images, labels, [f"class{i}" for i in range(n_classes)], h)


def save_idx(ds: Dataset, images_path: str, labels_path: str) -> None:
    """Write channel 0 as u8 IDX images plus a u8 IDX label file."""
    n, _, h, w = ds.images.shape
    pixels = np.rint(ds.images[:, 0] * 255.0).astype(np.uint8)
    with atomic_write(images_path, binary=True) as fh:
        fh.write(struct.pack(">IIII", _IMAGES_MAGIC, n, h, w))
        fh.write(pixels.tobytes())
    with atomic_write(labels_path, binary=True) as fh:
        fh.write(struct.pack(">II", _LABELS_MAGIC, n))
        fh.write(ds.labels.astype(np.uint8).tobytes())


def make_multiscale(dataset: Dataset, scales, batch_size: int,
                    seed: int) -> Iterator[MultiScaleBatch]:
    """Seed-shuffled aligned batches at every scale; keeps the last partial."""
    order = Rng(seed).permutation(len(dataset))
    for start in range(0, len(dataset), batch_size):
        idx = order[start:start + batch_size]
        native = dataset.images[idx]
        views = [resize_images(native, s, s) for s in scales]
        yield MultiScaleBatch(views, dataset.labels[idx])


def prefetch_batches(batches: Iterator) -> Iterator:
    """Yield ``batches`` unchanged and in order.

    Batches are produced in the caller's thread. This is the one place the
    training loop waits for a batch, so a profiler can time that wait here.
    """
    yield from batches
