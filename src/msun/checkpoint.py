"""Binary tensor snapshots.

Layout (all integers little-endian u32):
magic "MSUN", version, scale count, the scale table, tensor count, then per
tensor {name length, UTF-8 name, rank, dims, raw little-endian f32 payload}.

A model checkpoint is self-describing: alongside the parameter and batch-norm
buffer tensors it stores small ``meta.*`` tensors holding the architecture
numbers, so a model can be rebuilt from the file alone.
"""

from __future__ import annotations

import math
import struct
from collections import OrderedDict
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .fileio import atomic_write
from .model import BackboneSpec, MsunModel, ScaleSet
from .rng import Rng

MAGIC = b"MSUN"
VERSION = 1
MAX_RANK = 32   # numpy 1.x's array rank limit; model tensors have rank <= 4

_KINDS = ("plain", "residual")


class SnapshotError(ValueError):
    """Malformed snapshot file."""


def save_snapshot(path: str, tensors: "OrderedDict[str, np.ndarray]",
                  scales: Sequence[int]) -> None:
    with atomic_write(path, binary=True) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(scales)))
        for s in scales:
            fh.write(struct.pack("<I", int(s)))
        fh.write(struct.pack("<I", len(tensors)))
        for name, arr in tensors.items():
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            arr = np.asarray(arr, dtype=np.float32)
            fh.write(struct.pack("<I", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(arr.astype("<f4").tobytes())


def load_snapshot(path: str) -> Tuple["OrderedDict[str, np.ndarray]", List[int]]:
    with open(path, "rb") as fh:
        buf = fh.read()

    def take(n: int, offset: int) -> Tuple[bytes, int]:
        if offset + n > len(buf):
            raise SnapshotError(f"{path}: truncated at byte {offset}")
        return buf[offset:offset + n], offset + n

    chunk, off = take(4, 0)
    if chunk != MAGIC:
        raise SnapshotError(f"{path}: bad magic {chunk!r}")
    chunk, off = take(4, off)
    version = struct.unpack("<I", chunk)[0]
    if version != VERSION:
        raise SnapshotError(f"{path}: unsupported version {version}")
    chunk, off = take(4, off)
    n_scales = struct.unpack("<I", chunk)[0]
    scales = []
    for _ in range(n_scales):
        chunk, off = take(4, off)
        scales.append(struct.unpack("<I", chunk)[0])
    chunk, off = take(4, off)
    n_tensors = struct.unpack("<I", chunk)[0]
    tensors: "OrderedDict[str, np.ndarray]" = OrderedDict()
    for _ in range(n_tensors):
        chunk, off = take(4, off)
        name_len = struct.unpack("<I", chunk)[0]
        chunk, off = take(name_len, off)
        try:
            name = chunk.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SnapshotError(f"{path}: tensor name at byte {off - name_len} "
                                f"is not UTF-8 ({exc.reason})") from exc
        if name in tensors:
            raise SnapshotError(f"{path}: tensor {name!r} appears twice")
        chunk, off = take(4, off)
        rank = struct.unpack("<I", chunk)[0]
        if rank > MAX_RANK:
            raise SnapshotError(f"{path}: tensor {name!r} has rank {rank}, "
                                f"more than {MAX_RANK}")
        dims = []
        for _ in range(rank):
            chunk, off = take(4, off)
            dims.append(struct.unpack("<I", chunk)[0])
        chunk, off = take(4 * math.prod(dims), off)   # exact: no int64 overflow
        try:
            tensors[name] = np.frombuffer(chunk, dtype="<f4").reshape(dims).copy()
        except ValueError as exc:      # zero-size, but the other dims overflow
            raise SnapshotError(f"{path}: tensor {name!r} has dims {dims}: {exc}") from exc
    if off != len(buf):
        raise SnapshotError(f"{path}: {len(buf) - off} trailing bytes")
    return tensors, scales


def model_state(model: MsunModel) -> "OrderedDict[str, np.ndarray]":
    state: "OrderedDict[str, np.ndarray]" = OrderedDict()
    spec = model.spec
    state["meta.stage_widths"] = np.asarray(spec.stage_widths, dtype=np.float32)
    state["meta.stage_blocks"] = np.asarray(spec.stage_blocks, dtype=np.float32)
    state["meta.block_kind"] = np.asarray([_KINDS.index(spec.block_kind)], dtype=np.float32)
    state["meta.num_classes"] = np.asarray([spec.num_classes], dtype=np.float32)
    state["meta.canonical_size"] = np.asarray([spec.canonical_size], dtype=np.float32)
    state["meta.subnet_blocks"] = np.asarray([model.subnet_blocks], dtype=np.float32)
    for name, p in model.named_params():
        state[name] = p.data
    for name, b in model.named_buffers():
        state[name] = b
    return state


def save_model(path: str, model: MsunModel) -> None:
    save_snapshot(path, model_state(model), list(model.scales))


def _meta_ints(tensors, name: str, path: str, most: int, scalar: bool = False):
    """Pop a ``meta.*`` tensor as whole numbers in [0, most] (one if scalar)."""
    try:
        arr = tensors.pop(name)
    except KeyError as exc:
        raise SnapshotError(f"{path}: missing architecture tensor {exc}") from exc
    if (arr.ndim != 1 or (scalar and arr.size != 1) or not np.all(np.isfinite(arr))
            or np.any(arr < 0) or np.any(arr > most) or np.any(arr != np.floor(arr))):
        raise SnapshotError(f"{path}: {name} holds {arr.tolist()}, expected "
                            f"{'one' if scalar else 'a list of'} whole numbers "
                            f"from 0 to {most}")
    values = tuple(int(v) for v in arr)
    return values[0] if scalar else values


def load_model(path: str) -> MsunModel:
    tensors, scales = load_snapshot(path)
    # A width or class count is the length of a stored vector and every block
    # stores tensors, so larger numbers cannot describe this file. Rejecting
    # them keeps a corrupt number from sizing the model built below.
    n_values, n_tensors = sum(a.size for a in tensors.values()), len(tensors)
    widths = _meta_ints(tensors, "meta.stage_widths", path, n_values)
    blocks = _meta_ints(tensors, "meta.stage_blocks", path, n_tensors)
    kind = _meta_ints(tensors, "meta.block_kind", path, n_tensors, scalar=True)
    num_classes = _meta_ints(tensors, "meta.num_classes", path, n_values, scalar=True)
    canonical = _meta_ints(tensors, "meta.canonical_size", path, 2**31, scalar=True)
    subnet_blocks = _meta_ints(tensors, "meta.subnet_blocks", path, n_tensors, scalar=True)
    if kind >= len(_KINDS):
        raise SnapshotError(f"{path}: meta.block_kind {kind} is not one of "
                            f"{list(range(len(_KINDS)))} ({', '.join(_KINDS)})")
    try:
        spec = BackboneSpec(widths, blocks, _KINDS[kind], num_classes, canonical)
        model = MsunModel(spec, ScaleSet(scales), subnet_blocks, Rng(0))
    except ValueError as exc:
        raise SnapshotError(f"{path}: architecture does not build: {exc}") from exc

    expected = dict(model.named_params())
    buffers = dict(model.named_buffers())
    names = set(expected) | set(buffers)
    if names != set(tensors):
        missing = sorted(names - set(tensors))
        extra = sorted(set(tensors) - names)
        raise SnapshotError(f"{path}: tensor names do not match the architecture "
                            f"(missing {missing}, unexpected {extra})")
    for name, arr in tensors.items():
        # a trained model holds only finite values, and a variance is never
        # negative; either would evaluate to a number that means nothing
        if not np.all(np.isfinite(arr)):
            raise SnapshotError(f"{path}: {name} holds a non-finite value")
        if "running_var" in name.split(".") and np.any(arr < 0):
            raise SnapshotError(f"{path}: {name} holds a negative running variance")
        if name in expected:
            if expected[name].data.shape != arr.shape:
                raise SnapshotError(f"{path}: {name} has shape {arr.shape}, "
                                    f"expected {expected[name].data.shape}")
            expected[name].data[...] = arr
        else:
            buffers[name][...] = arr
    return model.eval()
