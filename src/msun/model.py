"""Multi-scale unified network: backbone, subnets, routing, and losses.

A backbone is a flat list of blocks (stem first) followed by a pooled linear
head. Transforming it for multi-scale input moves the first ``subnet_blocks``
blocks into one copy per quantized scale; the stem copy for a smaller scale
downsamples proportionally less (smaller kernel, stride 1, pooling dropped)
so every branch lands on one common feature shape. The remaining blocks and
the head are shared across branches.

The degenerate settings stay meaningful: a single scale with zero subnet
blocks is exactly the ordinary fixed-input network, with inputs resized to
the canonical size by the routing step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import tensor as T
from .layers import (BatchNorm2d, Conv2d, Linear, bilinear_resize, global_avg_pool,
                     maxpool2d, resize_images, softmax_cross_entropy)
from .rng import Rng
from .tensor import NonFiniteError, ShapeError, Tensor


@dataclass(frozen=True)
class BackboneSpec:
    """Mini CNN family: per-stage widths and block counts, one head."""

    stage_widths: tuple
    stage_blocks: tuple
    block_kind: str = "plain"           # "plain" | "residual"
    num_classes: int = 6
    canonical_size: int = 64

    def __post_init__(self):
        if len(self.stage_widths) != len(self.stage_blocks):
            raise ValueError("stage_widths and stage_blocks lengths differ")
        if self.block_kind not in ("plain", "residual"):
            raise ValueError(f"unknown block kind {self.block_kind!r}")
        if min(self.stage_blocks) < 1 or min(self.stage_widths) < 1:
            raise ValueError("stage widths and block counts must be positive")
        size = self.canonical_size // 4   # stem downsample
        for i in range(1, len(self.stage_widths)):
            size //= 2
        if size < 1:
            raise ValueError(f"stage {len(self.stage_widths) - 1} reduces spatial size "
                             f"below 1 at canonical input {self.canonical_size}")

    @property
    def total_blocks(self) -> int:
        return 1 + sum(self.stage_blocks)   # stem plus stage blocks


class ScaleSet:
    """Ordered quantized input sizes R_1 < ... < R_S with nearest routing."""

    def __init__(self, sizes: Sequence[int]):
        sizes = tuple(int(s) for s in sizes)
        if len(sizes) < 1:
            raise ValueError("at least one scale required")
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError(f"scales must be strictly increasing, got {sizes}")
        if sizes[0] < 1:
            raise ValueError("scales must be positive")
        self.sizes = sizes

    def __len__(self):
        return len(self.sizes)

    def __iter__(self):
        return iter(self.sizes)

    def __getitem__(self, i):
        return self.sizes[i]

    def __eq__(self, other):
        return isinstance(other, ScaleSet) and self.sizes == other.sizes

    def __repr__(self):
        return f"ScaleSet{self.sizes}"


def route_scale(input_size: int, scales: ScaleSet) -> int:
    """Index of the quantized size nearest to input_size; ties go smaller."""
    if input_size < 1:
        raise ValueError(f"input size must be positive, got {input_size}")
    best, best_d = 0, abs(input_size - scales[0])
    for i in range(1, len(scales)):
        d = abs(input_size - scales[i])
        if d < best_d:
            best, best_d = i, d
    return best


class PlainBlock:
    """conv3x3 -> BN -> ReLU, optionally strided."""

    def __init__(self, in_ch: int, out_ch: int, stride: int, rng: Rng, n_stat_sets=1):
        self.conv = Conv2d(in_ch, out_ch, 3, stride, 1, rng)
        self.bn = BatchNorm2d(out_ch, n_stat_sets=n_stat_sets)

    def forward(self, x, train, stat_set=-1):
        return self.bn.forward(self.conv.forward(x, train), train, stat_set).relu()

    def children(self):
        return [("conv", self.conv), ("bn", self.bn)]

    def out_size(self, size):
        return self.conv.out_size(size)


class ResidualBlock:
    """Two conv3x3-BN with identity (or 1x1 projected) skip, ReLU at the end."""

    def __init__(self, in_ch: int, out_ch: int, stride: int, rng: Rng, n_stat_sets=1):
        self.conv1 = Conv2d(in_ch, out_ch, 3, stride, 1, rng)
        self.bn1 = BatchNorm2d(out_ch, n_stat_sets=n_stat_sets)
        self.conv2 = Conv2d(out_ch, out_ch, 3, 1, 1, rng)
        self.bn2 = BatchNorm2d(out_ch, n_stat_sets=n_stat_sets)
        self.proj = None
        self.proj_bn = None
        if stride != 1 or in_ch != out_ch:
            self.proj = Conv2d(in_ch, out_ch, 1, stride, 0, rng)
            self.proj_bn = BatchNorm2d(out_ch, n_stat_sets=n_stat_sets)

    def forward(self, x, train, stat_set=-1):
        h = self.bn1.forward(self.conv1.forward(x, train), train, stat_set).relu()
        h = self.bn2.forward(self.conv2.forward(h, train), train, stat_set)
        skip = x
        if self.proj is not None:
            skip = self.proj_bn.forward(self.proj.forward(x, train), train, stat_set)
        return (h + skip).relu()

    def children(self):
        out = [("conv1", self.conv1), ("bn1", self.bn1),
               ("conv2", self.conv2), ("bn2", self.bn2)]
        if self.proj is not None:
            out += [("proj", self.proj), ("proj_bn", self.proj_bn)]
        return out

    def out_size(self, size):
        return self.conv1.out_size(size)


class Stem:
    """Input block. The downsample factor selects the variant:

    4 -> conv5x5/2 + BN + ReLU + maxpool2 (the canonical-scale stem),
    2 -> conv3x3/2 + BN + ReLU,
    1 -> conv3x3/1 + BN + ReLU.
    """

    FACTORS = (1, 2, 4)

    def __init__(self, in_ch: int, out_ch: int, downsample: int, rng: Rng, n_stat_sets=1):
        if downsample not in self.FACTORS:
            raise ValueError(f"unsupported stem downsample factor {downsample}")
        self.downsample = downsample
        if downsample == 4:
            self.conv = Conv2d(in_ch, out_ch, 5, 2, 2, rng)
            self.pool = 2
        elif downsample == 2:
            self.conv = Conv2d(in_ch, out_ch, 3, 2, 1, rng)
            self.pool = 0
        else:
            self.conv = Conv2d(in_ch, out_ch, 3, 1, 1, rng)
            self.pool = 0
        self.bn = BatchNorm2d(out_ch, n_stat_sets=n_stat_sets)

    def forward(self, x, train, stat_set=-1):
        h = self.bn.forward(self.conv.forward(x, train), train, stat_set).relu()
        if self.pool:
            h = maxpool2d(h, self.pool, self.pool)
        return h

    def children(self):
        return [("conv", self.conv), ("bn", self.bn)]

    def out_size(self, size):
        out = self.conv.out_size(size)
        return out // self.pool if self.pool else out


class Stack:
    """Named sequence of blocks with tap capture."""

    def __init__(self, named_blocks):
        self.blocks = list(named_blocks)

    def forward(self, x, train, prefix="", taps=None, stat_set=-1):
        for name, block in self.blocks:
            x = block.forward(x, train, stat_set)
            if taps is not None and prefix + name in taps:
                taps[prefix + name] = x
        return x

    def named_layers(self, prefix=""):
        for name, block in self.blocks:
            for cname, child in block.children():
                yield f"{prefix}{name}.{cname}", child

    def block_names(self, prefix=""):
        return [prefix + name for name, _ in self.blocks]

    def out_size(self, size):
        for _, block in self.blocks:
            size = block.out_size(size)
        return size


def _make_block(kind, in_ch, out_ch, stride, rng, n_stat_sets=1):
    cls = PlainBlock if kind == "plain" else ResidualBlock
    return cls(in_ch, out_ch, stride, rng, n_stat_sets)


def _block_plan(spec: BackboneSpec):
    """(name, in_ch, out_ch, stride) for every non-stem block, in order."""
    plan = []
    prev = spec.stage_widths[0]
    idx = 1
    for s, (width, count) in enumerate(zip(spec.stage_widths, spec.stage_blocks)):
        for b in range(count):
            stride = 2 if (s > 0 and b == 0) else 1
            plan.append((f"block{idx}", prev, width, stride))
            prev = width
            idx += 1
    return plan


@dataclass
class LossBreakdown:
    """Per-step loss components; total = max(si, lam) + sum(ce_per_scale)."""

    total: float
    ce_per_scale: list
    si: float
    lam: float
    clamped: bool

    @property
    def ce_sum(self):
        return float(sum(self.ce_per_scale))


class MsunModel:
    """Scale subnets f_1..f_S, shared deep network g, pooled linear head."""

    def __init__(self, spec: BackboneSpec, scales: ScaleSet, subnet_blocks: int, rng: Rng):
        if subnet_blocks < 0:
            raise ValueError("subnet block count must be >= 0")
        if subnet_blocks >= spec.total_blocks:
            raise ValueError(f"subnet blocks {subnet_blocks} must be fewer than the "
                             f"backbone's {spec.total_blocks} blocks")
        if scales[len(scales) - 1] != spec.canonical_size:
            raise ValueError(f"largest scale {scales[len(scales) - 1]} must equal the "
                             f"canonical size {spec.canonical_size}")
        self.spec = spec
        self.scales = scales
        self.subnet_blocks = subnet_blocks
        self.training = True
        self.branch_calls = [0] * len(scales)

        plan = _block_plan(spec)
        canonical = spec.canonical_size
        self.subnets = []
        for i, size in enumerate(scales):
            if subnet_blocks == 0:
                self.subnets.append(Stack([]))
                continue
            ds = 4 * size // canonical
            if ds not in Stem.FACTORS or 4 * size != ds * canonical:
                raise ValueError(
                    f"no stem adaptation reaches the common feature shape for "
                    f"scale index {i} (size {size}, canonical {canonical})")
            blocks = [("stem", Stem(3, spec.stage_widths[0], ds, rng))]
            for name, in_ch, out_ch, stride in plan[:subnet_blocks - 1]:
                blocks.append((name, _make_block(spec.block_kind, in_ch, out_ch, stride, rng)))
            self.subnets.append(Stack(blocks))

        unified_blocks = []
        if subnet_blocks == 0:
            unified_blocks.append(("stem", Stem(3, spec.stage_widths[0], 4, rng,
                                                n_stat_sets=len(scales))))
        for name, in_ch, out_ch, stride in plan[max(0, subnet_blocks - 1):]:
            unified_blocks.append((name, _make_block(spec.block_kind, in_ch, out_ch,
                                                     stride, rng, len(scales))))
        self.unified = Stack(unified_blocks)
        self.head = Linear(spec.stage_widths[-1], spec.num_classes, rng)

        self.feature_shape = self._check_feature_shapes()

    # -- structure ---------------------------------------------------------

    def _check_feature_shapes(self):
        """Common (channels, h, w) every subnet must emit; raises otherwise."""
        shapes = []
        for i, size in enumerate(self.scales):
            if self.subnet_blocks == 0:
                shapes.append((3, self.spec.canonical_size, self.spec.canonical_size))
            else:
                out = self.subnets[i].out_size(size)
                ch = self._subnet_out_channels()
                shapes.append((ch, out, out))
        if len(set(shapes)) != 1:
            raise ValueError(f"subnet output shapes differ across scales: {shapes}")
        return shapes[0]

    def _subnet_out_channels(self):
        if self.subnet_blocks <= 1:
            return self.spec.stage_widths[0]
        return _block_plan(self.spec)[self.subnet_blocks - 2][2]

    def train(self):
        self.training = True
        return self

    def eval(self):
        self.training = False
        return self

    def named_params(self):
        out = []
        for i, subnet in enumerate(self.subnets):
            for lname, layer in subnet.named_layers(f"subnet{i + 1}."):
                for pname, p in layer.params():
                    out.append((f"{lname}.{pname}", p))
        for lname, layer in self.unified.named_layers("unified."):
            for pname, p in layer.params():
                out.append((f"{lname}.{pname}", p))
        for pname, p in self.head.params():
            out.append((f"head.{pname}", p))
        return out

    def named_buffers(self):
        out = []
        for i, subnet in enumerate(self.subnets):
            for lname, layer in subnet.named_layers(f"subnet{i + 1}."):
                for bname, b in layer.buffers():
                    out.append((f"{lname}.{bname}", b))
        for lname, layer in self.unified.named_layers("unified."):
            for bname, b in layer.buffers():
                out.append((f"{lname}.{bname}", b))
        return out

    def parameters(self):
        return [p for _, p in self.named_params()]

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()

    def tap_names(self):
        names = ["features"]
        names += [f"unified.{n}" for n in self.unified.block_names()]
        names.append("pooled")
        return names

    # -- forward -----------------------------------------------------------

    def _subnet_forward(self, i: int, x: Tensor) -> Tensor:
        self.branch_calls[i] += 1
        if self.subnet_blocks == 0:
            canonical = self.spec.canonical_size
            if x.shape[2] == canonical and x.shape[3] == canonical:
                return x
            return bilinear_resize(x, canonical, canonical)
        return self.subnets[i].forward(x, self.training)

    def _head_forward(self, features: Tensor, taps=None, stat_set=-1):
        h = self.unified.forward(features, self.training, "unified.", taps, stat_set)
        pooled = global_avg_pool(h)
        if taps is not None and "pooled" in taps:
            taps["pooled"] = pooled
        return self.head.forward(pooled, self.training)

    def forward_branch(self, i: int, x: Tensor, taps=None):
        """Logits and subnet features for branch i on an already-sized input.

        Shared batch-norm layers normalize with their own branch's running
        statistics set; the affine parameters stay shared across branches.
        """
        if x.shape[2] != self.scales[i] or x.shape[3] != self.scales[i]:
            raise ShapeError(f"branch {i} expects size {self.scales[i]}, "
                             f"got {x.shape[2]}x{x.shape[3]}")
        feats = self._subnet_forward(i, x)
        want = self.feature_shape
        if self.subnet_blocks == 0:   # the resized input: grey data keeps one channel
            want = feats.shape[1:2] + want[1:]
        if feats.shape[1:] != want:
            raise ShapeError(f"subnet {i} produced {feats.shape[1:]}, expected {want}")
        if taps is not None and "features" in taps:
            taps["features"] = feats
        return self._head_forward(feats, taps, stat_set=i), feats

    def forward_train(self, batch_per_scale: Sequence[Tensor]):
        """All branches on aligned per-scale views of the same samples."""
        if len(batch_per_scale) != len(self.scales):
            raise ShapeError(f"expected {len(self.scales)} per-scale batches, "
                             f"got {len(batch_per_scale)}")
        n = batch_per_scale[0].shape[0]
        if any(x.shape[0] != n for x in batch_per_scale):
            raise ShapeError("per-scale batch sizes differ")
        logits, features = [], []
        for i, x in enumerate(batch_per_scale):
            out, feats = self.forward_branch(i, x)
            logits.append(out)
            features.append(feats)
        return logits, features

    def forward_infer(self, images: np.ndarray, native_size: int, taps=None) -> Tensor:
        """Route by native size, resize to the branch's quantized scale, run it."""
        i = route_scale(native_size, self.scales)
        x = resize_images(images, self.scales[i], self.scales[i])
        logits, _ = self.forward_branch(i, Tensor(x), taps)
        return logits


def build_vanilla(spec: BackboneSpec, rng: Rng) -> MsunModel:
    """Single-branch fixed-input model: one scale, no subnet split."""
    return MsunModel(spec, ScaleSet([spec.canonical_size]), 0, rng)


def si_loss(features: Sequence[Tensor]) -> Tensor:
    """Scale-invariance term: sum over scale pairs of mean squared difference."""
    shz = features[0].shape
    for f in features[1:]:
        if f.shape != shz:
            raise ShapeError(f"feature shapes differ: {shz} vs {f.shape}")
    total = Tensor(np.asarray(0.0))
    for i in range(len(features)):
        for j in range(i + 1, len(features)):
            d = features[i] - features[j]
            total = total + (d * d).mean()
    return total


def total_loss(logits_per_scale, labels, si: Tensor, lam: float):
    """max(si, lam) + sum of per-scale cross-entropies; reports the parts."""
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    ce_terms = [softmax_cross_entropy(lg, labels) for lg in logits_per_scale]
    loss = T.maximum_scalar(si, lam)
    for ce in ce_terms:
        loss = loss + ce
    breakdown = LossBreakdown(
        total=float(loss.data),
        ce_per_scale=[float(ce.data) for ce in ce_terms],
        si=float(si.data),
        lam=float(lam),
        clamped=not (float(si.data) > lam),
    )
    return loss, breakdown


def _step_with_logits(model: MsunModel, batch_per_scale, labels, optimizer,
                      lam: float, lr: float):
    """One optimizer step: zero grads, forward all branches, losses, update.

    Returns the loss breakdown and the per-scale logits.
    """
    model.zero_grad()
    logits, features = model.forward_train(batch_per_scale)
    si = si_loss(features)
    loss, breakdown = total_loss(logits, labels, si, lam)
    if not np.isfinite(breakdown.total):
        for name, value in [("scale-invariance term", breakdown.si)] + \
                [(f"cross-entropy at scale {i}", v) for i, v in enumerate(breakdown.ce_per_scale)]:
            if not np.isfinite(value):
                raise NonFiniteError(f"non-finite loss: {name} = {value}")
        raise NonFiniteError("non-finite total loss")
    T.backward(loss)
    optimizer.step(lr)
    return breakdown, logits

