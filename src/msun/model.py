"""Multi-scale unified network: backbone, subnets, routing, and losses.

A backbone is a flat list of blocks (stem first) followed by a pooled linear
head. Transforming it for multi-scale input moves the first ``subnet_blocks``
blocks into one copy per quantized scale; the stem copy for a smaller scale
downsamples proportionally less (smaller kernel, stride 1, pooling dropped)
so every branch lands on one common feature shape. The remaining blocks and
the head are shared across branches.

Every branch runs subnet ``i``, then the shared blocks and head. With zero
subnet blocks a subnet is one parameterless ``Resize`` to the canonical size;
with a single scale as well, that is the ordinary fixed-input network.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tensor as T
from .layers import (BatchNorm2d, Conv2d, Linear, bilinear_resize, conv2d, conv_out_size,
                     global_avg_pool, maxpool2d, resize_images, softmax_cross_entropy)
from .rng import Rng
from .tensor import FieldError, NonFiniteError, ShapeError, Tensor


@dataclass(frozen=True)
class BackboneSpec:
    """Mini CNN family: per-stage widths and block counts, one head."""

    stage_widths: tuple
    stage_blocks: tuple
    block_kind: str = "plain"           # "plain" | "residual"
    num_classes: int = 6
    canonical_size: int = 64

    def __post_init__(self):
        if not self.stage_widths or min(self.stage_widths) < 1:
            raise FieldError("stage_widths", f"stage widths {self.stage_widths} must be "
                             "one or more positive counts")
        if len(self.stage_blocks) != len(self.stage_widths) or min(self.stage_blocks) < 1:
            raise FieldError("stage_blocks", f"stage block counts {self.stage_blocks} must be "
                             f"positive, one per stage width {self.stage_widths}")
        if self.block_kind not in ("plain", "residual"):
            raise FieldError("block_kind", f"unknown block kind {self.block_kind!r}")
        if self.num_classes < 1:
            raise FieldError("num_classes", f"need at least one class, got {self.num_classes}")
        size = self.canonical_size // 4   # stem downsample
        for i in range(1, len(self.stage_widths)):
            size //= 2
        if size < 1:
            raise FieldError("canonical_size",
                             f"stage {len(self.stage_widths) - 1} reduces spatial size "
                             f"below 1 at canonical input {self.canonical_size}")

    @property
    def total_blocks(self) -> int:
        return 1 + sum(self.stage_blocks)   # stem plus stage blocks


class ScaleSet(tuple):
    """Ordered quantized input sizes R_1 < ... < R_S with nearest routing."""

    def __new__(cls, sizes: Sequence[int]):
        sizes = tuple(int(s) for s in sizes)
        if len(sizes) < 1:
            raise ValueError("at least one scale required")
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError(f"scales must be strictly increasing, got {sizes}")
        if sizes[0] < 1:
            raise ValueError("scales must be positive")
        return super().__new__(cls, sizes)


def route_scale(input_size: int, scales: ScaleSet) -> int:
    """Index of the quantized size nearest to input_size; ties go smaller."""
    if input_size < 1:
        raise ValueError(f"input size must be positive, got {input_size}")
    return min(range(len(scales)), key=lambda i: abs(input_size - scales[i]))


# stem (kernel, stride, pool) per downsample factor; 4 is the canonical-scale stem
STEMS = {4: (5, 2, 2), 2: (3, 2, 0), 1: (3, 1, 0)}


def _conv_bn(conv: Conv2d, bn: BatchNorm2d, x: Tensor, train: bool, stat_set=-1) -> Tensor:
    """``conv`` then ``bn``. An eval pass that records no tape runs one
    convolution with the pair folded together (``BatchNorm2d.folded``)."""
    if train or T.records((x, conv.weight, conv.bias, bn.gamma, bn.beta)):
        return bn.forward(conv.forward(x, train), train, stat_set)
    weight, bias = bn.folded(conv, stat_set)
    return conv2d(x, weight, bias, conv.stride, conv.pad)


class ConvBlock:
    """conv k x k (padding k // 2) -> BN -> ReLU, with a max-pool if ``pool``.

    A pooled block pools before its ReLU. ReLU is monotone, so the values
    equal pooling after it, and the first maximum the pool routes a gradient
    to differs only in windows whose maximum is <= 0, where the ReLU zeroes
    that gradient. So the two orders give equal outputs and gradients (a
    zero's sign may differ), and the ReLU runs over the pooled elements.
    """

    def __init__(self, in_ch: int, out_ch: int, kernel: int, stride: int, rng: Rng,
                 n_stat_sets=1, pool=0):
        self.conv = Conv2d(in_ch, out_ch, kernel, stride, kernel // 2, rng)
        self.bn = BatchNorm2d(out_ch, n_stat_sets=n_stat_sets)
        self.pool = pool

    def forward(self, x, train, stat_set=-1):
        h = _conv_bn(self.conv, self.bn, x, train, stat_set)
        if self.pool:
            h = maxpool2d(h, self.pool, self.pool)
        return h.relu()

    def children(self):
        return [("conv", self.conv), ("bn", self.bn)]

    def convs(self, size):
        return [("conv", self.conv, size)]

    def out_size(self, size):
        out = self.conv.out_size(size)
        return out // self.pool if self.pool else out


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
        h = _conv_bn(self.conv1, self.bn1, x, train, stat_set).relu()
        h = _conv_bn(self.conv2, self.bn2, h, train, stat_set)
        skip = x
        if self.proj is not None:
            skip = _conv_bn(self.proj, self.proj_bn, x, train, stat_set)
        return (h + skip).relu()

    def children(self):
        out = [("conv1", self.conv1), ("bn1", self.bn1),
               ("conv2", self.conv2), ("bn2", self.bn2)]
        if self.proj is not None:
            out += [("proj", self.proj), ("proj_bn", self.proj_bn)]
        return out

    def convs(self, size):
        out = [("conv1", self.conv1, size), ("conv2", self.conv2, self.conv1.out_size(size))]
        if self.proj is not None:
            out.append(("proj", self.proj, size))
        return out

    def out_size(self, size):
        return self.conv1.out_size(size)


class Resize:
    """Parameterless block: bilinear resize to ``size``, a no-op at that size."""

    def __init__(self, size: int):
        self.size = size

    def forward(self, x, train, stat_set=-1):
        if x.shape[2] == self.size and x.shape[3] == self.size:
            return x
        return bilinear_resize(x, self.size, self.size)

    def children(self):
        return []

    def convs(self, size):
        return []

    def out_size(self, size):
        return self.size


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


def _block_plan(spec: BackboneSpec):
    """(name, kind, in_ch, out_ch, stride) for every block in order, stem
    first; the stem's kind is "stem" and its stride is set when it is built."""
    plan = [("stem", "stem", 3, spec.stage_widths[0], None)]
    prev = spec.stage_widths[0]
    for s, (width, count) in enumerate(zip(spec.stage_widths, spec.stage_blocks)):
        for b in range(count):
            stride = 2 if (s > 0 and b == 0) else 1
            plan.append((f"block{len(plan)}", spec.block_kind, prev, width, stride))
            prev = width
    return plan


def _build(entry, rng, n_stat_sets=1, downsample=4):
    """(name, block) for one plan entry; a stem downsamples by ``downsample``."""
    name, kind, in_ch, out_ch, stride = entry
    if kind == "stem":
        kernel, stride, pool = STEMS[downsample]
        return name, ConvBlock(in_ch, out_ch, kernel, stride, rng, n_stat_sets, pool)
    if kind == "plain":
        return name, ConvBlock(in_ch, out_ch, 3, stride, rng, n_stat_sets)
    return name, ResidualBlock(in_ch, out_ch, stride, rng, n_stat_sets)


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


def subnet_layout(spec: BackboneSpec, scales: ScaleSet, subnet_blocks: int):
    """Check that ``subnet_blocks`` subnets at ``scales`` fit ``spec``.

    Returns each subnet's stem downsample factor (none with zero subnet
    blocks) and the common (channels, h, w) the subnets emit, the first
    unified block's input. With zero subnet blocks the channel entry is
    None: a ``Resize`` passes the input's channels through. Raises
    ValueError naming what does not fit, so a caller can check a layout
    before it renders data or draws weights.
    """
    if subnet_blocks < 0:
        raise ValueError("subnet block count must be >= 0")
    if subnet_blocks >= spec.total_blocks:
        raise ValueError(f"subnet blocks {subnet_blocks} must be fewer than the "
                         f"backbone's {spec.total_blocks} blocks")
    canonical = spec.canonical_size
    if scales[len(scales) - 1] != canonical:
        raise ValueError(f"largest scale {scales[len(scales) - 1]} must equal the "
                         f"canonical size {canonical}")
    if subnet_blocks == 0:
        return [], (None, canonical, canonical)
    plan = _block_plan(spec)
    downsamples, shapes = [], []
    for i, size in enumerate(scales):
        ds = 4 * size // canonical
        if ds not in STEMS or 4 * size != ds * canonical:
            raise ValueError(
                f"no stem adaptation reaches the common feature shape for "
                f"scale index {i} (size {size}, canonical {canonical})")
        kernel, stride, pool = STEMS[ds]
        out = conv_out_size(size, kernel, stride, kernel // 2) // (pool or 1)
        for *_, s in plan[1:subnet_blocks]:   # 3x3 convs, padding 1
            out = conv_out_size(out, 3, s, 1)
        downsamples.append(ds)
        shapes.append((plan[subnet_blocks][2], out, out))
    if len(set(shapes)) != 1:
        raise ValueError(f"subnet output shapes differ across scales: {shapes}")
    return downsamples, shapes[0]


class MsunModel:
    """Scale subnets f_1..f_S, shared deep network g, pooled linear head."""

    def __init__(self, spec: BackboneSpec, scales: ScaleSet, subnet_blocks: int, rng: Rng):
        downsamples, self.feature_shape = subnet_layout(spec, scales, subnet_blocks)
        self.spec = spec
        self.scales = scales
        self.subnet_blocks = subnet_blocks
        self.training = True

        plan = _block_plan(spec)
        if subnet_blocks == 0:
            self.subnets = [Stack([("resize", Resize(spec.canonical_size))]) for _ in scales]
        else:
            self.subnets = [Stack([_build(e, rng, downsample=ds) for e in plan[:subnet_blocks]])
                            for ds in downsamples]
        self.unified = Stack([_build(e, rng, len(scales)) for e in plan[subnet_blocks:]])
        self.head = Linear(spec.stage_widths[-1], spec.num_classes, rng)

    # -- structure ---------------------------------------------------------

    def train(self):
        self.training = True
        return self

    def eval(self):
        self.training = False
        return self

    @contextmanager
    def evaluating(self):
        """Eval mode inside the context; the caller's mode is restored after."""
        was_training = self.training
        self.training = False
        try:
            yield self
        finally:
            self.training = was_training

    def named_layers(self):
        """(name, layer) for every subnet's layers, then unified's, then the
        head: the order of the checkpoint's parameters and buffers."""
        stacks = [(f"subnet{i + 1}.", s) for i, s in enumerate(self.subnets)]
        for prefix, stack in stacks + [("unified.", self.unified)]:
            for bname, block in stack.blocks:
                for cname, child in block.children():
                    yield f"{prefix}{bname}.{cname}", child
        yield "head", self.head

    def named_params(self):
        return [(f"{lname}.{pname}", p)
                for lname, layer in self.named_layers() for pname, p in layer.params()]

    def named_buffers(self):
        return [(f"{lname}.{bname}", b)
                for lname, layer in self.named_layers() for bname, b in layer.buffers()]

    def parameters(self):
        return [p for _, p in self.named_params()]

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()

    def tap_names(self):
        return ["features"] + [f"unified.{n}" for n, _ in self.unified.blocks] + ["pooled"]

    # -- forward -----------------------------------------------------------

    def forward_branch(self, i: int, x: Tensor, taps=None):
        """Logits and subnet features for branch i on an already-sized input.

        Shared batch-norm layers normalize with their own branch's running
        statistics set; the affine parameters stay shared across branches.
        """
        if x.shape[2] != self.scales[i] or x.shape[3] != self.scales[i]:
            raise ShapeError(f"branch {i} expects size {self.scales[i]}, "
                             f"got {x.shape[2]}x{x.shape[3]}")
        feats = self.subnets[i].forward(x, self.training)
        if taps is not None and "features" in taps:
            taps["features"] = feats
        h = self.unified.forward(feats, self.training, "unified.", taps, stat_set=i)
        pooled = global_avg_pool(h)
        if taps is not None and "pooled" in taps:
            taps["pooled"] = pooled
        return self.head.forward(pooled, self.training), feats

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

    def forward_infer(self, images: np.ndarray, size: int, taps=None) -> Tensor:
        """Present ``images`` at ``size`` (bilinear, a no-op at that size), route
        by it, resize to the branch's quantized scale and run the branch."""
        i = route_scale(size, self.scales)
        x = resize_images(resize_images(images, size, size), self.scales[i], self.scales[i])
        return self.forward_branch(i, Tensor(x), taps)[0]


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

