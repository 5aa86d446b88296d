"""CNN building blocks: conv, pooling, batch norm, linear, losses, resize.

Each op is a fused tape node with a hand-derived backward rule; the heavy
lifting runs through im2col + GEMM in float32 with float64 statistics and
loss reductions. The window kernels work a few samples or one strided view
at a time so that each pass over memory is a long contiguous run that stays
in cache: conv im2col and GEMM are blocked by samples, the conv input
gradient is summed in stride-phase planes, max-pool is a running maximum
with per-offset first-max masks, and batch norm works in place. A
forward-only pass (``no_grad``, or no input requiring grad) keeps no
buffer that only a backward reads: conv refills one block of columns for
every block instead of keeping them all, and batch norm applies its affine
in place over the normalized input. Grey images stay one channel up to
the stem: conv reads a one-channel input as that channel repeated across
the weight's input channels, filling the repeats by copying the gathered
columns. None of this changes a float operation or its order. Backward
rules skip operands that do not require grad: a stem convolution over raw
images computes no image gradient, and a linear map over constant features
none for its input.
Parameter-owning layers draw their initial weights from the shared
SplitMix64 stream (Kaiming fan-in normals for conv/linear).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import tensor as _tape
from .rng import Rng
from .tensor import DTYPE, ShapeError, Tensor, from_op, records, _note_branch


_BLOCK = 8   # samples per window block; its columns and planes stay in cache


def _conv_input_grad(w2: np.ndarray, g4: np.ndarray, x_shape, k: int, stride: int,
                     pad: int) -> np.ndarray:
    """Gradient w.r.t. the conv input, accumulated in stride-phase planes.

    Padded-grid row ``i`` lives in phase plane ``i % stride`` at row
    ``i // stride``. With ``g`` widened by zeros to the plane width ``wq``,
    the columns of kernel offset (di, dj) for one (sample, channel) land on
    one contiguous run of their plane, so each offset is a single add of
    runs. Every element receives its terms in (di, dj) order starting from
    zero, as a scatter onto the padded grid would; the widened columns only
    add zeros. The planes are then interleaved back into the input grid.
    """
    n, c, h, w = x_shape
    m, ho, wo = g4.shape[1], g4.shape[2], g4.shape[3]
    s = stride
    hp, wp = h + 2 * pad, w + 2 * pad
    hq, wq = -(-hp // s), -(-wp // s)
    run = (ho - 1) * wq + wo
    dt = np.result_type(w2, g4)
    cap = min(n, _BLOCK)
    gwide = np.zeros((cap, m, ho, wq), dtype=g4.dtype)
    gcols = np.empty((cap, c, k, k, ho * wq), dtype=dt)
    planes = np.empty((cap, c, s, s, hq * wq), dtype=dt)
    # input rows r0, r0+s, ... share phase (r0 + pad) % s; they start at
    # plane row (r0 + pad) // s
    phases = [(r0, (r0 + pad) % s, (r0 + pad) // s, len(range(r0, h, s)))
              for r0 in range(min(s, h))]
    cphases = [(c0, (c0 + pad) % s, (c0 + pad) // s, len(range(c0, w, s)))
               for c0 in range(min(s, w))]
    gx = np.empty(x_shape, dtype=dt)
    for a in range(0, n, _BLOCK):
        b = min(a + _BLOCK, n)
        nb = b - a
        gwide[:nb, :, :, :wo] = g4[a:b]
        np.matmul(w2.T, gwide[:nb].reshape(nb, m, ho * wq),
                  out=gcols[:nb].reshape(nb, c * k * k, ho * wq))
        blk = planes[:nb]
        blk.fill(0)
        for di in range(k):
            for dj in range(k):
                off = (di // s) * wq + dj // s
                blk[:, :, di % s, dj % s, off:off + run] += gcols[:nb, :, di, dj, :run]
        grid = blk.reshape(nb, c, s, s, hq, wq)
        for r0, pi, qr, nr in phases:
            for c0, pj, qc, nc in cphases:
                gx[a:b, :, r0::s, c0::s] = grid[:, :, pi, pj, qr:qr + nr, qc:qc + nc]
    return gx


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """Cross-correlation with zero padding; bias added per output channel.

    The im2col columns are filled ``_BLOCK`` samples at a time and each
    block's per-sample GEMMs run while it is still in cache. When a tape
    node is recorded the whole column buffer is kept for the weight
    gradient; a forward-only pass refills one block's worth.

    A one-channel input against a weight with ``cin > 1`` channels is read
    as that channel repeated ``cin`` times (a grey image): each block
    gathers the channel once and copies it into the other channel slots, so
    the GEMMs see the same columns as for the repeated input. Such an input
    takes no gradient.
    """
    if x.ndim != 4:
        raise ShapeError(f"conv2d expects [N,C,H,W] input, got {x.shape}")
    m, cin, k, _ = weight.shape
    n, c, h, w = x.shape
    if c != cin and c != 1:
        raise ShapeError(f"conv2d: input has {c} channels, weight expects {cin}")
    if c != cin and x.requires_grad:
        raise ShapeError(f"conv2d: a one-channel input read as {cin} channels takes no gradient")
    hp, wp = h + 2 * pad, w + 2 * pad
    if hp < k or wp < k:
        raise ShapeError(f"spatial size {h}x{w} with pad {pad} is smaller than kernel {k}")
    ho, wo = (hp - k) // stride + 1, (wp - k) // stride + 1
    xd = x.data
    w2 = weight.data.reshape(m, cin * k * k)
    taped = records((x, weight, bias))
    cols6 = np.empty((n if taped else min(n, _BLOCK), cin, k, k, ho, wo), dtype=xd.dtype)
    out = np.empty((n, m, ho * wo), dtype=np.result_type(w2, xd))
    xp = np.zeros((min(n, _BLOCK), c, hp, wp), dtype=xd.dtype) if pad else None
    for a in range(0, n, _BLOCK):
        b = min(a + _BLOCK, n)
        blk = cols6[a:b] if taped else cols6[:b - a]
        src = xd[a:b]
        if pad:
            src = xp[:b - a]
            src[:, :, pad:pad + h, pad:pad + w] = xd[a:b]
        for di in range(k):
            for dj in range(k):
                blk[:, :c, di, dj] = src[:, :, di:di + ho * stride:stride,
                                         dj:dj + wo * stride:stride]
        if c < cin:
            blk[:, 1:] = blk[:, :1]
        np.matmul(w2, blk.reshape(b - a, cin * k * k, ho * wo), out=out[a:b])
        out[a:b] += bias.data[None, :, None]
    x_shape = x.shape

    def grad_fn(g):
        g3 = g.reshape(n, m, ho * wo)
        cols = cols6.reshape(n, cin * k * k, ho * wo)
        gw = np.matmul(g3, cols.transpose(0, 2, 1)).sum(axis=0).reshape(weight.shape)
        gb = g3.sum(axis=(0, 2), dtype=np.float64).astype(bias.data.dtype)
        if not x.requires_grad:                   # raw images: no input gradient
            return None, gw, gb
        return _conv_input_grad(w2, g.reshape(n, m, ho, wo), x_shape, k, stride, pad), gw, gb

    return from_op(out.reshape(n, m, ho, wo), "conv2d", (x, weight, bias), grad_fn)


def _pool_views(x: np.ndarray, window: int, stride: int, ho: int, wo: int):
    """The window**2 strided views of ``x``, one per window offset, row-major."""
    return [x[:, :, di:di + (ho - 1) * stride + 1:stride, dj:dj + (wo - 1) * stride + 1:stride]
            for di in range(window) for dj in range(window)]


def _pool_masks(views, out: np.ndarray):
    """One bool mask per view marking where that window offset holds its
    window's first maximum; every window is marked exactly once."""
    taken = views[0] == out
    masks = [taken.copy()]
    for v in views[1:]:
        hit = v == out
        hit &= ~taken
        taken |= hit
        masks.append(hit)
    return masks


def maxpool2d(x: Tensor, window: int, stride: Optional[int] = None) -> Tensor:
    """Per-window maximum; gradient routes to the first (lowest flat index) argmax.

    The forward is a running maximum over the window offsets' strided views.
    The backward marks each window's first maximum with one mask per offset
    and adds ``g * mask`` into that offset's view of the input gradient, so
    disjoint and overlapping windows share one path.
    """
    stride = window if stride is None else stride
    n, c, h, w = x.shape
    if window > h or window > w:
        raise ShapeError(f"pool window {window} exceeds spatial size {h}x{w}")
    ho, wo = (h - window) // stride + 1, (w - window) // stride + 1
    views = _pool_views(x.data, window, stride, ho, wo)
    out = views[0].copy()
    for v in views[1:]:
        np.maximum(v, out, out=out)   # a tie keeps ``out``: the first max, even for +-0
    if _tape._branch_sink is not None:
        arg = sum(o * mask for o, mask in enumerate(_pool_masks(views, out)))
        _note_branch(arg.astype(np.uint8).tobytes())

    def grad_fn(g):
        gx = np.zeros((n, c, h, w), dtype=g.dtype)
        masks = _pool_masks(views, out)      # built here: no_grad passes skip them
        # offsets in reverse: an input element shared by overlapping windows
        # then gets its terms in row-major window order
        for view, mask in zip(reversed(_pool_views(gx, window, stride, ho, wo)),
                              reversed(masks)):
            view += g * mask
        return (gx,)

    return from_op(out, "maxpool2d", (x,), grad_fn)


def global_avg_pool(x: Tensor) -> Tensor:
    """Spatial mean per channel: [N,C,H,W] -> [N,C]."""
    n, c, h, w = x.shape
    dt = x.data.dtype
    out = x.data.mean(axis=(2, 3), dtype=np.float64).astype(dt)

    def grad_fn(g):
        gx = np.broadcast_to((g / (h * w))[:, :, None, None], (n, c, h, w))
        return (gx.astype(dt),)

    return from_op(out, "global_avg_pool", (x,), grad_fn)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map [N,in] -> [N,out] with weight [out,in]."""
    if x.ndim != 2:
        raise ShapeError(f"linear expects [N,features] input, got {x.shape}")
    if x.shape[1] != weight.shape[1]:
        raise ShapeError(f"linear: {x.shape[1]} features vs weight {weight.shape}")
    xd, wd = x.data, weight.data
    out = xd @ wd.T + bias.data

    def grad_fn(g):
        gx = g @ wd if x.requires_grad else None
        return gx, g.T @ xd, g.sum(axis=0, dtype=np.float64).astype(DTYPE)

    return from_op(out, "linear", (x, weight, bias), grad_fn)


def batchnorm2d(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: np.ndarray,
                running_var: np.ndarray, train: bool, momentum: float = 0.1,
                eps: float = 1e-5, update_stats: bool = True) -> Tensor:
    """Channel-wise batch normalization over [N,C,H,W].

    Train mode normalizes with (biased) batch statistics and, unless
    ``update_stats`` is off, folds them into the running buffers in place;
    eval mode depends only on the buffers.
    """
    n, c, h, w = x.shape
    dt = x.data.dtype
    if gamma.shape != (c,):
        raise ShapeError(f"batchnorm: {c} channels vs gamma {gamma.shape}")
    if train:
        mu = x.data.mean(axis=(0, 2, 3), dtype=np.float64)
        xc = x.data - mu[None, :, None, None].astype(dt)
        var = np.mean(xc * xc, axis=(0, 2, 3), dtype=np.float64)
        if update_stats:
            running_mean *= 1.0 - momentum
            running_mean += momentum * mu.astype(DTYPE)
            running_var *= 1.0 - momentum
            running_var += momentum * var.astype(DTYPE)
    else:
        var = running_var.astype(np.float64)
        xc = x.data - running_mean[None, :, None, None].astype(dt)
    inv = (1.0 / np.sqrt(var + eps)).astype(dt)[None, :, None, None]
    xhat = xc
    xhat *= inv
    scale = gamma.data[None, :, None, None]
    # xhat is this call's own array; with no backward to read it, scale it in place
    in_place = not records((x, gamma, beta)) and np.result_type(scale, xhat) == dt
    out = np.multiply(scale, xhat, out=xhat if in_place else None)
    shift = beta.data[None, :, None, None]
    out = np.add(out, shift, out=out if np.result_type(out, shift) == out.dtype else None)
    m = n * h * w

    def grad_fn(g):
        t = g * xhat
        dgamma = t.sum(axis=(0, 2, 3), dtype=np.float64).astype(DTYPE)
        dbeta = g.sum(axis=(0, 2, 3), dtype=np.float64).astype(DTYPE)
        dxhat = g * gamma.data[None, :, None, None]
        if not train:
            dxhat *= inv
            return dxhat, dgamma, dbeta
        s1 = dxhat.sum(axis=(0, 2, 3), dtype=np.float64).astype(dt)
        np.multiply(dxhat, xhat, out=t)
        s2 = t.sum(axis=(0, 2, 3), dtype=np.float64).astype(dt)
        # gx = (inv / m) * (m * dxhat - s1 - xhat * s2), operation by operation
        np.multiply(xhat, s2[None, :, None, None], out=t)
        dxhat *= m
        dxhat -= s1[None, :, None, None]
        dxhat -= t
        dxhat *= inv / m
        return dxhat, dgamma, dbeta

    return from_op(out, "batchnorm2d", (x, gamma, beta), grad_fn)


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean over the batch of -log softmax(logits)[label], max-stabilized."""
    labels = np.asarray(labels)
    n, c = logits.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} vs batch of {n}")
    if labels.min() < 0 or labels.max() >= c:
        bad = labels[(labels < 0) | (labels >= c)][0]
        raise ValueError(f"label {bad} out of range [0, {c})")
    z = logits.data.astype(np.float64)
    z -= z.max(axis=1, keepdims=True)
    ez = np.exp(z)
    denom = ez.sum(axis=1)
    loss = np.asarray((np.log(denom) - z[np.arange(n), labels]).mean())
    probs = (ez / denom[:, None]).astype(logits.data.dtype)

    def grad_fn(g):
        gl = probs.copy()
        gl[np.arange(n), labels] -= 1.0
        gl *= gl.dtype.type(g / n)
        return (gl,)

    return from_op(loss, "softmax_cross_entropy", (logits,), grad_fn)


_resize_plans: dict = {}


def resize_matrix(n_in: int, n_out: int) -> np.ndarray:
    """Row-stochastic interpolation matrix: half-pixel-aligned bilinear weights."""
    key = (n_in, n_out)
    cached = _resize_plans.get(key)
    if cached is not None:
        return cached
    r = np.zeros((n_out, n_in), dtype=DTYPE)
    src = np.clip((np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5,
                  0.0, n_in - 1.0)
    i0 = np.floor(src).astype(np.int64)
    i1 = np.minimum(i0 + 1, n_in - 1)
    w1 = src - i0
    rows = np.arange(n_out)
    r[rows, i0] += (1.0 - w1).astype(DTYPE)
    r[rows, i1] += w1.astype(DTYPE)
    _resize_plans[key] = r
    return r


def bilinear_resize(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Differentiable bilinear resize with half-pixel center alignment."""
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"target size {out_h}x{out_w} must be positive")
    n, c, h, w = x.shape
    ry = resize_matrix(h, out_h)
    rx = resize_matrix(w, out_w)
    out = np.matmul(np.matmul(ry, x.data), rx.T)

    def grad_fn(g):
        return (np.matmul(np.matmul(ry.T, g), rx),)

    return from_op(out, "bilinear_resize", (x,), grad_fn)


def resize_images(images: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Plain-array resize for data pipelines; result clipped back to [0,1]."""
    if images.shape[2] == out_h and images.shape[3] == out_w:
        return images
    ry = resize_matrix(images.shape[2], out_h)
    rx = resize_matrix(images.shape[3], out_w)
    out = np.matmul(np.matmul(ry, images), rx.T)
    return np.clip(out, 0.0, 1.0)


class Conv2d:
    """Convolution layer owning weight [out,in,k,k] and bias [out]."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int, pad: int, rng: Rng):
        fan_in = in_channels * kernel_size * kernel_size
        w = rng.normal((out_channels, in_channels, kernel_size, kernel_size),
                       std=np.sqrt(2.0 / fan_in))
        self.weight = Tensor(w.astype(DTYPE), requires_grad=True)
        self.bias = Tensor(np.zeros(out_channels, dtype=DTYPE), requires_grad=True)
        self.stride = stride
        self.pad = pad
        self.kernel_size = kernel_size
        self.in_channels = in_channels
        self.out_channels = out_channels

    def forward(self, x: Tensor, train: bool) -> Tensor:
        return conv2d(x, self.weight, self.bias, self.stride, self.pad)

    def params(self):
        return [("weight", self.weight), ("bias", self.bias)]

    def buffers(self):
        return []

    def out_size(self, size: int) -> int:
        out = (size + 2 * self.pad - self.kernel_size) // self.stride + 1
        if out < 1:
            raise ShapeError(f"conv reduces size {size} below 1 "
                             f"(k={self.kernel_size}, stride={self.stride}, pad={self.pad})")
        return out


class BatchNorm2d:
    """Batch norm with one affine parameter set and, when shared between the
    branches of a multi-scale model, one running-statistics set per branch
    (each input distribution tracks its own inference statistics)."""

    def __init__(self, channels: int, momentum: float = 0.1, eps: float = 1e-5,
                 n_stat_sets: int = 1):
        self.gamma = Tensor(np.ones(channels, dtype=DTYPE), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=DTYPE), requires_grad=True)
        self.running_means = [np.zeros(channels, dtype=DTYPE) for _ in range(n_stat_sets)]
        self.running_vars = [np.ones(channels, dtype=DTYPE) for _ in range(n_stat_sets)]
        self.momentum = momentum
        self.eps = eps

    @property
    def running_mean(self):
        return self.running_means[-1]

    @property
    def running_var(self):
        return self.running_vars[-1]

    def forward(self, x: Tensor, train: bool, stat_set: int = -1) -> Tensor:
        return batchnorm2d(x, self.gamma, self.beta, self.running_means[stat_set],
                           self.running_vars[stat_set], train, self.momentum, self.eps)

    def params(self):
        return [("gamma", self.gamma), ("beta", self.beta)]

    def buffers(self):
        out = [("running_mean", self.running_means[-1]),
               ("running_var", self.running_vars[-1])]
        for i in range(len(self.running_means) - 1):
            out.append((f"running_mean.set{i}", self.running_means[i]))
            out.append((f"running_var.set{i}", self.running_vars[i]))
        return out


class Linear:
    def __init__(self, in_features: int, out_features: int, rng: Rng):
        w = rng.normal((out_features, in_features), std=np.sqrt(2.0 / in_features))
        self.weight = Tensor(w.astype(DTYPE), requires_grad=True)
        self.bias = Tensor(np.zeros(out_features, dtype=DTYPE), requires_grad=True)

    def forward(self, x: Tensor, train: bool) -> Tensor:
        return linear(x, self.weight, self.bias)

    def params(self):
        return [("weight", self.weight), ("bias", self.bias)]

    def buffers(self):
        return []
