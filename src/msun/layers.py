"""CNN building blocks: conv, pooling, batch norm, linear, losses, resize.

Each op is a fused tape node with a hand-derived backward rule; the heavy
lifting runs through im2col + GEMM in float32 with float64 statistics and
loss reductions. Backward rules skip operands that do not require grad:
a stem convolution over raw images computes no image gradient (no col2im),
and a linear map over constant features none for its input.
Parameter-owning layers draw their initial weights from the shared
SplitMix64 stream (Kaiming fan-in normals for conv/linear).
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import tensor as _tape
from .rng import Rng
from .tensor import DTYPE, ShapeError, Tensor, from_op, _note_branch


def _im2col(x: np.ndarray, k: int, stride: int, pad: int):
    """Patch matrix [N, C*k*k, Ho*Wo]; plain strided copies, GEMM-ready."""
    n, c, h, w = x.shape
    hp, wp = h + 2 * pad, w + 2 * pad
    if hp < k or wp < k:
        raise ShapeError(f"spatial size {h}x{w} with pad {pad} is smaller than kernel {k}")
    ho = (hp - k) // stride + 1
    wo = (wp - k) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    cols = np.empty((n, c, k, k, ho, wo), dtype=x.dtype)
    for di in range(k):
        for dj in range(k):
            cols[:, :, di, dj] = xp[:, :, di:di + ho * stride:stride,
                                    dj:dj + wo * stride:stride]
    return cols.reshape(n, c * k * k, ho * wo), ho, wo


def _col2im(gcols: np.ndarray, x_shape, k: int, stride: int, pad: int, ho: int, wo: int):
    n, c, h, w = x_shape
    gp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=gcols.dtype)
    g6 = gcols.reshape(n, c, k, k, ho, wo)
    for di in range(k):
        for dj in range(k):
            gp[:, :, di:di + ho * stride:stride, dj:dj + wo * stride:stride] += \
                g6[:, :, di, dj]
    if pad:
        return gp[:, :, pad:pad + h, pad:pad + w]
    return gp


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """Cross-correlation with zero padding; bias added per output channel."""
    if x.ndim != 4:
        raise ShapeError(f"conv2d expects [N,C,H,W] input, got {x.shape}")
    m, cin, k, _ = weight.shape
    if x.shape[1] != cin:
        raise ShapeError(f"conv2d: input has {x.shape[1]} channels, weight expects {cin}")
    cols, ho, wo = _im2col(x.data, k, stride, pad)
    w2 = weight.data.reshape(m, cin * k * k)
    out = np.matmul(w2, cols)                     # [N, M, Ho*Wo]
    out += bias.data[None, :, None]
    n = x.shape[0]
    x_shape = x.shape

    def grad_fn(g):
        g3 = g.reshape(n, m, ho * wo)
        gw = np.matmul(g3, cols.transpose(0, 2, 1)).sum(axis=0).reshape(weight.shape)
        gb = g3.sum(axis=(0, 2), dtype=np.float64).astype(bias.data.dtype)
        if not x.requires_grad:                   # raw images: no col2im
            return None, gw, gb
        gcols = np.matmul(w2.T, g3)               # [N, C*k*k, Ho*Wo]
        gx = _col2im(gcols, x_shape, k, stride, pad, ho, wo)
        return gx, gw, gb

    return from_op(out.reshape(n, m, ho, wo), "conv2d", (x, weight, bias), grad_fn)


def maxpool2d(x: Tensor, window: int, stride: Optional[int] = None) -> Tensor:
    """Per-window maximum; gradient routes to the first (lowest flat index) argmax."""
    stride = window if stride is None else stride
    n, c, h, w = x.shape
    if window > h or window > w:
        raise ShapeError(f"pool window {window} exceeds spatial size {h}x{w}")
    v = sliding_window_view(x.data, (window, window), axis=(2, 3))[:, :, ::stride, ::stride]
    ho, wo = v.shape[2], v.shape[3]
    flat = v.reshape(n, c, ho, wo, window * window)
    arg = flat.argmax(axis=4)
    if _tape._branch_sink is not None:
        _note_branch(arg.astype(np.uint8).tobytes())
    out = np.take_along_axis(flat, arg[..., None], axis=4)[..., 0]

    def grad_fn(g):
        if stride >= window:
            # windows are disjoint: direct scatter, one unit per window
            buf = np.zeros((n, c, ho, wo, window * window), dtype=g.dtype)
            np.put_along_axis(buf, arg[..., None], g[..., None], axis=4)
            buf = buf.reshape(n, c, ho, wo, window, window)
            gx = np.zeros((n, c, h, w), dtype=g.dtype)
            for di in range(window):
                for dj in range(window):
                    gx[:, :, di:di + ho * stride:stride,
                       dj:dj + wo * stride:stride] = buf[:, :, :, :, di, dj]
            return (gx,)
        rows = (np.arange(ho) * stride)[None, None, :, None] + arg // window
        cols = (np.arange(wo) * stride)[None, None, None, :] + arg % window
        ni = np.arange(n)[:, None, None, None]
        ci = np.arange(c)[None, :, None, None]
        idx = ((ni * c + ci) * h + rows) * w + cols
        gx = np.zeros(n * c * h * w, dtype=g.dtype)
        np.add.at(gx, idx.reshape(-1), g.reshape(-1))
        return (gx.reshape(n, c, h, w),)

    return from_op(np.ascontiguousarray(out), "maxpool2d", (x,), grad_fn)


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
    xhat = xc * inv
    out = gamma.data[None, :, None, None] * xhat + beta.data[None, :, None, None]
    m = n * h * w

    def grad_fn(g):
        dgamma = (g * xhat).sum(axis=(0, 2, 3), dtype=np.float64).astype(DTYPE)
        dbeta = g.sum(axis=(0, 2, 3), dtype=np.float64).astype(DTYPE)
        dxhat = g * gamma.data[None, :, None, None]
        if not train:
            return dxhat * inv, dgamma, dbeta
        s1 = dxhat.sum(axis=(0, 2, 3), dtype=np.float64).astype(dt)
        s2 = (dxhat * xhat).sum(axis=(0, 2, 3), dtype=np.float64).astype(dt)
        gx = (inv / m) * (m * dxhat - s1[None, :, None, None]
                          - xhat * s2[None, :, None, None])
        return gx, dgamma, dbeta

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
