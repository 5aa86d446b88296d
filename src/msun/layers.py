"""CNN building blocks: conv, pooling, batch norm, linear, losses, resize.

Each op is one tape node with a hand-derived backward rule, in float32 with
float64 loss reductions. Per-channel sums (batch norm's statistics and
reductions, the conv bias gradient) run in two stages: each (sample,
channel) plane pairwise in float32, then the plane sums in float64
(``_channel_sum``). A rule captures the arrays it reads, never an input
tensor, and computes no gradient for an operand that does not require grad.
A pass that records no tape builds no buffer that only a backward reads
(max-pool masks).

Conv is im2col + GEMM over blocks of samples, so each pass over memory stays
in cache: a window pass takes as many samples as fit ``_BLOCK_BYTES`` of its
per-sample scratch, at least one. That scratch is the columns and padded
input for the forward and the weight gradient, and the widened GEMM rows
and phase planes for the input gradient. Its rule keeps the input, not the
columns, and refills one block of columns at a time for the weight
gradient; the input gradient is summed in stride-phase planes. Max-pool is a running maximum
with per-offset first-max masks; windows that do not overlap write each
input element's gradient once, and overlapping windows accumulate it.

Four rewrites are exact in real arithmetic but round differently from the
textbook form, so tests hold them to tolerances:

- the two-stage per-channel sums, against a float64 sum of every element;
- batch norm applies normalization and affine as one per-channel scale of
  the centred input, and its backward needs two channel reductions;
- ``BatchNorm2d.folded`` composes eval-mode batch norm with the conv before
  it, and the model's forward-only eval passes run that one convolution;
- a one-channel (grey) input is convolved with the weight summed over its
  input channels, which reads it as that channel repeated.

Parameter-owning layers draw their initial weights from the shared
SplitMix64 stream (Kaiming fan-in normals for conv/linear).
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import tensor as _tape
from .rng import Rng
from .tensor import DTYPE, ShapeError, Tensor, from_op, records, _note_branch


_BLOCK_BYTES = 800 << 10   # scratch per window block: 8 samples of the grey 64 px stem's columns
BN_EPS = 1e-5   # batch norm's variance floor


def _channel_sum(x: np.ndarray) -> np.ndarray:
    """Per-channel float64 sum of an ``[N, C, ...]`` array, in two stages: each
    (sample, channel) plane pairwise in ``x``'s dtype, then the ``N`` plane
    sums in float64, in sample order."""
    return x.reshape(x.shape[0], x.shape[1], -1).sum(axis=2).sum(axis=0, dtype=np.float64)


def _block(n: int, sample_bytes: int) -> int:
    """Samples per window block: as many as fit ``_BLOCK_BYTES`` of per-sample
    scratch, at least one and at most ``n``."""
    return min(n, max(1, _BLOCK_BYTES // sample_bytes))


def _conv_input_grad(w: np.ndarray, g4: np.ndarray, x_shape, stride: int,
                     pad: int) -> np.ndarray:
    """Gradient w.r.t. the conv input, accumulated in stride-phase planes.

    Padded-grid row ``i`` lives in phase plane ``i % stride`` at row
    ``i // stride``. With ``g`` widened by zeros to the plane width ``wq``,
    the columns of kernel offset (di, dj) for one (sample, channel) land on
    one contiguous run of their plane. The GEMM's rows are ordered
    (di, dj, c) and each is written into a row as long as a plane, zero past
    the run; the planes are laid out ``[s, s, c, plane]`` per sample. So one
    offset's runs for all channels of a sample are one add over
    ``(c - 1) * plane + run`` elements. Every element receives its terms in
    (di, dj) order starting from zero, as a scatter onto the padded grid
    would; the widened columns and the zero tails only add zeros. The
    weight is read through a transposed view, as in the (c, di, dj) order:
    BLAS rounds a contiguous operand differently at widths of 32 and up. The
    planes are then interleaved back into the input grid.
    """
    n, c, h, w_in = x_shape
    m, _, k, _ = w.shape
    ho, wo = g4.shape[2], g4.shape[3]
    s = stride
    hp, wp = h + 2 * pad, w_in + 2 * pad
    hq, wq = -(-hp // s), -(-wp // s)
    plane = hq * wq
    span = (c - 1) * plane + (ho - 1) * wq + wo
    wt = np.ascontiguousarray(w.transpose(0, 2, 3, 1)).reshape(m, k * k * c).T
    dt = np.result_type(wt, g4)
    cap = _block(n, m * ho * wq * g4.itemsize + (k * k + s * s) * c * plane * dt.itemsize)
    gwide = np.zeros((cap, m, ho, wq), dtype=g4.dtype)
    gcols = np.zeros((cap, k, k, c * plane), dtype=dt)
    gemm_out = gcols.reshape(cap, k * k * c, plane)[:, :, :ho * wq]
    planes = np.empty((cap, s, s, c * plane), dtype=dt)
    # input rows r0, r0+s, ... share phase (r0 + pad) % s; they start at
    # plane row (r0 + pad) // s
    phases = [(r0, (r0 + pad) % s, (r0 + pad) // s, len(range(r0, h, s)))
              for r0 in range(min(s, h))]
    cphases = [(c0, (c0 + pad) % s, (c0 + pad) // s, len(range(c0, w_in, s)))
               for c0 in range(min(s, w_in))]
    gx = np.empty(x_shape, dtype=dt)
    for a in range(0, n, cap):
        b = min(a + cap, n)
        nb = b - a
        gwide[:nb, :, :, :wo] = g4[a:b]
        np.matmul(wt, gwide[:nb].reshape(nb, m, ho * wq), out=gemm_out[:nb])
        blk = planes[:nb]
        blk.fill(0)
        for di in range(k):
            for dj in range(k):
                off = (di // s) * wq + dj // s
                blk[:, di % s, dj % s, off:off + span] += gcols[:nb, di, dj, :span]
        grid = blk.reshape(nb, s, s, c, hq, wq)
        for r0, pi, qr, nr in phases:
            for c0, pj, qc, nc in cphases:
                gx[a:b, :, r0::s, c0::s] = grid[:, pi, pj, :, qr:qr + nr, qc:qc + nc]
    return gx


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """Cross-correlation with zero padding; bias added per output channel.

    The im2col columns are filled a block of samples at a time, as many as
    fit ``_BLOCK_BYTES`` of columns and padded input, by one copy from a
    window view of the (padded) block, and each block's per-sample GEMMs run
    while it is still in cache; the block size changes no bit of the result.
    The bias gradient is ``_channel_sum`` of the output gradient.
    No column buffer outlives a pass: the backward rule keeps the input
    array and refills each block's columns with the forward's own fill right
    before that block's weight-gradient GEMM, so taped and forward-only
    passes run one path.

    A one-channel input against a weight with ``cin > 1`` channels is read
    as that channel repeated ``cin`` times (a grey image). Since
    ``sum_c w_c * x = (sum_c w_c) * x``, it is convolved with the weight
    summed over its input channels, and both GEMMs read the one channel's
    columns (K = k*k, not cin*k*k). The weight gradient is the one-channel
    gradient repeated across ``cin``. This is exact in real arithmetic, not
    bit for bit: the repeated input's GEMMs round in another order. Such an
    input takes no gradient.
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
    xd, wd = x.data, weight.data
    w2 = (wd.sum(axis=1) if c < cin else wd).reshape(m, c * k * k)

    cap = _block(n, c * (k * k * ho * wo + (hp * wp if pad else 0)) * xd.itemsize)

    def operands():
        """Yield ``(a, b, cols)``: samples [a, b)'s columns, ``[b - a, c * k * k, ho * wo]``."""
        cols = np.empty((cap, c, k, k, ho, wo), dtype=xd.dtype)
        # one window view a pass: over the input, or over the pad buffer each block refills
        src = np.zeros((cap, c, hp, wp), dtype=xd.dtype) if pad else xd
        s0, s1, s2, s3 = src.strides
        windows = as_strided(src, (len(src), c, k, k, ho, wo),
                             (s0, s1, s2, s3, s2 * stride, s3 * stride), writeable=False)
        for a in range(0, n, cap):
            nb = min(a + cap, n) - a
            if pad:
                src[:nb, :, pad:pad + h, pad:pad + w] = xd[a:a + nb]
            np.copyto(cols[:nb], windows[:nb] if pad else windows[a:a + nb])
            yield a, a + nb, cols[:nb].reshape(nb, c * k * k, ho * wo)

    out = np.empty((n, m, ho * wo), dtype=np.result_type(w2, xd))
    for a, b, cols in operands():
        np.matmul(w2, cols, out=out[a:b])
        out[a:b] += bias.data[None, :, None]
    x_shape, x_grad = x.shape, x.requires_grad
    b_dtype = bias.data.dtype

    def grad_fn(g):
        g3 = g.reshape(n, m, ho * wo)
        per_sample = np.empty((n, m, c * k * k), dtype=np.result_type(g3, xd))
        for a, b, cols in operands():
            np.matmul(g3[a:b], cols.transpose(0, 2, 1), out=per_sample[a:b])
        gw = per_sample.sum(axis=0).reshape(m, c, k, k)
        if c < cin:                               # the summed weight's gradient, per channel
            gw = np.repeat(gw, cin, axis=1)
        gb = _channel_sum(g3).astype(b_dtype)
        if not x_grad:                            # raw images: no input gradient
            return None, gw, gb
        return _conv_input_grad(wd, g.reshape(n, m, ho, wo), x_shape, stride, pad), gw, gb

    return from_op(out.reshape(n, m, ho, wo), "conv2d", (x, weight, bias), grad_fn)


def conv_out_size(size: int, k: int, stride: int, pad: int) -> int:
    """Output side of a ``k`` x ``k`` convolution over a ``size`` side."""
    out = (size + 2 * pad - k) // stride + 1
    if out < 1:
        raise ShapeError(f"conv reduces size {size} below 1 (k={k}, stride={stride}, pad={pad})")
    return out


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
    A recorded node marks each window's first maximum with one mask per
    offset, and its rule keeps those masks, not the input. When windows do
    not overlap (stride >= window), the backward writes ``g * mask`` once
    into each offset's view of the input gradient and zeroes only what no
    window covers; ``g * 0`` there is a zero with ``g``'s sign. Overlapping
    windows add ``g * mask`` into a zeroed gradient.
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
    # built only when a rule or the branch record reads them
    masks = (_pool_masks(views, out)
             if records((x,)) or _tape._branch_sink is not None else None)
    if _tape._branch_sink is not None:
        arg = sum(o * mask for o, mask in enumerate(masks))
        _note_branch(arg.astype(np.uint8).tobytes())

    def grad_fn(g):
        if stride < window:
            gx = np.zeros((n, c, h, w), dtype=g.dtype)
            # offsets in reverse: an input element shared by overlapping
            # windows then gets its terms in row-major window order
            for view, mask in zip(reversed(_pool_views(gx, window, stride, ho, wo)),
                                  reversed(masks)):
                view += g * mask
            return (gx,)
        gx = np.empty((n, c, h, w), dtype=g.dtype)
        for r in range(window, stride):   # the gaps between windows
            gx[:, :, r::stride] = 0
            gx[:, :, :, r::stride] = 0
        gx[:, :, ho * stride:] = 0        # the remainder past the last window
        gx[:, :, :, wo * stride:] = 0
        for view, mask in zip(_pool_views(gx, window, stride, ho, wo), masks):
            np.multiply(g, mask, out=view)
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
    x_grad = x.requires_grad

    def grad_fn(g):
        gx = g @ wd if x_grad else None
        return gx, g.T @ xd, g.sum(axis=0, dtype=np.float64).astype(DTYPE)

    return from_op(out, "linear", (x, weight, bias), grad_fn)


def _bn_scale(gamma: np.ndarray, var: np.ndarray):
    """Batch norm's per-channel scale ``gamma / std`` and ``std = sqrt(var + eps)``,
    both float64."""
    std = np.sqrt(var.astype(np.float64) + BN_EPS)
    return gamma / std, std


def batchnorm2d(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: np.ndarray,
                running_var: np.ndarray, train: bool, momentum: float = 0.1) -> Tensor:
    """Channel-wise batch normalization over [N,C,H,W].

    Train mode normalizes with (biased) batch statistics and folds them into
    the running buffers in place; eval mode depends only on the buffers.
    The normalization and the affine are one per-channel scale: with
    ``xc = x - mean`` and ``a = gamma / std``, the output is ``xc * a + beta``.
    Train mode squares ``xc`` into the buffer that becomes the output, so it
    allocates two full-size arrays. The rule keeps ``xc``, not ``xc / std``,
    and its backward (Ioffe & Szegedy 2015) needs two channel reductions,
    ``dbeta = sum(g)`` and ``sgx = sum(g * xc)``: ``dgamma = sgx / std``, and
    in train mode ``gx = (g - dbeta / m - xc * sgx / (var + eps) / m) * a``
    over the ``m`` elements of a channel. The mean, the variance, ``dbeta``
    and ``sgx`` are ``_channel_sum``s: float32 within each (sample, channel)
    plane, float64 across samples.
    """
    n, c, h, w = x.shape
    dt = x.data.dtype
    if gamma.shape != (c,):
        raise ShapeError(f"batchnorm: {c} channels vs gamma {gamma.shape}")
    m = n * h * w
    if train:
        mu = _channel_sum(x.data) / m
        xc = x.data - mu[None, :, None, None].astype(dt)
        sq = xc * xc
        var = _channel_sum(sq) / m
        running_mean *= 1.0 - momentum
        running_mean += momentum * mu.astype(DTYPE)
        running_var *= 1.0 - momentum
        running_var += momentum * var.astype(DTYPE)
    else:
        var = running_var.astype(np.float64)
        xc = x.data - running_mean[None, :, None, None].astype(dt)
        sq = None
    a, std = _bn_scale(gamma.data, var)
    a = a.astype(dt)[None, :, None, None]
    out = np.multiply(xc, a, out=sq)   # train mode reuses the squares' buffer
    out += beta.data[None, :, None, None]

    def grad_fn(g):
        dbeta = _channel_sum(g)
        t = g * xc
        sgx = _channel_sum(t)
        dgamma = (sgx / std).astype(DTYPE)
        if not train:
            np.multiply(g, a, out=t)
            return t, dgamma, dbeta.astype(DTYPE)
        k1 = (dbeta / m).astype(dt)[None, :, None, None]
        k2 = (sgx / (var + BN_EPS) / m).astype(dt)[None, :, None, None]
        gx = g - k1
        np.multiply(xc, k2, out=t)
        gx -= t
        gx *= a
        return gx, dgamma, dbeta.astype(DTYPE)

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
        return conv_out_size(size, self.kernel_size, self.stride, self.pad)


class BatchNorm2d:
    """Batch norm with one affine parameter set and, when shared between the
    branches of a multi-scale model, one running-statistics set per branch
    (each input distribution tracks its own inference statistics)."""

    def __init__(self, channels: int, momentum: float = 0.1, n_stat_sets: int = 1):
        self.gamma = Tensor(np.ones(channels, dtype=DTYPE), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=DTYPE), requires_grad=True)
        self.running_means = [np.zeros(channels, dtype=DTYPE) for _ in range(n_stat_sets)]
        self.running_vars = [np.ones(channels, dtype=DTYPE) for _ in range(n_stat_sets)]
        self.momentum = momentum

    def forward(self, x: Tensor, train: bool, stat_set: int = -1) -> Tensor:
        return batchnorm2d(x, self.gamma, self.beta, self.running_means[stat_set],
                           self.running_vars[stat_set], train, self.momentum)

    def folded(self, conv: Conv2d, stat_set: int = -1):
        """``conv`` then this layer in eval mode, as one convolution's constant
        (weight, bias) tensors.

        With ``s = gamma / sqrt(var + eps)`` from running statistics set
        ``stat_set``, the weight is ``w * s`` per output channel and the bias
        ``(b - mean) * s + beta``, computed in float64 and cast to float32.
        """
        mean = self.running_means[stat_set].astype(np.float64)
        s, _ = _bn_scale(self.gamma.data, self.running_vars[stat_set])
        weight = conv.weight.data * s[:, None, None, None]   # float64 from here on
        bias = (conv.bias.data - mean) * s + self.beta.data
        return Tensor(weight.astype(DTYPE)), Tensor(bias.astype(DTYPE))

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
