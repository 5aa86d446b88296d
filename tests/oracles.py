"""Independent brute-force reference implementations used as test oracles.

Everything here is written as plainly as possible (nested loops, direct
summation) and never calls into the package's own compute paths, except
three references built from the package's ops: ``grad_cam_taped``, Grad-CAM
by its definition, differentiated on the package's tape, the reference for
the closed form ``analysis.grad_cam`` uses; ``conv_block_relu_then_pool``,
a pooled conv block in its textbook order; and ``shadow_step_error``, which
measures a float32 training step against the same step in float64.
``perturbed_batch_norms`` sets up the models that the eval-fold tests and
the Grad-CAM reference run on.
"""

import copy

import numpy as np

from msun import layers, model as msun_model, tensor


def conv2d_loops(x, w, b, stride, pad):
    n, c, h, wd = x.shape
    m, _, k, _ = w.shape
    ho = (h + 2 * pad - k) // stride + 1
    wo = (wd + 2 * pad - k) // stride + 1
    xp = np.zeros((n, c, h + 2 * pad, wd + 2 * pad), dtype=np.float64)
    xp[:, :, pad:pad + h, pad:pad + wd] = x
    out = np.zeros((n, m, ho, wo), dtype=np.float64)
    for ni in range(n):
        for mi in range(m):
            for oi in range(ho):
                for oj in range(wo):
                    acc = float(b[mi])
                    for ci in range(c):
                        for ki in range(k):
                            for kj in range(k):
                                acc += float(xp[ni, ci, oi * stride + ki, oj * stride + kj]) \
                                    * float(w[mi, ci, ki, kj])
                    out[ni, mi, oi, oj] = acc
    return out


def maxpool2d_loops(x, window, stride):
    n, c, h, w = x.shape
    ho = (h - window) // stride + 1
    wo = (w - window) // stride + 1
    out = np.zeros((n, c, ho, wo), dtype=x.dtype)
    for ni in range(n):
        for ci in range(c):
            for oi in range(ho):
                for oj in range(wo):
                    patch = x[ni, ci, oi * stride:oi * stride + window,
                              oj * stride:oj * stride + window]
                    out[ni, ci, oi, oj] = patch.max()
    return out


def global_avg_pool_loops(x):
    n, c, h, w = x.shape
    out = np.zeros((n, c), dtype=np.float64)
    for ni in range(n):
        for ci in range(c):
            acc = 0.0
            for i in range(h):
                for j in range(w):
                    acc += float(x[ni, ci, i, j])
            out[ni, ci] = acc / (h * w)
    return out


def softmax_ce_direct(logits, labels):
    n = logits.shape[0]
    total = 0.0
    for i in range(n):
        row = logits[i].astype(np.float64)
        p = np.exp(row - row.max())
        p = p / p.sum()
        total += -np.log(p[labels[i]])
    return total / n


def bilinear_weights(n_in, n_out):
    """Per-output (index0, index1, weight0, weight1) for one axis."""
    rows = []
    for o in range(n_out):
        src = (o + 0.5) * (n_in / n_out) - 0.5
        src = min(max(src, 0.0), n_in - 1.0)
        i0 = int(np.floor(src))
        i1 = min(i0 + 1, n_in - 1)
        w1 = src - i0
        rows.append((i0, i1, 1.0 - w1, w1))
    return rows


def bilinear_resize_loops(x, out_h, out_w):
    n, c, h, w = x.shape
    ry = bilinear_weights(h, out_h)
    rx = bilinear_weights(w, out_w)
    out = np.zeros((n, c, out_h, out_w), dtype=np.float64)
    for ni in range(n):
        for ci in range(c):
            for oi in range(out_h):
                i0, i1, wy0, wy1 = ry[oi]
                for oj in range(out_w):
                    j0, j1, wx0, wx1 = rx[oj]
                    out[ni, ci, oi, oj] = (
                        wy0 * wx0 * float(x[ni, ci, i0, j0])
                        + wy0 * wx1 * float(x[ni, ci, i0, j1])
                        + wy1 * wx0 * float(x[ni, ci, i1, j0])
                        + wy1 * wx1 * float(x[ni, ci, i1, j1]))
    return out


def cka_direct(x, y):
    """Frobenius inner products by explicit double loops over sample pairs."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.shape[0]
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    num = 0.0
    nx = 0.0
    ny = 0.0
    for i in range(n):
        for j in range(n):
            kx = float(np.dot(xc[i], xc[j]))
            ky = float(np.dot(yc[i], yc[j]))
            num += kx * ky
            nx += kx * kx
            ny += ky * ky
    return num / (np.sqrt(nx) * np.sqrt(ny))


def si_pairwise(features):
    """Brute-force sum over pairs of mean squared differences."""
    total = 0.0
    s = len(features)
    for i in range(s):
        for j in range(i + 1, s):
            d = features[i].astype(np.float64) - features[j].astype(np.float64)
            total += float((d * d).mean())
    return total


# --------------------------------------------------------------------------
# Whole-array window formulas: the engine's earlier kernels, kept as exact
# references. The cache-blocked kernels must reproduce them bit for bit.
# --------------------------------------------------------------------------

def im2col(x, k, stride, pad):
    """Patch matrix [N, C*k*k, Ho*Wo] by one strided copy per kernel offset."""
    n, c, h, w = x.shape
    ho = (h + 2 * pad - k) // stride + 1
    wo = (w + 2 * pad - k) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    cols = np.empty((n, c, k, k, ho, wo), dtype=x.dtype)
    for di in range(k):
        for dj in range(k):
            cols[:, :, di, dj] = xp[:, :, di:di + ho * stride:stride,
                                    dj:dj + wo * stride:stride]
    return cols.reshape(n, c * k * k, ho * wo), ho, wo


def col2im(gcols, x_shape, k, stride, pad, ho, wo):
    """Scatter-add patch gradients onto a zeroed padded grid, offset by offset."""
    n, c, h, w = x_shape
    gp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=gcols.dtype)
    g6 = gcols.reshape(n, c, k, k, ho, wo)
    for di in range(k):
        for dj in range(k):
            gp[:, :, di:di + ho * stride:stride, dj:dj + wo * stride:stride] += \
                g6[:, :, di, dj]
    return gp[:, :, pad:pad + h, pad:pad + w]


def conv2d_im2col(x, w, b, g, stride, pad):
    """Output and (input, weight, bias) gradients for output gradient ``g``."""
    n = x.shape[0]
    m, cin, k, _ = w.shape
    cols, ho, wo = im2col(x, k, stride, pad)
    w2 = w.reshape(m, cin * k * k)
    out = np.matmul(w2, cols)
    out += b[None, :, None]
    g3 = g.reshape(n, m, ho * wo)
    gw = np.matmul(g3, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    gb = g3.sum(axis=(0, 2), dtype=np.float64).astype(b.dtype)
    gx = col2im(np.matmul(w2.T, g3), x.shape, k, stride, pad, ho, wo)
    return out.reshape(n, m, ho, wo), gx, gw, gb


def maxpool2d_argmax(x, window, stride):
    """Output and first-argmax index (row-major in the window) of every
    window, via an argmax over copied windows."""
    from numpy.lib.stride_tricks import sliding_window_view
    n, c, h, w = x.shape
    v = sliding_window_view(x, (window, window), axis=(2, 3))[:, :, ::stride, ::stride]
    ho, wo = v.shape[2], v.shape[3]
    flat = v.reshape(n, c, ho, wo, window * window)
    arg = flat.argmax(axis=4)
    out = np.take_along_axis(flat, arg[..., None], axis=4)[..., 0]
    return np.ascontiguousarray(out), arg


def maxpool2d_backward_loops(x, g, window, stride):
    """Each window's gradient goes to its first maximum in row-major window
    order; windows are visited row-major and overlapping windows sum."""
    n, c, h, w = x.shape
    ho, wo = g.shape[2], g.shape[3]
    gx = np.zeros(x.shape, dtype=g.dtype)
    for ni in range(n):
        for ci in range(c):
            for oi in range(ho):
                for oj in range(wo):
                    best = None
                    for di in range(window):
                        for dj in range(window):
                            v = x[ni, ci, oi * stride + di, oj * stride + dj]
                            if best is None or v > best[0]:
                                best = (v, di, dj)
                    gx[ni, ci, oi * stride + best[1], oj * stride + best[2]] += g[ni, ci, oi, oj]
    return gx


def batchnorm2d_formulas(x, gamma, beta, running_mean, running_var, train, g,
                         eps=1e-5):
    """Output and (input, gamma, beta) gradients, normalizing first, one
    temporary per operation: the textbook form, which batch norm's fused
    arithmetic matches within rounding, not bit for bit."""
    n, c, h, w = x.shape
    dt = x.dtype
    if train:
        mu = x.mean(axis=(0, 2, 3), dtype=np.float64)
        xc = x - mu[None, :, None, None].astype(dt)
        var = np.mean(xc * xc, axis=(0, 2, 3), dtype=np.float64)
    else:
        var = running_var.astype(np.float64)
        xc = x - running_mean[None, :, None, None].astype(dt)
    inv = (1.0 / np.sqrt(var + eps)).astype(dt)[None, :, None, None]
    xhat = xc * inv
    out = gamma[None, :, None, None] * xhat + beta[None, :, None, None]
    m = n * h * w
    dgamma = (g * xhat).sum(axis=(0, 2, 3), dtype=np.float64).astype(np.float32)
    dbeta = g.sum(axis=(0, 2, 3), dtype=np.float64).astype(np.float32)
    dxhat = g * gamma[None, :, None, None]
    if not train:
        return out, dxhat * inv, dgamma, dbeta
    s1 = dxhat.sum(axis=(0, 2, 3), dtype=np.float64).astype(dt)
    s2 = (dxhat * xhat).sum(axis=(0, 2, 3), dtype=np.float64).astype(dt)
    gx = (inv / m) * (m * dxhat - s1[None, :, None, None] - xhat * s2[None, :, None, None])
    return out, gx, dgamma, dbeta


_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def splitmix_bulk_u64(state, n):
    """Outputs 1..n of the SplitMix64 stream at ``state``, as one whole array."""
    z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_SPLITMIX_GAMMA) + np.uint64(state)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31)), (state + n * _SPLITMIX_GAMMA) % (1 << 64)


def box_muller_whole_array(state, shape, mean, std):
    """Box-Muller normals from two whole-array draws; returns (values, next state)."""
    n = int(np.prod(shape))
    inv53 = 1.0 / (1 << 53)
    d1, state = splitmix_bulk_u64(state, n)
    d2, state = splitmix_bulk_u64(state, n)
    u1 = ((d1 >> np.uint64(11)).astype(np.float64) + 1.0) * inv53
    u2 = (d2 >> np.uint64(11)).astype(np.float64) * inv53
    z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    return (mean + std * z).reshape(shape), state


def perturbed_batch_norms(model, rng):
    """Set every batch norm's affine and each running-statistics set off their
    initial values, so a fold that drops a term shows; returns the model in
    eval mode."""
    for _, layer in model.named_layers():
        if isinstance(layer, layers.BatchNorm2d):
            c = layer.gamma.shape[0]
            layer.gamma.data[:] = 0.5 + rng.uniform((c,))
            layer.beta.data[:] = 0.2 * rng.normal((c,))
            for mean, var in zip(layer.running_means, layer.running_vars):
                mean[:] = 0.3 * rng.normal((c,))
                var[:] = 0.5 + rng.uniform((c,))
    return model.eval()


def grad_cam_taped(model, image, cls, size):
    """Grad-CAM's (channel weights, map) by its definition: the spatial mean
    of the class logit's gradient on the last shared features, from a taped
    eval pass (conv then batch norm) and a backward through the pooled head
    to a leaf copy of those features. Writes the head parameters' ``.grad``."""
    last = f"unified.{model.unified.blocks[-1][0]}"
    taps = {last: None}
    with model.evaluating():
        model.forward_infer(image, size, taps=taps)
    feats = tensor.Tensor(taps[last].data.copy(), requires_grad=True)
    logits = model.head.forward(layers.global_avg_pool(feats), False)
    mask = np.zeros(logits.shape, dtype=np.float32)
    mask[0, cls] = 1.0
    tensor.backward(tensor.tsum(tensor.mul(logits, mask)))
    alphas = feats.grad[0].astype(np.float64).mean(axis=(1, 2))
    acts = feats.data[0].astype(np.float64)
    return alphas, np.maximum((alphas[:, None, None] * acts).sum(axis=0), 0.0)


def conv_block_relu_then_pool(block, x, train, stat_set=-1):
    """A ``model.ConvBlock`` in the textbook order: conv, batch norm, ReLU,
    then its max-pool."""
    h = msun_model._conv_bn(block.conv, block.bn, x, train, stat_set).relu()
    return layers.maxpool2d(h, block.pool, block.pool) if block.pool else h


def shadow_step_error(model, views, labels, lam=0.1):
    """Each parameter's gradient error in one training step on ``views``
    (the per-scale batches, as arrays), as a share of that parameter's
    largest gradient in the same step run on float64 copies of the
    parameters and batch.

    Both steps run ``forward_train``, ``si_loss``, ``total_loss`` and
    ``backward`` on copies of ``model``, which is left as it is. Conv biases
    that feed a batch norm are left out: their true gradient is zero, so a
    share of it means nothing. The float64 step's batch-norm affine and
    head-bias gradients are rounded to float32 by the ops that make them.
    """
    named = list(model.named_layers())
    feeds_bn = {f"{name}.bias" for (name, layer), (_, after) in zip(named, named[1:])
                if isinstance(layer, layers.Conv2d) and isinstance(after, layers.BatchNorm2d)}
    grads = []
    for dtype in (np.float32, np.float64):
        step = copy.deepcopy(model)
        for _, p in step.named_params():
            p.data = p.data.astype(dtype)
        step.zero_grad()
        logits, feats = step.forward_train([tensor.Tensor(v.astype(dtype)) for v in views])
        loss, _ = msun_model.total_loss(logits, labels, msun_model.si_loss(feats), lam)
        tensor.backward(loss)
        grads.append({n: p.grad.astype(np.float64) for n, p in step.named_params()
                      if n not in feeds_bn})
    single, double = grads
    return {n: float(np.abs(single[n] - g).max() / np.abs(g).max()) for n, g in double.items()}
