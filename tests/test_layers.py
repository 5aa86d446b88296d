"""Layer forward oracles and backward checks."""

import tracemalloc

import numpy as np
import pytest

from msun import Rng, ShapeError, Tensor, grad_check
from msun.layers import (BatchNorm2d, Conv2d, Linear, batchnorm2d, bilinear_resize,
                         conv2d, global_avg_pool, linear, maxpool2d, resize_images,
                         softmax_cross_entropy)
from msun.tensor import backward, mul, no_grad, record_branches, relu, tsum

import oracles

SQ = lambda y: tsum(mul(y, y))


def randn(rng, shape, scale=1.0, offset=0.0):
    return (rng.normal(shape) * scale + offset).astype(np.float32)


class TestConv2d:
    def test_identity_kernel(self):
        x = Tensor(np.arange(9, dtype=np.float32).reshape(1, 1, 3, 3))
        w = Tensor(np.ones((1, 1, 1, 1), dtype=np.float32))
        b = Tensor(np.zeros(1, dtype=np.float32))
        out = conv2d(x, w, b, 1, 0)
        assert np.array_equal(out.data, x.data)

    def test_all_ones_sum(self):
        x = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
        w = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
        b = Tensor(np.zeros(1, dtype=np.float32))
        out = conv2d(x, w, b, 1, 0)
        assert out.data.shape == (1, 1, 1, 1)
        assert out.data[0, 0, 0, 0] == pytest.approx(9.0)

    def test_strided_padded_against_loops(self):
        rng = Rng(21)
        x = randn(rng, (2, 3, 8, 8))
        w = randn(rng, (4, 3, 3, 3), 0.5)
        b = randn(rng, (4,), 0.2)
        got = conv2d(Tensor(x), Tensor(w), Tensor(b), 2, 1).data
        want = oracles.conv2d_loops(x, w, b, 2, 1)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-5

    @pytest.mark.parametrize("seed", range(50))
    def test_oracle_equivalence_random_shapes(self, seed):
        rng = Rng(1000 + seed)
        n, c, m = 1 + rng.randint(2), 1 + rng.randint(3), 1 + rng.randint(4)
        k = (3, 1, 5)[rng.randint(3)]
        stride = 1 + rng.randint(2)
        pad = rng.randint(k // 2 + 1)
        size = k + rng.randint(4) + 2
        x = randn(rng, (n, c, size, size))
        w = randn(rng, (m, c, k, k), 0.5)
        b = randn(rng, (m,), 0.2)
        got = conv2d(Tensor(x), Tensor(w), Tensor(b), stride, pad).data
        want = oracles.conv2d_loops(x, w, b, stride, pad)
        assert np.max(np.abs(got - want)) < 1e-5

    # (channels, height, width, out channels, kernel, stride, pad): the desk
    # protocol's stems at 16, 32 and 64 px, unified.block1 and block2, then
    # odd geometries (non-square, stride 3, 1x1 kernel)
    EXACT_SHAPES = [(3, 16, 16, 8, 3, 1, 1), (3, 32, 32, 8, 3, 2, 1), (3, 64, 64, 8, 5, 2, 2),
                    (8, 16, 16, 8, 3, 1, 1), (8, 16, 16, 16, 3, 2, 1),
                    (5, 11, 9, 4, 3, 3, 2), (4, 7, 6, 3, 1, 2, 0)]

    @pytest.mark.parametrize("n", [13, 16])     # 13 is not a whole number of blocks
    @pytest.mark.parametrize("shape", EXACT_SHAPES, ids=str)
    def test_bit_identical_to_im2col(self, shape, n):
        c, h, w, m, k, stride, pad = shape
        rng = Rng(3000 + h + k + n)
        x, wt, b = randn(rng, (n, c, h, w)), randn(rng, (m, c, k, k), 0.3), randn(rng, (m,))
        out = conv2d(Tensor(x, requires_grad=True), Tensor(wt, requires_grad=True),
                     Tensor(b, requires_grad=True), stride, pad)
        g = randn(rng, out.shape)
        got = (out.data,) + tuple(out.node.grad_fn(g))
        for name, a, want in zip(("out", "gx", "gw", "gb"), got,
                                 oracles.conv2d_im2col(x, wt, b, g, stride, pad)):
            assert a.dtype == want.dtype and np.array_equal(a, want), name

    @pytest.mark.parametrize("n", [13, 16])
    @pytest.mark.parametrize("shape", EXACT_SHAPES[:3], ids=str)
    def test_one_channel_reads_as_repeated(self, shape, n):
        # a grey image against a 3-channel stem: the columns, so the output and
        # the weight and bias gradients, equal those of the repeated image
        c, h, w, m, k, stride, pad = shape
        rng = Rng(3200 + h + k + n)
        x, wt, b = randn(rng, (n, 1, h, w)), randn(rng, (m, c, k, k), 0.3), randn(rng, (m,))
        params = (Tensor(wt, requires_grad=True), Tensor(b, requires_grad=True))
        grey, rgb = Tensor(x), Tensor(np.repeat(x, c, axis=1))
        got, want = conv2d(grey, *params, stride, pad), conv2d(rgb, *params, stride, pad)
        g = randn(rng, want.shape)
        assert np.array_equal(got.data, want.data)
        for name, one, rep in zip(("gx", "gw", "gb"), got.node.grad_fn(g), want.node.grad_fn(g)):
            assert (one is None and rep is None) or np.array_equal(one, rep), name
        with no_grad():
            free = conv2d(grey, *params, stride, pad)
        assert free.node is None and np.array_equal(free.data, want.data)

    def test_one_channel_requiring_grad_raises(self):
        x = Tensor(np.zeros((1, 1, 4, 4), np.float32), requires_grad=True)
        w = Tensor(np.zeros((1, 3, 3, 3), np.float32))
        with pytest.raises(ShapeError, match="takes no gradient"):
            conv2d(x, w, Tensor(np.zeros(1, np.float32)), 1, 1)

    def test_float64_input_keeps_float64(self):
        rng = Rng(33)
        x = randn(rng, (3, 2, 7, 7)).astype(np.float64)
        wt, b = randn(rng, (4, 2, 3, 3)), randn(rng, (4,))
        out = conv2d(Tensor(x, requires_grad=True), Tensor(wt, requires_grad=True),
                     Tensor(b, requires_grad=True), 2, 1)
        g = rng.normal(out.shape)
        got = (out.data,) + tuple(out.node.grad_fn(g))
        for a, want in zip(got, oracles.conv2d_im2col(x, wt, b, g, 2, 1)):
            assert a.dtype == want.dtype and np.array_equal(a, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", EXACT_SHAPES, ids=str)
    def test_forward_only_equals_taped(self, shape, dtype):
        c, h, w, m, k, stride, pad = shape
        n = 13                                  # not a whole number of blocks
        rng = Rng(3100 + h + k)
        x = randn(rng, (n, c, h, w)).astype(dtype)
        wt, b = randn(rng, (m, c, k, k), 0.3), randn(rng, (m,))
        params = (Tensor(wt, requires_grad=True), Tensor(b, requires_grad=True))
        taped = conv2d(Tensor(x), *params, stride, pad)
        assert taped.node is not None
        with no_grad():
            free = conv2d(Tensor(x), *params, stride, pad)
        const = conv2d(Tensor(x), Tensor(wt), Tensor(b), stride, pad)
        for out in (free, const):
            assert out.node is None
            assert out.data.dtype == taped.data.dtype
            assert np.array_equal(out.data, taped.data)

    def test_forward_only_keeps_one_block_of_columns(self):
        # the 64 px stem at an eval batch of 256: its full im2col buffer is 78.6 MB
        n, c, size, m, k, stride, pad = 256, 3, 64, 8, 5, 2, 2
        rng = Rng(35)
        x = Tensor(rng.uniform((n, c, size, size)).astype(np.float32))
        wt, b = Tensor(randn(rng, (m, c, k, k), 0.3)), Tensor(randn(rng, (m,)))
        ho = (size + 2 * pad - k) // stride + 1
        full_cols = n * c * k * k * ho * ho * 4
        tracemalloc.start()
        try:
            with no_grad():
                out = conv2d(x, wt, b, stride, pad)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (n, m, ho, ho)
        assert peak < full_cols / 4, f"peak {peak} bytes vs columns {full_cols}"

    def test_kernel_larger_than_padded_input(self):
        x = Tensor(np.zeros((1, 1, 2, 2), np.float32))
        w = Tensor(np.zeros((1, 1, 5, 5), np.float32))
        b = Tensor(np.zeros(1, np.float32))
        with pytest.raises(ShapeError):
            conv2d(x, w, b, 1, 0)

    def test_channel_mismatch(self):
        x = Tensor(np.zeros((1, 2, 4, 4), np.float32))
        w = Tensor(np.zeros((1, 3, 3, 3), np.float32))
        with pytest.raises(ShapeError):
            conv2d(x, w, Tensor(np.zeros(1, np.float32)), 1, 1)

    def test_gradients(self):
        rng = Rng(31)
        x = Tensor(randn(rng, (2, 2, 5, 5), 0.6, 0.2))
        w = Tensor(randn(rng, (3, 2, 3, 3), 0.4))
        b = Tensor(randn(rng, (3,), 0.2))
        assert grad_check(lambda t: SQ(conv2d(t, w, b, 2, 1)), x) < 1e-3
        assert grad_check(lambda t: SQ(conv2d(x, t, b, 2, 1)), w) < 1e-3
        assert grad_check(lambda t: SQ(conv2d(x, w, t, 2, 1)), b) < 1e-3


class TestMaxPool:
    def test_constant_input(self):
        x = Tensor(np.full((1, 1, 4, 4), 2.5, dtype=np.float32))
        assert np.all(maxpool2d(x, 2, 2).data == 2.5)

    def test_single_window(self):
        x = Tensor(np.array([[[[1, 2], [3, 4]]]], dtype=np.float32))
        assert maxpool2d(x, 2, 2).data[0, 0, 0, 0] == 4

    @pytest.mark.parametrize("seed", range(50))
    def test_oracle_equivalence(self, seed):
        rng = Rng(2000 + seed)
        window = 2 + rng.randint(2)
        stride = 1 + rng.randint(window)
        size = window + rng.randint(5)
        x = randn(rng, (1 + rng.randint(2), 1 + rng.randint(3), size, size))
        got = maxpool2d(Tensor(x), window, stride).data
        assert np.array_equal(got, oracles.maxpool2d_loops(x, window, stride))

    def test_window_too_large(self):
        with pytest.raises(ShapeError):
            maxpool2d(Tensor(np.zeros((1, 1, 2, 2), np.float32)), 3, 1)

    def test_backward_routes_one_unit_per_window(self):
        rng = Rng(8)
        x = Tensor(randn(rng, (1, 1, 6, 6)), requires_grad=True)
        out = maxpool2d(x, 2, 2)
        x.zero_grad()
        backward(tsum(out))
        # disjoint 2x2 windows: each contributes exactly one unit
        assert float(x.grad.sum()) == pytest.approx(out.data.size)
        assert set(np.unique(x.grad)) <= {0.0, 1.0}

    def test_tie_breaks_to_lowest_flat_index(self):
        x = Tensor(np.ones((1, 1, 2, 2), dtype=np.float32), requires_grad=True)
        x.zero_grad()
        backward(tsum(maxpool2d(x, 2, 2)))
        assert np.array_equal(x.grad[0, 0], np.array([[1, 0], [0, 0]], dtype=np.float32))

    # (shape, window, stride): disjoint, stride > window, stride < window
    # (up to nine windows share an element), odd sizes
    EXACT_CASES = [((3, 4, 8, 8), 2, 2), ((2, 3, 9, 7), 2, 3), ((2, 3, 7, 7), 3, 1),
                   ((2, 2, 9, 9), 3, 2), ((1, 2, 11, 10), 2, 1)]

    @pytest.mark.parametrize("post_relu", [False, True])
    @pytest.mark.parametrize("case", EXACT_CASES, ids=str)
    def test_bit_identical_to_loops(self, case, post_relu):
        shape, window, stride = case
        rng = Rng(4000 + sum(shape) + window + stride)
        x = randn(rng, shape)
        if post_relu:
            # quantized ReLU output: many all-zero windows and tied maxima
            x = relu(Tensor(np.round(x * 2) / 2)).data
        with record_branches() as rec:
            out = maxpool2d(Tensor(x, requires_grad=True), window, stride)
        ref, arg = oracles.maxpool2d_argmax(x, window, stride)
        assert np.array_equal(out.data.view(np.uint32), ref.view(np.uint32))   # signed zeros too
        assert np.array_equal(out.data, oracles.maxpool2d_loops(x, window, stride))
        assert rec.fingerprint() == arg.astype(np.uint8).tobytes()
        g = randn(rng, out.shape)
        (gx,) = out.node.grad_fn(g)
        want = oracles.maxpool2d_backward_loops(x, g, window, stride)
        assert gx.dtype == want.dtype and np.array_equal(gx, want)

    def test_overlapping_gradient_sum_preserved(self):
        rng = Rng(13)
        x = Tensor(randn(rng, (2, 2, 5, 5)), requires_grad=True)
        out = maxpool2d(x, 3, 2)
        x.zero_grad()
        backward(tsum(out))
        assert float(x.grad.sum()) == pytest.approx(out.data.size)


class TestGlobalAvgPool:
    def test_constant(self):
        x = Tensor(np.full((2, 3, 4, 5), 0.7, dtype=np.float32))
        assert np.allclose(global_avg_pool(x).data, 0.7)

    def test_single_channel_mean(self):
        x = Tensor(np.array([[[[1, 3], [5, 7]]]], dtype=np.float32))
        assert global_avg_pool(x).data[0, 0] == pytest.approx(4.0)

    @pytest.mark.parametrize("seed", range(50))
    def test_oracle(self, seed):
        rng = Rng(3000 + seed)
        x = randn(rng, (1 + rng.randint(3), 1 + rng.randint(4),
                        1 + rng.randint(5), 1 + rng.randint(5)))
        assert np.max(np.abs(global_avg_pool(Tensor(x)).data
                             - oracles.global_avg_pool_loops(x))) < 1e-6

    def test_gradient(self):
        rng = Rng(4)
        x = Tensor(randn(rng, (2, 3, 3, 3)))
        assert grad_check(lambda t: SQ(global_avg_pool(t)), x) < 1e-3


class TestBatchNorm:
    def test_eval_identity_with_unit_stats(self):
        layer = BatchNorm2d(3)
        rng = Rng(6)
        x = Tensor(randn(rng, (2, 3, 4, 4)))
        out = layer.forward(x, train=False)
        assert np.allclose(out.data, x.data, atol=1e-4)

    def test_train_normalizes_batch(self):
        layer = BatchNorm2d(2)
        rng = Rng(7)
        x = Tensor(randn(rng, (8, 2, 5, 5), 2.0, 1.5))
        out = layer.forward(x, train=True)
        mean = out.data.mean(axis=(0, 2, 3))
        var = out.data.var(axis=(0, 2, 3))
        assert np.max(np.abs(mean)) < 1e-4
        assert np.max(np.abs(var - 1.0)) < 1e-3

    def test_running_stats_updated_only_in_train(self):
        layer = BatchNorm2d(2, momentum=0.5)
        rng = Rng(8)
        x = Tensor(randn(rng, (4, 2, 3, 3), 1.0, 2.0))
        layer.forward(x, train=False)
        assert np.array_equal(layer.running_mean, np.zeros(2, np.float32))
        layer.forward(x, train=True)
        assert not np.array_equal(layer.running_mean, np.zeros(2, np.float32))

    def test_single_pixel_batch_uses_eps(self):
        layer = BatchNorm2d(1)
        x = Tensor(np.full((1, 1, 1, 1), 3.0, dtype=np.float32))
        out = layer.forward(x, train=True)   # zero variance, eps keeps it finite
        assert np.isfinite(out.data).all()

    def test_gradients_train_and_eval(self):
        rng = Rng(9)
        x = Tensor(randn(rng, (4, 3, 4, 4), 1.0, 0.4))
        gamma = Tensor(randn(rng, (3,), 0.3, 1.0))
        beta = Tensor(randn(rng, (3,), 0.2))
        mix = Tensor(randn(rng, (4, 3, 4, 4)))
        weighted = lambda y: tsum(mul(mul(y, mix), mul(y, mix)))
        for train in (True, False):
            rm = np.zeros(3, np.float32)
            rv = np.ones(3, np.float32)
            err = grad_check(
                lambda t: weighted(batchnorm2d(t, gamma, beta, rm.copy(), rv.copy(), train)),
                x)
            assert err < 1e-3, f"train={train}: {err}"
        rm = np.zeros(3, np.float32)
        rv = np.ones(3, np.float32)
        err = grad_check(
            lambda t: weighted(batchnorm2d(x, t, beta, rm.copy(), rv.copy(), True)), gamma)
        assert err < 1e-3

    @pytest.mark.parametrize("train", [True, False])
    @pytest.mark.parametrize("shape", [(13, 8, 16, 16), (16, 8, 32, 32), (5, 16, 3, 5)],
                             ids=str)
    def test_bit_identical_to_formulas(self, shape, train):
        rng = Rng(5000 + sum(shape))
        c = shape[1]
        x = randn(rng, shape, 2.0, 0.7)
        gamma, beta = randn(rng, (c,), 0.3, 1.0), randn(rng, (c,), 0.2)
        rm, rv = randn(rng, (c,), 0.5), (rng.uniform((c,)) + 0.5).astype(np.float32)
        g = randn(rng, shape)
        out = batchnorm2d(Tensor(x, requires_grad=True), Tensor(gamma, requires_grad=True),
                          Tensor(beta, requires_grad=True), rm.copy(), rv.copy(), train)
        got = (out.data,) + tuple(out.node.grad_fn(g))
        want = oracles.batchnorm2d_formulas(x, gamma, beta, rm, rv, train, g)
        for name, a, b in zip(("out", "gx", "dgamma", "dbeta"), got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b), name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("train", [False, True])
    def test_forward_only_equals_taped(self, train, dtype):
        rng = Rng(5100)
        x = randn(rng, (13, 8, 6, 5), 2.0, 0.7).astype(dtype)
        keep = x.copy()
        gamma = Tensor(randn(rng, (8,), 0.3, 1.0), requires_grad=True)
        beta = Tensor(randn(rng, (8,), 0.2), requires_grad=True)
        rm, rv = randn(rng, (8,), 0.5), (rng.uniform((8,)) + 0.5).astype(np.float32)
        taped_stats, free_stats = (rm.copy(), rv.copy()), (rm.copy(), rv.copy())
        taped = batchnorm2d(Tensor(x), gamma, beta, *taped_stats, train)
        assert taped.node is not None
        with no_grad():
            free = batchnorm2d(Tensor(x), gamma, beta, *free_stats, train)
        assert free.node is None
        assert free.data.dtype == taped.data.dtype
        assert np.array_equal(free.data, taped.data)
        assert np.array_equal(x, keep), "the input array was written"
        for a, b in zip(free_stats, taped_stats):
            assert np.array_equal(a, b)

    def test_per_set_statistics_are_independent(self):
        layer = BatchNorm2d(2, momentum=1.0, n_stat_sets=2)
        rng = Rng(10)
        a = Tensor(randn(rng, (4, 2, 3, 3), 1.0, 5.0))
        b = Tensor(randn(rng, (4, 2, 3, 3), 1.0, -5.0))
        layer.forward(a, train=True, stat_set=0)
        layer.forward(b, train=True, stat_set=1)
        assert layer.running_means[0].mean() > 2.0
        assert layer.running_means[1].mean() < -2.0


class TestLinear:
    def test_shapes_and_values(self):
        x = Tensor(np.array([[1.0, 2.0]], dtype=np.float32))
        w = Tensor(np.array([[3.0, 4.0]], dtype=np.float32))
        b = Tensor(np.array([0.5], dtype=np.float32))
        assert linear(x, w, b).data[0, 0] == pytest.approx(11.5)

    def test_gradients(self):
        rng = Rng(12)
        x = Tensor(randn(rng, (3, 4)))
        w = Tensor(randn(rng, (2, 4)))
        b = Tensor(randn(rng, (2,)))
        assert grad_check(lambda t: SQ(linear(t, w, b)), x) < 1e-3
        assert grad_check(lambda t: SQ(linear(x, t, b)), w) < 1e-3


class TestConstantInputs:
    """conv2d and linear skip the input gradient when the input is a constant.

    The weight and bias gradients must not change by a single bit.
    """

    @pytest.mark.parametrize("case", ["conv2d", "linear"])
    def test_constant_input_gets_none(self, case):
        rng = Rng(41)
        if case == "conv2d":
            x, w, b = randn(rng, (2, 3, 9, 9)), randn(rng, (4, 3, 5, 5)), randn(rng, (4,))
            g = randn(rng, (2, 4, 4, 4))
            op = lambda xt, wt, bt: conv2d(xt, wt, bt, 2, 1)
        else:
            x, w, b = randn(rng, (5, 6)), randn(rng, (3, 6)), randn(rng, (3,))
            g = randn(rng, (5, 3))
            op = linear
        grads = {}
        for needs in (False, True):
            out = op(Tensor(x, requires_grad=needs), Tensor(w, requires_grad=True),
                     Tensor(b, requires_grad=True))
            grads[needs] = out.node.grad_fn(g)
        assert grads[False][0] is None
        assert grads[True][0] is not None and grads[True][0].shape == x.shape
        assert np.array_equal(grads[False][1], grads[True][1])
        assert np.array_equal(grads[False][2], grads[True][2])


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        logits = Tensor(np.zeros((2, 4), dtype=np.float32))
        loss = softmax_cross_entropy(logits, np.array([0, 3]))
        assert float(loss.data) == pytest.approx(np.log(4.0), abs=1e-7)

    def test_large_margin_near_zero(self):
        logits = np.zeros((1, 3), dtype=np.float32)
        logits[0, 1] = 50.0
        loss = softmax_cross_entropy(Tensor(logits), np.array([1]))
        assert float(loss.data) < 1e-6

    @pytest.mark.parametrize("seed", range(50))
    def test_oracle(self, seed):
        rng = Rng(4000 + seed)
        n, c = 1 + rng.randint(5), 2 + rng.randint(6)
        logits = randn(rng, (n, c), 3.0)
        labels = np.array([rng.randint(c) for _ in range(n)])
        got = float(softmax_cross_entropy(Tensor(logits), labels).data)
        assert got == pytest.approx(oracles.softmax_ce_direct(logits, labels), abs=1e-6)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(Tensor(np.zeros((1, 3), np.float32)), np.array([3]))

    def test_gradient(self):
        rng = Rng(14)
        logits = Tensor(randn(rng, (3, 5), 2.0))
        labels = np.array([0, 4, 2])
        assert grad_check(lambda t: softmax_cross_entropy(t, labels), logits) < 1e-3

    def test_stability_with_huge_logits(self):
        logits = Tensor(np.array([[1000.0, 999.0]], dtype=np.float32))
        loss = softmax_cross_entropy(Tensor(logits.data), np.array([0]))
        assert np.isfinite(float(loss.data))


class TestBilinearResize:
    def test_same_size_is_exact_identity(self):
        rng = Rng(15)
        x = Tensor(randn(rng, (2, 3, 5, 7)))
        out = bilinear_resize(x, 5, 7)
        assert np.array_equal(out.data, x.data)

    def test_constant_image_any_size(self):
        x = Tensor(np.full((1, 2, 3, 3), 0.42, dtype=np.float32))
        out = bilinear_resize(x, 8, 5)
        assert np.allclose(out.data, 0.42, atol=1e-6)

    def test_frozen_ramp_upsample(self):
        # hand-derived half-pixel weights for 2x2 [[0,1],[2,3]] -> 4x4
        x = Tensor(np.array([[[[0.0, 1.0], [2.0, 3.0]]]], dtype=np.float32))
        want = np.array([
            [0.0, 0.25, 0.75, 1.0],
            [0.5, 0.75, 1.25, 1.5],
            [1.5, 1.75, 2.25, 2.5],
            [2.0, 2.25, 2.75, 3.0]])
        assert np.max(np.abs(bilinear_resize(x, 4, 4).data[0, 0] - want)) < 1e-6

    @pytest.mark.parametrize("seed", range(50))
    def test_oracle(self, seed):
        rng = Rng(5000 + seed)
        h, w = 1 + rng.randint(8), 1 + rng.randint(8)
        oh, ow = 1 + rng.randint(10), 1 + rng.randint(10)
        x = randn(rng, (1 + rng.randint(2), 1 + rng.randint(3), h, w))
        got = bilinear_resize(Tensor(x), oh, ow).data
        assert np.max(np.abs(got - oracles.bilinear_resize_loops(x, oh, ow))) < 1e-5

    def test_gradients_both_directions(self):
        rng = Rng(16)
        x = Tensor(randn(rng, (1, 2, 4, 4), 0.5, 0.5))
        assert grad_check(lambda t: SQ(bilinear_resize(t, 7, 6)), x) < 1e-3
        assert grad_check(lambda t: SQ(bilinear_resize(t, 2, 3)), x) < 1e-3

    def test_resize_images_stays_in_unit_interval(self):
        rng = Rng(17)
        x = np.clip(rng.uniform((4, 3, 9, 9)), 0, 1).astype(np.float32)
        for size in (4, 9, 16):
            out = resize_images(x, size, size)
            assert out.min() >= 0.0 and out.max() <= 1.0


    def test_resize_images_leaves_its_input_alone(self):
        rng = Rng(18)
        # values outside [0,1], so the clip has values to change
        x = (rng.uniform((3, 3, 9, 9)) * 3.0 - 1.0).astype(np.float32)
        keep = x.copy()
        for size in (4, 16):
            out = resize_images(x, size, size)
            assert not np.shares_memory(out, x)
            assert out.min() >= 0.0 and out.max() <= 1.0
            assert np.array_equal(x, keep)


class TestLayerClasses:
    def test_conv_layer_init_deterministic(self):
        a = Conv2d(3, 4, 3, 1, 1, Rng(42))
        b = Conv2d(3, 4, 3, 1, 1, Rng(42))
        assert np.array_equal(a.weight.data, b.weight.data)
        assert np.array_equal(a.bias.data, np.zeros(4, np.float32))

    def test_out_size_contract(self):
        layer = Conv2d(1, 1, 3, 2, 1, Rng(0))
        assert layer.out_size(8) == 4
        with pytest.raises(ShapeError):
            Conv2d(1, 1, 7, 1, 0, Rng(0)).out_size(4)

    def test_linear_layer(self):
        layer = Linear(5, 2, Rng(1))
        out = layer.forward(Tensor(np.zeros((3, 5), np.float32)), train=True)
        assert out.data.shape == (3, 2)
