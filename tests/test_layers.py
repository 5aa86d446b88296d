"""Layer forward oracles and backward checks."""

import math
import tracemalloc

import numpy as np
import pytest

from msun import Rng, ShapeError, Tensor, grad_check, layers
from msun.layers import (_BLOCK_BYTES, BatchNorm2d, Conv2d, Linear, batchnorm2d, bilinear_resize,
                         conv2d, global_avg_pool, linear, maxpool2d, resize_images,
                         softmax_cross_entropy)
from msun.tensor import backward, mul, no_grad, record_branches, relu, tsum

import oracles

SQ = lambda y: tsum(mul(y, y))


def randn(rng, shape, scale=1.0, offset=0.0):
    return (rng.normal(shape) * scale + offset).astype(np.float32)


def assert_bias_grad_close(gb, g, want):
    """``gb`` sums each (sample, channel) plane of ``g`` in float32 before the
    float64 sum over samples, so per channel it lies within 1e-7 of
    ``sum |g|``, plus one unit in the last place of ``want`` for the cast,
    of the float64 formula ``want``."""
    bound = 1e-7 * np.abs(g).sum(axis=(0, 2, 3), dtype=np.float64) + np.spacing(np.abs(want))
    assert gb.dtype == want.dtype and np.all(np.abs(gb.astype(np.float64) - want) <= bound)


def assert_matches_im2col(out, g, want):
    """A taped conv's output and its gradients for ``g`` against
    ``oracles.conv2d_im2col``'s ``want``: bit for bit but the bias gradient."""
    got = (out.data,) + tuple(out.node.grad_fn(g))
    for name, a, ref in zip(("out", "gx", "gw"), got, want):
        assert a.dtype == ref.dtype and np.array_equal(a, ref), name
    assert_bias_grad_close(got[3], g, want[3])


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

    # widths of 32 and up, where BLAS would round a contiguous operand of the
    # input-gradient GEMM differently from the transposed view it reads: the
    # desk's widest blocks, then strides 1-3 and kernels 1-7
    WIDE_SHAPES = [(32, 8, 8, 32, 3, 1, 1), (32, 16, 16, 64, 3, 2, 1), (64, 8, 8, 64, 3, 1, 1),
                   (64, 9, 9, 128, 1, 2, 0), (128, 4, 4, 128, 3, 1, 1), (32, 11, 9, 32, 5, 3, 2),
                   (48, 7, 7, 32, 7, 1, 3)]

    @pytest.mark.parametrize("n", [13, 16])     # 13 is not a whole number of blocks
    @pytest.mark.parametrize("shape", EXACT_SHAPES + WIDE_SHAPES, ids=str)
    def test_bit_identical_to_im2col(self, shape, n):
        c, h, w, m, k, stride, pad = shape
        rng = Rng(3000 + h + k + n)
        x, wt, b = randn(rng, (n, c, h, w)), randn(rng, (m, c, k, k), 0.3), randn(rng, (m,))
        out = conv2d(Tensor(x, requires_grad=True), Tensor(wt, requires_grad=True),
                     Tensor(b, requires_grad=True), stride, pad)
        g = randn(rng, out.shape)
        assert_matches_im2col(out, g, oracles.conv2d_im2col(x, wt, b, g, stride, pad))

    @pytest.mark.parametrize("n", [13, 16, 128])   # 128 is the desk batch
    @pytest.mark.parametrize("shape", EXACT_SHAPES[:3], ids=str)
    def test_one_channel_reads_as_repeated(self, shape, n):
        # a grey image against a 3-channel stem is convolved with the weight
        # summed over its channels, which is exact in real arithmetic: the
        # output and weight gradient lie within float32 rounding of the
        # repeated image's float64 oracle, and the bias gradient equals the
        # repeated image's; widths 8 (desk) and 6 (tiny)
        c, h, w, _, k, stride, pad = shape
        rng = Rng(3200 + h + k + n)
        x = randn(rng, (n, 1, h, w))
        grey, rgb = Tensor(x), Tensor(np.repeat(x, c, axis=1))
        for m in (8, 6):
            wt, b = randn(rng, (m, c, k, k), 0.3), randn(rng, (m,))
            params = (Tensor(wt, requires_grad=True), Tensor(b, requires_grad=True))
            got, rep = conv2d(grey, *params, stride, pad), conv2d(rgb, *params, stride, pad)
            g = randn(rng, got.shape)
            gx, gw, gb = got.node.grad_fn(g)
            want = oracles.conv2d_im2col(*(a.astype(np.float64) for a in (rgb.data, wt, b, g)),
                                         stride, pad)
            for name, one, ref in (("out", got.data, want[0]), ("gw", gw, want[2])):
                assert one.dtype == np.float32, (name, m)
                assert np.abs(one - ref).max() <= 1e-5 * np.abs(ref).max(), (name, m)
            assert gx is None and np.array_equal(gb, rep.node.grad_fn(g)[2]), m
            assert all(np.array_equal(gw[:, i], gw[:, 0]) for i in range(1, c)), m
            with no_grad():
                free = conv2d(grey, *params, stride, pad)
            assert free.node is None and np.array_equal(free.data, got.data), m

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

    @staticmethod
    def block_samples(n, c, size, k, ho, pad):
        """Samples in one window block of a conv pass: as many as fit the
        block budget with their columns and padded input, at least one."""
        return min(n, max(1, _BLOCK_BYTES // (c * (k * k * ho * ho + (size + 2 * pad) ** 2) * 4)))

    def test_forward_only_keeps_one_block_of_columns(self):
        # the 64 px stem at an eval batch of 256: its full im2col buffer is
        # 78.6 MB; past its output, a forward-only conv holds one block of
        # columns and padded input
        n, c, size, m, k, stride, pad = 256, 3, 64, 8, 5, 2, 2
        rng = Rng(35)
        x = Tensor(rng.uniform((n, c, size, size)).astype(np.float32))
        wt, b = Tensor(randn(rng, (m, c, k, k), 0.3)), Tensor(randn(rng, (m,)))
        ho = (size + 2 * pad - k) // stride + 1
        out_bytes = n * m * ho * ho * 4
        block = self.block_samples(n, c, size, k, ho, pad) * \
            c * (k * k * ho * ho + (size + 2 * pad) ** 2) * 4
        tracemalloc.start()
        try:
            with no_grad():
                out = conv2d(x, wt, b, stride, pad)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (n, m, ho, ho)
        assert peak <= out_bytes + block + (1 << 16), \
            f"peak {peak} bytes vs output {out_bytes} and one block {block}"

    @pytest.mark.parametrize("shape", [(1, 3, 64, 8, 5, 2, 2), (8, 8, 16, 8, 3, 1, 1)],
                             ids=["grey-stem64", "unified.block1"])
    def test_taped_keeps_no_columns(self, shape):
        # at the desk batch of 128, the grey 64 px stem's one-channel columns
        # are 13.1 MB and unified.block1's columns 9.4 MB; past the forward, a
        # taped conv holds no more than its output and one block of the input's
        # columns
        c, cin, size, m, k, stride, pad = shape
        n = 128
        rng = Rng(36)
        x = Tensor(rng.uniform((n, c, size, size)).astype(np.float32))
        wt = Tensor(randn(rng, (m, cin, k, k), 0.3), requires_grad=True)
        b = Tensor(randn(rng, (m,)), requires_grad=True)
        ho = (size + 2 * pad - k) // stride + 1
        out_bytes = n * m * ho * ho * 4
        block = self.block_samples(n, c, size, k, ho, pad) * c * k * k * ho * ho * 4
        tracemalloc.start()
        try:
            out = conv2d(x, wt, b, stride, pad)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.node is not None
        assert kept <= out_bytes + block, \
            f"kept {kept} bytes vs output {out_bytes} and one block {block}"

    @pytest.mark.parametrize("budget", ["one-sample", "five-samples", "whole-batch"])
    @pytest.mark.parametrize("shape", EXACT_SHAPES[2:5] + EXACT_SHAPES[6:] + WIDE_SHAPES[5:6],
                             ids=str)
    def test_block_budget_leaves_every_bit(self, monkeypatch, shape, budget):
        # the output and all three gradients equal the whole-array im2col
        # formulas whatever the budget, padded or not; with five samples'
        # columns of budget the 13 samples end in a partial block
        c, h, w, m, k, stride, pad = shape
        n = 13
        ho, wo = (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1
        budgets = {"one-sample": 1, "five-samples": 5 * c * k * k * ho * wo * 4,
                   "whole-batch": 1 << 40}
        monkeypatch.setattr(layers, "_BLOCK_BYTES", budgets[budget])
        rng = Rng(3400 + h + k)
        x, wt, b = randn(rng, (n, c, h, w)), randn(rng, (m, c, k, k), 0.3), randn(rng, (m,))
        out = conv2d(Tensor(x, requires_grad=True), Tensor(wt, requires_grad=True),
                     Tensor(b, requires_grad=True), stride, pad)
        g = randn(rng, out.shape)
        assert_matches_im2col(out, g, oracles.conv2d_im2col(x, wt, b, g, stride, pad))

    # (input channels, weight channels, size, out channels, kernel, stride,
    # pad): the grey 64 px stem and unified.block1
    REBUILD_SHAPES = [(1, 3, 64, 8, 5, 2, 2), (8, 8, 16, 8, 3, 1, 1)]

    @pytest.mark.parametrize("n", [1, 13, 128])
    @pytest.mark.parametrize("shape", REBUILD_SHAPES, ids=["grey-stem64", "unified.block1"])
    def test_weight_grad_rebuilt_at_backward_equals_im2col(self, shape, n):
        # the columns are rebuilt from the kept input when backward runs; at
        # n = 13 the last block holds 5 samples
        c, cin, size, m, k, stride, pad = shape
        ho = (size + 2 * pad - k) // stride + 1
        rng = Rng(3300 + size + n)
        x = randn(rng, (n, c, size, size))
        wt, b = randn(rng, (m, cin, k, k), 0.3), randn(rng, (m,))
        xt = Tensor(x, requires_grad=c == cin)
        wt_t, b_t = Tensor(wt, requires_grad=True), Tensor(b, requires_grad=True)
        g = randn(rng, (n, m, ho, ho))
        backward(tsum(mul(conv2d(xt, wt_t, b_t, stride, pad), Tensor(g))))
        want = oracles.conv2d_im2col(np.repeat(x, cin // c, axis=1), wt, b, g, stride, pad)
        assert wt_t.grad.dtype == want[2].dtype and np.array_equal(wt_t.grad, want[2])
        assert_bias_grad_close(b_t.grad, g, want[3])
        if c == cin:
            assert np.array_equal(xt.grad, want[1])

    def test_chain_keeps_only_what_backward_reads(self):
        # conv -> bn -> relu with the intermediate outputs dropped: the tape
        # keeps the normalized input and the ReLU mask, not the conv columns
        # or the conv, batch-norm or ReLU outputs
        n, c, size, m, k = 32, 8, 32, 16, 3
        rng = Rng(37)
        x = Tensor(randn(rng, (n, c, size, size)))
        conv, bn = Conv2d(c, m, k, 1, 1, rng), BatchNorm2d(m)
        out_elems = n * m * size * size
        tracemalloc.start()
        try:
            loss = tsum(bn.forward(conv.forward(x, True), True).relu())
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loss.node is not None
        assert kept < out_elems * (4 + 1) + (1 << 18), \
            f"kept {kept} bytes vs {out_elems} outputs"

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

    # (shape, window, stride). Windows that do not overlap write their
    # gradient once: tiled, tiled with a remainder row and column, and
    # stride > window (gaps between windows, with and without a remainder).
    # Overlapping windows accumulate: up to nine windows share an element.
    EXACT_CASES = [((3, 4, 8, 8), 2, 2), ((2, 3, 9, 7), 2, 2), ((2, 2, 11, 10), 3, 3),
                   ((2, 3, 9, 7), 2, 3), ((2, 2, 12, 13), 3, 5),
                   ((2, 3, 7, 7), 3, 1), ((2, 2, 9, 9), 3, 2), ((1, 2, 11, 10), 2, 1)]

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

    def test_taped_keeps_masks_not_input(self):
        # the desk 64 px stem's ReLU output, [128, 8, 32, 32], is 4.2 MB; a
        # taped pool keeps its four masks, one byte per input element, and a
        # forward-only pool builds none
        n, c, size = 128, 8, 32
        elems = n * c * size * size
        rng = Rng(14)
        x = Tensor(randn(rng, (n, c, size, size)), requires_grad=True)
        tracemalloc.start()
        try:
            out = maxpool2d(relu(x), 2, 2)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.node is not None
        # the ReLU mask, the pool masks and the pooled output
        assert kept < 3 * elems + (1 << 16), f"kept {kept} bytes vs {elems} inputs"
        h = relu(x).data
        tracemalloc.start()
        try:
            with no_grad():
                free = maxpool2d(Tensor(h), 2, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(free.data, out.data)
        assert peak < elems + (1 << 16), f"peak {peak} bytes vs output {elems}"

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


class TestChannelSum:
    """``layers._channel_sum`` against the correctly rounded per-channel sum."""

    CASES = {
        "offset": lambda rng: randn(rng, (128, 8, 32, 32), 1.0, 1e3),
        "squares": lambda rng: randn(rng, (128, 8, 16, 16)) ** 2,
        "mixed-signs": lambda rng: randn(rng, (128, 16, 8, 8)) * np.float32(10.0) ** np.floor(
            6 * rng.uniform((128, 16, 8, 8)) - 3).astype(np.float32),
        "many-samples": lambda rng: randn(rng, (4096, 2, 4, 4), 1e-3, 1.0),
        "odd-plane": lambda rng: randn(rng, (37, 5, 7, 9), 1.0, 0.5),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_within_1e7_of_exact_sum(self, case):
        # float32 within a plane, float64 across samples: per channel within
        # 1e-7 of sum |x| of math.fsum; a float32 sum across samples as well
        # reads up to 1.1e-6 on these
        x = self.CASES[case](Rng(5200 + len(case)))
        got = layers._channel_sum(x)
        assert got.dtype == np.float64 and got.shape == (x.shape[1],)
        want = np.array([math.fsum(x[:, c].ravel().tolist()) for c in range(x.shape[1])])
        err = np.abs(got - want) / np.abs(x).sum(axis=(0, 2, 3), dtype=np.float64)
        assert err.max() <= 1e-7, err.max()

    def test_every_training_reduction_takes_it(self, monkeypatch):
        # batch norm's mean, variance, dbeta and sgx, and the conv bias
        # gradient, so the bound above holds for each
        seen = []
        monkeypatch.setattr(layers, "_channel_sum",
                            lambda x: seen.append(x.shape) or np.zeros(x.shape[1]))
        rng = Rng(5250)
        x = Tensor(randn(rng, (4, 3, 6, 6)), requires_grad=True)
        conv = Conv2d(3, 5, 3, 1, 1, rng)
        y = conv.forward(x, True)
        out = BatchNorm2d(5).forward(y, True)
        g = randn(rng, out.shape)
        out.node.grad_fn(g)
        y.node.grad_fn(g)
        assert seen == [(4, 5, 6, 6)] * 4 + [(4, 5, 36)]


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
        assert np.array_equal(layer.running_means[-1], np.zeros(2, np.float32))
        layer.forward(x, train=True)
        assert not np.array_equal(layer.running_means[-1], np.zeros(2, np.float32))

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

    @staticmethod
    def _check_against_formulas(shape, train):
        """Output and gradients lie within 1e-6 of the largest magnitude of
        the textbook formulas evaluated on float64 copies."""
        rng = Rng(5000 + sum(shape))
        c = shape[1]
        x = randn(rng, shape, 2.0, 0.7)
        gamma, beta = randn(rng, (c,), 0.3, 1.0), randn(rng, (c,), 0.2)
        rm, rv = randn(rng, (c,), 0.5), (rng.uniform((c,)) + 0.5).astype(np.float32)
        g = randn(rng, shape)
        out = batchnorm2d(Tensor(x, requires_grad=True), Tensor(gamma, requires_grad=True),
                          Tensor(beta, requires_grad=True), rm.copy(), rv.copy(), train)
        got = (out.data,) + tuple(out.node.grad_fn(g))
        f64 = lambda a: a.astype(np.float64)
        want = oracles.batchnorm2d_formulas(f64(x), f64(gamma), f64(beta), f64(rm), f64(rv),
                                            train, f64(g))
        for name, a, b in zip(("out", "gx", "dgamma", "dbeta"), got, want):
            assert a.dtype == np.float32, name
            assert np.abs(a - b).max() <= 1e-6 * np.abs(b).max(), name

    @pytest.mark.parametrize("train", [True, False])
    @pytest.mark.parametrize("shape", [(13, 8, 16, 16), (16, 8, 32, 32), (5, 16, 3, 5)],
                             ids=str)
    def test_matches_formulas(self, shape, train):
        self._check_against_formulas(shape, train)

    def test_desk_stem_shape_matches_formulas(self):
        self._check_against_formulas((128, 8, 32, 32), True)

    def test_train_forward_allocates_two_outputs(self):
        # the centred input, which the rule keeps, and the output, whose
        # buffer first holds the squares the variance reads
        shape = (128, 8, 32, 32)
        rng = Rng(5300)
        x = Tensor(randn(rng, shape, 2.0, 0.7), requires_grad=True)
        gamma = Tensor(randn(rng, (8,), 0.3, 1.0), requires_grad=True)
        beta = Tensor(randn(rng, (8,), 0.2), requires_grad=True)
        rm, rv = np.zeros(8, np.float32), np.ones(8, np.float32)
        out_bytes = x.data.nbytes
        tracemalloc.start()
        try:
            out = batchnorm2d(x, gamma, beta, rm, rv, True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.node is not None
        assert peak <= 2 * out_bytes + (1 << 16), f"peak {peak} bytes vs output {out_bytes}"

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

    @pytest.mark.parametrize("stat_set", [0, -1])
    def test_folded_conv_matches_conv_then_eval_norm(self, stat_set):
        rng = Rng(5200)
        conv = Conv2d(5, 7, 3, 2, 1, rng)
        conv.bias.data[:] = randn(rng, (7,), 0.3)
        bn = BatchNorm2d(7, n_stat_sets=2)
        bn.gamma.data[:] = randn(rng, (7,), 0.3, 1.0)
        bn.beta.data[:] = randn(rng, (7,), 0.2)
        for mean, var in zip(bn.running_means, bn.running_vars):
            mean[:] = randn(rng, (7,), 0.5)
            var[:] = rng.uniform((7,)) + 0.5
        x = Tensor(randn(rng, (6, 5, 9, 9)))
        want = bn.forward(conv.forward(x, False), False, stat_set).data
        weight, bias = bn.folded(conv, stat_set)
        assert not (weight.requires_grad or bias.requires_grad)
        assert weight.dtype == bias.dtype == np.float32
        got = conv2d(x, weight, bias, conv.stride, conv.pad).data
        assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()

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
