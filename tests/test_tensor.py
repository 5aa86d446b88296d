"""Tensor/autograd engine tests: primitives, tape mechanics, grad_check."""

import tracemalloc
import weakref

import numpy as np
import pytest

from msun import Rng, ShapeError, Tensor, backward, grad_check
from msun.rng import _CHUNK
from msun.tensor import (add, maximum_scalar, mul, no_grad, record_branches, relu, sub, tmean,
                         tsum)

from oracles import box_muller_whole_array


def arr(*values):
    return np.asarray(values, dtype=np.float32)


class TestElementwise:
    def test_add(self):
        out = add(Tensor(arr(1, 2)), Tensor(arr(3, 4)))
        assert np.array_equal(out.data, arr(4, 6))

    def test_relu(self):
        out = relu(Tensor(arr(-1, 0, 2)))
        assert np.array_equal(out.data, arr(0, 0, 2))

    def test_relu_forward_only_equals_taped(self):
        x = Rng(3).normal((4, 3, 5, 5)).astype(np.float32)
        x[0, 0, 0, :2] = (0.0, -0.0)
        taped = relu(Tensor(x, requires_grad=True))
        with no_grad():
            free = relu(Tensor(x, requires_grad=True))
        assert taped.node is not None and free.node is None
        assert free.data.dtype == taped.data.dtype
        assert np.array_equal(free.data, taped.data)

    def test_relu_notes_its_sign_pattern_without_a_tape(self):
        x = Rng(4).normal((2, 3, 4, 4)).astype(np.float32)
        with no_grad(), record_branches() as rec:
            relu(Tensor(x))
        assert rec.fingerprint() == np.packbits(x.reshape(-1) > 0).tobytes()

    def test_multiply_by_zero_scalar(self):
        out = mul(Tensor(arr(2, 3)), Tensor(0.0))
        assert np.array_equal(out.data, arr(0, 0))

    def test_subtract_negate(self):
        assert np.array_equal(sub(Tensor(arr(5, 1)), Tensor(arr(2, 2))).data, arr(3, -1))
        assert np.array_equal(sub(Tensor(0.0), Tensor(arr(1, -2))).data, arr(-1, 2))

    def test_scalar_operand_broadcast(self):
        out = add(Tensor(arr(1, 2, 3)), Tensor(np.asarray(1.0)))
        assert np.array_equal(out.data, arr(2, 3, 4))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError) as exc:
            add(Tensor(arr(1, 2)), Tensor(arr(1, 2, 3)))
        assert "(2,)" in str(exc.value) and "(3,)" in str(exc.value)


class TestBackward:
    def test_sum_gives_ones(self):
        w = Tensor(arr(1, 5, -2), requires_grad=True)
        loss = tsum(w)
        w.zero_grad()
        backward(loss)
        assert np.array_equal(w.grad, arr(1, 1, 1))

    def test_sum_of_squares_gives_2w(self):
        w = Tensor(arr(1, 2, 3), requires_grad=True)
        w.zero_grad()
        backward(tsum(mul(w, w)))
        assert np.allclose(w.grad, arr(2, 4, 6))

    def test_reuse_accumulates(self):
        w = Tensor(arr(3.0), requires_grad=True)
        w.zero_grad()
        backward(tsum(add(w, w)))
        assert np.allclose(w.grad, arr(2.0))

    def test_non_scalar_loss_rejected(self):
        w = Tensor(arr(1, 2), requires_grad=True)
        with pytest.raises(ShapeError):
            backward(add(w, w))

    def test_grad_accumulates_across_calls_until_zeroed(self):
        w = Tensor(arr(1, 1), requires_grad=True)
        w.zero_grad()
        backward(tsum(w))
        backward(tsum(w))
        assert np.array_equal(w.grad, arr(2, 2))
        w.zero_grad()
        assert np.array_equal(w.grad, arr(0, 0))

    def test_unreachable_parameter_keeps_zero_grad(self):
        used = Tensor(arr(1.0), requires_grad=True)
        unused = Tensor(arr(5.0), requires_grad=True)
        used.zero_grad()
        unused.zero_grad()
        backward(tsum(used))
        assert np.array_equal(unused.grad, arr(0.0))

    def test_each_node_backward_rule_runs_exactly_once(self):
        from msun.tensor import from_op
        calls = []

        def traced(tag, data, inputs):
            def grad_fn(g):
                calls.append(tag)
                return tuple(g for _ in inputs)
            return from_op(data, tag, inputs, grad_fn)

        w = Tensor(arr(1.0, 2.0), requires_grad=True)
        a = traced("a", w.data * 2, (w,))
        b = traced("b", a.data + 1, (a,))
        c = traced("c", a.data - 1, (a,))       # diamond: a feeds b and c
        loss = tsum(add(b, c))
        w.zero_grad()
        backward(loss)
        assert sorted(calls) == ["a", "b", "c"]
        assert np.array_equal(w.grad, arr(2.0, 2.0))

    def test_second_backward_raises_naming_the_op(self):
        w = Tensor(arr(1, 2), requires_grad=True)
        w.zero_grad()
        h = mul(w, w)
        loss = tsum(h)
        backward(loss)
        first = w.grad.copy()
        assert loss.node.grad_fn is None and loss.node.parents is None
        with pytest.raises(RuntimeError, match="backward through sum a second time"):
            backward(loss)
        with pytest.raises(RuntimeError, match="backward through mul a second time"):
            backward(tmean(h))          # a new loss over the already-run mul
        assert np.array_equal(w.grad, first)

    def test_tape_keeps_no_input_tensor(self):
        x = Tensor(arr(1, -2, 3), requires_grad=True)
        h = relu(mul(x, x))
        dropped = weakref.ref(h)
        loss = tsum(h)
        del h
        assert dropped() is None        # the sum keeps h's node, not h
        x.zero_grad()
        backward(loss)
        assert np.array_equal(x.grad, arr(2, -4, 6))

    def test_deep_chain_and_determinism(self):
        def run():
            w = Tensor(arr(0.1, -0.25), requires_grad=True)
            h = w
            for _ in range(30):
                h = relu(add(mul(h, h), w))
            w.zero_grad()
            backward(tsum(h))
            return w.grad.copy()

        assert np.array_equal(run(), run())


class TestGradCheck:
    def test_linear_map_exact(self):
        rng = Rng(0)
        x = Tensor(rng.normal((4, 3)).astype(np.float32))
        assert grad_check(tsum, x) < 1e-9

    def test_sum_of_squares(self):
        x = Tensor(arr(1, 2))
        analytic = [2.0, 4.0]
        xt = Tensor(x.data, requires_grad=True)
        xt.zero_grad()
        backward(tsum(mul(xt, xt)))
        assert np.allclose(xt.grad, analytic)
        assert grad_check(lambda t: tsum(mul(t, t)), x) < 1e-6

    def test_scale_and_mean(self):
        rng = Rng(5)
        x = Tensor(rng.normal((6,)).astype(np.float32))
        assert grad_check(lambda t: tmean(mul(t, Tensor(3.5))), x) < 1e-6

    def test_nonsmooth_skip_on_relu(self):
        x = Tensor(arr(0.5, -0.5, 2.0))
        err = grad_check(lambda t: tsum(mul(relu(t), relu(t))), x, skip_nonsmooth=True)
        assert err < 1e-6

    def test_sampled_subset(self):
        rng = Rng(9)
        x = Tensor(rng.normal((50,)).astype(np.float32))
        err = grad_check(lambda t: tsum(mul(t, t)), x, sample=[0, 7, 49])
        assert err < 1e-6

    def test_nonfinite_raises(self):
        from msun import NonFiniteError
        x = Tensor(arr(1.0))
        with pytest.raises(NonFiniteError):
            grad_check(lambda t: mul(tsum(t), Tensor(float("nan"))), x)


class TestMaximumScalar:
    def test_above_floor_passes_gradient(self):
        w = Tensor(arr(2.0), requires_grad=True)
        w.zero_grad()
        backward(maximum_scalar(tsum(w), 0.5))
        assert np.allclose(w.grad, arr(1.0))

    def test_below_floor_blocks_gradient(self):
        w = Tensor(arr(0.1), requires_grad=True)
        w.zero_grad()
        backward(maximum_scalar(tsum(w), 5.0))
        assert np.array_equal(w.grad, arr(0.0))

    def test_value(self):
        assert float(maximum_scalar(Tensor(np.asarray(0.2)), 0.5).data) == 0.5
        assert float(maximum_scalar(Tensor(np.asarray(0.7)), 0.5).data) == 0.7


class TestPrimitiveGradProperty:
    """Every differentiable primitive passes grad_check on random shapes."""

    @pytest.mark.parametrize("seed", range(100))
    def test_randomized_primitives(self, seed):
        rng = Rng(seed)
        ndim = 1 + seed % 4
        shape = tuple(1 + rng.randint(3) for _ in range(ndim))
        x = Tensor((rng.normal(shape) + 0.1).astype(np.float32))
        other = Tensor(rng.normal(shape).astype(np.float32))
        cases = [
            lambda t: tsum(add(t, other)),
            lambda t: tsum(mul(t, other)),
            lambda t: tsum(mul(sub(t, other), sub(t, other))),
            lambda t: tmean(sub(other, t)),
            lambda t: tsum(mul(relu(t), relu(t))),
            lambda t: mul(tsum(mul(t, t)), Tensor(0.7)),
        ]
        for f in cases:
            assert grad_check(f, x, skip_nonsmooth=True) < 1e-3


class TestDtypePolicy:
    def test_arrays_store_float32(self):
        assert Tensor([1, 2, 3]).data.dtype == np.float32

    def test_scalars_store_float64(self):
        assert Tensor(1.5).data.dtype == np.float64

    def test_reductions_return_float64(self):
        assert tsum(Tensor(arr(1, 2))).data.dtype == np.float64
        assert tmean(Tensor(arr(1, 2))).data.dtype == np.float64


class TestRng:
    def test_identical_seed_identical_stream(self):
        a = [Rng(123).next_u64() for _ in range(5)]
        b = [Rng(123).next_u64() for _ in range(5)]
        assert a == b

    def test_scalar_bulk_agreement(self):
        r1, r2 = Rng(7), Rng(7)
        assert [r1.next_u64() for _ in range(32)] == [int(v) for v in r2._bulk_u64(32)]

    def test_known_splitmix_vector(self):
        # SplitMix64 from seed 0: first outputs of the reference algorithm
        r = Rng(0)
        assert r.next_u64() == 0xE220A8397B1DCDAF
        assert r.next_u64() == 0x6E789E6AA1B965F4

    def test_permutation_is_permutation(self):
        p = Rng(3).permutation(100)
        assert sorted(p.tolist()) == list(range(100))

    def test_uniform_range_and_normal_moments(self):
        r = Rng(17)
        u = r.uniform((10000,))
        assert u.min() >= 0.0 and u.max() < 1.0
        z = r.normal((20000,))
        assert abs(z.mean()) < 0.03
        assert abs(z.std() - 1.0) < 0.03

    @pytest.mark.parametrize("shape", [(1,), (_CHUNK - 1,), (_CHUNK,), (_CHUNK + 1,),
                                       (3 * _CHUNK + 7,), (5, 3, 7)])
    def test_blocked_normal_matches_whole_array(self, shape):
        r = Rng(0xC0FFEE)
        want, state = box_muller_whole_array(0xC0FFEE, shape, 0.25, 0.05)
        got = r.normal(shape, mean=0.25, std=0.05)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert r.next_u64() == Rng(state).next_u64()

    @pytest.mark.parametrize("start,stop", [(0, 5), (1, 3), (4, 5), (2, 2)])
    @pytest.mark.parametrize("draw", ["uniform"])
    def test_rows_match_whole_draw(self, draw, start, stop):
        # 5 rows of 3 * _CHUNK // 4 outputs: the rows cross block boundaries
        shape = (5, 3, _CHUNK // 4)
        whole_rng, part_rng = Rng(41), Rng(41)
        whole = getattr(whole_rng, draw)(shape)
        part = getattr(part_rng, draw)(shape, start=start, stop=stop)
        assert part.shape == (stop - start,) + shape[1:]
        assert np.array_equal(part.view(np.uint64), whole[start:stop].view(np.uint64))
        assert part_rng.next_u64() == whole_rng.next_u64()

    @pytest.mark.parametrize("rows,start,stop", [(2, 0, 5), (3, 1, 5), (1, 2, 4), (7, 0, 5),
                                                 (2, 1, 3), (1, 4, 5)])
    def test_blocks_match_whole_draw(self, rows, start, stop):
        # blocks of ``rows`` rows that do not divide the range, or one block
        # of the whole range; ranged and whole
        shape = (5, 3, _CHUNK // 4)
        whole_rng, block_rng = Rng(43), Rng(43)
        whole = whole_rng.normal(shape, std=0.05)
        blocks = list(block_rng.normal_blocks(shape, rows, std=0.05, start=start, stop=stop))
        assert [len(b) for b in blocks[:-1]] == [rows] * (len(blocks) - 1)
        got = np.concatenate(blocks)
        assert np.array_equal(got.view(np.uint64), whole[start:stop].view(np.uint64))
        assert block_rng.next_u64() == whole_rng.next_u64()

    @pytest.mark.parametrize("start,stop", [(-1, 2), (3, 2), (0, 6)])
    def test_rows_outside_draw_rejected(self, start, stop):
        r = Rng(5)
        with pytest.raises(ValueError, match="outside a draw of 5"):
            r.normal_blocks((5, 2), 1, start=start, stop=stop)
        assert r.next_u64() == Rng(5).next_u64()

    def test_normal_peak_memory(self):
        # blocks keep every temporary small: the peak is the output plus a few blocks
        tracemalloc.start()
        try:
            out = Rng(7).normal((1536, 64, 64))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * out.nbytes
