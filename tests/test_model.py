"""Multi-scale model core: construction, routing, losses, training step."""

import copy
import dataclasses
import hashlib
import os
import tracemalloc

import numpy as np
import pytest

from msun import (BackboneSpec, MsunModel, Rng, ScaleSet, ShapeError, Tensor, build_vanilla,
                  route_scale, si_loss, total_loss)
from msun import layers
from msun.analysis import count_params, grad_cam
from msun.config import load_config
from msun.data import gen_shapes, make_multiscale
from msun.layers import bilinear_resize, resize_images
from msun.model import (ConvBlock, LossBreakdown, Stack, _block_plan, _build, _conv_bn,
                        _step_with_logits)
from msun.optim import SGD
from msun.tensor import backward, grad_check, maximum_scalar, mul, no_grad, tsum

import oracles

TINY_CFG = os.path.join(os.path.dirname(__file__), "..", "configs", "tiny.cfg")
DESK_CFG = os.path.join(os.path.dirname(__file__), "..", "configs", "desk.cfg")
SPEC = BackboneSpec((8, 16), (1, 1), "plain", 4, 32)
SCALES = ScaleSet([8, 16, 32])


def small_batch(rng, size, n=4):
    return Tensor(np.clip(rng.uniform((n, 3, size, size)), 0, 1).astype(np.float32))


class TestBackboneSpec:
    def test_rejects_spatial_collapse(self):
        # at 2 px the 5x5/2 stem conv leaves 1 px, below its 2 px pool; later
        # 3x3 convs with padding 1 keep at least one pixel
        with pytest.raises(ValueError) as exc:
            BackboneSpec((4, 8, 16, 32), (1, 1, 1, 1), "plain", 2, 2)
        assert "canonical input 2" in str(exc.value)
        model = build_vanilla(BackboneSpec((4, 8, 16, 32), (1, 1, 1, 1), "plain", 2, 16),
                              Rng(0)).eval()
        assert model.forward_infer(small_batch(Rng(0), 16, 1).data, 16).data.shape == (1, 2)

    def test_accepts_exactly_what_runs(self):
        # the spec's one check against the engine: every block of the vanilla
        # model, built from the plan without the spec's check, runs or not
        disagree = []
        for stages in range(1, 5):
            for canonical in range(1, 40):
                for kind in ("plain", "residual"):
                    fields = ((2,) * stages, (1,) * stages, kind, 2, canonical)
                    unchecked = object.__new__(BackboneSpec)
                    for field, value in zip(dataclasses.fields(BackboneSpec), fields):
                        object.__setattr__(unchecked, field.name, value)
                    blocks = Stack([_build(e, Rng(0)) for e in _block_plan(unchecked)])
                    try:
                        with no_grad():
                            blocks.forward(small_batch(Rng(0), canonical, 1), False)
                        runs = True
                    except ShapeError:
                        runs = False
                    try:
                        spec = BackboneSpec(*fields)
                    except ValueError:
                        spec = None
                    if (spec is not None) != runs:
                        disagree.append(fields)
                    elif spec is not None:
                        model = build_vanilla(spec, Rng(0)).eval()
                        logits = model.forward_infer(small_batch(Rng(0), canonical, 1).data,
                                                     canonical)
                        assert logits.data.shape == (1, 2), fields
        assert not disagree, disagree

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            BackboneSpec((4,), (1,), "dense", 2, 32)

    def test_total_blocks(self):
        assert BackboneSpec((4, 8), (2, 3), "plain", 2, 64).total_blocks == 6


class TestScaleSet:
    def test_strictly_increasing(self):
        with pytest.raises(ValueError):
            ScaleSet([16, 16, 32])
        with pytest.raises(ValueError):
            ScaleSet([32, 16])

    def test_iteration(self):
        assert list(ScaleSet([8, 16])) == [8, 16]


class TestRouting:
    def test_exact_match(self):
        sc = ScaleSet([32, 128, 224])
        assert sc[route_scale(224, sc)] == 224

    def test_nearest(self):
        sc = ScaleSet([32, 128, 224])
        assert sc[route_scale(100, sc)] == 128

    def test_tie_breaks_smaller(self):
        sc = ScaleSet([32, 128, 224])
        assert sc[route_scale(80, sc)] == 32      # |80-32| == |80-128|

    def test_idempotent_on_quantized_sizes(self):
        for i, size in enumerate(SCALES):
            assert route_scale(size, SCALES) == i

    def test_exhaustive_against_brute_force(self):
        for sc in (ScaleSet([32, 128, 224]), ScaleSet([16, 32, 64])):
            for size in range(8, 257):
                want = min(range(len(sc)), key=lambda i: (abs(size - sc[i]), sc[i]))
                assert route_scale(size, sc) == want

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            route_scale(0, SCALES)


class TestBuildVanilla:
    def test_forward_shape_contract(self):
        model = build_vanilla(SPEC, Rng(0)).eval()
        logits = model.forward_infer(small_batch(Rng(1), 32, 1).data, 32)
        assert logits.data.shape == (1, 4)

    def test_grey_input_matches_repeated(self):
        # data sources keep grey images one channel; the stem reads it as
        # three through its channel-summed weight, which rounds differently
        grey = small_batch(Rng(2), 16, 6).data[:, :1]
        rgb = np.repeat(grey, 3, axis=1)
        close = lambda a, b: np.abs(a - b).max() <= 1e-5 * np.abs(b).max()
        for train in (True, False):
            a, b = build_vanilla(SPEC, Rng(0)), build_vanilla(SPEC, Rng(0))
            a.training = b.training = train
            got, want = a.forward_infer(grey, 16), b.forward_infer(rgb, 16)
            assert close(got.data, want.data), train
            for (name, buf_a), (_, buf_b) in zip(a.named_buffers(), b.named_buffers()):
                assert close(buf_a, buf_b), (name, train)

    def test_parameter_count_hand_summed(self):
        # stem conv 5x5: 8*3*25+8; bn 8+8; block1 conv 8*8*9+8, bn 16;
        # block2 conv 16*8*9+16, bn 32; head 16*4+4
        want = (8 * 3 * 25 + 8) + 16 + (8 * 8 * 9 + 8) + 16 + (16 * 8 * 9 + 16) + 32 + (16 * 4 + 4)
        assert count_params(build_vanilla(SPEC, Rng(0))) == want

    def test_same_seed_bit_identical(self):
        a = build_vanilla(SPEC, Rng(7))
        b = build_vanilla(SPEC, Rng(7))
        for (_, pa), (_, pb) in zip(a.named_params(), b.named_params()):
            assert np.array_equal(pa.data, pb.data)


class TestTransform:
    def test_common_feature_shape(self):
        assert MsunModel(SPEC, SCALES, 1, Rng(0)).feature_shape == (8, 8, 8)
        for kind in ("plain", "residual"):
            spec = BackboneSpec((8, 16), (1, 1), kind, 4, 32)
            for b in range(spec.total_blocks):
                model = MsunModel(spec, SCALES, b, Rng(0)).eval()
                want = model.feature_shape
                # a B = 0 subnet passes the input's channels through
                assert (want[0] is None) == (b == 0), (kind, b)
                for channels in (1, 3):   # grey data keeps one channel
                    for i, size in enumerate(SCALES):
                        x = Tensor(small_batch(Rng(i), size).data[:, :channels])
                        _, feats = model.forward_branch(i, x)
                        assert feats.data.shape[2:] == want[1:], (kind, b, channels, i)
                        if want[0] is not None:
                            assert feats.data.shape[1] == want[0], (kind, b, channels, i)

    def test_b0_branch_is_vanilla_on_the_resized_input(self):
        spec = BackboneSpec((8, 16), (1, 1), "plain", 4, 64)
        scales = ScaleSet([16, 32, 64])
        for train in (True, False):
            model = MsunModel(spec, scales, 0, Rng(3))
            vanilla = build_vanilla(spec, Rng(3))
            model.training = vanilla.training = train
            for i, size in enumerate(scales):
                x = small_batch(Rng(i), size)
                got, got_feats = model.forward_branch(i, x)
                want, want_feats = vanilla.forward_branch(0, bilinear_resize(x, 64, 64))
                assert np.array_equal(got.data, want.data), (train, size)
                assert np.array_equal(got_feats.data, want_feats.data), (train, size)
                if size == 64:
                    assert got_feats is x

    def test_b0_degenerates_to_vanilla_params(self):
        assert count_params(MsunModel(SPEC, SCALES, 0, Rng(0))) == \
            count_params(build_vanilla(SPEC, Rng(0)))

    def test_b1_overhead_is_small(self):
        vanilla = count_params(build_vanilla(SPEC, Rng(0)))
        msun = count_params(MsunModel(SPEC, SCALES, 1, Rng(0)))
        assert vanilla < msun < 1.6 * vanilla

    def test_s1_reproduces_vanilla_forward(self):
        x = small_batch(Rng(3), 32).data
        van = build_vanilla(SPEC, Rng(9)).eval()
        s1 = MsunModel(SPEC, ScaleSet([32]), 1, Rng(9)).eval()
        assert np.array_equal(van.forward_infer(x, 32).data, s1.forward_infer(x, 32).data)

    def test_infeasible_scale_names_index(self):
        with pytest.raises(ValueError) as exc:
            MsunModel(SPEC, ScaleSet([4, 32]), 1, Rng(0))
        assert "index 0" in str(exc.value)

    def test_unequal_subnet_outputs_name_shapes(self):
        # 33 px: conv3x3/2 gives 17; 66 px: conv5x5/2 then pool 2 gives 16
        spec = BackboneSpec((8, 16), (1, 1), "plain", 4, 66)
        with pytest.raises(ValueError) as exc:
            MsunModel(spec, ScaleSet([33, 66]), 1, Rng(0))
        assert "[(8, 17, 17), (8, 16, 16)]" in str(exc.value)

    def test_subnet_blocks_bound(self):
        with pytest.raises(ValueError):
            MsunModel(SPEC, SCALES, SPEC.total_blocks, Rng(0))

    def test_largest_scale_must_match_canonical(self):
        with pytest.raises(ValueError):
            MsunModel(SPEC, ScaleSet([8, 16]), 1, Rng(0))

    def test_residual_kind_builds_and_runs(self):
        spec = BackboneSpec((8, 16), (1, 1), "residual", 4, 32)
        model = MsunModel(spec, ScaleSet([16, 32]), 1, Rng(0)).eval()
        out = model.forward_infer(small_batch(Rng(0), 20, 2).data, 20)
        assert out.data.shape == (2, 4)

    def test_checkpoint_name_scheme(self):
        model = MsunModel(SPEC, ScaleSet([16, 32]), 1, Rng(0))
        names = [n for n, _ in model.named_params()]
        assert "subnet1.stem.conv.weight" in names
        assert "subnet2.stem.conv.weight" in names
        assert "unified.block1.conv.weight" in names
        assert "head.weight" in names and "head.bias" in names


class TestForwardTrain:
    def test_shape_contract(self):
        model = MsunModel(SPEC, SCALES, 1, Rng(0))
        batches = [small_batch(Rng(i), s) for i, s in enumerate(SCALES)]
        logits, feats = model.forward_train(batches)
        assert len(logits) == 3 and len(feats) == 3
        assert all(lg.data.shape == (4, 4) for lg in logits)

    def test_batch_size_mismatch(self):
        model = MsunModel(SPEC, SCALES, 1, Rng(0))
        batches = [small_batch(Rng(0), 8, 4), small_batch(Rng(0), 16, 3),
                   small_batch(Rng(0), 32, 4)]
        with pytest.raises(Exception):
            model.forward_train(batches)

    def test_identical_branches_give_identical_logits(self):
        # one-scale-set copies: same weights, same input at each "scale"
        spec = BackboneSpec((6,), (1,), "plain", 3, 16)
        model = MsunModel(spec, ScaleSet([8, 16]), 1, Rng(4))
        src = model.subnets[1]
        dst = model.subnets[0]
        # make subnet 0 architecturally usable with subnet 1's weights: both
        # stems are conv+bn, only kernel geometry differs, so instead feed the
        # same input through one branch twice and compare against itself.
        x = small_batch(Rng(5), 16)
        model.eval()
        a, _ = model.forward_branch(1, x)
        b, _ = model.forward_branch(1, x)
        assert np.array_equal(a.data, b.data)

    def test_gradients_reach_every_parameter(self):
        model = MsunModel(SPEC, SCALES, 1, Rng(0))
        model.train()
        opt = SGD(model.named_params(), 0.0, 0.0)
        batches = [small_batch(Rng(i + 10), s) for i, s in enumerate(SCALES)]
        _step_with_logits(model, batches, np.array([0, 1, 2, 3]), opt, 0.0, 0.0)
        for name, p in model.named_params():
            assert p.grad is not None and np.any(p.grad != 0), name


class TestForwardInfer:
    def test_native_size_skips_resize(self):
        model = MsunModel(SPEC, SCALES, 1, Rng(0)).eval()
        x = small_batch(Rng(0), 8, 2).data
        logits = model.forward_infer(x, 8)
        assert logits.data.shape == (2, 4)

    def test_routes_exactly_one_branch(self, monkeypatch):
        model = MsunModel(SPEC, SCALES, 1, Rng(0)).eval()
        routed = []
        forward_branch = model.forward_branch

        def recording(i, *args, **kwargs):
            routed.append(i)
            return forward_branch(i, *args, **kwargs)

        monkeypatch.setattr(model, "forward_branch", recording)
        model.forward_infer(small_batch(Rng(1), 13, 2).data, 13)
        assert routed == [1]   # |13-16| = 3 beats |13-8| = 5

    @pytest.mark.parametrize("b", [0, 1])
    @pytest.mark.parametrize("size", [8, 13, 20, 32])
    def test_presents_native_images_at_size(self, b, size):
        model = MsunModel(SPEC, SCALES, b, Rng(0)).eval()
        native = small_batch(Rng(6), 32).data
        got = model.forward_infer(native, size)
        want = model.forward_infer(resize_images(native, size, size), size)
        assert np.array_equal(got.data, want.data)

    def test_agrees_with_train_branch(self):
        model = MsunModel(SPEC, SCALES, 1, Rng(0)).eval()
        x = small_batch(Rng(2), 16)
        logits_infer = model.forward_infer(x.data, 16)
        logits_train, _ = model.forward_branch(1, x)
        assert np.max(np.abs(logits_infer.data - logits_train.data)) < 1e-6


def _fold_models():
    """Builders covering every conv-BN pair kind: the desk plain msun and
    vanilla models, and tiny-shape residual models whose first unified block
    has an identity skip and whose second a projected one."""
    desk, tiny = load_config(DESK_CFG), load_config(TINY_CFG)
    residual = dataclasses.replace(tiny.backbone(), block_kind="residual")
    return {"desk-msun": lambda: MsunModel(desk.backbone(), desk.scales(),
                                           desk["model.subnet_blocks"], Rng(1)),
            "desk-vanilla": lambda: build_vanilla(desk.backbone(), Rng(1)),
            "tiny-residual-b1": lambda: MsunModel(residual, tiny.scales(), 1, Rng(2)),
            "tiny-residual-b2": lambda: MsunModel(residual, tiny.scales(), 2, Rng(3))}


FOLD_MODELS = _fold_models()


class TestBatchNormFold:
    """A forward-only eval pass convolves with each batch norm folded into the
    conv before it; taped passes and training run conv then batch norm."""

    @pytest.mark.parametrize("name", FOLD_MODELS)
    def test_forward_only_matches_taped_on_every_branch(self, name):
        model = oracles.perturbed_batch_norms(FOLD_MODELS[name](), Rng(40))
        rng = Rng(41)
        for i, size in enumerate(model.scales):
            for channels in (3, 1):   # grey inputs take the channel-summed stem
                x = Tensor(rng.uniform((24, channels, size, size)).astype(np.float32))
                taped, taped_feats = model.forward_branch(i, x)
                assert taped.node is not None
                with no_grad():
                    free, free_feats = model.forward_branch(i, x)
                assert free.node is None and free.data.dtype == taped.data.dtype
                for got, want in ((free, taped), (free_feats, taped_feats)):
                    scale = np.abs(want.data).max()
                    assert np.abs(got.data - want.data).max() <= 1e-5 * scale, (i, channels)
                assert np.array_equal(free.data.argmax(axis=1), taped.data.argmax(axis=1))

    def test_only_taped_passes_run_batch_norm(self, monkeypatch):
        bn_calls = []   # each call's ``train`` argument
        batchnorm2d = layers.batchnorm2d
        monkeypatch.setattr(layers, "batchnorm2d",
                            lambda *args: bn_calls.append(args[5]) or batchnorm2d(*args))
        spec = BackboneSpec((8, 16), (1, 1), "residual", 4, 32)
        model = MsunModel(spec, ScaleSet([16, 32]), 1, Rng(5)).eval()
        images = small_batch(Rng(6), 32).data
        with no_grad():
            model.forward_infer(images, 20)
            model.forward_infer(images, 32)
        grad_cam(model, images[:1], 1)
        assert bn_calls == []
        model.forward_infer(images[:1], 32)   # a taped eval pass: stem, 2 + 3 in the blocks
        assert bn_calls == [False] * 6
        bn_calls.clear()
        model.train()
        batches = [small_batch(Rng(i), s) for i, s in enumerate(model.scales)]
        _step_with_logits(model, batches, np.array([0, 1, 2, 3]), SGD(model.named_params()),
                          0.0, 0.01)
        assert bn_calls == [True] * 12


class TestSiLoss:
    def test_identical_features_zero(self):
        f = Tensor(Rng(0).normal((2, 3, 4, 4)).astype(np.float32))
        assert float(si_loss([f, Tensor(f.data.copy())]).data) == 0.0

    def test_constant_offset_one(self):
        a = Tensor(np.zeros((2, 5), dtype=np.float32))
        b = Tensor(np.ones((2, 5), dtype=np.float32))
        assert float(si_loss([a, b]).data) == pytest.approx(1.0)

    def test_matches_pairwise_oracle(self):
        rng = Rng(3)
        feats = [rng.normal((3, 4, 2, 2)).astype(np.float32) for _ in range(3)]
        got = float(si_loss([Tensor(f) for f in feats]).data)
        assert got == pytest.approx(oracles.si_pairwise(feats), abs=1e-6)

    def test_permutation_symmetry(self):
        rng = Rng(4)
        feats = [Tensor(rng.normal((2, 6)).astype(np.float32)) for _ in range(3)]
        a = float(si_loss(feats).data)
        b = float(si_loss([feats[2], feats[0], feats[1]]).data)
        assert a == pytest.approx(b, abs=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(Exception):
            si_loss([Tensor(np.zeros((2, 3), np.float32)),
                     Tensor(np.zeros((2, 4), np.float32))])


class TestTotalLoss:
    def _parts(self, si_value, lam):
        logits = [Tensor(np.array([[2.0, 0.0], [0.0, 2.0]], dtype=np.float32))] * 2
        labels = np.array([0, 1])
        si = Tensor(np.asarray(si_value))
        return total_loss(logits, labels, si, lam)

    def test_clamped_case(self):
        loss, bd = self._parts(0.0, 0.1)
        assert bd.clamped is True
        assert bd.total == pytest.approx(0.1 + bd.ce_sum, abs=1e-9)

    def test_unclamped_case(self):
        loss, bd = self._parts(0.5, 0.1)
        assert bd.clamped is False
        assert bd.total == pytest.approx(0.5 + bd.ce_sum, abs=1e-9)

    def test_breakdown_reconstructs_total(self):
        _, bd = self._parts(0.37, 0.1)
        assert bd.total == pytest.approx(max(bd.si, bd.lam) + sum(bd.ce_per_scale), abs=1e-6)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            self._parts(0.0, -1.0)

    def test_clamp_gradient_semantics(self):
        rng = Rng(6)
        x = Tensor(rng.normal((3,)).astype(np.float32))
        from msun.tensor import mul, tsum
        hi = grad_check(lambda t: maximum_scalar(tsum(mul(t, t)), 1e-6), x)
        assert hi < 1e-3
        lo = Tensor(x.data, requires_grad=True)
        lo.zero_grad()
        backward(maximum_scalar(tsum(mul(lo, lo)), 1e6))
        assert np.array_equal(lo.grad, np.zeros(3, np.float32))


class TestTrainingStep:
    def _setup(self, lam=0.1, lr=0.05, momentum=0.9, wd=2e-5):
        model = MsunModel(SPEC, SCALES, 1, Rng(1)).train()
        opt = SGD(model.named_params(), momentum, wd)
        rng = Rng(8)
        batches = [small_batch(rng, s) for s in SCALES]
        labels = np.array([0, 1, 2, 3])
        return model, opt, batches, labels

    def test_overfits_memorizable_batch(self):
        model, opt, batches, labels = self._setup()
        first = _step_with_logits(model, batches, labels, opt, 0.1, 0.05)[0]
        last = first
        for _ in range(49):
            last = _step_with_logits(model, batches, labels, opt, 0.1, 0.05)[0]
        assert last.total < first.total

    def test_huge_lambda_always_clamped(self):
        model, opt, batches, labels = self._setup()
        for _ in range(5):
            bd = _step_with_logits(model, batches, labels, opt, 1e3, 0.01)[0]
            assert bd.clamped

    def test_seed_repeatable_trajectories(self):
        def run():
            model, opt, batches, labels = self._setup()
            return [_step_with_logits(model, batches, labels, opt, 0.1, 0.05)[0].total
                    for _ in range(3)]
        assert run() == run()

    def test_zero_lr_zero_wd_keeps_params_bit_identical(self):
        model, opt, batches, labels = self._setup(wd=0.0)
        before = {n: p.data.copy() for n, p in model.named_params()}
        _step_with_logits(model, batches, labels, opt, 0.1, 0.0)
        for n, p in model.named_params():
            assert np.array_equal(before[n], p.data), n

    def test_nonfinite_loss_aborts_with_diagnostic(self):
        from msun import NonFiniteError
        model, opt, batches, labels = self._setup()
        model.head.weight.data[...] = np.nan
        with pytest.raises(NonFiniteError) as exc:
            _step_with_logits(model, batches, labels, opt, 0.1, 0.05)
        assert "cross-entropy" in str(exc.value) or "scale-invariance" in str(exc.value)


class TestConstantStemInputs:
    def test_desk_step_parameter_grads_bit_identical(self):
        """Images need no gradient; skipping it must not move a parameter grad."""
        spec = BackboneSpec((8, 16), (1, 1), "plain", 6, 64)
        scales = ScaleSet([16, 32, 64])
        rng = Rng(12)
        images = [small_batch(rng, s, n=128).data for s in scales]
        labels = np.arange(128) % 6
        grads, stem_grads = {}, {}
        for needs in (False, True):
            model = MsunModel(spec, scales, 1, Rng(4)).train()
            views = [Tensor(v, requires_grad=needs) for v in images]
            _step_with_logits(model, views, labels, SGD(model.named_params(), 0.9, 2e-5),
                              0.1, 0.0)
            grads[needs] = {n: p.grad for n, p in model.named_params()}
            stem_grads[needs] = [v.grad for v in views]
        assert stem_grads[False] == [None, None, None]
        assert all(np.any(g != 0) for g in stem_grads[True])
        for name, g in grads[False].items():
            assert np.array_equal(g, grads[True][name]), name


def _desk_step_inputs():
    """The desk msun model at batch 128 and one batch of its grey views."""
    spec = BackboneSpec((8, 16), (1, 1), "plain", 6, 64)
    scales = ScaleSet([16, 32, 64])
    native = Rng(12).uniform((128, 1, 64, 64)).astype(np.float32)
    views = [Tensor(resize_images(native, s, s)) for s in scales]
    return MsunModel(spec, scales, 1, Rng(4)).train(), views, np.arange(128) % 6


class TestStepMemory:
    def test_desk_msun_step_keeps_only_what_backward_reads(self):
        # the desk msun step at batch 128 keeps three branches' tapes at once;
        # they hold only what a backward rule reads, no conv columns (about
        # 24 MB at the end of the forward, a 30 MB peak)
        model, views, labels = _desk_step_inputs()
        model.zero_grad()
        tracemalloc.start()
        try:
            logits, feats = model.forward_train(views)
            loss, _ = total_loss(logits, labels, si_loss(feats), 0.1)
            forward, _ = tracemalloc.get_traced_memory()
            backward(loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert forward <= 40e6, f"{forward / 1e6:.1f} MB live at the end of the forward"
        assert peak <= 45e6, f"step peak {peak / 1e6:.1f} MB"


class TestConvInputsUnchanged:
    """Conv's backward rule rebuilds its columns from the input array, so no
    op may write into a conv input between the forward and the backward."""

    @staticmethod
    def _step_leaves_conv_inputs(monkeypatch, model, views, labels):
        seen = []
        conv2d = layers.conv2d

        def hashing(x, *args, **kwargs):
            seen.append((x.data, hashlib.sha256(x.data.tobytes()).hexdigest()))
            return conv2d(x, *args, **kwargs)

        monkeypatch.setattr(layers, "conv2d", hashing)
        model.zero_grad()
        logits, feats = model.forward_train(views)
        loss, _ = total_loss(logits, labels, si_loss(feats), 0.1)
        backward(loss)
        assert seen and all(p.grad is not None for p in model.parameters())
        for i, (data, digest) in enumerate(seen):
            assert hashlib.sha256(data.tobytes()).hexdigest() == digest, f"conv call {i}"

    def test_desk_msun_step(self, monkeypatch):
        self._step_leaves_conv_inputs(monkeypatch, *_desk_step_inputs())

    def test_tiny_residual_step(self, monkeypatch):
        cfg = load_config(TINY_CFG, {"model.kind": "residual"})
        train = cfg.train_config()
        ds = gen_shapes(train.seed, cfg["data.n_train"], cfg["data.classes"],
                        cfg["data.native"])
        batch = next(make_multiscale(ds, cfg.scales(), train.batch_size, train.seed))
        model = MsunModel(cfg.backbone(), cfg.scales(), cfg["model.subnet_blocks"],
                          Rng(train.seed)).train()
        self._step_leaves_conv_inputs(monkeypatch, model, [Tensor(v) for v in batch.images],
                                      batch.labels)


class TestFullLossGradients:
    def test_full_loss_matches_finite_differences(self):
        spec = BackboneSpec((4,), (1,), "plain", 2, 8)
        scales = ScaleSet([4, 8])
        model = MsunModel(spec, scales, 1, Rng(5)).train()
        labels = np.array([0, 1])
        rng = Rng(77)
        x = Tensor((rng.normal((2, 3, 8, 8)) * 0.4 + 0.5).astype(np.float32))

        def full_loss(t):
            views = [bilinear_resize(t, s, s) for s in scales]
            logits, feats = model.forward_train(views)
            loss, _ = total_loss(logits, labels, si_loss(feats), 0.05)
            return loss

        assert grad_check(full_loss, x, skip_nonsmooth=True) < 1e-3


def _shadow_cases():
    """(model, per-scale batch arrays, labels) builders: the desk msun and
    vanilla models on a first batch of desk data, a tiny-shape residual
    model on a tiny batch, and the desk msun model after three SGD steps."""
    desk, tiny = load_config(DESK_CFG), load_config(TINY_CFG, {"model.kind": "residual"})

    def batches(cfg, n, batch_size):
        ds = gen_shapes(0, n, cfg["data.classes"], cfg["data.native"])
        return make_multiscale(ds, cfg.scales(), batch_size, 0)

    def desk_msun():
        batch = next(batches(desk, 128, 128))
        model = MsunModel(desk.backbone(), desk.scales(), 1, Rng(0)).train()
        return model, batch.images, batch.labels

    def desk_vanilla():
        batch = next(batches(desk, 128, 128))
        return build_vanilla(desk.backbone(), Rng(0)).train(), batch.images[-1:], batch.labels

    def tiny_residual():
        batch = next(batches(tiny, 64, 64))
        model = MsunModel(tiny.backbone(), tiny.scales(), 1, Rng(0)).train()
        return model, batch.images, batch.labels

    def desk_msun_trained():
        it = batches(desk, 512, 128)
        model = MsunModel(desk.backbone(), desk.scales(), 1, Rng(0)).train()
        opt = SGD(model.named_params(), 0.9, 2e-5)
        for _ in range(3):
            batch = next(it)
            _step_with_logits(model, [Tensor(v) for v in batch.images], batch.labels,
                              opt, 0.1, 0.1)
        batch = next(it)
        return model, batch.images, batch.labels

    return {"desk-msun": desk_msun, "desk-vanilla": desk_vanilla,
            "tiny-residual": tiny_residual, "desk-msun-3-steps": desk_msun_trained}


SHADOW_CASES = _shadow_cases()


class TestShadowStep:
    """A float32 training step against the same step on float64 copies."""

    # each case's worst error when the bound was set, and the bound: twice
    # that. Rewrites exact in real arithmetic (reductions reordered or fused)
    # read up to 1.3x the desk msun reading; batch-norm reductions in
    # float32 read 4x it.
    READINGS = {"desk-msun": 5.10e-7, "desk-msun-3-steps": 8.69e-7,
                "desk-vanilla": 8.50e-7, "tiny-residual": 4.34e-7}

    @pytest.mark.parametrize("case", sorted(SHADOW_CASES))
    def test_worst_gradient_error_is_bounded(self, case):
        model, views, labels = SHADOW_CASES[case]()
        params_before = {n: p.data.copy() for n, p in model.named_params()}
        errors = oracles.shadow_step_error(model, views, labels)
        biases = {n for n in params_before if n.endswith(".bias")}
        assert set(errors) == set(params_before) - (biases - {"head.bias"}), case
        worst = max(errors, key=errors.get)
        assert errors[worst] <= 2 * self.READINGS[case], (worst, errors[worst])
        assert all(np.array_equal(p.data, params_before[n]) for n, p in model.named_params())


def _planted_stem(n=16):
    """The desk 64 px stem block and an input whose pooled windows, at the
    batch norm's output, include ties, all-negative windows and exact +0.0
    next to negatives."""
    block = ConvBlock(3, 8, 5, 2, Rng(21), pool=2)
    rng = Rng(22)
    block.conv.bias.data[:] = 0.1 * rng.normal((8,))
    x = rng.uniform((n, 3, 64, 64)).astype(np.float32)
    x[:, :, 8:40, 8:40] = 0   # conv output rows and columns 5-18 equal the bias
    probe = copy.deepcopy(block)
    probe.bn.beta.data[:] = 0
    at_bias = _conv_bn(probe.conv, probe.bn, Tensor(x), True).data[0, :, 10, 10]
    # a constant region of exact +0.0, below zero and above zero per channel
    block.bn.beta.data[:] = -at_bias + np.array([0, 0, 0, -0.5, -0.5, -0.5, 0.5, 0.5],
                                                np.float32)
    return block, x


class TestPooledBlockOrder:
    """A pooled ConvBlock pools before its ReLU. Against the textbook order
    (ReLU, then pool) its outputs, gradients and running buffers are equal,
    bit for bit but for the sign of a zero (``np.array_equal`` counts -0.0
    equal to +0.0)."""

    def test_planted_windows(self):
        block, x = _planted_stem()
        pre = _conv_bn(block.conv, block.bn, Tensor(x), True).data
        windows = pre.reshape(16, 8, 16, 2, 16, 2).transpose(0, 1, 2, 4, 3, 5).reshape(
            16, 8, 16, 16, 4)
        top = windows.max(axis=4)
        ties = (windows == top[..., None]).sum(axis=4) > 1
        assert (top < 0).any() and (ties & (top < 0)).any() and (ties & (top > 0)).any()
        zero_top = (top == 0) & (windows < 0).any(axis=4)
        assert zero_top.any() and (ties & (top == 0)).any()

    def test_taped_pass_matches_relu_then_pool(self):
        block, x = _planted_stem()
        ref = copy.deepcopy(block)
        g = Rng(23).normal((16, 8, 16, 16)).astype(np.float32)
        got = []
        for run in (lambda t: block.forward(t, True),
                    lambda t: oracles.conv_block_relu_then_pool(ref, t, True)):
            xt = Tensor(x, requires_grad=True)
            out = run(xt)
            backward(tsum(mul(out, Tensor(g))))
            got.append((out.data, xt.grad))
        (out, gx), (want_out, want_gx) = got
        assert out.dtype == want_out.dtype and np.array_equal(out, want_out)
        assert gx.dtype == want_gx.dtype and np.array_equal(gx, want_gx)
        for (name, p), (_, q) in zip(block.conv.params() + block.bn.params(),
                                     ref.conv.params() + ref.bn.params()):
            assert p.grad.dtype == q.grad.dtype and np.array_equal(p.grad, q.grad), name
        for (name, a), (_, b) in zip(block.bn.buffers(), ref.bn.buffers()):
            assert np.array_equal(a.view(np.uint32), b.view(np.uint32)), name

    @pytest.mark.parametrize("train", [True, False])
    def test_forward_only_pass_matches_relu_then_pool(self, train):
        # a forward-only ReLU is max(x, 0), +0.0 for every non-positive
        # input in either order, so here the bits are equal
        block, x = _planted_stem()
        ref = copy.deepcopy(block)
        with no_grad():
            out = block.forward(Tensor(x), train)
            want = oracles.conv_block_relu_then_pool(ref, Tensor(x), train)
        assert out.node is None and want.node is None
        assert np.array_equal(out.data.view(np.uint32), want.data.view(np.uint32))
        for (name, a), (_, b) in zip(block.bn.buffers(), ref.bn.buffers()):
            assert np.array_equal(a.view(np.uint32), b.view(np.uint32)), name
