"""CKA, FLOPs/params, Grad-CAM, PCA, and report serialization."""

import numpy as np
import pytest

from msun import (BackboneSpec, MsunModel, Rng, ScaleSet, Tensor, average_accuracy,
                  build_vanilla, center_features, cka, count_flops, count_params,
                  gen_shapes, grad_cam, layerwise_cka, pca_project)
from msun import layers, tensor
from msun import model as model_module
from msun.analysis import EvalReport, EvalRow, grad_cam_formula, parse_pgm, tap_activations
from msun.layers import Conv2d

import oracles


class TestCenterFeatures:
    def test_zero_mean_unchanged(self):
        rng = Rng(0)
        x = rng.normal((6, 3))
        x -= x.mean(axis=0)
        assert np.allclose(center_features(x), x, atol=1e-12)

    def test_constant_column_becomes_zero(self):
        x = np.ones((5, 2))
        x[:, 1] = np.arange(5)
        out = center_features(x)
        assert np.allclose(out[:, 0], 0.0)

    def test_column_means_vanish(self):
        x = Rng(1).normal((5, 3)) + 2.0
        assert np.max(np.abs(center_features(x).mean(axis=0))) < 1e-12

    def test_rejects_nonfinite(self):
        x = np.ones((3, 2))
        x[0, 0] = np.nan
        with pytest.raises(ValueError):
            center_features(x)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            center_features(np.ones((1, 4)))


class TestCka:
    def test_reflexive_one(self):
        x = Rng(2).normal((8, 5))
        assert cka(x, x) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_and_scaling_invariance(self):
        rng = Rng(3)
        x = rng.normal((10, 4))
        q, _ = np.linalg.qr(rng.normal((4, 4)))
        assert cka(x, x @ q) == pytest.approx(1.0, abs=1e-9)
        assert cka(x, 3.7 * x) == pytest.approx(1.0, abs=1e-9)

    def test_against_direct_summation_oracle(self):
        rng = Rng(4)
        x = rng.normal((4, 2))
        y = rng.normal((4, 3))
        assert cka(x, y) == pytest.approx(oracles.cka_direct(x, y), abs=1e-10)

    def test_symmetry_range_invariance_property_suite(self):
        rng = Rng(5)
        for trial in range(1000):
            n = 3 + rng.randint(5)
            x = rng.normal((n, 1 + rng.randint(4)))
            y = rng.normal((n, 1 + rng.randint(4)))
            v = cka(x, y)
            assert -1e-9 <= v <= 1.0 + 1e-9
            assert abs(v - cka(y, x)) < 1e-12
            if trial % 50 == 0:
                q, _ = np.linalg.qr(rng.normal((x.shape[1], x.shape[1])))
                assert abs(cka(x @ q, y) - v) < 1e-9
                assert abs(cka(x, 0.5 * y) - v) < 1e-9

    def test_degenerate_constant_features_warn_zero(self):
        x = np.ones((5, 3))
        y = Rng(6).normal((5, 3))
        with pytest.warns(UserWarning):
            assert cka(x, y) == 0.0

    def test_sample_count_mismatch(self):
        with pytest.raises(ValueError):
            cka(np.ones((4, 2)), np.ones((5, 2)))

    def test_centered_gram_properties(self):
        # the Gram matrix of centered features is symmetric with zero row sums
        rng = Rng(7)
        xc = center_features(rng.normal((8, 5)) + 3.0)
        k = xc @ xc.T
        assert np.max(np.abs(k - k.T)) < 1e-9
        assert np.max(np.abs(k.sum(axis=1))) < 1e-9


class TestTapActivations:
    def test_runs_in_eval_mode_and_restores_the_mode(self):
        # a freshly built model is in train mode: normalizing by each chunk's
        # statistics would change the activations and the running buffers
        model = MsunModel(BackboneSpec((8, 16), (1, 1), "plain", 6, 64),
                          ScaleSet([16, 32, 64]), 1, Rng(0))
        images = gen_shapes(5, 40, 6, 64).images
        buffers = [b.copy() for _, b in model.named_buffers()]
        taps = model.tap_names()
        got = tap_activations(model, images, 32, taps)
        assert model.training
        for (name, b), before in zip(model.named_buffers(), buffers):
            assert np.array_equal(b, before), name
        want = tap_activations(model.eval(), images, 32, taps)
        for t in taps:
            assert np.array_equal(got[t], want[t]), t


class TestLayerwiseCka:
    SPEC = BackboneSpec((8, 16), (1, 1), "plain", 4, 32)

    def test_equal_scales_all_ones(self):
        model = MsunModel(self.SPEC, ScaleSet([16, 32]), 1, Rng(0))
        probe = gen_shapes(0, 64, 4, 32).images
        report = layerwise_cka(model, probe, 32, 32)
        assert all(r.value == pytest.approx(1.0, abs=1e-9) for r in report.rows)

    def test_untrained_distinct_scales_in_range(self):
        model = MsunModel(self.SPEC, ScaleSet([16, 32]), 1, Rng(0))
        probe = gen_shapes(1, 64, 4, 32).images
        report = layerwise_cka(model, probe, 16, 32)
        assert [r.layer for r in report.rows] == model.tap_names()
        assert all(0.0 <= r.value <= 1.0 + 1e-9 for r in report.rows)

    def test_unknown_tap_rejected(self):
        model = MsunModel(self.SPEC, ScaleSet([16, 32]), 1, Rng(0))
        probe = gen_shapes(2, 64, 4, 32).images
        with pytest.raises(ValueError):
            layerwise_cka(model, probe, 16, 32, taps=["nope"])

    def test_min_samples_enforced(self):
        model = MsunModel(self.SPEC, ScaleSet([16, 32]), 1, Rng(0))
        probe = gen_shapes(3, 32, 4, 32).images
        with pytest.raises(ValueError):
            layerwise_cka(model, probe, 16, 32)

    def test_csv_schema(self):
        model = MsunModel(self.SPEC, ScaleSet([16, 32]), 1, Rng(0))
        probe = gen_shapes(4, 64, 4, 32).images
        text = layerwise_cka(model, probe, 16, 32, taps=["pooled"]).to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "layer,scale_a,scale_b,n,cka"
        layer, a, b, n, v = lines[1].split(",")
        assert layer == "pooled" and (int(a), int(b), int(n)) == (16, 32, 64)
        assert 0.0 <= float(v) <= 1.0 + 1e-9


class TestFlops:
    def test_single_1x1_conv_formula(self):
        # 2 * n * m * k^2 with 1x1 output: 2 * 1 * 1 * 1 * 1 = 2
        spec = BackboneSpec((1,), (1,), "plain", 2, 16)
        model = build_vanilla(spec, Rng(0))
        row = count_flops(model, 16).rows[0]
        assert row.flops == 2 * 3 * 1 * 25 * 8 * 8   # the stem: n=3,m=1,k=5,out 8x8

    def test_formula_arithmetic(self):
        # conv n=3, m=8, k=3, output 4x4 -> 2*3*8*9*16 = 6912
        assert 2 * 3 * 8 * 3 ** 2 * 4 * 4 == 6912

    def test_hand_audited_fixture(self):
        spec = BackboneSpec((8, 4), (1, 1), "plain", 5, 32)
        model = build_vanilla(spec, Rng(0))
        report = count_flops(model, 32)
        by_name = {r.layer: r.flops for r in report.rows}
        # stem: 2*3*8*25*(16*16); block1: 2*8*8*9*(8*8); block2: 2*8*4*9*(4*4); head 2*4*5
        assert by_name["unified.stem.conv"] == 2 * 3 * 8 * 25 * 256
        assert by_name["unified.block1.conv"] == 2 * 8 * 8 * 9 * 64
        assert by_name["unified.block2.conv"] == 2 * 8 * 4 * 9 * 16
        assert by_name["head"] == 2 * 4 * 5
        assert report.total_flops == sum(by_name.values())

    def test_msun_smallest_scale_costs_less(self):
        spec = BackboneSpec((8, 16), (1, 1), "plain", 6, 64)
        model = MsunModel(spec, ScaleSet([16, 32, 64]), 1, Rng(0))
        small = count_flops(model, 16).total_flops
        large = count_flops(model, 64).total_flops
        assert small < large

    def test_b0_matches_vanilla_cost(self):
        spec = BackboneSpec((8, 16), (1, 1), "plain", 6, 64)
        vanilla = build_vanilla(spec, Rng(0))
        msun = MsunModel(spec, ScaleSet([16, 32, 64]), 0, Rng(0))
        assert count_flops(msun, 64).total_flops == count_flops(vanilla, 64).total_flops

    def test_csv_totals_row(self):
        spec = BackboneSpec((4,), (1,), "plain", 2, 16)
        report = count_flops(build_vanilla(spec, Rng(0)), 16)
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "layer,n_in,m_out,k,h_out,w_out,flops"
        assert lines[-2].startswith("total,")
        assert int(lines[-2].split(",")[-1]) == report.total_flops
        assert lines[-1] == f"params,,,,,,{report.params}"

    def test_residual_blocks_count_all_three_convs(self):
        spec = BackboneSpec((8, 16), (1, 1), "residual", 4, 32)
        report = count_flops(build_vanilla(spec, Rng(0)), 32)
        by_name = {r.layer: r.flops for r in report.rows}
        # block2 downsamples 8 -> 4 with a projected skip
        assert by_name["unified.block2.conv1"] == 2 * 8 * 16 * 9 * 16
        assert by_name["unified.block2.conv2"] == 2 * 16 * 16 * 9 * 16
        assert by_name["unified.block2.proj"] == 2 * 8 * 16 * 1 * 16
        # block1 keeps shape and channel count: identity skip, no proj row
        assert "unified.block1.proj" not in by_name

    @pytest.mark.parametrize("kind", ["plain", "residual"])
    def test_conv_rows_follow_checkpoint_layers(self, kind):
        # rows come from each block's convs(), checkpoint names from its children()
        spec = BackboneSpec((8, 16), (2, 1), kind, 4, 32)
        scales = ScaleSet([8, 16, 32])
        for b in range(spec.total_blocks):
            model = MsunModel(spec, scales, b, Rng(0))
            for branch, size in enumerate(scales):
                rows = [(r.layer, r.n_in, r.m_out, r.k)
                        for r in count_flops(model, size).rows if r.layer != "head"]
                routed = (f"subnet{branch + 1}.", "unified.")
                convs = [(name, c.in_channels, c.out_channels, c.kernel_size)
                         for name, c in model.named_layers()
                         if isinstance(c, Conv2d) and name.startswith(routed)]
                assert rows == convs, (b, size)

    @pytest.mark.parametrize("kind", ["plain", "residual"])
    def test_conv_rows_match_conv2d_outputs(self, kind, monkeypatch):
        # each row's output side is the one the engine's conv2d call produces
        outputs = []

        def recording(conv2d):
            def record(*args, **kwargs):
                out = conv2d(*args, **kwargs)
                outputs.append(out.shape[2:])
                return out
            return record

        monkeypatch.setattr(model_module, "conv2d", recording(model_module.conv2d))
        monkeypatch.setattr(layers, "conv2d", recording(layers.conv2d))
        spec = BackboneSpec((8, 16), (2, 1), kind, 4, 32)
        scales = ScaleSet([8, 16, 32])
        for b in range(spec.total_blocks):
            model = MsunModel(spec, scales, b, Rng(0)).eval()
            for branch, size in enumerate(scales):
                outputs.clear()
                with tensor.no_grad():
                    model.forward_branch(branch, Tensor(np.zeros((1, 3, size, size),
                                                                 np.float32)))
                rows = [(r.h_out, r.w_out) for r in count_flops(model, size).rows
                        if r.layer != "head"]
                assert rows == outputs, (b, size)


class TestParams:
    def test_linear_3_to_2(self):
        from msun.layers import Linear
        layer = Linear(3, 2, Rng(0))
        assert sum(p.data.size for _, p in layer.params()) == 8

    def test_b0_equals_vanilla(self):
        spec = BackboneSpec((8, 16), (1, 1), "plain", 6, 64)
        assert count_params(MsunModel(spec, ScaleSet([16, 32, 64]), 0, Rng(0))) \
            == count_params(build_vanilla(spec, Rng(0)))

    def test_b1_s3_hand_summed(self):
        spec = BackboneSpec((8, 16), (1, 1), "plain", 6, 64)
        model = MsunModel(spec, ScaleSet([16, 32, 64]), 1, Rng(0))
        stem_ds1 = 8 * 3 * 9 + 8 + 16      # conv3x3 + bias + bn affine
        stem_ds2 = 8 * 3 * 9 + 8 + 16
        stem_ds4 = 8 * 3 * 25 + 8 + 16
        block1 = 8 * 8 * 9 + 8 + 16
        block2 = 16 * 8 * 9 + 16 + 32
        head = 16 * 6 + 6
        assert count_params(model) == stem_ds1 + stem_ds2 + stem_ds4 + block1 + block2 + head


class TestAverageAccuracy:
    def test_constant(self):
        assert average_accuracy([0.7, 0.7, 0.7]) == pytest.approx(0.7)

    def test_two_values(self):
        assert average_accuracy([0.2, 0.8]) == pytest.approx(0.5)

    def test_thirteen_entry_sweep_matches_running_sum(self):
        rng = Rng(8)
        values = [float(rng.uniform()) for _ in range(13)]
        total = 0.0
        for v in values:
            total += v
        assert average_accuracy(values) == pytest.approx(total / 13, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_accuracy([])


class TestEvalReport:
    def test_mean_identity_and_csv(self):
        rows = [EvalRow(16, 0.5, 100), EvalRow(32, 0.7, 200)]
        report = EvalReport(rows)
        assert report.average == pytest.approx(0.6, abs=1e-9)
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "size,accuracy,flops"
        assert lines[-1].startswith("average,0.600000,150.0")


class TestGradCam:
    SPEC = BackboneSpec((8, 16), (1, 1), "plain", 4, 32)

    def _model_and_image(self):
        model = MsunModel(self.SPEC, ScaleSet([16, 32]), 1, Rng(0))
        ds = gen_shapes(0, 4, 4, 32)
        return model, ds.images[:1]

    def test_nonnegative_map(self):
        model, image = self._model_and_image()
        cam = grad_cam(model, image, 2)
        assert np.all(cam.values >= 0.0)

    def test_formula_reconstruction(self):
        model, image = self._model_and_image()
        cam = grad_cam(model, image, 1)
        rebuilt = grad_cam_formula(cam.channel_weights, cam.activations)
        assert np.max(np.abs(rebuilt - cam.values)) < 1e-6

    def test_restores_the_callers_mode(self):
        model, image = self._model_and_image()
        model.train()
        cam = grad_cam(model, image, 2)
        assert model.training
        model.eval()
        assert np.array_equal(cam.values, grad_cam(model, image, 2).values)
        assert not model.training

    def test_all_negative_weights_zero_map(self):
        alphas = -np.ones(3)
        acts = np.abs(Rng(1).normal((3, 4, 4)))
        assert np.all(grad_cam_formula(alphas, acts) == 0.0)

    def test_single_channel_unit_weight(self):
        acts = Rng(2).normal((1, 5, 5))
        assert np.allclose(grad_cam_formula(np.ones(1), acts), np.maximum(acts[0], 0.0))

    def test_class_out_of_range(self):
        model, image = self._model_and_image()
        with pytest.raises(ValueError):
            grad_cam(model, image, 9)

    def test_pgm_roundtrip(self):
        model, image = self._model_and_image()
        cam = grad_cam(model, image, 0)
        text = cam.to_pgm()
        grid = parse_pgm(text)
        assert grid.shape == cam.values.shape
        assert grid.max() <= 255 and grid.min() >= 0
        if cam.values.max() > 0:
            assert grid.max() == 255

    def test_all_zero_map_pgm(self):
        from msun.analysis import GradCamMap
        cam = GradCamMap(np.zeros((3, 3)), 0, np.zeros(1), np.zeros((1, 3, 3)))
        assert np.all(parse_pgm(cam.to_pgm()) == 0)

    @pytest.mark.parametrize("text", ["", "P5 1 1 255 0", "P2\n", "P2\n3\n",
                                      "P2 2 1 255 0", "P2 1 1 9 0"])
    def test_pgm_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_pgm(text)

    def test_single_branch_model_and_offsize_input(self):
        model = build_vanilla(self.SPEC, Rng(4))
        image = gen_shapes(2, 2, 4, 20).images[:1]   # routed and upsampled to 32
        cam = grad_cam(model, image, 3, native_size=20)
        assert cam.values.shape == (4, 4)
        assert np.all(cam.values >= 0.0)

    @pytest.mark.parametrize("size", [24, 17], ids=["native", "offsize"])
    @pytest.mark.parametrize("method", ["msun", "vanilla"])
    @pytest.mark.parametrize("kind", ["plain", "residual"])
    def test_matches_taped_definition(self, kind, method, size):
        # 3x3 features: dividing by h*w = 9 rounds, so the weights' bits show
        # whether the division runs in float32 as the pooling's backward does
        spec = BackboneSpec((8, 16), (1, 1), kind, 4, 24)
        model = MsunModel(spec, ScaleSet([12, 24]), 1, Rng(7)) if method == "msun" \
            else build_vanilla(spec, Rng(7))
        oracles.perturbed_batch_norms(model, Rng(8))
        image = gen_shapes(3, 2, 4, size).images[:1]
        for cls in range(4):
            cam = grad_cam(model, image, cls, native_size=size)
            alphas, want = oracles.grad_cam_taped(model, image, cls, size)
            assert np.array_equal(cam.channel_weights, alphas), cls
            assert np.abs(cam.values - want).max() <= 1e-4 * want.max(), cls

    def test_writes_no_gradient_and_records_no_tape(self, monkeypatch):
        model, image = self._model_and_image()
        for p in model.parameters():
            p.grad = np.full_like(p.data, 7.0)

        def no_tape(*args):
            raise AssertionError("recorded a tape node")

        monkeypatch.setattr(tensor, "TapeNode", no_tape)
        grad_cam(model, image, 1)
        assert all(np.all(p.grad == 7.0) for p in model.parameters())


class TestPca:
    def test_axis_aligned_data_recovered(self):
        rng = Rng(3)
        coords = rng.normal((12,)) * 3.0
        x = np.zeros((12, 4))
        x[:, 0] = coords
        with pytest.warns(UserWarning):   # rank-1 data: second component is zero
            out = pca_project(x)
        centered = coords - coords.mean()
        assert np.allclose(np.abs(out[:, 0]), np.abs(centered), atol=1e-9)
        assert np.allclose(out[:, 1], 0.0, atol=1e-9)

    def test_isotropic_scaling_scales_coordinates(self):
        rng = Rng(4)
        x = rng.normal((10, 4))
        a = pca_project(x)
        b = pca_project(2.5 * x)
        assert np.allclose(b, 2.5 * a, atol=1e-6)

    def test_matches_dense_eigensolver(self):
        rng = Rng(5)
        x = rng.normal((10, 4))
        got = pca_project(x)
        xc = x - x.mean(axis=0)
        w, v = np.linalg.eigh(xc.T @ xc / 9)
        idx = np.argsort(w)[::-1][:2]
        want = xc @ v[:, idx]
        for comp in range(2):
            direct = np.max(np.abs(got[:, comp] - want[:, comp]))
            flipped = np.max(np.abs(got[:, comp] + want[:, comp]))
            assert min(direct, flipped) < 1e-6

    def test_rank_deficient_warns_and_zero_fills(self):
        x = np.ones((6, 3))
        x[:, 0] = np.arange(6)
        with pytest.warns(UserWarning):
            out = pca_project(x)
        assert np.allclose(out[:, 1], 0.0)

    def test_top_direction_orthogonal_to_ones(self):
        c = np.arange(10.0)
        x = np.stack([c, -c, np.zeros(10)], axis=1)
        with pytest.warns(UserWarning, match="component 1 zero-filled") as caught:
            out = pca_project(x)
        assert len(caught) == 1
        assert np.allclose(out[:, 0], np.sqrt(2.0) * (c - c.mean()), atol=1e-12)
        assert np.array_equal(out[:, 1], np.zeros(10))

    def test_sample_count_guard(self):
        with pytest.raises(ValueError):
            pca_project(np.ones((2, 3)))

    def test_deterministic(self):
        x = Rng(6).normal((9, 5))
        assert np.array_equal(pca_project(x), pca_project(x))
