"""Binary snapshot format and model round-trips."""

from collections import OrderedDict

import numpy as np
import pytest

from msun import BackboneSpec, MsunModel, Rng, ScaleSet, build_vanilla
from msun.checkpoint import (SnapshotError, load_model, load_snapshot, model_state,
                             save_model, save_snapshot)
from msun.cli import main


SPEC = BackboneSpec((8, 16), (1, 1), "plain", 4, 32)


class TestSnapshotFormat:
    def test_header_layout(self, tmp_path):
        path = str(tmp_path / "t.msun")
        tensors = OrderedDict([("a", np.arange(6, dtype=np.float32).reshape(2, 3))])
        save_snapshot(path, tensors, [8, 32])
        raw = open(path, "rb").read()
        assert raw[:4] == b"MSUN"
        assert int.from_bytes(raw[4:8], "little") == 1      # version
        assert int.from_bytes(raw[8:12], "little") == 2     # scale count
        assert int.from_bytes(raw[12:16], "little") == 8
        assert int.from_bytes(raw[16:20], "little") == 32
        assert int.from_bytes(raw[20:24], "little") == 1    # tensor count
        assert int.from_bytes(raw[24:28], "little") == 1    # name length
        assert raw[28:29] == b"a"

    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "t.msun")
        rng = Rng(0)
        tensors = OrderedDict([
            ("x.weight", rng.normal((3, 2, 2, 2)).astype(np.float32)),
            ("y.bias", rng.normal((5,)).astype(np.float32)),
        ])
        save_snapshot(path, tensors, [16])
        back, scales = load_snapshot(path)
        assert scales == [16]
        assert list(back) == list(tensors)
        for name in tensors:
            assert np.array_equal(back[name], tensors[name])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.msun"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(SnapshotError):
            load_snapshot(str(path))

    def test_truncated(self, tmp_path):
        path = str(tmp_path / "t.msun")
        save_snapshot(path, OrderedDict([("a", np.ones(4, np.float32))]), [8])
        data = open(path, "rb").read()
        trunc = tmp_path / "trunc.msun"
        trunc.write_bytes(data[:-3])
        with pytest.raises(SnapshotError):
            load_snapshot(str(trunc))


class TestModelRoundtrip:
    def test_msun_model_roundtrip(self, tmp_path):
        path = str(tmp_path / "m.msun")
        model = MsunModel(SPEC, ScaleSet([8, 16, 32]), 1, Rng(3))
        # leave a fingerprint in params and bn buffers
        model.head.bias.data[:] = np.arange(4, dtype=np.float32)
        model.unified.blocks[0][1].bn.running_means[0][:] = 0.5
        save_model(path, model)
        back = load_model(path)
        assert list(back.scales) == [8, 16, 32]
        assert back.subnet_blocks == 1
        for (na, pa), (nb, pb) in zip(model.named_params(), back.named_params()):
            assert na == nb
            assert np.array_equal(pa.data, pb.data)
        for (na, ba), (nb, bb) in zip(model.named_buffers(), back.named_buffers()):
            assert na == nb
            assert np.array_equal(ba, bb)

    def test_forward_identical_after_roundtrip(self, tmp_path):
        path = str(tmp_path / "m.msun")
        model = build_vanilla(SPEC, Rng(1)).eval()
        x = np.clip(Rng(2).uniform((2, 3, 32, 32)), 0, 1).astype(np.float32)
        save_model(path, model)
        back = load_model(path)
        assert np.array_equal(model.forward_infer(x, 32).data,
                              back.forward_infer(x, 32).data)

    def test_scale_table_in_header(self, tmp_path):
        path = str(tmp_path / "m.msun")
        save_model(path, MsunModel(SPEC, ScaleSet([16, 32]), 1, Rng(0)))
        _, scales = load_snapshot(path)
        assert scales == [16, 32]

    def test_per_branch_stat_sets_serialized(self, tmp_path):
        path = str(tmp_path / "m.msun")
        model = MsunModel(SPEC, ScaleSet([8, 16, 32]), 1, Rng(0))
        names = set(model_state(model))
        assert "unified.block1.bn.running_mean" in names
        assert "unified.block1.bn.running_mean.set0" in names
        assert "unified.block1.bn.running_mean.set1" in names
        save_model(path, model)
        load_model(path)

    def test_missing_tensor_rejected(self, tmp_path):
        path = str(tmp_path / "m.msun")
        model = build_vanilla(SPEC, Rng(0))
        state = model_state(model)
        state.pop("head.bias")
        save_snapshot(path, state, list(model.scales))
        with pytest.raises(SnapshotError) as exc:
            load_model(path)
        assert "head.bias" in str(exc.value)

    def test_zero_classes_rejected_before_building(self, tmp_path):
        path = str(tmp_path / "m.msun")
        model = MsunModel(SPEC, ScaleSet([16, 32]), 1, Rng(0))
        state = model_state(model)
        state["meta.num_classes"] = np.asarray([0.0], np.float32)
        save_snapshot(path, state, list(model.scales))
        with pytest.raises(SnapshotError, match="need at least one class"):
            load_model(path)

    @pytest.mark.parametrize("defect", ["block_kind_7", "nan_num_classes",
                                        "reversed_scales", "huge_width"])
    def test_bad_metadata_is_a_format_error(self, tmp_path, capsys, defect):
        path = str(tmp_path / "m.msun")
        model = MsunModel(SPEC, ScaleSet([16, 32]), 1, Rng(0))
        state, scales = model_state(model), list(model.scales)
        if defect == "block_kind_7":
            state["meta.block_kind"] = np.asarray([7.0], np.float32)
        elif defect == "nan_num_classes":
            state["meta.num_classes"] = np.asarray([np.nan], np.float32)
        elif defect == "huge_width":      # one flipped exponent bit of 8.0
            state["meta.stage_widths"] = np.asarray([2.0 ** 35, 16], np.float32)
        else:
            scales = scales[::-1]
        save_snapshot(path, state, scales)
        with pytest.raises(SnapshotError):
            load_model(path)
        assert main(["flops", "--checkpoint", path, "--size", "32"]) == 4
        assert "file format error" in capsys.readouterr().err
