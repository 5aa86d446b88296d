"""Command-line contract: flags, exit codes, artifact schemas."""

import math
import os
import struct
import time

import numpy as np
import pytest

from msun import BackboneSpec, MsunModel, Rng, ScaleSet
from msun.analysis import parse_pgm
from msun.checkpoint import load_model, load_snapshot, model_state, save_model, save_snapshot
from msun import cli, config, data, experiments, tensor
from msun.cli import main
from msun.data import gen_shapes, load_idx

TINY_CFG = os.path.join(os.path.dirname(__file__), "..", "configs", "tiny.cfg")


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("cli_msun"))
    code = main(["train", "--method", "msun", "--config", TINY_CFG, "--out", out])
    assert code == 0
    return out


def test_analysis_commands_record_no_tape(trained, tmp_path, monkeypatch, capsys):
    def no_tape(*args):
        raise AssertionError("recorded a tape node")

    monkeypatch.setattr(tensor, "TapeNode", no_tape)
    ckpt = os.path.join(trained, "checkpoint.msun")
    for argv in (["eval", "--sizes", "16,32", "--config", TINY_CFG],
                 ["cka", "--scales", "16,32", "--config", TINY_CFG],
                 ["flops", "--size", "32"],
                 ["gradcam", "--class", "1", "--config", TINY_CFG,
                  "--out", str(tmp_path / "cam.pgm")],
                 ["pca", "--config", TINY_CFG]):
        assert main(argv + ["--checkpoint", ckpt]) == 0, argv[0]


class TestHelp:
    @pytest.mark.parametrize("cmd", ["train", "eval", "cka", "flops", "gradcam",
                                     "pca", "gen-data", "ablation"])
    def test_every_subcommand_help_exits_zero(self, cmd, capsys):
        assert main([cmd, "--help"]) == 0
        assert "--" in capsys.readouterr().out

    def test_top_level_help(self):
        assert main(["--help"]) == 0


class TestTrain:
    def test_missing_config_exits_2_naming_path(self, capsys, tmp_path):
        code = main(["train", "--method", "vanilla", "--config", "/no/such/file.cfg",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "/no/such/file.cfg" in capsys.readouterr().err

    def test_msun_single_scale_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "one.cfg"
        cfg.write_text("data.scales = 32\ndata.native = 32\ndata.n_train = 40\n"
                       "data.n_test = 20\ntrain.epochs = 1\ntrain.warmup_epochs = 0\n")
        code = main(["train", "--method", "msun", "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "scale" in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("train.learning_rate = 0.1\n")
        code = main(["train", "--method", "vanilla", "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "train.learning_rate" in capsys.readouterr().err

    def test_zero_epochs_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text("train.epochs = 0\ntrain.warmup_epochs = 0\n")
        code = main(["train", "--method", "vanilla", "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "epochs" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_divergence_exits_3(self, capsys, tmp_path):
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text("""data.n_train = 200
data.n_test = 40
data.classes = 4
data.native = 32
data.scales = 8,16,32
model.widths = 6,12
train.base_lr = 1000
train.epochs = 2
train.warmup_epochs = 0
train.batch_size = 64
""")
        code = main(["train", "--method", "vanilla", "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 3
        assert "non-finite" in capsys.readouterr().err

    def test_non_finite_buffer_exits_3(self, monkeypatch, capsys, tmp_path):
        def poisoned(*args):
            model = MsunModel(*args)
            dict(model.named_buffers())["unified.block1.bn.running_var"][:] = np.inf
            return model

        monkeypatch.setattr(experiments, "MsunModel", poisoned)
        code = main(["train", "--method", "msun", "--config", TINY_CFG,
                     "--out", str(tmp_path / "o")])
        assert code == 3
        assert "unified.block1.bn.running_var" in capsys.readouterr().err
        assert not (tmp_path / "o" / "checkpoint.msun").exists()

    def test_smoke_run_writes_three_artifacts_fast(self, trained):
        # the module fixture ran the bundled tiny config; check its outputs
        t0 = time.perf_counter()
        for name in ("checkpoint.msun", "train_log.csv", "resolved-config.txt"):
            assert os.path.exists(os.path.join(trained, name)), name
        resolved = open(os.path.join(trained, "resolved-config.txt")).read()
        assert "msun.lambda=0.1" in resolved
        assert time.perf_counter() - t0 < 60


def _tiny_lines():
    with open(TINY_CFG) as fh:
        return fh.read().splitlines()


def _tiny_with(tmp_path, values):
    """``tiny.cfg`` with ``values`` replacing (or adding) keys."""
    lines = [line for line in _tiny_lines() if line.split("=")[0].strip() not in values]
    cfg = tmp_path / "hostile.cfg"
    cfg.write_text("\n".join(lines + [f"{k} = {v}" for k, v in values.items()]) + "\n")
    return str(cfg)


def _idx_cfg(tmp_path, prefix, extra=""):
    """A one-epoch config reading both splits from the IDX pair at ``prefix``."""
    cfg = tmp_path / "idx.cfg"
    cfg.write_text("data.kind = idx\n"
                   + "".join(f"data.idx_{s}_{part} = {prefix}-{part}.idx\n"
                             for s in ("train", "test") for part in ("images", "labels"))
                   + "train.epochs = 1\ntrain.warmup_epochs = 0\n" + extra)
    return str(cfg)


def _fuzz_cases():
    """Every key of tiny.cfg, plus the ``train.*`` float keys it leaves at their defaults."""
    keys = [line.split("=")[0].strip() for line in _tiny_lines() if "=" in line.split("#")[0]]
    keys += [key for key, (parser, _) in config.KNOWN_KEYS.items()
             if key.startswith("train.") and parser is float and key not in keys]
    return [(key, value) for key in keys
            for value in ["0", "-1", "nan", "inf", "", "abc"]
            + (["1e6"] if config.KNOWN_KEYS[key][0] is float else [])]


class TestHostileConfigs:
    """One hostile value in ``tiny.cfg`` exits 2 with the key's name."""

    @pytest.mark.parametrize("key,value", [
        ("train.batch_size", "0"), ("train.batch_size", "-3"),
        ("train.warmup_epochs", "-1"), ("train.lr_floor_fraction", "-1"),
        ("data.noise", "-1"),
        ("train.base_lr", "nan"), ("data.noise", "nan"), ("msun.lambda", "inf"),
        ("data.n_train", "0"), ("data.n_test", "0"),
        ("train.base_lr", "-1"), ("train.base_lr", "0"),
        ("train.weight_decay", "1e6"), ("train.base_lr", "1e6"),
        ("train.lr_floor_fraction", "1e6"),
    ])
    def test_exits_2_naming_the_key(self, key, value, capsys, tmp_path):
        cfg = _tiny_with(tmp_path, {key: value})
        code = main(["train", "--method", "msun", "--config", cfg,
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert key in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    @pytest.mark.parametrize("key,value", _fuzz_cases())
    def test_fuzzed_key_keeps_exit_contract(self, key, value, tmp_path):
        # every key of tiny.cfg, one epoch unless the epoch keys are the ones fuzzed;
        # no size is large enough to really allocate memory
        values = {"train.epochs": "1", "train.warmup_epochs": "0", key: value}
        code = main(["train", "--method", "vanilla", "--config", _tiny_with(tmp_path, values),
                     "--out", str(tmp_path / "o")])
        assert code in (0, 2, 4)

    def test_memory_error_exits_4(self, monkeypatch, capsys):
        def exhausted(args):
            raise MemoryError("cannot allocate")

        monkeypatch.setattr(cli, "cmd_flops", exhausted)
        assert main(["flops", "--checkpoint", "any.msun", "--size", "16"]) == 4
        assert "out of memory" in capsys.readouterr().err


class TestEval:
    def test_unknown_checkpoint_exits_2(self, capsys):
        assert main(["eval", "--checkpoint", "/missing.msun", "--sizes", "16"]) == 2

    @pytest.mark.parametrize("name, defect", [("head.weight", "nan"),
                                              ("unified.block1.bn.running_var", "negated")])
    def test_invalid_value_exits_4_naming_the_tensor(self, trained, name, defect, tmp_path,
                                                      capsys):
        tensors, scales = load_snapshot(os.path.join(trained, "checkpoint.msun"))
        if defect == "nan":
            tensors[name][...] = np.nan
        else:
            tensors[name] *= -1
        path = str(tmp_path / "bad.msun")
        save_snapshot(path, tensors, scales)
        capsys.readouterr()
        code = main(["eval", "--checkpoint", path, "--sizes", "16,32", "--config", TINY_CFG])
        out, err = capsys.readouterr()
        assert code == 4 and out == ""
        assert name in err and "file format error" in err

    def test_repeated_tensor_exits_4(self, trained, tmp_path, capsys):
        # a second, all-zero head.weight appended after the file's tensors
        tensors, scales = load_snapshot(os.path.join(trained, "checkpoint.msun"))
        path = tmp_path / "twice.msun"
        save_snapshot(str(path), tensors, scales)
        raw = bytearray(path.read_bytes())
        count_at = 12 + 4 * len(scales)
        raw[count_at:count_at + 4] = (len(tensors) + 1).to_bytes(4, "little")
        name, shape = b"head.weight", tensors["head.weight"].shape
        raw += struct.pack(f"<I{len(name)}sI{len(shape)}I", len(name), name, len(shape), *shape)
        raw += np.zeros(shape, "<f4").tobytes()
        path.write_bytes(bytes(raw))
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(path), "--sizes", "16,32",
                     "--config", TINY_CFG])
        out, err = capsys.readouterr()
        assert code == 4 and out == ""
        assert "'head.weight' appears twice" in err

    def test_valid_checkpoint_loads_bit_for_bit(self, trained):
        path = os.path.join(trained, "checkpoint.msun")
        tensors, _ = load_snapshot(path)
        loaded = model_state(load_model(path))
        assert list(loaded) == list(tensors)
        for name, arr in tensors.items():
            assert loaded[name].tobytes() == arr.tobytes(), name

    def test_single_size_average_equals_entry(self, trained, capsys):
        code = main(["eval", "--checkpoint", os.path.join(trained, "checkpoint.msun"),
                     "--sizes", "32", "--config", TINY_CFG])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "size,accuracy,flops"
        size_row = lines[1].split(",")
        avg_row = lines[2].split(",")
        assert avg_row[0] == "average"
        assert float(avg_row[1]) == pytest.approx(float(size_row[1]), abs=1e-9)

    def test_vanilla_checkpoint_roundtrips_through_eval(self, tmp_path, capsys):
        out = str(tmp_path / "van")
        assert main(["train", "--method", "vanilla", "--config", TINY_CFG,
                     "--out", out]) == 0
        capsys.readouterr()
        code = main(["eval", "--checkpoint", os.path.join(out, "checkpoint.msun"),
                     "--sizes", "8,32", "--config", TINY_CFG])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        flops = [int(r.split(",")[2]) for r in lines[1:-1]]
        assert flops[0] == flops[1]    # fixed-size model: every input upsampled

    def test_idx_config_needs_only_the_test_split(self, trained, tmp_path, capsys):
        prefix = str(tmp_path / "test")
        assert main(["gen-data", "--out", prefix, "--seed", "3", "--samples", "20",
                     "--classes", "4", "--size", "32"]) == 0
        cfg = tmp_path / "idx.cfg"
        cfg.write_text(f"data.kind = idx\ndata.idx_train_images =\n"
                       f"data.idx_train_labels =\ndata.idx_test_images = {prefix}-images.idx\n"
                       f"data.idx_test_labels = {prefix}-labels.idx\n")
        capsys.readouterr()
        code = main(["eval", "--checkpoint", os.path.join(trained, "checkpoint.msun"),
                     "--sizes", "16,32", "--config", str(cfg)])
        assert code == 0
        assert capsys.readouterr().out.startswith("size,accuracy,flops\n")

    def test_csv_schema_parses(self, trained, tmp_path):
        out = tmp_path / "eval.csv"
        code = main(["eval", "--checkpoint", os.path.join(trained, "checkpoint.msun"),
                     "--sizes", "8,16,32", "--config", TINY_CFG, "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "size,accuracy,flops"
        body = [ln.split(",") for ln in lines[1:-1]]
        assert [int(r[0]) for r in body] == [8, 16, 32]
        for r in body:
            assert 0.0 <= float(r[1]) <= 1.0
            int(r[2])


class TestCka:
    def test_equal_scales_all_ones(self, trained, capsys):
        code = main(["cka", "--checkpoint", os.path.join(trained, "checkpoint.msun"),
                     "--scales", "16,16", "--config", TINY_CFG])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "layer,scale_a,scale_b,n,cka"
        for row in lines[1:]:
            assert float(row.split(",")[4]) == pytest.approx(1.0, abs=1e-9)

    def test_unknown_tap_exits_2(self, trained):
        code = main(["cka", "--checkpoint", os.path.join(trained, "checkpoint.msun"),
                     "--scales", "16,32", "--taps", "bogus", "--config", TINY_CFG])
        assert code == 2


    @pytest.mark.parametrize("value", ["-1", "0"])
    def test_bad_probe_samples_exits_2_naming_the_key(self, trained, value, capsys,
                                                      tmp_path):
        code = main(["cka", "--checkpoint", os.path.join(trained, "checkpoint.msun"),
                     "--scales", "8,32",
                     "--config", _tiny_with(tmp_path, {"cka.probe_samples": value})])
        assert code == 2
        assert "cka.probe_samples" in capsys.readouterr().err

    @pytest.mark.parametrize("values,key", [
        ({"cka.probe_samples": "10"}, "cka.probe_samples"),
        ({"cka.probe_samples": "256", "data.n_test": "10"}, "data.n_test"),
    ])
    def test_short_probe_exits_2_before_any_work(self, trained, values, key, tmp_path,
                                                 monkeypatch, capsys):
        def untouched(*args, **kwargs):
            raise AssertionError("rendered a dataset or loaded the checkpoint")

        monkeypatch.setattr(cli, "gen_shapes", untouched)
        monkeypatch.setattr(cli.ckpt, "load_model", untouched)
        code = main(["cka", "--checkpoint", os.path.join(trained, "checkpoint.msun"),
                     "--scales", "8,32", "--config", _tiny_with(tmp_path, values)])
        assert code == 2
        assert f"{key} leaves a CKA probe of 10 samples" in capsys.readouterr().err


def _whole_split_then_slice(seed, n_samples, *args, start=0, stop=None):
    """The render the analysis commands did before ranges: the whole split, sliced."""
    return gen_shapes(seed, n_samples, *args).subset(slice(start, stop))


class TestRangeRender:
    """cka and gradcam render only what they read, with unchanged outputs."""

    @staticmethod
    def _both_paths(argv, tmp_path, monkeypatch):
        """Run ``argv`` on the range render and on the whole-split render.

        Asserts the two outputs are byte-identical and returns the
        (n_samples, start, stop) of each render the range path asked for.
        """
        requested = []

        def spy(seed, n_samples, *args, start=0, stop=None):
            requested.append((n_samples, start, stop))
            return gen_shapes(seed, n_samples, *args, start=start, stop=stop)

        outputs = []
        for render in (spy, _whole_split_then_slice):
            monkeypatch.setattr(cli, "gen_shapes", render)
            out = tmp_path / f"{render.__name__}.out"
            assert main(argv + ["--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        return requested

    def test_cka_renders_the_probe_prefix(self, trained, tmp_path, monkeypatch):
        # an 80-image test split, of which the 64-sample probe reads the first 64
        cfg = _tiny_with(tmp_path, {"data.n_test": "80"})
        requested = self._both_paths(
            ["cka", "--checkpoint", os.path.join(trained, "checkpoint.msun"),
             "--scales", "8,32", "--config", cfg], tmp_path, monkeypatch)
        assert requested == [(80, 0, 64)]

    def test_cka_probe_larger_than_split(self, trained, tmp_path, monkeypatch):
        cfg = _tiny_with(tmp_path, {"cka.probe_samples": "1000"})
        requested = self._both_paths(
            ["cka", "--checkpoint", os.path.join(trained, "checkpoint.msun"),
             "--scales", "16,32", "--config", cfg], tmp_path, monkeypatch)
        assert requested == [(64, 0, 64)]

    @pytest.mark.parametrize("index", [0, 37, 63])
    def test_gradcam_renders_one_sample(self, trained, index, tmp_path, monkeypatch):
        requested = self._both_paths(
            ["gradcam", "--checkpoint", os.path.join(trained, "checkpoint.msun"),
             "--class", "2", "--index", str(index), "--config", TINY_CFG],
            tmp_path, monkeypatch)
        assert requested == [(64, index, index + 1)]


class TestFlops:
    def test_golden_fixture(self, trained, capsys):
        code = main(["flops", "--checkpoint", os.path.join(trained, "checkpoint.msun"),
                     "--size", "32"])
        assert code == 0
        got = capsys.readouterr().out
        golden = open(os.path.join(os.path.dirname(__file__), "fixtures",
                                   "flops_tiny_32.csv")).read()
        assert got == golden


class TestGradcam:
    def test_writes_valid_pgm(self, trained, tmp_path):
        out = tmp_path / "cam.pgm"
        code = main(["gradcam", "--checkpoint", os.path.join(trained, "checkpoint.msun"),
                     "--class", "1", "--size", "32", "--config", TINY_CFG,
                     "--out", str(out)])
        assert code == 0
        grid = parse_pgm(out.read_text())
        assert grid.shape == (4, 4)          # last conv block output extent

    def test_class_out_of_range_exits_2(self, trained):
        code = main(["gradcam", "--checkpoint", os.path.join(trained, "checkpoint.msun"),
                     "--class", "99", "--config", TINY_CFG])
        assert code == 2

    @pytest.mark.parametrize("index", [-1, 64])
    def test_index_outside_split_exits_2_before_rendering(self, trained, index,
                                                          monkeypatch, capsys):
        def no_render(*args, **kwargs):
            raise AssertionError("rendered a dataset")

        monkeypatch.setattr(cli, "gen_shapes", no_render)
        code = main(["gradcam", "--checkpoint", os.path.join(trained, "checkpoint.msun"),
                     "--class", "1", "--index", str(index), "--config", TINY_CFG])
        assert code == 2
        assert "--index" in capsys.readouterr().err

    def test_idx_split_is_sliced(self, trained, tmp_path, capsys):
        prefix = str(tmp_path / "test")
        assert main(["gen-data", "--out", prefix, "--seed", "3", "--samples", "20",
                     "--classes", "4", "--size", "32"]) == 0
        cfg = tmp_path / "idx.cfg"
        cfg.write_text(f"data.kind = idx\ndata.idx_test_images = {prefix}-images.idx\n"
                       f"data.idx_test_labels = {prefix}-labels.idx\n")
        argv = ["gradcam", "--checkpoint", os.path.join(trained, "checkpoint.msun"),
                "--class", "1", "--config", str(cfg), "--index"]
        assert main(argv + ["19"]) == 0
        capsys.readouterr()
        assert main(argv + ["20"]) == 2
        assert "--index 20" in capsys.readouterr().err


class TestPca:
    def test_csv_schema(self, trained, capsys):
        code = main(["pca", "--checkpoint", os.path.join(trained, "checkpoint.msun"),
                     "--config", TINY_CFG])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "sample_id,label,pc1,pc2"
        first = lines[1].split(",")
        assert first[0] == "0"
        float(first[2]), float(first[3])


class TestSizeFlags:
    """Image sizes are positive integers; a bad one exits 2 naming its flag."""

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("argv", [
        ["flops"],
        ["gradcam", "--class", "1", "--config", TINY_CFG],
        ["pca", "--config", TINY_CFG],
    ])
    def test_nonpositive_size_exits_2(self, trained, argv, value, capsys):
        code = main(argv + ["--checkpoint", os.path.join(trained, "checkpoint.msun"),
                            "--size", value])
        assert code == 2
        assert "--size" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0,32", "16,-1", "16,x"])
    def test_nonpositive_scale_exits_2(self, trained, value, capsys):
        code = main(["cka", "--checkpoint", os.path.join(trained, "checkpoint.msun"),
                     "--scales", value, "--config", TINY_CFG])
        assert code == 2
        assert "--scales" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["16", "16,32,64"])
    def test_scale_count_exits_2(self, trained, value, capsys):
        code = main(["cka", "--checkpoint", os.path.join(trained, "checkpoint.msun"),
                     "--scales", value, "--config", TINY_CFG])
        assert code == 2
        err = capsys.readouterr().err
        assert "--scales" in err and "two sizes" in err

    @pytest.mark.parametrize("value", ["16,abc", "0", "16,-1"])
    def test_bad_eval_size_exits_2(self, trained, value, capsys):
        code = main(["eval", "--checkpoint", os.path.join(trained, "checkpoint.msun"),
                     "--sizes", value, "--config", TINY_CFG])
        assert code == 2
        assert "argument --sizes" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,b_value,s_value", [
        ("--B", "x", "1"), ("--B", "0,1.5", "1"), ("--S", "1", "2,y"),
    ])
    def test_non_integer_ablation_list_exits_2_before_rendering(
            self, flag, b_value, s_value, monkeypatch, capsys):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return gen_shapes(*args, **kwargs)

        monkeypatch.setattr(cli, "gen_shapes", counted)
        code = main(["ablation", "--B", b_value, "--S", s_value, "--config", TINY_CFG])
        assert code == 2
        assert f"argument {flag}" in capsys.readouterr().err
        assert calls == []


def _no_work(monkeypatch):
    """Make rendering a split or training a model fail the test."""
    def untouched(*args, **kwargs):
        raise AssertionError("rendered a dataset or trained a model")

    monkeypatch.setattr(cli, "gen_shapes", untouched)
    monkeypatch.setattr(experiments, "_run_training", untouched)


def _no_draws(monkeypatch):
    """Make the renderer's first random draw fail the test."""
    def untouched(*args, **kwargs):
        raise AssertionError("drew a dataset")

    monkeypatch.setattr(data, "Rng", untouched)


# the renderer's limits: key or flag, value, and the error it names
RENDER_CASES = [("data.native", "--size", "8", "native size must be >= 16, got 8"),
                ("data.classes", "--classes", "9", "at most 8 classes, got 9")]


class TestChecksBeforeWork:
    """Bad sizes and specs exit 2 naming their flag or key, before any render."""

    @pytest.mark.parametrize("value", ["32,16", "4", "4,16"])
    def test_eval_sizes_flag(self, trained, value, monkeypatch, capsys):
        _no_work(monkeypatch)
        code = main(["eval", "--checkpoint", os.path.join(trained, "checkpoint.msun"),
                     "--sizes", value, "--config", TINY_CFG])
        assert code == 2
        assert "argument --sizes" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["4,16", "32,16", ""])
    def test_eval_sizes_key(self, value, tmp_path, monkeypatch, capsys):
        _no_work(monkeypatch)
        code = main(["ablation", "--B", "0,1", "--S", "1,3",
                     "--config", _tiny_with(tmp_path, {"eval.sizes": value})])
        assert code == 2
        assert "eval.sizes" in capsys.readouterr().err

    # key, value, and the value as the error quotes it
    SPEC_CASES = [("train.epochs", "0", "epochs"), ("model.kind", "dense", "dense"),
                  ("train.warmup_epochs", "3", "warmup_epochs"),
                  ("model.widths", "6,0", "(6, 0)"), ("model.blocks", "1", "(1,)"),
                  ("data.native", "2", "canonical input 2"),
                  ("data.classes", "0", "at least one class")]

    @pytest.mark.parametrize("key,value,named",
                             SPEC_CASES + [("data.scales", "16,8,32", "data.scales")])
    def test_train_spec(self, key, value, named, tmp_path, monkeypatch, capsys):
        _no_work(monkeypatch)
        code = main(["train", "--method", "msun", "--config", _tiny_with(tmp_path, {key: value}),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"bad value for {key}" in err and named in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("values,named", [
        ({"model.subnet_blocks": "9"}, "subnet blocks 9"),
        ({"data.scales": "8,16"}, "largest scale 16"),
        ({"data.scales": "4,32"}, "scale index 0"),
    ])
    def test_train_layout(self, values, named, tmp_path, monkeypatch, capsys):
        # the msun layout is checked before the splits are rendered or the
        # resolved config is written
        _no_work(monkeypatch)
        code = main(["train", "--method", "msun", "--config", _tiny_with(tmp_path, values),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "o" / "resolved-config.txt").exists()

    @pytest.mark.parametrize("key,value", [case[:2] for case in SPEC_CASES])
    def test_ablation_spec(self, key, value, tmp_path, monkeypatch, capsys):
        _no_work(monkeypatch)
        code = main(["ablation", "--B", "0,1", "--S", "1,3",
                     "--config", _tiny_with(tmp_path, {key: value})])
        assert code == 2
        assert f"bad value for {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [["eval", "--sizes", "16,32"], ["cka", "--scales", "8,32"],
                                      ["gradcam", "--class", "1"], ["pca"]])
    @pytest.mark.parametrize("key,value", [("train.momentum", "1"),
                                           ("train.warmup_epochs", "3")])
    def test_analysis_train_key(self, trained, args, key, value, tmp_path, monkeypatch,
                                capsys):
        # every command loads the training settings too, and rejects them by key
        _no_work(monkeypatch)
        code = main(args + ["--checkpoint", os.path.join(trained, "checkpoint.msun"),
                            "--config", _tiny_with(tmp_path, {key: value})])
        assert code == 2
        assert f"bad value for {key}" in capsys.readouterr().err


    @pytest.mark.parametrize("args", [["eval", "--sizes", "16,32"], ["cka", "--scales", "8,32"],
                                      ["gradcam", "--class", "1"], ["pca"]])
    @pytest.mark.parametrize("key,value,named", [(k, v, n) for k, _, v, n in RENDER_CASES])
    def test_analysis_render_key(self, trained, args, key, value, named, tmp_path,
                                 monkeypatch, capsys):
        # the renderer checks its own limits; the error names the config key
        _no_draws(monkeypatch)
        code = main(args + ["--checkpoint", os.path.join(trained, "checkpoint.msun"),
                            "--config", _tiny_with(tmp_path, {key: value})])
        assert code == 2
        err = capsys.readouterr().err
        assert f"bad value for {key}: {named}" in err

    @pytest.mark.parametrize("cmd", [["train", "--method", "msun"], ["ablation", "--B", "0,1",
                                                                      "--S", "1,3"]])
    def test_class_cap_names_the_key(self, cmd, tmp_path, monkeypatch, capsys):
        # IDX data may have more classes, so the cap is the renderer's, not the spec's
        _no_draws(monkeypatch)
        code = main(cmd + ["--config", _tiny_with(tmp_path, {"data.classes": "9"}),
                           "--out", str(tmp_path / "o")])
        assert code == 2
        assert "bad value for data.classes: at most 8 classes, got 9" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_idx_label_past_classes_exits_2_before_writing(self, tmp_path, monkeypatch, capsys):
        prefix = str(tmp_path / "d")
        assert main(["gen-data", "--out", prefix, "--seed", "3", "--samples", "40",
                     "--classes", "4", "--size", "16"]) == 0
        capsys.readouterr()
        _no_work(monkeypatch)
        assert load_idx(prefix + "-images.idx", prefix + "-labels.idx").labels.max() == 3
        cfg = _idx_cfg(tmp_path, prefix, "data.classes = 2\ndata.scales = 8,16\n")
        for argv in (["train", "--method", "vanilla", "--out", str(tmp_path / "o")],
                     ["ablation", "--B", "1", "--S", "2", "--out", str(tmp_path / "a.csv")]):
            assert main(argv + ["--config", cfg]) == 2, argv[0]
            err = capsys.readouterr().err
            assert "data.classes" in err and prefix + "-labels.idx" in err, argv[0]
        assert not (tmp_path / "o").exists() and not (tmp_path / "a.csv").exists()


class TestGenData:
    def test_same_seed_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            code = main(["gen-data", "--out", str(tmp_path / sub), "--seed", "7",
                         "--samples", "40", "--classes", "4", "--size", "32"])
            assert code == 0
        assert (tmp_path / "a-images.idx").read_bytes() == (tmp_path / "b-images.idx").read_bytes()
        assert (tmp_path / "a-labels.idx").read_bytes() == (tmp_path / "b-labels.idx").read_bytes()

    @pytest.mark.parametrize("flag,value", [("--samples", "0"), ("--classes", "0"),
                                            ("--size", "0"), ("--samples", "-5"),
                                            ("--size", "x")])
    def test_non_positive_count_exits_2_naming_the_flag(self, flag, value, tmp_path, capsys):
        code = main(["gen-data", "--out", str(tmp_path / "d"), flag, value])
        assert code == 2
        assert f"argument {flag}" in capsys.readouterr().err
        assert not (tmp_path / "d-images.idx").exists()

    @pytest.mark.parametrize("flag,value,named", [case[1:] for case in RENDER_CASES])
    def test_renderer_limit_exits_2_naming_the_flag(self, flag, value, named, tmp_path,
                                                    monkeypatch, capsys):
        _no_draws(monkeypatch)
        code = main(["gen-data", "--out", str(tmp_path / "d"), flag, value])
        assert code == 2
        assert f"argument {flag}: {named}" in capsys.readouterr().err
        assert not (tmp_path / "d-images.idx").exists()

    def test_nan_noise_exits_2(self, tmp_path, capsys):
        code = main(["gen-data", "--out", str(tmp_path / "d"), "--samples", "5",
                     "--noise", "nan"])
        assert code == 2
        assert "noise" in capsys.readouterr().err
        assert not (tmp_path / "d-images.idx").exists()

    def test_reloads_losslessly(self, tmp_path):
        main(["gen-data", "--out", str(tmp_path / "d"), "--seed", "1",
              "--samples", "20", "--classes", "4", "--size", "32"])
        ds = load_idx(str(tmp_path / "d-images.idx"), str(tmp_path / "d-labels.idx"))
        assert len(ds) == 20
        assert ds.images.shape == (20, 1, 32, 32)

    def test_corrupt_idx_exits_4(self, tmp_path, capsys):
        img = tmp_path / "x-images.idx"
        lab = tmp_path / "x-labels.idx"
        img.write_bytes(b"\x00\x00\x09\x03" + bytes(12))
        lab.write_bytes(b"\x00\x00\x08\x01" + (0).to_bytes(4, "big"))
        cfg = tmp_path / "idx.cfg"
        cfg.write_text(f"""data.kind = idx
data.idx_train_images = {img}
data.idx_train_labels = {lab}
data.idx_test_images = {img}
data.idx_test_labels = {lab}
train.epochs = 1
train.warmup_epochs = 0
""")
        code = main(["train", "--method", "vanilla", "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 4

    def test_zero_image_idx_exits_4_naming_file(self, trained, tmp_path, capsys):
        prefix = str(tmp_path / "e")
        with open(prefix + "-images.idx", "wb") as fh:
            fh.write(b"\x00\x00\x08\x03" + (0).to_bytes(4, "big") + (28).to_bytes(4, "big") * 2)
        with open(prefix + "-labels.idx", "wb") as fh:
            fh.write(b"\x00\x00\x08\x01" + (0).to_bytes(4, "big"))
        cfg = _idx_cfg(tmp_path, prefix)
        for argv in (["train", "--method", "vanilla", "--out", str(tmp_path / "o")],
                     ["eval", "--checkpoint", os.path.join(trained, "checkpoint.msun"),
                      "--sizes", "16"]):
            assert main(argv + ["--config", cfg]) == 4, argv[0]
            err = capsys.readouterr().err
            assert "holds no images" in err and prefix + "-images.idx" in err, argv[0]
        assert not (tmp_path / "o").exists()


class TestHostileFiles:
    """Seeded, bounded fuzzing of the two binary formats through the CLI.

    A truncated file must exit 4. A flipped bit must exit 4, or 0 where the
    flip leaves a well-formed file (a changed pixel or weight); never 2, the
    usage-error code, and never a traceback.
    """

    SPEC = BackboneSpec((4, 8), (1, 1), "plain", 3, 16)
    FLIPS = 300

    @staticmethod
    def _snapshot_fields(raw):
        """Start offset of every header field of a snapshot, payloads excluded."""
        word = lambda at: int.from_bytes(raw[at:at + 4], "little")
        fields = [0, 4, 8]                           # magic, version, scale count
        off = 12 + 4 * word(8)
        fields += list(range(12, off + 1, 4))        # scale table, tensor count
        n_tensors, off = word(off), off + 4
        for _ in range(n_tensors):
            fields += [off, off + 4]                 # name length, name
            off += 4 + word(off)
            rank = word(off)
            dims = [word(off + 4 + 4 * i) for i in range(rank)]
            fields += [off + 4 * i for i in range(rank + 1)]   # rank, dims
            off += 4 + 4 * rank
            fields.append(off)                       # payload
            off += 4 * math.prod(dims)
        assert off == len(raw)
        return fields

    @staticmethod
    def _mutants(raw, fields, flips, seed):
        """Truncations at and one byte into every field, then seeded bit flips."""
        for at in sorted(set(fields)):
            for cut in (at, at + 1):
                if cut < len(raw):
                    yield f"truncated at {cut}", raw[:cut], True
        rng = np.random.default_rng(seed)
        for bit in rng.integers(0, 8 * len(raw), size=flips):
            flipped = bytearray(raw)
            flipped[bit // 8] ^= 1 << (bit % 8)
            yield f"bit {bit} flipped", bytes(flipped), False

    @staticmethod
    def _check(cases, path, argv, capsys):
        bad = []
        for what, data, truncated in cases:
            with open(path, "wb") as fh:
                fh.write(data)
            code = main(argv)
            capsys.readouterr()
            if code not in ((4,) if truncated else (0, 4)):
                bad.append((what, code))
        assert not bad, bad

    def test_checkpoint_exits_0_or_4(self, tmp_path, capsys):
        good = str(tmp_path / "good.msun")
        save_model(good, MsunModel(self.SPEC, ScaleSet([8, 16]), 1, Rng(0)))
        raw = open(good, "rb").read()
        path = str(tmp_path / "mutant.msun")
        self._check(self._mutants(raw, self._snapshot_fields(raw), self.FLIPS, 5), path,
                    ["flops", "--checkpoint", path, "--size", "16"], capsys)

    def test_idx_pair_exits_0_or_4(self, tmp_path, capsys):
        ckpt = str(tmp_path / "m.msun")
        save_model(ckpt, MsunModel(self.SPEC, ScaleSet([8, 16]), 1, Rng(0)))
        prefix = str(tmp_path / "d")
        assert main(["gen-data", "--out", prefix, "--seed", "2", "--samples", "12",
                     "--classes", "3", "--size", "16"]) == 0
        cfg = tmp_path / "idx.cfg"
        cfg.write_text(f"data.kind = idx\ndata.idx_test_images = {prefix}-images.idx\n"
                       f"data.idx_test_labels = {prefix}-labels.idx\n")
        argv = ["eval", "--checkpoint", ckpt, "--sizes", "16", "--config", str(cfg)]
        for name, fields, seed in (("images", [0, 4, 8, 12, 16], 6), ("labels", [0, 4, 8], 7)):
            path = f"{prefix}-{name}.idx"
            raw = open(path, "rb").read()
            self._check(self._mutants(raw, fields, self.FLIPS // 2, seed), path, argv, capsys)
            with open(path, "wb") as fh:
                fh.write(raw)


class TestAblationCmd:
    def test_four_rows(self, tmp_path, capsys):
        cfg = tmp_path / "abl.cfg"
        cfg.write_text("""data.n_train = 60
data.n_test = 20
data.classes = 3
data.native = 32
data.scales = 8,16,32
model.widths = 4,8
train.epochs = 1
train.warmup_epochs = 0
train.batch_size = 32
eval.sizes = 16,32
""")
        code = main(["ablation", "--B", "0,1", "--S", "2,3", "--config", str(cfg)])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "B,S,params,avg_acc,skip_reason"
        assert len(lines) == 5
