"""Experiment protocols on tiny smoke-scale runs."""

import gc
import hashlib
import os
import platform
import subprocess
import sys
import textwrap
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from msun import BackboneSpec, Rng, ScaleSet, TrainConfig, gen_shapes
from msun import experiments
from msun.experiments import (ABLATION_HEADER, ExperimentSpec, ablation_grid,
                              ablation_scales, eval_multiscale, linear_probe,
                              evaluate_accuracy, run_experiment)

SPEC = BackboneSpec((6, 12), (1, 1), "plain", 4, 32)
SCALES = ScaleSet([8, 16, 32])
CFG = TrainConfig(epochs=3, warmup_epochs=1, batch_size=64, seed=0)


@pytest.fixture(scope="module")
def data():
    return gen_shapes(0, 240, 4, 32), gen_shapes(99, 80, 4, 32)


@pytest.fixture(scope="module")
def msun_result(data, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("msun_run"))
    spec = ExperimentSpec("msun", SPEC, CFG, SCALES, out_dir=out)
    return run_experiment(spec, *data)


@pytest.fixture(scope="module")
def vanilla_result(data, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("vanilla_run"))
    spec = ExperimentSpec("vanilla", SPEC, CFG, SCALES, out_dir=out)
    return run_experiment(spec, *data)


class TestTrainVanilla:
    def test_beats_chance_on_train(self, vanilla_result):
        last_train = [r for r in vanilla_result.log_rows if ",train," in r][-1]
        acc = float(last_train.split(",")[6])
        assert acc > 1.0 / 4

    def test_seed_repeatable_weights(self, data):
        spec = ExperimentSpec("vanilla", SPEC, TrainConfig(epochs=1, warmup_epochs=0,
                                                           batch_size=64, seed=5), SCALES)
        a = run_experiment(spec, *data)
        b = run_experiment(spec, *data)
        for (_, pa), (_, pb) in zip(a.model.named_params(), b.model.named_params()):
            assert np.array_equal(pa.data, pb.data)

    def test_artifacts_written(self, vanilla_result):
        assert os.path.exists(vanilla_result.checkpoint_path)
        log = os.path.join(os.path.dirname(vanilla_result.checkpoint_path), "train_log.csv")
        header = open(log).readline().strip()
        assert header == "epoch,split,loss_total,loss_ce,loss_si,clamped,accuracy,lr"

    def test_timing_side_file(self, vanilla_result):
        path = os.path.join(os.path.dirname(vanilla_result.checkpoint_path), "timing.csv")
        lines = open(path).read().splitlines()
        assert lines[0] == "epoch,seconds,samples_per_s,minor_faults"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == list(range(CFG.epochs))
        assert all(float(r[1]) > 0 and float(r[2]) > 0 and int(r[3]) >= 0 for r in rows)


class TestRunExperiment:
    def test_final_accuracy_is_not_rounded(self, data):
        test = gen_shapes(99, 7, 4, 32)
        spec = ExperimentSpec("vanilla", SPEC, TrainConfig(epochs=1, warmup_epochs=0,
                                                           batch_size=64, seed=0), SCALES)
        result = run_experiment(spec, data[0], test)
        exact = evaluate_accuracy(result.model, test, SPEC.canonical_size)
        assert 0 < exact < 1          # k/7 needs more than the log's 6 decimals
        assert result.final_test_accuracy == exact


class TestTrainMst:
    def test_deterministic(self, data):
        spec = ExperimentSpec("mst", SPEC, TrainConfig(epochs=1, warmup_epochs=0,
                                                       batch_size=64, seed=3), SCALES)
        a = run_experiment(spec, *data)
        b = run_experiment(spec, *data)
        assert a.log_rows == b.log_rows


class TestTrainMsun:
    def test_logs_loss_components(self, msun_result):
        train_rows = [r for r in msun_result.log_rows if ",train," in r]
        parts = train_rows[-1].split(",")
        total, ce, si = float(parts[2]), float(parts[3]), float(parts[4])
        assert total == pytest.approx(max(si, CFG.lam) + ce, abs=2e-2) or total >= ce

    def test_huge_lambda_clamps_every_step(self, data):
        cfg = TrainConfig(epochs=1, warmup_epochs=0, batch_size=64, seed=1, lam=1e3)
        spec = ExperimentSpec("msun", SPEC, cfg, SCALES)
        result = run_experiment(spec, *data)
        clamped = [float(r.split(",")[5]) for r in result.log_rows if ",train," in r]
        assert all(c == 1.0 for c in clamped)

    def test_msun_requires_two_scales(self):
        with pytest.raises(ValueError):
            ExperimentSpec("msun", SPEC, CFG, ScaleSet([32]))


# Desk-shape msun steps in a fresh interpreter: 3 warm-up steps, then the
# measured ones; prints the minor page faults of each measured step.
FAULT_PROBE = textwrap.dedent("""
    import resource
    from msun import SGD, BackboneSpec, MsunModel, Rng, ScaleSet, Tensor
    from msun import gen_shapes, make_multiscale
    from msun.model import _step_with_logits

    scales = [16, 32, 64]
    model = MsunModel(BackboneSpec((8, 16), (1, 1), "plain", 6, 64),
                      ScaleSet(scales), 1, Rng(0))
    opt = SGD(model.named_params(), 0.9, 2e-5)
    batches = list(make_multiscale(gen_shapes(1, 512, 6, 64), scales, 128, 3))
    for i in range(8):
        batch = batches[i % len(batches)]
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        _step_with_logits(model, [Tensor(v) for v in batch.images], batch.labels,
                          opt, 0.1, 0.05)
        if i >= 3:
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
""")


class TestStepMemory:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the allocator policy is set on glibc only")
    def test_training_steps_take_no_fresh_pages(self):
        # Without the policy glibc maps each step's large arrays fresh and
        # returns them when freed: about 5,000 faults per step.
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        out = subprocess.run([sys.executable, "-c", FAULT_PROBE], env=env,
                             capture_output=True, text=True, timeout=300, check=True)
        faults = [int(v) for v in out.stdout.split()]
        assert len(faults) == 5
        assert sum(faults) / len(faults) < 500, faults

    def test_previous_tape_is_freed_before_next_step(self, data, monkeypatch):
        step = experiments._step_with_logits
        refs, alive = [], []

        def watched(*args, **kwargs):
            alive.append(any(ref() is not None for ref in refs))
            breakdown, logits = step(*args, **kwargs)
            refs.append(weakref.ref(logits[-1].data))
            return breakdown, logits

        monkeypatch.setattr(experiments, "_step_with_logits", watched)
        cfg = TrainConfig(epochs=1, warmup_epochs=0, batch_size=64, seed=0)
        run_experiment(ExperimentSpec("msun", SPEC, cfg, SCALES), *data)
        assert alive == [False] * 4


class TestEvalMultiscale:
    def test_matches_training_log_exactly(self, msun_result, data):
        final_acc = msun_result.final_test_accuracy
        report = eval_multiscale(msun_result.model, data[1], [32])
        assert report.rows[0].accuracy == pytest.approx(final_acc, abs=1e-12)

    def test_flops_piecewise_constant_with_routing(self, msun_result, data):
        from msun import route_scale
        report = eval_multiscale(msun_result.model, data[1], [8, 10, 16, 20, 32])
        flops = [r.flops for r in report.rows]
        branches = [route_scale(r.size, msun_result.model.scales) for r in report.rows]
        # constant within a routing plateau, and the canonical branch costs more
        for f, b in zip(flops, branches):
            assert f == flops[branches.index(b)]
        assert flops[-1] > flops[0]

    def test_average_row_is_mean(self, msun_result, data):
        report = eval_multiscale(msun_result.model, data[1], [8, 16, 32])
        assert report.average == pytest.approx(np.mean([r.accuracy for r in report.rows]))

    def test_checkpoint_not_mutated(self, msun_result, data):
        path = msun_result.checkpoint_path
        before = hashlib.sha256(open(path, "rb").read()).hexdigest()
        eval_multiscale(path, data[1], [16, 32])
        after = hashlib.sha256(open(path, "rb").read()).hexdigest()
        assert before == after

    def test_checkpoint_file_is_closed(self, msun_result, data):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            eval_multiscale(msun_result.checkpoint_path, data[1], [32])
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_unsorted_sizes_rejected(self, msun_result, data):
        with pytest.raises(ValueError):
            eval_multiscale(msun_result.model, data[1], [32, 16])

    def test_too_small_size_rejected(self, msun_result, data):
        with pytest.raises(ValueError):
            eval_multiscale(msun_result.model, data[1], [4, 16])


class TestLinearProbe:
    def test_extractor_frozen_and_sane_accuracy(self, msun_result, data):
        before = {n: p.data.copy() for n, p in msun_result.model.named_params()}
        target = gen_shapes(123, 200, 4, 32)
        acc = linear_probe(msun_result.model, target, epochs=8, seed=0)
        for n, p in msun_result.model.named_params():
            assert np.array_equal(before[n], p.data)
        assert acc > 1.0 / 4

    def test_probe_near_source_accuracy(self, msun_result, data):
        source_like = gen_shapes(0, 300, 4, 32)
        acc = linear_probe(msun_result.model, source_like, epochs=10, seed=0)
        assert abs(acc - msun_result.final_test_accuracy) < 0.35

    def test_different_class_count_target(self, msun_result):
        target = gen_shapes(7, 120, 3, 32)
        acc = linear_probe(msun_result.model, target, epochs=5, seed=1)
        assert 0.0 <= acc <= 1.0


class TestAblation:
    def test_grid_rows_and_skips(self, data):
        cfg = TrainConfig(epochs=1, warmup_epochs=0, batch_size=64, seed=0)
        rows = ablation_grid([0, 1], [2, 4], SPEC, cfg, data[0], data[1], [16, 32])
        assert len(rows) == 4
        # B=1,S=4 would need a 4px stem variant at canonical 32: skipped with a
        # reason; B=0 subnets are pure resizes, so any scale count is feasible
        skips = [r for r in rows if r.split(",", 4)[4]]
        assert len(skips) == 1
        assert skips[0].startswith("1,4,")
        filled = [r for r in rows if not r.split(",", 4)[4]]
        assert len(filled) == len(rows) - len(skips)

    def test_params_monotone_in_blocks(self, data):
        cfg = TrainConfig(epochs=1, warmup_epochs=0, batch_size=64, seed=0)
        rows = ablation_grid([0, 1, 2], [3], SPEC, cfg, data[0], data[1], [32])
        params = [int(r.split(",")[2]) for r in rows]
        assert params == sorted(params)
        from msun.analysis import count_params
        from msun.model import build_vanilla
        assert params[0] == count_params(build_vanilla(SPEC, Rng(0)))

    def test_scale_ladder(self):
        assert ablation_scales(32, 3) == [8, 16, 32]
        assert ablation_scales(64, 2) == [32, 64]
        assert ablation_scales(48, 6) == [1, 3, 6, 12, 24, 48]
        # past size 1 the error is one line, raised before any ladder is built
        for s in (7, 100_000):
            with pytest.raises(ValueError, match=f"S = {s} exceeds the 6 sizes") as exc:
                ablation_scales(32, s)
            assert len(str(exc.value)) < 80

    def test_empty_grid_rejected(self, data):
        with pytest.raises(ValueError):
            ablation_grid([], [2], SPEC, CFG, data[0], data[1], [32])

    def test_header_schema(self):
        assert ABLATION_HEADER == "B,S,params,avg_acc,skip_reason"
