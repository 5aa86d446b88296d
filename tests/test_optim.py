"""SGD update rule and the warmup/cosine schedule."""

import math

import numpy as np
import pytest

from msun import BackboneSpec, NonFiniteError, ScaleSet, Tensor, TrainConfig, gen_shapes, lr_at
from msun.experiments import ExperimentSpec, run_experiment
from msun.optim import SGD


def param(values):
    t = Tensor(np.asarray(values, dtype=np.float32), requires_grad=True)
    t.zero_grad()
    return t


class TestTrainConfig:
    def test_defaults_match_documented_settings(self):
        cfg = TrainConfig()
        assert cfg.base_lr == 0.1
        assert cfg.momentum == 0.9
        assert cfg.weight_decay == 2e-5
        assert cfg.warmup_epochs == 5
        assert cfg.lr_floor_fraction == 0.01
        assert cfg.lam == 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(momentum=1.0)
        with pytest.raises(ValueError):
            TrainConfig(weight_decay=-1e-3)
        with pytest.raises(ValueError):
            TrainConfig(warmup_epochs=30, epochs=10)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0, warmup_epochs=0)
        for bad in ({"warmup_epochs": -1}, {"lr_floor_fraction": -1.0},
                    {"lr_floor_fraction": math.nan}, {"lam": math.inf},
                    {"lam": math.nan}, {"base_lr": math.inf},
                    {"base_lr": -1.0}, {"base_lr": 0.0},
                    {"weight_decay": math.nan}, {"weight_decay": math.inf},
                    {"weight_decay": 1e6}, {"base_lr": 1e6}, {"lr_floor_fraction": 2.0}):
            with pytest.raises(ValueError):
                TrainConfig(**bad)

    # Each of these once reached run_experiment: batch_size=0 raised
    # ZeroDivisionError, batch_size=-3 trained zero steps, and base_lr=nan
    # returned NaN parameters with a test accuracy of 0.25.
    @pytest.mark.parametrize("bad", [{"batch_size": 0}, {"batch_size": -3},
                                     {"base_lr": math.nan}],
                             ids=["batch_size=0", "batch_size=-3", "base_lr=nan"])
    def test_run_experiment_rejects(self, bad):
        data = gen_shapes(0, 16, 4, 16), gen_shapes(1, 8, 4, 16)
        with pytest.raises(ValueError):
            cfg = TrainConfig(epochs=1, warmup_epochs=0, **bad)
            spec = ExperimentSpec("vanilla", BackboneSpec((4, 8), (1, 1), "plain", 4, 16),
                                  cfg, ScaleSet([8, 16]))
            run_experiment(spec, *data)


class TestSgdStep:
    def test_zero_grad_zero_wd_unchanged(self):
        p = param([1.0, -2.0])
        opt = SGD([("p", p)], momentum=0.9, weight_decay=0.0)
        opt.step(0.1)
        assert np.array_equal(p.data, np.asarray([1.0, -2.0], np.float32))

    def test_plain_gradient_descent(self):
        p = param([1.0])
        p.grad[:] = 0.25
        SGD([("p", p)], momentum=0.0, weight_decay=0.0).step(1.0)
        assert p.data[0] == pytest.approx(0.75)

    def test_two_momentum_steps_closed_form(self):
        # v1 = g, v2 = 0.9 g + g = 1.9 g; p2 = p0 - lr (g + 1.9 g)
        p = param([0.0])
        opt = SGD([("p", p)], momentum=0.9, weight_decay=0.0)
        g, lr = 0.5, 0.1
        for _ in range(2):
            p.grad[:] = g
            opt.step(lr)
        assert p.data[0] == pytest.approx(-lr * (g + 1.9 * g), abs=1e-7)

    def test_weight_decay_enters_velocity(self):
        p = param([2.0])
        opt = SGD([("p", p)], momentum=0.0, weight_decay=0.5)
        opt.step(1.0)  # v = 0 + 0 + 0.5*2 = 1 -> p = 1
        assert p.data[0] == pytest.approx(1.0)

    def test_zero_lr_bit_identical(self):
        p = param([1.2345])
        p.grad[:] = 3.0
        before = p.data.copy()
        SGD([("p", p)], momentum=0.9, weight_decay=0.1).step(0.0)
        assert np.array_equal(before, p.data)

    def test_nonfinite_grad_aborts(self):
        p = param([1.0])
        p.grad[:] = np.nan
        with pytest.raises(NonFiniteError):
            SGD([("p", p)], 0.9, 0.0).step(0.1)

    def test_nonfinite_grad_error_names_the_parameter(self):
        ok, bad = param([1.0]), param([1.0, 2.0])
        bad.grad[1] = np.nan
        opt = SGD([("head.bias", ok), ("unified.block1.conv.weight", bad)], 0.9, 0.0)
        with pytest.raises(NonFiniteError, match=r"parameter unified\.block1\.conv\.weight "
                                                 r"of shape \(2,\)"):
            opt.step(0.1)


class TestSchedule:
    CFG = TrainConfig(base_lr=0.1, epochs=10, warmup_epochs=2)

    def test_step_zero_is_floor(self):
        assert lr_at(0, 1000, self.CFG) == pytest.approx(0.001)

    def test_end_of_warmup_is_base_exactly(self):
        total, warmup = 1000, 1000 * 2 // 10
        assert lr_at(warmup, total, self.CFG) == pytest.approx(0.1, abs=1e-12)

    def test_final_step_hits_floor(self):
        assert lr_at(999, 1000, self.CFG) == pytest.approx(0.001, abs=1e-9)

    def test_cosine_midpoint(self):
        # pick totals whose cosine span is even so an exact midpoint step exists
        cfg = TrainConfig(base_lr=0.1, epochs=10, warmup_epochs=5)
        total = 10
        warmup = total * 5 // 10
        mid = warmup + (total - 1 - warmup) // 2
        assert (total - 1 - warmup) % 2 == 0
        assert lr_at(mid, total, cfg) == pytest.approx((0.1 + 0.001) / 2, abs=1e-9)

    def test_continuity_at_boundary(self):
        total = 500
        warmup = total * 2 // 10
        ramp_end = 0.001 + (0.1 - 0.001) * warmup / warmup
        assert abs(ramp_end - lr_at(warmup, total, self.CFG)) < 1e-9

    def test_nonincreasing_after_warmup(self):
        total = 400
        warmup = total * 2 // 10
        values = [lr_at(s, total, self.CFG) for s in range(warmup, total)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_out_of_range_step(self):
        with pytest.raises(ValueError):
            lr_at(1000, 1000, self.CFG)
