"""SGD with momentum plus the linear-warmup cosine-annealing schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import NonFiniteError, Tensor


# Largest accepted base learning rate, 10,000 times the default. A run this
# fast can still diverge (exit 3); from about 1e4 up, one epoch of the tiny
# config already overflows the batch-norm statistics.
MAX_BASE_LR = 1e3


@dataclass
class TrainConfig:
    base_lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 2e-5
    batch_size: int = 128
    epochs: int = 10
    warmup_epochs: int = 5
    lr_floor_fraction: float = 0.01
    lam: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if not 0.0 <= self.weight_decay < 1.0:
            raise ValueError(f"weight decay must be in [0, 1), got {self.weight_decay}")
        if not (math.isfinite(self.lam) and self.lam >= 0.0):
            raise ValueError(f"lambda must be finite and >= 0, got {self.lam}")
        if not 0.0 < self.base_lr <= MAX_BASE_LR:
            raise ValueError(f"base learning rate must be in (0, {MAX_BASE_LR:g}], "
                             f"got {self.base_lr}")
        if not 0.0 <= self.lr_floor_fraction <= 1.0:
            raise ValueError("learning-rate floor fraction must be in [0, 1], "
                             f"got {self.lr_floor_fraction}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.warmup_epochs < 0:
            raise ValueError(f"warmup epochs must be >= 0, got {self.warmup_epochs}")
        if self.warmup_epochs > self.epochs:
            raise ValueError(f"warmup ({self.warmup_epochs} epochs) exceeds "
                             f"training length ({self.epochs} epochs)")


def lr_at(step: int, total_steps: int, config: TrainConfig) -> float:
    """Learning rate at a global step.

    Linear ramp from floor to base over the warmup steps (the warmup-epoch
    share of total_steps), then cosine decay from base back down to floor,
    hitting the floor exactly at the last step.
    """
    if not 0 <= step < total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps})")
    base = config.base_lr
    floor = config.lr_floor_fraction * base
    warmup_steps = total_steps * config.warmup_epochs // config.epochs
    if step < warmup_steps:
        return floor + (base - floor) * step / warmup_steps
    span = total_steps - 1 - warmup_steps
    if span <= 0:
        return floor
    t = (step - warmup_steps) / span
    return floor + 0.5 * (base - floor) * (1.0 + math.cos(math.pi * t))


class SGD:
    """Momentum SGD: v <- momentum*v + grad + wd*param; param <- param - lr*v."""

    def __init__(self, params, momentum: float = 0.9, weight_decay: float = 0.0):
        self.params = list(params)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocities = [np.zeros_like(p.data) for p in self.params]

    def step(self, lr: float) -> None:
        for p, v in zip(self.params, self.velocities):
            g = p.grad
            if g is None:
                continue
            if not np.all(np.isfinite(g)):
                raise NonFiniteError(f"non-finite gradient for parameter of shape {p.data.shape}")
            v *= self.momentum
            v += g
            if self.weight_decay:
                v += self.weight_decay * p.data
            p.data -= lr * v
