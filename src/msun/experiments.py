"""Experiment protocols: the three training methods, sweeps, probe, ablation.

Every run is a pure function of its spec and seed; logs and checkpoints are
written under the spec's output directory with fixed names and schemas.
"""

from __future__ import annotations

import hashlib
import os
import resource
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from . import checkpoint as ckpt
from . import tensor as T
from .analysis import EvalReport, EvalRow, count_flops, count_params, tap_activations
from .data import Dataset, make_multiscale, prefetch_batches, split_dataset
from .fileio import atomic_write
from .layers import Linear, resize_images, softmax_cross_entropy
from .model import (BackboneSpec, MsunModel, ScaleSet, _step_with_logits, build_vanilla,
                    subnet_layout)
from .optim import SGD, TrainConfig, lr_at
from .rng import Rng
from .tensor import NonFiniteError, Tensor

METHODS = ("vanilla", "mst", "msun")

LOG_HEADER = "epoch,split,loss_total,loss_ce,loss_si,clamped,accuracy,lr"
TIMING_HEADER = "epoch,seconds,samples_per_s,minor_faults"


@dataclass
class ExperimentSpec:
    method: str
    backbone: BackboneSpec
    train: TrainConfig
    scales: ScaleSet
    subnet_blocks: int = 1
    out_dir: Optional[str] = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.method == "msun":
            if len(self.scales) < 2:
                raise ValueError("msun training requires at least 2 scales")
            subnet_layout(self.backbone, self.scales, self.subnet_blocks)


EVAL_SIZES_RULE = "at least one size, each >= 8, in ascending order"


def eval_sizes_ok(sizes: Sequence[int]) -> bool:
    """Whether an evaluation sweep's sizes follow EVAL_SIZES_RULE."""
    return bool(sizes) and min(sizes) >= 8 and list(sizes) == sorted(sizes)


def _epoch_seed(seed: int, epoch: int) -> int:
    return (seed * 0x9E3779B1 + epoch + 1) & 0xFFFFFFFF


def evaluate_accuracy(model: MsunModel, ds: Dataset, size: int) -> float:
    """Share of correct argmax predictions with inputs presented at ``size``."""
    correct = 0
    with model.evaluating(), T.no_grad():
        for start in range(0, len(ds), 256):
            logits = model.forward_infer(ds.images[start:start + 256], size)
            correct += int((logits.data.argmax(axis=1) == ds.labels[start:start + 256]).sum())
    return correct / len(ds)


@dataclass
class TrainResult:
    model: MsunModel
    log_rows: List[str]
    checkpoint_path: Optional[str]
    final_test_accuracy: float


def _write_csv(out_dir: Optional[str], name: str, header: str, rows: List[str]) -> None:
    if out_dir is None:
        return
    os.makedirs(out_dir, exist_ok=True)
    with atomic_write(os.path.join(out_dir, name)) as fh:
        fh.write(header + "\n")
        fh.write("\n".join(rows) + "\n")


def _run_training(spec: ExperimentSpec, model: MsunModel, train_ds: Dataset,
                  test_ds: Dataset) -> TrainResult:
    cfg = spec.train
    opt = SGD(model.named_params(), cfg.momentum, cfg.weight_decay)
    steps_per_epoch = (len(train_ds) + cfg.batch_size - 1) // cfg.batch_size
    total_steps = steps_per_epoch * cfg.epochs
    canonical = spec.backbone.canonical_size
    mst_rng = Rng(cfg.seed ^ 0x5CA1E5)
    lam = cfg.lam if len(model.scales) > 1 else 0.0   # no scale pairs, no SI term

    rows: List[str] = []
    timing: List[str] = []   # wall times stay out of the byte-compared train_log.csv
    step = 0
    model.train()
    for epoch in range(cfg.epochs):
        started = time.perf_counter()
        faults_before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        sums = np.zeros(4)   # total, ce, si, clamped
        batches = make_multiscale(train_ds, list(model.scales), cfg.batch_size,
                                  _epoch_seed(cfg.seed, epoch))
        last_lr = 0.0
        correct = 0
        for batch in prefetch_batches(batches):
            if spec.method == "mst":
                size = mst_rng.choice(list(spec.scales))
                down = resize_images(batch.images[0], size, size)
                views = [Tensor(resize_images(down, canonical, canonical))]
            else:
                views = [Tensor(v) for v in batch.images]
            last_lr = lr_at(step, total_steps, cfg)
            try:
                breakdown, logits = _step_with_logits(model, views, batch.labels,
                                                      opt, lam, last_lr)
            except NonFiniteError as exc:
                raise NonFiniteError(f"epoch {epoch}: {exc}") from exc
            # running accuracy from the canonical-scale branch, no extra pass
            correct += int((logits[-1].data.argmax(axis=1) == batch.labels).sum())
            del logits   # free this step's outputs before the next forward
            sums += (breakdown.total, breakdown.ce_sum, breakdown.si, breakdown.clamped)
            step += 1
        for name, buf in model.named_buffers():   # never checkpoint broken statistics
            if not np.all(np.isfinite(buf)):
                raise NonFiniteError(f"epoch {epoch}: non-finite batch-norm buffer {name}")
        avg = sums / steps_per_epoch
        train_acc = correct / len(train_ds)
        test_acc = evaluate_accuracy(model, test_ds, canonical)
        rows.append(f"{epoch},train,{avg[0]:.6f},{avg[1]:.6f},{avg[2]:.6f},"
                    f"{avg[3]:.4f},{train_acc:.6f},{last_lr:.8f}")
        rows.append(f"{epoch},test,,,,,{test_acc:.6f},")
        seconds = time.perf_counter() - started
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults_before
        timing.append(f"{epoch},{seconds:.6f},{len(train_ds) / seconds:.3f},{faults}")
        model.train()

    path = None
    if spec.out_dir is not None:
        os.makedirs(spec.out_dir, exist_ok=True)
        path = os.path.join(spec.out_dir, "checkpoint.msun")
        ckpt.save_model(path, model)
    _write_csv(spec.out_dir, "train_log.csv", LOG_HEADER, rows)
    _write_csv(spec.out_dir, "timing.csv", TIMING_HEADER, timing)
    return TrainResult(model.eval(), rows, path, test_acc)


def run_experiment(spec: ExperimentSpec, train_ds: Dataset, test_ds: Dataset) -> TrainResult:
    """Build the spec's model and train it.

    ``msun`` gets one subnet per scale feeding the unified network. ``vanilla``
    and ``mst`` share the fixed-input model; they differ only in the views of
    each batch that ``_run_training`` feeds it.
    """
    rng = Rng(spec.train.seed)
    if spec.method == "msun":
        model = MsunModel(spec.backbone, spec.scales, spec.subnet_blocks, rng)
    else:
        model = build_vanilla(spec.backbone, rng)
    return _run_training(spec, model, train_ds, test_ds)


def _file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def eval_multiscale(model_or_path, test_ds: Dataset, sizes: Sequence[int]) -> EvalReport:
    """Accuracy and routed FLOPs at every size of the sweep.

    Inputs are bilinearly resized down to each evaluation size first; the
    model's own routing then decides which branch runs (for a single-scale
    model that means upsampling back to its fixed input size).
    """
    sizes = list(sizes)
    if not eval_sizes_ok(sizes):
        raise ValueError(f"evaluation sizes {sizes}: need {EVAL_SIZES_RULE}")
    path = None
    if isinstance(model_or_path, MsunModel):
        model = model_or_path
    else:
        path = model_or_path
        model = ckpt.load_model(path)
        before = _file_digest(path)
    rows = []
    for size in sizes:
        acc = evaluate_accuracy(model, test_ds, size)
        rows.append(EvalRow(size, acc, count_flops(model, size).total_flops))
    if path is not None:
        if _file_digest(path) != before:
            raise RuntimeError(f"evaluation mutated checkpoint {path}")
    return EvalReport(rows)


def linear_probe(model_or_path, target: Dataset, epochs: int = 10, seed: int = 0) -> float:
    """Retrain only a fresh linear classifier on frozen pooled features."""
    model = model_or_path if isinstance(model_or_path, MsunModel) \
        else ckpt.load_model(model_or_path)
    state_before = {n: p.data.copy() for n, p in model.named_params()}
    train_ds, test_ds = split_dataset(target, 0.8, seed)

    x_train, x_test = (tap_activations(model, ds.images, ds.native_size, ["pooled"])["pooled"]
                       for ds in (train_ds, test_ds))
    n_classes = len(target.class_names)
    head = Linear(x_train.shape[1], n_classes, Rng(seed))
    opt = SGD([(f"head.{n}", p) for n, p in head.params()], momentum=0.9, weight_decay=0.0)
    order_rng = Rng(seed ^ 0xF00D)
    for epoch in range(epochs):
        perm = order_rng.permutation(len(train_ds))
        for start in range(0, len(train_ds), 128):
            idx = perm[start:start + 128]
            head.weight.zero_grad()
            head.bias.zero_grad()
            logits = head.forward(Tensor(x_train[idx]), train=True)
            loss = softmax_cross_entropy(logits, train_ds.labels[idx])
            T.backward(loss)
            opt.step(0.05)
    with T.no_grad():
        logits = head.forward(Tensor(x_test), train=False)
    acc = float((logits.data.argmax(axis=1) == test_ds.labels).mean())

    for name, p in model.named_params():
        if not np.array_equal(state_before[name], p.data):
            raise AssertionError(f"linear probe mutated frozen parameter {name}")
    return acc


ABLATION_HEADER = "B,S,params,avg_acc,skip_reason"


def ablation_scales(canonical: int, n_subnets: int) -> List[int]:
    """Halving ladder ending at the canonical size, one entry per subnet."""
    if n_subnets > canonical.bit_length():
        raise ValueError(f"S = {n_subnets} exceeds the {canonical.bit_length()} sizes "
                         f"of a halving ladder from {canonical}")
    return [canonical >> k for k in range(n_subnets - 1, -1, -1)]


def ablation_grid(b_values: Sequence[int], s_values: Sequence[int],
                  backbone: BackboneSpec, train_cfg: TrainConfig,
                  train_ds: Dataset, test_ds: Dataset,
                  eval_sizes: Sequence[int]) -> List[str]:
    """One CSV row per (B, S) cell; infeasible cells carry a skip reason."""
    if not b_values or not s_values:
        raise ValueError("ablation grid must be nonempty")
    rows = []
    for b in b_values:
        for s in s_values:
            try:
                scales = ScaleSet(ablation_scales(backbone.canonical_size, s))
                model = MsunModel(backbone, scales, b, Rng(train_cfg.seed))
            except ValueError as exc:
                rows.append(f"{b},{s},,,{exc}")
                continue
            spec = ExperimentSpec("msun" if s > 1 else "vanilla", backbone,
                                  train_cfg, scales, subnet_blocks=b)
            result = _run_training(spec, model, train_ds, test_ds)
            report = eval_multiscale(result.model, test_ds, eval_sizes)
            rows.append(f"{b},{s},{count_params(result.model)},{report.average:.6f},")
    return rows
