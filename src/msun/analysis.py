"""Quantitative instruments: CKA, FLOPs/params, accuracy means, Grad-CAM, PCA.

All statistics run in float64 on frozen (eval-mode) models; every report type
serializes to a fixed CSV schema documented in the README.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from . import tensor as T
from .layers import Conv2d, resize_images
from .model import MsunModel, PlainBlock, ResidualBlock, Stem, route_scale
from .tensor import Tensor

CKA_MIN_SAMPLES = 64   # fewest probe samples layerwise_cka accepts


def center_features(x: np.ndarray) -> np.ndarray:
    """Subtract each feature's mean over the samples (columns end up zero-mean)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError(f"expected an [n>=2, d] feature matrix, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite entries in feature matrix")
    return x - x.mean(axis=0, keepdims=True)


def cka(x: np.ndarray, y: np.ndarray) -> float:
    """Centered kernel alignment of two feature matrices with shared samples.

    Linear kernel: the normalized Frobenius inner product of the centered
    Gram matrices. 1 means identical representations up to rotation/scaling;
    degenerate (constant) features give 0 with a warning.
    """
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"sample counts differ: {x.shape[0]} vs {y.shape[0]}")
    xc = center_features(x)
    yc = center_features(y)
    kx = xc @ xc.T
    ky = yc @ yc.T
    nx = np.linalg.norm(kx)
    ny = np.linalg.norm(ky)
    if nx == 0.0 or ny == 0.0:
        warnings.warn("degenerate (constant) features: CKA undefined, returning 0")
        return 0.0
    return float(np.sum(kx * ky) / (nx * ny))


@dataclass
class CkaRow:
    layer: str
    scale_a: int
    scale_b: int
    n: int
    value: float


@dataclass
class CkaReport:
    rows: List[CkaRow]

    HEADER = "layer,scale_a,scale_b,n,cka"

    def to_csv(self) -> str:
        lines = [self.HEADER]
        for r in self.rows:
            lines.append(f"{r.layer},{r.scale_a},{r.scale_b},{r.n},{r.value:.10f}")
        return "\n".join(lines) + "\n"


def tap_activations(model: MsunModel, images: np.ndarray, size: int,
                    taps: Sequence[str]) -> dict:
    """Per-sample activations at each tap as float32 ``[N, -1]``.

    Images are resized to ``size`` and presented at that size, 128 at a time,
    without recording a tape.
    """
    chunks = {t: [] for t in taps}
    with T.no_grad():
        for start in range(0, images.shape[0], 128):
            x = resize_images(images[start:start + 128], size, size)
            captured = dict.fromkeys(taps)
            model.forward_infer(x, size, taps=captured)
            for t in taps:
                data = captured[t].data
                chunks[t].append(data.reshape(data.shape[0], -1))
    return {t: np.concatenate(chunks[t], axis=0) for t in taps}


def layerwise_cka(model: MsunModel, probe_images: np.ndarray, scale_a: int,
                  scale_b: int, taps: Optional[Sequence[str]] = None,
                  min_samples: int = CKA_MIN_SAMPLES) -> CkaReport:
    """CKA between two input scales at every tapped layer, shallow to deep."""
    known = model.tap_names()
    if taps is None:
        taps = known
    for t in taps:
        if t not in known:
            raise ValueError(f"unknown tap {t!r}; model taps are {known}")
    taps = sorted(taps, key=known.index)
    n = probe_images.shape[0]
    if n < min_samples:
        raise ValueError(f"probe set has {n} samples, need at least {min_samples}")
    model.eval()
    acts_a = tap_activations(model, probe_images, scale_a, taps)
    acts_b = tap_activations(model, probe_images, scale_b, taps)
    rows = [CkaRow(t, scale_a, scale_b, n, cka(acts_a[t], acts_b[t])) for t in taps]
    return CkaReport(rows)


@dataclass
class FlopsRow:
    layer: str
    n_in: int
    m_out: int
    k: int
    h_out: int
    w_out: int
    flops: int


@dataclass
class FlopsReport:
    rows: List[FlopsRow]
    params: int

    HEADER = "layer,n_in,m_out,k,h_out,w_out,flops"

    @property
    def total_flops(self) -> int:
        return sum(r.flops for r in self.rows)

    def to_csv(self) -> str:
        lines = [self.HEADER]
        for r in self.rows:
            lines.append(f"{r.layer},{r.n_in},{r.m_out},{r.k},{r.h_out},{r.w_out},{r.flops}")
        lines.append(f"total,,,,,,{self.total_flops}")
        lines.append(f"params,,,,,,{self.params}")
        return "\n".join(lines) + "\n"


def count_params(model: MsunModel) -> int:
    """Element count over all trainable tensors (batch-norm buffers excluded)."""
    return sum(p.data.size for _, p in model.named_params())


def count_flops(model: MsunModel, input_size: int) -> FlopsReport:
    """Multiply-add cost 2*n*m*k^2 per conv kernel application, spatially
    extended by the output map; linear layers cost 2*in*out. Pooling,
    normalization, activations and resizing count zero. Only the routed
    subnet plus the shared network is charged at inference."""
    branch = route_scale(input_size, model.scales)
    size = model.scales[branch]
    rows: List[FlopsRow] = []

    def conv_row(name: str, conv: Conv2d, in_size: int) -> int:
        out = conv.out_size(in_size)
        flops = 2 * conv.in_channels * conv.out_channels * conv.kernel_size ** 2 * out * out
        rows.append(FlopsRow(name, conv.in_channels, conv.out_channels,
                             conv.kernel_size, out, out, flops))
        return out

    def walk(stack, prefix, size):
        for bname, block in stack.blocks:
            if isinstance(block, (Stem, PlainBlock)):
                conv_row(f"{prefix}{bname}.conv", block.conv, size)
            else:  # residual
                out1 = conv_row(f"{prefix}{bname}.conv1", block.conv1, size)
                conv_row(f"{prefix}{bname}.conv2", block.conv2, out1)
                if block.proj is not None:
                    conv_row(f"{prefix}{bname}.proj", block.proj, size)
            size = block.out_size(size)
        return size

    if model.subnet_blocks > 0:
        size = walk(model.subnets[branch], f"subnet{branch + 1}.", size)
    else:
        size = model.spec.canonical_size
    size = walk(model.unified, "unified.", size)
    head = model.head
    rows.append(FlopsRow("head", head.weight.shape[1], head.weight.shape[0], 1, 1, 1,
                         2 * head.weight.shape[1] * head.weight.shape[0]))
    return FlopsReport(rows, count_params(model))


def average_accuracy(per_size_accuracies: Sequence[float]) -> float:
    """Arithmetic mean over the evaluation sweep."""
    values = list(per_size_accuracies)
    if not values:
        raise ValueError("no accuracies to average")
    return float(np.mean(np.asarray(values, dtype=np.float64)))


@dataclass
class EvalRow:
    size: int
    accuracy: float
    flops: int


@dataclass
class EvalReport:
    rows: List[EvalRow]

    HEADER = "size,accuracy,flops"

    @property
    def average(self) -> float:
        return average_accuracy([r.accuracy for r in self.rows])

    @property
    def mean_flops(self) -> float:
        return float(np.mean([r.flops for r in self.rows]))

    def to_csv(self) -> str:
        lines = [self.HEADER]
        for r in self.rows:
            lines.append(f"{r.size},{r.accuracy:.6f},{r.flops}")
        lines.append(f"average,{self.average:.6f},{self.mean_flops:.1f}")
        return "\n".join(lines) + "\n"


@dataclass
class GradCamMap:
    values: np.ndarray          # [H,W] >= 0
    target_class: int
    channel_weights: np.ndarray
    activations: np.ndarray     # [K,H,W] reference features

    def to_pgm(self) -> str:
        h, w = self.values.shape
        peak = float(self.values.max())
        scaled = np.zeros((h, w), dtype=np.int64) if peak == 0.0 else \
            np.rint(self.values / peak * 255.0).astype(np.int64)
        lines = ["P2", f"{w} {h}", "255"]
        lines += [" ".join(str(v) for v in row) for row in scaled]
        return "\n".join(lines) + "\n"


def parse_pgm(text: str) -> np.ndarray:
    """Read back an ASCII PGM written by GradCamMap.to_pgm."""
    tokens = [t for line in text.splitlines()
              for t in line.split("#")[0].split()]
    if not tokens or tokens[0] != "P2":
        raise ValueError("not an ASCII PGM (P2) file")
    w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    values = np.asarray([int(t) for t in tokens[4:]], dtype=np.int64)
    if values.size != w * h:
        raise ValueError(f"PGM payload has {values.size} values, expected {w * h}")
    if maxval != 255 or values.min() < 0 or values.max() > maxval:
        raise ValueError("PGM values outside [0, 255]")
    return values.reshape(h, w)


def grad_cam(model: MsunModel, image: np.ndarray, target_class: int,
             native_size: Optional[int] = None) -> GradCamMap:
    """Class-activation map over the deepest shared conv features.

    Channel weights are the spatial mean of the class logit's gradient on
    those features; the map is the ReLU of the weighted channel sum, at
    feature resolution.
    """
    if image.ndim == 3:
        image = image[None]
    if native_size is None:
        native_size = image.shape[2]
    n_classes = model.spec.num_classes
    if not 0 <= target_class < n_classes:
        raise ValueError(f"class {target_class} out of range [0, {n_classes})")
    model.eval()
    model.zero_grad()
    last_tap = f"unified.{model.unified.block_names()[-1]}"
    taps = {last_tap: None}
    logits = model.forward_infer(image, native_size, taps=taps)
    feats = taps[last_tap]
    feats.retain_grad()
    mask = np.zeros(logits.shape, dtype=np.float32)
    mask[0, target_class] = 1.0
    score = (logits * Tensor(mask)).sum()
    T.backward(score)
    grads = feats.grad[0].astype(np.float64)
    acts = feats.data[0].astype(np.float64)
    alphas = grads.mean(axis=(1, 2))
    return GradCamMap(grad_cam_formula(alphas, acts), target_class, alphas, acts)


def pca_project(features: np.ndarray, dims: int = 2) -> np.ndarray:
    """Project onto the top principal directions of the sample covariance.

    Deterministic: each component's sign is fixed so its largest-magnitude
    loading is positive. Rank-deficient inputs warn and zero-fill the
    missing components.
    """
    x = np.asarray(features, dtype=np.float64)
    n, d = x.shape
    if n <= dims:
        raise ValueError(f"need more than {dims} samples, got {n}")
    xc = x - x.mean(axis=0, keepdims=True)
    lams, vecs = np.linalg.eigh(xc.T @ xc / (n - 1))     # ascending eigenvalues
    basis = np.zeros((d, dims))
    for comp in range(dims):
        if comp >= d or lams[d - 1 - comp] <= 1e-12:
            warnings.warn(f"feature rank below {dims}: component {comp} zero-filled")
            continue
        v = vecs[:, d - 1 - comp]
        basis[:, comp] = -v if v[np.argmax(np.abs(v))] < 0 else v
    return xc @ basis


def grad_cam_formula(alphas: np.ndarray, activations: np.ndarray) -> np.ndarray:
    """ReLU of the alpha-weighted channel sum; the map's defining identity."""
    return np.maximum((alphas[:, None, None] * activations).sum(axis=0), 0.0)
