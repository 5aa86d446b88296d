"""Flat key=value configuration files with dotted namespaces.

Unknown keys are rejected outright so typos never silently fall back to a
default; the fully resolved mapping is echoed into each run's output
directory as resolved-config.txt.
"""

from __future__ import annotations

import math
import os
from typing import Dict, Optional

from .experiments import EVAL_SIZES_RULE, eval_sizes_ok
from .fileio import atomic_write
from .model import BackboneSpec, ScaleSet
from .optim import TrainConfig
from .tensor import FieldError


class ConfigError(ValueError):
    """Bad configuration file, key, or value."""


def _int_list(text: str):
    return tuple(int(v) for v in str(text).split(",") if v != "")


# key -> (parser, default)
KNOWN_KEYS = {
    "data.kind": (str, "shapes"),
    "data.n_train": (int, 2000),
    "data.n_test": (int, 400),
    "data.classes": (int, 6),
    "data.native": (int, 64),
    "data.noise": (float, 0.05),
    "data.scales": (_int_list, (16, 32, 64)),
    "data.idx_train_images": (str, ""),
    "data.idx_train_labels": (str, ""),
    "data.idx_test_images": (str, ""),
    "data.idx_test_labels": (str, ""),
    "model.widths": (_int_list, (8, 16)),
    "model.blocks": (_int_list, (1, 1)),
    "model.kind": (str, "plain"),
    "model.subnet_blocks": (int, 1),
    "train.base_lr": (float, 0.1),
    "train.momentum": (float, 0.9),
    "train.weight_decay": (float, 2e-5),
    "train.batch_size": (int, 128),
    "train.epochs": (int, 10),
    "train.warmup_epochs": (int, 5),
    "train.lr_floor_fraction": (float, 0.01),
    "train.seed": (int, 0),
    "msun.lambda": (float, 0.1),
    "eval.sizes": (_int_list, (16, 24, 32, 40, 48, 56, 64)),
    "cka.probe_samples": (int, 256),
    "cka.taps": (str, ""),
}


def _at_least(low):
    return (lambda v: v >= low), f">= {low}"


def _finite_at_least(low):
    return (lambda v: math.isfinite(v) and v >= low), f"finite and >= {low}"


# key -> (check, what it requires), applied to every loaded value; the keys a
# spec reads are checked by the spec (TRAIN_KEYS at load, BACKBONE_KEYS per command)
RULES = {
    "data.n_train": _at_least(1),
    "data.n_test": _at_least(1),
    "data.noise": _finite_at_least(0.0),
    "eval.sizes": (eval_sizes_ok, EVAL_SIZES_RULE),
    "cka.probe_samples": _at_least(1),
}


# spec field -> the key it is read from
BACKBONE_KEYS = {
    "stage_widths": "model.widths",
    "stage_blocks": "model.blocks",
    "block_kind": "model.kind",
    "num_classes": "data.classes",
    "canonical_size": "data.native",
}
# gen_shapes parameter -> the key a shapes split reads it from
SHAPES_KEYS = {
    "n_classes": "data.classes",
    "size": "data.native",
    "noise": "data.noise",
    "n_samples": "data.n_{split}",
}
TRAIN_KEYS = {
    "base_lr": "train.base_lr",
    "momentum": "train.momentum",
    "weight_decay": "train.weight_decay",
    "batch_size": "train.batch_size",
    "epochs": "train.epochs",
    "warmup_epochs": "train.warmup_epochs",
    "lr_floor_fraction": "train.lr_floor_fraction",
    "lam": "msun.lambda",
    "seed": "train.seed",
}


class Config:
    def __init__(self, values: Dict[str, object]):
        self.values = values

    def __getitem__(self, key: str):
        return self.values[key]

    def scales(self) -> ScaleSet:
        try:
            return ScaleSet(self["data.scales"])
        except ValueError as exc:
            raise ConfigError(f"bad value for data.scales: {exc}") from exc

    def backbone(self) -> BackboneSpec:
        return self._spec(BackboneSpec, BACKBONE_KEYS)

    def train_config(self) -> TrainConfig:
        return self._spec(TrainConfig, TRAIN_KEYS)

    def _spec(self, cls, keys):
        """``cls`` with each field read from its key; a bad field names its key."""
        try:
            return cls(**{field: self[key] for field, key in keys.items()})
        except FieldError as exc:
            raise ConfigError(f"bad value for {keys[exc.field]}: {exc}") from exc

    def resolved_text(self) -> str:
        return "".join(f"{k}={_fmt(self.values[k])}\n" for k in sorted(self.values))

    def write_resolved(self, out_dir: str) -> None:
        os.makedirs(out_dir, exist_ok=True)
        with atomic_write(os.path.join(out_dir, "resolved-config.txt")) as fh:
            fh.write(self.resolved_text())


def _fmt(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def parse_config_text(text: str, source: str = "<config>") -> Dict[str, str]:
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {line!r}")
        key, value = stripped.split("=", 1)
        key = key.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        raw[key] = value.strip()
    return raw


def load_config(path: Optional[str] = None, overrides: Optional[Dict[str, str]] = None) -> Config:
    """Defaults, overlaid by the file (if any), overlaid by CLI overrides."""
    values = {key: default for key, (_, default) in KNOWN_KEYS.items()}
    raw: Dict[str, str] = {}
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        with open(path) as fh:
            raw.update(parse_config_text(fh.read(), path))
    for key, value in (overrides or {}).items():
        if key not in KNOWN_KEYS:
            raise ConfigError(f"unknown key {key!r}")
        raw[key] = value
    for key, text in raw.items():
        parser, _ = KNOWN_KEYS[key]
        try:
            values[key] = parser(text)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key}: {text!r} ({exc})") from exc
    for key, (check, what) in RULES.items():
        if not check(values[key]):
            raise ConfigError(f"bad value for {key}: {values[key]!r} (must be {what})")
    config = Config(values)
    config.train_config()   # every command rejects a bad train.* value
    return config
