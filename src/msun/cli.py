"""Command-line surface: train/eval/analysis subcommands with stable exits.

Exit codes: 0 success, 2 usage or configuration problem, 3 numeric failure
(divergence), 4 I/O, file-format or out-of-memory failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from . import checkpoint as ckpt
from .analysis import (CKA_MIN_SAMPLES, count_flops, grad_cam, layerwise_cka, pca_project,
                       tap_activations)
from .config import Config, ConfigError, load_config
from .data import IdxFormatError, gen_shapes, load_idx, save_idx
from .experiments import (ABLATION_HEADER, ExperimentSpec, ablation_grid,
                          eval_multiscale, run_experiment)
from .fileio import atomic_write
from .layers import resize_images
from .tensor import NonFiniteError


def _datasets(cfg: Config, *splits: str, rows=None):
    """The config's dataset for each named split ("train" or "test"), in order.

    Only the named splits are loaded or rendered. ``rows``, when given, maps a
    split's size to the range [start, stop) of samples a command reads: a
    rendered split then draws only those samples, and a loaded one is sliced.
    """
    kind = cfg["data.kind"]
    if kind == "idx":
        keys = [(f"data.idx_{s}_images", f"data.idx_{s}_labels") for s in splits]
        for key in (k for pair in keys for k in pair):
            if not cfg[key]:
                raise ConfigError(f"data.kind=idx requires {key}")
            if not os.path.exists(cfg[key]):
                raise ConfigError(f"{key} file not found: {cfg[key]}")
        loaded = (load_idx(cfg[images], cfg[labels]) for images, labels in keys)
        return tuple(ds if rows is None else ds.subset(slice(*rows(len(ds))))
                     for ds in loaded)
    if kind != "shapes":
        raise ConfigError(f"unknown data.kind {kind!r}")
    seeds = {"train": cfg["train.seed"], "test": cfg["train.seed"] ^ 0x7E57DA7A}
    rendered = []
    for s in splits:
        n = cfg[f"data.n_{s}"]
        start, stop = (0, n) if rows is None else rows(n)
        rendered.append(gen_shapes(seeds[s], n, cfg["data.classes"], cfg["data.native"],
                                   cfg["data.noise"], start=start, stop=stop))
    return tuple(rendered)


def _require_file(path: str, what: str) -> str:
    if not os.path.exists(path):
        raise ConfigError(f"{what} not found: {path}")
    return path


def _load_cfg(args) -> Config:
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["train.seed"] = str(args.seed)
    return load_config(getattr(args, "config", None), overrides)


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path:
        with atomic_write(out_path) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    train_ds, test_ds = _datasets(cfg, "train", "test")
    out_dir = args.out or f"msun-{args.method}"
    try:
        spec = ExperimentSpec(args.method, cfg.backbone(), cfg.train_config(),
                              cfg.scales(), subnet_blocks=cfg["model.subnet_blocks"],
                              out_dir=out_dir)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    cfg.write_resolved(out_dir)
    result = run_experiment(spec, train_ds, test_ds)
    print(f"wrote {result.checkpoint_path} (final test accuracy "
          f"{result.final_test_accuracy:.4f})")
    return 0


def cmd_eval(args) -> int:
    _require_file(args.checkpoint, "checkpoint")
    cfg = _load_cfg(args)
    sizes = [int(s) for s in args.sizes.split(",")]
    (test,) = _datasets(cfg, "test")
    report = eval_multiscale(args.checkpoint, test, sizes)
    _emit(report.to_csv(), args.out)
    return 0


def cmd_cka(args) -> int:
    _require_file(args.checkpoint, "checkpoint")
    cfg = _load_cfg(args)
    scale_a, scale_b = (int(s) for s in args.scales.split(","))
    want = cfg["cka.probe_samples"]

    def probe_rows(n):
        # the probe is the first min(cka.probe_samples, split size) test samples;
        # a short probe fails here, before the split is rendered
        if min(want, n) < CKA_MIN_SAMPLES:
            key = ("cka.probe_samples" if want <= n else
                   "data.n_test" if cfg["data.kind"] == "shapes" else "data.idx_test_images")
            raise ConfigError(f"{key} leaves a CKA probe of {min(want, n)} samples, "
                              f"need at least {CKA_MIN_SAMPLES}")
        return 0, min(want, n)

    (probe,) = _datasets(cfg, "test", rows=probe_rows)
    model = ckpt.load_model(args.checkpoint)
    taps = None
    taps_text = args.taps if args.taps is not None else cfg["cka.taps"]
    if taps_text:
        taps = [t.strip() for t in taps_text.split(",")]
    try:
        report = layerwise_cka(model, probe.images, scale_a, scale_b, taps)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _emit(report.to_csv(), args.out)
    return 0


def cmd_flops(args) -> int:
    _require_file(args.checkpoint, "checkpoint")
    model = ckpt.load_model(args.checkpoint)
    _emit(count_flops(model, args.size).to_csv(), args.out)
    return 0


def cmd_gradcam(args) -> int:
    _require_file(args.checkpoint, "checkpoint")
    cfg = _load_cfg(args)
    model = ckpt.load_model(args.checkpoint)

    def one_sample(n):
        if not 0 <= args.index < n:
            raise ConfigError(f"--index {args.index} outside the test set (n={n})")
        return args.index, args.index + 1

    (sample,) = _datasets(cfg, "test", rows=one_sample)
    size = args.size or sample.native_size
    image = resize_images(sample.images, size, size)
    try:
        cam = grad_cam(model, image, args.cls, native_size=size)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _emit(cam.to_pgm(), args.out)
    return 0


def cmd_pca(args) -> int:
    _require_file(args.checkpoint, "checkpoint")
    cfg = _load_cfg(args)
    model = ckpt.load_model(args.checkpoint)
    (test,) = _datasets(cfg, "test")
    size = args.size or test.native_size
    coords = pca_project(tap_activations(model, test.images, size, ["pooled"])["pooled"])
    lines = ["sample_id,label,pc1,pc2"]
    for i, (label, (p1, p2)) in enumerate(zip(test.labels, coords)):
        lines.append(f"{i},{label},{p1:.8f},{p2:.8f}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_gen_data(args) -> int:
    ds = gen_shapes(args.seed, args.samples, args.classes, args.size, args.noise)
    images_path = args.out + "-images.idx"
    labels_path = args.out + "-labels.idx"
    save_idx(ds, images_path, labels_path)
    print(f"wrote {images_path} and {labels_path}")
    return 0


def cmd_ablation(args) -> int:
    cfg = _load_cfg(args)
    train_ds, test_ds = _datasets(cfg, "train", "test")
    b_values = [int(v) for v in args.B.split(",")]
    s_values = [int(v) for v in args.S.split(",")]
    rows = ablation_grid(b_values, s_values, cfg.backbone(), cfg.train_config(),
                         train_ds, test_ds, cfg["eval.sizes"])
    _emit(ABLATION_HEADER + "\n" + "\n".join(rows) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="msun",
                                     description="multi-scale unified network harness")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=False):
        p.add_argument("--config", required=config_required,
                       help="key=value configuration file")
        p.add_argument("--seed", type=int, help="override train.seed")

    p = sub.add_parser("train", help="train a model and write its artifacts")
    p.add_argument("--method", required=True, choices=["vanilla", "mst", "msun"])
    common(p, config_required=True)
    p.add_argument("--out", help="output directory (default msun-<method>)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="multi-size accuracy/FLOPs sweep")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--sizes", required=True, help="comma-separated sizes")
    common(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("cka", help="layer-wise similarity between two input scales")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--scales", required=True, help="two sizes, e.g. 16,64")
    p.add_argument("--taps", help="comma-separated tap names (default: all)")
    common(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_cka)

    p = sub.add_parser("flops", help="per-layer cost table at one input size")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_flops)

    p = sub.add_parser("gradcam", help="class-activation map as ASCII PGM")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--class", dest="cls", type=int, required=True)
    p.add_argument("--size", type=int, help="input size (default: native)")
    p.add_argument("--index", type=int, default=0, help="test-set sample index")
    common(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gradcam)

    p = sub.add_parser("pca", help="2-D projection of pooled features")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--size", type=int)
    common(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_pca)

    p = sub.add_parser("gen-data", help="write a procedural shape dataset as IDX")
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--classes", type=int, default=6)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--noise", type=float, default=0.05)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("ablation", help="train a grid over subnet blocks and counts")
    p.add_argument("--B", required=True, help="comma-separated block counts")
    p.add_argument("--S", required=True, help="comma-separated subnet counts")
    common(p, config_required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_ablation)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonFiniteError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (IdxFormatError, ckpt.SnapshotError) as exc:
        print(f"file format error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
