"""Workloads of the msun benchmark and the session each one runs.

A session is what a user of the harness does: render the shape datasets,
train ``vanilla``, ``mst`` and ``msun`` in turn, save the ``msun``
checkpoint and run the five analysis commands on it through ``cli.main``.
The workloads differ in shapes and in where the time goes (see README.md).

``Probe`` observes the package from outside. Untraced, it only times each
training step, keeping its loss breakdown, and each accuracy sweep. Traced,
it also records spans around the public functions of every module, the
named layers of each multi-scale model and the ``grad_fn`` of every tape node.
"""

from __future__ import annotations

import hashlib
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from msun import analysis, checkpoint, cli, data, experiments, layers, model, optim, tensor
from msun.config import load_config

from spans import (END, NAME, PARENT, START, STEP, TAG, Patches, Tracer, roots,
                   self_times, spanned, summary)

perf = time.perf_counter

METHODS = ("vanilla", "mst", "msun")
COMMANDS = ("eval", "cka", "flops", "gradcam", "pca")
SETUP_REPEATS = 3
GRADCAM_CLASS = 1

# the desk protocol cut to one epoch of 12 steps, so that a run repeats it
DESK_TRAIN = {"data.n_train": "1536", "data.n_test": "256",
              "train.epochs": "1", "train.warmup_epochs": "0"}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: str        # protocol file, relative to the checkout root
    train: dict        # config overrides for the three training runs
    analyze: dict      # config overrides for the analysis commands
    analysis_share: float = 0.5   # of the measured time, spent on analysis rounds


WORKLOADS = {w.name: w for w in (
    Workload("desk-train",
             "desk shapes at batch 128: im2col GEMMs and batch norm over 128x64x64 "
             "tensors dominate, so kernel and bytes-moved changes show",
             "configs/desk.cfg", DESK_TRAIN, DESK_TRAIN, 0.4),
    # Runnable, but left out of BENCHMARK.json: on a shared 2-core host its
    # times spread up to 0.26-0.40 of the median in four of six ten-seed
    # sets, above any bound the benchmark may set.
    Workload("small-train",
             "tiny residual shapes at batch 16: per-op Python and tape overhead "
             "dominate, so op-count changes show",
             "configs/tiny.cfg",
             {"model.kind": "residual", "train.batch_size": "16",
              # the tiny protocol's lr scaled to the 4x smaller batch
              "train.base_lr": "0.025", "data.n_train": "480", "data.n_test": "256",
              "train.epochs": "3", "train.warmup_epochs": "1"},
             {"model.kind": "residual", "data.n_train": "480", "data.n_test": "256"}),
    # half the desk.cfg splits, so that a run holds several analysis rounds
    Workload("desk-analyze",
             "analysis CLI on a desk checkpoint with 3000/600-image splits: forward-only "
             "passes and dataset renders dominate, training changes do not show",
             "configs/desk.cfg", DESK_TRAIN, {"data.n_train": "3000", "data.n_test": "600"},
             0.45),
)}


def protocol(wl: Workload, root: Path, seed: int):
    """(training config, analysis config) with the workload seed as train.seed."""
    base = str(root / wl.config)
    seed_key = {"train.seed": str(seed)}
    return (load_config(base, {**wl.train, **seed_key}),
            load_config(base, {**wl.analyze, **seed_key}))


def render(cfg):
    """(train, test) datasets, rendered by the rule the CLI applies to a config."""
    seed = cfg["train.seed"]
    args = (cfg["data.classes"], cfg["data.native"], cfg["data.noise"])
    return (data.gen_shapes(seed, cfg["data.n_train"], *args),
            data.gen_shapes(seed ^ 0x7E57DA7A, cfg["data.n_test"], *args))


def _finite_breakdown(b) -> bool:
    return b is not None and all(math.isfinite(v) for v in (b.total, b.si, *b.ce_per_scale))


def _digest_losses(breakdowns) -> str:
    h = hashlib.sha256()
    for b in breakdowns:
        h.update(np.asarray([b.total, b.si, *b.ce_per_scale], dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def _digest_model(m) -> str:
    h = hashlib.sha256()
    for name, arr in [(n, p.data) for n, p in m.named_params()] + m.named_buffers():
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


def _named_parts(m):
    """(name, object) for every block and layer of a model, plus the head."""
    stacks = [(f"subnet{i + 1}.", s) for i, s in enumerate(m.subnets)]
    for prefix, stack in stacks + [("unified.", m.unified)]:
        for bname, block in stack.blocks:
            yield prefix + bname, block
            for cname, child in block.children():
                yield f"{prefix}{bname}.{cname}", child
    yield "head", m.head


class Probe:
    """What the benchmark sees of the package, from outside it."""

    def __init__(self):
        self.method = None
        self.steps = []          # (method, seconds, LossBreakdown or None)
        self.sweeps = []         # seconds of each experiments.eval_multiscale call
        self.tracer = None
        self.conv_flops = 0      # conv2d forward GEMM FLOPs inside msun steps
        self.conv_cols = 0       # conv2d column-buffer bytes inside msun steps
        self.patches = Patches()
        step = model._step_with_logits

        def timed_step(*args, **kwargs):
            tr = self.tracer
            idx = -1
            if tr is not None:
                tr.step = len(self.steps)
                idx = tr.begin("model.step")
            t0 = perf()
            out = None
            try:
                out = step(*args, **kwargs)
                return out
            finally:
                dt = perf() - t0
                if tr is not None:
                    tr.end(idx)
                    tr.step = -1
                self.steps.append((self.method, dt, None if out is None else out[0]))

        self.patches.replace_function(step, timed_step)
        sweep = experiments.eval_multiscale

        def timed_sweep(*args, **kwargs):
            t0 = perf()
            try:
                return sweep(*args, **kwargs)
            finally:
                self.sweeps.append(perf() - t0)

        self.patches.replace_function(sweep, timed_sweep)

    def close(self):
        self.patches.restore()

    @contextmanager
    def region(self, name):
        """A top-level span when traced; nothing otherwise."""
        if self.tracer is None:
            yield
            return
        idx = self.tracer.begin(name)
        try:
            yield
        finally:
            self.tracer.end(idx)

    def in_msun_step(self) -> bool:
        return self.method == "msun" and self.tracer.step >= 0

    def trace(self):
        """Install the span wrappers; ``close`` removes them."""
        tr = self.tracer = Tracer()
        p = self.patches
        plain = [(layers, "batchnorm2d"), (layers, "maxpool2d"), (layers, "linear"),
                 (layers, "softmax_cross_entropy"), (layers, "resize_images"),
                 (tensor, "backward"), (model, "si_loss"),
                 (experiments, "evaluate_accuracy"), (analysis, "layerwise_cka"),
                 (analysis, "count_flops"), (analysis, "grad_cam"),
                 (analysis, "pca_project"), (checkpoint, "save_model"),
                 (checkpoint, "load_model"), (cli, "_datasets")]
        for module, attr in plain:
            fn = getattr(module, attr)
            p.replace_function(fn, spanned(tr, f"{module.__name__[5:]}.{attr}", fn))

        conv2d = layers.conv2d

        def traced_conv2d(x, weight, *args, **kwargs):
            out = tr.call("layers.conv2d", conv2d, x, weight, *args, **kwargs)
            if self.in_msun_step():
                n, m, ho, wo = out.shape
                cols = n * weight.shape[1] * weight.shape[2] * weight.shape[3] * ho * wo
                self.conv_flops += 2 * m * cols
                self.conv_cols += cols * x.data.itemsize
            return out

        p.replace_function(conv2d, traced_conv2d)

        gen_shapes = data.gen_shapes

        def traced_gen_shapes(seed, n_samples, *args, **kwargs):
            return tr.call("data.gen_shapes", gen_shapes, seed, n_samples, *args,
                           tag=n_samples, **kwargs)

        p.replace_function(gen_shapes, traced_gen_shapes)

        prefetch = data.prefetch_batches

        def traced_prefetch(*args, **kwargs):
            it = iter(prefetch(*args, **kwargs))
            while True:
                idx = tr.begin("data.batch_wait")
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tr.end(idx)
                yield item

        p.replace_function(prefetch, traced_prefetch)

        from_op = tensor.from_op

        def traced_from_op(value, op, inputs, grad_fn):
            out = from_op(value, op, inputs, grad_fn)
            node = out.node
            if node is not None:
                if self.in_msun_step():
                    tr.counts["msun_step_nodes"] += 1
                node.grad_fn = self._timed_grad(op, inputs, grad_fn, tr.scope)
            return out

        p.replace_function(from_op, traced_from_op)

        cls = model.MsunModel
        for attr in ("forward_train", "forward_infer"):
            p.set(cls, attr, spanned(tr, f"model.{attr}", getattr(cls, attr)))
        p.set(optim.SGD, "step", spanned(tr, "optim.sgd_step", optim.SGD.step))

        forward_branch = cls.forward_branch

        def counted_branch(m, i, *args, **kwargs):
            if len(m.scales) > 1:
                tr.counts[f"branch{i}"] += 1
            return forward_branch(m, i, *args, **kwargs)

        p.set(cls, "forward_branch", counted_branch)

        init = cls.__init__

        def named_init(m, *args, **kwargs):
            init(m, *args, **kwargs)
            if len(m.scales) > 1:
                # instance attributes shadow the class method; the model owns them
                for name, part in _named_parts(m):
                    part.forward = self._scoped_forward(name, part.forward)

        p.set(cls, "__init__", named_init)

    def _timed_grad(self, op, inputs, grad_fn, scope):
        tr = self.tracer
        name = "bwd." + op

        def timed(g):
            grads = tr.call(name, grad_fn, g, tag=scope)
            for x, gx in zip(inputs, grads):
                if gx is not None:
                    tr.counts["grads_computed"] += 1
                    tr.counts["grads_useful"] += x.requires_grad
            return grads

        return timed

    def _scoped_forward(self, name, forward):
        tr = self.tracer
        span = "layer." + name

        def scoped(*args, **kwargs):
            outer = tr.scope
            tr.scope = outer + (name,)
            try:
                return tr.call(span, forward, *args, **kwargs)
            finally:
                tr.scope = outer

        return scoped


# -- rounds: the three trainings; the five analysis commands -------------------

def _read_csv(path: Path):
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def check_output(cmd: str, path: Path, cfg) -> int:
    """Images the command used, read from its output; raises if it is invalid."""
    n_test = cfg["data.n_test"]
    if cmd == "eval":
        header, rows = _read_csv(path)
        sizes = [int(r[0]) for r in rows[:-1]]
        if header != "size,accuracy,flops" or sizes != list(cfg["eval.sizes"]):
            raise ValueError(f"eval rows {sizes} do not match the requested sizes")
        if rows[-1][0] != "average" or not all(0.0 <= float(r[1]) <= 1.0 for r in rows):
            raise ValueError("eval accuracy outside [0,1] or no average row")
        return n_test
    if cmd == "cka":
        header, rows = _read_csv(path)
        values = [float(r[4]) for r in rows]
        if header != "layer,scale_a,scale_b,n,cka" or not rows:
            raise ValueError("cka output has no rows")
        if not all(0.0 <= v <= 1.0 for v in values):
            raise ValueError(f"cka values outside [0,1]: {values}")
        return int(rows[0][3])
    if cmd == "flops":
        header, rows = _read_csv(path)
        layer_sum = sum(int(r[6]) for r in rows[:-2])
        if rows[-2][0] != "total" or int(rows[-2][6]) != layer_sum or layer_sum <= 0:
            raise ValueError("flops total does not match its layer rows")
        return 0
    if cmd == "gradcam":
        grid = analysis.parse_pgm(path.read_text())
        if grid.size == 0:
            raise ValueError("empty class-activation map")
        return 1
    header, rows = _read_csv(path)
    if header != "sample_id,label,pc1,pc2" or len(rows) != n_test:
        raise ValueError(f"pca has {len(rows)} rows for {n_test} test images")
    if not all(math.isfinite(float(v)) for r in rows for v in r[2:]):
        raise ValueError("non-finite pca coordinate")
    return n_test


def _cli_argv(cmd: str, ckpt: Path, cfg_path: Path, cfg, out: Path):
    base = [cmd, "--checkpoint", str(ckpt), "--out", str(out)]
    if cmd == "flops":
        return base + ["--size", str(cfg["data.native"])]
    base += ["--config", str(cfg_path)]
    if cmd == "eval":
        return base + ["--sizes", ",".join(str(s) for s in cfg["eval.sizes"])]
    if cmd == "cka":
        scales = cfg["data.scales"]
        return base + ["--scales", f"{scales[0]},{scales[-1]}"]
    if cmd == "gradcam":
        return base + ["--class", str(GRADCAM_CLASS)]
    return base


def _failure(what: str) -> None:
    print(f"perfbench: {what} failed", file=sys.stderr)
    traceback.print_exc()


def train_round(probe: Probe, cfg, datasets) -> dict:
    """Train the three methods in turn; check every step's losses."""
    train_ds, test_ds = datasets
    rec = {"attempted": 0, "failed": 0, "methods": {}, "msun_model": None}
    for method in METHODS:
        probe.method = method
        first = len(probe.steps)
        spec = experiments.ExperimentSpec(
            method, cfg.backbone(), cfg.train_config(), cfg.scales(),
            subnet_blocks=cfg["model.subnet_blocks"])
        t0 = perf()
        try:
            with probe.region("train." + method):
                result = experiments.run_experiment(spec, train_ds, test_ds)
        except Exception:
            _failure(f"training {method}")
            result = None
        seconds = perf() - t0
        probe.method = None
        steps = probe.steps[first:]
        bad = sum(not _finite_breakdown(b) for _, _, b in steps)
        rec["attempted"] += len(steps) + 1
        rec["failed"] += bad + (result is None)
        if result is None or bad:
            continue
        if method == "msun":
            rec["msun_model"] = result.model
        rec["methods"][method] = {
            "seconds": seconds, "samples": len(train_ds) * spec.train.epochs,
            "steps": len(steps), "step_seconds": [dt for _, dt, _ in steps],
            "test_accuracy": result.final_test_accuracy,
            "loss_digest": _digest_losses([b for _, _, b in steps]),
            "param_digest": _digest_model(result.model)}
    return rec


def analysis_round(probe: Probe, cfg, ckpt: Path, work: Path) -> dict:
    """The five commands on the checkpoint through ``cli.main``; check each output."""
    rec = {"attempted": 0, "failed": 0, "commands": {}, "digests": {}, "used": 0,
           "eval_images": cfg["data.n_test"] * len(cfg["eval.sizes"])}
    for cmd in COMMANDS:
        out = work / f"{cmd}.out"
        argv = _cli_argv(cmd, ckpt, work / "analyze.cfg", cfg, out)
        rec["attempted"] += 1
        first_sweep = len(probe.sweeps)
        t0 = perf()
        try:
            with probe.region("cli." + cmd):
                code = cli.main(argv)
            seconds = perf() - t0
            if code != 0:
                raise RuntimeError(f"msun {' '.join(argv)} exited {code}")
            rec["used"] += check_output(cmd, out, cfg)
            if cmd == "eval":
                sweeps = probe.sweeps[first_sweep:]
                if len(sweeps) != 1:
                    raise RuntimeError(f"msun eval ran {len(sweeps)} sweeps, not one")
                rec["sweep_seconds"] = sweeps[0]
        except Exception:
            _failure(f"msun {cmd}")
            rec["failed"] += 1
            continue
        rec["commands"][cmd] = seconds
        rec["digests"][cmd] = hashlib.sha256(out.read_bytes()).hexdigest()[:16]
    return rec


# -- the session --------------------------------------------------------------

def _setup(probe, wl, root, seed, work):
    """Configs written, datasets rendered; (seconds, configs, datasets)."""
    t0 = perf()
    with probe.region("setup"):
        if work.exists():
            shutil.rmtree(work)
        work.mkdir(parents=True)
        train_cfg, analyze_cfg = protocol(wl, root, seed)
        (work / "analyze.cfg").write_text(analyze_cfg.resolved_text())
        datasets = render(train_cfg)
    return perf() - t0, (train_cfg, analyze_cfg), datasets


def _interleave(kinds: dict, seconds: float, t0: float, done: dict) -> dict:
    """Rounds of each kind, interleaved until ``seconds`` after ``t0``.

    ``kinds`` maps a name to (run, share of the time); ``done`` maps a name to
    the durations of rounds of it already run. The kind furthest below its
    share runs next. A round is not started if it would end past the deadline,
    judged by the last round of its kind; every kind runs at least once.
    Returns name -> results of the rounds run here.
    """
    durations = {k: list(done.get(k, ())) for k in kinds}
    out = {k: [] for k in kinds}
    while True:
        left = seconds - (perf() - t0)
        todo = [k for k in kinds if not durations[k]] or [
            k for k in kinds if durations[k][-1] <= left]
        if not todo:
            return out
        kind = min(todo, key=lambda k: sum(durations[k]) / kinds[k][1])
        start = perf()
        out[kind].append(kinds[kind][0]())
        durations[kind].append(perf() - start)


def _phases(probe, rec, cfgs, datasets, work, seconds, share):
    """Training and analysis rounds, interleaved for ``seconds``, into ``rec``.

    The first training round's ``msun`` model is saved as the checkpoint every
    analysis round reads. With ``seconds`` 0, each kind runs once.
    """
    train_cfg, analyze_cfg = cfgs
    t0 = perf()
    first = train_round(probe, train_cfg, datasets)
    first_s = perf() - t0
    ckpt = work / "msun.ckpt"
    rec["attempted"] += 1
    try:
        checkpoint.save_model(str(ckpt), first.pop("msun_model"))
    except Exception:
        _failure("saving the msun checkpoint")
        rec["failed"] += 1
        return [first], []

    def train():
        r = train_round(probe, train_cfg, datasets)
        del r["msun_model"]
        return r

    rounds = _interleave(
        {"train": (train, 1.0 - share),
         "analysis": (lambda: analysis_round(probe, analyze_cfg, ckpt, work), share)},
        seconds, t0, {"train": [first_s]})
    return [first] + rounds["train"], rounds["analysis"]


def _check_repeats(rec, trains, analyses):
    """Every round must reproduce the first one's arithmetic and outputs exactly."""
    keys = ("test_accuracy", "loss_digest", "param_digest")
    first = trains[0]["methods"]
    for r in trains[1:]:
        rec["attempted"] += 1
        if r["methods"].keys() != first.keys() or any(
                r["methods"][m][k] != first[m][k] for m in first for k in keys):
            print("perfbench: a repeated training changed accuracy or digests",
                  file=sys.stderr)
            rec["failed"] += 1
    for r in analyses[1:]:
        rec["attempted"] += 1
        if r["digests"] != analyses[0]["digests"]:
            print("perfbench: a repeated command changed its output", file=sys.stderr)
            rec["failed"] += 1


def session(wl: Workload, root: Path, seed: int, seconds: float, traced: bool,
            work: Path, import_s: float = 0.0) -> dict:
    """Run the workload; the record holds rounds, checks and, if traced, spans.

    Untraced, training and analysis rounds are interleaved for ``seconds``
    after the set-ups, the workload's ``analysis_share`` of it on analysis.
    Traced, one untraced set-up and round of each kind is the reference, and
    one traced set-up and round of each follows.
    """
    probe = Probe()
    try:
        setups = []
        t0 = perf()
        for _ in range(1 if traced else SETUP_REPEATS):
            dt, cfgs, datasets = _setup(probe, wl, root, seed, work)
            setups.append(dt)
        rec = {"setup_seconds": [import_s + s for s in setups], "attempted": 0, "failed": 0}
        trains, analyses = _phases(probe, rec, cfgs, datasets, work,
                                   0.0 if traced else seconds, wl.analysis_share)
        if traced:
            untraced_s = perf() - t0
            probe.steps.clear()
            probe.trace()
            t1 = perf()
            _, cfgs, datasets = _setup(probe, wl, root, seed, work)
            traced_train, traced_analysis = _phases(probe, rec, cfgs, datasets, work, 0.0,
                                                    wl.analysis_share)
            rec["overhead_share"] = (perf() - t1) / untraced_s - 1.0
            rec["traced"] = {"train": traced_train[0],
                             "analysis": traced_analysis[0] if traced_analysis else None}
            rec["probe"] = probe
            trains, analyses = trains + traced_train, analyses + traced_analysis
        _check_repeats(rec, trains, analyses)
        rec["train"], rec["analysis"] = trains, analyses
        rec["attempted"] += sum(r["attempted"] for r in trains + analyses)
        rec["failed"] += sum(r["failed"] for r in trains + analyses)
        rec["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return rec
    finally:
        probe.close()


# -- metrics --------------------------------------------------------------------

def _tail(values):
    """Highest percentile with at least ten samples beyond it: (value, percentile)."""
    ordered = sorted(values)
    k = max(0, len(ordered) - 11)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(rec: dict) -> dict:
    """name -> (value, unit) from an untraced run: medians over its rounds."""
    trains = [r for r in rec["train"] if set(r["methods"]) == set(METHODS)]
    analyses = [r for r in rec["analysis"] if set(r["commands"]) == set(COMMANDS)]
    if not trains or not analyses:
        raise RuntimeError("no round completed every training or every command")
    med = statistics.median
    out = {"setup_s": (med(rec["setup_seconds"]), "s")}
    for m in METHODS:
        out[f"{m}_samples_per_s"] = (med(r["methods"][m]["samples"] / r["methods"][m]["seconds"]
                                         for r in trains), "1/s")
    steps = [dt * 1e3 for r in trains for dt in r["methods"]["msun"]["step_seconds"]]
    out["msun_step_ms_p50"] = (med(steps), "ms")
    out["msun_step_ms_tail"] = (_tail(steps)[0], "ms")
    out["eval_images_per_s"] = (med(r["eval_images"] / r["sweep_seconds"]
                                    for r in analyses), "1/s")
    out["cka_s"] = (med(r["commands"]["cka"] for r in analyses), "s")
    out["analysis_session_s"] = (med(sum(r["commands"].values()) for r in analyses), "s")
    out["peak_rss_mb"] = (rec["peak_rss_mb"], "MB")
    out["ops_ok_share"] = (1.0 - rec["failed"] / rec["attempted"], "share")
    return out


# bilinear_resize is left out: only models without subnets (B=0) call it, and
# no workload trains one
LAYER_OPS = ("conv2d", "batchnorm2d", "maxpool2d", "linear", "softmax_cross_entropy")
NAMED_LAYERS = ("subnet1.stem.conv", "subnet2.stem.conv", "subnet3.stem.conv",
                "subnet1.stem.bn", "subnet2.stem.bn", "subnet3.stem.bn",
                "unified.block1", "unified.block2", "head")


def per_layer(rec: dict) -> dict:
    """name -> (value, unit) from the traced set-up and rounds.

    Times are milliseconds summed over that set-up and those rounds; counts and
    ratios are exact and repeat run to run for a seed.
    """
    probe = rec["probe"]
    tr = probe.tracer
    spans = tr.spans
    top = roots(spans)
    selfs = self_times(spans)
    table = summary(spans)
    counts = tr.counts

    def total(name, where=lambda root: True):
        return sum(s[END] - s[START] for s, r in zip(spans, top)
                   if s[NAME] == name and where(r)) * 1e3

    out = {}
    for op in LAYER_OPS:
        out[f"layers.{op}.fwd_ms"] = (total("layers." + op), "ms")
        out[f"layers.{op}.bwd_ms"] = (total("bwd." + op), "ms")
        out[f"layers.{op}.calls"] = (table.get("layers." + op, {"calls": 0})["calls"], "count")
    out["layers.resize_images_ms"] = (total("layers.resize_images"), "ms")
    msun_steps = [s for s, r in zip(spans, top) if s[NAME] == "model.step" and r == "train.msun"]
    n_steps = len(msun_steps)
    out["layers.conv2d.gflop_per_step"] = (3 * probe.conv_flops / n_steps / 1e9, "GFLOP")
    out["layers.conv2d.im2col_mb_per_step"] = (2 * probe.conv_cols / n_steps / 1e6, "MB")

    named_fwd = {n: 0.0 for n in NAMED_LAYERS}
    named_bwd = {n: 0.0 for n in NAMED_LAYERS}
    for s, r in zip(spans, top):
        if r != "train.msun":
            continue
        if s[NAME].startswith("layer.") and s[NAME][6:] in named_fwd:
            named_fwd[s[NAME][6:]] += s[END] - s[START]
        elif s[NAME].startswith("bwd.") and s[TAG]:
            for n in s[TAG]:
                if n in named_bwd:
                    named_bwd[n] += s[END] - s[START]
    for n in NAMED_LAYERS:
        out[f"layer.{n}.fwd_ms"] = (named_fwd[n] * 1e3, "ms")
        out[f"layer.{n}.bwd_ms"] = (named_bwd[n] * 1e3, "ms")

    out["tensor.backward_ms"] = (total("tensor.backward"), "ms")
    out["tensor.backward_self_ms"] = (sum(o for s, o in zip(spans, selfs)
                                          if s[NAME] == "tensor.backward") * 1e3, "ms")
    out["tensor.tape_nodes_per_step"] = (counts["msun_step_nodes"] / n_steps, "count")
    out["tensor.useful_grad_ratio"] = (counts["grads_useful"] / counts["grads_computed"], "share")

    out["model.forward_train_ms"] = (total("model.forward_train"), "ms")
    out["model.si_loss_ms"] = (total("model.si_loss"), "ms")
    out["model.forward_infer_ms"] = (total("model.forward_infer"), "ms")
    for i in range(3):
        out[f"model.branch_calls.{i}"] = (counts[f"branch{i}"], "count")
    out["optim.sgd_step_ms"] = (total("optim.sgd_step"), "ms")
    out["data.gen_shapes_ms"] = (total("data.gen_shapes"), "ms")
    out["data.batch_wait_ms"] = (total("data.batch_wait"), "ms")
    out["experiments.evaluate_accuracy_ms"] = (
        total("experiments.evaluate_accuracy", lambda r: r.startswith("train.")), "ms")
    traced = rec["traced"]["train"]["methods"]
    for m in METHODS:
        out[f"experiments.{m}_test_accuracy"] = (traced[m]["test_accuracy"], "share")
    for fn in ("layerwise_cka", "count_flops", "grad_cam", "pca_project"):
        out[f"analysis.{fn}_ms"] = (total("analysis." + fn), "ms")
    for fn in ("save_model", "load_model"):
        out[f"checkpoint.{fn}_ms"] = (total("checkpoint." + fn), "ms")
    out["cli.dataset_ms"] = (total("cli._datasets"), "ms")
    rendered = sum(s[TAG] for s, r in zip(spans, top)
                   if s[NAME] == "data.gen_shapes" and r.startswith("cli."))
    out["cli.data_useful_ratio"] = (rec["traced"]["analysis"]["used"] / rendered, "share")

    step_total = sum(s[END] - s[START] for s in msun_steps)
    step_self = sum(o for s, o, r in zip(spans, selfs, top)
                    if s[NAME] == "model.step" and r == "train.msun")
    out["trace.msun_step_uncovered_share"] = (step_self / step_total, "share")
    out["trace.overhead_share"] = (rec["overhead_share"], "share")
    return out


def span_dump(rec: dict) -> dict:
    """Spans and their per-name summary, for the traced run's output file."""
    spans = rec["probe"].tracer.spans
    t0 = spans[0][START] if spans else 0.0
    return {"fields": ["name", "start_ms", "end_ms", "parent", "step", "tag"],
            "spans": [[s[NAME], round((s[START] - t0) * 1e3, 4), round((s[END] - t0) * 1e3, 4),
                       s[PARENT], s[STEP], list(s[TAG]) if isinstance(s[TAG], tuple) else s[TAG]]
                      for s in spans],
            "summary": summary(spans)}
