"""Acceptance suite: every criterion asserted at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. The desk-scale trend criteria (6 and 7) share one session
fixture that trains all three methods over three seeds; that fixture is the
long pole (several minutes of CPU).
"""

import os
import time

import numpy as np
import pytest

from msun import (BackboneSpec, MsunModel, Rng, ScaleSet, Tensor, TrainConfig,
                  build_vanilla, cka, gen_shapes, grad_check, layerwise_cka, load_idx,
                  route_scale, save_idx, si_loss, total_loss)
from msun.analysis import count_flops, count_params, grad_cam, parse_pgm
from msun.cli import main as cli_main
from msun.experiments import ExperimentSpec, eval_multiscale, run_experiment
from msun.layers import (batchnorm2d, bilinear_resize, conv2d, global_avg_pool,
                         linear, maxpool2d, softmax_cross_entropy)
from msun.model import _step_with_logits
from msun.optim import SGD
from msun.tensor import backward, maximum_scalar, mul, relu, tsum

import oracles

TINY_CFG = os.path.join(os.path.dirname(__file__), "..", "configs", "tiny.cfg")


def check(criterion: int, description: str, passed: bool, detail: str = ""):
    verdict = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion:2d}] {verdict}: {description}" +
          (f" ({detail})" if detail else ""))
    assert passed, f"criterion {criterion}: {description} {detail}"


# --------------------------------------------------------------------------
# criterion 1: gradient correctness, < 1e-3 over >= 100 seeds, < 2 min
# --------------------------------------------------------------------------

def _layer_cases(rng):
    def t(shape, scale=1.0, offset=0.0):
        return Tensor((rng.normal(shape) * scale + offset).astype(np.float32))

    sq = lambda y: tsum(mul(y, y))
    x4 = t((2, 2, 6, 6), 0.5, 0.3)
    w = t((3, 2, 3, 3), 0.4)
    b = t((3,), 0.2)
    gamma, beta = t((2,), 0.3, 1.0), t((2,), 0.2)
    mix = t((2, 2, 6, 6))
    weighted = lambda y: tsum(mul(mul(y, mix), mul(y, mix)))
    logits = t((3, 4), 2.0)
    labels = np.array([0, 3, 1])
    xl, wl, bl = t((3, 5)), t((4, 5)), t((4,))

    rm = np.zeros(2, np.float32)
    rv = np.ones(2, np.float32)
    return [
        ("conv2d", x4, lambda v: sq(conv2d(v, w, b, 2, 1))),
        ("conv2d_weight", w, lambda v: sq(conv2d(x4, v, b, 1, 1))),
        ("maxpool2d", x4, lambda v: sq(maxpool2d(v, 2, 2))),
        ("global_avg_pool", x4, lambda v: sq(global_avg_pool(v))),
        ("batchnorm_train", x4,
         lambda v: weighted(batchnorm2d(v, gamma, beta, rm.copy(), rv.copy(), True))),
        ("batchnorm_eval", x4,
         lambda v: weighted(batchnorm2d(v, gamma, beta, rm.copy(), rv.copy(), False))),
        ("linear", xl, lambda v: sq(linear(v, wl, bl))),
        ("softmax_ce", logits, lambda v: softmax_cross_entropy(v, labels)),
        ("resize_up", x4, lambda v: sq(bilinear_resize(v, 9, 7))),
        ("resize_down", x4, lambda v: sq(bilinear_resize(v, 3, 4))),
        ("relu", xl, lambda v: sq(relu(v))),
        ("clamp", xl, lambda v: maximum_scalar(sq(v), 1e-4)),
    ]


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    worst = {}
    for seed in range(100):
        rng = Rng(10_000 + seed)
        pick = Rng(seed ^ 0xABCD)
        for name, x, f in _layer_cases(rng):
            sample = sorted({pick.randint(x.size) for _ in range(6)})
            err = grad_check(f, x, h=1e-3, skip_nonsmooth=True, sample=sample)
            worst[name] = max(worst.get(name, 0.0), err)

    # the full multi-branch loss through resize, subnets, shared net and clamp
    spec = BackboneSpec((4,), (1,), "plain", 2, 8)
    scales = ScaleSet([4, 8])
    labels = np.array([0, 1])
    for seed in range(100):
        model = MsunModel(spec, scales, 1, Rng(20_000 + seed)).train()
        rng = Rng(30_000 + seed)
        x = Tensor((rng.normal((2, 3, 8, 8)) * 0.4 + 0.5).astype(np.float32))

        def full_loss(t):
            views = [bilinear_resize(t, s, s) for s in scales]
            logits, feats = model.forward_train(views)
            loss, _ = total_loss(logits, labels, si_loss(feats), 0.05)
            return loss

        pick = Rng(seed ^ 0xF0F0)
        sample = sorted({pick.randint(x.size) for _ in range(8)})
        err = grad_check(full_loss, x, h=1e-3, skip_nonsmooth=True, sample=sample)
        worst["full_msun_loss"] = max(worst.get("full_msun_loss", 0.0), err)

    elapsed = time.perf_counter() - t0
    bad = {k: v for k, v in worst.items() if v >= 1e-3}
    check(1, "every layer and the full loss match finite differences < 1e-3 "
             "over 100 seeds within 2 min",
          not bad and elapsed < 120,
          f"worst={max(worst.values()):.2e}, elapsed={elapsed:.1f}s, offenders={bad}")


# --------------------------------------------------------------------------
# criterion 2: naive-loop oracle equivalence on >= 50 random shapes each
# --------------------------------------------------------------------------

def test_criterion_2_oracle_equivalence():
    worst = 0.0
    for seed in range(50):
        rng = Rng(40_000 + seed)
        n, c, m = 1 + rng.randint(2), 1 + rng.randint(3), 1 + rng.randint(3)
        k = (1, 3, 5)[rng.randint(3)]
        stride, pad = 1 + rng.randint(2), rng.randint(k // 2 + 1)
        size = k + 2 + rng.randint(4)
        x = rng.normal((n, c, size, size)).astype(np.float32)
        w = rng.normal((m, c, k, k)).astype(np.float32) * 0.5
        b = rng.normal((m,)).astype(np.float32) * 0.2
        got = conv2d(Tensor(x), Tensor(w), Tensor(b), stride, pad).data
        worst = max(worst, float(np.max(np.abs(got - oracles.conv2d_loops(x, w, b, stride, pad)))))

        win = 2 + rng.randint(2)
        ps = 1 + rng.randint(win)
        xp = rng.normal((n, c, win + 2 + rng.randint(3), win + 2 + rng.randint(3))).astype(np.float32)
        got = maxpool2d(Tensor(xp), win, ps).data
        worst = max(worst, float(np.max(np.abs(got - oracles.maxpool2d_loops(xp, win, ps)))))

        nb, cc = 1 + rng.randint(5), 2 + rng.randint(5)
        logits = (rng.normal((nb, cc)) * 3).astype(np.float32)
        lab = np.array([rng.randint(cc) for _ in range(nb)])
        got_ce = float(softmax_cross_entropy(Tensor(logits), lab).data)
        worst = max(worst, abs(got_ce - oracles.softmax_ce_direct(logits, lab)))

        h, wd = 1 + rng.randint(7), 1 + rng.randint(7)
        oh, ow = 1 + rng.randint(9), 1 + rng.randint(9)
        xr = rng.normal((1 + rng.randint(2), 1 + rng.randint(2), h, wd)).astype(np.float32)
        got = bilinear_resize(Tensor(xr), oh, ow).data
        worst = max(worst, float(np.max(np.abs(got - oracles.bilinear_resize_loops(xr, oh, ow)))))

    check(2, "conv/pool/softmax-CE/resize match naive loop oracles < 1e-5 on 50 shapes each",
          worst < 1e-5, f"worst abs diff {worst:.2e}")


# --------------------------------------------------------------------------
# criterion 3: CKA property suite
# --------------------------------------------------------------------------

def test_criterion_3_cka_properties():
    rng = Rng(0xC0A)
    ok = True
    detail = ""
    for trial in range(1000):
        n = 3 + rng.randint(6)
        x = rng.normal((n, 1 + rng.randint(5)))
        y = rng.normal((n, 1 + rng.randint(5)))
        v = cka(x, y)
        ok &= -1e-9 <= v <= 1.0 + 1e-9
        ok &= abs(v - cka(y, x)) < 1e-12
        ok &= abs(cka(x, x) - 1.0) < 1e-9
        q, _ = np.linalg.qr(rng.normal((y.shape[1], y.shape[1])))
        ok &= abs(cka(x, y @ q) - v) < 1e-9
        ok &= abs(cka(1e-3 + abs(rng.uniform()) * 3 * x, y) - v) < 1e-9
        if not ok:
            detail = f"failed at trial {trial}"
            break
    oracle_worst = 0.0
    for seed in range(25):
        r2 = Rng(50_000 + seed)
        x = r2.normal((4, 2))
        y = r2.normal((4, 3))
        oracle_worst = max(oracle_worst, abs(cka(x, y) - oracles.cka_direct(x, y)))
    ok &= oracle_worst < 1e-10
    check(3, "CKA reflexivity/symmetry/range/invariance on 1000 pairs and "
             "direct-summation oracle to 1e-10",
          ok, detail or f"oracle worst {oracle_worst:.1e}")


# --------------------------------------------------------------------------
# criterion 4: FLOPs/params exactness
# --------------------------------------------------------------------------

def test_criterion_4_flops_params_exact():
    # three conv layers, audited by hand with 2*n*m*k^2*H'*W'
    spec = BackboneSpec((8, 4), (1, 1), "plain", 5, 32)
    model = build_vanilla(spec, Rng(0))
    report = count_flops(model, 32)
    by_name = {r.layer: r.flops for r in report.rows}
    audited = {
        "unified.stem.conv": 2 * 3 * 8 * 5 ** 2 * 16 * 16,
        "unified.block1.conv": 2 * 8 * 8 * 3 ** 2 * 8 * 8,
        "unified.block2.conv": 2 * 8 * 4 * 3 ** 2 * 4 * 4,
        "head": 2 * 4 * 5,
    }
    flops_ok = by_name == audited and report.total_flops == sum(audited.values())

    big = BackboneSpec((8, 16), (1, 1), "plain", 6, 64)
    b0 = count_params(MsunModel(big, ScaleSet([16, 32, 64]), 0, Rng(0)))
    van = count_params(build_vanilla(big, Rng(0)))
    check(4, "hand-audited conv fixture matches the spatially extended cost "
             "formula exactly; zero-block multi-scale params equal the "
             "single-branch count",
          flops_ok and b0 == van, f"flops={by_name}, b0={b0}, vanilla={van}")


# --------------------------------------------------------------------------
# criterion 5: routing law, exhaustive sweep against brute force
# --------------------------------------------------------------------------

def test_criterion_5_routing_law():
    ok = True
    for sizes in ([32, 128, 224], [16, 32, 64], [8, 48, 96, 224]):
        sc = ScaleSet(sizes)
        for size in range(8, 257):
            brute = min(range(len(sizes)), key=lambda i: (abs(size - sizes[i]), sizes[i]))
            ok &= route_scale(size, sc) == brute
    check(5, "nearest-scale routing equals argmin brute force on sizes 8..256 "
             "with the smaller-size tie-break", ok)


# --------------------------------------------------------------------------
# criteria 6 and 7: desk-scale trend protocol, median of 3 seeds
# --------------------------------------------------------------------------

BACKBONE = BackboneSpec((8, 16), (1, 1), "plain", 6, 64)
SCALES = ScaleSet([16, 32, 64])
SWEEP = (16, 24, 32, 40, 48, 56, 64)
SEEDS = (0, 1, 2)
EPOCHS = 6


@pytest.fixture(scope="session")
def trend_protocol():
    t0 = time.perf_counter()
    runs = {}
    for seed in SEEDS:
        train = gen_shapes(seed, 6000, 6, 64)
        test = gen_shapes(seed ^ 0x7E57DA7A, 1200, 6, 64)
        per_seed = {}
        for method in ("vanilla", "mst", "msun"):
            cfg = TrainConfig(epochs=EPOCHS, warmup_epochs=2, batch_size=128, seed=seed)
            spec = ExperimentSpec(method, BACKBONE, cfg, SCALES)
            result = run_experiment(spec, train, test)
            per_seed[method] = {
                "model": result.model,
                "report": eval_multiscale(result.model, test, SWEEP),
                "probe": test.images[:256],
                "log": result.log_rows,
            }
        runs[seed] = per_seed
    return {"runs": runs, "elapsed": time.perf_counter() - t0}


def _median(values):
    return float(np.median(np.asarray(values)))


@pytest.mark.slow
def test_criterion_6_desk_scale_trends(trend_protocol):
    runs = trend_protocol["runs"]
    gap16 = _median([runs[s]["msun"]["report"].rows[0].accuracy
                     - runs[s]["vanilla"]["report"].rows[0].accuracy for s in SEEDS])
    gap64 = _median([runs[s]["vanilla"]["report"].rows[-1].accuracy
                     - runs[s]["msun"]["report"].rows[-1].accuracy for s in SEEDS])
    avg_gap = _median([runs[s]["msun"]["report"].average
                       - runs[s]["mst"]["report"].average for s in SEEDS])
    flops_ok = all(runs[s]["msun"]["report"].mean_flops
                   < runs[s]["vanilla"]["report"].mean_flops for s in SEEDS)
    elapsed = trend_protocol["elapsed"]
    # each seed's 16 px, 64 px and sweep-average accuracy per method
    per_seed = "; ".join(
        f"seed {s} {m} {r.rows[0].accuracy:.4f}/{r.rows[-1].accuracy:.4f}/{r.average:.4f}"
        for s in SEEDS for m in ("vanilla", "mst", "msun") for r in [runs[s][m]["report"]])
    check(6, "multi-branch training beats the fixed-size baseline by >= 10 points "
             "at 16px, stays within 3 points at 64px, beats multi-scale-training "
             "on average, and costs fewer mean FLOPs, in under 20 CPU-minutes",
          gap16 >= 0.10 and gap64 <= 0.03 and avg_gap >= 0.0 and flops_ok
          and elapsed < 1200,
          f"gap16={gap16:.3f}, gap64={gap64:.3f}, avg_gap={avg_gap:.3f}, "
          f"elapsed={elapsed:.0f}s; 16px/64px/average: {per_seed}")


@pytest.mark.slow
def test_trend_vanilla_learnability_and_size_gap(trend_protocol):
    """The mini backbone masters the shapes at native size but degrades on
    upsampled small inputs, and multi-scale training flips both directions."""
    runs = trend_protocol["runs"]
    van64 = _median([runs[s]["vanilla"]["report"].rows[-1].accuracy for s in SEEDS])
    van16 = _median([runs[s]["vanilla"]["report"].rows[0].accuracy for s in SEEDS])
    mst16 = _median([runs[s]["mst"]["report"].rows[0].accuracy for s in SEEDS])
    mst64 = _median([runs[s]["mst"]["report"].rows[-1].accuracy for s in SEEDS])
    assert van64 > 0.9, f"native-size accuracy {van64:.3f}"
    assert van64 > van16, "native size should beat upsampled small inputs"
    assert mst16 > van16, "mixed-size training should help at the small end"
    assert mst64 < van64, "and pay for it at the large end"


@pytest.mark.slow
def test_trend_si_term_decreases(trend_protocol):
    """Median invariance penalty falls from the first to the last epoch."""
    runs = trend_protocol["runs"]
    drops = []
    for s in SEEDS:
        si = [float(r.split(",")[4]) for r in runs[s]["msun"]["log"] if ",train," in r]
        drops.append(si[0] - si[-1])
    assert _median(drops) > 0.0, f"per-seed drops {np.round(drops, 4)}"


@pytest.mark.slow
def test_trend_linear_probe_direction(trend_protocol):
    """Probing frozen features on a small-size target favors the multi-branch
    model over the fixed-size baseline."""
    from msun.experiments import linear_probe
    runs = trend_protocol["runs"]
    target = gen_shapes(777, 360, 4, 16)
    diffs = []
    for s in SEEDS:
        msun_acc = linear_probe(runs[s]["msun"]["model"], target, epochs=8, seed=1)
        van_acc = linear_probe(runs[s]["vanilla"]["model"], target, epochs=8, seed=1)
        diffs.append(msun_acc - van_acc)
    assert _median(diffs) >= 0.0, f"per-seed probe gaps {np.round(diffs, 4)}"


@pytest.mark.slow
def test_criterion_7_final_tap_similarity(trend_protocol):
    runs = trend_protocol["runs"]
    diffs = []
    for s in SEEDS:
        msun_v = layerwise_cka(runs[s]["msun"]["model"], runs[s]["msun"]["probe"],
                               16, 64, taps=["pooled"]).rows[0].value
        van_v = layerwise_cka(runs[s]["vanilla"]["model"], runs[s]["vanilla"]["probe"],
                              16, 64, taps=["pooled"]).rows[0].value
        diffs.append(msun_v - van_v)
    med = _median(diffs)
    check(7, "final-tap CKA between smallest and largest scales is higher for "
             "the multi-branch model than for the fixed-size baseline "
             "(median of 3 seeds)",
          med > 0.0, f"median diff {med:+.4f}, per-seed {np.round(diffs, 4)}")


# --------------------------------------------------------------------------
# criterion 8: clamp semantics on both branches
# --------------------------------------------------------------------------

def test_criterion_8_clamp_behavior():
    spec = BackboneSpec((6,), (1,), "plain", 3, 16)
    scales = ScaleSet([8, 16])
    rng = Rng(0xC1A)
    batches = [Tensor(np.clip(rng.uniform((6, 3, s, s)), 0, 1).astype(np.float32))
               for s in scales]
    labels = np.array([0, 1, 2, 0, 1, 2])

    # lambda huge: parameter trajectories must be bit-identical to pure-CE steps
    model_a = MsunModel(spec, scales, 1, Rng(3)).train()
    model_b = MsunModel(spec, scales, 1, Rng(3)).train()
    opt_a = SGD(model_a.named_params(), 0.9, 0.0)
    opt_b = SGD(model_b.named_params(), 0.9, 0.0)
    all_clamped = True
    for _ in range(5):
        bd, _ = _step_with_logits(model_a, batches, labels, opt_a, 1e3, 0.05)
        all_clamped &= bd.clamped
        # pure cross-entropy reference step (the max term is a constant here)
        model_b.zero_grad()
        logits, _ = model_b.forward_train(batches)
        loss = softmax_cross_entropy(logits[0], labels)
        for lg in logits[1:]:
            loss = loss + softmax_cross_entropy(lg, labels)
        backward(loss)
        opt_b.step(0.05)
    identical = all(np.array_equal(pa.data, pb.data) for (_, pa), (_, pb)
                    in zip(model_a.named_params(), model_b.named_params()))

    # lambda zero: the invariance term must push gradients at initialization
    model_c = MsunModel(spec, scales, 1, Rng(3)).train()
    model_c.zero_grad()
    _, feats = model_c.forward_train(batches)
    backward(maximum_scalar(si_loss(feats), 0.0))
    nonzero = any(np.any(p.grad) for p in model_c.parameters())

    check(8, "lambda=1e3 clamps the invariance gradient to zero every step; "
             "lambda=0 leaves it nonzero at initialization",
          all_clamped and identical and nonzero,
          f"clamped={all_clamped}, trajectories identical={identical}, "
          f"nonzero at init={nonzero}")


# --------------------------------------------------------------------------
# criterion 9: byte-identical artifacts over a full pipeline rerun
# --------------------------------------------------------------------------

def test_criterion_9_pipeline_determinism(tmp_path):
    def pipeline(tag):
        root = tmp_path / tag
        root.mkdir()
        data_prefix = str(root / "data")
        assert cli_main(["gen-data", "--out", data_prefix, "--seed", "11",
                         "--samples", "300", "--classes", "4", "--size", "32"]) == 0
        cfg = root / "run.cfg"
        cfg.write_text(f"""data.kind = idx
data.idx_train_images = {data_prefix}-images.idx
data.idx_train_labels = {data_prefix}-labels.idx
data.idx_test_images = {data_prefix}-images.idx
data.idx_test_labels = {data_prefix}-labels.idx
data.scales = 8,16,32
data.native = 32
model.widths = 6,12
train.epochs = 2
train.warmup_epochs = 1
train.batch_size = 64
train.seed = 4
cka.probe_samples = 64
""")
        out = root / "run"
        assert cli_main(["train", "--method", "msun", "--config", str(cfg),
                         "--out", str(out)]) == 0
        ckpt = str(out / "checkpoint.msun")
        assert cli_main(["eval", "--checkpoint", ckpt, "--sizes", "8,16,32",
                         "--config", str(cfg), "--out", str(out / "eval.csv")]) == 0
        assert cli_main(["cka", "--checkpoint", ckpt, "--scales", "8,32",
                         "--config", str(cfg), "--out", str(out / "cka.csv")]) == 0
        return {name: (out / name).read_bytes()
                for name in ("train_log.csv", "eval.csv", "cka.csv", "checkpoint.msun")}

    first = pipeline("one")
    second = pipeline("two")
    same = {name: first[name] == second[name] for name in first}
    check(9, "two gen->train->eval->cka pipeline runs with equal seeds produce "
             "byte-identical artifacts", all(same.values()), str(same))


# --------------------------------------------------------------------------
# criterion 10: golden interface formats
# --------------------------------------------------------------------------

def test_criterion_10_golden_interfaces(tmp_path):
    ok, notes = True, []

    # committed flops golden file (also exercised by the CLI test suite)
    out = tmp_path / "run"
    assert cli_main(["train", "--method", "msun", "--config", TINY_CFG,
                     "--out", str(out)]) == 0
    ckpt = str(out / "checkpoint.msun")
    flops_csv = tmp_path / "flops.csv"
    assert cli_main(["flops", "--checkpoint", ckpt, "--size", "32",
                     "--out", str(flops_csv)]) == 0
    golden = open(os.path.join(os.path.dirname(__file__), "fixtures",
                               "flops_tiny_32.csv")).read()
    if flops_csv.read_text() != golden:
        ok, _ = False, notes.append("flops CSV differs from committed fixture")

    # EvalReport schema
    eval_csv = tmp_path / "eval.csv"
    assert cli_main(["eval", "--checkpoint", ckpt, "--sizes", "8,16,32",
                     "--config", TINY_CFG, "--out", str(eval_csv)]) == 0
    lines = eval_csv.read_text().strip().split("\n")
    if lines[0] != "size,accuracy,flops" or not lines[-1].startswith("average,"):
        ok, _ = False, notes.append("eval CSV schema")
    for row in lines[1:-1]:
        size, acc, flops = row.split(",")
        int(size), float(acc), int(flops)

    # CkaReport schema
    cka_csv = tmp_path / "cka.csv"
    assert cli_main(["cka", "--checkpoint", ckpt, "--scales", "8,32",
                     "--config", TINY_CFG, "--out", str(cka_csv)]) == 0
    lines = cka_csv.read_text().strip().split("\n")
    if lines[0] != "layer,scale_a,scale_b,n,cka":
        ok, _ = False, notes.append("cka CSV schema")
    for row in lines[1:]:
        layer, a, b, n, v = row.split(",")
        if not (0.0 <= float(v) <= 1.0 + 1e-9):
            ok, _ = False, notes.append(f"cka value {v} out of range")

    # PGM via the package's own reader
    pgm = tmp_path / "cam.pgm"
    assert cli_main(["gradcam", "--checkpoint", ckpt, "--class", "0",
                     "--size", "32", "--config", TINY_CFG, "--out", str(pgm)]) == 0
    grid = parse_pgm(pgm.read_text())
    if grid.min() < 0 or grid.max() > 255:
        ok, _ = False, notes.append("PGM range")

    # IDX round trip at u8 precision
    ds = gen_shapes(21, 24, 4, 32)
    save_idx(ds, str(tmp_path / "i.idx"), str(tmp_path / "l.idx"))
    back = load_idx(str(tmp_path / "i.idx"), str(tmp_path / "l.idx"))
    if np.max(np.abs(back.images - np.rint(ds.images * 255) / 255)) > 1e-7:
        ok, _ = False, notes.append("IDX round trip lossy")
    if not np.array_equal(back.labels, ds.labels):
        ok, _ = False, notes.append("IDX labels differ")

    check(10, "eval/CKA/FLOPs CSVs, the activation-map PGM and IDX round-trips "
              "validate against the committed schemas", ok, "; ".join(notes))
