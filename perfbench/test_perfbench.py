"""Checks of the benchmark itself: exact counts repeat, names match BENCHMARK.json.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import dataclasses
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import session  # noqa: E402
from spans import END, START, roots, self_times  # noqa: E402

# small-train's code path at a fraction of its length
SHORT = dataclasses.replace(
    session.WORKLOADS["small-train"], name="small-train-short",
    train={**session.WORKLOADS["small-train"].train, "data.n_train": "96",
           "data.n_test": "64", "train.epochs": "1", "train.warmup_epochs": "0"},
    analyze={"model.kind": "residual", "data.n_train": "96", "data.n_test": "64"})

EXACT = ("tensor.tape_nodes_per_step", "tensor.useful_grad_ratio",
         "model.branch_calls.0", "model.branch_calls.1", "model.branch_calls.2",
         "cli.data_useful_ratio", "layers.conv2d.gflop_per_step",
         "layers.conv2d.im2col_mb_per_step", "layers.conv2d.calls",
         "layers.batchnorm2d.calls", "experiments.msun_test_accuracy")


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_exact_counts_repeat_and_match_the_spec(tmp_path):
    recs = [session.session(SHORT, ROOT, 5, 0.0, True, tmp_path / str(i)) for i in range(2)]
    assert [r["failed"] for r in recs] == [0, 0]
    first, second = (session.per_layer(r) for r in recs)
    for name in EXACT:
        assert first[name] == second[name], name
    assert 0.0 < first["tensor.useful_grad_ratio"][0] < 1.0
    assert 0.0 < first["cli.data_useful_ratio"][0] < 1.0
    assert {k: u for k, (_, u) in first.items()} == _declared("per_layer")


def test_untraced_metrics_match_the_spec(tmp_path):
    rec = session.session(SHORT, ROOT, 5, 0.0, False, tmp_path)
    metrics = session.end_to_end(rec)
    assert {k: u for k, (_, u) in metrics.items()} == _declared("end_to_end")
    assert all(v > 0 for v, _ in metrics.values())


def test_interleave_keeps_shares_and_deadline():
    def nap():
        time.sleep(0.01)

    t0 = time.perf_counter()
    out = session._interleave({"a": (nap, 0.25), "b": (nap, 0.75)}, 0.4, t0, {})
    assert time.perf_counter() - t0 < 0.45
    assert 2.0 <= len(out["b"]) / len(out["a"]) <= 4.5
    # with no time left, only kinds that have not run yet run, once each
    out = session._interleave({"a": (nap, 0.5), "b": (nap, 0.5)}, 0.0, time.perf_counter(),
                              {"a": [0.01]})
    assert (len(out["a"]), len(out["b"])) == (0, 1)


def test_self_time_excludes_children():
    # name, start, end, parent, step, tag
    spans = [["a", 0.0, 10.0, -1, -1, None], ["b", 1.0, 4.0, 0, -1, None],
             ["c", 2.0, 3.0, 1, -1, None], ["d", 5.0, 6.0, 0, -1, None]]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    assert roots(spans) == ["a", "a", "a", "a"]
    assert sum(s[END] - s[START] for s in spans) == 15.0


def test_refuses_to_run_without_the_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
