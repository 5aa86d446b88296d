#!/usr/bin/env python3
"""Benchmark of the msun harness, run from the root of a source checkout.

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 57 --trace 0

Workloads: desk-train, desk-analyze and small-train (see perfbench/README.md).
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
reports its per-layer metrics from a traced round. The last line of standard
output is one JSON object: correct, attempted, failed and metrics. The full
record (environment, digests, per-round figures) and, when traced, every span
are written under .perfbench-out/ in the checkout. The program is imported
from ./src; nothing is installed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
# one BLAS thread: steadier than two on a shared 2-core box, and within nproc
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measurement length")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "seed": seed}


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "msun" / "__init__.py").is_file():
        print(f"perfbench: no msun sources under {src}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))

    t0 = time.perf_counter()
    import msun
    import session
    import_s = time.perf_counter() - t0
    if Path(msun.__file__).resolve().parent != (src / "msun").resolve():
        print(f"perfbench: msun imported from {msun.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in session.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(session.WORKLOADS)}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    wl = session.WORKLOADS[args.workload]
    tag = f"{wl.name}-s{args.seed}-t{args.trace}"
    OUT.mkdir(exist_ok=True)
    rec = session.session(wl, ROOT, args.seed, args.seconds, bool(args.trace),
                          OUT / f"work-{tag}", import_s)

    metrics = {}
    try:
        metrics = (session.per_layer if args.trace else session.end_to_end)(rec)
    except (RuntimeError, ZeroDivisionError, KeyError, TypeError) as exc:
        print(f"perfbench: no metrics: {exc!r}", file=sys.stderr)
        rec["failed"] += 1
    if metrics and {k: u for k, (_, u) in metrics.items()} != declared:
        print("perfbench: metrics differ from BENCHMARK.json", file=sys.stderr)
        return 1

    msun_steps = [dt for r in rec["train"] if "msun" in r["methods"]
                  for dt in r["methods"]["msun"]["step_seconds"]]
    report = {
        "workload": wl.name, "environment": environment(args.seed),
        "training_rounds": len(rec["train"]), "analysis_rounds": len(rec["analysis"]),
        "msun_step_samples": len(msun_steps),
        "msun_step_tail_percentile": session._tail(msun_steps)[1] if msun_steps else None,
        "methods": {m: {k: v for k, v in r.items() if k != "step_seconds"}
                    for m, r in rec["train"][0]["methods"].items()},
        "training_rounds_s": [{m: r["methods"][m]["seconds"] for m in r["methods"]}
                              for r in rec["train"]],
        "analysis_rounds_s": [{**r["commands"], "eval_sweep": r.get("sweep_seconds")}
                              for r in rec["analysis"]],
        "setup_s": rec["setup_seconds"],
    }
    if args.trace:
        (OUT / f"spans-{tag}.json").write_text(json.dumps(session.span_dump(rec)))
    result = {"correct": rec["failed"] == 0 and bool(metrics),
              "attempted": rec["attempted"], "failed": rec["failed"],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (OUT / f"result-{tag}.json").write_text(json.dumps({**report, **result}, indent=1))

    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
