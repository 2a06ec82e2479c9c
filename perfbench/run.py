"""fputw benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every step runs in a fresh worker process
(``worker.py``) that imports fputw from ``src`` with BLAS threads capped at
1: first the set-ups, then the operations, one closed-loop client running
them back to back until ``S`` seconds are used.  With ``--trace 0`` the last
stdout line carries the end-to-end metrics (medians over the run's
operations and set-ups); with ``--trace 1`` it carries the per-layer
metrics of the traced operations, which alternate with plain ones.  The line
before it holds the samples, quartiles, failure ratio and provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import per_layer_metrics  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
TIME_LIMIT_S = 170.0
THREAD_CAP = "1"


def source_identity() -> dict:
    """Git commit when the checkout is a repository, and a digest of the
    fputw sources either way."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fputw").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def spawn(args, work: Path, deadline: float, extra=()) -> dict:
    """Run one worker process to completion and return its JSON result."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=THREAD_CAP,
               OMP_NUM_THREADS=THREAD_CAP, MKL_NUM_THREADS=THREAD_CAP)
    t0 = perf_counter()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--work", str(work), "--t0", repr(t0), *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          timeout=max(1.0, deadline - t0), check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"q1": q[0], "median": statistics.median(values), "q3": q[2],
            "n": len(values), "samples": list(values)}


def measure(args, work: Path):
    """Set up ``SETUP_REPEATS`` times (once when tracing), then run operations
    back to back, each in a fresh process, until the next one would end past
    ``args.seconds``.  A traced run alternates plain and traced operations
    and makes at least one of each."""
    deadline = perf_counter() + TIME_LIMIT_S
    setups = [spawn(args, work / f"setup{k}", deadline)["setup_s"]
              for k in range(1 if args.trace else SETUP_REPEATS)]
    inputs = work / f"setup{len(setups) - 1}"
    ops, spent = [], []
    start = perf_counter()
    while True:
        index = len(ops)
        traced = bool(args.trace) and index % 2 == 1
        t0 = perf_counter()
        res = spawn(args, work / "ops" / f"op{index}", deadline,
                    ["--op", str(index), "--inputs", str(inputs), "--trace", str(int(traced))])
        spent.append(perf_counter() - t0)
        res["traced"] = traced
        ops.append(res)
        if args.trace and index < 1:
            continue
        if perf_counter() - start + statistics.median(spent) > args.seconds:
            return setups, ops


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (ROOT / "src" / "fputw" / "cli.py").is_file():
        print(f"perfbench: no fputw sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_runs" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        setups, ops = measure(args, work)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"perfbench: {args.workload} failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(ops)
    failed = sum(1 for op in ops if op["misses"])
    for i, op in enumerate(ops):
        for text in op["misses"]:
            print(f"perfbench: operation {i}: {text}", file=sys.stderr)
    plain = [op for op in ops if not op["traced"]]
    traced = [op for op in ops if op["traced"]]
    walls = [op["wall_s"] for op in plain]
    summary = {
        "workload": args.workload,
        "wall_s": quartiles(walls),
        "cpu_s": quartiles([op["cpu_s"] for op in plain]),
        "setup_s": quartiles(setups),
        "failed_ratio": {"value": failed / attempted, "failed": failed, "attempted": attempted,
                         "base": "timed operations, one CLI call each"},
        "provenance": {**ops[0]["provenance"], **source_identity(),
                       "runs": attempted, "traced_runs": len(traced)},
    }
    if args.trace:
        layers = {}
        for op in traced:
            for name, value in op["layers"].items():
                layers[name] = layers.get(name, 0.0) + value / len(traced)
        layers["proc.import_s"] = statistics.median(op["import_s"] for op in ops)
        layers["proc.cpu_s"] = statistics.median(op["cpu_s"] for op in plain)
        layers["trace.overhead_ratio"] = (statistics.median(op["wall_s"] for op in traced)
                                          / statistics.median(walls))
        metrics = {n: {"value": layers.get(n, 0.0), "unit": u}
                   for n, u, _ in per_layer_metrics(SIZES)}
        summary["untracked_layer_metrics"] = sorted(set(layers) - set(metrics))
        spans_file = ROOT / ".bench_runs" / f"trace-{args.workload}-seed{args.seed}.jsonl"
        with open(spans_file, "w", encoding="utf-8") as fh:
            for op in traced:
                fh.writelines(json.dumps(sp) + "\n" for sp in op["spans"])
        summary["spans"] = {"count": sum(len(op["spans"]) for op in traced),
                            "file": str(spans_file.relative_to(ROOT))}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(op["peak_rss_mb"] for op in plain),
                            "unit": "MB"},
        }
    print(json.dumps({"summary": summary}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
