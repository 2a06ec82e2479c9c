"""One benchmark process: imports fputw from the checkout's ``src``, then
either generates a workload's inputs (set-up) or runs one operation of it
through ``fputw.cli.main`` in-process, as a fresh CLI invocation would, and
checks what it wrote.  With ``--trace 1`` the operation runs traced.  Prints
one JSON object as its last stdout line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from spans import Tracer, layer_metrics  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def call_cli(cli_main, argv) -> int:
    """Exit code of one CLI call; usage errors and crashes count as failures."""
    try:
        return cli_main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed operation, not a benchmark abort
        traceback.print_exc()
        return 1


def run_op(cli_main, wl, off, inputs, out, index, anchored):
    """Run operation ``index``; returns (wall seconds, cpu seconds, misses)."""
    argvs = wl.ops(off, inputs, out, index)
    c0 = cpu_seconds()
    t0 = perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [call_cli(cli_main, argv) for argv in argvs]
    wall = perf_counter() - t0
    cpu = cpu_seconds() - c0
    misses = [f"{argv[0]} exited {code}" for argv, code in zip(argvs, codes) if code != 0]
    if not misses:
        try:
            misses = wl.check(off, out, anchored)
        except (OSError, KeyError, IndexError, ValueError) as exc:
            misses = [f"output unreadable: {exc!r}"]
    return wall, cpu, misses


def provenance(seed, off, wl):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_caps": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
        "offset": {wl.shifts: off},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="perf_counter value just before this process was started")
    ap.add_argument("--work", type=Path, required=True,
                    help="directory for this process's files")
    ap.add_argument("--op", type=int, help="run operation OP instead of the set-up")
    ap.add_argument("--inputs", type=Path, help="a set-up directory (with --op)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    wl = WORKLOADS[args.workload]
    off = wl.offset(args.seed)
    t_import = perf_counter()
    from fputw import cli
    import_s = perf_counter() - t_import
    args.work.mkdir(parents=True, exist_ok=True)
    if args.op is None:
        with contextlib.redirect_stdout(io.StringIO()):
            wl.setup(cli.main, off, args.work)
        print(json.dumps({"setup_s": perf_counter() - args.t0}))
        return 0

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.op = args.op
        tracer.install()
    try:
        wall, cpu, misses = run_op(cli.main, wl, off, args.inputs, args.work, args.op,
                                     args.seed == 0)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {"wall_s": wall, "cpu_s": cpu, "misses": misses, "import_s": import_s,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "provenance": provenance(args.seed, off, wl)}
    if tracer is not None:
        result["layers"] = layer_metrics(tracer.spans, SIZES)
        result["spans"] = tracer.records()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
