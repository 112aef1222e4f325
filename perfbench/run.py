"""Benchmark entry point: time one workload of the lab and check its outputs.

    python3 perfbench/run.py --workload residual --seed 1 --seconds 16 --trace 0

Run from anywhere; the lab is imported from `src/` next to this directory.
Every process gets LAB_THREADS and the BLAS thread variables (all 1) in its
environment before numpy is imported.  It also gets glibc malloc settings
that keep freed memory in the process instead of returning it to the
system: otherwise every op faults its large temporaries in afresh, which
costs about a quarter of an op and made op times vary by 15 % or more from
op to op on a shared 2-CPU virtual machine.

With --trace 0 it starts two fresh processes one after another.  Each sets
up and then runs ops until their wall time reaches half of --seconds (at
least two ops).  The end-to-end metrics are medians over the two
processes: setup_s, first_op_s (each process's first op) and peak_rss_mb,
while op_s is the median of every later op of both.  A shared host's speed
changes in steps that last tens of seconds; samples from two separate
windows of the run dilute one slow window.
With --trace 1 one traced process runs for --seconds (at least four ops)
and reports the per-layer metrics (see spans.py).  The last
line of standard output is the JSON result; the line before it records the
machine, thread cap, library versions, seed and per-workload evidence.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("residual", "relax", "tubes", "scalars")
THREADS = 1
THREAD_VARS = ("LAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# no mmap for large blocks, no trimming of the heap top (glibc mallopt)
MALLOC_VARS = {"MALLOC_MMAP_MAX_": "0", "MALLOC_TRIM_THRESHOLD_": str(1 << 34),
               "MALLOC_TOP_PAD_": str(1 << 28)}
DEADLINE = 170.0  # seconds for the whole run, children included
PROCESSES = 2  # untraced processes per run
END_TO_END = {"setup_s": "s", "first_op_s": "s", "op_s": "s", "peak_rss_mb": "MiB"}


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ, **MALLOC_VARS)
    for var in THREAD_VARS:
        env[var] = str(THREADS)
    return env


def spawn(args, deadline: float, seconds: float, min_ops: int) -> dict:
    """Run one worker process to completion and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--min-ops", str(min_ops),
           "--trace", str(args.trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], env=child_env(), cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - t0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def meta(args) -> dict:
    import importlib.metadata as md

    def version(pkg):
        try:
            return md.version(pkg)
        except md.PackageNotFoundError:
            return None

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "threads": THREADS,
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "machine": platform.machine(),
    }


def _terminate(signum, frame):
    # an exception inside subprocess.run kills and reaps the running worker
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (ROOT / "src" / "boltzlab" / "__init__.py").is_file():
        print(f"no lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if THREADS > os.cpu_count():
        print("thread cap exceeds the processor count", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE
    try:
        if args.trace:
            res = spawn(args, deadline, args.seconds, 4)
            metrics = res["layers"]
        else:
            runs = [spawn(args, deadline, args.seconds / PROCESSES, 2)
                    for _ in range(PROCESSES)]
            setups = [r["setup_s"] for r in runs]
            firsts = [r["first_op_s"] for r in runs]
            res = {"setup_s": statistics.median(setups),
                   "first_op_s": statistics.median(firsts),
                   "op_s": statistics.median(
                       [w for r in runs for w in r["later_walls"]]),
                   "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in runs]),
                   "attempted": sum(r["attempted"] for r in runs),
                   "failed": sum(r["failed"] for r in runs),
                   "op_walls": [r["op_walls"] for r in runs],
                   "evidence": runs[-1]["evidence"]}
            metrics = {k: {"value": res[k], "unit": unit}
                       for k, unit in END_TO_END.items()}
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc!r}", file=sys.stderr)
        return 1
    info = meta(args)
    info["op_walls"] = res["op_walls"]
    info["evidence"] = res["evidence"]
    if not args.trace:
        info["setup_walls"] = setups
        info["first_op_walls"] = firsts
    print(json.dumps({"meta": info}))
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
