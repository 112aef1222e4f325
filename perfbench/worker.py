"""One benchmark process: set-up, timed ops, oracle checks, one JSON line.

Started by run.py with the thread variables already in its environment, so
numpy's BLAS pool is capped before numpy is first imported.  After set-up it
runs ops until their wall time reaches --seconds and at least --min-ops ops
have run.  run.py starts several of these processes one after another and
pools what they measure.

    python3 perfbench/worker.py --workload residual --seed 1 --seconds 4 \
        --min-ops 2 --trace 0 --t0 <time.monotonic() of the parent at spawn>
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WALL_LIMIT = 150.0  # stop issuing ops past this many seconds of process time


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--min-ops", type=int, required=True)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    if "numpy" in sys.modules or os.environ.get("LAB_THREADS") is None:
        raise SystemExit("worker must start with LAB_THREADS set, before numpy")
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import boltzlab

    if Path(boltzlab.__file__).resolve().parent != src / "boltzlab":
        raise SystemExit(f"imported boltzlab from {boltzlab.__file__}, not {src}")
    import spans as tr  # noqa: E402  (after the path is set)
    import workloads  # noqa: E402

    cls = workloads.WORKLOADS[args.workload]
    tracer = tr.Tracer() if args.trace else None
    with tracer.installed() if tracer else nullcontext():
        wl = cls(args.seed)
    setup_s = time.monotonic() - args.t0
    setup_spans = tr.summarize(tracer.spans, 0, len(tracer.spans)) if tracer else None

    walls, traced_ops, layer_rows = [], [], []
    attempted = failed = 0
    spent = 0.0
    # a traced run alternates untraced and traced ops, the first untraced
    while attempted < args.min_ops or spent < args.seconds:
        if time.monotonic() - args.t0 > WALL_LIMIT:
            break
        i = attempted
        traced = tracer is not None and i % 2 == 1
        gc.collect()
        lo = len(tracer.spans) if tracer else 0
        attempted += 1
        try:
            with tracer.installed() if traced else nullcontext():
                start = time.perf_counter()
                out = wl.op(i)
                wall = time.perf_counter() - start
        except Exception:
            traceback.print_exc()
            failed += 1
            continue
        spent += wall
        walls.append(wall)
        traced_ops.append(traced)
        if traced:
            summary = tr.summarize(tracer.spans, lo, len(tracer.spans), wl.heavy)
            layer_rows.append(tr.op_metrics(summary, wall))
        try:
            fails = wl.check(i, out)
        except Exception:
            traceback.print_exc()
            fails = ["check raised"]
        if fails:
            failed += 1
            print(f"op {i} failed: {'; '.join(fails)}", file=sys.stderr)
        del out

    if len(walls) < args.min_ops:
        raise SystemExit(f"only {len(walls)} of {attempted} ops completed")
    untraced = [w for w, t in zip(walls[1:], traced_ops[1:]) if not t]
    result = {
        "attempted": attempted,
        "failed": failed,
        "setup_s": setup_s,
        "first_op_s": walls[0],
        "later_walls": untraced,
        "op_walls": walls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "evidence": wl.evidence() if hasattr(wl, "evidence") else {},
    }
    if tracer:
        layers = tr.report(setup_spans, layer_rows,
                           [w for w, t in zip(walls, traced_ops) if t], untraced)
        result["layers"] = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                            for m in tr.per_layer_specs()}
        result["evidence"]["heavy_layers"] = list(wl.heavy)
        result["evidence"]["heavy_share"] = layers["trace.heavy_share"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
