"""Per-layer spans for the benchmark, recorded by wrapping the lab's functions.

Nothing in the package is edited.  While a traced region is open, each layer
function listed in LAYERS is replaced by a wrapper that records a span
(name, start, end, parent span, work units) and then calls the original.  The
replacement is made on the defining module and on every other `boltzlab`
module that bound the same function object by import (for example
`ansatz.gain_term_spectral`); methods and classmethods are replaced on their
class.  Leaving the region puts every original object back.

A layer's self time is its span's duration minus the time covered by its
direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _gain_work(f, g, cfg):
    """Node evaluations of one spectral gain call: nodes * Nx * Nv."""
    return len(cfg.quadrature) * math.prod(f.grid.nx) * math.prod(f.grid.nv)


def _points(*arrays):
    """Number of points in broadcast (..., 3) arrays."""
    return math.prod(np.broadcast_shapes(*(np.shape(a) for a in arrays))[:-1])


def _pair_points(p, t, x, v):
    return _points(x, v)


def _rho_points(p, t, x):
    return _points(x)


def _psi_points(self, eta2, v2):
    return _points(eta2, v2)


#: (module, attribute or Class.attribute, work counter) for every traced layer
LAYERS = (
    ("collision", "gain_term_spectral", _gain_work),
    ("collision", "loss_term", None),
    ("collision", "collision", None),
    ("grids", "transform", None),
    ("ansatz", "f_err_terms", None),
    ("ansatz", "f_b_to_grid", None),
    ("ansatz", "f_r_to_grid", None),
    ("ansatz", "transport_term", None),
    ("ansatz", "rho_r_eval", None),
    ("ansatz", "f_b_eval", _pair_points),
    ("ansatz", "rho_b_eval", _rho_points),
    ("ansatz", "converged_beta_cache", None),
    ("ansatz", "rho_b_radial", None),
    ("ansatz", "BetaCache.refine", None),
    ("ansatz", "TubeFamily.make", None),
    ("bump", "default_bump", None),
    ("sharpness", "SharpnessFunctions.psi_hat", _psi_points),
    ("sharpness", "sharpness_integral", None),
)

# which statistics of which layer the traced run reports, per op
SELF_TIME = (
    "collision.gain_term_spectral", "collision.loss_term", "collision.collision",
    "grids.transform", "ansatz.f_err_terms", "ansatz.f_b_to_grid",
    "ansatz.f_r_to_grid", "ansatz.transport_term", "ansatz.rho_r_eval",
    "ansatz.f_b_eval", "ansatz.rho_b_eval",
    "sharpness.SharpnessFunctions.psi_hat", "sharpness.sharpness_integral",
)
CALLS = ("collision.gain_term_spectral", "grids.transform")
RATES = (
    ("collision.gain_term_spectral", "node_evals_per_s"),
    ("ansatz.f_b_eval", "points_per_s"),
    ("ansatz.rho_b_eval", "points_per_s"),
    ("sharpness.SharpnessFunctions.psi_hat", "points_per_s"),
)


def per_layer_specs() -> list[dict]:
    """Name, unit and direction of every metric the traced run reports."""
    out = []
    for n in SELF_TIME:
        out.append({"name": f"{n}.self_s", "unit": "s", "better": "lower"})
    for n in CALLS:
        out.append({"name": f"{n}.calls", "unit": "count", "better": "lower"})
    for n, stat in RATES:
        out.append({"name": f"{n}.{stat}", "unit": "1/s", "better": "higher"})
    out.append({"name": "ansatz.converged_beta_cache.setup_s", "unit": "s",
                "better": "lower"})
    out.append({"name": "ansatz.rho_b_radial.setup_self_s", "unit": "s",
                "better": "lower"})
    out.append({"name": "ansatz.rho_b_radial.setup_calls", "unit": "count",
                "better": "lower"})
    out.append({"name": "ansatz.BetaCache.refine.setup_calls", "unit": "count",
                "better": "lower"})
    out.append({"name": "ansatz.TubeFamily.make.s", "unit": "s", "better": "lower"})
    out.append({"name": "bump.default_bump.s", "unit": "s", "better": "lower"})
    out.append({"name": "trace.heavy_share", "unit": "ratio", "better": "lower"})
    out.append({"name": "trace.coverage", "unit": "ratio", "better": "higher"})
    out.append({"name": "trace.overhead", "unit": "ratio", "better": "lower"})
    return out


class Tracer:
    """Collects spans from wrapped layer functions while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, work]
        self._stack: list[int] = []

    def _wrap(self, name, fn, work):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    work(*args, **kwargs) if work else 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    @contextmanager
    def installed(self):
        """Replace every layer function by its tracing wrapper, and restore
        every replaced attribute on exit, also when the body raises."""
        saved = []
        try:
            for mod_name, attr, work in LAYERS:
                module = importlib.import_module(f"boltzlab.{mod_name}")
                name = f"{mod_name}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(name, raw.__func__, work))
                    else:
                        new = self._wrap(name, raw, work)
                    saved.append((cls, meth, raw))
                    setattr(cls, meth, new)
                    continue
                fn = getattr(module, attr)
                new = self._wrap(name, fn, work)
                for owner in lab_modules():
                    for key, val in list(vars(owner).items()):
                        if val is fn:
                            saved.append((owner, key, fn))
                            setattr(owner, key, new)
            yield self
        finally:
            for owner, key, original in reversed(saved):
                setattr(owner, key, original)


def lab_modules() -> list:
    """The package and every loaded submodule, in a stable order."""
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "boltzlab" or n.startswith("boltzlab."))]


def summarize(spans: list[list], lo: int, hi: int, heavy: tuple[str, ...] = ()):
    """Per-name self time, calls, work, total and first duration of
    spans[lo:hi].

    Also returns the time covered by top-level spans (parent outside the
    range) and the inclusive time of `heavy` spans not nested in another
    heavy span."""
    child = defaultdict(float)
    for k in range(lo, hi):
        name, start, end, parent, _ = spans[k]
        if parent >= lo:
            child[parent] += end - start
    self_s = defaultdict(float)
    calls = defaultdict(int)
    work = defaultdict(float)
    total = defaultdict(float)
    first = {}
    top = heavy_s = 0.0
    for k in range(lo, hi):
        name, start, end, parent, w = spans[k]
        dur = end - start
        self_s[name] += dur - child[k]
        calls[name] += 1
        work[name] += w
        total[name] += dur
        first.setdefault(name, dur)
        if parent < lo:
            top += dur
        if name in heavy and not _under(spans, parent, lo, heavy):
            heavy_s += dur
    return {"self_s": self_s, "calls": calls, "work": work, "total": total,
            "first": first, "top_s": top, "heavy_s": heavy_s}


def _under(spans, parent, lo, names) -> bool:
    while parent >= lo:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False


def op_metrics(summary: dict, wall: float) -> dict[str, float]:
    """Per-op layer metrics of one traced op."""
    s, c, w = summary["self_s"], summary["calls"], summary["work"]
    out = {}
    for n in SELF_TIME:
        out[f"{n}.self_s"] = s.get(n, 0.0)
    for n in CALLS:
        out[f"{n}.calls"] = c.get(n, 0)
    for n, stat in RATES:
        out[f"{n}.{stat}"] = w[n] / s[n] if s.get(n, 0.0) > 0.0 else 0.0
    out["trace.heavy_share"] = summary["heavy_s"] / wall
    out["trace.coverage"] = summary["top_s"] / wall
    return out


def report(setup: dict, ops: list[dict], traced_walls: list[float],
           untraced_walls: list[float]) -> dict[str, float]:
    """Every per-layer metric: medians over the traced ops, the set-up
    spans (attenuation cache, tube family, bump profile), and the overhead
    of tracing against the untraced ops."""
    out = {k: statistics.median(op[k] for op in ops) for k in ops[0]}
    total, calls = setup["total"], setup["calls"]
    out["ansatz.converged_beta_cache.setup_s"] = total.get("ansatz.converged_beta_cache", 0.0)
    out["ansatz.rho_b_radial.setup_self_s"] = setup["self_s"].get("ansatz.rho_b_radial", 0.0)
    out["ansatz.rho_b_radial.setup_calls"] = calls.get("ansatz.rho_b_radial", 0)
    out["ansatz.BetaCache.refine.setup_calls"] = calls.get("ansatz.BetaCache.refine", 0)
    out["ansatz.TubeFamily.make.s"] = total.get("ansatz.TubeFamily.make", 0.0)
    out["bump.default_bump.s"] = setup["first"].get("bump.default_bump", 0.0)
    out["trace.overhead"] = (statistics.median(traced_walls)
                             / statistics.median(untraced_walls) - 1.0)
    return out
