"""The tracing wrappers: what they replace, what they record, and that they
leave every patched attribute as they found it."""

import importlib
import sys

import numpy as np
import pytest

import boltzlab
import spans

A = importlib.import_module("boltzlab.ansatz")
C = importlib.import_module("boltzlab.collision")
S = importlib.import_module("boltzlab.sharpness")
CLASSES = (A.TubeFamily, A.BetaCache, S.SharpnessFunctions)


def snapshot():
    """Every attribute of every lab module and traced class, by identity."""
    state = {}
    for mod in spans.lab_modules():
        for key, val in vars(mod).items():
            state[(mod.__name__, key)] = val
    for cls in CLASSES:
        for key, val in vars(cls).items():
            state[(cls.__qualname__, key)] = val
    return state


def assert_same(before, after):
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert changed == []


def tiny_grid():
    return boltzlab.GridSpec((1, 1, 1), (8, 8, 8), Lx=1.0, Lv=4.0)


def test_install_restores_every_attribute():
    before = snapshot()
    with spans.Tracer().installed():
        during = snapshot()
    assert_same(before, snapshot())
    assert during[("boltzlab.collision", "gain_term_spectral")] is not \
        before[("boltzlab.collision", "gain_term_spectral")]


def test_restores_when_the_body_raises():
    before = snapshot()
    with pytest.raises(RuntimeError):
        with spans.Tracer().installed():
            raise RuntimeError("boom")
    assert_same(before, snapshot())


def test_consumer_names_and_methods_are_wrapped():
    original = C.gain_term_spectral
    with spans.Tracer().installed():
        # the name ansatz imported, and the package's re-export, are wrapped
        assert A.gain_term_spectral is C.gain_term_spectral
        assert C.gain_term_spectral is not original
        assert C.gain_term_spectral.__wrapped__ is original
        assert boltzlab.collision is C.collision
        # the module object itself stays a module
        assert sys.modules["boltzlab.collision"] is C
        assert isinstance(vars(A.TubeFamily)["make"], classmethod)
        assert hasattr(A.BetaCache.refine, "__wrapped__")
        assert hasattr(S.SharpnessFunctions.psi_hat, "__wrapped__")


def test_spans_nest_and_self_times_add_up():
    grid = tiny_grid()
    f = C.maxwellian(grid)
    cfg = C.CollisionConfig(quadrature=C.SphereQuadrature.fibonacci(4))
    tracer = spans.Tracer()
    with tracer.installed():
        out = C.collision(f, f, cfg)
    # the traced result is the untraced one
    np.testing.assert_array_equal(out.data, C.collision(f, f, cfg).data)
    names = [s[0] for s in tracer.spans]
    assert names[0] == "collision.collision"
    parents = {s[0]: s[3] for s in tracer.spans}
    assert parents["collision.collision"] == -1
    assert parents["collision.gain_term_spectral"] == 0
    assert parents["collision.loss_term"] == 0
    summary = spans.summarize(tracer.spans, 0, len(tracer.spans),
                              ("collision.gain_term_spectral",))
    total = tracer.spans[0][2] - tracer.spans[0][1]
    assert sum(summary["self_s"].values()) == pytest.approx(total, rel=1e-9)
    assert summary["top_s"] == total
    assert summary["work"]["collision.gain_term_spectral"] == 4 * 8**3
    assert 0 < summary["heavy_s"] < total


def test_summarize_synthetic_spans():
    # a(0..10) -> b(1..4) -> c(2..3); a -> b(5..6); d(10..12) at top level
    sp = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 2], ["c", 2.0, 3.0, 1, 0],
          ["b", 5.0, 6.0, 0, 3], ["d", 10.0, 12.0, -1, 0]]
    s = spans.summarize(sp, 0, len(sp), ("b", "c"))
    assert s["self_s"] == {"a": 6.0, "b": 3.0, "c": 1.0, "d": 2.0}
    assert s["calls"]["b"] == 2 and s["work"]["b"] == 5
    assert s["first"]["b"] == 3.0 and s["total"]["b"] == 4.0
    assert s["top_s"] == 12.0
    assert s["heavy_s"] == 4.0  # c is nested in b and not counted again
    # a window that starts inside a: its children become top level
    s = spans.summarize(sp, 1, 4)
    assert s["top_s"] == 4.0


def test_op_metrics_cover_every_per_layer_metric():
    sp = [["collision.gain_term_spectral", 0.0, 2.0, -1, 10]]
    row = spans.op_metrics(spans.summarize(sp, 0, 1, ("collision.gain_term_spectral",)),
                           wall=4.0)
    assert row["collision.gain_term_spectral.node_evals_per_s"] == 5.0
    assert row["trace.coverage"] == 0.5 and row["trace.heavy_share"] == 0.5
    setup = spans.summarize([["bump.default_bump", 0.0, 1.0, -1, 0],
                             ["bump.default_bump", 1.0, 1.5, -1, 0]], 0, 2)
    rep = spans.report(setup, [row], [4.0], [3.2])
    assert rep["bump.default_bump.s"] == 1.0
    assert rep["trace.overhead"] == pytest.approx(0.25)
    assert sorted(rep) == sorted(m["name"] for m in spans.per_layer_specs())
