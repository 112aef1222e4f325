"""Each workload's oracle check passes on the lab's output and rejects a
slightly perturbed one."""

import numpy as np
import pytest

import workloads as W


@pytest.fixture(scope="module")
def residual():
    wl = W.Residual(seed=3)
    return wl, wl.op(0)


@pytest.fixture(scope="module")
def relax():
    wl = W.Relax(seed=4)
    return wl, wl.op(0)


@pytest.fixture(scope="module")
def tubes():
    wl = W.Tubes(seed=5)
    return wl, wl.op(0)


@pytest.fixture(scope="module")
def scalars():
    wl = W.Scalars(seed=6)
    return wl, wl.op(0)


def replaced(terms, name, field):
    return [(n, field if n == name else f) for n, f in terms]


def test_residual_passes(residual):
    wl, terms = residual
    assert wl.check(0, terms) == []


def test_residual_rejects_scaled_gain(residual):
    wl, terms = residual
    gain = dict(terms)["gain_full"]
    fails = wl.check(0, replaced(terms, "gain_full", gain * (1.0 + 1e-6)))
    assert any("gain mass" in f for f in fails)


def test_residual_rejects_cavity_sheet(residual):
    wl, terms = residual
    sheet = dict(terms)["loss_cavity_cavity"]
    fails = wl.check(0, replaced(terms, "loss_cavity_cavity", sheet * (1.0 + 1e-5)))
    assert any("cavity-cavity" in f for f in fails)


def test_residual_rejects_label_order(residual):
    wl, terms = residual
    assert wl.check(0, [terms[1], terms[0]] + terms[2:])


def test_relax_passes(relax):
    wl, path = relax
    assert wl.check(0, path) == []


def test_relax_rejects_scaled_gain(relax):
    wl, path = relax
    bad = [(f, q + (q + W.C.loss_term(f, f)) * 1e-5) for f, q in path]
    assert any("mass of Q" in f for f in wl.check(1, bad))


def test_relax_equilibrium_rejects_scaled_gain(relax, monkeypatch):
    wl, _ = relax
    gain = W.C.gain_term_spectral
    monkeypatch.setattr(W.C, "gain_term_spectral",
                        lambda f, g, cfg: gain(f, g, cfg) * 1.1)
    assert wl.check_equilibrium()


def test_tubes_passes(tubes):
    wl, out = tubes
    assert wl.check(0, out) == []
    assert wl.evidence()["contributing_tubes_per_point"] >= 1.0


def test_tubes_rejects_scaled_values(tubes):
    wl, (fb, psi) = tubes
    assert any("f_b_eval" in f for f in wl.check(0, (fb * (1 + 1e-6), psi)))
    assert any("psi_hat" in f for f in wl.check(0, (fb, psi * (1 + 1e-6))))


def test_tubes_rejects_one_wrong_tube_term(tubes):
    # swap the live tube's term at point 0 for the term of its nearest
    # neighbour direction, as a wrong candidate list would
    wl, (fb, psi) = tubes
    p, chi = wl.p, W.B.default_bump().chi
    bt = wl.batches[0]
    xa, v = bt["x"][0] - bt["t"] * bt["v"][0], bt["v"][0]
    par, perp = W._split(p.directions, xa)
    vpar, vperp = W._split(p.directions, v)
    terms = (chi(p.M * perp) * chi(par / p.N2) * chi(p.M * vperp)
             * chi(10.0 * (vpar - p.N2) / p.N2))
    live = int(np.argmax(terms))
    near = np.argsort(p.directions @ p.directions[live])[-2]
    wrong = fb.copy()
    wrong[0] += p.amp_b * (terms[near] - terms[live])
    assert any("f_b_eval" in f for f in wl.check(0, (wrong, psi)))


def test_scalars_passes(scalars):
    wl, out = scalars
    assert wl.check(0, out) == []
    assert wl.evidence()["contributing_tubes_per_point"] == wl.p.J


def test_scalars_rejects_centre_density(scalars):
    wl, (rho, sharp) = scalars
    bad = rho.copy()
    bad[0] *= 1.03
    assert any("rho_b(0,0)" in f for f in wl.check(1, (bad, sharp)))


def test_scalars_rejects_cache(scalars):
    wl, _ = scalars
    fails = wl.check_cache(lambda t, x: 1.02 * wl.cache(t, x))
    assert any("beta cache" in f for f in fails)


def test_scalars_rejects_sharpness(scalars):
    wl, (rho, sharp) = scalars
    assert any("sharpness" in f for f in wl.check(1, (rho, sharp * 1.003)))
