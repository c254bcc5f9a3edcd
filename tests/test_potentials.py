"""Potential families, latent heat, and the pair checks."""

import math

import numpy as np
import pytest

import oracles
from pfstrip.errors import DomainError
from pfstrip.potentials import (LatentHeat, Potential, check_compatibility,
                                evaluate, latent_eval, latent_range, scalar_f,
                                separating_slope_margin)


def test_logarithmic_closed_form_values():
    p = Potential("logarithmic", 1.0)
    big_f, f, fp = evaluate(p, 0.0)
    assert big_f == 0.0 and f == 0.0 and fp == 2.0
    big_f, f, fp = evaluate(p, 0.5)
    assert math.isclose(big_f, 1.5 * math.log(1.5) + 0.5 * math.log(0.5), rel_tol=1e-14)
    assert math.isclose(f, math.log(3.0), rel_tol=1e-14)
    assert math.isclose(fp, 8.0 / 3.0, rel_tol=1e-14)


def test_quartic_closed_form_values():
    big_f, f, fp = evaluate(Potential("quartic", 1.0), -2.0)
    assert math.isclose(big_f, 4.0, rel_tol=1e-14)
    assert math.isclose(f, -8.0, rel_tol=1e-14)
    assert math.isclose(fp, 12.0, rel_tol=1e-14)


def test_evaluate_is_vectorized():
    p = Potential("logarithmic", 2.0)
    r = np.array([-0.5, 0.0, 0.5])
    big_f, f, fp = evaluate(p, r)
    assert big_f.shape == f.shape == fp.shape == (3,)
    assert f[1] == 0.0 and abs(f[0] + f[2]) < 1e-14


def test_logarithmic_rejects_domain_boundary():
    p = Potential("logarithmic", 1.0)
    with pytest.raises(DomainError):
        evaluate(p, 1.0)
    with pytest.raises(DomainError):
        evaluate(p, np.array([0.0, -1.0]))


def test_family_fixes_the_domain():
    p = Potential("logarithmic")
    assert p.domain == (-1.0, 1.0)
    with pytest.raises(DomainError):
        evaluate(p, 2.0)
    q = Potential("quartic", 0.5)
    assert q.domain == (-math.inf, math.inf)
    with pytest.raises(TypeError):
        Potential("quartic", 0.0, -1.0, 1.0)


@pytest.mark.parametrize("kind,bad", [
    ("logarithmic", [1.0, -1.0, 1.5, -3.0, np.nan, np.inf]),
    ("quartic", [np.nan, np.inf, -np.inf]),
])
def test_evaluate_rejects_every_point_off_the_open_domain(kind, bad):
    p = Potential(kind, 1.0)
    for value in bad:
        with pytest.raises(DomainError, match=f"outside the open domain .* {kind} potential"):
            evaluate(p, value)
        with pytest.raises(DomainError):
            evaluate(p, np.array([0.0, 0.5, value, -0.5]))
        with pytest.raises(DomainError):
            evaluate(p, np.array([[0.1, value], [0.2, 0.3]]))


def test_latent_eval_closed_forms():
    assert latent_eval(LatentHeat(1.0, 0.0, 1.0), 0.0) == (1.0, 0.0, -2.0)
    lam, lamp, lam2 = latent_eval(LatentHeat(0.0, 0.0, 0.0), 0.37)
    assert lam == 0.0 and lamp == 0.0 and lam2 == 0.0
    assert latent_eval(LatentHeat(1.0, 2.0, 0.0), 1.0) == (1.0, 0.0, -2.0)


def test_latent_range_includes_interior_vertex():
    # lambda(r) = -r^2 + 1 peaks at the interior vertex r = 0
    lo, hi = latent_range(LatentHeat(1.0, 0.0, 1.0))
    assert lo == 0.0 and hi == 1.0


def test_separating_slope_margin_values():
    assert separating_slope_margin(LatentHeat(-1.0, 0.0, 0.0)) == 2.0
    assert separating_slope_margin(LatentHeat(1.0, 0.0, 0.0)) == -2.0
    assert separating_slope_margin(LatentHeat(-1.0, 0.5, 0.0)) == 1.5


@pytest.mark.parametrize("kind,span", [("logarithmic", 0.95), ("quartic", 2.0)])
def test_big_f_matches_quadrature_of_f(kind, span, rng):
    p = Potential(kind, 1.0)
    f = scalar_f(p)
    for r in rng.uniform(-span, span, size=100):
        big_f = evaluate(p, r)[0]
        ref = oracles.simpson(f, 0.0, r)
        assert big_f == pytest.approx(ref, rel=1e-8, abs=1e-12)


@pytest.mark.parametrize("kind,span", [("logarithmic", 0.99), ("quartic", 2.0)])
def test_fprime_matches_centered_differences(kind, span, rng):
    p = Potential(kind, 1.0)
    f = scalar_f(p)
    for r in rng.uniform(-span, span, size=100):
        h = 1e-6 * (1.0 - abs(r)) if kind == "logarithmic" else 1e-6
        fd = (f(r + h) - f(r - h)) / (2.0 * h)
        assert evaluate(p, r)[2] == pytest.approx(fd, rel=1e-4)


@pytest.mark.parametrize("kind,span", [("logarithmic", 0.999), ("quartic", 3.0)])
def test_odd_symmetry(kind, span):
    p = Potential(kind, 1.0)
    r = np.linspace(-span, span, 401)
    big_f, f, _ = evaluate(p, r)
    assert np.allclose(f, -f[::-1], rtol=1e-13, atol=1e-15)
    assert np.allclose(big_f, big_f[::-1], rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("kind,span", [("logarithmic", 0.999), ("quartic", 3.0)])
def test_f_is_strictly_monotone(kind, span):
    p = Potential(kind, 1.0)
    f = evaluate(p, np.linspace(-span, span, 2001))[1]
    assert np.all(np.diff(f) > 0.0)


def test_compatibility_identical_logarithmic():
    assert check_compatibility(Potential("logarithmic", 1.0), Potential("logarithmic", 1.0)) == 1.0


def test_compatibility_ignores_delta():
    assert check_compatibility(Potential("logarithmic", 1.0), Potential("logarithmic", 7.0)) == 1.0


@pytest.mark.parametrize("bulk,surf", [
    # delta does not enter: the same-family pairs differ in it
    (Potential("logarithmic", 1.0), Potential("logarithmic", 7.0)),
    (Potential("quartic", 0.5), Potential("quartic", 60.0)),
    (Potential("quartic", 1.0), Potential("logarithmic", 1.0)),
], ids=["log_log", "quartic_quartic", "quartic_log"])
def test_compatibility_constant_holds_on_the_surface_domain(bulk, surf):
    c_s = check_compatibility(bulk, surf)
    assert c_s > 0.0
    # dense grid of the surface domain through r = +-0.889437, the minimiser of
    # 2 artanh(r) / r^3, where the mixed pair's inequality is tight
    span = 0.999999 if surf.kind == "logarithmic" else 10.0
    r = np.union1d(np.linspace(-span, span, 200001), [-0.889437, 0.889437])
    _, fb, _ = evaluate(bulk, r)
    _, fs, _ = evaluate(surf, r)
    assert np.all(fb * fs - c_s * fb * fb >= 0.0)
    if bulk.kind != surf.kind:
        nonzero = fb != 0.0
        assert abs(c_s - np.min(fs[nonzero] / fb[nonzero])) < 1e-9


def test_compatibility_rejects_reversed_inclusion():
    with pytest.raises(DomainError):
        check_compatibility(Potential("logarithmic", 1.0), Potential("quartic", 1.0))
