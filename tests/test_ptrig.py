"""Generalized trigonometric functions against independent oracles.

The implementation evaluates pi_p in closed form and sin_p/asin_p from
tables built on power series of the defining integral; the oracles here
are quadrature of that integral and 30-digit Gamma functions for pi_p,
and the regularized incomplete Beta function for asin_p and its
complement, so agreement is a real cross-check and not a tautology.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import betainc

from plapeig import Exponent, asin_p, dsin_p, pi_p, sin_p
from plapeig.ptrig import (_asin_core, _cheb_points, _fit, _kernel_for, _reduce,
                           _sin_array, _sin_core)

P_GRID = [1.2, 1.5, 2.0, 2.5, 3.0, 5.0, 10.0]


def pi_p_closed_form(p: float) -> float:
    # Beta-function reduction of the defining integral.
    return 2.0 * math.pi * (p - 1.0) ** (1.0 / p) / (p * math.sin(math.pi / p))


def asin_p_beta(p: float, s: float) -> float:
    # asin_p(s) = (pi_p/2) * I(1/p, 1-1/p; s^p), by the substitution t^p = x.
    return 0.5 * pi_p_closed_form(p) * betainc(1.0 / p, 1.0 - 1.0 / p, s ** p)


def asin_p_complement_beta(p: float, x: float) -> float:
    # pi_p/2 - asin_p(1 - x) = (pi_p/2) * I(1-1/p, 1/p; 1 - (1-x)^p), by the
    # symmetry of the incomplete Beta function; the argument is formed
    # without cancellation, which asin_p_beta cannot do near s = 1.
    w = -math.expm1(p * math.log1p(-x))
    return 0.5 * pi_p_closed_form(p) * betainc(1.0 - 1.0 / p, 1.0 / p, w)


# -- pi_p ---------------------------------------------------------------


def test_pi_2_is_pi():
    assert pi_p(2.0) == pytest.approx(math.pi, abs=1e-12)


@pytest.mark.parametrize("p", P_GRID)
def test_pi_p_matches_closed_form(p):
    assert pi_p(p) == pytest.approx(pi_p_closed_form(p), abs=1e-10)


def pi_p_by_quadrature(p: float) -> float:
    # 2 asin_p(1) by adaptive quadrature of the defining integral: plain on
    # [0, 1/2], and on [1/2, 1] after 1 - t = w^q, q = p/(p-1), which
    # makes the integrand bounded.
    q = p / (p - 1.0)
    opts = dict(epsabs=1e-13, epsrel=1e-13, limit=200)

    def head(t):
        return ((p - 1.0) / -math.expm1(p * math.log(t)) if t > 0.0 else p - 1.0) ** (1.0 / p)

    def tail(w):
        x = w ** q
        if x < 1e-280:
            return q * ((p - 1.0) / p) ** (1.0 / p)
        return ((p - 1.0) / -math.expm1(p * math.log1p(-x))) ** (1.0 / p) * q * w ** (q - 1.0)

    return 2.0 * (quad(head, 0.0, 0.5, **opts)[0] + quad(tail, 0.0, 0.5 ** (1.0 / q), **opts)[0])


@pytest.mark.parametrize("p", np.geomspace(1.01, 1e5, 41).tolist() + [1.05, 1.5, 3.0, 150.0])
def test_pi_p_matches_the_defining_integral_by_quadrature(p):
    assert pi_p(p) == pytest.approx(pi_p_by_quadrature(p), rel=1e-14, abs=0.0)


def test_pi_p_matches_gamma_functions_to_rounding():
    # pi_p = 2 (p-1)^(1/p) Gamma(1/p) Gamma(1-1/p) / p, from the Beta
    # integral, at 30 digits; the sine of the closed form does not enter.
    mpmath.mp.dps = 30
    for p in np.geomspace(1.01, 1e5, 400):
        pm = mpmath.mpf(float(p))
        ref = 2 * (pm - 1) ** (1 / pm) * mpmath.gamma(1 / pm) * mpmath.gamma(1 - 1 / pm) / pm
        assert abs(pi_p(float(p)) - ref) <= 1e-15 * ref, p


def test_fit_reproduces_a_polynomial():
    # Interpolation at degree + 1 Chebyshev points is exact for a
    # polynomial of that degree, so the Horner coefficients come back.
    coef = np.array([0.3, -1.2, 0.5, 2.0, -0.7, 0.25, 1.1, -0.4, 0.9, 0.05, -0.3, 0.6])
    x = _cheb_points(len(coef) - 1)
    values = np.polynomial.polynomial.polyval(x, coef)
    fitted = _fit(np.vstack([values, 2.0 * values]))
    # The exact Chebyshev-to-power map has entries up to 2^10 at degree
    # 11, so single coefficients carry a few hundred ulps; the fit itself
    # stays at rounding level.
    np.testing.assert_allclose(fitted[0], coef[::-1], rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(fitted[1], 2.0 * coef[::-1], rtol=0.0, atol=2e-12)
    t = np.linspace(-1.0, 1.0, 1001)
    np.testing.assert_allclose(np.polyval(fitted[0], t),
                               np.polynomial.polynomial.polyval(t, coef), rtol=0.0, atol=1e-14)


def test_pi_p_frozen_values():
    # High-precision reference values computed independently with
    # 50-digit arithmetic on the desingularized integral.
    assert pi_p(3.0) == pytest.approx(3.0469919990461723, abs=1e-13)
    assert pi_p(1.2) == pytest.approx(2.7387577174962834, abs=1e-13)


@pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 5.0])
def test_pi_p_conjugate_symmetry(p):
    pc = p / (p - 1.0)
    assert abs(pi_p(p) - pi_p(pc)) < 1e-11


def test_pi_p_accepts_exponent_instances():
    e = Exponent(3.0)
    assert pi_p(e) == pi_p(3.0)


def test_pi_p_rejects_bad_exponent():
    for bad in (1.0, 0.5, -2.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            pi_p(bad)


# -- Exponent -----------------------------------------------------------


@pytest.mark.parametrize("p", P_GRID)
def test_exponent_conjugate_identity(p):
    e = Exponent(p)
    assert e.p_conj > 1.0
    assert abs(1.0 / e.p + 1.0 / e.p_conj - 1.0) < 1e-14


def test_exponent_rejects_p_at_or_below_one():
    with pytest.raises(ValueError):
        Exponent(1.0)
    with pytest.raises(ValueError):
        Exponent(0.3)


# -- asin_p -------------------------------------------------------------


@pytest.mark.parametrize("p", P_GRID + [1.05, 150.0])
def test_asin_p_matches_beta_oracle(p):
    ss = np.linspace(0.0, 1.0, 41)
    for s in ss:
        assert asin_p(p, s) == pytest.approx(asin_p_beta(p, float(s)), abs=5e-12)


def test_asin_p_endpoints_and_oddness():
    for p in P_GRID:
        assert asin_p(p, 0.0) == 0.0
        assert asin_p(p, 1.0) == pytest.approx(0.5 * pi_p(p), abs=1e-13)
        for s in (0.1, 0.5, 0.99):
            assert asin_p(p, -s) == -asin_p(p, s)


def test_asin_2_is_arcsine():
    assert asin_p(2.0, 0.5) == pytest.approx(math.pi / 6.0, abs=1e-12)


def test_asin_p_monotone():
    ss = np.linspace(-1.0, 1.0, 201)
    for p in (1.3, 2.0, 4.0):
        xs = [asin_p(p, s) for s in ss]
        assert all(b > a for a, b in zip(xs, xs[1:]))


@pytest.mark.parametrize("p", P_GRID)
def test_asin_complement_matches_beta_oracle(p):
    # The kernel returns pi_p/2 - asin_p(s) next to asin_p(s), computed
    # from the complement x = 1 - s; it must keep its relative accuracy
    # down to x = 1e-14, where s itself is barely distinct from 1.
    k = _kernel_for(p)
    for x in np.logspace(-14.0, -1.0, 53):
        x = float(x)
        ref = asin_p_complement_beta(p, x)
        assert _asin_core(k, 1.0 - x, x)[1] == pytest.approx(ref, rel=1e-12)


def test_asin_p_domain_error():
    with pytest.raises(ValueError):
        asin_p(2.0, 1.5)
    with pytest.raises(ValueError):
        asin_p(3.0, -1.0000001)


# -- sin_p and dsin_p ---------------------------------------------------


def test_sin_p_basic_values():
    for p in P_GRID:
        assert sin_p(p, 0.0) == 0.0
        assert sin_p(p, 0.5 * pi_p(p)) == pytest.approx(1.0, abs=1e-12)


def test_sin_2_is_sine():
    for x in (0.3, 1.7, 4.0, -2.2, 11.0):
        assert sin_p(2.0, x) == pytest.approx(math.sin(x), abs=1e-11)
        assert dsin_p(2.0, x) == pytest.approx(math.cos(x), abs=1e-11)


def test_dsin_p_special_values():
    assert dsin_p(2.0, 0.0) == pytest.approx(1.0, abs=1e-13)
    assert dsin_p(3.0, 0.0) == pytest.approx(2.0 ** (-1.0 / 3.0), abs=1e-13)
    for p in P_GRID:
        assert dsin_p(p, 0.0) == pytest.approx((p - 1.0) ** (-1.0 / p), abs=1e-12)
        assert dsin_p(p, 0.5 * pi_p(p)) == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("p", P_GRID)
def test_sin_p_zeros_at_multiples_of_pi_p(p):
    pip = pi_p(p)
    for m in range(-10, 11):
        assert abs(sin_p(p, m * pip)) < 1e-10


@pytest.mark.parametrize("p", P_GRID)
def test_round_trips(p):
    rng = np.random.default_rng(42)
    pip = pi_p(p)
    for s in rng.uniform(-1.0, 1.0, 50):
        assert sin_p(p, asin_p(p, s)) == pytest.approx(float(s), abs=1e-10)
    for x in rng.uniform(0.0, 0.5 * pip, 50):
        assert asin_p(p, sin_p(p, x)) == pytest.approx(float(x), abs=1e-10)


def test_round_trip_near_the_top_through_the_complement():
    # Near z = pi_p/2 at p = 1.2, 1 - sin_p(z) ~ (pi_p/2 - z)^6 / 6 falls
    # below the spacing of doubles near 1, so asin_p(sin_p(z)) on the
    # rounded s cannot return z.  The kernel's (s, 1 - s) pairs can, as
    # long as sin_p's tail starts low enough; a tail cut at 0.97 pi_p/2
    # misses this by 2e-9.
    p = 1.2
    k = _kernel_for(p)
    half = 0.5 * pi_p(p)
    for z in half - np.linspace(0.0, 0.2, 401):
        z = float(z)
        s, x = _sin_core(k, z)
        assert s + x == pytest.approx(1.0, abs=1e-16)
        assert _asin_core(k, s, x)[0] == pytest.approx(z, abs=1e-10)


@pytest.mark.parametrize("p", P_GRID)
def test_values_finite_on_dense_grids_with_endpoints(p):
    half = 0.5 * pi_p(p)
    ss = np.linspace(-1.0, 1.0, 2001)       # holds s = -1, 0 and 1 exactly
    quarter = np.linspace(0.0, half, 1001)  # holds z = 0 and pi_p/2 exactly
    zs = np.concatenate([quarter, -quarter, half + quarter])
    asins = np.array([asin_p(p, s) for s in ss])
    sins = np.array([sin_p(p, z) for z in zs])
    dsins = np.array([dsin_p(p, z) for z in zs])
    assert np.all(np.isfinite(asins)) and np.all(np.abs(asins) <= half)
    assert np.all(np.isfinite(sins)) and np.all(np.abs(sins) <= 1.0)
    assert np.all(np.isfinite(dsins))
    assert asin_p(p, 1.0) == half and sin_p(p, half) == 1.0 and dsin_p(p, half) == 0.0


@pytest.mark.parametrize("p", P_GRID)
def test_first_integral(p):
    # (p-1)|u'|^p + |u|^p = 1 everywhere, by differentiating the
    # implicit definition.
    pip = pi_p(p)
    for x in np.linspace(0.0, 4.0 * pip, 257):
        h = (p - 1.0) * abs(dsin_p(p, x)) ** p + abs(sin_p(p, x)) ** p
        assert h == pytest.approx(1.0, abs=1e-10)


def test_sin_p_symmetries():
    rng = np.random.default_rng(3)
    for p in (1.4, 2.0, 3.5):
        pip = pi_p(p)
        for x in rng.uniform(-3.0 * pip, 3.0 * pip, 60):
            x = float(x)
            assert sin_p(p, -x) == pytest.approx(-sin_p(p, x), abs=1e-12)
            assert sin_p(p, x + 2.0 * pip) == pytest.approx(sin_p(p, x), abs=1e-11)
            assert sin_p(p, pip - x) == pytest.approx(sin_p(p, x), abs=1e-11)
            assert abs(sin_p(p, x)) <= 1.0 + 1e-15


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.5])
def test_ode_residual_by_central_differences(p):
    # sin_p solves -(phi_p(u'))' = phi_p(u); check away from the kinks
    # of phi_p(u') at the maxima.
    pip = pi_p(p)
    h = 1e-5

    def phi(s):
        return abs(s) ** (p - 2.0) * s if s != 0.0 else 0.0

    xs = np.linspace(0.05 * pip, 0.45 * pip, 21)
    for x in np.concatenate([xs, xs + 0.5 * pip + 0.05 * pip]):
        x = float(x)
        lhs = -(phi(dsin_p(p, x + h)) - phi(dsin_p(p, x - h))) / (2.0 * h)
        assert lhs == pytest.approx(phi(sin_p(p, x)), abs=1e-6)


# -- the array path -------------------------------------------------------


@pytest.mark.parametrize("p", P_GRID)
def test_sin_array_matches_scalar_sin_p(p):
    # Same branches, tables and Horner sums as sin_p; only numpy's pow may
    # round z^p one ulp away from the C library's.  That ulp reaches sin_p
    # as up to sin_p'(z) z / p ulps (about 4 at p = 1.2), and the Horner
    # sum, started from a different t, may round differently by an ulp.
    k = _kernel_for(p)
    quarter = np.concatenate([
        np.linspace(0.0, k.pi_half, 2001),
        k.z_cut + np.linspace(-1e-6, 1e-6, 21),
        [np.nextafter(k.z_cut, 0.0), np.nextafter(k.pi_half, 0.0)],
        k.pi_half - np.logspace(-15.0, -1.0, 57)])
    rng = np.random.default_rng(5)
    xs = np.concatenate([
        quarter, k.pi - quarter, k.pi + quarter, 2.0 * k.pi - quarter,  # each _reduce branch
        -quarter, -(k.pi + quarter),
        np.arange(-8, 9) * k.pi, np.arange(-8, 9) * k.pi_half,
        rng.uniform(-20.0 * k.pi, 20.0 * k.pi, 2000)])
    got = _sin_array(k, xs)
    ref = np.array([sin_p(p, x) for x in xs])
    z = np.array([_reduce(k, x)[0] for x in xs])
    slope = np.abs([dsin_p(p, x) for x in xs])
    eps = np.finfo(float).eps
    tol = 3.0 * np.spacing(np.abs(ref)) + 2.0 * eps * slope * z / p
    assert np.all(np.abs(got - ref) <= tol)
    assert np.array_equal(np.signbit(got), np.signbit(ref))
    assert np.array_equal(got == 0.0, ref == 0.0)
