"""Reference values that share no code with plapeig.

Everything here is built from the standard library, numpy and scipy only:

- ``pi_p_closed``: pi_p from its Beta form 2 pi (p-1)^(1/p) / (p sin(pi/p)).
- ``sin_p_ref`` / ``asin_p_ref``: the generalized sine and arcsine through
  the regularized incomplete Beta function,
  asin_p(s) = (pi_p / 2) I_{s^p}(1/p, 1 - 1/p).
- ``bessel_eigenvalues``: Dirichlet eigenvalues of -((1 + 2x) u')' = lam u
  on (0, 1), the roots of J0(sqrt(lam)) Y0(sqrt(3 lam)) -
  J0(sqrt(3 lam)) Y0(sqrt(lam)).
- ``pc_eigenvalue_p2``: the k-th eigenvalue of a piecewise-constant problem
  at p = 2 from the cos/sin transfer matrix of each piece, applied to the
  scaled state (u, u'/omega) and carried as its phase, so any contrast and
  any number of pieces stay in range.  The eigencondition is
  phase(L) = k pi.
- bounds: the two-sided comparison sandwich, the nodal-length bound and
  the homogenized limit of a periodic cell.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import betainc, betaincinv, j0, y0


def pi_p_closed(p: float) -> float:
    return 2.0 * math.pi * (p - 1.0) ** (1.0 / p) / (p * math.sin(math.pi / p))


def asin_p_ref(p: float, s: float) -> float:
    half = 0.5 * pi_p_closed(p)
    return math.copysign(half * float(betainc(1.0 / p, 1.0 - 1.0 / p, abs(s) ** p)), s)


def sin_p_ref(p: float, x: float) -> float:
    pip = pi_p_closed(p)
    half = 0.5 * pip
    y = math.fmod(x, 2.0 * pip)
    if y < 0.0:
        y += 2.0 * pip
    sign = 1.0
    if y > pip:
        y -= pip
        sign = -1.0
    z = pip - y if y > half else y
    if z >= half:
        return sign
    return sign * float(betaincinv(1.0 / p, 1.0 - 1.0 / p, z / half)) ** (1.0 / p)


def mu_k(p: float, k: int, length: float) -> float:
    """lam_k of the problem with a = rho = 1."""
    return (pi_p_closed(p) * k / length) ** p


def constant_eigenvalue(p, k, a, rho, length) -> float:
    return a / rho * mu_k(p, k, length)


def sandwich(p, k, a_min, a_max, rho_min, rho_max, length) -> tuple:
    mu = mu_k(p, k, length)
    return a_min / rho_max * mu, a_max / rho_min * mu


def nodal_bound(p, k, a_min, a_max, rho_min, rho_max, length) -> float:
    return length * ((a_min / a_max) * (rho_min / rho_max)) ** (1.0 / p) / k


def homogenized_eigenvalue(p, k, widths, a_vals, rho_vals, length) -> float:
    widths = np.asarray(widths, dtype=float)
    a_star = float(np.sum(widths * np.asarray(a_vals, dtype=float) ** (-1.0 / (p - 1.0)))) \
        ** (-(p - 1.0))
    rho_star = float(np.sum(widths * np.asarray(rho_vals, dtype=float)))
    return a_star / rho_star * mu_k(p, k, length)


def _bessel_condition(lam: float) -> float:
    r1, r3 = math.sqrt(lam), math.sqrt(3.0 * lam)
    return float(j0(r1) * y0(r3) - j0(r3) * y0(r1))


def bessel_eigenvalues(kmax: int) -> list:
    """The first kmax roots, bracketed on a grid fine enough to separate them
    (consecutive roots are spaced about (pi/(sqrt 3 - 1))^2 apart in sqrt)."""
    grid = np.linspace(1.0, 60.0 * kmax * kmax, 4000 * kmax)
    vals = [_bessel_condition(x) for x in grid]
    roots = []
    for i in range(len(grid) - 1):
        if vals[i] * vals[i + 1] < 0.0:
            roots.append(brentq(_bessel_condition, grid[i], grid[i + 1],
                                xtol=1e-14, rtol=1e-15))
            if len(roots) == kmax:
                return roots
    raise ArithmeticError(f"found only {len(roots)} of {kmax} Bessel roots")


def _phase_p2(pieces, lam: float) -> float:
    """Phase of (u, u'/omega) at the right end, starting from u = 0, u' > 0.

    Inside a piece the transfer matrix rotates the scaled state by omega*h.
    At an interface u and the flux a u' are continuous, so u'/omega scales
    by c = a_i omega_i / (a_j omega_j); the phase keeps its half-turn."""
    theta = 0.0
    prev = None
    for h, a, rho in pieces:
        scale = a * math.sqrt(lam * rho / a)
        if prev is not None and scale != prev:
            m = math.floor(theta / math.pi)
            r = theta - m * math.pi
            theta = m * math.pi + math.atan2(math.sin(r) * (scale / prev), math.cos(r))
        prev = scale
        theta += math.sqrt(lam * rho / a) * h
    return theta


def pc_eigenvalue_p2(pieces, k: int) -> float:
    """k-th Dirichlet eigenvalue at p = 2 of pieces [(width, a, rho), ...]."""
    length = sum(h for h, _, _ in pieces)
    a_vals = [a for _, a, _ in pieces]
    rho_vals = [r for _, _, r in pieces]
    lo, hi = sandwich(2.0, k, min(a_vals), max(a_vals), min(rho_vals), max(rho_vals), length)
    target = k * math.pi
    return brentq(lambda lam: _phase_p2(pieces, lam) - target, 0.5 * lo, 2.0 * hi,
                  xtol=1e-300, rtol=1e-15, maxiter=400)


def order_estimate(ns, rel_errors) -> float:
    """Least-squares slope of -log(error) against log(n)."""
    return float(-np.polyfit(np.log(np.asarray(ns, dtype=float)),
                             np.log(np.asarray(rel_errors, dtype=float)), 1)[0])
