"""Properties of the shooting spectrum on random piecewise-constant problems.

Each example draws p in [1.05, 20], up to 300 pieces of random widths and
a, rho values spanning a contrast of up to 1e8, and an index k <= 4, and
checks what holds for every such problem:

- the phase bound: each interface moves the Pruefer phase by less than
  pi_p/2, so |lam_k^(1/p) int (rho/a)^(1/p) - k pi_p| < m pi_p/2 with m
  interfaces;
- the comparison sandwich and strict growth of lam_1 < ... < lam_k;
- the scaling laws lam(c a) = c lam, lam(c rho) = lam/c, lam(t L) = t^-p lam;
- invariance under x -> L - x;
- exactly k - 1 interior zeros of the eigenfunction.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from plapeig import Coefficient, Problem, pi_p, solve_eigenpair, solve_eigenvalue

TOL = 1e-10
# Two solves at TOL each land within TOL/2 of their eigenvalue.
REL = 4.0 * TOL


def problem(p, widths, a_vals, rho_vals):
    edges = np.concatenate([[0.0], np.cumsum(widths)])
    return Problem(float(edges[-1]), p, Coefficient.piecewise_constant(edges, a_vals),
                   Coefficient.piecewise_constant(edges, rho_vals))


def close(x, y, rel=REL):
    return abs(x - y) <= rel * abs(y)


@st.composite
def problems(draw):
    p = draw(st.floats(1.05, 20.0))
    n = draw(st.integers(1, 300))
    k = draw(st.integers(1, 4))
    log_contrast = draw(st.floats(0.0, 8.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    widths = rng.uniform(0.1, 1.0, n) / n
    a_vals = 10.0 ** rng.uniform(0.0, log_contrast, n)
    rho_vals = 10.0 ** rng.uniform(0.0, log_contrast, n)
    return p, k, widths, a_vals, rho_vals


@settings(max_examples=25)
@given(problems(), st.floats(0.01, 100.0), st.floats(0.5, 2.0))
def test_spectrum_of_piecewise_constant_problems(case, c, t):
    p, k, widths, a_vals, rho_vals = case
    prob = problem(p, widths, a_vals, rho_vals)
    pair = solve_eigenpair(prob, k, TOL)
    assert len(pair.zeros) == k - 1
    lam = pair.lam
    lams = [solve_eigenvalue(prob, j, TOL) for j in range(1, k)] + [lam]
    pip = pi_p(p)

    phase_integral = float(np.sum(widths * (rho_vals / a_vals) ** (1.0 / p)))
    interfaces = len(widths) - 1
    assert abs(lam ** (1.0 / p) * phase_integral - k * pip) \
        < interfaces * pip / 2.0 + REL * k * pip

    mu = (pip * k / prob.length) ** p
    assert a_vals.min() / rho_vals.max() * mu * (1.0 - REL) <= lam
    assert lam <= a_vals.max() / rho_vals.min() * mu * (1.0 + REL)
    assert all(b > a for a, b in zip(lams, lams[1:]))

    assert close(solve_eigenvalue(problem(p, widths, c * a_vals, rho_vals), k, TOL), c * lam)
    assert close(solve_eigenvalue(problem(p, widths, a_vals, c * rho_vals), k, TOL), lam / c)
    assert close(solve_eigenvalue(problem(p, t * widths, a_vals, rho_vals), k, TOL),
                 t ** -p * lam)
    assert close(solve_eigenvalue(problem(p, widths[::-1], a_vals[::-1], rho_vals[::-1]),
                                  k, TOL), lam)
