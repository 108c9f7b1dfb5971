"""Effective coefficients and small-period eigenvalue convergence."""

import math
import warnings

import mpmath
import numpy as np
import pytest

from plapeig import (Coefficient, Problem, SweepError, check_weyl,
                     convergence_report, effective_coefficient, effective_weight,
                     epsilon_sweep, homogenized_eigenvalue, pi_p)

from exact_p2 import transfer_matrix_eigenvalue_p2


def two_phase_cell(values=(1.0, 4.0)):
    return Coefficient.piecewise_constant([0.0, 0.5, 1.0], list(values))


def cell_problem(p=2.0, a_cell=None, rho_cell=None, length=1.0):
    a_cell = a_cell if a_cell is not None else two_phase_cell()
    rho_cell = rho_cell if rho_cell is not None else Coefficient.constant(1.0)
    return Problem(length, p, Coefficient.periodic(a_cell, length),
                   Coefficient.periodic(rho_cell, length))


# -- effective coefficient and weight -------------------------------------


def test_effective_coefficient_constant_cell():
    for c in (0.5, 1.0, 7.0):
        cell = Coefficient.constant(c)
        for p in (1.5, 2.0, 3.0):
            assert effective_coefficient(cell, p) == pytest.approx(c, rel=1e-12)


def test_effective_coefficient_two_phase_hand_values():
    cell = two_phase_cell()
    # p=2: harmonic mean (0.5*(1 + 1/4))^-1 = 1.6, exactly
    assert effective_coefficient(cell, 2.0) == pytest.approx(1.6, abs=1e-15)
    # p=3: (0.5*(1 + 4^{-1/2}))^{-2} = (3/4)^{-2} = 16/9
    assert effective_coefficient(cell, 3.0) == pytest.approx(16.0 / 9.0, abs=1e-12)


def test_effective_coefficient_of_a_strong_cell():
    # At p = 1.05, a^(-1/(p-1)) = a^-20 overflows for a = 1e-16; scaled
    # by the cell minimum it does not.
    cell = Coefficient.piecewise_constant([0.0, 0.5, 1.0], [1e-16, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a_star = effective_coefficient(cell, 1.05)
    assert a_star == pytest.approx(1e-16 * 0.5 ** -0.05, rel=1e-13, abs=0.0)


def test_effective_coefficient_piecewise_linear_cell():
    cell = Coefficient.piecewise_linear([0.0, 1.0], [1.0, 3.0])
    # p=2: (int dy/(1+2y))^-1 = 2/ln 3
    assert effective_coefficient(cell, 2.0) == pytest.approx(2.0 / math.log(3.0),
                                                             rel=1e-10)


def effective_coefficient_mpmath(breakpoints, values, p):
    # (int_0^1 a^(-1/(p-1)))^-(p-1) for piecewise-linear a, by 30-digit
    # tanh-sinh quadrature on each segment.
    mpmath.mp.dps = 30
    pm = mpmath.mpf(p)
    q = 1 / (pm - 1)
    total = mpmath.mpf(0)
    for x0, x1, v0, v1 in zip(breakpoints, breakpoints[1:], values, values[1:]):
        x0, x1, v0, v1 = (mpmath.mpf(v) for v in (x0, x1, v0, v1))
        total += mpmath.quad(lambda y: (v0 + (v1 - v0) * (y - x0) / (x1 - x0)) ** -q, [x0, x1])
    return total ** -(pm - 1)


@pytest.mark.parametrize("p", [1.05, 1.1, 2.0])
@pytest.mark.parametrize("values", [(1e-3, 1e3), (1e3, 1e-3), (2.0, 0.01, 7.0),
                                    (1.0, 1.0 + 1e-9, 5.0)])
def test_effective_coefficient_linear_cell_matches_mpmath(values, p):
    # a from 1e-3 to 1e3 at p = 1.05 came out 4.9e-4 off by adaptive
    # quadrature; each segment is now integrated in closed form (a log at
    # p = 2).
    breakpoints = np.linspace(0.0, 1.0, len(values)).tolist()
    cell = Coefficient.piecewise_linear(breakpoints, list(values))
    ref = effective_coefficient_mpmath(breakpoints, values, p)
    assert abs(effective_coefficient(cell, p) - ref) <= 1e-13 * ref


def test_effective_coefficient_bounds_and_mean_inequality():
    rng = np.random.default_rng(77)
    for _ in range(25):
        vals = rng.uniform(0.3, 5.0, 4)
        breaks = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 0.9, 3)), [1.0]])
        cell = Coefficient.piecewise_constant(breaks, vals)
        arith = float(np.sum(np.diff(breaks) * vals))
        for p in (1.3, 2.0, 4.0):
            eff = effective_coefficient(cell, p)
            assert cell.lower() <= eff <= cell.upper()
            assert eff <= arith + 1e-12
    # strictly below the arithmetic mean for a genuinely two-valued cell
    assert effective_coefficient(two_phase_cell(), 2.0) < 2.5


def test_effective_coefficient_monotone_in_values():
    lo = effective_coefficient(two_phase_cell((1.0, 4.0)), 3.0)
    hi = effective_coefficient(two_phase_cell((1.5, 4.0)), 3.0)
    assert hi > lo


def test_effective_coefficient_unwraps_periodic():
    wrapped = Coefficient.periodic(two_phase_cell(), 0.25)
    assert effective_coefficient(wrapped, 2.0) == pytest.approx(1.6, abs=1e-15)


def test_effective_weight_examples():
    assert effective_weight(Coefficient.constant(1.0)) == pytest.approx(1.0)
    assert effective_weight(two_phase_cell((1.0, 3.0))) == pytest.approx(2.0)
    lin = Coefficient.piecewise_linear([0.0, 1.0], [1.0, 3.0])
    assert effective_weight(lin) == pytest.approx(2.0)
    kinked = Coefficient.piecewise_linear([0.0, 0.5, 1.0], [1.0, 3.0, 2.0])
    assert effective_weight(kinked) == pytest.approx(2.25)


def test_effective_rejects_partial_cells():
    half = Coefficient.piecewise_constant([0.0, 0.5], [1.0])
    with pytest.raises(ValueError):
        effective_coefficient(half, 2.0)
    with pytest.raises(ValueError):
        effective_weight(half)


# -- homogenized eigenvalue ------------------------------------------------


def test_homogenized_eigenvalue_examples():
    assert homogenized_eigenvalue(1.0, 1.0, 2.0, 1.0, 1) == pytest.approx(
        math.pi ** 2, rel=1e-12)
    assert homogenized_eigenvalue(1.6, 1.0, 2.0, 1.0, 1) == pytest.approx(
        1.6 * math.pi ** 2, rel=1e-12)
    one = homogenized_eigenvalue(1.6, 2.0, 3.0, 1.0, 1)
    two = homogenized_eigenvalue(1.6, 2.0, 3.0, 1.0, 2)
    assert two == pytest.approx(2.0 ** 3 * one, rel=1e-12)
    with pytest.raises(ValueError):
        homogenized_eigenvalue(-1.0, 1.0, 2.0, 1.0, 1)


# -- epsilon sweep ----------------------------------------------------------


def test_sweep_constant_cells_sit_at_solver_tolerance():
    prob = cell_problem(a_cell=Coefficient.constant(2.0))
    sweep = epsilon_sweep(prob, 1, [1, 2, 4], tol=1e-10,
                          keep_eigenfunction=False)
    assert sweep.lambda_star == pytest.approx(2.0 * math.pi ** 2, rel=1e-12)
    assert all(err <= 1e-9 for err in sweep.rel_errors)


def test_sweep_two_phase_converges():
    sweep = epsilon_sweep(cell_problem(), 1, [2, 4, 8, 16, 32, 64], tol=1e-9)
    assert sweep.lambda_star == pytest.approx(1.6 * math.pi ** 2, rel=1e-12)
    assert [round(e, 12) for e in sweep.epsilons] == [
        round(1.0 / n, 12) for n in (2, 4, 8, 16, 32, 64)]
    assert sweep.rel_errors[-1] < 0.05
    assert sweep.rel_errors[-1] < sweep.rel_errors[2]  # below the n=8 error
    assert all(b < a for a, b in zip(sweep.rel_errors, sweep.rel_errors[1:]))
    assert sweep.finest is not None
    assert sweep.finest.k == 1 and len(sweep.finest.zeros) == 0


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_fine_sweep_converges_at_second_order(p):
    sweep = epsilon_sweep(cell_problem(p=p), 1, [256, 1024], keep_eigenfunction=False)
    gaps = [abs(lam - sweep.lambda_star) for lam in sweep.lambdas]
    order = math.log(gaps[0] / gaps[1]) / math.log(4.0)
    assert 1.8 <= order <= 2.2
    if p == 2.0:
        n = 1024
        exact = transfer_matrix_eigenvalue_p2(
            [0.5 / n] * (2 * n), [1.0, 4.0] * n, 1,
            (0.5 * math.pi ** 2, 8.0 * math.pi ** 2))
        assert sweep.lambdas[-1] == pytest.approx(exact, rel=1e-8)


def test_sweep_eigenvalues_stay_in_weyl_brackets():
    prob = cell_problem(p=3.0)
    sweep = epsilon_sweep(prob, 2, [2, 4, 8, 16], tol=1e-9,
                          keep_eigenfunction=False)
    for n, lam in zip(sweep.n_cells, sweep.lambdas):
        eps = 1.0 / n
        osc = Problem(1.0, 3.0, Coefficient.periodic(two_phase_cell(), eps),
                      Coefficient.constant(1.0))
        assert check_weyl(osc, [(2, lam)])["all_ok"]


def test_sweep_rejects_bad_n_list():
    prob = cell_problem()
    for bad in ([], [0, 2], [4, 2], [2, 2]):
        with pytest.raises(ValueError):
            epsilon_sweep(prob, 1, bad)


def test_sweep_failure_carries_partial_result():
    prob = cell_problem()
    try:
        epsilon_sweep(prob, 1, [2, 4, 8], tol=1e-9, keep_eigenfunction=False,
                      )
    except SweepError:
        pytest.fail("sweep should succeed here")
    # An impossible tolerance budget fails on the first n and keeps
    # whatever finished before it.
    with pytest.raises(SweepError) as err:
        epsilon_sweep(prob, 1, [2, 4], tol=1e-300, keep_eigenfunction=False)
    partial = err.value.partial
    assert partial.lambdas == ()
    assert partial.lambda_star == pytest.approx(1.6 * math.pi ** 2, rel=1e-12)


# -- convergence report ------------------------------------------------------


def test_report_two_phase_order_estimate():
    sweep = epsilon_sweep(cell_problem(), 1, [2, 4, 8, 16, 32], tol=1e-10,
                          keep_eigenfunction=False)
    report = convergence_report(sweep)
    assert report["order_estimate"] is not None
    assert report["order_estimate"] > 0.5
    assert report["monotone"]
    assert not report["at_noise_floor"]
    assert len(report["entries"]) == 5
    for entry, n in zip(report["entries"], (2, 4, 8, 16, 32)):
        assert entry["n"] == n
        assert entry["epsilon"] == pytest.approx(1.0 / n)


def test_report_constant_cells_flagged_at_noise_floor():
    prob = cell_problem(a_cell=Coefficient.constant(1.0))
    sweep = epsilon_sweep(prob, 1, [1, 2, 4], tol=1e-10,
                          keep_eigenfunction=False)
    report = convergence_report(sweep)
    assert report["at_noise_floor"]
    assert report["order_estimate"] is None


def test_report_needs_three_points():
    sweep = epsilon_sweep(cell_problem(), 1, [2, 4], tol=1e-9,
                          keep_eigenfunction=False)
    with pytest.raises(ValueError):
        convergence_report(sweep)
