"""Rayleigh-quotient discretization and the variational cross-checks."""

import math
import warnings

import numpy as np
import pytest
from scipy.linalg import solve_banded

from plapeig import (BracketError, Coefficient, Eigenpair, NonconvergenceError,
                     Problem, check_nodal_measure, check_weyl, lambda2_equalize,
                     make_mesh, minimize_lambda1, pi_p, quotient_and_gradient,
                     rayleigh_quotient, sin_p, solve_eigenpair, solve_eigenvalue)
from plapeig import variational
from plapeig.variational import (_inverse_step, _normalized, _precondition,
                                 _quotient_terms)


def constant_problem(p=2.0, a=1.0, rho=1.0):
    return Problem(1.0, p, Coefficient.constant(a), Coefficient.constant(rho))


def two_phase_problem(p=2.0, a_vals=(1.0, 4.0)):
    a = Coefficient.piecewise_constant([0.0, 0.5, 1.0], list(a_vals))
    return Problem(1.0, p, a, Coefficient.constant(1.0))


def first_mode(prob, mesh):
    pip = pi_p(prob.p)
    return np.array([sin_p(prob.p, pip * x / prob.length) for x in mesh.nodes])


# -- mesh and quotient ---------------------------------------------------


def test_mesh_includes_breakpoints():
    prob = two_phase_problem()
    mesh = make_mesh(prob, 33)
    assert mesh.nodes[0] == 0.0 and mesh.nodes[-1] == 1.0
    assert np.all(np.diff(mesh.nodes) > 0.0)
    assert np.any(np.isclose(mesh.nodes, 0.5, atol=1e-15))
    # midpoint sampling keeps each element inside one phase
    assert set(np.round(mesh.a_mid, 12)) <= {1.0, 4.0}


def test_quotient_sin_interpolant_converges_quadratically():
    prob = constant_problem()
    errs = []
    for n in (50, 100, 200):
        mesh = make_mesh(prob, n)
        U = np.sin(math.pi * mesh.nodes)
        U[0] = U[-1] = 0.0
        errs.append(rayleigh_quotient(mesh, 2.0, U) - math.pi ** 2)
    assert all(e > 0.0 for e in errs)
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)


def test_quotient_p3_interpolant_example():
    prob = constant_problem(p=3.0)
    mesh = make_mesh(prob, 200)
    val = rayleigh_quotient(mesh, 3.0, first_mode(prob, mesh))
    assert val == pytest.approx(pi_p(3.0) ** 3, rel=0.01)


def test_quotient_zero_homogeneity():
    prob = two_phase_problem(p=2.5)
    mesh = make_mesh(prob, 64)
    U = first_mode(prob, mesh)
    base = rayleigh_quotient(mesh, 2.5, U)
    for c in (-3.0, 0.1, 17.0):
        assert rayleigh_quotient(mesh, 2.5, c * U) == pytest.approx(base, rel=1e-12)


def test_quotient_rejects_degenerate_input():
    prob = constant_problem()
    mesh = make_mesh(prob, 32)
    with pytest.raises(ValueError):
        rayleigh_quotient(mesh, 2.0, np.zeros(len(mesh.nodes)))
    U = first_mode(prob, mesh)
    U[0] = 0.3  # boundary condition violated
    with pytest.raises(ValueError):
        rayleigh_quotient(mesh, 2.0, U)


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(31)
    prob = two_phase_problem(p=2.6)
    mesh = make_mesh(prob, 24)
    U = first_mode(prob, mesh) + 0.1 * rng.standard_normal(len(mesh.nodes))
    U[0] = U[-1] = 0.0
    val, grad = quotient_and_gradient(mesh, 2.6, U)
    assert val == pytest.approx(rayleigh_quotient(mesh, 2.6, U), rel=1e-13)
    h = 1e-5
    for j in range(1, len(U) - 1, 3):
        up, um = U.copy(), U.copy()
        up[j] += h
        um[j] -= h
        fd = (rayleigh_quotient(mesh, 2.6, up)
              - rayleigh_quotient(mesh, 2.6, um)) / (2.0 * h)
        scale = max(1.0, abs(fd))
        assert abs(grad[j] - fd) / scale <= 1e-6


def test_gradient_zero_at_boundary_slots():
    prob = constant_problem(p=3.0)
    mesh = make_mesh(prob, 32)
    _, grad = quotient_and_gradient(mesh, 3.0, first_mode(prob, mesh))
    assert grad[0] == 0.0 and grad[-1] == 0.0


# -- lambda1 minimization ------------------------------------------------


def test_minimize_constant_p2_benchmark():
    val, U = minimize_lambda1(constant_problem(), 400, 1e-8)
    assert val == pytest.approx(math.pi ** 2, rel=0.005)
    assert np.all(U[1:-1] > 0.0)  # first mode does not change sign


def test_minimize_constant_p3_benchmark():
    val, _ = minimize_lambda1(constant_problem(p=3.0), 200, 1e-8)
    assert val == pytest.approx(pi_p(3.0) ** 3, rel=0.01)


def test_minimize_two_phase_matches_shooting():
    prob = two_phase_problem()
    ref = solve_eigenvalue(prob, 1, 1e-10)
    val, _ = minimize_lambda1(prob, 400, 1e-8)
    assert abs(val - ref) / ref < 0.01


def test_minimize_upper_bounds_and_mesh_monotonicity():
    # Conforming discretization overestimates lambda1, and refinement
    # never increases the discrete minimum.
    prob = two_phase_problem(p=2.0)
    ref = solve_eigenvalue(prob, 1, 1e-10)
    vals = [minimize_lambda1(prob, n, 1e-9)[0] for n in (50, 100, 200, 400)]
    assert all(v >= ref * (1.0 - 1e-9) for v in vals)
    assert all(b <= a * (1.0 + 1e-12) for a, b in zip(vals, vals[1:]))


def test_minimize_history_is_monotone():
    prob = two_phase_problem(p=1.7)
    val, _, history = minimize_lambda1(prob, 100, 1e-8, return_history=True)
    assert history[-1] == pytest.approx(val)
    assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))


def test_minimize_budget_exhaustion_raises():
    prob = two_phase_problem(p=2.2)
    with pytest.raises(NonconvergenceError):
        minimize_lambda1(prob, 100, 1e-13, max_iter=2)


def test_minimize_rejects_tiny_mesh():
    with pytest.raises(ValueError):
        minimize_lambda1(constant_problem(), 8, 1e-8)


def seeded_two_phase(seed, p):
    # Random two-phase data as drawn by the benchmark's spectrum workload.
    rng = np.random.default_rng(seed)
    c = float(rng.uniform(0.3, 0.7))
    a, rho = rng.uniform(0.5, 3.0, 2), rng.uniform(0.5, 3.0, 2)
    return Problem(1.0, p, Coefficient.piecewise_constant([0.0, c, 1.0], a),
                   Coefficient.piecewise_constant([0.0, c, 1.0], rho))


def contrast_problem(p, pieces=50):
    edges = [i / pieces for i in range(pieces + 1)]
    a = [1.0 if i % 2 == 0 else 1e6 for i in range(pieces)]
    return Problem(1.0, p, Coefficient.piecewise_constant(edges, a), Coefficient.constant(1.0))


def phi(p, s):
    return np.sign(s) * np.abs(s) ** (p - 1.0)


def numerator_gradient(mesh, p, W):
    t = p * mesh.a_mid * phi(p, np.diff(W) / mesh.h)
    g = np.zeros_like(W)
    g[1:] += t
    g[:-1] -= t
    return g


@pytest.mark.parametrize("kind, p", [("two-phase", 1.5), ("two-phase", 2.0),
                                     ("two-phase", 3.0), ("two-phase", 20.0),
                                     ("contrast", 20.0)])
def test_inverse_step_solves_the_flux_equation(kind, p):
    # W is returned up to a positive factor c; grad N(c W) = c^(p-1) grad N(W)
    # must equal grad D(U) at every interior node, to rounding.  (On the
    # contrast problem at p <= 3 the slopes on the stiff pieces fall below
    # the rounding of the nodal values, which hides the step's accuracy.)
    prob = seeded_two_phase(3, p) if kind == "two-phase" else contrast_problem(p)
    mesh = make_mesh(prob, 200)
    U = _normalized(mesh, p, first_mode(prob, mesh))
    for _ in range(4):
        _, _, gden = _quotient_terms(mesh, p, U)
        W = _inverse_step(mesh, p, gden)
        assert W[0] == 0.0 and W[-1] == 0.0
        gnum = numerator_gradient(mesh, p, W)
        scale = np.dot(gden[1:-1], W[1:-1]) / np.dot(gnum[1:-1], W[1:-1])
        assert scale > 0.0
        residual = scale * gnum[1:-1] - gden[1:-1]
        assert np.max(np.abs(residual)) <= 1e-10 * np.max(np.abs(gden))
        U = _normalized(mesh, p, W)


def test_inverse_step_at_p2_is_the_unit_preconditioned_step():
    # At p = 2 the linearized stiffness K is exact, and with D(U) = 1 the
    # step U - K^{-1} grad R(U) is R(U) K^{-1} grad D(U).
    prob = seeded_two_phase(1, 2.0)
    mesh = make_mesh(prob, 300)
    U = _normalized(mesh, 2.0, first_mode(prob, mesh))
    _, g, gden = _quotient_terms(mesh, 2.0, U)
    W = _normalized(mesh, 2.0, _inverse_step(mesh, 2.0, gden))
    ref = _normalized(mesh, 2.0, U - _precondition(mesh, 2.0, U, g))
    np.testing.assert_allclose(W, ref, rtol=0.0, atol=1e-12 * np.max(np.abs(ref)))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_precondition_solves_the_tridiagonal_system(p):
    # Against scipy's banded LU on the same weights.
    prob = seeded_two_phase(4, p)
    mesh = make_mesh(prob, 2000)
    rng = np.random.default_rng(9)
    U = _normalized(mesh, p, first_mode(prob, mesh) * (1.0 + 0.1 * rng.standard_normal(
        len(mesh.nodes))))
    g = rng.standard_normal(len(U))
    g[0] = g[-1] = 0.0
    d = np.abs(np.diff(U)) / mesh.h
    w = p * (p - 1.0) * mesh.a_mid * np.clip(d, 1e-6 * np.max(d), None) ** (p - 2.0) / mesh.h
    bands = np.zeros((3, len(U) - 2))
    bands[0, 1:] = bands[2, :-1] = -w[1:-1]
    bands[1] = w[:-1] + w[1:]
    ref = solve_banded((1, 1), bands, g[1:-1])
    got = _precondition(mesh, p, U, g)
    assert got[0] == 0.0 and got[-1] == 0.0
    np.testing.assert_allclose(got[1:-1], ref, rtol=0.0, atol=1e-10 * np.max(np.abs(ref)))


@pytest.mark.parametrize("length", [1e-200, 1e200])
def test_minimize_reports_a_quotient_outside_the_floats(length):
    # lambda_1 = (pi/L)^2 overflows at L = 1e-200 and underflows at 1e200.
    prob = Problem(length, 2.0, Coefficient.constant(1.0, (0.0, length)),
                   Coefficient.constant(1.0, (0.0, length)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonconvergenceError, match="float range"):
            minimize_lambda1(prob, 400)


@pytest.mark.parametrize("p, tol", [(1.5, 1e-5), (3.0, 1e-8)])
def test_minimize_needs_few_iterations_on_seeded_two_phase_problems(p, tol):
    for seed in range(20):
        prob = seeded_two_phase(seed, p)
        val, _, history = minimize_lambda1(prob, 2000, tol, return_history=True)
        assert len(history) - 1 <= 10
        ref = solve_eigenvalue(prob, 1, 1e-12)
        assert ref * (1.0 - 1e-12) <= val <= ref * (1.0 + 1e-4)


def test_minimize_p15_reaches_tight_tolerance():
    prob = seeded_two_phase(10, 1.5)
    val, _, history = minimize_lambda1(prob, 2000, 1e-8, return_history=True)
    assert len(history) - 1 <= 20
    coarse = minimize_lambda1(prob, 2000, 1e-5)[0]
    assert val <= coarse and (coarse - val) / val <= 1e-4


def test_minimize_high_contrast_p20_matches_shooting():
    prob = contrast_problem(20.0)
    val, _ = minimize_lambda1(prob, 2000, 1e-8)
    ref = solve_eigenvalue(prob, 1)
    assert ref * (1.0 - 1e-9) <= val <= ref * (1.0 + 1e-4)


@pytest.mark.parametrize("prob", [two_phase_problem(p=1.05), contrast_problem(1.1)],
                         ids=["two-phase-p1.05", "contrast-p1.1"])
def test_minimize_unreachable_tolerance_raises_cleanly(prob):
    # The gradient tests cannot certify tol = 1e-8 here; the solver must
    # say so, and no float operation may overflow on the way.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonconvergenceError):
            minimize_lambda1(prob, 2000, 1e-8)


# -- lambda2 equalization ------------------------------------------------


def test_equalize_constant_coefficients():
    for p in (1.5, 2.0, 3.0):
        prob = constant_problem(p=p)
        lam2, c = lambda2_equalize(prob, 1e-9)
        assert c == pytest.approx(0.5, abs=1e-7)
        assert lam2 == pytest.approx((2.0 * pi_p(p)) ** p, rel=1e-7)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_equalize_needs_few_subsolves(p, monkeypatch):
    # Midpoint bisection of the cut point took 42-56 subinterval solves
    # here; the Illinois search takes 12-20.
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve_eigenvalue(*args, **kwargs)

    monkeypatch.setattr(variational, "solve_eigenvalue", counted)
    for seed in range(8):
        prob = seeded_two_phase(seed, p)
        calls.clear()
        lam2, _ = lambda2_equalize(prob)
        assert len(calls) <= 25
        ref = solve_eigenvalue(prob, 2, 1e-10)
        assert abs(lam2 - ref) <= 1e-6 * ref


def test_equalize_matches_shooting_on_two_phase():
    for p in (1.5, 2.0, 3.0):
        prob = two_phase_problem(p=p)
        ref = solve_eigenvalue(prob, 2, 1e-10)
        lam2, c = lambda2_equalize(prob, 1e-8)
        assert abs(lam2 - ref) / ref < 1e-6
        assert 0.0 < c < 1.0


def test_equalize_crossing_matches_second_eigenfunction_zero():
    prob = two_phase_problem(p=2.0)
    eig = solve_eigenpair(prob, 2, 1e-10)
    _, c = lambda2_equalize(prob, 1e-9)
    assert c == pytest.approx(eig.zeros[0], abs=1e-6)


def test_equalize_weight_scaling():
    prob = two_phase_problem(p=2.0)
    scaled = Problem(1.0, 2.0, prob.a, Coefficient.constant(4.0))
    lam2, c = lambda2_equalize(prob, 1e-9)
    lam2s, cs = lambda2_equalize(scaled, 1e-9)
    assert lam2s == pytest.approx(lam2 / 4.0, rel=1e-6)
    assert cs == pytest.approx(c, abs=1e-6)


# -- checkers ------------------------------------------------------------


def test_check_weyl_passes_on_solver_output():
    prob = two_phase_problem(p=2.0)
    eigs = [solve_eigenpair(prob, k, 1e-9) for k in (1, 2, 3)]
    report = check_weyl(prob, eigs)
    assert report["all_ok"]
    for entry in report["entries"]:
        assert entry["margin_low"] >= 0.0
        assert entry["margin_high"] >= 0.0


def test_check_weyl_tight_for_constant_coefficients():
    prob = constant_problem(a=3.0)
    report = check_weyl(prob, [(1, 3.0 * math.pi ** 2)])
    entry = report["entries"][0]
    assert entry["lower"] == pytest.approx(entry["upper"], rel=1e-12)
    assert report["all_ok"]


def test_check_weyl_flags_corruption():
    prob = two_phase_problem(p=2.0)
    lam1 = solve_eigenvalue(prob, 1, 1e-9)
    report = check_weyl(prob, [(1, lam1), (2, 100.0 * lam1)])
    assert not report["all_ok"]
    assert report["entries"][0]["ok"]
    assert not report["entries"][1]["ok"]
    assert report["entries"][1]["margin_high"] < 0.0


def test_check_weyl_accepts_plain_pairs():
    prob = constant_problem()
    report = check_weyl(prob, [(2, 4.0 * math.pi ** 2)])
    assert report["all_ok"]


def test_nodal_measure_hand_bound():
    # a in [1, 4], rho = 1, p = 2, k = 2: bound = (1/4)^(1/2) / 2 = 0.25.
    prob = two_phase_problem(p=2.0)
    eig = solve_eigenpair(prob, 2, 1e-9)
    report = check_nodal_measure(prob, eig)
    assert report["bound"] == pytest.approx(0.25, abs=1e-12)
    assert report["all_ok"]
    assert sum(report["lengths"]) == pytest.approx(1.0, abs=1e-9)


def test_nodal_measure_constant_equality_case():
    prob = constant_problem()
    eig = solve_eigenpair(prob, 2, 1e-9)
    report = check_nodal_measure(prob, eig)
    # both nodal intervals have length 1/2, equal to the bound
    assert report["bound"] == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(report["lengths"], [0.5, 0.5], atol=1e-7)
    assert report["all_ok"]


def test_nodal_measure_randomized_k5():
    rng = np.random.default_rng(101)
    breaks = [0.0, 0.35, 0.8, 1.0]
    a = Coefficient.piecewise_constant(breaks, rng.uniform(1.0, 4.0, 3))
    rho = Coefficient.piecewise_constant(breaks, rng.uniform(0.5, 2.0, 3))
    prob = Problem(1.0, 2.0, a, rho)
    eig = solve_eigenpair(prob, 5, 1e-9)
    report = check_nodal_measure(prob, eig)
    assert len(report["lengths"]) == 5
    assert report["all_ok"]


def test_nodal_measure_flags_synthetic_violation():
    prob = two_phase_problem(p=2.0)
    grid = np.linspace(0.0, 1.0, 33)
    fake = Eigenpair(2, 50.0, grid, np.sin(2 * math.pi * grid), (0.05,))
    report = check_nodal_measure(prob, fake)
    assert not report["all_ok"]
