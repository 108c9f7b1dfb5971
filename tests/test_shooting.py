"""Shooting integration, zero counting, and eigenvalue bracketing."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import j0, y0

from plapeig import (BracketError, Coefficient, NonconvergenceError, Problem,
                     Trajectory, asin_p, count_interior_zeros, dsin_p, integrate_ivp,
                     interior_zero_locations, phi_p, phi_p_inv, pi_p,
                     propagate_piecewise_constant, sin_p, solve_eigenpair,
                     solve_eigenvalue, weyl_bracket)

from plapeig.ptrig import _kernel_for, _reduce, _sin_core
from plapeig.shooting import _end_phase, _pc_sample, _pc_zero_positions, _propagate

from exact_p2 import transfer_matrix_eigenvalue_p2


def constant_problem(p=2.0, a=1.0, rho=1.0, length=1.0):
    return Problem(length, p,
                   Coefficient.constant(a, (0.0, length)),
                   Coefficient.constant(rho, (0.0, length)))


def two_phase_problem(p=2.0, a_vals=(1.0, 4.0), rho=1.0, length=1.0):
    a = Coefficient.piecewise_constant([0.0, 0.5 * length, length], list(a_vals))
    return Problem(length, p, a, Coefficient.constant(rho, (0.0, length)))


CONTRAST_PIECES = 50
CONTRAST_A = [1.0 if i % 2 == 0 else 1e6 for i in range(CONTRAST_PIECES)]


def contrast_problem(p):
    # 50 equal pieces with a alternating 1 and 1e6, rho = 1: on the stiff
    # pieces the solution sits at a turning point of its phase.
    edges = [i / CONTRAST_PIECES for i in range(CONTRAST_PIECES + 1)]
    return Problem(1.0, p, Coefficient.piecewise_constant(edges, CONTRAST_A),
                   Coefficient.constant(1.0))


# -- integrate_ivp ------------------------------------------------------


def test_zero_lambda_gives_linear_solution():
    t = integrate_ivp(constant_problem(), 0.0, 0.0, 1.0, steps_per_unit=100)
    np.testing.assert_allclose(t.u, t.grid, atol=1e-12)
    np.testing.assert_allclose(t.v, 1.0, atol=1e-14)


def test_zero_lambda_flux_constant_across_jumps():
    prob = two_phase_problem(p=3.0)
    t = integrate_ivp(prob, 0.0, 0.0, 1.0, steps_per_unit=200)
    np.testing.assert_allclose(t.v, 1.0, atol=1e-12)


def test_endpoint_zero_at_first_eigenvalue_p2():
    lam = math.pi ** 2
    t = integrate_ivp(constant_problem(), lam, steps_per_unit=10_000)
    assert abs(t.u[-1]) < 1e-6
    assert t.hamiltonian_drift < 1e-8


def test_endpoint_zero_at_first_eigenvalue_p3():
    lam = pi_p(3.0) ** 3
    t = integrate_ivp(constant_problem(p=3.0), lam, steps_per_unit=10_000)
    assert abs(t.u[-1]) < 1e-5
    # Drift through the turning point decays like h^{3/2} for p != 2.
    assert t.hamiltonian_drift < 1e-6


def test_drift_meets_production_target():
    # p = 2 state is smooth: drift is at rounding level already at 1e4
    # steps.  For p != 2 the h^{3/2} turning-point scaling puts the 1e-8
    # target near 2e5 steps per unit.
    t = integrate_ivp(two_phase_problem(p=2.0), 60.0, steps_per_unit=10_000)
    assert t.hamiltonian_drift < 1e-10
    lam = pi_p(3.0) ** 3
    t = integrate_ivp(constant_problem(p=3.0), lam, steps_per_unit=200_000)
    assert t.hamiltonian_drift < 1e-8


def _reference_rk4(prob, lam, steps_per_unit):
    # The stepper as a plain loop: Coefficient, phi_p and phi_p_inv at
    # every stage, on the same breakpoint-aligned steps.
    p = prob.p.p
    edges = [0.0] + prob.breakpoints() + [prob.length]
    u, v = 0.0, 1.0
    xs, us, vs = [0.0], [u], [v]
    for x0, x1 in zip(edges, edges[1:]):
        a = prob.a.materialized(x0, x1)
        rho = prob.rho.materialized(x0, x1)

        def rhs(x, u, v):
            x = min(max(x, x0), x1)
            return phi_p_inv(p, v / a(x)), -lam * rho(x) * phi_p(p, u)

        n = max(1, math.ceil(steps_per_unit * (x1 - x0)))
        h = (x1 - x0) / n
        for i in range(n):
            x = x0 + i * h
            k1 = rhs(x, u, v)
            k2 = rhs(x + 0.5 * h, u + 0.5 * h * k1[0], v + 0.5 * h * k1[1])
            k3 = rhs(x + 0.5 * h, u + 0.5 * h * k2[0], v + 0.5 * h * k2[1])
            k4 = rhs(x + h, u + h * k3[0], v + h * k3[1])
            u += h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
            v += h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
            xs.append(x1 if i == n - 1 else x0 + (i + 1) * h)
            us.append(u)
            vs.append(v)
    return np.array(xs), np.array(us), np.array(vs)


def _rk4_problems(p):
    C = Coefficient
    two_phase = C.piecewise_constant([0.0, 0.5, 1.0], [1.0, 4.0])
    return [
        Problem(1.0, p, C.piecewise_linear([0.0, 0.4, 1.0], [1.0, 3.0, 2.0]),
                C.piecewise_linear([0.0, 1.0], [1.0, 2.0])),
        Problem(1.0, p, C.periodic(two_phase, 0.3),
                C.piecewise_constant([0.0, 0.45, 1.0], [1.0, 2.0])),
        Problem(1.0, p, C.periodic(C.piecewise_linear([0.0, 0.5, 1.0], [1.0, 3.0, 1.0]), 0.25),
                C.periodic(two_phase, 0.5)),
    ]


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_integrate_matches_per_stage_reference_bitwise(p):
    for prob in _rk4_problems(p):
        lam = 0.5 * sum(weyl_bracket(prob, 2))
        t = integrate_ivp(prob, lam, steps_per_unit=10_000)
        grid, u, v = _reference_rk4(prob, lam, 10_000)
        assert np.array_equal(t.grid, grid)
        assert np.array_equal(t.u, u)
        assert np.array_equal(t.v, v)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_integrate_reports_a_state_that_leaves_the_floats(p):
    # At p = 3 the state turns into inf/NaN; at p = 1.5 the power in the
    # flux overflows first.
    prob = Problem(1.0, p, Coefficient.piecewise_linear([0.0, 1.0], [1.0, 3.0]),
                   Coefficient.constant(1.0))
    with pytest.raises(NonconvergenceError, match=r"lam=1e\+40 failed on piece 0"):
        integrate_ivp(prob, 1e40, steps_per_unit=100)


def test_integrate_rejects_bad_inputs():
    prob = constant_problem()
    with pytest.raises(ValueError):
        integrate_ivp(prob, -1.0)
    with pytest.raises(ValueError):
        integrate_ivp(prob, 1.0, 0.0, 0.0)


def test_drift_ceiling_raises_on_coarse_steps():
    prob = constant_problem(p=3.0)
    with pytest.raises(NonconvergenceError):
        integrate_ivp(prob, 200.0, steps_per_unit=8, drift_ceiling=1e-12)


def test_trajectory_csv_round_trip(tmp_path):
    t = integrate_ivp(constant_problem(), 10.0, steps_per_unit=50)
    path = tmp_path / "traj.csv"
    t.write_csv(path)
    data = np.genfromtxt(path, delimiter=",", names=True)
    np.testing.assert_allclose(data["x"], t.grid, atol=1e-14)
    np.testing.assert_allclose(data["u"], t.u, atol=1e-14)
    np.testing.assert_allclose(data["v"], t.v, atol=1e-14)


# -- zero counting ------------------------------------------------------


def test_zero_count_brackets_mu_k():
    prob = constant_problem()
    mu = [(math.pi * k) ** 2 for k in range(1, 4)]
    t = integrate_ivp(prob, 0.5 * mu[0], steps_per_unit=2000)
    assert count_interior_zeros(t) == 0
    t = integrate_ivp(prob, 1.05 * mu[1], steps_per_unit=2000)
    assert count_interior_zeros(t) == 2


def test_zero_count_on_synthetic_sin_p_samples():
    # Third constant-coefficient mode: two interior zeros at 1/3, 2/3.
    p = 2.5
    pip = pi_p(p)
    grid = np.linspace(0.0, 1.0, 4001)
    u = np.array([sin_p(p, 3.0 * pip * x) for x in grid])
    v = np.array([phi_p(p, 3.0 * pip * dsin_p(p, 3.0 * pip * x)) for x in grid])
    u[-1] = 0.0  # the Dirichlet value, not a rounding residue of sin_p(3 pi_p)
    t = Trajectory(grid=grid, u=u, v=v, hamiltonian_drift=0.0)
    assert count_interior_zeros(t) == 2
    zs = interior_zero_locations(t)
    np.testing.assert_allclose(zs, [1.0 / 3.0, 2.0 / 3.0], atol=1e-9)


def test_zero_count_handles_exact_nodes():
    grid = np.linspace(0.0, 1.0, 9)
    u = np.sin(2.0 * math.pi * grid)  # exact zeros at 0, 0.5, 1
    t = Trajectory(grid=grid, u=u, v=np.cos(2.0 * math.pi * grid),
                   hamiltonian_drift=0.0)
    assert count_interior_zeros(t) == 1


def zero_count_loop(u):
    # The per-node loop count_interior_zeros replaced.
    n = len(u)
    count = 0
    last = math.copysign(1.0, u[0]) if u[0] != 0.0 else 0.0
    for i in range(1, n):
        if u[i] == 0.0:
            if i < n - 1:
                count += 1
            last = 0.0
            continue
        s = math.copysign(1.0, u[i])
        if last != 0.0 and s != last:
            count += 1
        last = s
    return count


# Signed zeros, tiny and ordinary values, drawn often enough that runs of
# zeros and sign changes across them are common.
_ZERO_COUNT_VALUES = st.sampled_from([0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 2.5, -3.0,
                                      5e-324, -5e-324, 1e-300, -1e-300])


@given(st.lists(_ZERO_COUNT_VALUES | st.floats(allow_nan=False), min_size=1, max_size=40))
def test_zero_count_matches_the_node_loop(values):
    u = np.array(values)
    t = Trajectory(grid=np.arange(len(u), dtype=float), u=u, v=u, hamiltonian_drift=0.0)
    assert count_interior_zeros(t) == zero_count_loop(u)


# -- weyl_bracket -------------------------------------------------------


def test_bracket_contains_constant_eigenvalues():
    for c in (0.5, 1.0, 3.0):
        for k in (1, 2, 5):
            prob = constant_problem(a=c)
            lo, hi = weyl_bracket(prob, k)
            lam = c * (math.pi * k) ** 2
            assert lo < lam < hi


def test_bracket_covers_the_sandwich():
    prob = two_phase_problem()
    lo, hi = weyl_bracket(prob, 2)
    assert lo <= 4.0 * math.pi ** 2
    assert hi >= 16.0 * math.pi ** 2


def test_bracket_rejects_bad_k():
    with pytest.raises(ValueError):
        weyl_bracket(constant_problem(), 0)


# -- closed-form propagation --------------------------------------------


def test_propagate_requires_piecewise_constant():
    a = Coefficient.piecewise_linear([0.0, 1.0], [1.0, 2.0])
    prob = Problem(1.0, 2.0, a, Coefficient.constant(1.0))
    with pytest.raises(ValueError):
        propagate_piecewise_constant(prob, 1.0)


def test_propagate_single_piece_hits_boundary_zero():
    for p in (1.5, 2.0, 3.0):
        prob = constant_problem(p=p)
        lam = pi_p(p) ** p
        u_end, _, nz = propagate_piecewise_constant(prob, lam)
        assert abs(u_end) < 1e-11
        assert nz == 0


def test_propagate_zero_lambda_flux():
    prob = two_phase_problem(p=2.0)
    u_end, v_end, nz = propagate_piecewise_constant(prob, 0.0)
    assert v_end == pytest.approx(1.0, abs=1e-14)
    # u(1) = int_0^1 v/a dx = 0.5*1 + 0.5/4
    assert u_end == pytest.approx(0.625, abs=1e-12)
    assert nz == 0


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_exact_and_rk4_agree_on_two_phase(p):
    prob = two_phase_problem(p=p)
    rng = np.random.default_rng(17)
    lo, hi = weyl_bracket(prob, 1)
    for lam in rng.uniform(lo, hi, 3):
        lam = float(lam)
        u_ref, v_ref, _ = propagate_piecewise_constant(prob, lam)
        t = integrate_ivp(prob, lam, steps_per_unit=10_000)
        assert abs(float(t.u[-1]) - u_ref) <= 1e-6
        # v carries the h^{3/2} turning-point error, so it trails u.
        assert abs(float(t.v[-1]) - v_ref) <= 1e-5 * max(1.0, abs(v_ref))


# -- eigenvalue solving -------------------------------------------------


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_constant_coefficient_spectrum(p):
    prob = constant_problem(p=p)
    pip = pi_p(p)
    for k in (1, 2, 3, 7):
        lam = solve_eigenvalue(prob, k, 1e-10)
        exact = (pip * k) ** p
        assert lam == pytest.approx(exact, rel=1e-8)


def test_solve_k3_p2_example():
    lam = solve_eigenvalue(constant_problem(), 3, 1e-10)
    assert lam == pytest.approx(9.0 * math.pi ** 2, rel=1e-8)


def test_solve_scaled_diffusion():
    lam = solve_eigenvalue(constant_problem(a=2.0), 1, 1e-10)
    assert lam == pytest.approx(2.0 * math.pi ** 2, rel=1e-8)


def test_solve_p3_first_eigenvalue():
    lam = solve_eigenvalue(constant_problem(p=3.0), 1, 1e-10)
    assert lam == pytest.approx(pi_p(3.0) ** 3, rel=1e-8)


def test_weight_scaling_inverts_eigenvalues():
    base = two_phase_problem(p=2.5)
    scaled = Problem(1.0, 2.5, base.a, Coefficient.constant(4.0))
    for k in (1, 3):
        lam = solve_eigenvalue(base, k, 1e-10)
        lam_scaled = solve_eigenvalue(scaled, k, 1e-10)
        assert lam_scaled == pytest.approx(lam / 4.0, rel=1e-8)


def test_eigenvalues_increase_with_k():
    rng = np.random.default_rng(23)
    breaks = [0.0, 0.3, 0.7, 1.0]
    for p in (1.5, 3.0):
        a = Coefficient.piecewise_constant(breaks, rng.uniform(0.5, 4.0, 3))
        rho = Coefficient.piecewise_constant(breaks, rng.uniform(0.5, 4.0, 3))
        prob = Problem(1.0, p, a, rho)
        lams = [solve_eigenvalue(prob, k, 1e-9) for k in range(1, 7)]
        assert all(b > a for a, b in zip(lams, lams[1:]))


def test_eigenpair_structure():
    prob = two_phase_problem(p=2.0)
    for k in (1, 2, 4):
        eig = solve_eigenpair(prob, k, 1e-9)
        assert eig.k == k
        assert len(eig.zeros) == k - 1
        assert eig.u[0] == 0.0 and eig.u[-1] == 0.0
        assert eig.u[1] > 0.0  # sign convention u'(0) > 0
        norm = np.trapezoid(np.abs(eig.u) ** 2, eig.grid) ** 0.5
        assert norm == pytest.approx(1.0, abs=1e-8)
        assert all(0.0 < z < 1.0 for z in eig.zeros)
        assert all(b > a for a, b in zip(eig.zeros, eig.zeros[1:]))


def test_eigenpair_zeros_match_constant_modes():
    eig = solve_eigenpair(constant_problem(p=3.0), 3, 1e-10)
    np.testing.assert_allclose(eig.zeros, [1.0 / 3.0, 2.0 / 3.0], atol=1e-8)


def test_solve_via_rk4_route():
    # Piecewise-linear coefficient forces the integrator path.
    a = Coefficient.piecewise_linear([0.0, 1.0], [1.0, 1.0])
    prob = Problem(1.0, 2.0, a, Coefficient.constant(1.0))
    lam = solve_eigenvalue(prob, 1, 1e-8, steps_per_unit=2000)
    assert lam == pytest.approx(math.pi ** 2, rel=1e-7)


def test_rk4_eigenpair_zeros():
    a = Coefficient.piecewise_linear([0.0, 1.0], [1.0, 1.0])
    prob = Problem(1.0, 2.0, a, Coefficient.constant(1.0))
    eig = solve_eigenpair(prob, 2, 1e-7, steps_per_unit=1500)
    assert len(eig.zeros) == 1
    assert eig.zeros[0] == pytest.approx(0.5, abs=1e-5)


def test_high_contrast_first_eigenvalue_p15():
    # Reference: bisection on RK4 shots of integrate_ivp, which shares no
    # code with the closed form; 1e4 and 2e4 steps per unit both bracket
    # lam_1 in [7.5205839, 7.5205841].
    lam = solve_eigenvalue(contrast_problem(1.5), 1)
    assert lam == pytest.approx(7.520584, rel=1e-7)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_high_contrast_eigenfunctions_are_normalized(k):
    p = 1.5
    eig = solve_eigenpair(contrast_problem(p), k)
    w = np.abs(eig.u) ** p
    norm = float(np.sum(0.5 * (w[1:] + w[:-1]) * np.diff(eig.grid)))
    assert norm == pytest.approx(1.0, abs=1e-9)


def test_high_contrast_second_eigenvalue_p2_matches_transfer_matrix():
    prob = contrast_problem(2.0)
    exact = transfer_matrix_eigenvalue_p2([1.0 / CONTRAST_PIECES] * CONTRAST_PIECES,
                                          CONTRAST_A, 2, weyl_bracket(prob, 2))
    assert solve_eigenvalue(prob, 2) == pytest.approx(exact, rel=1e-8)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_endgame_converges_in_twenty_iterations(p):
    # Midpoint bisection from the Weyl bracket to tol 1e-9 takes 34.
    prob = two_phase_problem(p=p)
    for k in (1, 2, 3):
        lam = solve_eigenvalue(prob, k, max_iter=20)
        assert propagate_piecewise_constant(prob, lam * (1.0 - 2e-9))[2] == k - 1
        assert propagate_piecewise_constant(prob, lam * (1.0 + 2e-9))[2] == k


def test_endgame_on_high_contrast_pieces():
    # Bisection takes 52 iterations from the 1e6-wide Weyl bracket.
    prob = contrast_problem(2.0)
    for k in range(1, 6):
        exact = transfer_matrix_eigenvalue_p2([1.0 / CONTRAST_PIECES] * CONTRAST_PIECES,
                                              CONTRAST_A, k, weyl_bracket(prob, k))
        assert solve_eigenvalue(prob, k, max_iter=40) == pytest.approx(exact, rel=1e-8)


def test_high_contrast_solves_in_twenty_iterations():
    # With the phase eigencondition regula falsi runs from the Weyl
    # bracket on; midpoints until both ends shot k-1 or k zeros took 27-30.
    prob = contrast_problem(3.0)
    for k in range(1, 6):
        lam = solve_eigenvalue(prob, k, max_iter=20)
        assert propagate_piecewise_constant(prob, lam * (1.0 - 2e-9))[2] == k - 1
        assert propagate_piecewise_constant(prob, lam * (1.0 + 2e-9))[2] == k


def bessel_eigenvalue(k):
    # -((1 + 2x) u')' = lam u on (0, 1): u = A J0(sqrt(lam t)) + B Y0(sqrt(lam t))
    # with t = 1 + 2x, so lam_k is the k-th root of the cross product.
    def cross(lam):
        s, r = math.sqrt(lam), math.sqrt(3.0 * lam)
        return j0(s) * y0(r) - j0(r) * y0(s)

    grid = np.linspace(0.5, 200.0, 4000)
    vals = [cross(lam) for lam in grid]
    roots = [brentq(cross, a, b, xtol=1e-14) for a, b, fa, fb
             in zip(grid, grid[1:], vals, vals[1:]) if fa * fb < 0.0]
    return roots[k - 1]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_rk4_route_solves_in_ten_iterations(k):
    # The RK4 shots feed the same phase eigencondition as the closed form.
    a = Coefficient.piecewise_linear([0.0, 1.0], [1.0, 3.0])
    prob = Problem(1.0, 2.0, a, Coefficient.constant(1.0))
    lam = solve_eigenvalue(prob, k, steps_per_unit=1000, max_iter=10)
    assert lam == pytest.approx(bessel_eigenvalue(k), rel=1e-8)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 8.0])
def test_end_phase_of_constant_pieces_is_omega_l(p):
    # On one constant piece theta(L) = L (lam rho / a)^(1/p) exactly.
    kernel = _kernel_for(p)
    pc = p / (p - 1.0)
    a, rho, length = 2.0, 0.5, 1.3
    pieces = [(0.0, length, a, rho)]
    for lam in (0.7, 3.0, 41.0, 250.0, 1234.5):
        theta = _end_phase(kernel, p, pc, a, rho, lam,
                           *_propagate(pieces, kernel, p, pc, lam, 0.0, 1.0))
        assert theta == pytest.approx(length * (lam * rho / a) ** (1.0 / p), rel=4e-15)
    # L = k pi_p at omega = 1: the shot ends on u(L) = 0.0 exactly, with
    # k-1 interior zeros, and theta(L) is k pi_p.
    for k in (1, 2):
        pieces = [(0.0, k * kernel.pi, 1.0, 1.0)]
        u, v, n = _propagate(pieces, kernel, p, pc, 1.0, 0.0, 1.0)
        assert u == 0.0 and n == k - 1
        assert _end_phase(kernel, p, pc, 1.0, 1.0, 1.0, u, v, n) == k * kernel.pi


@pytest.mark.parametrize("p, length", [(300.0, 1.0), (50.0, 2.0), (50.0, 3.0), (100.0, 3.0)])
def test_end_phase_at_large_p_keeps_the_phase_next_to_a_zero(p, length):
    # Shots that end with |u(L)| < 10^(-308/p) A (0.094 A at p = 300) must
    # keep their phase: snapped to 0 or pi_p, lam_1 at L = 3 came out 1.7e-5
    # (p = 50) and 4 % (p = 100) low, and p = 300 raised BracketError.
    lam = solve_eigenvalue(constant_problem(p=p, length=length), 1)
    assert lam == pytest.approx((pi_p(p) / length) ** p, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("p, u", [(50.0, 3e-7), (300.0, 0.05)])
def test_end_phase_is_scale_invariant_next_to_a_zero(p, u):
    # (u, v) and (c u, c^(p-1) v) have the same phase.  With |u| < 10^(-308/p) A
    # kin/pot overflows at either scale, and |u|^p underflows at c = 1 only;
    # both must give psi = asin_p(|u|/A), not the snapped psi = 0.
    kernel = _kernel_for(p)
    pc = p / (p - 1.0)
    v = 0.8
    amp = ((p - 1.0) * v ** pc) ** (1.0 / p)
    for c in (1.0, 5.0):
        psi = _end_phase(kernel, p, pc, 1.0, 1.0, 1.0, c * u, c ** (p - 1.0) * v, 0)
        assert psi == pytest.approx(asin_p(p, u / amp), rel=1e-13, abs=0.0)


def test_end_phase_overflow_is_a_solver_error():
    # The RK4 shot at the lower bracket end ends on u(L) = 1.7e297: finite,
    # but its energy share |u(L)|^p overflows in the end phase.
    a = Coefficient.piecewise_linear([0.0, 1.0], [1e-15, 1.0])
    prob = Problem(1.0, 1.05, a, Coefficient.constant(1.0))
    with pytest.raises(NonconvergenceError, match="end phase of the shot"):
        solve_eigenvalue(prob, 1, 1e-6, steps_per_unit=100)


def alternating_problem(n, p):
    edges = [i / n for i in range(n + 1)]
    a_vals = [1.0 if i % 2 == 0 else 1e6 for i in range(n)]
    return Problem(1.0, p, Coefficient.piecewise_constant(edges, a_vals),
                   Coefficient.constant(1.0)), a_vals


def test_unscaled_propagation_reports_the_overflow():
    # The shot the bracket of lambda_3 takes at lam = 1.78e8 grows past
    # the floats unscaled; propagate_piecewise_constant keeps returning
    # the unscaled (u(L), v(L), n), so it reports that.
    prob, _ = alternating_problem(200, 2.0)
    with pytest.raises(NonconvergenceError, match=r"lam=178000000.0 failed on piece \d+"):
        propagate_piecewise_constant(prob, 1.78e8)


@pytest.mark.parametrize("n, k", [(200, 3), (2000, 1)])
def test_rescaled_shots_solve_many_contrast_pieces(n, k):
    prob, a_vals = alternating_problem(n, 2.0)
    lam = solve_eigenvalue(prob, k)
    exact = transfer_matrix_eigenvalue_p2([1.0 / n] * n, a_vals, k, (0.5 * lam, 2.0 * lam))
    assert lam == pytest.approx(exact, rel=1e-9)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_rescaled_shots_give_eigenpairs_on_many_contrast_pieces(p):
    prob, _ = alternating_problem(200, p)
    eig = solve_eigenpair(prob, 3)
    assert len(eig.zeros) == 2
    assert propagate_piecewise_constant(prob, eig.lam * (1.0 - 2e-9))[2] == 2
    assert propagate_piecewise_constant(prob, eig.lam * (1.0 + 2e-9))[2] == 3


def test_bracket_override_failures():
    prob = constant_problem()
    mu1 = math.pi ** 2
    with pytest.raises(BracketError):
        solve_eigenvalue(prob, 1, 1e-9, bracket=(2.0 * mu1, 3.0 * mu1))
    with pytest.raises(BracketError):
        solve_eigenvalue(prob, 1, 1e-9, bracket=(0.1 * mu1, 0.5 * mu1))
    with pytest.raises(ValueError):
        solve_eigenvalue(prob, 1, 1e-9, bracket=(-1.0, 5.0))


def test_nonconvergence_on_tiny_budget():
    with pytest.raises(NonconvergenceError):
        solve_eigenvalue(constant_problem(), 1, 1e-12, max_iter=3)


def test_solve_rejects_bad_arguments():
    prob = constant_problem()
    with pytest.raises(ValueError):
        solve_eigenvalue(prob, 0)
    with pytest.raises(ValueError):
        solve_eigenvalue(prob, 1, -1e-9)


def test_bracket_counts_a_zero_at_the_end_as_boundary():
    # The first interior point of this bracket is lam_3 to 3e-10, and its
    # closed-form shot ends on u(L) = 0.0 exactly.  Counted as interior,
    # that zero gave the shot k - 1 = 3 zeros and g = 0, so lam_3 was
    # taken as the upper end and returned for k = 4.
    prob = two_phase_problem(p=2.0)
    lam4 = solve_eigenvalue(prob, 4)
    assert solve_eigenvalue(prob, 4, bracket=(15.827340834859513, 300.0)) == \
        pytest.approx(lam4, rel=1e-9)
    assert lam4 == pytest.approx(294.7203, rel=1e-6)


def test_endgame_survives_a_zero_rounding_past_the_end():
    # The first interior point is lam_5 rounded up; its shot counts the
    # fifth zero as interior, yet u(L) = +2.8e-17 keeps the sign from
    # before it.  Kept as the upper end's g > 0, that stopped the regula
    # falsi for the rest of the solve.
    prob = constant_problem()
    lam5 = 25.0 * math.pi ** 2
    lam = solve_eigenvalue(prob, 5, bracket=(100.0, 2.0 * 246.740110027234 - 100.0),
                           max_iter=10)
    assert lam == pytest.approx(lam5, rel=1e-9)


def pc_sample_loop(desc, kernel, p, xs):
    # The per-point loop _pc_sample replaced.
    out = np.empty(len(xs))
    j = 0
    for idx, x in enumerate(xs):
        while j + 1 < len(desc) and x > desc[j][1]:
            j += 1
        x0, x1, av, omega, phi0, amp, u_in, v_in = desc[j]
        if omega is None:
            out[idx] = u_in + phi_p_inv(p, v_in / av) * (x - x0)
        else:
            z, sgn, _ = _reduce(kernel, phi0 + omega * (x - x0))
            out[idx] = amp * sgn * _sin_core(kernel, z)[0]
    return out


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("case", ["two-phase", "contrast", "lam=0"])
def test_pc_sample_matches_the_point_loop(p, case):
    prob = contrast_problem(p) if case == "contrast" else two_phase_problem(p=p, rho=2.0)
    lam = 0.0 if case == "lam=0" else solve_eigenvalue(prob, 3)
    kernel = _kernel_for(p)
    pieces = prob.pieces()
    _, desc = _pc_zero_positions(pieces, kernel, p, prob.p.p_conj, lam, 0.0, 1.0, 1.0)
    grid = np.unique(np.concatenate([np.linspace(0.0, 1.0, 1025), prob.breakpoints()]))
    got = _pc_sample(desc, kernel, p, grid)
    ref = pc_sample_loop(desc, kernel, p, grid)
    # Only the powers inside sin_p may round differently (see test_ptrig).
    np.testing.assert_allclose(got, ref, rtol=0.0,
                               atol=8.0 * np.finfo(float).eps * np.max(np.abs(ref)))
    assert np.array_equal(np.sign(got), np.sign(ref))
