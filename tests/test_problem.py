"""Problem statement types, scalar kernels, and the pointwise identity."""

import math

import numpy as np
import pytest

from plapeig import (Coefficient, Eigenpair, Problem, phi_p, phi_p_inv,
                     picone_lr, potential)

# -- phi_p and its inverse ----------------------------------------------


def test_phi_p_examples():
    for s in (-3.0, 0.0, 7.0):
        assert phi_p(2.0, s) == s
    assert phi_p(3.0, -2.0) == pytest.approx(-4.0, abs=1e-14)
    assert phi_p(1.5, 4.0) == pytest.approx(2.0, abs=1e-14)
    assert phi_p(4.0, 0.0) == 0.0


def test_phi_p_inv_examples():
    assert phi_p_inv(3.0, -4.0) == pytest.approx(-2.0, abs=1e-14)
    for t in (-2.5, 0.0, 0.3, 11.0):
        assert phi_p_inv(2.0, t) == t
    for p in (1.3, 2.6):
        assert phi_p_inv(p, phi_p(p, 0.37)) == pytest.approx(0.37, abs=1e-13)


def test_phi_p_odd_increasing_roundtrip():
    rng = np.random.default_rng(11)
    for _ in range(200):
        p = rng.uniform(1.1, 6.0)
        s = rng.uniform(-5.0, 5.0)
        assert phi_p(p, -s) == pytest.approx(-phi_p(p, s), abs=1e-13)
        assert phi_p_inv(p, phi_p(p, s)) == pytest.approx(s, rel=1e-11, abs=1e-11)
    ss = np.linspace(-2.0, 2.0, 101)
    for p in (1.5, 3.0):
        vals = [phi_p(p, s) for s in ss]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_phi_p_vectorized():
    s = np.array([-2.0, 0.0, 2.0])
    out = phi_p(3.0, s)
    assert isinstance(out, np.ndarray)
    np.testing.assert_allclose(out, [-4.0, 0.0, 4.0], atol=1e-14)


# -- potential ----------------------------------------------------------


def test_potential_examples():
    assert potential(1.0, 2.0, -3.0) == pytest.approx(9.0, abs=1e-14)
    assert potential(2.0, 3.0, 0.5) == pytest.approx(0.25, abs=1e-14)


def test_potential_gradient_matches_phi_p():
    rng = np.random.default_rng(5)
    h = 1e-6
    for _ in range(100):
        a = rng.uniform(0.2, 3.0)
        p = rng.uniform(1.4, 4.0)
        xi = rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0])
        fd = (potential(a, p, xi + h) - potential(a, p, xi - h)) / (2.0 * h)
        assert fd == pytest.approx(p * a * phi_p(p, xi), rel=1e-7, abs=1e-7)


def test_potential_homogeneity_and_symmetry():
    rng = np.random.default_rng(6)
    for _ in range(100):
        a = rng.uniform(0.2, 3.0)
        p = rng.uniform(1.2, 5.0)
        xi = rng.uniform(-2.0, 2.0)
        t = rng.uniform(0.1, 4.0)
        assert potential(a, p, t * xi) == pytest.approx(
            t ** p * potential(a, p, xi), rel=1e-12)
        assert potential(a, p, -xi) == potential(a, p, xi)


def test_potential_rejects_nonpositive_coefficient():
    with pytest.raises(ValueError):
        potential(0.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        potential(-1.0, 2.0, 1.0)


# -- the pointwise identity ---------------------------------------------


def test_picone_hand_example():
    left, right = picone_lr(2.0, 1.0, 1.0, 0.0, 1.0, 1.0)
    assert left == pytest.approx(1.0, abs=1e-14)
    assert right == pytest.approx(1.0, abs=1e-14)


def test_picone_vanishes_on_proportional_pairs():
    rng = np.random.default_rng(7)
    for _ in range(200):
        p = rng.uniform(1.2, 4.0)
        a = rng.uniform(0.2, 3.0)
        v = rng.uniform(0.8, 2.5)
        dv = rng.uniform(-2.0, 2.0)
        t = rng.uniform(0.1, 3.0)
        left, right = picone_lr(p, a, t * v, t * dv, v, dv)
        assert abs(left) < 1e-12
        assert abs(right) < 1e-12 * (1.0 + abs(left)) + 1e-12


def test_picone_identity_randomized():
    # 10^4 admissible tuples: the two independently grouped evaluations
    # agree and the left side is nonnegative (convexity).
    rng = np.random.default_rng(2024)
    for _ in range(10_000):
        p = rng.uniform(1.2, 4.0)
        a = rng.uniform(0.2, 3.0)
        u = rng.uniform(0.0, 2.0)
        v = rng.uniform(0.8, 2.5)
        du = rng.uniform(-2.0, 2.0)
        dv = rng.uniform(-2.0, 2.0)
        left, right = picone_lr(p, a, u, du, v, dv)
        assert abs(left - right) <= 1e-12 * (1.0 + abs(left))
        assert left >= -1e-12


def test_picone_domain_errors():
    with pytest.raises(ValueError):
        picone_lr(2.0, 1.0, -0.1, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        picone_lr(2.0, 1.0, 1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        picone_lr(2.0, 1.0, 1.0, 0.0, -1.0, 0.0)
    with pytest.raises(ValueError):
        picone_lr(2.0, 0.0, 1.0, 0.0, 1.0, 0.0)


# -- coefficients -------------------------------------------------------


def two_phase():
    return Coefficient.piecewise_constant([0.0, 0.5, 1.0], [1.0, 4.0])


def test_eval_coeff_piecewise_constant():
    c = two_phase()
    assert c(0.25) == 1.0
    assert c(0.5) == 4.0  # right-continuous at the jump
    assert c(0.0) == 1.0
    assert c(1.0) == 4.0  # closed right end
    with pytest.raises(ValueError):
        c(1.5)
    with pytest.raises(ValueError):
        c(-0.1)


def test_eval_coeff_periodic_cell():
    c = Coefficient.periodic(two_phase(), 0.1)
    assert c(0.77) == 4.0  # fractional part 0.7 >= 0.5
    assert c(0.02) == 1.0
    assert c(-0.03) == 4.0  # fractional part 0.7


def test_periodic_cell_is_periodic_at_samples():
    c = Coefficient.periodic(two_phase(), 0.1)
    rng = np.random.default_rng(8)
    for x in rng.uniform(0.0, 0.9, 200):
        assert c(float(x) + 0.1) == c(float(x))


def test_periodic_linear_cell_periodicity():
    cell = Coefficient.piecewise_linear([0.0, 0.5, 1.0], [1.0, 3.0, 1.0])
    c = Coefficient.periodic(cell, 0.25)
    rng = np.random.default_rng(9)
    for x in rng.uniform(0.0, 2.0, 200):
        assert c(float(x) + 0.25) == pytest.approx(c(float(x)), rel=1e-12)


def test_eval_coeff_piecewise_linear():
    c = Coefficient.piecewise_linear([0.0, 1.0, 2.0], [1.0, 3.0, 2.0])
    assert c(0.0) == 1.0
    assert c(0.5) == pytest.approx(2.0)
    assert c(1.0) == pytest.approx(3.0)
    assert c(1.5) == pytest.approx(2.5)
    assert c(2.0) == pytest.approx(2.0)


@pytest.mark.parametrize("kind", ["constant", "linear", "periodic-constant", "periodic-linear"])
def test_array_evaluation_matches_pointwise_calls(kind):
    pc = Coefficient.piecewise_constant([0.0, 0.3, 0.5, 1.0], [1.0, 4.0, 0.5])
    pl = Coefficient.piecewise_linear([0.0, 0.5, 1.0], [1.0, 3.0, 1.0])
    c = {"constant": pc, "linear": pl,
         "periodic-constant": Coefficient.periodic(pc, 0.1),
         "periodic-linear": Coefficient.periodic(pl, 0.25)}[kind]
    rng = np.random.default_rng(12)
    # breakpoints, both ends and cell seams included
    xs = np.concatenate([np.linspace(0.0, 1.0, 401), [0.3, 0.5, 0.05, 0.125, 0.7],
                         rng.uniform(0.0, 1.0, 500)])
    assert np.array_equal(c._at(xs), np.array([c(x) for x in xs]))


def test_coefficient_bounds():
    c = two_phase()
    assert c.lower() == 1.0
    assert c.upper() == 4.0
    cp = Coefficient.periodic(c, 0.2)
    assert cp.lower() == 1.0 and cp.upper() == 4.0
    cl = Coefficient.piecewise_linear([0.0, 1.0], [2.0, 5.0])
    assert cl.lower() == 2.0 and cl.upper() == 5.0


def test_coefficient_validation():
    with pytest.raises(ValueError):
        Coefficient.piecewise_constant([0.0, 1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        Coefficient.piecewise_linear([0.0, 1.0], [1.0])
    with pytest.raises(ValueError):
        Coefficient.piecewise_constant([0.0, 0.0, 1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        Coefficient.piecewise_constant([1.0, 0.0], [1.0])
    with pytest.raises(ValueError):
        Coefficient.piecewise_constant([0.0, 1.0], [0.0])
    with pytest.raises(ValueError):
        Coefficient.piecewise_constant([0.0, 1.0], [-2.0])
    with pytest.raises(ValueError):
        Coefficient("mystery", (0.0, 1.0), (1.0,))
    half_cell = Coefficient.piecewise_constant([0.0, 0.5], [1.0])
    with pytest.raises(ValueError):
        Coefficient.periodic(half_cell, 0.1)
    with pytest.raises(ValueError):
        Coefficient.periodic(two_phase(), 0.0)
    with pytest.raises(ValueError):
        Coefficient.periodic(Coefficient.periodic(two_phase(), 0.1), 0.2)


def test_materialize_periodic_constant_cells():
    c = Coefficient.periodic(two_phase(), 0.5)
    m = c.materialized(0.0, 1.0)
    assert m.kind == "piecewise-constant"
    # The right endpoint is a cell seam: the materialized form is closed
    # there (left limit) while the periodic function starts a new cell,
    # so compare on [0, 1) only.
    for x in np.linspace(0.0, 1.0, 97)[:-1]:
        assert m(float(x)) == c(float(x))
    assert m(1.0) == 4.0


def test_materialize_discontinuous_linear_seam_rejected():
    cell = Coefficient.piecewise_linear([0.0, 1.0], [1.0, 2.0])
    c = Coefficient.periodic(cell, 0.25)
    with pytest.raises(ValueError):
        c.materialized(0.0, 1.0)
    smooth = Coefficient.piecewise_linear([0.0, 0.5, 1.0], [1.0, 2.0, 1.0])
    m = Coefficient.periodic(smooth, 0.25).materialized(0.0, 1.0)
    assert m.kind == "piecewise-linear"


def test_windowed_shifts_to_origin():
    c = two_phase()
    w = c.windowed(0.25, 0.75)
    assert w.breakpoints[0] == 0.0
    assert w(0.0) == 1.0
    assert w(0.3) == 4.0


# -- Problem and Eigenpair ----------------------------------------------


def unit_problem(p=2.0):
    one = Coefficient.constant(1.0)
    return Problem(1.0, p, one, one)


def test_problem_validation():
    with pytest.raises(ValueError):
        Problem(0.0, 2.0, two_phase(), two_phase())
    with pytest.raises(ValueError):
        Problem(2.0, 2.0, two_phase(), two_phase())  # covers only [0, 1]
    with pytest.raises(ValueError):
        Problem(1.0, 1.0, two_phase(), two_phase())
    prob = Problem(1.0, 2.5, two_phase(), Coefficient.constant(1.0))
    assert prob.p.p == 2.5
    assert prob.p.p_conj == pytest.approx(2.5 / 1.5)


def test_problem_breakpoints_and_pieces():
    a = two_phase()
    rho = Coefficient.piecewise_constant([0.0, 0.25, 1.0], [2.0, 3.0])
    prob = Problem(1.0, 2.0, a, rho)
    assert prob.breakpoints() == [0.25, 0.5]
    pieces = prob.pieces()
    assert pieces == [(0.0, 0.25, 1.0, 2.0), (0.25, 0.5, 1.0, 3.0),
                      (0.5, 1.0, 4.0, 3.0)]


def pieces_by_materializing(prob):
    # Each piece's values from the materialized coefficients, called at
    # the piece midpoint.
    am = prob.a.materialized(0.0, prob.length)
    rm = prob.rho.materialized(0.0, prob.length)
    edges = [0.0] + prob.breakpoints() + [prob.length]
    return [(lo, hi, am(0.5 * (lo + hi)), rm(0.5 * (lo + hi)))
            for lo, hi in zip(edges, edges[1:])]


@pytest.mark.parametrize("case", ["plain", "periodic", "periodic-both"])
def test_problem_pieces_match_the_materialized_coefficients(case):
    rng = np.random.default_rng(5)
    edges = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 2.5, 30)), [2.5]])
    plain = Coefficient.piecewise_constant(edges, rng.uniform(0.1, 10.0, 31))
    cell = Coefficient.piecewise_constant([0.0, 0.2, 0.7, 1.0], [1.0, 4.0, 0.3])
    if case == "plain":
        a, rho = plain, Coefficient.piecewise_constant([0.0, 0.9, 2.5], [1.0, 2.0])
    elif case == "periodic":
        a, rho = Coefficient.periodic(cell, 2.5 / 1024), plain
    else:
        a = Coefficient.periodic(cell, 2.5 / 1024)
        rho = Coefficient.periodic(two_phase(), 2.5 / 333)
    prob = Problem(2.5, 2.0, a, rho)
    assert np.array_equal(np.array(prob.pieces()), np.array(pieces_by_materializing(prob)))


def breakpoints_by_set_loop(prob):
    # Set union of both coefficients' breakpoints, then a point is kept
    # only when it lies more than 1e-12 L past the last one kept.
    pts = sorted(set(prob.a.interior_breakpoints(0.0, prob.length))
                 | set(prob.rho.interior_breakpoints(0.0, prob.length)))
    out = []
    for x in pts:
        if not out or x - out[-1] > 1e-12 * prob.length:
            out.append(x)
    return out


@pytest.mark.parametrize("case", ["constant", "plain", "periodic", "mixed"])
def test_problem_breakpoints_match_the_set_loop(case):
    rng = np.random.default_rng(7)
    edges = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 2.5, 30)), [2.5]])
    plain = Coefficient.piecewise_constant(edges, rng.uniform(0.1, 10.0, 31))
    cell = Coefficient.piecewise_constant([0.0, 0.2, 0.7, 1.0], [1.0, 4.0, 0.3])
    linear = Coefficient.piecewise_linear([0.0, 0.4, 1.0], [1.0, 2.0, 1.0])
    a, rho = {
        "constant": (Coefficient.constant(1.0, (0.0, 2.5)),
                     Coefficient.constant(2.0, (0.0, 2.5))),
        "plain": (plain, Coefficient.piecewise_constant([0.0, edges[5], 2.5], [1.0, 2.0])),
        "periodic": (Coefficient.periodic(cell, 2.5 / 1024),
                     Coefficient.periodic(cell, 2.5 / 512)),
        "mixed": (Coefficient.periodic(linear, 2.5 / 333), plain),
    }[case]
    prob = Problem(2.5, 2.0, a, rho)
    assert prob.breakpoints() == breakpoints_by_set_loop(prob)


def test_problem_breakpoints_drop_a_chain_of_close_points():
    # Each point within 1e-12 L of the one before it is dropped, as in
    # make_mesh, so a chain x1 < x2 < x3 of such gaps keeps only x1 even
    # though x3 - x1 > 1e-12 L (the set loop kept x1 and x3).
    x1, x2, x3 = 0.5, 0.5 + 0.8e-12, 0.5 + 1.6e-12
    a = Coefficient.piecewise_constant([0.0, x1, x3, 1.0], [1.0, 2.0, 3.0])
    rho = Coefficient.piecewise_constant([0.0, x2, 1.0], [1.0, 2.0])
    prob = Problem(1.0, 2.0, a, rho)
    assert prob.breakpoints() == [x1]
    assert breakpoints_by_set_loop(prob) == [x1, x3]


def test_problem_pieces_none_for_linear_data():
    a = Coefficient.piecewise_linear([0.0, 1.0], [1.0, 2.0])
    prob = Problem(1.0, 2.0, a, Coefficient.constant(1.0))
    assert prob.pieces() is None
    periodic = Coefficient.periodic(Coefficient.piecewise_linear([0.0, 0.5, 1.0],
                                                                 [1.0, 2.0, 1.0]), 0.1)
    assert Problem(1.0, 2.0, Coefficient.constant(1.0), periodic).pieces() is None


def test_problem_periodic_breakpoints():
    a = Coefficient.periodic(two_phase(), 0.5)
    prob = Problem(1.0, 2.0, a, Coefficient.constant(1.0))
    assert prob.breakpoints() == pytest.approx([0.25, 0.5, 0.75])


def test_problem_restricted():
    prob = Problem(1.0, 2.0, two_phase(), Coefficient.constant(1.0))
    sub = prob.restricted(0.25, 0.75)
    assert sub.length == pytest.approx(0.5)
    assert sub.a(0.0) == 1.0
    assert sub.a(0.5) == 4.0
    with pytest.raises(ValueError):
        prob.restricted(0.5, 0.5)


def test_eigenpair_validation():
    grid = np.linspace(0.0, 1.0, 5)
    u = np.sin(math.pi * grid)
    pair = Eigenpair(1, 9.87, grid, u, ())
    assert pair.zeros == ()
    with pytest.raises(ValueError):
        Eigenpair(0, 9.87, grid, u, ())
    with pytest.raises(ValueError):
        Eigenpair(1, -1.0, grid, u, ())
    with pytest.raises(ValueError):
        Eigenpair(1, 9.87, grid, u[:-1], ())
