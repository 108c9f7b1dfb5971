"""Variational cross-checks: finite-element Rayleigh quotient minimization,
nodal-domain equalization, and a-priori eigenvalue/nodal bounds.

On a mesh 0 = x_0 < ... < x_n = L with elementwise-midpoint coefficient
values a_e, rho_e, the discrete Rayleigh quotient of a P1 function U
vanishing at the boundary is

    R(U) = sum_e a_e |dU_e|^p h_e  /  sum_e rho_e |m_e|^p h_e,

with dU_e the element slope and m_e the element midpoint value (one-point
quadrature, exact in the numerator for piecewise-constant data).  Its
minimum over the mesh is an upper bound for the first eigenvalue that
decreases under mesh refinement; minimizing it gives an independent check
on the shooting solver.  The second eigenvalue is cross-checked through
its nodal characterization: the splitting point c where the first
eigenvalue of (0, c) equals that of (c, L) yields lambda_2 as the common
value, found by an Illinois search on the ratio of the two curves.

The numerator N and denominator D have the analytic elementwise gradients

    dN/dU_j = p [a_{j-1} phi_p(dU_{j-1}) - a_j phi_p(dU_j)]
    dD/dU_j = (p/2) [rho_{j-1} phi_p(m_{j-1}) h_{j-1} + rho_j phi_p(m_j) h_j]

The minimization is the inverse power method of Biezuner, Ercole and
Martins (J. Funct. Anal. 257 (2009)): U is replaced by the normalized
solution W of grad N(W) = grad D(U).  In 1D that equation is solved
exactly, because the element fluxes p a_e phi_p(dW_e) telescope; what is
left is one scalar root for the boundary condition at x = L.  By
p-homogeneity and Hoelder's inequality R(W) <= R(U), so the quotient
never increases along the iteration.  Convergence is tested on the
quotient gradient, with a dual norm from the linearized stiffness matrix
(weights p(p-1) a_e |dU_e|^(p-2) / h_e), whose fluxes telescope as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketError, NonconvergenceError
from .problem import Problem
from .ptrig import _constant_eigenvalue, _kernel_for, _sin_array, pi_p
from .ptrig import sin_p  # noqa: F401  (perfbench/tracing.py wraps variational.sin_p)
from .shooting import _illinois, solve_eigenvalue

__all__ = [
    "Mesh", "make_mesh", "rayleigh_quotient", "quotient_and_gradient",
    "minimize_lambda1", "lambda2_equalize", "check_weyl", "check_nodal_measure",
]

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class Mesh:
    """A 1D mesh with elementwise midpoint coefficient samples."""

    nodes: np.ndarray
    h: np.ndarray
    a_mid: np.ndarray
    rho_mid: np.ndarray


def make_mesh(prob: Problem, n: int) -> Mesh:
    """A uniform n-element mesh on [0, L] with the coefficient
    breakpoints inserted (so piecewise data is elementwise constant)."""
    if not n >= 2:
        raise ValueError(f"need at least 2 elements, got {n!r}")
    L = prob.length
    pts = np.unique(np.concatenate([np.linspace(0.0, L, n + 1),
                                    np.asarray(prob.breakpoints(), dtype=float)]))
    keep = np.concatenate([[True], np.diff(pts) > 1e-12 * L])
    keep[-1] = True
    nodes = pts[keep]
    nodes[0], nodes[-1] = 0.0, L
    mids = 0.5 * (nodes[1:] + nodes[:-1])
    return Mesh(nodes=nodes, h=np.diff(nodes),
                a_mid=prob.a._at(mids), rho_mid=prob.rho._at(mids))


def _check_admissible(mesh: Mesh, U: np.ndarray) -> np.ndarray:
    U = np.asarray(U, dtype=float)
    if U.shape != mesh.nodes.shape:
        raise ValueError(f"U must have {mesh.nodes.shape[0]} nodal values")
    if U[0] != 0.0 or U[-1] != 0.0:
        raise ValueError("U must vanish at both boundary nodes")
    return U


def _num_den(mesh: Mesh, p: float, U: np.ndarray) -> tuple:
    d = np.diff(U) / mesh.h
    m = 0.5 * (U[1:] + U[:-1])
    num = float(np.sum(mesh.a_mid * np.abs(d) ** p * mesh.h))
    den = float(np.sum(mesh.rho_mid * np.abs(m) ** p * mesh.h))
    return num, den


def rayleigh_quotient(mesh: Mesh, p, U) -> float:
    """The discrete Rayleigh quotient of a boundary-vanishing P1 function."""
    pv = p.p if hasattr(p, "p") else float(p)
    U = _check_admissible(mesh, U)
    num, den = _num_den(mesh, pv, U)
    if den == 0.0:
        raise ValueError("denominator vanishes; U is degenerate")
    return num / den


def quotient_and_gradient(mesh: Mesh, p, U) -> tuple:
    """The quotient and its analytic gradient with respect to the nodal
    values (boundary entries of the gradient are zero)."""
    pv = p.p if hasattr(p, "p") else float(p)
    val, grad, _ = _quotient_terms(mesh, pv, _check_admissible(mesh, U))
    return val, grad


def _quotient_terms(mesh: Mesh, p: float, U: np.ndarray) -> tuple:
    """(R(U), the gradient of R, the gradient of the denominator D)."""
    d = np.diff(U) / mesh.h
    m = 0.5 * (U[1:] + U[:-1])
    phid = np.sign(d) * np.abs(d) ** (p - 1.0)
    phim = np.sign(m) * np.abs(m) ** (p - 1.0)
    num = float(np.sum(mesh.a_mid * np.abs(d) ** p * mesh.h))
    den = float(np.sum(mesh.rho_mid * np.abs(m) ** p * mesh.h))
    if den == 0.0:
        raise ValueError("denominator vanishes; U is degenerate")
    val = num / den

    gnum = np.zeros_like(U)
    t = p * mesh.a_mid * phid
    gnum[1:] += t
    gnum[:-1] -= t
    gden = np.zeros_like(U)
    t2 = 0.5 * p * mesh.rho_mid * phim * mesh.h
    gden[1:] += t2
    gden[:-1] += t2
    grad = (gnum - val * gden) / den
    grad[0] = 0.0
    grad[-1] = 0.0
    return val, grad, gden


def _normalized(mesh: Mesh, p: float, U: np.ndarray) -> np.ndarray:
    _, den = _num_den(mesh, p, U)
    return U / den ** (1.0 / p)


def _precondition(mesh: Mesh, p: float, U: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Solve K d = g with the linearized stiffness of the current iterate
    (degenerate element weights w_e are clipped): the fluxes w_e (d_(e+1)
    - d_e) are f_0 - G_e with G the running sum of g, d(L) = 0 makes f_0
    the 1/w-weighted mean of G, and a second running sum gives d."""
    d = np.diff(U) / mesh.h
    scale = float(np.max(np.abs(d)))
    if scale == 0.0:
        return g.copy()
    inv_w = mesh.h / (p * (p - 1.0) * mesh.a_mid *
                      np.clip(np.abs(d), 1e-6 * scale, None) ** (p - 2.0))
    G = np.concatenate([[0.0], np.cumsum(g[1:-1])])
    f0 = float(np.dot(inv_w, G)) / float(np.sum(inv_w))
    out = np.concatenate([[0.0], np.cumsum((f0 - G) * inv_w)])
    out[-1] = 0.0
    return out


def _inverse_step(mesh: Mesh, p: float, gden: np.ndarray) -> np.ndarray:
    """A positive multiple of the W with W = 0 at both ends that solves
    grad N(W) = gden at the interior nodes.

    The element fluxes t_e = p a_e phi_p(dW_e) telescope to t_0 - F_e,
    with F the running sum of gden over the interior nodes, so
    dW_e = phi_p^{-1}((t_0 - F_e) / (p a_e)), and t_0 is the root of
    sum_e h_e dW_e = 0, which lies in [min F, max F].  F is divided by
    max F - min F and p a_e by p min(a); that scales W by a positive
    constant and keeps every power argument in [-1, 1], so nothing
    overflows even at the exponent 1/(p-1) = 20 of p = 1.05.
    """
    F = np.concatenate([[0.0], np.cumsum(gden[1:-1])])
    F /= np.max(F) - np.min(F)
    r = np.min(mesh.a_mid) / mesh.a_mid
    e = 1.0 / (p - 1.0)

    def slopes(s):
        t = (s - F) * r
        return np.sign(t) * np.abs(t) ** e

    def classify(s):
        g = -float(np.dot(mesh.h, slopes(s)))
        return g > 0.0, g

    # Halving the width-1 bracket every four evaluations, 300 reach xtol.
    lo, hi = float(np.min(F)), float(np.max(F))
    xtol = _EPS * max(abs(lo), abs(hi))
    lo, hi = _illinois(classify, lo, hi, classify(lo)[1], classify(hi)[1],
                       lambda lo, hi: xtol + 4.0 * _EPS * max(abs(lo), abs(hi)), 300)
    s = 0.5 * (lo + hi)
    dW = slopes(s)
    # For p > 2 the sum is vertical where s crosses an F_e: one float step
    # of s there moves it by about h_e (ulp(F_e) r_e)^(1/(p-1)), so the
    # root can leave a remainder far above rounding.  One element takes
    # the remainder: the one whose scaled flux it moves least.
    rest = float(np.dot(mesh.h, dW))
    moved = dW + rest / mesh.h
    with np.errstate(over="ignore"):    # an overflowing candidate is never taken
        shift = np.abs(np.sign(moved) * np.abs(moved) ** (p - 1.0) - (s - F) * r) / r
    j = int(np.argmin(shift))
    dW[j] -= rest / mesh.h[j]
    W = np.concatenate([[0.0], np.cumsum(mesh.h * dW)])
    W[-1] = 0.0
    return W


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def minimize_lambda1(prob: Problem, n: int, tol: float = 1e-8,
                     max_iter: int = 2000, return_history: bool = False):
    """Minimize the discrete Rayleigh quotient from the sin_p first-mode
    initializer by inverse iteration.  Returns (lambda1, U) or
    (lambda1, U, history).

    Each step replaces U, normalized to D(U) = 1, by the normalized W
    with grad N(W) = grad D(U) (N and D the quotient's numerator and
    denominator); in 1D that W is exact, from one running sum and one
    scalar root.  Since N and D are p-homogeneous and convex, Hoelder's
    inequality gives R(W) <= R(U); at p = 2 this is the classical inverse
    power method.  The stopping rule tests two norms of the quotient
    gradient g against tol * (1 + lambda1): the Euclidean max-norm, and
    the preconditioned dual norm through its predicted remaining
    decrease g.K^{-1}g / 2 (K the linearized stiffness).  The second
    test matters for p < 2, where the quotient's curvature blows up like
    |u'|^(p-2) at interior critical points of u and componentwise
    stationarity can be out of reach although the value has converged.
    Raises NonconvergenceError if the iteration budget is exhausted, if a
    step fails to lower the quotient, which happens once the gradient is
    at rounding level, or if the quotient or its gradient leaves the
    float range (overflow or underflow, silenced in numpy, show there).
    """
    if not n >= 16:
        raise ValueError(f"mesh must have at least 16 elements, got {n!r}")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    p = prob.p.p
    mesh = make_mesh(prob, n)
    U = _sin_array(_kernel_for(p), pi_p(prob.p) * mesh.nodes / prob.length)
    U[0] = 0.0
    U[-1] = 0.0
    U = _normalized(mesh, p, U)

    def terms(V):
        val, g, gden = _quotient_terms(mesh, p, V)
        if not (0.0 < val < math.inf and np.all(np.isfinite(g))):
            raise NonconvergenceError(f"quotient {val!r} or its gradient left the float range")
        return val, g, gden

    val, g, gden = terms(U)
    history = [val]
    converged = False
    for _ in range(max_iter):
        gnorm = float(np.max(np.abs(g)))
        decrement = float(np.dot(g, _precondition(mesh, p, U, g)))
        thresh = tol * (1.0 + abs(val))
        if gnorm <= thresh or 0.0 < 0.5 * decrement <= thresh:
            converged = True
            break
        W = _normalized(mesh, p, _inverse_step(mesh, p, gden))
        val_w, g_w, gden_w = terms(W)
        if not val_w <= val:
            raise NonconvergenceError(
                "no descent step found; the quotient gradient may be at "
                "rounding level, try a looser tol")
        U, val, g, gden = W, val_w, g_w, gden_w
        history.append(val)
    if not converged:
        raise NonconvergenceError(
            f"quotient descent did not converge in {max_iter} iterations"
            + ("; for p < 2 the Euclidean gradient test can be "
               "unreachable, try tol around 1e-5" if p < 2.0 else ""))
    if return_history:
        return val, U, history
    return val, U


def lambda2_equalize(prob: Problem, tol: float = 1e-7, max_iter: int = 200,
                     subinterval_tol: float | None = None) -> tuple:
    """The second eigenvalue through nodal equalization.

    Searches the splitting point c in [delta, L - delta], with delta
    from the a-priori nodal length bound, by Illinois steps on
    log(l1/l2), l1 and l2 the first eigenvalues of (0, c) and (c, L),
    until they agree to relative tol.  Returns (lambda2, c); ``max_iter``
    bounds the points tried, two subinterval solves each.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    L = prob.length
    p = prob.p.p
    ratio = (prob.a.lower() / prob.a.upper()) * (prob.rho.lower() / prob.rho.upper())
    delta = 0.95 * (L * ratio ** (1.0 / p) / 2.0)
    subtol = subinterval_tol if subinterval_tol is not None else max(tol / 20.0, 1e-12)

    found = []

    def classify(c):
        l1 = solve_eigenvalue(prob.restricted(0.0, c), 1, subtol)
        l2 = solve_eigenvalue(prob.restricted(c, L), 1, subtol)
        if abs(l1 - l2) <= tol * max(l1, l2):
            found.append((0.5 * (l1 + l2), c))
        return l1 > l2, math.log(l1 / l2)

    lo, hi = delta, L - delta
    (below_lo, g_lo), (below_hi, g_hi) = classify(lo), classify(hi)
    if not (below_lo and not below_hi):
        raise BracketError(
            f"equalization bracket [{lo}, {hi}] does not straddle the crossing")
    found.clear()  # only points inside the bracket are returned
    _illinois(classify, lo, hi, g_lo, g_hi, lambda lo, hi: math.inf if found else 0.0,
              max_iter)
    if found:
        return found[0]
    raise NonconvergenceError(
        f"equalization did not reach tolerance {tol!r} in {max_iter} iterations")


def _eig_items(eigs):
    for e in eigs:
        if hasattr(e, "k") and hasattr(e, "lam"):
            yield int(e.k), float(e.lam)
        else:
            k, lam = e
            yield int(k), float(lam)


def check_weyl(prob: Problem, eigs, slack: float = 1e-9) -> dict:
    """Compare eigenvalues against the two-sided comparison bounds
    a_min/rho_max * mu_k <= lam_k <= a_max/rho_min * mu_k.

    ``eigs`` is a sequence of Eigenpairs or (k, lambda) pairs.  Returns a
    report with per-entry margins; violations are flagged, not raised.
    Margins are reported raw; the ok flag allows a relative ``slack``
    because for constant coefficients both bounds are tight (equality),
    so solver output can sit a rounding tolerance outside.
    """
    alo, aup = prob.a.lower(), prob.a.upper()
    rlo, rup = prob.rho.lower(), prob.rho.upper()
    entries = []
    for k, lam in _eig_items(eigs):
        mu = _constant_eigenvalue(prob.p, k, prob.length)
        lower = alo / rup * mu
        upper = aup / rlo * mu
        entries.append({
            "k": k, "lambda": lam, "lower": lower, "upper": upper,
            "margin_low": lam - lower, "margin_high": upper - lam,
            "ok": lam - lower >= -slack * lam and upper - lam >= -slack * lam,
        })
    return {"entries": entries, "all_ok": all(e["ok"] for e in entries)}


def check_nodal_measure(prob: Problem, eig) -> dict:
    """Check the a-priori lower bound on nodal interval lengths,

        |N| >= L * ((a_min/a_max) * (rho_min/rho_max))^(1/p) / k,

    against the nodal intervals cut out by the eigenfunction's zeros.
    Comparison uses a 1e-9 relative slack (the bound is attained exactly
    for constant coefficients).
    """
    p = prob.p.p
    L = prob.length
    k = int(eig.k)
    ratio = (prob.a.lower() / prob.a.upper()) * (prob.rho.lower() / prob.rho.upper())
    bound = L * ratio ** (1.0 / p) / k
    cuts = [0.0] + list(eig.zeros) + [L]
    lengths = [b - a for a, b in zip(cuts, cuts[1:])]
    ok_each = [d >= bound * (1.0 - 1e-9) for d in lengths]
    return {"k": k, "bound": bound, "lengths": lengths,
            "ok_each": ok_each, "all_ok": all(ok_each)}
