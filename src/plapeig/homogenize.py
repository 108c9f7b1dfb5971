"""Periodic homogenization of the weighted eigenproblem.

For coefficients a(x/eps), rho(x/eps) built from unit-cell data, the
Dirichlet spectrum converges as eps -> 0 to the spectrum of the constant
problem with

    a* = ( int_0^1 a(y)^(-1/(p-1)) dy )^-(p-1)        (effective coefficient)
    rho* = int_0^1 rho(y) dy                           (effective weight)

i.e. a* is the power-mean of exponent -1/(p-1) (the classical harmonic
mean at p = 2) and the weight simply averages.  The limiting eigenvalues
are explicit:

    lam_k* = (a*/rho*) (pi_p k / L)^p.

``epsilon_sweep`` solves the oscillating problems for eps = L/n over a
list of cell counts (whole cells only, so the coefficients tile the
interval exactly) and reports the relative gaps to lam_k*;
``convergence_report`` turns a sweep into a small table with empirical
convergence orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SweepError
from .problem import Coefficient, Eigenpair, Problem
from .ptrig import _as_p, _constant_eigenvalue
from .shooting import solve_eigenpair, solve_eigenvalue

__all__ = [
    "SweepResult", "effective_coefficient", "effective_weight",
    "homogenized_eigenvalue", "epsilon_sweep", "convergence_report",
]


def _unit_cell(cell: Coefficient, name: str) -> Coefficient:
    """The plain unit-cell coefficient behind ``cell``.

    Periodic coefficients are unwrapped to their cells (the wrapper's own
    period is irrelevant here); plain coefficients must cover [0, 1].
    """
    if cell.kind == "periodic-cell":
        return cell.cell
    if not cell.covers(0.0, 1.0):
        raise ValueError(f"{name} must cover the unit interval [0, 1]")
    return cell


def effective_coefficient(cell: Coefficient, p) -> float:
    """The homogenized coefficient of a unit cell, exact for both kinds:
    with q = 1/(p-1), a piece of width w on which a runs linearly from v0
    to v1 (v0 = v1 if constant) has int a^(-q) = w v^(-q) expm1((1-q) l) /
    ((1-q) d), where v = min(v0, v1), d = max(v0, v1)/v - 1, l = log1p(d),
    and the quotient is l/d at q = 1 and 1 at d = 0.  The values are
    divided by the cell minimum first, so v^(-q) cannot overflow."""
    pv = _as_p(p)
    q = 1.0 / (pv - 1.0)
    m = _unit_cell(cell, "cell").materialized(0.0, 1.0)
    low = min(m.values)
    vals = np.asarray(m.values) / low
    ends = (vals, vals) if m.kind == "piecewise-constant" else (vals[:-1], vals[1:])
    v = np.minimum(*ends)
    d = np.maximum(*ends) / v - 1.0
    l = np.log1p(d)
    ratio = np.expm1((1.0 - q) * l) / (1.0 - q) if q != 1.0 else l
    factor = np.divide(ratio, d, out=np.ones_like(d), where=d != 0.0)
    return low * float(np.sum(np.diff(m.breakpoints) * v ** (-q) * factor)) ** (-(pv - 1.0))


def effective_weight(cell: Coefficient) -> float:
    """The cell average of a unit-cell weight (exact for both kinds)."""
    cell = _unit_cell(cell, "cell")
    m = cell.materialized(0.0, 1.0)
    widths = np.diff(m.breakpoints)
    vals = np.asarray(m.values)
    if m.kind == "piecewise-constant":
        return float(np.sum(widths * vals))
    return float(np.sum(widths * 0.5 * (vals[1:] + vals[:-1])))


def homogenized_eigenvalue(a_star: float, rho_star: float, p,
                           length: float, k: int) -> float:
    """lam_k of the constant problem with coefficient a*, weight rho*."""
    pv = _as_p(p)
    if not (a_star > 0.0 and rho_star > 0.0):
        raise ValueError("effective coefficient and weight must be positive")
    if not (length > 0.0 and k >= 1):
        raise ValueError("need positive length and k >= 1")
    return (a_star / rho_star) * _constant_eigenvalue(pv, k, length)


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Eigenvalues of the oscillating problems along an epsilon sweep.

    ``finest`` holds the eigenpair of the smallest epsilon (for
    eigenfunction spot checks); the other entries carry eigenvalues only.
    """

    k: int
    n_cells: tuple
    epsilons: tuple
    lambdas: tuple
    lambda_star: float
    rel_errors: tuple
    finest: Eigenpair | None


def epsilon_sweep(prob_cell: Problem, k: int, n_list,
                  tol: float = 1e-8, keep_eigenfunction: bool = True) -> SweepResult:
    """Solve the eps = L/n problems for each cell count n in n_list.

    ``prob_cell`` carries the domain length, the exponent, and the two
    unit-cell coefficients: either plain coefficients covering [0, 1] or
    periodic coefficients, which are unwrapped to their cells.  n_list
    must be strictly increasing positive integers, so the epsilons
    decrease and each interval holds a whole number of cells.  Solver
    failures raise SweepError with the partial result attached.
    """
    ns = [int(n) for n in n_list]
    if not ns or any(n <= 0 for n in ns) or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n_list must be a nonempty strictly increasing "
                         "list of positive integers")
    a_cell = _unit_cell(prob_cell.a, "a cell")
    rho_cell = _unit_cell(prob_cell.rho, "rho cell")
    L = prob_cell.length
    a_star = effective_coefficient(a_cell, prob_cell.p)
    rho_star = effective_weight(rho_cell)
    lam_star = homogenized_eigenvalue(a_star, rho_star, prob_cell.p, L, k)

    eps_list, lams = [], []
    finest = None

    def result():
        return SweepResult(
            k=k, n_cells=tuple(ns[:len(lams)]), epsilons=tuple(eps_list),
            lambdas=tuple(lams), lambda_star=lam_star,
            rel_errors=tuple(abs(l - lam_star) / lam_star for l in lams), finest=finest)

    for idx, n in enumerate(ns):
        eps = L / n
        osc = Problem(L, prob_cell.p,
                      Coefficient.periodic(a_cell, eps),
                      Coefficient.periodic(rho_cell, eps))
        try:
            if keep_eigenfunction and idx == len(ns) - 1:
                pair = solve_eigenpair(osc, k, tol)
                lam = pair.lam
                finest = pair
            else:
                lam = solve_eigenvalue(osc, k, tol)
        except Exception as exc:
            raise SweepError(f"sweep failed at n={n} cells: {exc}", result()) from exc
        eps_list.append(eps)
        lams.append(lam)
    return result()


def convergence_report(sweep: SweepResult, noise_floor: float = 1e-7) -> dict:
    """A small convergence table with empirical orders.

    Pairwise orders are log(e_i/e_j)/log(n_j/n_i); the overall estimate
    is the least-squares slope of log(error) against log(n).  When every
    error sits at the solver noise floor the estimate is None and the
    report is flagged.  Requires at least three sweep points.
    """
    if len(sweep.epsilons) < 3:
        raise ValueError("need at least three sweep points to estimate an order")
    ns = np.asarray(sweep.n_cells, dtype=float)
    errs = np.asarray(sweep.rel_errors, dtype=float)
    entries = [{"n": int(n), "epsilon": e, "lambda": l, "rel_error": r}
               for n, e, l, r in zip(sweep.n_cells, sweep.epsilons,
                                     sweep.lambdas, sweep.rel_errors)]
    at_floor = bool(np.max(errs) < noise_floor)
    monotone = bool(np.all(np.diff(errs) < 0.0))
    pairwise = []
    for i in range(len(ns) - 1):
        if errs[i] > noise_floor and errs[i + 1] > noise_floor:
            pairwise.append(math.log(errs[i] / errs[i + 1])
                            / math.log(ns[i + 1] / ns[i]))
        else:
            pairwise.append(None)
    usable = errs > noise_floor
    if at_floor or int(np.sum(usable)) < 2:
        estimate = None
    else:
        slope = np.polyfit(np.log(ns[usable]), np.log(errs[usable]), 1)[0]
        estimate = float(-slope)
    return {
        "k": sweep.k, "lambda_star": sweep.lambda_star, "entries": entries,
        "pairwise_orders": pairwise, "order_estimate": estimate,
        "monotone": monotone, "at_noise_floor": at_floor,
    }
