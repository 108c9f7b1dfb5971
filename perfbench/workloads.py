"""The three workloads: a fixed op list each, with an oracle check per op.

Every op calls one public plapeig function.  Its check receives the op's
result and the results of the earlier ops of the same pass, and returns
the achieved error against the oracle (None where the oracle is a bound,
not a value).  A check raises ``Miss`` when a tolerance is missed.

- ``homog-sweep``: one eps-sweep of the (1, 4) half cell per exponent.
  The closed-form piece advance and the p-trig kernel do nearly all the
  work, thousands of pieces per shot.
- ``spectrum``: eigenpairs k = 1..5 of three problem kinds, the two
  variational solves and the bound checks.  Few pieces per shot; dense
  eigenfunction sampling dominates.
- ``smooth-rk4``: eigenvalues of a = 1 + 2x by RK4 shooting, which never
  touches the p-trig kernel or the closed form.

Probes are ops on inputs that fail today (an overflow in the closed-form
advance).  They run once per run, outside every timing, and count against
``ok_frac``; if one ever returns, its answer is checked like any op.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import oracles as O

EXPONENTS = (1.5, 2.0, 3.0)
SWEEP_CELLS = (16, 32, 64, 128)
SPECTRUM_K = (1, 2, 3, 4, 5)
HIGH_CONTRAST = 1e6
# RK4 steps per unit length.  The documented 1e4 (p = 2) and 2e5 (p != 2)
# cost 16 s and 5 min per eigenvalue, beyond one run; at 1e3 the p = 2
# eigenvalues still match the Bessel oracle to 2e-10.
RK4_STEPS_PER_UNIT = 1000
SMOOTH_OPS = ((2.0, 1), (2.0, 2), (2.0, 3), (3.0, 1))

EXACT_TOL = 1e-8       # eigenvalues (relative) and zeros against exact oracles
SLACK = 1e-9           # relative slack on eigenvalue bounds that can be tight;
                       # bisection at tol = 1e-9 lands within 5e-10
REPORT_SLACK = 1e-9    # the slack check_weyl and check_nodal_measure document
FEM_TOL = 1e-2         # FEM lambda1 against shooting (criterion 3)
EQUALIZE_TOL = 1e-6    # equalized lambda2 against shooting (criterion 3)


class Miss(Exception):
    """An op's result missed its oracle tolerance."""


@dataclass
class Op:
    name: str                     # unique label within the workload
    func: str                     # public function called, as layer.name
    call: Callable[[dict], Any]   # receives the pass context
    check: Callable[[Any, dict], Any]


@dataclass
class Workload:
    name: str
    exponents: tuple
    ops: list
    probes: list = field(default_factory=list)


def _expect(cond, msg):
    if not cond:
        raise Miss(msg)


def _rel(x, ref):
    return abs(x - ref) / abs(ref)


class _Data:
    """Coefficient ranges and pieces of a piecewise-constant problem, kept
    by the benchmark so oracles never read them back from plapeig."""

    def __init__(self, length, edges, a_vals, rho_vals):
        self.length = length
        self.edges = list(edges)
        self.a_vals = list(a_vals)
        self.rho_vals = list(rho_vals)

    @property
    def ranges(self):
        return (min(self.a_vals), max(self.a_vals), min(self.rho_vals), max(self.rho_vals))

    def pieces(self):
        return [(x1 - x0, a, r) for x0, x1, a, r in
                zip(self.edges, self.edges[1:], self.a_vals, self.rho_vals)]

    def problem(self, P, p):
        C = P.Coefficient
        return P.Problem(self.length, p, C.piecewise_constant(self.edges, self.a_vals),
                         C.piecewise_constant(self.edges, self.rho_vals))


def _alternating(n_pieces):
    edges = [i / n_pieces for i in range(n_pieces + 1)]
    return _Data(1.0, edges, [1.0 if i % 2 == 0 else HIGH_CONTRAST for i in range(n_pieces)],
                 [1.0] * n_pieces)


def _check_bounds(lam, p, k, data):
    lo, hi = O.sandwich(p, k, *data.ranges, data.length)
    _expect(lo * (1.0 - SLACK) <= lam <= hi * (1.0 + SLACK),
            f"lambda_{k} = {lam!r} outside the sandwich [{lo!r}, {hi!r}]")


def _check_pair(pair, p, k, data, exact=None, zeros=None):
    """Index, bounds, nodal bound and normalization of an Eigenpair, plus
    the eigenvalue error against ``exact`` where it is known."""
    _expect(pair.k == k, f"asked for k={k}, got k={pair.k}")
    _check_bounds(pair.lam, p, k, data)
    _expect(len(pair.zeros) == k - 1, f"k={k} with {len(pair.zeros)} interior zeros")
    cuts = [0.0, *pair.zeros, data.length]
    bound = O.nodal_bound(p, k, *data.ranges, data.length)
    shortest = min(b - a for a, b in zip(cuts, cuts[1:]))
    # The bound is attained for constant coefficients, and each zero is
    # only located to EXACT_TOL.
    _expect(shortest >= bound - 2.0 * EXACT_TOL * data.length,
            f"nodal interval {shortest!r} below the bound {bound!r}")
    u, grid = np.asarray(pair.u), np.asarray(pair.grid)
    _expect(u[1] > 0.0, "eigenfunction must start upward")
    inner = u[1:-1]
    changes = int(np.sum(np.sign(inner[1:]) * np.sign(inner[:-1]) < 0.0))
    _expect(changes == k - 1, f"sampled eigenfunction changes sign {changes} times")
    w = np.abs(u) ** p
    norm = float(np.sum(0.5 * (w[1:] + w[:-1]) * np.diff(grid)))
    _expect(abs(norm - 1.0) <= 1e-9, f"L^p norm {norm!r} is not one")
    if zeros is not None:
        gap = max((abs(z - ref) for z, ref in zip(pair.zeros, zeros)), default=0.0)
        _expect(gap <= EXACT_TOL, f"zeros off by {gap!r}")
    if exact is None:
        return None
    err = _rel(pair.lam, exact)
    _expect(err <= EXACT_TOL, f"lambda_{k} relative error {err:.2e} > {EXACT_TOL:g}")
    return err


# -- homog-sweep ---------------------------------------------------------


def homog_sweep(P, rng) -> Workload:
    """eps-sweeps of a = (1, 4) on equal halves, rho = 1, k = 1."""
    C = P.Coefficient
    cell = C.piecewise_constant([0.0, 0.5, 1.0], [1.0, 4.0])
    ops = []
    for p in EXPONENTS:
        prob = P.Problem(1.0, p, cell, C.constant(1.0))
        ops.append(Op(f"sweep/p={p:g}", "homogenize.epsilon_sweep",
                      lambda ctx, prob=prob: P.epsilon_sweep(
                          prob, 1, SWEEP_CELLS, keep_eigenfunction=False),
                      lambda r, ctx, p=p: _check_sweep(r, p)))
    return Workload("homog-sweep", EXPONENTS, ops)


def _check_sweep(r, p):
    star = O.homogenized_eigenvalue(p, 1, [0.5, 0.5], [1.0, 4.0], [1.0, 1.0], 1.0)
    _expect(tuple(r.n_cells) == SWEEP_CELLS, f"sweep covered {r.n_cells}")
    _expect(_rel(r.lambda_star, star) <= 1e-12, f"lambda* {r.lambda_star!r} != {star!r}")
    worst = None
    for n, lam in zip(r.n_cells, r.lambdas):
        data = _Data(1.0, [i / (2 * n) for i in range(2 * n + 1)],
                     [1.0, 4.0] * n, [1.0] * (2 * n))
        _check_bounds(lam, p, 1, data)
        if p == 2.0:
            err = _rel(lam, O.pc_eigenvalue_p2(data.pieces(), 1))
            _expect(err <= EXACT_TOL, f"n={n}: relative error {err:.2e}")
            worst = max(worst or 0.0, err)
    gaps = [_rel(lam, star) for lam in r.lambdas]
    order = O.order_estimate(r.n_cells, gaps)
    _expect(order > 0.0, f"no convergence toward lambda*: order {order:.3f}")
    return worst


# -- spectrum ------------------------------------------------------------


def spectrum(P, rng) -> Workload:
    """Eigenpairs k = 1..5 at each exponent of a constant problem, a seeded
    two-phase problem and 50 pieces alternating a = 1 and 1e6; then
    lambda1 by FEM descent and lambda2 by equalization on the two-phase
    problem, and the sandwich and nodal checks on every eigenpair."""
    c = float(rng.uniform(0.3, 0.7))
    two_phase = _Data(1.0, [0.0, c, 1.0], list(rng.uniform(0.5, 3.0, 2)),
                      list(rng.uniform(0.5, 3.0, 2)))
    kinds = (("constant", _Data(1.0, [0.0, 1.0], [1.0], [1.0])),
             ("two-phase", two_phase),
             ("contrast-50", _alternating(50)))
    ops, probes = [], []
    for p in EXPONENTS:
        for kind, data in kinds:
            prob = data.problem(P, p)
            names = []
            for k in SPECTRUM_K:
                op = _pair_op(P, p, k, kind, data)
                if (p, kind, k) in KNOWN_DEFECTS:
                    probes.append(op)
                else:
                    ops.append(op)
                    names.append(op.name)
            ops.append(Op(f"p={p:g}/{kind}/checks", "variational.check_weyl",
                          _bound_checks(P, prob, names),
                          lambda r, ctx, p=p, data=data: _check_reports(r, p, data)))
        prob = two_phase.problem(P, p)
        fem_tol = 1e-5 if p < 2.0 else 1e-8   # see minimize_lambda1's docstring
        ops.append(Op(f"p={p:g}/two-phase/lambda1-fem", "variational.minimize_lambda1",
                      lambda ctx, prob=prob, t=fem_tol: P.minimize_lambda1(prob, 2000, t),
                      lambda r, ctx, p=p: _check_against(r[0], ctx, f"p={p:g}/two-phase/k=1",
                                                         FEM_TOL)))
        ops.append(Op(f"p={p:g}/two-phase/lambda2-eq", "variational.lambda2_equalize",
                      lambda ctx, prob=prob: P.lambda2_equalize(prob),
                      lambda r, ctx, p=p: _check_against(r[0], ctx, f"p={p:g}/two-phase/k=2",
                                                         EQUALIZE_TOL)))
    for n_pieces, k in ((200, 3), (2000, 1)):
        probes.append(_pair_op(P, 2.0, k, f"contrast-{n_pieces}", _alternating(n_pieces)))
    return Workload("spectrum", EXPONENTS, ops, probes)


# Eigenpairs that miss their oracle at the commit that added the
# benchmark, all on the 50-piece contrast problem, where the closed-form
# state is ill-conditioned: at p = 2, lambda_2 lies 7e-8 (relative) from
# the exact value although tol = 1e-9 is asked for; at p = 1.5 the sampled
# eigenfunction stays near 0.2 of its maximum across the last piece and
# is cut to zero only at x = L, so its L^p norm is off by 5e-5.  Like the
# overflow probes they run untimed once per run and count against ok_frac
# until fixed.
KNOWN_DEFECTS = {(2.0, "contrast-50", 2),
                 (1.5, "contrast-50", 1), (1.5, "contrast-50", 2),
                 (1.5, "contrast-50", 4), (1.5, "contrast-50", 5)}


def _pair_op(P, p, k, kind, data):
    prob = data.problem(P, p)
    return Op(f"p={p:g}/{kind}/k={k}", "shooting.solve_eigenpair",
              lambda ctx: P.solve_eigenpair(prob, k), _pair_checker(p, k, kind, data))


def _pair_checker(p, k, kind, data):
    def check(pair, ctx):
        exact = zeros = None
        if kind == "constant":
            exact = O.constant_eigenvalue(p, k, 1.0, 1.0, data.length)
            zeros = [j * data.length / k for j in range(1, k)]
        elif p == 2.0:
            exact = O.pc_eigenvalue_p2(data.pieces(), k)
        err = _check_pair(pair, p, k, data, exact, zeros)
        lower = [ctx[n] for j in range(1, k) if (n := f"p={p:g}/{kind}/k={j}") in ctx]
        if lower:
            _expect(pair.lam > lower[-1].lam, f"lambda_{k} <= lambda_{lower[-1].k}")
        return err
    return check


def _bound_checks(P, prob, names):
    # The eigenpairs are the results of earlier ops of the same pass.
    def call(ctx):
        eigs = [ctx[n] for n in names if n in ctx]
        return eigs, P.check_weyl(prob, eigs), [P.check_nodal_measure(prob, e) for e in eigs]
    return call


def _check_reports(r, p, data):
    """Both reports must match a recomputation from their documented
    formulas and slacks (1e-9 relative), verdicts included."""
    eigs, weyl, nodal = r
    _expect(len(weyl["entries"]) == len(eigs) == len(nodal), "one report entry per eigenpair")
    for e, pair in zip(weyl["entries"], eigs):
        lo, hi = O.sandwich(p, pair.k, *data.ranges, data.length)
        _expect(e["k"] == pair.k and e["lambda"] == pair.lam, "check_weyl lost an eigenvalue")
        _expect(_rel(e["lower"], lo) <= 1e-12 and _rel(e["upper"], hi) <= 1e-12,
                f"check_weyl bounds for k={pair.k} disagree with the oracle")
        slack = REPORT_SLACK * pair.lam
        ok = pair.lam - lo >= -slack and hi - pair.lam >= -slack
        _expect(e["ok"] == ok, f"check_weyl verdict for k={pair.k} is {e['ok']}")
    _expect(weyl["all_ok"] == all(e["ok"] for e in weyl["entries"]), "check_weyl all_ok")
    for rep, pair in zip(nodal, eigs):
        bound = O.nodal_bound(p, pair.k, *data.ranges, data.length)
        cuts = [0.0, *pair.zeros, data.length]
        lengths = [b - a for a, b in zip(cuts, cuts[1:])]
        _expect(_rel(rep["bound"], bound) <= 1e-12, "nodal bound disagrees with the oracle")
        _expect(rep["lengths"] == lengths, f"nodal lengths for k={pair.k} differ")
        _expect(rep["ok_each"] == [d >= bound * (1.0 - REPORT_SLACK) for d in lengths],
                f"check_nodal_measure verdicts for k={pair.k} differ")
        _expect(rep["all_ok"] == all(rep["ok_each"]), "check_nodal_measure all_ok")
    return None


def _check_against(lam, ctx, name, tol):
    ref = ctx.get(name)
    _expect(ref is not None, f"{name} missing")
    gap = _rel(lam, ref.lam)
    _expect(gap <= tol, f"gap {gap:.2e} to {name} exceeds {tol:g}")
    return gap


# -- smooth-rk4 ----------------------------------------------------------


def smooth_rk4(P, rng) -> Workload:
    """Eigenvalues of a = 1 + 2x, rho = 1 on (0, 1) by RK4 shooting."""
    C = P.Coefficient
    a = C.piecewise_linear([0.0, 1.0], [1.0, 3.0])
    exact = O.bessel_eigenvalues(max(k for _, k in SMOOTH_OPS))
    ops = []
    for p, k in SMOOTH_OPS:
        prob = P.Problem(1.0, p, a, C.constant(1.0))
        ops.append(Op(f"p={p:g}/k={k}", "shooting.solve_eigenvalue",
                      lambda ctx, prob=prob, k=k: P.solve_eigenvalue(
                          prob, k, steps_per_unit=RK4_STEPS_PER_UNIT),
                      lambda lam, ctx, p=p, k=k: _check_smooth(lam, ctx, p, k, exact)))
    return Workload("smooth-rk4", tuple(sorted({p for p, _ in SMOOTH_OPS})), ops)


def _check_smooth(lam, ctx, p, k, exact):
    lo, hi = O.sandwich(p, k, 1.0, 3.0, 1.0, 1.0, 1.0)
    _expect(lo < lam < hi, f"lambda_{k} = {lam!r} not strictly inside ({lo!r}, {hi!r})")
    if k > 1:
        prev = ctx.get(f"p={p:g}/k={k - 1}")
        _expect(prev is not None and lam > prev, f"lambda_{k} <= lambda_{k - 1}")
    if p != 2.0:
        return None
    err = _rel(lam, exact[k - 1])
    _expect(err <= EXACT_TOL, f"lambda_{k} relative error {err:.2e} > {EXACT_TOL:g}")
    return err


BUILDERS = {"homog-sweep": homog_sweep, "spectrum": spectrum, "smooth-rk4": smooth_rk4}


def build(name, seed, P) -> Workload:
    return BUILDERS[name](P, np.random.default_rng(seed))
