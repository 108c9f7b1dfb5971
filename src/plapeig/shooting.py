"""Shooting solver for the one-dimensional weighted p-Laplacian.

The Dirichlet problem -(a|u'|^(p-2)u')' = lam*rho*|u|^(p-2)u on (0, L)
is integrated as the first-order system in (u, v),

    u' = phi_p^{-1}(v / a(x)),      v' = -lam * rho(x) * phi_p(u),

where v = a*phi_p(u') is the flux.  Unlike u', the flux stays continuous
across jumps of a, so (u, v) is the right state vector for piecewise
coefficients.  On any piece where a and rho are constant the quantity

    H = a^(-1/(p-1)) |v|^q / q + lam * rho * |u|^p / p,   q = p/(p-1),

is conserved, which gives a cheap consistency monitor for the fixed-step
integrator.

Two integrators are provided.  ``integrate_ivp`` is classical RK4 with
steps aligned to coefficient breakpoints (no step ever straddles a
discontinuity).  It runs on Python floats: a and rho at the stage
points x, x + h/2 and x + h do not depend on lam, so they are evaluated
per piece in blocks of steps by one array call each, and a step costs
about 2-4 us.  A state that overflows or stops being finite is reported
as NonconvergenceError with lam and the piece.  For p != 2 the solution
is only Hoelder-C^{1,1/2} at turning points (u' = 0 for p > 2, u = 0 for
p < 2), so the reported first-integral drift decays like h^{3/2} through
oscillatory regimes rather than h^4; endpoint values cancel most of
that local error and converge at roughly h^3.  Drift below 1e-8
therefore needs about 2e5 steps per unit for p != 2, while 1e4 suffices
for p = 2.  ``propagate_piecewise_constant`` advances (u, v) in closed
form piece by piece: on a constant piece the solution is
A sin_p(omega (x - x0) + phi0) with omega = (lam*rho/a)^(1/p), and the
amplitude A and phase phi0 follow from (u0, v0) through the first
integral.  Interior zeros are then just the phases passing multiples of
pi_p.

Either way the k-th eigenvalue is bracketed on the standard
oscillation-count predicate: lam is below lam_k when the shot has fewer
than k-1 interior zeros, or has exactly k-1 and ends with the sign it
had after the last zero.  The bracket is halved until both ends shoot
k-1 or k interior zeros; from there g(lam) = (-1)^(k-1) u(L; lam) is
continuous with its only sign change at lam_k, and the Illinois variant
of regula falsi (Dowell & Jarratt, BIT 11 (1971)) takes over, with a
midpoint whenever it stops halving the bracket.  From the comparison
bracket to relative accuracy 1e-9 this takes 10-20 shots where plain
bisection takes about 34.

Near a turning point (|u| close to its amplitude, as on the stiff pieces
of a high-contrast coefficient) |sin_p| rounds to 1 and 1 - |sin_p|^p
cannot be formed from it.  The phase there comes from the complement
instead: 1 - |s0| is computed from the ratio of the two energy terms
of (u0, v0), the p-trig kernel turns it into the distance of phi0 from
the nearest quarter period, and at the piece end the kernel returns
1 - |s1| next to s1, from which the flux is formed.  A float overflow
or division by zero inside a shot is reported as NonconvergenceError,
with lam and the failing piece.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import BracketError, NonconvergenceError
from .problem import Eigenpair, Problem, phi_p_inv
from .ptrig import _asin_core, _kernel_for, _one_minus_pow, _reduce, _sin_core, pi_p

__all__ = [
    "Trajectory", "integrate_ivp", "count_interior_zeros",
    "interior_zero_locations", "weyl_bracket",
    "propagate_piecewise_constant", "solve_eigenvalue", "solve_eigenpair",
]

_trapz = getattr(np, "trapezoid", None) or np.trapz


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A shooting solution sampled on its integration grid.

    ``hamiltonian_drift`` is the largest relative drift of the per-piece
    first integral over pieces where both coefficients are constant, or
    NaN when no such piece exists (then the monitor does not apply).
    """

    grid: np.ndarray
    u: np.ndarray
    v: np.ndarray
    hamiltonian_drift: float

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("x,u,v\n")
            for x, u, v in zip(self.grid, self.u, self.v):
                fh.write(f"{x:.15g},{u:.15g},{v:.15g}\n")


def _edges(prob: Problem) -> list:
    return [0.0] + prob.breakpoints() + [prob.length]


# Steps whose stage coefficients are evaluated together: large enough to
# amortize the array calls, small enough that the Python float lists of
# one block stay far below the trajectory itself.
_BLOCK = 1024


def integrate_ivp(prob: Problem, lam: float, u0: float = 0.0, v0: float = 1.0,
                  steps_per_unit: int = 10_000,
                  drift_ceiling: float | None = None) -> Trajectory:
    """Integrate the shooting system with fixed-step RK4.

    Steps are aligned to coefficient breakpoints.  If ``drift_ceiling``
    is given and the per-piece Hamiltonian drift exceeds it, a
    NonconvergenceError is raised (the step size was too coarse).  A
    state that overflows or stops being finite also raises
    NonconvergenceError, naming lam and the piece.
    """
    if lam < 0.0:
        raise ValueError(f"lam must be nonnegative, got {lam!r}")
    if u0 == 0.0 and v0 == 0.0:
        raise ValueError("initial state (0, 0) only yields the trivial solution")
    p = prob.p.p
    pc = prob.p.p_conj
    # phi_p_inv and phi_p as |t|^e with the sign of t, in float arithmetic.
    e_inv = 1.0 / (p - 1.0)
    e_phi = p - 1.0
    copysign = math.copysign

    grids: list = [np.array([0.0])]
    us: list = [u0]
    vs: list = [v0]
    u, v = float(u0), float(v0)
    edges = _edges(prob)
    for piece, (x0, x1) in enumerate(zip(edges, edges[1:])):
        # Coefficients restricted to the closed piece: at the right edge
        # this takes the left limit, so RK4 stages landing on a jump see
        # the piece they belong to, not the next one.
        a_loc = prob.a.materialized(x0, x1)
        rho_loc = prob.rho.materialized(x0, x1)
        width = x1 - x0
        nsteps = max(1, math.ceil(steps_per_unit * width))
        h = width / nsteps
        hh = 0.5 * h
        h6 = h / 6.0
        grid = x0 + np.arange(1, nsteps + 1) * h
        grid[-1] = x1
        grids.append(grid)
        try:
            for b0 in range(0, nsteps, _BLOCK):
                # a and -lam*rho at the stage points x, x + h/2 and x + h.
                x = x0 + np.arange(b0, min(b0 + _BLOCK, nsteps)) * h
                stages = [np.clip(xst, x0, x1) for xst in (x, x + hh, x + h)]
                coeffs = [a_loc._at(xst).tolist() for xst in stages]
                coeffs += [(-lam * rho_loc._at(xst)).tolist() for xst in stages]
                for a1, am, ae, r1, rm, re in zip(*coeffs):
                    t = v / a1
                    k1u = copysign(abs(t) ** e_inv, t)
                    k1v = r1 * copysign(abs(u) ** e_phi, u)
                    ut, vt = u + hh * k1u, v + hh * k1v
                    t = vt / am
                    k2u = copysign(abs(t) ** e_inv, t)
                    k2v = rm * copysign(abs(ut) ** e_phi, ut)
                    ut, vt = u + hh * k2u, v + hh * k2v
                    t = vt / am
                    k3u = copysign(abs(t) ** e_inv, t)
                    k3v = rm * copysign(abs(ut) ** e_phi, ut)
                    ut, vt = u + h * k3u, v + h * k3v
                    t = vt / ae
                    k4u = copysign(abs(t) ** e_inv, t)
                    k4v = re * copysign(abs(ut) ** e_phi, ut)
                    u += h6 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
                    v += h6 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
                    us.append(u)
                    vs.append(v)
        except OverflowError as exc:
            raise NonconvergenceError(
                f"RK4 shot at lam={lam!r} failed on piece {piece} "
                f"[{x0!r}, {x1!r}]: OverflowError: {exc}") from exc
        if not (math.isfinite(u) and math.isfinite(v)):
            raise NonconvergenceError(
                f"RK4 shot at lam={lam!r} failed on piece {piece} "
                f"[{x0!r}, {x1!r}]: non-finite state u={u!r}, v={v!r}")

    grid = np.concatenate(grids)
    uarr = np.array(us)
    varr = np.array(vs)

    drift = _drift(prob, lam, grid, uarr, varr, p, pc)
    if drift_ceiling is not None and math.isfinite(drift) and drift > drift_ceiling:
        raise NonconvergenceError(
            f"hamiltonian drift {drift:.3e} exceeds ceiling {drift_ceiling:.3e}; "
            f"increase steps_per_unit")
    return Trajectory(grid=grid, u=uarr, v=varr, hamiltonian_drift=drift)


def _drift(prob, lam, grid, uarr, varr, p, pc) -> float:
    pieces = prob.pieces()
    if pieces is None:
        return math.nan
    worst = 0.0
    for x0, x1, av, rv in pieces:
        sel = (grid >= x0 - 1e-15) & (grid <= x1 + 1e-15)
        hvals = (av ** (-1.0 / (p - 1.0)) * np.abs(varr[sel]) ** pc / pc
                 + lam * rv * np.abs(uarr[sel]) ** p / p)
        scale = max(abs(hvals[0]), 1e-300)
        worst = max(worst, float(np.max(np.abs(hvals - hvals[0]))) / scale)
    return worst


def count_interior_zeros(t: Trajectory) -> int:
    """Number of interior zeros of u along the trajectory (simple sign
    changes; an exact zero at an interior grid node counts once)."""
    u = t.u
    n = len(u)
    count = 0
    last = math.copysign(1.0, u[0]) if u[0] != 0.0 else 0.0
    for i in range(1, n):
        ui = u[i]
        if ui == 0.0:
            if i < n - 1:
                count += 1
            last = 0.0
            continue
        s = math.copysign(1.0, ui)
        if last != 0.0 and s != last:
            count += 1
        last = s
    return count


def interior_zero_locations(t: Trajectory) -> np.ndarray:
    """Refined interior zero locations of u.

    Each grid-interval sign change is refined by root finding on the
    cubic Lagrange interpolant through the four surrounding samples.
    """
    grid, u = t.grid, t.u
    n = len(u)
    out = []
    for i in range(1, n - 1):
        if u[i] == 0.0:
            out.append(float(grid[i]))
    for i in range(n - 1):
        if u[i] == 0.0 or u[i + 1] == 0.0 or (u[i] > 0) == (u[i + 1] > 0):
            continue
        lo = max(0, i - 1)
        hi = min(n, i + 3)
        coeffs = np.polyfit(grid[lo:hi] - grid[i], u[lo:hi], deg=hi - lo - 1)
        f = lambda x: float(np.polyval(coeffs, x - grid[i]))
        out.append(float(brentq(f, grid[i], grid[i + 1], xtol=1e-15 * max(1.0, grid[-1]))))
    return np.array(sorted(out))


def weyl_bracket(prob: Problem, k: int) -> tuple:
    """A bracket certain to contain lam_k.

    The comparison bounds a_min/rho_max * mu_k <= lam_k <= a_max/rho_min * mu_k
    with mu_k = (pi_p k / L)^p are widened by a factor two on each side.
    """
    if not k >= 1:
        raise ValueError(f"k must be >= 1, got {k!r}")
    p = prob.p.p
    mu = (pi_p(prob.p) * k / prob.length) ** p
    lo = prob.a.lower() / prob.rho.upper() * mu
    hi = prob.a.upper() / prob.rho.lower() * mu
    return 0.5 * lo, 2.0 * hi


# -- closed-form propagation on constant pieces ------------------------


def _advance(kernel, p, pc, av, rv, lam, u0, v0, dx):
    """Advance (u, v) across one constant piece; returns
    (u1, v1, zero_count, (omega, phi0, amp)) with theta-space data for
    zero locations and sampling (None for the flux-constant lam=0 case)."""
    if lam == 0.0:
        up = phi_p_inv(p, v0 / av)
        u1 = u0 + up * dx
        crossed = u0 != 0.0 and (u0 * u1 < 0.0 or u1 == 0.0)
        return u1, v0, (1 if crossed else 0), None
    omega = (lam * rv / av) ** (1.0 / p)
    pot = abs(u0) ** p
    kin = (p - 1.0) * abs(v0 / av) ** pc / omega ** p
    amp = (pot + kin) ** (1.0 / p)
    # |s0| = (1 + kin/pot)^(-1/p) and its complement, both from the
    # energy split, so a state near a turning point keeps its phase.
    if pot == 0.0:
        s0, x0 = 0.0, 1.0
    else:
        e = -math.log1p(kin / pot) / p
        s0, x0 = math.exp(e), -math.expm1(e)
    asin0 = math.copysign(_asin_core(kernel, s0, x0)[0], u0)
    phi0 = asin0 if v0 >= 0.0 else kernel.pi - asin0
    theta1 = phi0 + omega * dx
    nzero = math.floor(theta1 / kernel.pi) - math.floor(phi0 / kernel.pi)

    z, sgn, dsgn = _reduce(kernel, theta1)
    s1, x1 = _sin_core(kernel, z)
    u1 = amp * sgn * s1
    dmag = (_one_minus_pow(x1, p) / (p - 1.0)) ** (1.0 / p)
    up1 = amp * omega * dsgn * dmag
    v1 = av * (math.copysign(abs(up1) ** (p - 1.0), up1) if up1 != 0.0 else 0.0)
    return u1, v1, nzero, (omega, phi0, amp)


def propagate_piecewise_constant(prob: Problem, lam: float,
                                 u0: float = 0.0, v0: float = 1.0) -> tuple:
    """Propagate (u, v) across a piecewise-constant problem in closed form.

    Returns (u(L), v(L), n) with n the number of interior zeros of u.
    Raises ValueError unless both coefficients are piecewise constant.
    """
    pieces = prob.pieces()
    if pieces is None:
        raise ValueError("propagate_piecewise_constant requires piecewise-constant "
                         "coefficients; use integrate_ivp instead")
    if lam < 0.0:
        raise ValueError(f"lam must be nonnegative, got {lam!r}")
    if u0 == 0.0 and v0 == 0.0:
        raise ValueError("initial state (0, 0) only yields the trivial solution")
    p = prob.p.p
    pc = prob.p.p_conj
    kernel = _kernel_for(p)
    u, v = u0, v0
    total = 0
    for x0, x1, av, rv in pieces:
        u, v, nz, _ = _advance(kernel, p, pc, av, rv, lam, u, v, x1 - x0)
        total += nz
    if u == 0.0 and total > 0:
        total -= 1  # the endpoint zero is a boundary zero, not interior
    return u, v, total


def _pc_zero_positions(pieces, kernel, p, pc, lam, u0, v0, length):
    """Zero locations and piece phase data for one closed-form pass."""
    zeros = []
    desc = []
    u, v = u0, v0
    for x0, x1, av, rv in pieces:
        u_in, v_in = u, v
        u, v, nz, osc = _advance(kernel, p, pc, av, rv, lam, u, v, x1 - x0)
        if osc is None:
            desc.append((x0, x1, av, None, None, None, u_in, v_in))
            if nz:
                up = phi_p_inv(p, v_in / av)
                zeros.append(x0 - u_in / up)
            continue
        omega, phi0, amp = osc
        desc.append((x0, x1, av, omega, phi0, amp, u_in, v_in))
        m_lo = math.floor(phi0 / kernel.pi)
        m_hi = math.floor((phi0 + omega * (x1 - x0)) / kernel.pi)
        for m in range(m_lo + 1, m_hi + 1):
            zeros.append(x0 + (m * kernel.pi - phi0) / omega)
    zeros = [z for z in zeros if z < length * (1.0 - 1e-12)]
    return zeros, desc


def _pc_sample(desc, kernel, p, xs):
    """Evaluate the closed-form solution at sample points xs."""
    out = np.empty(len(xs))
    j = 0
    for idx, x in enumerate(xs):
        while j + 1 < len(desc) and x > desc[j][1]:
            j += 1
        x0, x1, av, omega, phi0, amp, u_in, v_in = desc[j]
        if omega is None:
            up = phi_p_inv(p, v_in / av)
            out[idx] = u_in + up * (x - x0)
        else:
            z, sgn, _ = _reduce(kernel, phi0 + omega * (x - x0))
            out[idx] = amp * sgn * _sin_core(kernel, z)[0]
    return out


# -- eigenvalue location ----------------------------------------------

# Float failures a shot can raise; they become NonconvergenceError.
_NUMERIC_FAILURES = (OverflowError, ZeroDivisionError, FloatingPointError)


def _bracket_eigenvalue(prob, k, tol, steps_per_unit, max_iter, bracket):
    p = prob.p.p
    pc = prob.p.p_conj
    pieces = prob.pieces()
    if pieces is not None:
        kernel = _kernel_for(p)

        def shoot(lam):
            u, v = 0.0, 1.0
            total = 0
            try:
                for i, (x0, x1, av, rv) in enumerate(pieces):
                    u, v, nz, _ = _advance(kernel, p, pc, av, rv, lam, u, v, x1 - x0)
                    total += nz
            except _NUMERIC_FAILURES as exc:
                raise NonconvergenceError(
                    f"closed-form shot at lam={lam!r} failed on piece {i} "
                    f"[{x0!r}, {x1!r}]: {type(exc).__name__}: {exc}") from exc
            return u, total
    else:
        def shoot(lam):
            t = integrate_ivp(prob, lam, 0.0, 1.0, steps_per_unit=steps_per_unit)
            return float(t.u[-1]), count_interior_zeros(t)

    lo, hi = bracket if bracket is not None else weyl_bracket(prob, k)
    if not (0.0 < lo < hi):
        raise ValueError(f"bad bracket ({lo!r}, {hi!r})")
    expected_sign = 1.0 if (k - 1) % 2 == 0 else -1.0

    def classify(lam):
        """(too_small, g): whether lam is below lam_k, and the endgame
        function g = (-1)^(k-1) u(L; lam), NaN where it does not apply."""
        u_end, nz = shoot(lam)
        g = u_end * expected_sign
        if nz != k - 1:
            return nz < k - 1, (g if nz == k else math.nan)
        return g > 0.0, g

    small, g_lo = classify(lo)
    if not small:
        raise BracketError(f"lower bracket end {lo!r} is not below lambda_{k}")
    small, g_hi = classify(hi)
    if small:
        raise BracketError(f"upper bracket end {hi!r} is not above lambda_{k}")

    # Between lam_(k-1) and lam_(k+1), g is continuous and changes sign
    # only at lam_k, so once both ends shoot k-1 or k interior zeros with
    # g(lo) > 0 >= g(hi), the midpoint gives way to regula falsi with the
    # Illinois modification: the g of an end retained twice in a row is
    # halved.  The point is kept half a tolerance inside the bracket, so
    # that once it sits next to one end the next shot lands across lam_k
    # and closes the bracket.  ``widths`` holds the bracket widths before
    # each step of the current run of interpolation steps; a run that has
    # not halved the bracket over three steps (one Illinois cycle: two
    # steps retaining the same end, then the modified one) is cut by a
    # midpoint.
    moved_lo = None
    widths: list = []
    for _ in range(max_iter):
        if hi - lo <= tol * lo:
            break
        if g_hi <= 0.0 < g_lo and not (len(widths) >= 3 and hi - lo > 0.5 * widths[-3]):
            margin = 0.5 * tol * lo
            lam = min(max(lo + g_lo / (g_lo - g_hi) * (hi - lo), lo + margin), hi - margin)
            widths.append(hi - lo)
        else:
            lam = 0.5 * (lo + hi)
            widths.clear()
        small, g = classify(lam)
        if small:
            if moved_lo is True:
                g_hi *= 0.5
            lo, g_lo = lam, g
        else:
            if moved_lo is False:
                g_lo *= 0.5
            hi, g_hi = lam, g
        moved_lo = small
    else:
        raise NonconvergenceError(
            f"eigenvalue bracketing did not reach tolerance {tol!r} "
            f"in {max_iter} iterations")
    return lo, hi, pieces


def solve_eigenvalue(prob: Problem, k: int, tol: float = 1e-9, *,
                     steps_per_unit: int = 10_000, max_iter: int = 200,
                     bracket: tuple | None = None) -> float:
    """The k-th Dirichlet eigenvalue, bracketed to relative accuracy tol
    (eigenvalue only; see solve_eigenpair for the pair).  ``max_iter``
    bounds the bracketing iterations, one shot each, after the shots at
    the two bracket ends."""
    if not (isinstance(k, int) and k >= 1):
        raise ValueError(f"k must be a positive integer, got {k!r}")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    lo, hi, _ = _bracket_eigenvalue(prob, k, tol, steps_per_unit, max_iter, bracket)
    return 0.5 * (lo + hi)


def solve_eigenpair(prob: Problem, k: int, tol: float = 1e-9, *,
                    steps_per_unit: int = 10_000, samples: int = 1025,
                    max_iter: int = 200, bracket: tuple | None = None) -> Eigenpair:
    """The k-th eigenvalue and eigenfunction.

    The eigenfunction is evaluated at the lower end of the final
    bracket (which is guaranteed to shoot with exactly k-1
    interior zeros), sampled on a grid of about ``samples`` points merged
    with the coefficient breakpoints, and normalized to unit L^p norm in
    the composite-trapezoid sense with u'(0) > 0.
    """
    if not (isinstance(k, int) and k >= 1):
        raise ValueError(f"k must be a positive integer, got {k!r}")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    if samples < 2:
        raise ValueError(f"samples must be at least 2, got {samples!r}")
    lo, hi, pieces = _bracket_eigenvalue(prob, k, tol, steps_per_unit, max_iter, bracket)
    lam = 0.5 * (lo + hi)
    p = prob.p.p
    pc = prob.p.p_conj
    L = prob.length

    if pieces is not None:
        kernel = _kernel_for(p)
        zeros, desc = _pc_zero_positions(pieces, kernel, p, pc, lo, 0.0, 1.0, L)
        base = np.linspace(0.0, L, samples)
        grid = np.unique(np.concatenate([base, np.array(prob.breakpoints())]))
        u = _pc_sample(desc, kernel, p, grid)
    else:
        traj = integrate_ivp(prob, lo, 0.0, 1.0, steps_per_unit=steps_per_unit)
        grid, u = traj.grid, traj.u
        zeros = [float(z) for z in interior_zero_locations(traj)
                 if z < L * (1.0 - 1e-12)]

    if len(zeros) != k - 1:
        raise NonconvergenceError(
            f"eigenfunction for k={k} came out with {len(zeros)} interior zeros; "
            f"tighten tol or the integration step")
    u = u / _trapz(np.abs(u) ** p, grid) ** (1.0 / p)
    u[0] = 0.0
    u[-1] = 0.0
    return Eigenpair(k=k, lam=lam, grid=grid, u=u, zeros=tuple(zeros))
