"""Problem descriptions and pointwise kernels for the weighted p-Laplacian.

The eigenvalue problem on an interval (0, L) is

    -(a(x) |u'|^(p-2) u')' = lam * rho(x) |u|^(p-2) u,   u(0) = u(L) = 0,

with measurable coefficients bounded between positive constants.  This
module holds the data types describing such problems (coefficients,
problems, computed eigenpairs) and the scalar kernels shared by the
solvers: the odd power phi_p, its inverse, the energy density
a(x)|xi|^p, and the two sides of the Picone identity.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace

import numpy as np

from .ptrig import Exponent, _as_p

__all__ = [
    "Coefficient", "Problem", "Eigenpair",
    "phi_p", "phi_p_inv", "potential", "picone_lr",
]

PIECEWISE_CONSTANT = "piecewise-constant"
PIECEWISE_LINEAR = "piecewise-linear"
PERIODIC_CELL = "periodic-cell"

_KINDS = (PIECEWISE_CONSTANT, PIECEWISE_LINEAR, PERIODIC_CELL)


def phi_p(p, s):
    """Odd power kernel |s|^(p-2) s (equal to sign(s)|s|^(p-1)).

    Accepts scalars or numpy arrays.  phi_p(0) = 0 for every p > 1.
    """
    pv = _as_p(p)
    arr = np.asarray(s, dtype=float)
    out = np.sign(arr) * np.abs(arr) ** (pv - 1.0)
    return float(out) if arr.ndim == 0 else out


def phi_p_inv(p, t):
    """Inverse of phi_p: sign(t)|t|^(1/(p-1)), i.e. phi with the conjugate exponent."""
    pv = _as_p(p)
    arr = np.asarray(t, dtype=float)
    out = np.sign(arr) * np.abs(arr) ** (1.0 / (pv - 1.0))
    return float(out) if arr.ndim == 0 else out


def potential(a_val: float, p, xi: float) -> float:
    """Energy density a|xi|^p of the operator; its xi-gradient is p*a*phi_p(xi)."""
    if not a_val > 0.0:
        raise ValueError(f"coefficient value must be positive, got {a_val!r}")
    pv = _as_p(p)
    return a_val * abs(xi) ** pv


def picone_lr(p, a_val: float, u: float, du: float, v: float, dv: float):
    """Both sides of the pointwise Picone identity for the weighted operator.

    For u >= 0, v > 0 and gradients du, dv, with Phi(xi) = a|xi|^p,

        L = Phi(du) + (p-1)(u/v)^p Phi(dv) - p (u/v)^(p-1) a phi_p(dv) du
        R = a phi_p(du) du - a phi_p(dv) * d/dx(u^p / v^(p-1))

    where the derivative in R is expanded through du and dv.  L and R are
    algebraically identical; by convexity of Phi, L >= 0 with equality
    exactly when (u, du) is proportional to (v, dv).  The two sides are
    evaluated through independent groupings so that comparing them
    exercises the identity rather than a shared code path.
    """
    pv = _as_p(p)
    if not a_val > 0.0:
        raise ValueError(f"coefficient value must be positive, got {a_val!r}")
    if not u >= 0.0:
        raise ValueError(f"picone identity requires u >= 0, got {u!r}")
    if not v > 0.0:
        raise ValueError(f"picone identity requires v > 0, got {v!r}")

    t = u / v
    phi_dv = math.copysign(abs(dv) ** (pv - 1.0), dv) if dv != 0.0 else 0.0
    left = (a_val * abs(du) ** pv
            + (pv - 1.0) * t ** pv * a_val * abs(dv) ** pv
            - pv * t ** (pv - 1.0) * a_val * phi_dv * du)

    phi_du = math.copysign(abs(du) ** (pv - 1.0), du) if du != 0.0 else 0.0
    d_ratio = (pv * u ** (pv - 1.0) / v ** (pv - 1.0) * du
               - (pv - 1.0) * u ** pv / v ** pv * dv)
    right = a_val * phi_du * du - a_val * phi_dv * d_ratio
    return left, right


@dataclass(frozen=True)
class Coefficient:
    """A positive coefficient on an interval.

    Three kinds are supported:

    - ``piecewise-constant``: ``values[i]`` on ``[breakpoints[i], breakpoints[i+1])``,
      right-continuous at the interior breakpoints, closed at the right end.
    - ``piecewise-linear``: ``values`` at ``breakpoints``, linear in between.
    - ``periodic-cell``: ``cell`` is a coefficient on the unit interval and
      the value at x is the cell value at the fractional part of x/period.
    """

    kind: str
    breakpoints: tuple = ()
    values: tuple = ()
    cell: "Coefficient | None" = None
    period: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown coefficient kind {self.kind!r}")
        object.__setattr__(self, "breakpoints", tuple(float(b) for b in self.breakpoints))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if self.kind == PERIODIC_CELL:
            if self.breakpoints or self.values:
                raise ValueError("periodic-cell takes a cell and a period, not breakpoints/values")
            if not isinstance(self.cell, Coefficient):
                raise ValueError("periodic-cell requires a cell Coefficient")
            if self.cell.kind == PERIODIC_CELL:
                raise ValueError("periodic-cell cannot nest another periodic-cell")
            if not self.cell.covers(0.0, 1.0):
                raise ValueError("periodic-cell cell must cover the unit interval [0, 1]")
            if not (math.isfinite(self.period) and self.period > 0.0):
                raise ValueError(f"period must be positive, got {self.period!r}")
            return
        if self.cell is not None or self.period:
            raise ValueError(f"{self.kind} takes breakpoints/values only")
        bs, vs = self.breakpoints, self.values
        need = len(bs) - 1 if self.kind == PIECEWISE_CONSTANT else len(bs)
        if len(bs) < 2:
            raise ValueError("at least two breakpoints are required")
        if len(vs) != need:
            raise ValueError(f"{self.kind} with {len(bs)} breakpoints needs "
                             f"{need} values, got {len(vs)}")
        if any(b1 <= b0 for b0, b1 in zip(bs, bs[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if any(not (math.isfinite(v) and v > 0.0) for v in vs):
            raise ValueError("coefficient values must be positive and finite")

    # -- constructors -------------------------------------------------

    @classmethod
    def piecewise_constant(cls, breakpoints, values) -> "Coefficient":
        return cls(PIECEWISE_CONSTANT, tuple(breakpoints), tuple(values))

    @classmethod
    def piecewise_linear(cls, breakpoints, values) -> "Coefficient":
        return cls(PIECEWISE_LINEAR, tuple(breakpoints), tuple(values))

    @classmethod
    def periodic(cls, cell: "Coefficient", period: float) -> "Coefficient":
        return cls(PERIODIC_CELL, cell=cell, period=float(period))

    @classmethod
    def constant(cls, value: float, span=(0.0, 1.0)) -> "Coefficient":
        return cls(PIECEWISE_CONSTANT, (float(span[0]), float(span[1])), (float(value),))

    # -- evaluation ---------------------------------------------------

    def __call__(self, x: float) -> float:
        x = float(x)
        if self.kind == PERIODIC_CELL:
            y = x / self.period
            frac = y - math.floor(y)
            return self.cell(frac)
        bs = self.breakpoints
        if not bs[0] <= x <= bs[-1]:
            raise ValueError(f"x={x!r} outside coefficient domain [{bs[0]}, {bs[-1]}]")
        if self.kind == PIECEWISE_CONSTANT:
            i = min(bisect_right(bs, x) - 1, len(self.values) - 1)
            return self.values[max(i, 0)]
        i = min(max(bisect_right(bs, x) - 1, 0), len(bs) - 2)
        w = (x - bs[i]) / (bs[i + 1] - bs[i])
        return (1.0 - w) * self.values[i] + w * self.values[i + 1]

    def _at(self, xs: np.ndarray) -> np.ndarray:
        """Values at an array of points in the domain of a piecewise-constant
        or piecewise-linear coefficient, bit-identical to calling it at each
        point (the same right-continuous search, clamp and weights)."""
        bs = np.array(self.breakpoints)
        vs = np.array(self.values)
        i = np.searchsorted(bs, xs, side="right") - 1
        if self.kind == PIECEWISE_CONSTANT:
            return vs[np.clip(i, 0, len(vs) - 1)]
        i = np.clip(i, 0, len(bs) - 2)
        w = (xs - bs[i]) / (bs[i + 1] - bs[i])
        return (1.0 - w) * vs[i] + w * vs[i + 1]

    def lower(self) -> float:
        if self.kind == PERIODIC_CELL:
            return self.cell.lower()
        return min(self.values)

    def upper(self) -> float:
        if self.kind == PERIODIC_CELL:
            return self.cell.upper()
        return max(self.values)

    def covers(self, x0: float, x1: float) -> bool:
        if self.kind == PERIODIC_CELL:
            return True
        return self.breakpoints[0] <= x0 and x1 <= self.breakpoints[-1]

    def interior_breakpoints(self, x0: float, x1: float) -> list:
        """Discontinuity and kink locations strictly inside (x0, x1)."""
        if self.kind != PERIODIC_CELL:
            return [b for b in self.breakpoints if x0 < b < x1]
        eps = self.period
        cell_pts = [0.0] + [b for b in self.cell.breakpoints if 0.0 < b < 1.0]
        out = []
        m = math.floor(x0 / eps)
        while m * eps < x1:
            for b in cell_pts:
                x = (m + b) * eps
                if x0 < x < x1:
                    out.append(x)
            m += 1
        return sorted(out)

    def materialized(self, x0: float, x1: float) -> "Coefficient":
        """An equivalent plain coefficient spanning exactly [x0, x1].

        Periodic coefficients with a piecewise-constant cell collapse to
        piecewise-constant; a piecewise-linear cell must be continuous
        across the cell seam (otherwise the restriction is not
        representable and a ValueError is raised).
        """
        if not x1 > x0:
            raise ValueError("materialization window must have positive width")
        if not self.covers(x0, x1):
            raise ValueError("coefficient does not cover the requested window")
        inner = self.interior_breakpoints(x0, x1)
        pts = [x0] + inner + [x1]
        kind = self.cell.kind if self.kind == PERIODIC_CELL else self.kind
        if kind == PIECEWISE_CONSTANT:
            vals = [self(0.5 * (lo + hi)) for lo, hi in zip(pts, pts[1:])]
            return Coefficient.piecewise_constant(pts, vals)
        if self.kind == PERIODIC_CELL:
            v0, v1 = self.cell(0.0), self.cell(1.0)
            if abs(v0 - v1) > 1e-12 * max(v0, v1):
                raise ValueError("periodic piecewise-linear cell is discontinuous "
                                 "across the seam; restriction is not representable")
        vals = [self(x) for x in pts]
        return Coefficient.piecewise_linear(pts, vals)

    def windowed(self, x0: float, x1: float) -> "Coefficient":
        """Like ``materialized`` but shifted to start at 0."""
        m = self.materialized(x0, x1)
        return replace(m, breakpoints=tuple(b - x0 for b in m.breakpoints))


@dataclass(frozen=True)
class Problem:
    """A Dirichlet eigenvalue problem on (0, length)."""

    length: float
    p: Exponent
    a: Coefficient
    rho: Coefficient

    def __post_init__(self):
        if not isinstance(self.p, Exponent):
            object.__setattr__(self, "p", Exponent(self.p))
        L = float(self.length)
        if not (math.isfinite(L) and L > 0.0):
            raise ValueError(f"length must be positive and finite, got {self.length!r}")
        object.__setattr__(self, "length", L)
        for name in ("a", "rho"):
            c = getattr(self, name)
            if not isinstance(c, Coefficient):
                raise ValueError(f"{name} must be a Coefficient")
            if not c.covers(0.0, L):
                raise ValueError(f"{name} does not cover [0, {L}]")

    def breakpoints(self) -> list:
        """Sorted union of both coefficients' breakpoints inside (0, length)."""
        pts = sorted(set(self.a.interior_breakpoints(0.0, self.length))
                     | set(self.rho.interior_breakpoints(0.0, self.length)))
        out = []
        for x in pts:
            if not out or x - out[-1] > 1e-12 * self.length:
                out.append(x)
        return out

    def pieces(self):
        """Constant pieces (x0, x1, a, rho) if both coefficients are
        piecewise constant over [0, length], else None."""
        am = self.a.materialized(0.0, self.length)
        rm = self.rho.materialized(0.0, self.length)
        if am.kind != PIECEWISE_CONSTANT or rm.kind != PIECEWISE_CONSTANT:
            return None
        edges = [0.0] + self.breakpoints() + [self.length]
        return [(lo, hi, am(0.5 * (lo + hi)), rm(0.5 * (lo + hi)))
                for lo, hi in zip(edges, edges[1:])]

    def restricted(self, x0: float, x1: float) -> "Problem":
        """The same problem posed on the subinterval (x0, x1), shifted to 0."""
        if not 0.0 <= x0 < x1 <= self.length:
            raise ValueError(f"bad restriction window ({x0}, {x1})")
        return Problem(x1 - x0, self.p,
                       self.a.windowed(x0, x1), self.rho.windowed(x0, x1))


@dataclass(frozen=True, eq=False)
class Eigenpair:
    """A computed eigenvalue with its sampled eigenfunction.

    ``zeros`` holds the ascending interior zeros of the eigenfunction;
    the k-th eigenfunction has exactly k-1 of them.  ``u`` is sampled on
    ``grid`` and normalized so the composite-trapezoid approximation of
    the L^p norm over the interval equals one, with u'(0) > 0.
    """

    k: int
    lam: float
    grid: np.ndarray
    u: np.ndarray
    zeros: tuple

    def __post_init__(self):
        if not (isinstance(self.k, int) and self.k >= 1):
            raise ValueError(f"k must be a positive integer, got {self.k!r}")
        if not self.lam > 0.0:
            raise ValueError(f"eigenvalue must be positive, got {self.lam!r}")
        object.__setattr__(self, "grid", np.asarray(self.grid, dtype=float))
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))
        if self.grid.shape != self.u.shape:
            raise ValueError("grid and u must have matching shapes")
        object.__setattr__(self, "zeros", tuple(float(z) for z in self.zeros))
