"""Generalized p-trigonometric functions.

For an exponent p > 1 the generalized arcsine is defined by the integral

    asin_p(s) = int_0^s ((p-1)/(1-t^p))^(1/p) dt,      0 <= s <= 1,

extended to [-1, 1] as an odd function.  Its value at s = 1 is the
quarter-period, and

    pi_p = 2 * int_0^1 ((p-1)/(1-t^p))^(1/p) dt

plays the role of pi.  sin_p is the inverse of asin_p on
[-pi_p/2, pi_p/2], extended to the real line by the reflection
sin_p(pi_p - x) = sin_p(x) and oddness, which makes it 2*pi_p periodic.
With this (amplitude one) normalization, u = sin_p satisfies the
initial value problem

    -(|u'|^(p-2) u')' = |u|^(p-2) u,   u(0) = 0,  u'(0) = (p-1)^(-1/p),

and differentiating the defining integral yields the first integral

    (p-1) |u'(x)|^p + |u(x)|^p = 1    for all x.

At p = 2 everything reduces to the classical sine and pi_2 = pi.

Numerics
--------
The substitution t^p = y turns the defining integral into a Beta
integral, so pi_p = 2 pi (p-1)^(1/p) / (p sin(pi/p)) (Lindqvist, Ricerche
Mat. 44 (1995)); below p = 2 the sine is evaluated at the reflected
angle pi (p-1)/p, which keeps pi_p accurate to rounding as p -> 1.

sin_p and asin_p are evaluated from per-exponent tables of piecewise
Chebyshev fits, converted to power form and summed by Horner's rule.
Each function is split into a bulk and a desingularized tail:

- asin_p(s) = s G(s^p) for 1 - s > x_t = min(0.03, 3/p), and
  pi_p/2 - asin_p(1 - x) = x^(1/q) F(x) for x = 1 - s <= x_t;
- sin_p(z) = z H(z^p) below a cut z_c, and
  1 - sin_p(z) = tau K(tau) with tau = (pi_p/2 - z)^q above it.  The cut
  is where 1 - sin_p = 1e-4 or at 0.97 pi_p/2, whichever is lower in z,
  but never lower in z than where 1 - sin_p = x_t.

G, F, H and K are analytic on their ranges, so 256 uniform segments of
degree 11 (bulk) and one segment of degree 19 (tails) reach rounding
level.  The node values come from two power series of the defining
integral: the hypergeometric series of G in s^p for s^p <= 1/2, and the
Taylor series of F in x, with asin_p = pi_p/2 - x^(1/q) F(x), above.
sin_p nodes are found by Newton's method on asin_p in the bulk and by
the fixed point x = (zeta/F(x))^q near the top, where Newton in s would
be ill-conditioned.

The private evaluators carry the complement x = 1 - |s| next to s, so
1 - |s|^p and the phase near a maximum of |sin_p| keep their relative
accuracy where s itself rounds to 1; the shooting solver depends on
this.  The tables of an exponent are built on the first sin_p or asin_p
call at that exponent (about 10-20 ms; pi_p builds none) and kept for the
life of the process.  Both functions then cost a few microseconds per
call and agree with the incomplete Beta function to a few units in the
last place.

The private _sin_array evaluates sin_p on a whole array, from the same
tables (the bulk table is also kept as an array when the kernel is
built) and through the same branches and Horner sums; the solvers use
it to sample eigenfunctions, at about 0.2 us per point against 3 us for
a scalar call.  It agrees with sin_p to a few units in the last place:
numpy's pow rounds z^p differently from the C library's in a few
percent of arguments, and sin_p'(z) z / p carries that one ulp over.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import NonconvergenceError

__all__ = ["Exponent", "pi_p", "asin_p", "sin_p", "dsin_p"]

# Table layout: uniform bulk segments in s^p (asin_p) and z^p (sin_p),
# and one Chebyshev segment for each desingularized tail.
_SEGMENTS = 256
_DEGREE = 11
_TAIL_DEGREE = 19
_ASIN_TAIL_X = 0.03        # asin_p uses its tail for 1 - s <= this, or 3/p
_SIN_TAIL_X = 1e-4         # sin_p uses its tail from 1 - s = this ...
_SIN_TAIL_Z = 0.97         # ... or from z = this * pi_p/2, whichever is lower
_SERIES_TERMS = 64         # both reference series converge at ratio <= 1/2


@dataclass(frozen=True)
class Exponent:
    """An exponent p > 1 together with its conjugate p/(p-1).

    The conjugate satisfies 1/p + 1/p_conj = 1; it is the exponent for
    which pi_{p_conj} = pi_p and it shows up wherever the inverse of the
    odd power s -> |s|^(p-2) s is needed.
    """

    p: float
    p_conj: float = field(init=False)

    def __post_init__(self):
        p = float(self.p)
        if not math.isfinite(p) or p <= 1.0:
            raise ValueError(f"exponent must be a finite real > 1, got {self.p!r}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "p_conj", p / (p - 1.0))


def _as_p(p) -> float:
    if isinstance(p, Exponent):
        return p.p
    return Exponent(p).p


# -- table construction ------------------------------------------------------


class _Reference:
    """Table-building values of asin_p from two power series.

    G(y) = asin_p(s)/s with y = s^p is (p-1)^(1/p) times the
    hypergeometric series sum_k (1/p)_k / (k! (pk+1)) y^k.  F(x), with
    pi_p/2 - asin_p(1 - x) = x^(1/q) F(x), is (p-1)^(1/p) times
    sum_j h_j x^j / (j + 1/q), where the h_j are the Taylor coefficients
    of g(w)^(-1/p), g(w) = (1 - (1-w)^p)/w, by J. C. P. Miller's power
    recurrence.  G is used for y <= 1/2 and F above, where each series
    converges at least geometrically with ratio 1/2.  F's singularities
    nearest to 0 lie at |x| = min(1, 2 sin(pi/p)), about 2 pi/p for large
    p, so its series is summed in the variable p x, and the tails never
    reach beyond x = 3/p.
    """

    def __init__(self, p: float, pc: float, pi_half: float):
        self.p, self.pc, self.pi_half = p, pc, pi_half
        self.c = (p - 1.0) ** (1.0 / p)
        n = _SERIES_TERMS
        b = np.empty(n)
        b[0] = 1.0
        for k in range(1, n):
            b[k] = b[k - 1] * (1.0 / p + k - 1.0) / k
        self.g_coef = b / (p * np.arange(n) + 1.0)
        g = np.empty(n)                  # g_j / p^j
        g[0] = p
        for j in range(1, n):
            g[j] = -g[j - 1] * (p - j) / ((j + 1.0) * p)
        alpha = -1.0 / p
        h = np.empty(n)                  # h_j / p^j
        h[0] = p ** alpha
        for m in range(1, n):
            k = np.arange(1, m + 1)
            h[m] = np.dot(((alpha + 1.0) * k - m) * g[1:m + 1], h[m - k]) / (m * p)
        self.f_coef = h / (np.arange(n) + 1.0 / pc)

    def G(self, y):
        return self.c * np.polynomial.polynomial.polyval(y, self.g_coef)

    def F(self, x):
        return self.c * np.polynomial.polynomial.polyval(self.p * x, self.f_coef)

    def asin(self, s, x):
        """asin_p(s) for s in [0, 1) with x = 1 - s given accurately."""
        y = s ** self.p
        low = y <= 0.5
        head = s * self.G(np.where(low, y, 0.0))
        top = self.pi_half - x ** (1.0 / self.pc) * self.F(np.where(low, 0.0, x))
        return np.where(low, head, top)

    def asin_over_s(self, y):
        """G(y) at y in (0, 1), with s and x = 1 - s formed from y."""
        ls = np.log(y) / self.p
        s = np.exp(ls)
        return self.asin(s, -np.expm1(ls)) / s

    def sin_over_z(self, z, s_cut):
        """sin_p(z)/z for 0 < z <= the sin_p cut, by Newton's method.

        asin_p is convex and increasing, so Newton started where
        asin_p(s) >= z decreases monotonically to the root.
        """
        s = np.minimum(z / self.c, s_cut)
        for _ in range(100):
            x = 1.0 - s
            slope = self.c * (-np.expm1(self.p * np.log1p(-x))) ** (-1.0 / self.p)
            step = (self.asin(s, x) - z) / slope
            s = s - step
            if np.max(np.abs(step)) <= 1e-15:
                break
        return s / z

    def sin_tail(self, tau):
        """K(tau) = (1 - sin_p(z))/tau, tau = (pi_p/2 - z)^q, through the
        fixed point x = tau F(x)^(-q), a contraction of order q x."""
        x = tau * self.F(0.0) ** -self.pc
        for _ in range(100):
            new = tau * self.F(x) ** -self.pc
            done = np.max(np.abs(new - x)) <= 1e-17 * np.max(x)
            x = new
            if done:
                break
        return self.F(x) ** -self.pc


def _cheb_points(degree: int) -> np.ndarray:
    # First-kind Chebyshev points, in the order the DCT-II expects.
    n = degree + 1
    return np.cos(np.pi * (np.arange(n) + 0.5) / n)


def _fit(values: np.ndarray) -> tuple:
    """Horner coefficients (highest degree first) on [-1, 1] of the
    interpolant through values at _cheb_points, one row per segment.

    A DCT-II, a product with the cosine matrix (its angles reduced below
    2 pi exactly, in integers), gives the Chebyshev coefficients; an exact
    integer matrix then maps them to the power basis.  Applying the two in
    turn keeps the decay of the Chebyshev coefficients; one combined
    matrix would not.
    """
    n = values.shape[-1]
    m = np.outer(np.arange(n), 2 * np.arange(n) + 1) % (4 * n)
    cheb = values @ np.cos(np.pi * m / (2 * n)).T * (2.0 / n)
    cheb[..., 0] *= 0.5
    to_power = np.eye(n)              # row k: power coefficients of T_k
    for k in range(2, n):
        to_power[k, 1:] = 2.0 * to_power[k - 1, :-1]
        to_power[k] -= to_power[k - 2]
    power = cheb @ to_power
    return tuple(tuple(float(a) for a in row[::-1]) for row in np.atleast_2d(power))


def _bulk_nodes(top: float) -> np.ndarray:
    """Chebyshev nodes of _SEGMENTS uniform segments of [0, top], one row
    per segment."""
    h = top / _SEGMENTS
    left = h * np.arange(_SEGMENTS)[:, None]
    return left + 0.5 * h * (_cheb_points(_DEGREE)[None, :] + 1.0)


@dataclass(frozen=True)
class _Kernel:
    """The evaluation tables of sin_p and asin_p at one exponent."""

    p: float
    pc: float
    pi: float
    pi_half: float
    asin_bulk: tuple       # per segment of y = s^p in [0, (1 - x_tail)^p]
    asin_scale: float      # segments per unit of y
    x_tail: float
    asin_tail: tuple       # F on x in [0, x_tail]
    sin_bulk: tuple        # per segment of y = z^p in [0, z_cut^p]
    sin_bulk_cols: np.ndarray  # sin_bulk transposed, one row per degree
    sin_scale: float
    z_cut: float
    sin_tail: tuple        # K on tau in [0, tau_cut]
    tau_scale: float       # 2 / tau_cut


def _build_kernel(p: float) -> _Kernel:
    pc = p / (p - 1.0)
    pi_half = 0.5 * pi_p(p)
    ref = _Reference(p, pc, pi_half)

    x_tail = min(_ASIN_TAIL_X, 3.0 / p)
    y_max = (1.0 - x_tail) ** p
    asin_bulk = _fit(ref.asin_over_s(_bulk_nodes(y_max)))
    asin_tail = _fit(ref.F(0.5 * x_tail * (_cheb_points(_TAIL_DEGREE) + 1.0)))[0]

    def zeta_at(x):
        return x ** (1.0 / pc) * float(ref.F(x))

    zeta_cut = min(max(zeta_at(_SIN_TAIL_X), (1.0 - _SIN_TAIL_Z) * pi_half),
                   zeta_at(x_tail))
    tau_cut = zeta_cut ** pc
    z_cut = pi_half - zeta_cut
    s_cut = 1.0 - tau_cut * float(ref.sin_tail(np.array([tau_cut]))[0])
    nodes = _bulk_nodes(z_cut ** p)
    sin_bulk = _fit(ref.sin_over_z(nodes ** (1.0 / p), s_cut))
    sin_bulk_cols = np.array(sin_bulk).T.copy()
    sin_bulk_cols.flags.writeable = False
    sin_tail = _fit(ref.sin_tail(0.5 * tau_cut * (_cheb_points(_TAIL_DEGREE) + 1.0)))[0]

    return _Kernel(p=p, pc=pc, pi=2.0 * pi_half, pi_half=pi_half,
                   asin_bulk=asin_bulk, asin_scale=_SEGMENTS / y_max,
                   x_tail=x_tail, asin_tail=asin_tail, sin_bulk=sin_bulk,
                   sin_bulk_cols=sin_bulk_cols,
                   sin_scale=_SEGMENTS / z_cut ** p, z_cut=z_cut,
                   sin_tail=sin_tail, tau_scale=2.0 / tau_cut)


_lock = threading.RLock()
_kernels: dict[float, _Kernel] = {}


def _kernel_for(p) -> _Kernel:
    """The tables at exponent p, built on first use."""
    k = _kernels.get(p) if type(p) is float else None
    if k is None:
        p = _as_p(p)
        with _lock:
            k = _kernels.get(p)
            if k is None:
                k = _kernels[p] = _build_kernel(p)
    return k


# -- evaluation ---------------------------------------------------------------


def _horner(coef: tuple, t: float) -> float:
    acc = 0.0
    for a in coef:
        acc = acc * t + a
    return acc


def _bulk(table: tuple, scale: float, y: float) -> float:
    u = y * scale
    i = min(int(u), _SEGMENTS - 1)
    return _horner(table[i], 2.0 * (u - i) - 1.0)


def _asin_core(k: _Kernel, s: float, x: float) -> tuple[float, float]:
    """(asin_p(s), pi_p/2 - asin_p(s)) for s in [0, 1], given its
    complement x = 1 - s; the second entry keeps its relative accuracy
    as s -> 1."""
    if x > k.x_tail:
        z = min(s * _bulk(k.asin_bulk, k.asin_scale, s ** k.p), k.pi_half)
        return z, k.pi_half - z
    zeta = min(x ** (1.0 / k.pc) * _horner(k.asin_tail, 2.0 * x / k.x_tail - 1.0),
               k.pi_half)
    return k.pi_half - zeta, zeta


def _sin_core(k: _Kernel, z: float) -> tuple[float, float]:
    """(sin_p(z), 1 - sin_p(z)) for z in [0, pi_p/2]."""
    if z < k.z_cut:
        if z <= 0.0:
            return 0.0, 1.0
        s = min(z * _bulk(k.sin_bulk, k.sin_scale, z ** k.p), 1.0)
        return s, 1.0 - s
    if z >= k.pi_half:
        return 1.0, 0.0
    tau = (k.pi_half - z) ** k.pc
    x = min(tau * _horner(k.sin_tail, tau * k.tau_scale - 1.0), 1.0)
    return 1.0 - x, x


def _sin_array(k: _Kernel, x: np.ndarray) -> np.ndarray:
    """sin_p at every point of an array: the branches of _reduce and
    _sin_core taken elementwise, on the same tables and with the same
    operation order.  Only the powers can round differently (numpy's pow
    against the C library's), which moves a value by a few ulps."""
    two_pi = 2.0 * k.pi
    y = np.fmod(x, two_pi)
    y = np.where(y < 0.0, y + two_pi, y)
    z = np.where(y <= k.pi_half, y,
                 np.where(y <= k.pi, k.pi - y,
                          np.where(y <= 1.5 * k.pi, y - k.pi, two_pi - y)))
    s = np.where(z >= k.pi_half, 1.0, 0.0)
    bulk = (z > 0.0) & (z < k.z_cut)
    zb = z[bulk]
    u = zb ** k.p * k.sin_scale
    i = np.minimum(u.astype(np.intp), _SEGMENTS - 1)
    t = 2.0 * (u - i) - 1.0
    acc = k.sin_bulk_cols[0][i]
    for col in k.sin_bulk_cols[1:]:
        acc *= t
        acc += col[i]
    s[bulk] = np.minimum(zb * acc, 1.0)
    tail = (z >= k.z_cut) & (z < k.pi_half)
    tau = (k.pi_half - z[tail]) ** k.pc
    t = tau * k.tau_scale - 1.0
    acc = np.full_like(t, k.sin_tail[0])
    for a in k.sin_tail[1:]:
        acc *= t
        acc += a
    s[tail] = 1.0 - np.minimum(tau * acc, 1.0)
    return np.where(y <= k.pi, s, -s)


def _one_minus_pow(x: float, p: float) -> float:
    """1 - (1 - x)^p for x in [0, 1], accurate for small x."""
    return -math.expm1(p * math.log1p(-x)) if x < 1.0 else 1.0


def _reduce(k: _Kernel, x: float) -> tuple[float, float, float]:
    # Map x to (z, sign of sin, sign of derivative) with z in [0, pi_p/2].
    y = math.fmod(x, 2.0 * k.pi)
    if y < 0.0:
        y += 2.0 * k.pi
    if y <= k.pi_half:
        return y, 1.0, 1.0
    if y <= k.pi:
        return k.pi - y, 1.0, -1.0
    if y <= 1.5 * k.pi:
        return y - k.pi, -1.0, -1.0
    return 2.0 * k.pi - y, -1.0, 1.0


def pi_p(p) -> float:
    """Return pi_p, the half period of sin_p, in closed form:
    2 pi (p-1)^(1/p) / (p sin(pi/p)) (Lindqvist, Ricerche Mat. 44 (1995))."""
    p = _as_p(p)
    # Below p = 2 the sine is taken at the reflected angle pi (p-1)/p,
    # which keeps its relative accuracy as p -> 1 (pi/p rounds next to pi).
    angle = math.pi / p if p >= 2.0 else math.pi * ((p - 1.0) / p)
    return 2.0 * math.pi * (p - 1.0) ** (1.0 / p) / (p * math.sin(angle))


def _constant_eigenvalue(p, k: int, length: float) -> float:
    """mu_k = (pi_p k / L)^p, the k-th eigenvalue of the constant problem
    a = rho = 1 on (0, L); NonconvergenceError where it overflows."""
    pv = _as_p(p)
    try:
        mu = (pi_p(p) * k / length) ** pv
    except OverflowError:
        mu = math.inf
    if mu == math.inf:
        raise NonconvergenceError(f"mu_{k} = (pi_p k / L)^p overflows the floats "
                                  f"at p = {pv!r}, k = {k!r}, L = {length!r}")
    return mu


def asin_p(p, s: float) -> float:
    """Return the generalized arcsine of s in [-1, 1].

    The result lies in [-pi_p/2, pi_p/2] and is odd in s.
    """
    k = _kernel_for(p)
    s = float(s)
    if not -1.0 <= s <= 1.0:
        raise ValueError(f"asin_p argument must lie in [-1, 1], got {s!r}")
    if s == 0.0:
        return 0.0
    a = abs(s)
    return math.copysign(_asin_core(k, a, 1.0 - a)[0], s)


def sin_p(p, x: float) -> float:
    """Return sin_p(x) for any real x (2*pi_p periodic, odd)."""
    k = _kernel_for(p)
    z, sgn, _ = _reduce(k, float(x))
    return sgn * _sin_core(k, z)[0]


def dsin_p(p, x: float) -> float:
    """Return the derivative of sin_p at x.

    Evaluated through the first integral: the magnitude is
    ((1 - |sin_p(x)|^p)/(p-1))^(1/p), the sign alternates with the
    quarter period.  At x = 0 this equals (p-1)^(-1/p).
    """
    k = _kernel_for(p)
    z, _, dsgn = _reduce(k, float(x))
    _, comp = _sin_core(k, z)
    return dsgn * (_one_minus_pow(comp, k.p) / (k.p - 1.0)) ** (1.0 / k.p)
