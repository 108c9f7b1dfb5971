"""Pins the oracles against values known independently of them.

Run before every benchmark run (a few milliseconds), and on its own with
``python3 perfbench/selftest.py``.  Raises AssertionError on the first
oracle that drifts.
"""

from __future__ import annotations

import math

import oracles as O

BESSEL_LAMBDA1 = 18.279024756401206


def check_all():
    for p in (1.5, 2.0, 3.0, 5.0):
        pc = p / (p - 1.0)
        _near(O.pi_p_closed(p), O.pi_p_closed(pc), 1e-14, f"pi_p conjugate symmetry at {p}")
        _near(O.asin_p_ref(p, 1.0), 0.5 * O.pi_p_closed(p), 1e-14, f"asin_p(1) at {p}")
        for s in (-0.9, -0.3, 0.2, 0.7, 0.999):
            _near(O.sin_p_ref(p, O.asin_p_ref(p, s)), s, 1e-13, f"sin_p(asin_p) at {p}")
    _near(O.pi_p_closed(2.0), math.pi, 1e-15, "pi_2")
    for x in (-7.0, -1.0, 0.5, 2.0, 4.0, 11.0):
        _near(O.sin_p_ref(2.0, x), math.sin(x), 1e-14, f"sin_2({x})")
    _near(O.constant_eigenvalue(2.0, 3, 2.0, 0.5, 1.5), 4.0 * (3.0 * math.pi / 1.5) ** 2,
          1e-14, "constant spectrum")

    roots = O.bessel_eigenvalues(3)
    _near(roots[0], BESSEL_LAMBDA1, 1e-12, "Bessel lambda1")
    assert roots[0] < roots[1] < roots[2], roots

    # The phase form of the transfer matrix against closed forms: one piece,
    # a split constant piece, and the two-piece determinant
    # a1 w1 cos(w1 h1) sin(w2 h2) + a2 w2 sin(w1 h1) cos(w2 h2) = 0.
    _near(O.pc_eigenvalue_p2([(1.0, 1.0, 1.0)], 1), math.pi ** 2, 1e-13, "one piece")
    _near(O.pc_eigenvalue_p2([(0.3, 2.0, 1.0), (0.7, 2.0, 1.0)], 4),
          2.0 * (4.0 * math.pi) ** 2, 1e-13, "split piece")
    for k in (1, 2, 3):
        lam = O.pc_eigenvalue_p2([(0.5, 1.0, 1.0), (0.5, 4.0, 1.0)], k)
        w1, w2 = math.sqrt(lam), math.sqrt(lam / 4.0)
        det = w1 * math.cos(0.5 * w1) * math.sin(0.5 * w2) + 4.0 * w2 * math.sin(0.5 * w1) \
            * math.cos(0.5 * w2)
        assert abs(det) <= 1e-9 * lam, (k, det)

    # a* of the (1, 4) half cell is 1.6 at p = 2 and 16/9 at p = 3.
    _near(O.homogenized_eigenvalue(2.0, 1, [0.5, 0.5], [1.0, 4.0], [1.0, 1.0], 1.0),
          1.6 * math.pi ** 2, 1e-14, "homogenized lambda1")
    _near(O.homogenized_eigenvalue(3.0, 1, [0.5, 0.5], [1.0, 4.0], [1.0, 1.0], 1.0),
          16.0 / 9.0 * O.pi_p_closed(3.0) ** 3, 1e-14, "homogenized lambda1 at p = 3")
    lo, hi = O.sandwich(2.0, 2, 1.0, 4.0, 1.0, 1.0, 1.0)
    _near(lo, 4.0 * math.pi ** 2, 1e-15, "sandwich")
    _near(hi, 16.0 * math.pi ** 2, 1e-15, "sandwich")
    _near(O.nodal_bound(2.0, 2, 1.0, 4.0, 1.0, 1.0, 1.0), 0.25, 1e-15, "nodal bound")
    _near(O.order_estimate([1, 2, 4], [1.0, 0.25, 0.0625]), 2.0, 1e-12, "order estimate")


def _near(got, want, rtol, what):
    assert abs(got - want) <= rtol * abs(want), f"{what}: {got!r} != {want!r}"


if __name__ == "__main__":
    check_all()
    print("oracle self-test passed")
