"""Exact eigenvalues of piecewise-constant problems at p = 2, for tests.

On a piece where a and rho = 1 are constant the solution is an exact
cos/sin combination, so the phase of the scaled state (u, a u'/omega)
advances by omega * width and is remapped at each interface; carried as
a phase, no contrast or piece count overflows.  The Dirichlet condition
for lam_k is phase(L) = k pi, strictly increasing in lam, solved with
brentq.  Nothing here is shared with plapeig's solvers.
"""

import math

from scipy.optimize import brentq


def transfer_matrix_eigenvalue_p2(widths, a_vals, k, bracket):
    """lam_k of -(a u')' = lam u with u(0) = u(L) = 0, for a bracket
    (lo, hi) that contains it."""
    def phase(lam):
        theta, g_prev = 0.0, None
        for d, a in zip(widths, a_vals):
            omega = math.sqrt(lam / a)
            g = a * omega
            if g_prev is not None:
                m = math.floor(theta / math.pi)
                f = theta - m * math.pi
                theta = m * math.pi + math.atan2(g_prev * math.sin(f), g * math.cos(f))
            theta += omega * d
            g_prev = g
        return theta - k * math.pi
    return brentq(phase, *bracket, xtol=1e-14, rtol=1e-15)
