"""Eigenvalues and eigenfunctions of the 1D weighted p-Laplacian.

The package solves the Dirichlet problem

    -(a(x) |u'|^(p-2) u')' = lam rho(x) |u|^(p-2) u   on (0, L),
    u(0) = u(L) = 0,

for p > 1 with positive piecewise-constant or piecewise-linear data, and
checks the structural facts that make the 1D spectrum computable: the
generalized sine that solves the constant problem in closed form, nodal
counts that index the spectrum, two-sided eigenvalue bounds from freezing
the coefficients, a pointwise convexity identity behind spectral
comparison, and the small-period limit of oscillating coefficients.

Layout:

- ``ptrig``: pi_p, sin_p and friends (the constant-coefficient spectrum).
- ``problem``: coefficients, problem containers, the pointwise identity.
- ``shooting``: initial value integration, zero counting, eigenvalue
  solving by Illinois bracketing on the Pruefer phase theta(L) = k pi_p.
- ``variational``: Rayleigh quotient minimization on a mesh, second
  eigenvalue by nodal equalization, bound and nodal-length checks.
- ``homogenize``: effective coefficients and the small-period sweep.
- ``cli``: a config-driven command line front end.
"""

from .errors import BracketError, ConfigError, NonconvergenceError, SweepError
from .homogenize import (SweepResult, convergence_report, effective_coefficient,
                         effective_weight, epsilon_sweep, homogenized_eigenvalue)
from .problem import (Coefficient, Eigenpair, Problem, phi_p, phi_p_inv,
                      picone_lr, potential)
from .ptrig import Exponent, asin_p, dsin_p, pi_p, sin_p
from .shooting import (Trajectory, count_interior_zeros, integrate_ivp,
                       interior_zero_locations, propagate_piecewise_constant,
                       solve_eigenpair, solve_eigenvalue, weyl_bracket)
from .variational import (Mesh, check_nodal_measure, check_weyl,
                          lambda2_equalize, make_mesh, minimize_lambda1,
                          quotient_and_gradient, rayleigh_quotient)

__version__ = "0.1.0"

__all__ = [
    "BracketError", "ConfigError", "NonconvergenceError", "SweepError",
    "Exponent", "pi_p", "asin_p", "sin_p", "dsin_p",
    "Coefficient", "Problem", "Eigenpair",
    "phi_p", "phi_p_inv", "potential", "picone_lr",
    "Trajectory", "integrate_ivp", "count_interior_zeros",
    "interior_zero_locations", "propagate_piecewise_constant",
    "solve_eigenvalue", "solve_eigenpair", "weyl_bracket",
    "Mesh", "make_mesh", "rayleigh_quotient", "quotient_and_gradient",
    "minimize_lambda1", "lambda2_equalize", "check_weyl", "check_nodal_measure",
    "SweepResult", "effective_coefficient", "effective_weight",
    "homogenized_eigenvalue", "epsilon_sweep", "convergence_report",
    "__version__",
]
