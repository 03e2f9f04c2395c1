"""Analytic vector fields on the 2-sphere with prescribed limit behavior.

The package builds, from a combinatorial shrub description, a polynomial (or
arc-extended) function on the sphere and the tangent vector field it induces,
then integrates orbits and checks their limit sets numerically.
"""

__version__ = "0.1.0"

# The integrator's default tolerances and first-integral guard. They live
# here, where loading them loads no numpy, because `cli` reads them into the
# `simulate` options when it is imported, and `flow_sim` into its defaults.
RTOL_DEFAULT = 1e-10
ATOL_DEFAULT = 1e-12
GUARD_DEFAULT = 1e-2
