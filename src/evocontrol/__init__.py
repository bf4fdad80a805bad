"""Certified existence bounds for semilinear evolution equations.

The package turns an approximate trajectory plus three scalar estimators
(datum, differential and integral error) into a certified tube around an
exact solution, via a scalar control inequality. The concrete setting is
the Dirichlet reaction problem on (0, pi) with a power nonlinearity:
spectral reductions give the approximate trajectories, the control
system gives lower bounds on the lifespan (its radius R comes from a
float integration and is not yet an enclosure), a positivity
functional gives upper bounds, and independent reference solvers and
verification routines cross-check everything.
"""

__version__ = "0.1.0"
