"""Certified existence bounds for semilinear evolution equations.

The package turns an approximate trajectory plus three scalar estimators
(datum, differential and integral error) into a certified tube around an
exact solution, via a scalar control inequality. The concrete setting is
the Dirichlet reaction problem on (0, pi) with a power nonlinearity:
spectral reductions give the approximate trajectories, the control
system gives rigorous lower bounds on the lifespan, a positivity
functional gives upper bounds, and independent reference solvers and
verification routines cross-check everything.
"""

from .control import (
    ControlProblem,
    ErrorEstimators,
    PolynomialGrowth,
    SemigroupEstimator,
    control_rhs,
    power_growth,
    r_closed,
    tn_closed,
)
from .errors import (
    BracketError,
    EvocontrolError,
    GridDisagreementError,
    GrowthDomainError,
    HistoryError,
    NotApplicableError,
    OutOfDomainError,
    QuadratureError,
    StepBudgetError,
)
from .fd import FdConfig, fd_blowup_time, limit_profile, limit_profile_check
from .galerkin import (
    GalerkinBasis,
    GalerkinModel,
    build_model,
    epsilon_hat,
    vector_field,
)
from .heat import (
    C_K,
    C_N,
    HeatScenario,
    ScenarioResult,
    basic_bounds,
    critical_amplitude,
    limit_uncertainty,
    rescaled_limit,
    run_scenario,
    table_rows,
)
from .kaplan import (
    comparison_blowup_time,
    comparison_solution,
    kaplan_time,
    kaplan_time_by_quadrature,
    sn_iteration,
)
from .ode import (
    BLOW_UP,
    DOMAIN_EXIT,
    REACHED_HORIZON,
    STOPPED,
    IvpOutcome,
    IvpSpec,
    integrate,
)
from .picard import (
    FiniteVolterraProblem,
    TrajectoryGrid,
    iterate_and_check,
    verify_heat_scenario,
    volterra_apply,
)
from .records import SPEC_VERSION
from .sobolev import (
    algebra_property_test,
    best_ratio,
    convolution_constant,
    ratio_lower_bound,
    sobolev_report,
)
from .wave import (
    WaveDatum,
    exact_solution_sup,
    wave_growth_bound,
    wave_theta,
    wave_tn,
)

__version__ = "0.1.0"

__all__ = [
    "BLOW_UP",
    "BracketError",
    "C_K",
    "C_N",
    "ControlProblem",
    "DOMAIN_EXIT",
    "ErrorEstimators",
    "EvocontrolError",
    "FdConfig",
    "FiniteVolterraProblem",
    "GalerkinBasis",
    "GalerkinModel",
    "GridDisagreementError",
    "GrowthDomainError",
    "HeatScenario",
    "HistoryError",
    "IvpOutcome",
    "IvpSpec",
    "NotApplicableError",
    "OutOfDomainError",
    "PolynomialGrowth",
    "QuadratureError",
    "REACHED_HORIZON",
    "SPEC_VERSION",
    "STOPPED",
    "ScenarioResult",
    "SemigroupEstimator",
    "StepBudgetError",
    "TrajectoryGrid",
    "WaveDatum",
    "algebra_property_test",
    "basic_bounds",
    "best_ratio",
    "build_model",
    "comparison_blowup_time",
    "comparison_solution",
    "control_rhs",
    "convolution_constant",
    "critical_amplitude",
    "epsilon_hat",
    "exact_solution_sup",
    "fd_blowup_time",
    "integrate",
    "iterate_and_check",
    "kaplan_time",
    "kaplan_time_by_quadrature",
    "limit_profile",
    "limit_profile_check",
    "limit_uncertainty",
    "power_growth",
    "r_closed",
    "ratio_lower_bound",
    "rescaled_limit",
    "run_scenario",
    "sn_iteration",
    "sobolev_report",
    "table_rows",
    "tn_closed",
    "vector_field",
    "verify_heat_scenario",
    "volterra_apply",
    "wave_growth_bound",
    "wave_theta",
    "wave_tn",
]
