"""Blow-up upper bounds from the ground-mode projection.

For u_t = u_xx + u^p on (0, pi) with Dirichlet conditions, project the
solution onto the ground mode:

    Q(f) = (1/2) int_0^pi sin(x) f(x) dx.

For a nonnegative datum with Q0 = Q(f0) > 1, q(t) = Q(phi(t)) dominates
the solution S of the scalar comparison problem

    dS/dt = S (S^(p-1) - 1),    S(0) = Q0,

which escapes to infinity at

    t_k = -(1/(p-1)) log(1 - Q0^(1-p)),

so the solution itself cannot exist past t_k. The module exposes the
closed form, an independent quadrature evaluation of the underlying
improper integral, the comparison ODE, and the iteration scheme whose
monotone limit is the comparison solution.
"""

from __future__ import annotations

import math

import numpy as np

from . import ode
from . import quadrature as quad
from .control import check_power
from .errors import NotApplicableError, OutOfDomainError

# integrator tolerances of the comparison ODE (its escape threshold is
# the integrator's default) and the window of comparison_blowup_time
_RTOL = 1e-12
_ATOL = 1e-13
_HORIZON = 100.0
_SN_GRID_POINTS = 2049  # uniform grid of sn_iteration


def kaplan_time(q0: float, p: int) -> float:
    """Closed-form blow-up upper bound; only defined for q0 > 1."""
    check_power(p)
    if not q0 > 1.0:
        raise NotApplicableError(
            f"the blow-up criterion needs Q0 > 1, got {q0}"
        )
    return -math.log1p(-(q0 ** (1 - p))) / (p - 1)


def kaplan_time_by_quadrature(q0: float, p: int) -> float:
    """The same bound as the improper integral

        t_k = int_{Q0}^{inf} dr / (r (r^(p-1) - 1)),

    evaluated numerically. The substitution r = Q0/(1-v) compactifies
    the domain to v in [0, 1); the transformed integrand

        (1-v)^(p-2) / (Q0^(p-1) - (1-v)^(p-1))

    is bounded there, with a steep (integrable) layer at v = 0 when Q0
    is close to 1, which the adaptive Gauss-Kronrod rule of
    :func:`quadrature.adaptive_quad` (numpy alone, no scipy) resolves by
    subdivision, to an absolute error of 1e-12 or a relative one of
    1e-10, whichever is larger; otherwise it raises
    :class:`QuadratureError`.
    """
    check_power(p)
    if not q0 > 1.0:
        raise NotApplicableError(
            f"the blow-up criterion needs Q0 > 1, got {q0}"
        )
    qp = q0 ** (p - 1)

    def integrand(v: np.ndarray) -> np.ndarray:
        om = 1.0 - v
        return om ** (p - 2) / (qp - om ** (p - 1))

    value, _ = quad.adaptive_quad(
        integrand, (0.0, 1.0), epsabs=1e-12, epsrel=1e-10, limit=800
    )
    return value


def _comparison_spec(q0: float, p: int, horizon: float) -> ode.IvpSpec:
    """dS/dt = S^p - S from S(0) = q0 as a one-dimensional IVP; the
    right-hand side is elementwise, so it takes (1,) or (1, S) states."""
    def rhs(s, y: np.ndarray) -> np.ndarray:
        return np.array([y[0] ** p - y[0]])

    return ode.IvpSpec(
        rhs=rhs,
        y0=np.array([q0]),
        t0=0.0,
        horizon=horizon,
        rtol=_RTOL,
        atol=_ATOL,
    )


def comparison_solution(q0: float, p: int, t: float) -> float:
    """Comparison ODE solution S(t) by adaptive integration.

    Raises :class:`OutOfDomainError` when t is past the escape time of
    the comparison problem.
    """
    check_power(p)
    if t < 0.0:
        raise OutOfDomainError("comparison solution queried at negative time")
    if t == 0.0:
        return q0
    outcome = ode.integrate(_comparison_spec(q0, p, t))
    if outcome.kind != ode.REACHED_HORIZON:
        raise OutOfDomainError(
            f"comparison solution escapes at t={outcome.t_end} <= {t}"
        )
    return float(outcome.final_state[0])


def comparison_blowup_time(q0: float, p: int) -> float:
    """Escape time of the comparison ODE by direct integration (the
    dual route to :func:`kaplan_time`)."""
    check_power(p)
    if not q0 > 1.0:
        raise NotApplicableError(
            f"the comparison problem escapes only for Q0 > 1, got {q0}"
        )
    outcome = ode.integrate(_comparison_spec(q0, p, _HORIZON))
    if outcome.kind != ode.BLOW_UP:
        raise OutOfDomainError("comparison problem did not escape before the horizon")
    return outcome.t_end


def sn_iteration(q0: float, p: int, n: int, t: float) -> float:
    """n-th element of the monotone iteration converging to the
    comparison solution:

        S_0(t)     = exp(-t) Q0,
        S_{k+1}(t) = exp(-t) Q0 + int_0^t exp(-(t-s)) S_k(s)^p ds,

    evaluated on a uniform grid with fourth-order prefix quadrature.
    """
    check_power(p)
    if n < 0:
        raise ValueError("iteration index must be >= 0")
    if t < 0.0:
        raise OutOfDomainError("iteration queried at negative time")
    if t == 0.0:
        return q0
    grid = np.linspace(0.0, t, _SN_GRID_POINTS)
    h = grid[1] - grid[0]
    decay = np.exp(-grid) * q0
    S = decay
    for _ in range(n):
        S = decay + quad.exp_prefix(S**p, 1.0, h)
    return float(S[-1])
