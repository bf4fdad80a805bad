"""Scalar control equations certifying error tubes around approximate flows.

Given a decaying-exponential bound ``u(t) = U exp(-B t)`` on the linear
propagator, a datum error ``delta``, a differential error ``eps(t)`` and
a polynomial growth estimator ``ell(r, t) = sum_j c_j(t) r**j``, the
scalar problem

    dR/dt = U eps(t) + U ell(R, t) - B R,      R(t0) = U delta,

dominates the distance between the approximate and the exact trajectory
for as long as R exists and stays inside the growth radius. For the pure
power nonlinearity (single coefficient ``P`` on ``r**p`` and ``eps = 0``)
both the lifespan guarantee and the tube radius have closed forms, which
this module exposes as :func:`tn_closed` and :func:`r_closed`.

Infinite lifespans are represented by ``math.inf`` and only ever
compared, never fed into arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import ode
from .errors import GrowthDomainError, OutOfDomainError


@dataclass(frozen=True)
class SemigroupEstimator:
    """Exponential bound ``u(t) = U exp(-B t)`` on the linear flow, U >= 1."""

    U: float
    B: float

    def __post_init__(self):
        if not self.U >= 1.0:
            raise ValueError("U must be >= 1")


@dataclass(frozen=True)
class ErrorEstimators:
    """Datum error (a number) and differential error (a function of time)."""

    delta: float
    eps: Callable[[float], float]

    def __post_init__(self):
        if not self.delta >= 0.0:
            raise ValueError("delta must be >= 0")

    @staticmethod
    def constant(delta: float, eps_value: float = 0.0) -> "ErrorEstimators":
        return ErrorEstimators(delta=delta, eps=lambda t: eps_value)


@dataclass(frozen=True)
class PolynomialGrowth:
    """Growth estimator ``ell(r, t) = sum_{j=1..p} c_j(t) r**j``.

    ``coeffs`` maps a time to the sequence (c_1(t), ..., c_p(t)); all
    coefficients must be nonnegative. ``radius`` is the validity radius
    in r (``math.inf`` for globally valid estimators). There is no
    constant term, so ell(0, t) = 0 by construction.
    """

    coeffs: Callable[[float], Sequence[float]]
    radius: float = math.inf

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ValueError("radius must be positive")

    def ell(self, r: float, t: float) -> float:
        if r >= self.radius:
            raise GrowthDomainError(
                f"growth estimator evaluated at r={r} >= radius={self.radius}"
            )
        c = np.asarray(self.coeffs(t), dtype=float)
        if c.size and float(np.min(c)) < 0.0:
            raise ValueError("growth coefficients must be nonnegative")
        # Horner evaluation of c_1 r + ... + c_p r^p
        acc = 0.0
        for cj in c[::-1]:
            acc = (acc + cj) * r
        return acc

    @staticmethod
    def from_constants(constants: Sequence[float],
                       radius: float = math.inf) -> "PolynomialGrowth":
        frozen = tuple(float(c) for c in constants)
        if any(c < 0.0 for c in frozen):
            raise ValueError("growth coefficients must be nonnegative")
        return PolynomialGrowth(coeffs=lambda t: frozen, radius=radius)

    @staticmethod
    def pure_power(P: float, p: int, radius: float = math.inf) -> "PolynomialGrowth":
        check_power(p)
        constants = [0.0] * (p - 1) + [float(P)]
        return PolynomialGrowth.from_constants(constants, radius)


@dataclass(frozen=True)
class ControlProblem:
    semigroup: SemigroupEstimator
    errors: ErrorEstimators
    growth: PolynomialGrowth
    t0: float
    horizon: float

    def __post_init__(self):
        if not self.horizon > self.t0:
            raise ValueError("horizon must exceed t0")

    @property
    def r0(self) -> float:
        return self.semigroup.U * self.errors.delta


def control_rhs(problem: ControlProblem, R: float, t: float) -> float:
    """Right-hand side U eps(t) + U ell(R, t) - B R of the control equation.

    Raises :class:`GrowthDomainError` when R is at or past the growth
    radius (the certificate is void there).
    """
    U = problem.semigroup.U
    eps_t = problem.errors.eps(t)
    if eps_t < 0.0:
        raise ValueError("differential error estimator must be nonnegative")
    return U * eps_t + U * problem.growth.ell(R, t) - problem.semigroup.B * R


def check_power(p) -> None:
    """Reject a power p of the nonlinearity u^p that is not an integer
    >= 2; every entry point that takes p checks it here."""
    if not (isinstance(p, (int, np.integer)) and p >= 2):
        raise ValueError("p must be an integer >= 2")


def power_growth(norm: float, r: float, p: int) -> float:
    """ell(r) = (norm + r)^p - norm^p, the growth of the power
    nonlinearity at distance r from a state of size ``norm``.

    Evaluated as the binomial sum sum_{j=1..p} C(p, j) norm^(p-j) r^j by
    Horner's rule in r: for norm, r >= 0 every term is nonnegative, so
    nothing cancels, and ell(0) is exactly 0.
    """
    acc = r
    norm_pow = 1.0
    for j in range(p - 1, 0, -1):
        norm_pow *= norm
        acc = (acc + math.comb(p, j) * norm_pow) * r
    return acc


def _lifespan_kernel(u: float, B: float) -> float:
    """L_B(u) for 0 <= B < u: the logarithm form, with the B -> 0 limit
    1/u reproduced exactly by log1p."""
    if B == 0.0:
        return 1.0 / u
    return -math.log1p(-B / u) / B


def _growth_kernel(u: float, B: float) -> float:
    """E_B(u) = (exp(B u) - 1)/B, equal to u at B = 0 (expm1 keeps the
    small-B regime at machine accuracy)."""
    if B == 0.0:
        return u
    return math.expm1(B * u) / B


def tn_closed(U: float, B: float, P: float, p: int, norm_f0: float) -> float:
    """Guaranteed lifespan for the pure-power control problem.

    Returns ``math.inf`` when the datum is at or below the critical size
    (P U**p norm_f0**(p-1) <= B), otherwise the finite closed-form value.
    """
    _check_pure_power_args(U, B, P, p, norm_f0)
    u_val = P * U**p * norm_f0 ** (p - 1)
    if u_val <= B:
        return math.inf
    return _lifespan_kernel(u_val, B) / (p - 1)


def r_closed(U: float, B: float, P: float, p: int, norm_f0: float,
             t: float) -> float:
    """Tube radius at time t for the pure-power control problem.

    Valid on [0, tn_closed(...)); raises :class:`OutOfDomainError` at or
    past the lifespan.
    """
    _check_pure_power_args(U, B, P, p, norm_f0)
    if t < 0.0:
        raise OutOfDomainError("tube radius queried at negative time")
    tn = tn_closed(U, B, P, p, norm_f0)
    if t >= tn:
        raise OutOfDomainError(f"tube radius queried at t={t} beyond lifespan {tn}")
    u_val = P * U**p * norm_f0 ** (p - 1)
    denom = 1.0 - (u_val - B) * _growth_kernel((p - 1) * t, B)
    return U * norm_f0 / denom ** (1.0 / (p - 1))


def _check_pure_power_args(U, B, P, p, norm_f0):
    if not U >= 1.0:
        raise ValueError("U must be >= 1")
    if not B >= 0.0:
        raise ValueError("B must be >= 0 for the closed forms")
    if not P >= 0.0:
        raise ValueError("P must be >= 0")
    check_power(p)
    if not norm_f0 >= 0.0:
        raise ValueError("norm_f0 must be >= 0")


def as_ivp(problem: ControlProblem, rtol: float = 1e-10, atol: float = 1e-12,
           blowup_threshold: float = 1e8) -> ode.IvpSpec:
    """Wrap a control problem as a one-dimensional IVP.

    Leaving the growth radius is signalled to the integrator by a
    non-finite right-hand side, so such runs end in a domain exit rather
    than an exception mid-step. The right-hand side takes one state of
    shape (1,) or states as the columns of a (1, S) array with times of
    shape (S,), and evaluates the scalar equation column by column.
    """
    radius = problem.growth.radius

    def rhs(t, y: np.ndarray) -> np.ndarray:
        out = [math.inf if R >= radius else control_rhs(problem, R, s)
               for R, s in np.broadcast(y[0], t)]
        return np.reshape(out, y.shape)

    return ode.IvpSpec(
        rhs=rhs,
        y0=np.array([problem.r0]),
        t0=problem.t0,
        horizon=problem.horizon,
        rtol=rtol,
        atol=atol,
        blowup_threshold=blowup_threshold,
    )
