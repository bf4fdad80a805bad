"""The scalar control equation certifying error tubes around approximate flows.

Given a decaying-exponential bound ``U exp(-B t)`` on the linear
propagator, a differential error ``eps``, the multiplication constant
``P`` and the growth ``ell(R) = (norm + R)^p - norm^p`` of the power
nonlinearity at distance R from a state of size ``norm``, the tube
radius obeys

    dR/dt = U (eps + P ell(R)) - B R

and dominates the distance between the approximate and the exact
trajectory for as long as R exists. :func:`tube_rate` is this
right-hand side, written once: the sigma = (1 + R)^(1-p) row of the
coupled system of :mod:`evocontrol.heat`, (1-p) (1 + R)^(-p) times it,
and the pure-power IVP :func:`pure_power_ivp` both evaluate it. For
the pure power (norm = 0, eps = 0, R(0) = U norm_f0) both the lifespan
guarantee and the tube radius have closed forms, :func:`tn_closed` and
:func:`r_closed`.

Infinite lifespans are represented by ``math.inf`` and only ever
compared, never fed into arithmetic.
"""

from __future__ import annotations

import math

import numpy as np

from . import ode
from .errors import OutOfDomainError


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


def tube_rate(R, eps, norm, p: int, U: float, B: float, P: float):
    """Right-hand side U (eps + P ell(R)) - B R of the control equation,
    with ell(R) = :func:`power_growth` (norm, R, p).

    R, eps and norm are floats or numpy arrays that broadcast together;
    only + and * act on them, so every entry of an array result has the
    bits of the scalar call. p is not checked here: every caller has
    validated it, and this sits in the integrators' hot path.
    """
    return U * (eps + P * power_growth(norm, R, p)) - B * R


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


def pure_power_ivp(U: float, B: float, P: float, p: int, norm_f0: float,
                   horizon: float) -> ode.IvpSpec:
    """The pure-power control problem R' = U P R^p - B R, R(0) = U
    norm_f0, on [0, horizon] as a one-dimensional IVP with the
    integrator's default tolerances and escape threshold; its solution
    is :func:`r_closed`. The right-hand side takes one state of shape
    (1,) or states as the columns of a (1, S) array."""
    _check_pure_power_args(U, B, P, p, norm_f0)

    def rhs(t, y: np.ndarray) -> np.ndarray:
        return tube_rate(y, 0.0, 0.0, p, U, B, P)

    return ode.IvpSpec(rhs=rhs, y0=np.array([U * norm_f0]), t0=0.0,
                       horizon=horizon)
