"""Transport equation with a power source: the fully solvable example.

For u_t = u_x + u^p on the line (continuous data vanishing at infinity),
the method of characteristics reduces everything to the scalar ODE
w' = w^p along translates, so the maximal solution and its lifespan are
known exactly. Two numbers summarize any datum: the supremum of f0 and
the supremum of |f0| (the norm). The guaranteed lifespan from the norm
bound is compared against the true lifespan, which sees the sign
structure: only large positive values can blow up, and for even powers a
nonpositive datum lives forever.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .control import check_power
from .errors import OutOfDomainError


@dataclass(frozen=True)
class WaveDatum:
    """Sign-aware summary of a datum: sup f0 and sup |f0|.

    ``sup_pos`` is clamped at zero (for lifespan purposes an everywhere
    nonpositive datum behaves exactly like one with supremum zero).
    """

    sup_pos: float
    sup_abs: float
    p: int

    def __post_init__(self):
        if not 0.0 <= self.sup_pos <= self.sup_abs:
            raise ValueError("need 0 <= sup_pos <= sup_abs")
        check_power(self.p)

    @classmethod
    def from_samples(cls, values, p: int) -> "WaveDatum":
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            raise ValueError("need at least one sample")
        return cls(
            sup_pos=max(0.0, float(np.max(values))),
            sup_abs=float(np.max(np.abs(values))),
            p=p,
        )


def wave_tn(datum: WaveDatum) -> float:
    """Norm-only lifespan guarantee 1/((p-1) ||f0||^(p-1)); infinite for
    the zero datum."""
    if datum.sup_abs == 0.0:
        return math.inf
    return 1.0 / ((datum.p - 1) * datum.sup_abs ** (datum.p - 1))


def wave_theta(datum: WaveDatum) -> float:
    """Exact lifespan of the maximal solution.

    Odd power, or supremum attained in absolute value: the norm guarantee
    is sharp. Even power with a smaller positive part: blow-up is delayed
    to 1/((p-1) (sup f0)^(p-1)). Even power with no positive part: global.
    """
    tn = wave_tn(datum)
    if datum.p % 2 == 1 or datum.sup_pos == datum.sup_abs:
        return tn
    if datum.sup_pos > 0.0:
        return 1.0 / ((datum.p - 1) * datum.sup_pos ** (datum.p - 1))
    return math.inf


def wave_growth_bound(datum: WaveDatum, t: float) -> float:
    """Norm bound R(t) = ||f0|| / (1 - (p-1) ||f0||^(p-1) t)^(1/(p-1)),
    valid strictly before the norm lifespan."""
    if t < 0.0:
        raise OutOfDomainError("negative time")
    if not t < wave_tn(datum):
        raise OutOfDomainError(
            f"t={t} is at or past the guaranteed lifespan {wave_tn(datum)}"
        )
    p = datum.p
    denom = 1.0 - (p - 1) * datum.sup_abs ** (p - 1) * t
    return datum.sup_abs / denom ** (1.0 / (p - 1))


def exact_solution_sup(values, p: int, t: float) -> float:
    """Sup-norm of the exact solution at time t, from datum samples.

    The solution at (t, x) is the characteristic flow applied to
    f0(x + t), so the sup over x is the sup of the flow over the sampled
    datum values (translation drops out of the norm).
    """
    check_power(p)
    values = np.asarray(values, dtype=float)
    if t < 0.0:
        raise OutOfDomainError("negative time")
    denom = 1.0 - (p - 1) * values ** (p - 1) * t
    if np.any(denom <= 0.0):
        raise OutOfDomainError(f"some characteristic blew up before t={t}")
    return float(np.max(np.abs(values / denom ** (1.0 / (p - 1)))))
