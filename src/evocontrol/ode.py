"""Adaptive Runge-Kutta integration with blow-up detection.

The engine integrates initial value problems with an embedded
Dormand-Prince 5(4) pair and classifies every run into one of three
outcomes:

* ``reached_horizon`` : the trajectory exists on the whole time window;
* ``blow_up``         : the max-norm of the state escaped past a threshold
  (the escape time is bracketed to 1e-6), or the controller was forced
  below the minimum step while the state was growing;
* ``domain_exit``     : the right-hand side stopped returning finite
  values while the state was still moderate.

Each outcome carries an :class:`IvpStats` record: step and RHS-call
counters, the step-size range and the termination reason, which tells
a threshold escape from a min-step collapse.

The stepping core is allocation-light: one stage buffer per run, the
tableau sliced once, finiteness and norms taken by direct ufunc
reductions. It is bit-reproducible: plain deterministic floating point
in a fixed order, so identical inputs produce bit-identical
accepted-step grids, which downstream code relies on for reproducible
CSV output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import BracketError, OutOfDomainError, StepBudgetError

Rhs = Callable[[float, np.ndarray], np.ndarray]

REACHED_HORIZON = "reached_horizon"
BLOW_UP = "blow_up"
DOMAIN_EXIT = "domain_exit"

# why a run stopped (IvpStats.termination); finer than the outcome kind
HORIZON = "horizon"
THRESHOLD_ESCAPE = "threshold_escape"
MIN_STEP_COLLAPSE = "min_step_collapse"
NONFINITE = "nonfinite"

# Dormand-Prince 5(4) tableau (FSAL: the 7th stage of an accepted step is
# the first stage of the next one).
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = np.array(
    [
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0],
        [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0],
        [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0],
        [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0],
        [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0],
    ]
)
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
# b5 - b4, applied to the stages to get the embedded error estimate
_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)
# the same tableau sliced once: stage nodes as Python floats, the row of
# stage i (its first i entries) and the 5th-order weights of stages 0-5
_NODES = _C.tolist()
_ROWS = tuple(_A[i, :i] for i in range(6))
_B5_ROW = _B5[:6]

_all = np.logical_and.reduce
_isfinite = np.isfinite
_sum = np.add.reduce

_SAFETY = 0.9
_FACTOR_MIN = 0.2
_FACTOR_MAX = 5.0
_ORDER_EXP = 0.2  # 1 / (order of the advancing solution)
_MAX_STEPS = 20_000_000
_BRACKET_WIDTH = 5e-7  # escape-time bracket, kept below the 1e-6 contract
_REDUCE_BYTES = 1 << 17  # size of the block buffer of a history reduction


@dataclass
class IvpSpec:
    """Initial value problem plus the knobs the integrator honours.

    ``min_step`` defaults to 1e-12 times the window length; an accepted
    step below it is treated as a finite-time singularity.
    """

    dimension: int
    rhs: Rhs
    y0: np.ndarray
    t0: float
    horizon: float
    rtol: float = 1e-10
    atol: float = 1e-12
    blowup_threshold: float = 1e8
    min_step: float | None = None

    def __post_init__(self):
        self.y0 = np.asarray(self.y0, dtype=float)
        if self.y0.shape != (self.dimension,):
            raise ValueError(
                f"y0 has shape {self.y0.shape}, expected ({self.dimension},)"
            )
        if not (math.isfinite(self.t0) and math.isfinite(self.horizon)):
            raise ValueError("t0 and horizon must be finite")
        if not self.horizon > self.t0:
            raise ValueError("horizon must exceed t0")
        if not (0.0 < self.rtol < 1.0 and 0.0 < self.atol < 1.0):
            raise ValueError("rtol and atol must lie in (0, 1)")
        if not np.all(np.isfinite(self.y0)):
            raise ValueError("y0 must be finite")
        if not self.blowup_threshold > float(np.max(np.abs(self.y0))):
            raise ValueError("blowup_threshold must exceed the initial max-norm")
        if self.min_step is None:
            self.min_step = 1e-12 * (self.horizon - self.t0)
        if not self.min_step > 0.0:
            raise ValueError("min_step must be positive")


@dataclass(frozen=True)
class IvpStats:
    """Counters of one :func:`integrate` run.

    ``accepted`` is the number of intervals of the stored grid (a
    threshold escape adds its bracketing sub-step). ``rejected`` counts
    attempts whose error norm exceeded 1, ``nonfinite_retries`` attempts
    dropped for a non-finite stage or error norm. ``rhs_calls`` includes
    the initial evaluation, the first-step guess and the escape
    bracketing. ``h_min``/``h_max`` are the extreme spacings of the
    grid (nan when no step was accepted). ``termination`` is one of
    ``horizon``, ``threshold_escape``, ``min_step_collapse`` (both kind
    ``blow_up``) and ``nonfinite`` (kind ``domain_exit``).
    """

    accepted: int
    rejected: int
    rhs_calls: int
    nonfinite_retries: int
    h_min: float
    h_max: float
    termination: str


@dataclass(frozen=True, eq=False)
class IvpOutcome:
    """Result of :func:`integrate`.

    ``times``/``states``/``derivs`` hold every accepted step (plus, for a
    threshold escape, one final bracketing sample beyond the threshold),
    so the outcome doubles as a dense-output object via
    :meth:`interpolate`. ``stats`` holds the run's counters.

    The history is held once: ``rows`` keeps the per-step state and
    derivative rows the run appended, and ``states``/``derivs`` stack
    them on first access, cache the array and release the rows.
    ``final_state``, :meth:`max_norm_history` and :meth:`min_history`
    read the rows as they are, stacked or not. Outcomes compare by
    identity: their fields hold arrays.
    """

    kind: str
    t_end: float
    times: np.ndarray
    rows: dict = field(repr=False)
    spec: IvpSpec = field(repr=False)
    stats: IvpStats

    @cached_property
    def states(self) -> np.ndarray:
        return np.asarray(self.rows.pop("states"))

    @cached_property
    def derivs(self) -> np.ndarray:
        return np.asarray(self.rows.pop("derivs"))

    def _state_rows(self):
        """The stored states: the row list, or the array once stacked."""
        stacked = self.__dict__.get("states")
        return self.rows["states"] if stacked is None else stacked

    @property
    def final_state(self) -> np.ndarray:
        return self._state_rows()[-1]

    def interpolate(self, t) -> np.ndarray:
        """Cubic Hermite interpolation on the accepted-step grid.

        Accepts a scalar or 1-d array of times inside
        ``[times[0], times[-1]]``; returns states with one row per query.
        An outcome without an accepted step returns its one sample.
        """
        tq = np.atleast_1d(np.asarray(t, dtype=float))
        lo, hi = self.times[0], self.times[-1]
        slack = 1e-12 * max(1.0, abs(hi))
        if np.any(tq < lo - slack) or np.any(tq > hi + slack):
            raise OutOfDomainError(
                f"interpolation time outside [{lo}, {hi}]"
            )
        if len(self.times) == 1:
            out = self.states[np.zeros(tq.size, dtype=np.intp)]
        else:
            out = self._hermite(np.clip(tq, lo, hi))
        if np.isscalar(t) or np.asarray(t).ndim == 0:
            return out[0]
        return out

    def _hermite(self, tq: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.times, tq, side="right") - 1
        idx = np.clip(idx, 0, len(self.times) - 2)
        t0 = self.times[idx]
        t1 = self.times[idx + 1]
        h = t1 - t0
        s = (tq - t0) / h
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s**2 * (3 - 2 * s)
        h11 = s**2 * (s - 1)
        y0 = self.states[idx]
        y1 = self.states[idx + 1]
        f0 = self.derivs[idx]
        f1 = self.derivs[idx + 1]
        return (
            h00[:, None] * y0
            + h10[:, None] * (h[:, None] * f0)
            + h01[:, None] * y1
            + h11[:, None] * (h[:, None] * f1)
        )

    def max_norm_history(self) -> np.ndarray:
        """max |y| of every stored state."""
        return _reduce_rows(self._state_rows(), np.max, absolute=True)

    def min_history(self) -> np.ndarray:
        """Smallest entry of every stored state."""
        return _reduce_rows(self._state_rows(), np.min)


def _reduce_rows(rows, reduce, absolute: bool = False) -> np.ndarray:
    """``reduce(|rows| or rows, axis=1)`` without a copy of the history:
    rows are copied block by block into one buffer of about
    ``_REDUCE_BYTES``. Max and min are exact, so the values have the
    bits of the reduction of the stacked array."""
    n, width = len(rows), len(rows[0])
    out = np.empty(n)
    buf = np.empty((min(n, max(1, _REDUCE_BYTES // (8 * width))), width))
    for s in range(0, n, len(buf)):
        block = buf[: min(len(buf), n - s)]
        block[...] = rows[s : s + len(block)]
        if absolute:
            np.abs(block, out=block)
        reduce(block, axis=1, out=out[s : s + len(block)])
    return out


def _error_norm(err: np.ndarray, y_old: np.ndarray, y_new: np.ndarray,
                rtol: float, atol: float) -> float:
    """RMS of the scaled error; ``add.reduce / size`` has the bits of
    ``np.mean``."""
    scale = atol + rtol * np.maximum(np.abs(y_old), np.abs(y_new))
    # near a blow-up the ratio can overflow; an inf norm simply means
    # "reject the step", so silence the hardware flag
    with np.errstate(over="ignore"):
        r = err / scale
        return math.sqrt(_sum(r * r) / r.size)


def _initial_step(rhs: Rhs, t0: float, y0: np.ndarray, f0: np.ndarray,
                  rtol: float, atol: float, span: float) -> float:
    """Classical two-evaluation guess for the first step size."""
    scale = atol + rtol * np.abs(y0)
    d0 = float(np.sqrt(np.mean((y0 / scale) ** 2)))
    d1 = float(np.sqrt(np.mean((f0 / scale) ** 2)))
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span)
    y1 = y0 + h0 * f0
    f1 = rhs(t0 + h0, y1)
    if not np.all(np.isfinite(f1)):
        return max(h0 * 1e-3, 1e-14 * span)
    d2 = float(np.sqrt(np.mean(((f1 - f0) / scale) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** _ORDER_EXP
    return min(100 * h0, h1, span)


def _stage_buffer(n: int):
    """7 x n stage rows ``k`` plus the transposed prefixes ``k[:i].T``,
    i = 1..7, that the stage combinations multiply."""
    k = np.empty((7, n))
    return k, tuple(k[:i].T for i in range(1, 8))


def _rk_step(rhs: Rhs, t: float, y: np.ndarray, f: np.ndarray, h: float,
             stages):
    """One Dormand-Prince step using a buffer from :func:`_stage_buffer`.

    Returns ``(calls, y5, err_vec, f_new)``, where ``calls`` counts the
    RHS evaluations made. ``y5`` is None when a stage or the advanced
    state is non-finite; the attempt stops at the first such stage.
    """
    k, kt = stages
    k[0] = f
    for i in range(1, 6):
        ki = rhs(t + _NODES[i] * h, y + h * (kt[i - 1] @ _ROWS[i]))
        if not _all(_isfinite(ki)):
            return i, None, None, None
        k[i] = ki
    y5 = y + h * (kt[5] @ _B5_ROW)
    if not _all(_isfinite(y5)):
        return 5, None, None, None
    k6 = rhs(t + h, y5)
    if not _all(_isfinite(k6)):
        return 6, None, None, None
    k[6] = k6
    return 6, y5, h * (kt[6] @ _E), k6


def _refine_escape(rhs: Rhs, t: float, y: np.ndarray, f: np.ndarray,
                   h: float, threshold: float, stages):
    """Bracket the threshold crossing inside an accepted step.

    The crossing is known to occur in (t, t+h]. A single fifth-order step
    from (t, y) is accurate over any sub-length of h, so plain bisection
    on the sub-step end time localises the escape. Returns
    (t_escape, y_escape, rhs_calls) with the escape state strictly past
    the threshold and t_escape within _BRACKET_WIDTH of the true crossing.
    """
    lo, hi = 0.0, h
    y_hi = None
    calls = 0
    while hi - lo > _BRACKET_WIDTH:
        mid = 0.5 * (lo + hi)
        n, y5, _, _ = _rk_step(rhs, t, y, f, mid, stages)
        calls += n
        if y5 is None or np.abs(y5).max() > threshold:
            hi = mid
            y_hi = y5
        else:
            lo = mid
    if y_hi is None:
        n, y5, _, _ = _rk_step(rhs, t, y, f, hi, stages)
        calls += n
        y_hi = y5 if y5 is not None else y * np.inf
    return t + hi, y_hi, calls


def integrate(spec: IvpSpec) -> IvpOutcome:
    """Integrate an initial value problem and classify the outcome.

    Accepted steps are appended to the sample arrays as they happen; the
    run ends at the horizon, at a bracketed blow-up, or at a domain exit.
    Raises :class:`StepBudgetError` after ``_MAX_STEPS`` step attempts
    without any of these.
    """
    rhs = spec.rhs
    t = float(spec.t0)
    y = spec.y0.astype(float)
    f = np.array(rhs(t, y), dtype=float)
    if not _all(_isfinite(f)):
        raise ValueError("rhs is not finite at the initial point")

    times = [t]
    states = [y]
    derivs = [f]

    horizon = spec.horizon
    threshold = spec.blowup_threshold
    min_step = spec.min_step
    rtol, atol = spec.rtol, spec.atol
    h = _initial_step(rhs, t, y, f, rtol, atol, horizon - spec.t0)
    stages = _stage_buffer(y.size)
    nfev = 2
    rejected = retries = 0
    saw_nonfinite = False

    def _finish(kind: str, t_end: float, termination: str) -> IvpOutcome:
        grid = np.asarray(times)
        steps = np.diff(grid)
        return IvpOutcome(
            kind=kind,
            t_end=float(t_end),
            times=grid,
            rows={"states": states, "derivs": derivs},
            spec=spec,
            stats=IvpStats(
                accepted=steps.size,
                rejected=rejected,
                rhs_calls=nfev,
                nonfinite_retries=retries,
                h_min=float(steps.min()) if steps.size else math.nan,
                h_max=float(steps.max()) if steps.size else math.nan,
                termination=termination,
            ),
        )

    for _ in range(_MAX_STEPS):
        if t >= horizon:
            return _finish(REACHED_HORIZON, horizon, HORIZON)
        clamped = False
        if t + h >= horizon:
            h = horizon - t
            clamped = True

        if h < min_step:
            if saw_nonfinite and np.abs(y).max() <= 0.5 * threshold:
                return _finish(DOMAIN_EXIT, t, NONFINITE)
            return _finish(BLOW_UP, t, MIN_STEP_COLLAPSE)

        calls, y_new, err_vec, f_new = _rk_step(rhs, t, y, f, h, stages)
        nfev += calls
        if y_new is None:
            saw_nonfinite = True
            retries += 1
            h *= 0.25
            continue
        err = _error_norm(err_vec, y, y_new, rtol, atol)
        if not math.isfinite(err):
            retries += 1
            h *= 0.25
            continue

        if err <= 1.0:
            t_new = horizon if clamped else t + h
            if np.abs(y_new).max() > threshold:
                t_esc, y_esc, calls = _refine_escape(
                    rhs, t, y, f, t_new - t, threshold, stages
                )
                f_esc = np.asarray(rhs(t_esc, y_esc), dtype=float)
                nfev += calls + 1
                if not _all(_isfinite(f_esc)):
                    f_esc = np.zeros_like(y_esc)
                times.append(t_esc)
                states.append(y_esc)
                derivs.append(f_esc)
                return _finish(BLOW_UP, t_esc, THRESHOLD_ESCAPE)
            # y_new is a fresh array; f_new may be a buffer the RHS
            # reuses, so keep a private copy as the next step's FSAL stage
            t, y, f = t_new, y_new, f_new.copy()
            times.append(t)
            states.append(y)
            derivs.append(f)
            saw_nonfinite = False
            factor = _SAFETY * err ** (-_ORDER_EXP) if err > 0.0 else _FACTOR_MAX
            h *= min(_FACTOR_MAX, max(_FACTOR_MIN, factor))
        else:
            rejected += 1
            factor = _SAFETY * err ** (-_ORDER_EXP)
            h *= min(1.0, max(_FACTOR_MIN, factor))
    raise StepBudgetError(_MAX_STEPS)


def norm_nonincreasing_tail(outcome: IvpOutcome, fraction: float = 0.1,
                            rel_slack: float = 1e-8,
                            abs_slack: float | None = None) -> bool:
    """True when the max-norm is non-increasing over the trailing part
    of the window (used as the operational notion of a settled, global
    trajectory).

    ``abs_slack`` (default 100 times the run's atol) absorbs roundoff
    wiggle once a decayed trajectory sits at the integrator's absolute
    noise floor.
    """
    if outcome.kind != REACHED_HORIZON:
        return False
    if abs_slack is None:
        abs_slack = 100.0 * outcome.spec.atol
    t_start = outcome.t_end - fraction * (outcome.t_end - outcome.times[0])
    mask = outcome.times >= t_start
    norms = outcome.max_norm_history()[mask]
    if norms.size < 2:
        return True
    allowed = norms[:-1] * (1.0 + rel_slack) + abs_slack
    return bool(np.all(norms[1:] <= allowed))


def bisect_parameter(
    family: Callable[[float], IvpSpec],
    lo: float,
    hi: float,
    tol: float,
    classify: Callable[[IvpOutcome], bool] | None = None,
) -> float:
    """Locate the parameter value where the run outcome flips.

    ``family`` maps a scalar parameter to an :class:`IvpSpec`;
    ``classify`` maps an outcome to a boolean (default: blow-up). The two
    endpoints must classify differently, otherwise a
    :class:`BracketError` is raised. Returns the bracket midpoint once
    its half-width is below ``tol``.
    """
    if classify is None:
        classify = lambda outcome: outcome.kind == BLOW_UP
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if lo == hi:
        return lo
    flag_lo = classify(integrate(family(lo)))
    flag_hi = classify(integrate(family(hi)))
    if flag_lo == flag_hi:
        raise BracketError(
            f"outcomes agree at both endpoints ({lo} and {hi}); no crossing inside"
        )
    a, b = float(lo), float(hi)
    while abs(b - a) > 2.0 * tol:
        mid = 0.5 * (a + b)
        if classify(integrate(family(mid))) == flag_lo:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)
