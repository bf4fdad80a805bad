"""Adaptive Runge-Kutta integration with blow-up detection.

The engine integrates initial value problems with the embedded
Dormand-Prince 8(5,3) pair of DOP853 (Hairer, Norsett & Wanner, Solving
ODEs I, II.5-II.6): an 8th-order advancing solution, Hairer's combined
5th/3rd-order error estimate, Gustafsson's predictive step-size control
(Hairer & Wanner, Solving ODEs II, IV.8) and a 7th-order dense output.
Every run is classified into one of four outcomes:

* ``reached_horizon`` : the trajectory exists on the whole time window;
* ``blow_up``         : the max-norm of the state escaped past a threshold
  (the escaping step is at most 5e-7 long, so the escape time is
  bracketed to 1e-6), or the controller was forced below the minimum
  step while the state was growing;
* ``domain_exit``     : the right-hand side stopped returning finite
  values while the state was still moderate;
* ``stopped``         : the spec's ``stop`` predicate held at an accepted
  step, typically because a certificate already decides the run. Every
  other decision of the engine ignores the predicate, so the history of
  a stopped run is a bit-identical prefix of the run without it.

Each outcome carries an :class:`IvpStats` record: step and RHS-call
counters, the step-size range and the termination reason, which tells
a threshold escape from a min-step collapse. Every outcome keeps its
grid and max |y| and min y per step; the accepted states and
derivatives only when the spec asks for ``dense_output``.

A right-hand side takes the layout of scipy's ``solve_ivp(vectorized=True)``:
it maps a state of shape (n,) at a float time to shape (n,) while
stepping, and states as the columns of an (n, S) array, with times of
shape (S,), to (n, S) in the dense output, which evaluates each stage of
all queried steps in one call.

The stepping core is allocation-light: one stage buffer per run and the
tableau held as float constants. An attempt makes one BLAS call per
stage combination and one per finiteness test (the dot of a row of
zeros with the stage, finite exactly when every entry is), and takes
|y| of the advanced state once, for the error scale, the escape test
and the next attempt. It is bit-reproducible: plain deterministic
floating point in a fixed order, so identical inputs produce
bit-identical accepted-step grids, which downstream code relies on for
reproducible CSV output.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import HistoryError, OutOfDomainError, StepBudgetError

# rhs(t, y): (n,) states at float times, or (n, S) columns at (S,) times
Rhs = Callable[[float | np.ndarray, np.ndarray], np.ndarray]

REACHED_HORIZON = "reached_horizon"
BLOW_UP = "blow_up"
DOMAIN_EXIT = "domain_exit"
STOPPED = "stopped"  # both the kind and the termination of a stopped run

# why a run stopped (IvpStats.termination); finer than the outcome kind
HORIZON = "horizon"
THRESHOLD_ESCAPE = "threshold_escape"
MIN_STEP_COLLAPSE = "min_step_collapse"
NONFINITE = "nonfinite"

# Dormand-Prince 8(5,3) tableau, the coefficients of DOP853 (Hairer,
# Norsett & Wanner, Solving ODEs I, II.5-II.6). Stage i sits at node
# _C[i] and combines stages 0..i-1 with the weights _A[i]. Row 12 holds the
# 8th-order weights and stage 12, at node 1, is the derivative at the
# advanced state (FSAL: the first stage of the next step). Stages 13-15
# serve the dense output alone. _E5 and _E3 weigh stages 0-11 into the
# 5th- and 3rd-order error estimates; _D gives the 4 upper coefficients
# of the 7th-order dense output polynomial from stages 0-15.
_C = (
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
    0.7777777777777778,
)
_A = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (
        0.037037037037037035, 0.0, 0.0, 0.17082860872947386,
        0.12546768756682242,
    ),
    (
        0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
        -0.017578125,
    ),
    (
        0.03709200011850479, 0.0, 0.0, 0.17038392571223998,
        0.10726203044637328, -0.015319437748624402, 0.008273789163814023,
    ),
    (
        0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
        27.59209969944671, 20.154067550477894, -43.48988418106996,
    ),
    (
        0.47766253643826434, 0.0, 0.0, -2.4881146199716677,
        -0.590290826836843, 21.230051448181193, 15.279233632882423,
        -33.28821096898486, -0.020331201708508627,
    ),
    (
        -0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
        -8.149787010746927, -18.52006565999696, 22.739487099350505,
        2.4936055526796523, -3.0467644718982196,
    ),
    (
        2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
        -17.9589318631188, 27.94888452941996, -2.8589982771350235,
        -8.87285693353063, 12.360567175794303, 0.6433927460157636,
    ),
    (
        0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
        1.8915178993145003, -5.801203960010585, 0.3111643669578199,
        -0.1521609496625161, 0.20136540080403034, 0.04471061572777259,
    ),
    (
        0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
        -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
        0.00820105229563469, 0.007567897660545699, -0.008298,
    ),
    (
        0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776,
        0.053541988307438566, -0.05492374857139099, 0.0, 0.0,
        -0.00010834732869724932, 0.0003825710908356584,
        -0.00034046500868740456, 0.1413124436746325,
    ),
    (
        -0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164,
        7.683421196062599, 4.06898981839711, 0.3567271874552811, 0.0, 0.0,
        0.0, -0.0013990241651590145, 2.9475147891527724, -9.15095847217987,
    ),
)
_E5 = np.array([
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
    -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
    0.3341791187130175, 0.08192320648511571, -0.022355307863886294,
])
_E3 = np.array([
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, -0.4226823213237919,
    -0.1521609496625161, 0.20136540080403034, 0.02265179219836082,
])
_D = np.array([
    [
        -8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777,
        -3.0689499459498917, 2.38466765651207, 2.117034582445028,
        -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
        -0.08899033645133331, 18.148505520854727, -9.194632392478356,
        -4.436036387594894,
    ],
    [
        10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817,
        165.20045171727028, -374.5467547226902, -22.113666853125306,
        7.733432668472264, -30.674084731089398, -9.332130526430229,
        15.697238121770845, -31.139403219565178, -9.35292435884448,
        35.81684148639408,
    ],
    [
        19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518,
        -189.17813819516758, 527.8081592054236, -11.57390253995963,
        6.8812326946963, -1.0006050966910838, 0.7777137798053443,
        -2.778205752353508, -60.19669523126412, 84.32040550667716,
        11.99229113618279,
    ],
    [
        -25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643,
        -231.5293791760455, 357.6391179106141, 93.40532418362432,
        -37.45832313645163, 104.0996495089623, 29.8402934266605,
        -43.53345659001114, 96.32455395918828, -39.17726167561544,
        -149.72683625798564,
    ],
])
# the stage rows as arrays and the 8th-order weights
_ROWS = tuple(np.array(row) for row in _A)
_B = _ROWS[12]
# the stages the dense output recomputes, each with the nonzero
# (stage, weight) terms of its row, and the nonzero terms of the _D rows
_DENSE_STAGES = tuple(
    (i, tuple((j, w) for j, w in enumerate(_A[i]) if w != 0.0))
    for i in (*range(1, 12), 13, 14, 15)
)
_D_TERMS = tuple(tuple((j, w) for j, w in enumerate(row.tolist()) if w != 0.0)
                 for row in _D)

_sum = np.add.reduce

_SAFETY = 0.9
_FACTOR_MIN = 0.2
_FACTOR_MAX = 5.0
_ORDER_EXP = 0.125  # 1 / (order of the advancing solution)
_MAX_STEPS = 20_000_000
_BRACKET_WIDTH = 5e-7  # longest escaping step, kept below the 1e-6 contract
_DENSE_BYTES = 1 << 17  # size of the stage buffer of a dense-output chunk


@dataclass
class IvpSpec:
    """Initial value problem plus the knobs the integrator honours.

    ``y0`` is a nonempty 1-d state; its size is the ``dimension``.
    ``rhs(t, y)`` maps a state of shape (n,) at the float time t to its
    derivative of shape (n,); the dense output also calls it on states
    as the columns of an (n, S) array, with t of shape (S,), and takes
    column j of the (n, S) result as the derivative of column j.
    ``min_step`` is 1e-12 times the window length, derived from ``t0``
    and ``horizon`` so that a copy with another window gets its own; an
    accepted step below it is treated as a finite-time singularity.
    ``stop(t, y)``, when given, is asked after each accepted step that
    did not escape, with the step's end time and state; when it returns
    true, the run ends there as ``stopped``. ``dense_output`` keeps every
    accepted state and derivative, which :meth:`IvpOutcome.interpolate`
    needs; without it the run keeps its grid, its per-step series and
    its last state and derivative, O(n + steps) memory instead of
    O(n * steps).
    """

    rhs: Rhs
    y0: np.ndarray
    t0: float
    horizon: float
    rtol: float = 1e-10
    atol: float = 1e-12
    blowup_threshold: float = 1e8
    stop: Callable[[float, np.ndarray], bool] | None = None
    dense_output: bool = True

    def __post_init__(self):
        self.y0 = np.asarray(self.y0, dtype=float)
        if self.y0.ndim != 1 or self.y0.size == 0:
            raise ValueError(f"y0 must be a nonempty 1-d state, got shape "
                             f"{self.y0.shape}")
        if not (math.isfinite(self.t0) and math.isfinite(self.horizon)):
            raise ValueError("t0 and horizon must be finite")
        if not self.min_step > 0.0:
            raise ValueError("horizon must exceed t0")
        if not (0.0 < self.rtol < 1.0 and 0.0 < self.atol < 1.0):
            raise ValueError("rtol and atol must lie in (0, 1)")
        if not np.all(np.isfinite(self.y0)):
            raise ValueError("y0 must be finite")
        if not self.blowup_threshold > float(np.max(np.abs(self.y0))):
            raise ValueError("blowup_threshold must exceed the initial max-norm")

    @property
    def min_step(self) -> float:
        return 1e-12 * (self.horizon - self.t0)

    @property
    def dimension(self) -> int:
        return self.y0.size


@dataclass(frozen=True)
class IvpStats:
    """Counters of one :func:`integrate` run.

    ``accepted`` is the number of intervals of the stored grid, the
    escaping step of a threshold escape included. ``rejected`` counts
    attempts whose error norm exceeded 1, ``nonfinite_retries`` attempts
    dropped for a non-finite stage or error norm; an attempt that crossed
    the threshold on a step too long to bracket the escape is retried on
    a shorter step and counted in neither. ``rhs_calls`` includes the
    initial evaluation and the first-step guess. ``h_min``/``h_max`` are
    the extreme spacings of the grid (nan when no step was accepted).
    ``termination`` is one of ``horizon``, ``threshold_escape``,
    ``min_step_collapse`` (both kind ``blow_up``), ``nonfinite`` (kind
    ``domain_exit``) and ``stopped`` (kind ``stopped``).
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

    ``times`` is the grid of accepted steps; ``max_norms`` and ``minima``
    hold max |y| and min y at each grid time. ``states`` and ``derivs``
    are the state and derivative rows, one per grid time with
    ``dense_output`` and the last of each without. A threshold escape
    ends on its escaping step, so the last state is the only one past
    the threshold. The outcome doubles as a dense-output object via
    :meth:`interpolate`; ``stats`` holds the run's counters. Outcomes
    compare by identity: their fields hold arrays.
    """

    kind: str
    t_end: float
    times: np.ndarray
    max_norms: np.ndarray = field(repr=False)
    minima: np.ndarray = field(repr=False)
    states: list = field(repr=False)
    derivs: list = field(repr=False)
    spec: IvpSpec = field(repr=False)
    stats: IvpStats

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def interpolate(self, t) -> np.ndarray:
        """The 7th-order DOP853 dense output on the accepted-step grid.

        Accepts a scalar or 1-d array of times inside
        ``[times[0], times[-1]]``; returns states with one row per query.
        Each queried step is recomputed from its stored start (t, y, f)
        and length, with the 3 extra stages of the dense output, so the
        outcome stores nothing beyond its step history. The queried
        steps are recomputed together, as the columns of one RHS call
        per stage (the column contract of :class:`IvpSpec`), in chunks
        whose stage buffer stays within ``_DENSE_BYTES``. An outcome
        without an accepted step returns its one sample. Raises
        :class:`HistoryError` when the spec did not ask for
        ``dense_output``.
        """
        if not self.spec.dense_output:
            raise HistoryError("the run kept no step history to interpolate "
                               "(dense_output=False)")
        tq = np.atleast_1d(np.asarray(t, dtype=float))
        times = self.times
        lo, hi = times[0], times[-1]
        slack = 1e-12 * max(1.0, abs(hi))
        if np.any(tq < lo - slack) or np.any(tq > hi + slack):
            raise OutOfDomainError(
                f"interpolation time outside [{lo}, {hi}]"
            )
        if len(times) == 1:
            out = np.tile(self.states[0], (tq.size, 1))
        else:
            tq = np.clip(tq, lo, hi)
            step = np.searchsorted(times, tq, side="right") - 1
            step = np.minimum(step, len(times) - 2)
            steps, column = np.unique(step, return_inverse=True)
            n = self.spec.dimension
            out = np.empty((tq.size, n))
            width = max(1, _DENSE_BYTES // (16 * 8 * n))
            for s in range(0, steps.size, width):
                at = np.flatnonzero((column >= s) & (column < s + width))
                out[at] = _dense_output(
                    self.spec.rhs, times, self.states, self.derivs,
                    steps[s : s + width], tq[at], column[at] - s,
                )
        if np.isscalar(t) or np.asarray(t).ndim == 0:
            return out[0]
        return out


def _error_norm(stages, h: float, abs_old: np.ndarray, abs_new: np.ndarray,
                rtol: float, atol: float) -> float:
    """Hairer's DOP853 error norm: the RMS of the scaled 5th-order
    estimate, damped by the 3rd-order one where that one is large,
    |h| e5^2 / sqrt(n (e5^2 + 0.01 e3^2)) with e5, e3 the Euclidean
    norms; ``abs_old`` and ``abs_new`` are |y| before and after the step.
    An overflow gives a nan or inf norm, which rejects the step."""
    kt = stages[1][11]
    scale = atol + rtol * np.maximum(abs_old, abs_new)
    e5 = kt.dot(_E5) / scale
    e3 = kt.dot(_E3) / scale
    e5_sq = float(_sum(e5 * e5))
    if e5_sq == 0.0:
        return 0.0
    e3_sq = float(_sum(e3 * e3))
    return h * e5_sq / math.sqrt((e5_sq + 0.01 * e3_sq) * e5.size)


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
    """12 x n stage rows ``k``, the transposed prefixes ``k[:i].T``,
    i = 1..12, that the stage combinations of a step multiply, and a row
    of n zeros for the finiteness tests."""
    k = np.empty((12, n))
    return k, tuple(k[:i].T for i in range(1, 13)), np.zeros(n)


def _rk_step(rhs: Rhs, t: float, y: np.ndarray, f: np.ndarray, h: float,
             stages):
    """One DOP853 step using a buffer from :func:`_stage_buffer`.

    Returns ``(calls, y8, f_new)``, where ``calls`` counts the RHS
    evaluations made; stages 0-11 stay in the buffer for the error norm.
    ``y8`` is None when a stage or the advanced state is non-finite; the
    attempt stops at the first such stage. A vector v is finite exactly
    when 0 . v is: 0 x is +-0 for every finite x and nan for +-inf and
    nan, so the one dot product tests every entry and cannot overflow.
    """
    k, kt, zero = stages
    k[0] = f
    for i in range(1, 12):
        ki = rhs(t + _C[i] * h, y + h * kt[i - 1].dot(_ROWS[i]))
        if not math.isfinite(zero.dot(ki)):
            return i, None, None
        k[i] = ki
    y8 = y + h * kt[11].dot(_B)
    if not math.isfinite(zero.dot(y8)):
        return 11, None, None
    f_new = rhs(t + h, y8)
    if not math.isfinite(zero.dot(f_new)):
        return 12, None, None
    return 12, y8, f_new


def _columns(rows, index: np.ndarray) -> np.ndarray:
    """The stored rows at ``index`` as the columns of an (n, S) array."""
    return np.stack([rows[i] for i in index.tolist()], axis=1)


def _combine(terms, k: np.ndarray) -> np.ndarray:
    """sum_j w_j k[j] over the (j, w_j) ``terms``, added term by term in
    their order, so every column gets the same bits whatever the number
    of columns."""
    (j, w), *rest = terms
    acc = w * k[j]
    for j, w in rest:
        acc += w * k[j]
    return acc


def _dense_output(rhs: Rhs, times: np.ndarray, states, derivs,
                  chunk: np.ndarray, tq: np.ndarray,
                  step: np.ndarray) -> np.ndarray:
    """The 7th-order dense output of the S stored steps ``chunk``, from
    (t0, y0, f0) = (times, states, derivs)[i] to (t1, y1, f1) at i + 1
    for i in ``chunk``, at the times ``tq``, query q on step
    ``chunk[step[q]]``.

    The steps are the S columns of (n, S) arrays. Stages 1-11 are
    recomputed, stage 12 is the stored derivative f1, and stages 13-15
    are the extra ones; each stage is one RHS call on all S columns. The
    polynomial in x = (t - t0)/h is
    y0 + x (F0 + (1-x) (F1 + x (F2 + (1-x) (F3 + ...)))), which meets
    y0 and y1 at the ends. Returns one row per query."""
    t0 = times[chunk]
    h = times[chunk + 1] - t0
    y0, y1 = _columns(states, chunk), _columns(states, chunk + 1)
    f0, f1 = _columns(derivs, chunk), _columns(derivs, chunk + 1)
    k = np.empty((16,) + y0.shape)
    k[0] = f0
    k[12] = f1
    for i, terms in _DENSE_STAGES:
        k[i] = rhs(t0 + _C[i] * h, y0 + h * _combine(terms, k))
    dy = y1 - y0
    coeffs = (dy, h * f0 - dy, 2.0 * dy - h * (f0 + f1),
              *(h * _combine(terms, k) for terms in _D_TERMS))
    x = (tq - t0[step]) / h[step]
    out = np.zeros((y0.shape[0], tq.size))
    for j, c in enumerate(reversed(coeffs)):
        out += c[:, step]
        out *= x if j % 2 == 0 else 1.0 - x
    return (out + y0[:, step]).T


def integrate(spec: IvpSpec) -> IvpOutcome:
    """Integrate an initial value problem and classify the outcome.

    Accepted steps are appended to the grid, the per-step series and,
    with ``dense_output``, the state and derivative lists as they
    happen; the run ends at the horizon, at a blow-up, at a domain exit,
    or at the first accepted step, not escaping, whose end satisfies
    ``spec.stop``.
    The threshold and ``stop`` are tested only at the ends of accepted
    steps, so a max-norm that crosses the threshold and falls back within
    one step is not seen. An accepted step that carries the max-norm past
    ``blowup_threshold`` ends the run as a threshold escape when it is at
    most ``_BRACKET_WIDTH`` long, or when half of it would fall below
    ``min_step``. A longer one is retried on the step to the chord
    estimate of the crossing, at most half of it and at least ``min_step``
    and half of ``_BRACKET_WIDTH``; after that, no step reaches past half
    of the rest of the crossing attempt until the escape is stored or the
    run passes the attempt's end without crossing.
    A trial stage may overflow inside the RHS near a blow-up; the attempt
    is retried on a shorter step, so the run silences numpy's overflow
    and invalid-value warnings. Raises :class:`StepBudgetError` after
    ``_MAX_STEPS`` step attempts without any of these.
    """
    rhs = spec.rhs
    t = float(spec.t0)
    y = spec.y0.astype(float)
    f = np.array(rhs(t, y), dtype=float)
    if not np.all(np.isfinite(f)):
        raise ValueError("rhs is not finite at the initial point")

    abs_y = np.abs(y)
    times = [t]
    # raw doubles, so the series hold no Python object per step
    norms = array("d", [abs_y.max()])
    minima = array("d", [y.min()])
    states = [y]
    derivs = [f]
    keep = spec.dense_output

    horizon = spec.horizon
    stop = spec.stop
    threshold = spec.blowup_threshold
    min_step = spec.min_step
    rtol, atol = spec.rtol, spec.atol
    stages = _stage_buffer(y.size)
    nfev = 2
    rejected = retries = 0
    saw_nonfinite = False
    # the last accepted step and its error norm, for Gustafsson's factor
    h_prev = err_prev = 0.0
    # the end of the last attempt that crossed the threshold on a step
    # too long to bracket the escape, and the shortest step toward it
    t_over = math.inf
    h_floor = max(0.5 * _BRACKET_WIDTH, min_step)

    def _finish(kind: str, t_end: float, termination: str) -> IvpOutcome:
        grid = np.asarray(times)
        steps = np.diff(grid)
        return IvpOutcome(
            kind=kind,
            t_end=float(t_end),
            times=grid,
            max_norms=np.array(norms),
            minima=np.array(minima),
            states=states if keep else [y],
            derivs=derivs if keep else [f],
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

    with np.errstate(over="ignore", invalid="ignore"):
        h = _initial_step(rhs, t, y, f, rtol, atol, horizon - spec.t0)
        for _ in range(_MAX_STEPS):
            if t >= horizon:
                return _finish(REACHED_HORIZON, horizon, HORIZON)
            clamped = False
            if t + h >= horizon:
                h = horizon - t
                clamped = True

            if h < min_step:
                if saw_nonfinite and abs_y.max() <= 0.5 * threshold:
                    return _finish(DOMAIN_EXIT, t, NONFINITE)
                return _finish(BLOW_UP, t, MIN_STEP_COLLAPSE)

            calls, y_new, f_new = _rk_step(rhs, t, y, f, h, stages)
            nfev += calls
            if y_new is None:
                saw_nonfinite = True
                retries += 1
                h *= 0.25
                continue
            abs_new = np.abs(y_new)
            err = _error_norm(stages, h, abs_y, abs_new, rtol, atol)
            if not math.isfinite(err):
                retries += 1
                h *= 0.25
                continue

            if err <= 1.0:
                m_new = abs_new.max()
                escaped = m_new > threshold
                if escaped and h > _BRACKET_WIDTH and 0.5 * h >= min_step:
                    # retry on the chord estimate of the crossing, the
                    # max-norm interpolated linearly over the step, kept
                    # within [h_floor, h / 2]
                    t_over = t + h
                    m_old = abs_y.max()
                    theta = (threshold - m_old) / (m_new - m_old)
                    h = max(min(theta, 0.5) * h, h_floor)
                    continue
                # y_new is a fresh array; f_new may be a buffer the RHS
                # reuses, so keep a private copy as the next step's FSAL
                # stage
                t, y, f = horizon if clamped else t + h, y_new, f_new.copy()
                abs_y = abs_new
                times.append(t)
                norms.append(m_new)
                minima.append(y.min())
                if keep:
                    states.append(y)
                    derivs.append(f)
                if escaped:
                    return _finish(BLOW_UP, t, THRESHOLD_ESCAPE)
                if stop is not None and stop(t, y):
                    return _finish(STOPPED, t, STOPPED)
                saw_nonfinite = False
                if err > 0.0:
                    factor = _SAFETY * err ** -_ORDER_EXP
                    if err_prev > 0.0:
                        # Gustafsson: damp the growth when the error rose
                        # over the last two steps
                        factor = min(factor, factor * (h / h_prev)
                                     * (err_prev / err) ** _ORDER_EXP)
                else:
                    factor = _FACTOR_MAX
                h_prev, err_prev = h, err
                h *= min(_FACTOR_MAX, max(_FACTOR_MIN, factor))
                # until the escape, no step reaches past half of the rest
                # of the last crossing attempt; a run that passed its end
                # without crossing drops the cap
                if t >= t_over:
                    t_over = math.inf
                h = min(h, max(0.5 * (t_over - t), h_floor))
            else:
                rejected += 1
                factor = _SAFETY * err ** -_ORDER_EXP
                h *= min(1.0, max(_FACTOR_MIN, factor))
    raise StepBudgetError(_MAX_STEPS)

