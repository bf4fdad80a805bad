"""Finite-difference reference solver for the Dirichlet reaction problem.

Method of lines on (0, pi): interior points x_i = i*h, h = pi/(N+1), and
the second derivative replaced by the standard three-point stencil.
Nothing here is certified; the numbers are reference estimates used to
sanity-check the lower/upper bounds (a blow-up estimate should land
between t_G, which like R comes from a float integration and is not yet
an enclosure, and the comparison time; the large-amplitude runs should
follow the rescaled profile).

The engine. The stencil is diagonal in the discrete sines sin(k x_i),
with the exact eigenvalues Lambda_k = -(4/h^2) sin^2(k h/2), and the
datum A s_1 is symmetric about pi/2, a symmetry u^p keeps. So a run
carries the coefficients of the ceil(N/2) odd sine modes and evaluates
u^p on the half grid x_1..x_ceil(N/2): both transforms are products with
one cached, read-only square sine matrix per N (the middle point of an
odd N counts once in the forward sum, every other point twice). The
diffusion is integrated exactly by the integrating factor e^{t Lambda}
and the reaction by Dormand-Prince 5(4) in Lawson form (Lawson, SIAM J.
Numer. Anal. 4, 1967; Hochbruck & Ostermann, Acta Numerica 19, 2010):
stage i carries the factors e^{(c_i - c_j) h Lambda}, all taken by one
``np.exp`` per attempt. DP5's nodes are monotone, so every factor has
c_i >= c_j and stays <= 1; DOP853's are not, and its Lawson form would
multiply stiff modes by factors up to e^{0.083 h |Lambda|}. The step
size is therefore set by accuracy alone, not by the stencil's stability
limit. The error is the RMS over the half grid of the embedded 4th-order
difference, divided by one scale atol + rtol max(|u_n|_inf,
|u_{n+1}|_inf): the max-norm is what the estimate reads, and a
pointwise scale would chase the walls, where u -> 0 but (u^2)'' = 2 u'^2
does not vanish, so the Lawson scheme loses order on a boundary layer
that narrows with h. With the one scale a run takes the same number of
steps on every grid: 159, 160, 159 and 158 at A = 10 on N = 64 to 512,
where explicit DOP853 takes 2,366 at N = 512. The run steps through
``ode``'s stepping loop, as DOP853 does, which owns the step control and
the termination policy; this module supplies the attempt, the commit of
an accepted step and the escape locator. A threshold escape is located
by bisection on the cubic Hermite interpolant of u and
u' = S (Lambda u^ + N^) at the ends of the escaping step; DP5's
continuous extension is not used, because in Lawson form its factors
e^{(theta - c_j) h Lambda} grow wherever c_j > theta. At p = 2 the
estimates agree with explicit DOP853 on the full grid to 2.5e-9 relative
(A = 2 to 100, N = 256 and 512).

Each estimate is produced twice, on N and 2N interior points, and the
two runs must agree within a stated relative tolerance before a value is
reported; the returned number is the Richardson extrapolation of the
pair under the stencil's second-order error model. A run keeps its grid
and the max-norm and minimum of u at each accepted step, not its states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import ode
from .control import check_power
from .errors import GridDisagreementError
from .records import SPEC_VERSION, ext_pair, write_csv

_AGREEMENT_RTOL = 0.02

# Dormand-Prince 5(4) (Dormand & Prince, J. Comput. Appl. Math. 6, 1980).
# Stage i sits at node _NODES[i] / 90 and combines stages 0..i-1 with the
# weights _A[i]. Row 6 holds the 5th-order weights, so stage 6 is the
# derivative at the advanced state (FSAL: stage 0 of the next step). _E
# weighs stages 0-6 into the 5th- minus the 4th-order solution.
_NODES = (0, 18, 27, 72, 80, 90, 90)  # exact integers, so gaps are exact
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525,
      -1 / 40)
_ORDER_EXP = 0.2  # 1 / (order of the advancing solution)

# The Lawson form. A stage buffer holds the rows [c, k_0, ..., k_6]: the
# mode coefficients at the start of the step and the reaction stages.
# Stage i sums the terms e^{c_i h Lambda} c and h a_ij e^{(c_i - c_j) h
# Lambda} k_j over its rows 0..i; the error sums h e_j e^{(1 - c_j) h
# Lambda} k_j over rows 1..7. _TERMS lists them as (i, j, weight), j None
# for c; one np.exp per attempt takes the factors of the distinct gaps
# c_i - c_j >= 0 (_GAPS, in 90ths) as the rows of a table, and each term
# reads its row _TERM_GAPS and scales it by _TERM_LEAD + h _TERM_WEIGHTS.
_TERMS = []
_STAGES = []  # the slice of _TERMS of stage i = 1..6
for _i in range(1, 7):
    _STAGES.append(slice(len(_TERMS), len(_TERMS) + _i + 1))
    _TERMS += [(_i, None, 1.0), *((_i, j, a) for j, a in enumerate(_A[_i]))]
_ERROR_TERMS = slice(len(_TERMS), None)
_TERMS += [(6, j, e) for j, e in enumerate(_E)]
_TERM_GAP_90 = [_NODES[i] - (0 if j is None else _NODES[j])
                for i, j, _ in _TERMS]
_GAPS = sorted(set(_TERM_GAP_90))
_GAP_NODES = np.array(_GAPS) / 90.0
_TERM_GAPS = np.array([_GAPS.index(g) for g in _TERM_GAP_90])
_TERM_LEAD = np.array([[float(j is None)] for _, j, _ in _TERMS])
_TERM_WEIGHTS = np.array([[0.0 if j is None else w] for _, j, w in _TERMS])
del _i


@dataclass(frozen=True)
class FdConfig:
    """One finite-difference run: datum A times the first metric-normalized
    sine mode, power p, N interior grid points."""

    A: float
    p: int = 2
    N: int = 256
    horizon: float = 5.0
    blowup_threshold: float = 1e6
    rtol: float = 1e-8
    atol: float = 1e-10

    def __post_init__(self):
        if self.N < 64:
            raise ValueError("need at least 64 interior points")
        if self.A < 0:
            raise ValueError("amplitude must be nonnegative")
        check_power(self.p)
        if not (self.horizon > 0 and math.isfinite(self.horizon)):
            raise ValueError("horizon must be finite and positive")
        if not (0.0 < self.rtol < 1.0 and 0.0 < self.atol < 1.0):
            raise ValueError("rtol and atol must lie in (0, 1)")
        if not self.blowup_threshold > self.A * math.sqrt(2.0 / math.pi):
            raise ValueError("blowup_threshold must exceed the datum's "
                             "max-norm A sqrt(2/pi)")

    @property
    def spacing(self) -> float:
        return math.pi / (self.N + 1)

    @property
    def grid(self) -> np.ndarray:
        return self.spacing * np.arange(1, self.N + 1)


@lru_cache(maxsize=None)
def _sine_modes(N: int):
    """The odd sine modes on the half grid of N interior points, as
    read-only arrays ``(S, weights, lam)``: with M = ceil(N/2),
    S[i, j] = sin(k_j x_{i+1}) for k_j = 2j + 1, so ``S @ c`` maps mode
    coefficients to the half grid and ``(weights * u) @ S`` maps a
    symmetric grid function back (the discrete sine transform on N
    points, each half-grid point standing for itself and its mirror);
    ``lam`` holds the stencil's eigenvalues -(4/h^2) sin^2(k_j h/2)."""
    M = (N + 1) // 2
    k = np.arange(1, 2 * M, 2)
    # sin(pi i k/(N+1)) takes the 2(N+1) values of a table, indexed by
    # i k mod 2(N+1); built row by row, so no M x M temporary is made
    table = np.sin(math.pi / (N + 1) * np.arange(2 * N + 2))
    S = np.empty((M, M))
    for i in range(1, M + 1):
        table.take(i * k % (2 * N + 2), out=S[i - 1])
    weights = np.full(M, 4.0 / (N + 1))
    if N % 2:
        weights[-1] = 2.0 / (N + 1)
    h = math.pi / (N + 1)
    lam = -4.0 / (h * h) * np.sin(0.5 * h * k) ** 2
    for a in (S, weights, lam):
        a.flags.writeable = False
    return S, weights, lam


@dataclass(frozen=True)
class FdRun:
    """Outcome of a single grid resolution: the accepted-step grid, max |u|
    and the smallest value of u at each grid time, and the counters of
    the run (``rhs_calls`` counts evaluations of the reaction term)."""

    config: FdConfig
    kind: str
    estimate: float  # blow-up time, or +inf when the horizon was reached
    times: np.ndarray
    max_norms: np.ndarray
    min_value: float  # most negative sampled value across accepted steps
    stats: ode.IvpStats

    @property
    def blew_up(self) -> bool:
        return self.kind == ode.BLOW_UP


def _escape_time(S, lam, threshold: float, start, end) -> float:
    """The time at which max |u| reaches ``threshold`` on the step from
    ``start`` to ``end``, each (t, u, coefficients, reaction coefficients),
    bisected by :func:`ode._bisect` on the cubic Hermite interpolant of u
    and u' = S (lam c + f) at the two ends."""
    (t0, u0, c0, f0), (t1, u1, c1, f1) = start, end
    h = t1 - t0
    d0 = h * (S @ (lam * c0 + f0))
    d1 = h * (S @ (lam * c1 + f1))
    du = u1 - u0
    a2 = 3.0 * du - 2.0 * d0 - d1
    a3 = d0 + d1 - 2.0 * du
    return ode._bisect(t0, t1, lambda x: np.abs(
        u0 + x * (d0 + x * (a2 + x * a3))).max() >= threshold)


def _march(config: FdConfig):
    """One Lawson-DP5 run of a configuration to its horizon or escape.

    Returns the :class:`FdRun` and the final state on the half grid. The
    run steps through :func:`ode._drive`, which ends it as it ends a
    DOP853 run: at the horizon, on the accepted step that carries max |u|
    past the threshold (a blow-up at the escape located inside it), or
    when the step falls below 1e-12 times the horizon.
    """
    S, weights, lam = _sine_modes(config.N)
    p, threshold, horizon = config.p, config.blowup_threshold, config.horizon
    rtol, atol = config.rtol, config.atol
    M = lam.size

    def reaction(c):
        u = S @ c
        return u, (weights * u**p) @ S

    rows = np.zeros((8, M))
    rows[0, 0] = config.A * math.sqrt(2.0 / math.pi)
    u, rows[1] = reaction(rows[0])
    norms = [np.abs(u).max()]
    minima = [u.min()]
    c_new = u_new = m_new = None  # the attempted step

    def attempt(t, h):
        nonlocal c_new, u_new, m_new
        factors = np.exp(np.multiply.outer(h * _GAP_NODES, lam))
        terms = factors[_TERM_GAPS]
        terms *= _TERM_LEAD + h * _TERM_WEIGHTS
        for i, used in enumerate(_STAGES, start=1):
            c_new = np.einsum("jm,jm->m", terms[used], rows[:i + 1])
            u_new, rows[i + 1] = reaction(c_new)
        m_new = np.abs(u_new).max()
        diff = S @ np.einsum("jm,jm->m", terms[_ERROR_TERMS], rows[1:])
        # one scale for every point, set by the max-norm the run reports
        scale = atol + rtol * max(norms[-1], m_new)
        # a non-finite stage spreads to every later one and to err, so a
        # non-finite err stands for one
        err = math.sqrt(float(ode._sum(diff * diff)) / M) / scale
        return 6, err if math.isfinite(err) else None, m_new

    def commit(t):
        nonlocal u
        u = u_new
        norms.append(m_new)
        minima.append(u.min())
        rows[0] = c_new
        rows[1] = rows[7]

    def escape(t, t_new):
        return 0, _escape_time(S, lam, threshold, (t, u, *rows[:2]),
                               (t_new, u_new, c_new, rows[7]))

    with np.errstate(over="ignore", invalid="ignore"):
        # the reaction part sets the first step: the factor carries the
        # diffusion exactly
        h = ode._initial_step(lambda t, y: y**p, 0.0, u, u**p, rtol, atol,
                              horizon)
        kind, t_end, grid, stats = ode._drive(
            attempt, commit, escape, None, 0.0, horizon, h, norms[0],
            threshold, _ORDER_EXP)
    run = FdRun(config=config, kind=kind,
                estimate=t_end if kind == ode.BLOW_UP else math.inf,
                times=grid, max_norms=np.array(norms),
                min_value=float(min(minima)), stats=stats)
    return run, u


def fd_single_run(config: FdConfig) -> FdRun:
    """One method-of-lines run of a configuration (:func:`_march`)."""
    run, _ = _march(config)
    if run.kind == ode.DOMAIN_EXIT:
        raise GridDisagreementError(
            f"semidiscrete run left the domain at t={run.times[-1]} "
            f"(N={config.N}, A={config.A})"
        )
    return run


@dataclass(frozen=True)
class FdEstimate:
    """Reference estimate with its two supporting runs.

    ``value`` is the Richardson extrapolation of the coarse/fine pair
    when both blew up, +inf when both reached the horizon.
    """

    value: float
    coarse: FdRun
    fine: FdRun

    @property
    def label(self) -> str:
        return "reference estimate"

    def to_dict(self) -> dict:
        return {
            "spec_version": SPEC_VERSION,
            "kind": "fd_blowup_estimate",
            "label": self.label,
            "A": self.coarse.config.A,
            "p": self.coarse.config.p,
            "N_coarse": self.coarse.config.N,
            "N_fine": self.fine.config.N,
            "horizon": self.coarse.config.horizon,
            "blowup_threshold": self.coarse.config.blowup_threshold,
            **ext_pair("estimate", self.value),
            "coarse_estimate": None
            if math.isinf(self.coarse.estimate)
            else self.coarse.estimate,
            "fine_estimate": None
            if math.isinf(self.fine.estimate)
            else self.fine.estimate,
            "min_value": min(self.coarse.min_value, self.fine.min_value),
        }


def fd_blowup_time(config: FdConfig) -> FdEstimate:
    """Blow-up time estimate with a coarse/fine agreement gate.

    Runs the semidiscrete system on N and 2N interior points. Both must
    blow up or both must reach the horizon, and finite estimates must
    agree within 2% relative, else the pair is rejected. The reported
    value extrapolates the second-order stencil error using the exact
    spacing ratio (the spacings are pi/(N+1) and pi/(2N+1), not a clean
    factor of two).
    """
    coarse = fd_single_run(config)
    fine = fd_single_run(replace(config, N=2 * config.N))
    if coarse.blew_up != fine.blew_up:
        raise GridDisagreementError(
            f"grid refinement changed the outcome: N={config.N} gave "
            f"{coarse.kind}, N={2 * config.N} gave {fine.kind}"
        )
    if not coarse.blew_up:
        return FdEstimate(value=math.inf, coarse=coarse, fine=fine)
    rel = abs(coarse.estimate - fine.estimate) / fine.estimate
    if rel > _AGREEMENT_RTOL:
        raise GridDisagreementError(
            f"blow-up estimates disagree by {rel:.2%} "
            f"({coarse.estimate} vs {fine.estimate})"
        )
    ratio = (2 * config.N + 1) / (config.N + 1)
    r2 = ratio * ratio
    value = (r2 * fine.estimate - coarse.estimate) / (r2 - 1.0)
    return FdEstimate(value=value, coarse=coarse, fine=fine)


def limit_profile(rescaled_time: float, x: np.ndarray) -> np.ndarray:
    """Closed-form large-amplitude profile at rescaled time.

    chi(x) = c sin(x) / (1 - c * rescaled_time * sin(x)), c = sqrt(2/pi);
    finite exactly while rescaled_time < sqrt(pi/2).
    """
    c = math.sqrt(2.0 / math.pi)
    if not rescaled_time < 1.0 / c:
        raise ValueError("profile is finite only before sqrt(pi/2)")
    s = c * np.sin(x)
    return s / (1.0 - rescaled_time * s)


def limit_profile_check(A_large: float, rescaled_time: float,
                        N: int = 256, rtol: float = 1e-8,
                        atol: float = 1e-10) -> float:
    """Max-norm deviation between the fd solution at time t = tau/A,
    rescaled by 1/A, and the closed-form limit profile at tau. The run
    ends exactly at tau/A; u and the profile are symmetric about pi/2,
    so they are compared on the half grid."""
    c = math.sqrt(2.0 / math.pi)
    if not 0.0 <= rescaled_time < 1.0 / c:
        raise ValueError("rescaled time must lie in [0, sqrt(pi/2))")
    config = FdConfig(A=A_large, N=N, rtol=rtol, atol=atol)
    S = _sine_modes(N)[0]
    state = A_large * c * S[:, 0]
    if rescaled_time > 0.0:
        run, state = _march(replace(config, horizon=rescaled_time / A_large))
        if run.kind != ode.REACHED_HORIZON:
            raise GridDisagreementError(
                f"fd run ended with {run.kind} before the comparison time"
            )
    profile = limit_profile(rescaled_time, config.grid[:S.shape[0]])
    return float(np.max(np.abs(state / A_large - profile)))


def write_norms_csv(path, run: FdRun) -> None:
    """CSV of (t, max_norm) for one run; values carry no certification."""
    write_csv(path, ["t", "max_norm"], [run.times, run.max_norms])
