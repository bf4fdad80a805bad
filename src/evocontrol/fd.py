"""Finite-difference reference solver for the Dirichlet reaction problem.

Method of lines on (0, pi): interior points x_i = i*h, h = pi/(N+1), the
second derivative replaced by the standard three-point stencil, and the
same adaptive integrator used everywhere else marching the N-dimensional
system. Nothing here is certified; the numbers are reference estimates
used to sanity-check the lower/upper bounds (a blow-up estimate should
land between t_G, which like R comes from a float integration and is
not yet an enclosure, and the comparison time; the large-amplitude runs
should follow the rescaled profile).

Each estimate is produced twice, on N and 2N interior points, and the
two runs must agree within a stated relative tolerance before a value is
reported; the returned number is the Richardson extrapolation of the
pair under the stencil's second-order error model. A reference run
reads only its grid, the max-norm at each step and the overall minimum,
which the integrator records as it steps, so it keeps no state history;
only the run of :func:`limit_profile_check`, which interpolates, does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import ode
from .control import check_power
from .errors import GridDisagreementError
from .records import SPEC_VERSION, ext_pair, write_csv

_AGREEMENT_RTOL = 0.02


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

    @property
    def spacing(self) -> float:
        return math.pi / (self.N + 1)

    @property
    def grid(self) -> np.ndarray:
        return self.spacing * np.arange(1, self.N + 1)


def semidiscrete_rhs(N: int, p: int):
    """Right-hand side of the N-point method-of-lines system."""
    h = math.pi / (N + 1)
    inv_h2 = 1.0 / (h * h)

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        # (-2 y_i + y_{i-1}) + y_{i+1}: the sums of y_{i-1} - 2 y_i + y_{i+1}
        # in their order, with zero Dirichlet values past both ends
        lap = -2.0 * y
        lap[1:] += y[:-1]
        lap[:-1] += y[1:]
        lap *= inv_h2
        lap += y**p
        return lap

    return rhs


@dataclass(frozen=True)
class FdRun:
    """Outcome of a single grid resolution."""

    config: FdConfig
    kind: str
    estimate: float  # blow-up time, or +inf when the horizon was reached
    times: np.ndarray
    max_norms: np.ndarray
    min_value: float  # most negative sampled value across accepted steps

    @property
    def blew_up(self) -> bool:
        return self.kind == ode.BLOW_UP


def _mol_spec(config: FdConfig) -> ode.IvpSpec:
    """Method-of-lines IVP of a configuration, from A s_1 on the grid."""
    return ode.IvpSpec(
        rhs=semidiscrete_rhs(config.N, config.p),
        y0=config.A * math.sqrt(2.0 / math.pi) * np.sin(config.grid),
        t0=0.0,
        horizon=config.horizon,
        rtol=config.rtol,
        atol=config.atol,
        blowup_threshold=config.blowup_threshold,
    )


def fd_single_run(config: FdConfig) -> FdRun:
    """One method-of-lines run, kept without its step history."""
    outcome = ode.integrate(replace(_mol_spec(config), dense_output=False))
    if outcome.kind == ode.DOMAIN_EXIT:
        raise GridDisagreementError(
            f"semidiscrete run left the domain at t={outcome.t_end} "
            f"(N={config.N}, A={config.A})"
        )
    estimate = outcome.t_end if outcome.kind == ode.BLOW_UP else math.inf
    return FdRun(
        config=config,
        kind=outcome.kind,
        estimate=estimate,
        times=outcome.times,
        max_norms=outcome.max_norms,
        min_value=float(np.min(outcome.minima)),
    )


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
    rescaled by 1/A, and the closed-form limit profile at tau."""
    c = math.sqrt(2.0 / math.pi)
    if not 0.0 <= rescaled_time < 1.0 / c:
        raise ValueError("rescaled time must lie in [0, sqrt(pi/2))")
    config = FdConfig(
        A=A_large, N=N, horizon=rescaled_time / A_large + 1e-12,
        rtol=rtol, atol=atol,
    )
    spec = _mol_spec(config)
    state = spec.y0
    if rescaled_time > 0.0:
        outcome = ode.integrate(spec)
        if outcome.kind != ode.REACHED_HORIZON:
            raise GridDisagreementError(
                f"fd run ended with {outcome.kind} before the comparison time"
            )
        state = outcome.interpolate(rescaled_time / A_large)
    profile = limit_profile(rescaled_time, config.grid)
    return float(np.max(np.abs(state / A_large - profile)))


def write_norms_csv(path, run: FdRun) -> None:
    """CSV of (t, max_norm) for one run; values carry no certification."""
    write_csv(path, ["t", "max_norm"], [run.times, run.max_norms])
