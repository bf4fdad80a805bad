"""Certified existence windows for u_t = u_xx + u^p with datum A s_1.

The module couples the spectral reduction of :mod:`evocontrol.galerkin`
with the scalar control equation of :mod:`evocontrol.control`: a are
the reduced coordinates and R the error-tube radius, with

    da^k/dt = X^k(a),   dR/dt = tube_rate(R, eps_hat(a), ||phi||, p, U, B, P),

from a(0) = (A, 0, ...), R(0) = 0, where
:func:`evocontrol.control.tube_rate` is the control equation's one
implementation, with the growth ell(R) = (||phi|| + R)^p - ||phi||^p of
the power at the Galerkin state phi, and U, B, P are the module
constants. A finite escape time of R (the reduced existence time, t_g)
is a certified lower bound for the true existence time; for A past the
positivity threshold C_K the spectral projection onto the ground mode
supplies the upper bound t_k (see :mod:`evocontrol.kaplan`). Rescaling
state and time by A removes the amplitude from the problem and yields
the large-A asymptotics of both bounds.

The integrated state is (a, sigma) with sigma = (1 + R)^(1-p), the
classical change of variable that turns a blow-up into a zero crossing
(Stuart & Floater, On the computation of blow-up, Eur. J. Appl. Math.
1, 1990): sigma(0) = 1, and

    dsigma/dt = (1-p) (1 + R)^(-p) tube_rate(R, ...),
    R = tube_radius(sigma, p),

tends to -(p-1) as R escapes, so the run crosses the escape level
(1 + blowup_threshold)^(1-p) on a few long steps instead of chasing R
to the threshold, and t_g is that crossing, located inside the step
that made it. Every reader of R converts sigma with
:func:`tube_radius`. The integrator controls the error of sigma, not of
R. Against the same runs at rtol 1e-13, atol 1e-15, at A = 2: R keeps
2.7e-10 relative accuracy while R < 1, as when R itself was integrated,
and 7.6e-9 for 1 <= R < 1e3, against 6.1e-9; runs that reach their
horizon keep max |R error| at 1.2e-11 of max R. t_g, located on the
dense output, agrees with the tight run's to 2.2e-11 relative at
A = 1.6 to 20.

Amplitude thresholds, all computed rather than hard-coded:

* ``C_N``: ``||A s_1|| = A / C_N``, so the zero-approximation bound
  already gives global existence for A <= C_N;
* ``C_K``: ``Q(A s_1) = A / C_K`` with Q the ground-mode projection, so
  the blow-up criterion applies for A > C_K;
* :func:`critical_amplitude`: the reduced system's own global-existence
  threshold, located by bisection over runs that each end on an escape
  or a settling certificate;
* :func:`rescaled_limit`: the escape time of the amplitude-free limit
  system, i.e. the coefficient in t_g ~ const/A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import galerkin, ode
from .control import check_power, tn_closed, tube_rate
from .errors import BracketError, EvocontrolError
from .kaplan import kaplan_time
from .records import SPEC_VERSION, ext_pair, write_csv
from .records import write_json  # noqa: F401  (re-exported for callers)

C_N = math.sqrt(2.0) / 2.0
C_K = 2.0 * math.sqrt(2.0 / math.pi)

# Constants of the control equation for the sine basis in the H1 metric:
# the heat flow obeys ||e^{t Lap} f|| <= U e^{-B t} ||f|| with U = B = 1,
# because e^{-k^2 t} <= e^{-t} for k >= 1, and P is the multiplication
# constant of the norm, ||f g|| <= P ||f|| ||g||.
U = B = P = 1.0

_UNIFORM_SAMPLES = 512
_REFINE_SAMPLES = 48

# bisection bracket and tolerance of critical_amplitude, and the time
# by which a certificate must decide each of its runs (at the defaults
# the last one does at t = 8.44)
CRITICAL_LO = 0.7
CRITICAL_HI = 1.6
CRITICAL_TOL = 2e-4
CRITICAL_BACKSTOP = 1e4


def _datum_column(modes: tuple[int, ...]) -> int:
    """Position of mode 1, which carries the datum A s_1."""
    if 1 not in modes:
        raise ValueError("mode 1 must belong to the mode set")
    return modes.index(1)


@dataclass(frozen=True)
class HeatScenario:
    """One coupled run: datum A s_1, power p, Galerkin modes, the time
    window and tolerances of the integration. The run escapes once R or
    a coordinate passes ``blowup_threshold``; the tolerances control a
    and sigma = (1 + R)^(1-p), not R itself."""

    A: float
    p: int = 2
    modes: tuple[int, ...] = (1, 3)
    horizon: float = 50.0
    rtol: float = 1e-10
    atol: float = 1e-12
    blowup_threshold: float = 1e8

    def __post_init__(self):
        if not self.A >= 0.0:
            raise ValueError("A must be >= 0")
        check_power(self.p)
        modes = tuple(sorted(int(k) for k in self.modes))
        _datum_column(modes)
        object.__setattr__(self, "modes", modes)
        # what the scenario's IVP (ode.IvpSpec) will require
        if not (self.horizon > 0.0 and math.isfinite(self.horizon)):
            raise ValueError("horizon must be positive and finite")
        if not (0.0 < self.rtol < 1.0 and 0.0 < self.atol < 1.0):
            raise ValueError("rtol and atol must lie in (0, 1)")
        # the engine's max-norm covers the datum and sigma(0) = 1
        if not self.blowup_threshold > max(self.A, 1.0):
            raise ValueError("blowup_threshold must exceed A and 1")


@dataclass(frozen=True)
class TrajectorySamples:
    modes: tuple[int, ...]
    times: np.ndarray
    coords: np.ndarray  # shape (n, len(modes))
    radius: np.ndarray
    norm_phi: np.ndarray
    ratio: np.ndarray

    def coordinate(self, k: int) -> np.ndarray:
        """Mode-k coordinate at every sample time; zeros when mode k is
        not in the mode set."""
        if k not in self.modes:
            return np.zeros_like(self.times)
        return self.coords[:, self.modes.index(k)]


@dataclass(frozen=True)
class ScenarioResult:
    scenario: HeatScenario
    outcome_kind: str
    t_n: float
    t_g: float  # math.inf when the run reached the horizon
    t_k: float | None  # None when the blow-up criterion does not apply
    eta: float | None
    trajectory: TrajectorySamples


def tube_radius(sigma, p: int):
    """The tube radius R = sigma^(1/(1-p)) - 1 of sigma = (1 + R)^(1-p),
    on floats or numpy arrays.

    The power is the odd real root sign(sigma) |sigma|^(1/(1-p)), so it
    is defined past sigma = 0 for every p, where the run's last step may
    reach: there R < -1, and the sigma row, a polynomial in
    1/(1 + R) = sign(sigma) |sigma|^(1/(p-1)), stays finite and
    continuous, tending to -(p-1) U P from both sides. At p = 2 this is
    R = 1/sigma - 1."""
    return sigma * abs(sigma) ** (p / (1.0 - p)) - 1.0


def _escape_level(threshold: float, p: int) -> float:
    """sigma at R = threshold."""
    return (1.0 + threshold) ** (1 - p)


def _coupled_rhs(model: galerkin.GalerkinModel, linear_factor: float):
    """Vectorized right-hand side for the (a, sigma) system: one state
    of shape (m+1,), or states as the columns of an (m+1, S) array (the
    column contract of :class:`evocontrol.ode.IvpSpec`). The sigma row
    is (1-p) (1 + R)^(-p) tube_rate(R, ...) at R = tube_radius(sigma).

    ``linear_factor`` scales the linear (dissipative) terms: 1 for the
    physical system, 0 for the large-amplitude limit of the rescaled
    one.
    """
    basis = model.basis
    m = len(basis.indices)
    p = model.p
    lam = linear_factor * basis.eigenvalues
    metric = basis.metric_diag
    damping = linear_factor * B
    form = model.eps_form
    project = galerkin.project_power
    missed_sq = galerkin.missed_sq
    sqrt = np.sqrt

    def rhs(t, y: np.ndarray) -> np.ndarray:
        a = y[:m]
        R = tube_radius(y[m], p)
        rows = a.T
        c, power = project(form, rows)
        norm = sqrt(metric @ (a * a))
        out = np.empty_like(y)
        out[:m] = (lam * rows + c).T
        out[m] = (1 - p) * (1.0 + R) ** -p * tube_rate(
            R, sqrt(missed_sq(form, power, c)), norm, p, U, damping, P)
        return out

    return rhs


def _coupled_spec(model: galerkin.GalerkinModel, scenario: HeatScenario,
                  linear_factor: float = 1.0,
                  stop: Callable[[float, np.ndarray], bool] | None = None,
                  ) -> ode.IvpSpec:
    """The (a, sigma) IVP of a scenario, from a = A on mode 1 and
    sigma = 1 (R = 0), ended at the first accepted step where ``stop``
    holds (:class:`evocontrol.ode.IvpSpec`); by default, where sigma
    has reached the escape level of ``scenario.blowup_threshold``."""
    m = len(scenario.modes)
    y0 = np.zeros(m + 1)
    y0[_datum_column(scenario.modes)] = scenario.A
    y0[m] = 1.0
    if stop is None:
        level = _escape_level(scenario.blowup_threshold, scenario.p)

        def stop(t: float, y: np.ndarray) -> bool:
            return y[-1] <= level

    return ode.IvpSpec(
        rhs=_coupled_rhs(model, linear_factor),
        y0=y0,
        t0=0.0,
        horizon=scenario.horizon,
        rtol=scenario.rtol,
        atol=scenario.atol,
        blowup_threshold=scenario.blowup_threshold,
        stop=stop,
    )


def assemble_coupled_system(scenario: HeatScenario) -> ode.IvpSpec:
    """IVP for the coupled (a, sigma) system of a scenario, stopped
    where R escapes past ``scenario.blowup_threshold``."""
    model = galerkin.build_model(scenario.modes, scenario.p)
    return _coupled_spec(model, scenario)


def _run_coupled(model: galerkin.GalerkinModel, scenario: HeatScenario,
                 linear_factor: float = 1.0) -> tuple[ode.IvpOutcome, float]:
    """Integrate a scenario's (a, sigma) system. Returns the outcome and
    the end of the solution: t_g, the crossing of the escape level, for
    a run that escaped; for a coordinate's threshold escape, the time
    its max-norm reaches the threshold, located on the escaping step's
    dense output; the end time of a min-step collapse; the horizon
    otherwise."""
    outcome = ode.integrate(_coupled_spec(model, scenario, linear_factor))
    if outcome.kind == ode.DOMAIN_EXIT:
        raise EvocontrolError(
            f"coupled system exited its domain at t={outcome.t_end}"
        )
    if outcome.kind == ode.STOPPED:
        level = _escape_level(scenario.blowup_threshold, scenario.p)
        return outcome, outcome.crossing(level)
    return outcome, outcome.t_end


def _sample_times(t_end: float, escaped: bool) -> np.ndarray:
    """512 uniform sample times on [0, t_end], extended by a geometric
    tail toward the end when the run escaped."""
    base = np.linspace(0.0, t_end, _UNIFORM_SAMPLES)
    if not escaped or t_end <= 0.0:
        return base
    dt = t_end / (_UNIFORM_SAMPLES - 1)
    tail = t_end - dt * np.geomspace(1.0, 1e-6, _REFINE_SAMPLES)
    times = np.unique(np.concatenate([base, tail]))
    return times


def _build_trajectory(outcome: ode.IvpOutcome, t_end: float,
                      model: galerkin.GalerkinModel) -> TrajectorySamples:
    m = len(model.basis.indices)
    times = _sample_times(t_end, outcome.kind != ode.REACHED_HORIZON)
    states = outcome.interpolate(times)
    coords = states[:, :m]
    sigma = states[:, m]
    if outcome.kind == ode.STOPPED:
        # the last sample is the crossing, where sigma is the escape level
        # by construction; the dense output resolves sigma near 0 only to
        # about 1e-17, coarser than the level itself at p >= 3
        sigma[-1] = _escape_level(outcome.spec.blowup_threshold, model.p)
    radius = tube_radius(sigma, model.p)
    norm_phi = model.basis.norm(coords)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(norm_phi > 0.0, radius / norm_phi, 0.0)
    return TrajectorySamples(
        modes=model.basis.indices,
        times=times,
        coords=coords,
        radius=radius,
        norm_phi=norm_phi,
        ratio=ratio,
    )


def run_scenario(scenario: HeatScenario) -> ScenarioResult:
    """Integrate the coupled system and collect the certified times.

    ``t_g`` is the escape time of the reduced system (infinite when the
    run reached the horizon still bounded); ``t_k`` is the closed-form
    blow-up upper bound, present only for A past the threshold C_K.
    """
    model = galerkin.build_model(scenario.modes, scenario.p)
    outcome, t_end = _run_coupled(model, scenario)
    escaped = outcome.kind != ode.REACHED_HORIZON
    t_g = t_end if escaped else math.inf
    t_k = None
    eta = None
    if scenario.A > C_K:
        t_k = kaplan_time(scenario.A / C_K, scenario.p)
        if math.isfinite(t_g):
            if t_g > t_k:
                raise EvocontrolError(
                    f"lower bound t_g={t_g} exceeds upper bound t_k={t_k}"
                )
            eta = (t_k - t_g) / (t_k + t_g)
    return ScenarioResult(
        scenario=scenario,
        outcome_kind=ode.BLOW_UP if escaped else ode.REACHED_HORIZON,
        t_n=tn_closed(U, B, P, scenario.p, scenario.A / C_N),
        t_g=t_g,
        t_k=t_k,
        eta=eta,
        trajectory=_build_trajectory(outcome, t_end, model),
    )


def table_rows(amplitudes: Sequence[float], p: int = 2,
               modes: Sequence[int] = (1, 3), horizon: float = 50.0,
               rtol: float = 1e-10, atol: float = 1e-12,
               blowup_threshold: float = 1e8) -> list[ScenarioResult]:
    """Run one scenario per amplitude."""
    return [
        run_scenario(HeatScenario(
            A=float(A), p=p, modes=modes, horizon=horizon,
            rtol=rtol, atol=atol, blowup_threshold=blowup_threshold,
        ))
        for A in amplitudes
    ]


def critical_amplitude(p: int = 2, modes: Sequence[int] = (1, 3),
                       rtol: float = 1e-10, atol: float = 1e-12) -> float:
    """Amplitude threshold separating settled runs from escaping ones,
    located by bisection over A in [CRITICAL_LO, CRITICAL_HI] to within
    CRITICAL_TOL.

    Each run of the coupled (a, sigma) system stops at the first accepted
    step T where one of two certificates of that system decides it, with
    U = B = P = 1, M = ||phi|| + R and eps = eps_hat(a) >= 0:

    * escape, when R(T) > 1, that is sigma(T) < 2^(1-p).
      ell(R) = (||phi|| + R)^p - ||phi||^p >= R^p and eps >= 0, so
      R' >= tube_rate(R, 0, 0, p, 1, 1, 1) = R^p - R, which is positive
      for R > 1, and R escapes in finite time;
    * settled, when M(T) < 2^(-1/(2(p-1))), which is 1/sqrt(2) at p = 2.
      The modes are eigenfunctions with eigenvalues -k^2 <= -1, so
      d||phi||/dt <= -||phi|| + ||Pi phi^p||, and
      R' = eps + M^p - ||phi||^p - R with eps = ||(I - Pi) phi^p||. Sine
      spans are H1-orthogonal, so ||Pi f|| + ||(I - Pi) f|| <= sqrt(2)||f||,
      and ||phi^p|| <= ||phi||^p <= M^p. Together
      M' <= -M + sqrt(2) M^p, which is negative below that level, so M
      only decreases from there on and the run settles.

    The two regions are disjoint (R > 1 against M < 1), so a run escapes
    exactly when its last state has sigma < 2^(1-p). A run that no
    certificate stops by t = CRITICAL_BACKSTOP raises
    :class:`EvocontrolError`, and a bracket whose ends do not settle and
    escape raises :class:`BracketError`."""
    sigma_at_one = 2.0 ** (1 - p)  # sigma at R = 1

    def escapes(A: float) -> bool:
        scenario = HeatScenario(A=A, p=p, modes=modes,
                                horizon=CRITICAL_BACKSTOP, rtol=rtol,
                                atol=atol)
        model = galerkin.build_model(scenario.modes, p)
        norm = model.basis.norm
        settled = 2.0 ** (-0.5 / (p - 1))

        def certified(t: float, y: np.ndarray) -> bool:
            sigma = y[-1]
            return (sigma < sigma_at_one
                    or norm(y[:-1]) + tube_radius(sigma, p) < settled)

        outcome = ode.integrate(_coupled_spec(model, scenario, stop=certified))
        if outcome.kind != ode.STOPPED:
            raise EvocontrolError(
                f"no certificate decided the run at A={A!r} by "
                f"t={outcome.t_end!r} ({outcome.kind})"
            )
        return outcome.final_state[-1] < sigma_at_one

    lo, hi = CRITICAL_LO, CRITICAL_HI
    if escapes(lo) or not escapes(hi):
        raise BracketError(
            f"the runs at A={lo} and A={hi} do not settle and escape"
        )
    while hi - lo > 2.0 * CRITICAL_TOL:
        mid = 0.5 * (lo + hi)
        if escapes(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class RescaledResult:
    """Escape time of the rescaled limit system and the sampled
    trajectory."""

    escape_time: float
    trajectory: TrajectorySamples


def rescaled_limit(p: int = 2, modes: Sequence[int] = (1, 3)) -> RescaledResult:
    """Escape time of the limit system: the constant in t_g ~ const/A.

    Dividing state and time by A turns the coupled system into one with
    datum (1, 0, ..., 0) and linear terms scaled by 1/A; the limit
    A -> infinity drops them, so it is amplitude-free."""
    scenario = HeatScenario(A=1.0, p=p, modes=modes, horizon=5.0)
    model = galerkin.build_model(scenario.modes, p)
    outcome, t_end = _run_coupled(model, scenario, linear_factor=0.0)
    if outcome.kind == ode.REACHED_HORIZON:
        raise EvocontrolError("the rescaled limit system did not escape")
    return RescaledResult(
        escape_time=t_end,
        trajectory=_build_trajectory(outcome, t_end, model),
    )


def limit_uncertainty(limit_time: float) -> float:
    """Large-amplitude limit of the relative gap between the upper and
    lower existence bounds."""
    return (C_K - limit_time) / (C_K + limit_time)


# ---------------------------------------------------------------------------
# serialization


def write_scenario_csv(result: ScenarioResult, path: str) -> None:
    """Sampled trajectory as CSV.

    Columns: t, alpha (mode-1 coordinate), gamma (mode-3 coordinate, 0
    when that mode is absent), one a<k> column per additional mode,
    norm_phi_ap, R, ratio. 17 significant digits throughout."""
    tr = result.trajectory
    extra = [k for k in tr.modes if k not in (1, 3)]
    header = ["t", "alpha", "gamma"] + [f"a{k}" for k in extra] + [
        "norm_phi_ap", "R", "ratio"
    ]
    columns = [tr.times] + [tr.coordinate(k) for k in (1, 3, *extra)] + [
        tr.norm_phi, tr.radius, tr.ratio
    ]
    write_csv(path, header, columns)


def scenario_record(result: ScenarioResult) -> dict:
    sc = result.scenario
    record = {
        "spec_version": SPEC_VERSION,
        "kind": "scenario",
        "A": sc.A,
        "p": sc.p,
        "modes": list(sc.modes),
        "horizon": sc.horizon,
        "rtol": sc.rtol,
        "atol": sc.atol,
        "blowup_threshold": sc.blowup_threshold,
        "outcome": result.outcome_kind,
    }
    record.update(ext_pair("t_N", result.t_n))
    record.update(ext_pair("t_G", result.t_g))
    record.update(ext_pair("t_K", result.t_k))
    record.update(ext_pair("eta", result.eta))
    return record


def scenario_from_record(record: dict) -> HeatScenario:
    """Rebuild the scenario configuration stored in a JSON record, so a
    record can be re-run to regenerate its CSV output byte-for-byte."""
    return HeatScenario(
        A=float(record["A"]),
        p=int(record["p"]),
        modes=tuple(record["modes"]),
        horizon=float(record["horizon"]),
        rtol=float(record["rtol"]),
        atol=float(record["atol"]),
        blowup_threshold=float(record["blowup_threshold"]),
    )
