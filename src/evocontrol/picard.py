"""Executable fixed-point verification of the error-tube machinery.

The existence argument behind the control equation constructs the exact
solution as the limit of iterates

    phi_0 = phi_ap,    phi_{k+1} = J(phi_k),

    J(psi)(t) = e^{Lam (t-t0)} f0 + int_{t0}^t e^{Lam (t-s)} P(psi(s)) ds,

and rests on two checkable facts: every iterate stays inside the tube of
radius R around phi_ap (tube invariance), and successive iterates
contract factorially. This module replays the construction on a finite
diagonal truncation (mode set J, eigenvalues -k^2, projected power
nonlinearity) and measures both facts on a uniform grid.

The reduced trajectory is the exact solution of the truncation spanned
by its own mode set, which would make every check vacuous. The
verification mode set therefore strictly contains the scenario's modes:
the extra modes receive the part of the nonlinearity the reduction
drops, so the integral error, the distances and the margins are all
genuinely nonzero while the scenario's estimators (which bound the full,
untruncated residual) remain valid upper bounds on the larger span.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import galerkin, heat, ode
from . import quadrature as quad
from .errors import EvocontrolError
from .records import SPEC_VERSION

# integrator tolerances of the scenario run that verify_heat_scenario checks
_VERIFY_RTOL = 1e-11
_VERIFY_ATOL = 1e-13
# how far below zero a tube margin may fall to rounding and still pass
_MARGIN_TOLERANCE = 1e-8


@dataclass(frozen=True)
class FiniteVolterraProblem:
    """Diagonal truncation of the semilinear problem on a mode set.

    The semigroup acts mode-wise as e^{-k^2 t}; the nonlinearity is the
    projected power from a spectral model on the same mode set. The grid
    and the free evolution are computed once per problem, on first use,
    and shared by every :func:`volterra_apply`.
    """

    indices: tuple[int, ...]
    p: int
    datum: np.ndarray
    t0: float
    t1: float
    grid_n: int = 2048

    def __post_init__(self):
        object.__setattr__(self, "indices", self.model.basis.indices)
        datum = np.asarray(self.datum, dtype=float)
        if datum.shape != (len(self.indices),):
            raise ValueError("datum shape does not match the mode set")
        object.__setattr__(self, "datum", datum)
        if not (math.isfinite(self.t1) and self.t1 > self.t0):
            raise ValueError("need a finite interval with t1 > t0")
        if self.grid_n < 8:
            raise ValueError("grid resolution too small")

    @cached_property
    def model(self) -> galerkin.GalerkinModel:
        return galerkin.build_model(self.indices, self.p)

    @cached_property
    def times(self) -> np.ndarray:
        times = np.linspace(self.t0, self.t1, self.grid_n + 1)
        times.flags.writeable = False  # shared by every iterate's grid
        return times

    @cached_property
    def rates(self) -> np.ndarray:
        """Decay rate k^2 of every mode."""
        return np.asarray(self.indices, dtype=float) ** 2

    @cached_property
    def free_evolution(self) -> np.ndarray:
        """e^{-k^2 (t - t0)} datum at every grid time."""
        decay = np.exp(-self.rates * (self.times - self.t0)[:, None])
        return decay * self.datum


@dataclass(frozen=True)
class TrajectoryGrid:
    """Coordinates sampled on a uniform grid, measured in the weighted
    metric sqrt(sum (1+k^2) (a^k)^2)."""

    indices: tuple[int, ...]
    times: np.ndarray
    coords: np.ndarray  # shape (n_times, n_modes)

    def __post_init__(self):
        if self.basis.indices != self.indices:
            raise ValueError("mode indices must be ascending")
        if self.coords.shape != (len(self.times), len(self.indices)):
            raise ValueError("coordinate array shape mismatch")

    @cached_property
    def basis(self) -> galerkin.GalerkinBasis:
        return galerkin.GalerkinBasis(self.indices)

    def norms(self) -> np.ndarray:
        return self.basis.norm(self.coords)

    def distance_curve(self, other: "TrajectoryGrid") -> np.ndarray:
        if other.indices != self.indices:
            raise ValueError("grids use different mode sets")
        return self.basis.norm(self.coords - other.coords)

    def sup_distance(self, other: "TrajectoryGrid") -> float:
        return float(np.max(self.distance_curve(other)))


def nonlinearity_on_grid(problem: FiniteVolterraProblem,
                         coords: np.ndarray) -> np.ndarray:
    """Projected power P(psi)^k at every grid time."""
    form = problem.model.eps_form
    coords = np.asarray(coords, dtype=float)
    out = np.empty_like(coords)
    for rows in galerkin.row_blocks(form, len(coords)):
        out[rows] = galerkin.project_values(form, coords[rows])
    return out


def volterra_apply(problem: FiniteVolterraProblem,
                   psi: TrajectoryGrid) -> TrajectoryGrid:
    """One application of the Volterra operator J on the grid: every
    mode's convolution int e^{-k^2 (t-s)} P(psi(s))^k ds in one
    :func:`quadrature.exp_prefix` call."""
    if psi.indices != problem.indices:
        raise ValueError("trajectory mode set does not match the problem")
    times = problem.times
    if psi.times.shape != times.shape or not np.allclose(
        psi.times, times, rtol=0.0, atol=1e-12
    ):
        raise ValueError("trajectory grid does not match the problem grid")
    h = (problem.t1 - problem.t0) / problem.grid_n
    P = nonlinearity_on_grid(problem, psi.coords)
    out = problem.free_evolution + quad.exp_prefix(P, problem.rates, h)
    return TrajectoryGrid(indices=problem.indices, times=times, coords=out)


def integral_error_curve(times: np.ndarray, eps_values: np.ndarray,
                         U: float, B: float, delta: float) -> np.ndarray:
    """Integral error estimator E(t) = u(t-t0) delta + int u(t-s) eps(s) ds
    on the grid, with u(t) = U e^{-B t}."""
    h = (times[-1] - times[0]) / (len(times) - 1)
    head = U * np.exp(-B * (times - times[0])) * delta
    return head + U * quad.exp_prefix(eps_values, B, h)


@dataclass(frozen=True)
class VerificationReport:
    """Everything iterate_and_check measured, plus pass flags.

    The Lipschitz constant is the simple tube bound
    L = p (max ||phi_ap|| + rho)^(p-1) with rho = max R; Lam = U L.
    """

    k_max: int
    indices: tuple[int, ...]
    scenario_modes: tuple[int, ...]
    interval: tuple[float, float]
    grid_n: int
    U: float
    B: float
    sigma: float  # max of the integral error estimator on the grid
    rho: float  # max tube radius
    lipschitz: float
    lam: float
    sup_distances: tuple[float, ...]  # per iterate, vs phi_ap
    tube_margins: tuple[float, ...]  # per iterate, min_t (R - distance)
    successive_diffs: tuple[float, ...]  # sup |phi_{k+1} - phi_k|
    factorial_bounds: tuple[float, ...]
    cauchy_pairs: tuple[tuple[int, int, float, float], ...]
    margin_tolerance: float
    margins_ok: bool
    factorial_ok: bool
    cauchy_ok: bool

    @property
    def passed(self) -> bool:
        return self.margins_ok and self.factorial_ok and self.cauchy_ok

    def to_dict(self) -> dict:
        return {
            "spec_version": SPEC_VERSION,
            "kind": "picard_verification",
            "k_max": self.k_max,
            "verification_modes": list(self.indices),
            "scenario_modes": list(self.scenario_modes),
            "t0": self.interval[0],
            "t1": self.interval[1],
            "grid_n": self.grid_n,
            "U": self.U,
            "B": self.B,
            "sigma": self.sigma,
            "rho": self.rho,
            "lipschitz_bound": self.lipschitz,
            "lipschitz_form": "p*(max_norm_phi_ap + rho)**(p-1)",
            "lam": self.lam,
            "sup_distances": list(self.sup_distances),
            "tube_margins": list(self.tube_margins),
            "successive_diffs": list(self.successive_diffs),
            "factorial_bounds": list(self.factorial_bounds),
            "cauchy_pairs": [list(c) for c in self.cauchy_pairs],
            "margin_tolerance": self.margin_tolerance,
            "margins_ok": self.margins_ok,
            "factorial_ok": self.factorial_ok,
            "cauchy_ok": self.cauchy_ok,
            "passed": self.passed,
        }


def iterate_and_check(problem: FiniteVolterraProblem,
                      phi_ap: TrajectoryGrid,
                      radius: np.ndarray,
                      eps_values: np.ndarray,
                      k_max: int,
                      scenario_modes: Sequence[int] | None = None,
                      ) -> VerificationReport:
    """Run the iteration phi_{k+1} = J(phi_k) from phi_0 = phi_ap and
    check tube invariance, the factorial contraction bound and the
    Cauchy-pair bound against the supplied control solution.

    ``radius`` must solve the control inequality on the interval for the
    estimators implied by ``eps_values`` (differential error along
    phi_ap) and the constants ``heat.U`` and ``heat.B``; ``k_max`` is
    the number of contraction steps checked, so iterates up to
    phi_{k_max + 1} are computed.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    U, B = heat.U, heat.B
    times = problem.times
    n = len(times)
    radius = np.asarray(radius, dtype=float)
    eps_values = np.asarray(eps_values, dtype=float)
    if radius.shape != (n,) or eps_values.shape != (n,):
        raise ValueError("radius and eps sample shapes must match the grid")

    delta = float(phi_ap.basis.norm(phi_ap.coords[0] - problem.datum))
    e_curve = integral_error_curve(times, eps_values, U, B, delta)
    sigma = float(np.max(e_curve))
    rho = float(np.max(radius))
    span = problem.t1 - problem.t0
    lipschitz = problem.p * (float(np.max(phi_ap.norms())) + rho) ** (
        problem.p - 1
    )
    lam = U * lipschitz

    iterates = [phi_ap]
    for _ in range(k_max + 1):
        iterates.append(volterra_apply(problem, iterates[-1]))

    sup_distances = []
    tube_margins = []
    for phi in iterates:
        dist = phi.distance_curve(phi_ap)
        sup_distances.append(float(np.max(dist)))
        tube_margins.append(float(np.min(radius - dist)))

    successive = []
    bounds = []
    bound = sigma
    for k in range(k_max + 1):
        successive.append(iterates[k + 1].sup_distance(iterates[k]))
        bounds.append(bound)
        bound *= lam * span / (k + 1)

    cauchy = []
    amplification = sigma * math.exp(lam * span)
    for k in range(3, len(iterates)):
        for kp in range(k + 1, len(iterates)):
            h = k
            bound_pair = amplification * (lam * span) ** h / math.factorial(h)
            cauchy.append(
                (k, kp, iterates[kp].sup_distance(iterates[k]), bound_pair)
            )

    slack = 1e-12 * max(1.0, sigma)
    margins_ok = min(tube_margins) >= -_MARGIN_TOLERANCE
    factorial_ok = all(
        d <= b + slack for d, b in zip(successive, bounds)
    )
    cauchy_ok = all(d <= b + slack for _, _, d, b in cauchy)

    return VerificationReport(
        k_max=k_max,
        indices=problem.indices,
        scenario_modes=tuple(scenario_modes or ()),
        interval=(problem.t0, problem.t1),
        grid_n=problem.grid_n,
        U=U,
        B=B,
        sigma=sigma,
        rho=rho,
        lipschitz=lipschitz,
        lam=lam,
        sup_distances=tuple(sup_distances),
        tube_margins=tuple(tube_margins),
        successive_diffs=tuple(successive),
        factorial_bounds=tuple(bounds),
        cauchy_pairs=tuple(cauchy),
        margin_tolerance=_MARGIN_TOLERANCE,
        margins_ok=margins_ok,
        factorial_ok=factorial_ok,
        cauchy_ok=cauchy_ok,
    )


def default_verification_modes(scenario_modes: Sequence[int]) -> tuple[int, ...]:
    """Scenario modes plus every mode up to twice the largest one, with a
    floor of 8: enough room for the dropped part of the nonlinearity to
    show up."""
    top = max(max(scenario_modes) * 2 + 2, 8)
    return tuple(sorted(set(range(1, top + 1)) | set(scenario_modes)))


def verify_heat_scenario(A: float, t1: float, p: int = 2,
                         modes: Sequence[int] = (1, 3),
                         k_max: int = 10,
                         grid_n: int = 2048) -> VerificationReport:
    """End-to-end verification for a heat scenario on [0, t1].

    Integrates the coupled (a, sigma) system, samples trajectory, radius
    (through :func:`evocontrol.heat.tube_radius`) and differential
    error on the uniform grid, embeds everything into the larger mode
    set of :func:`default_verification_modes`, and runs the iteration
    checks.
    """
    scenario = heat.HeatScenario(
        A=A, p=p, modes=tuple(modes), horizon=t1,
        rtol=_VERIFY_RTOL, atol=_VERIFY_ATOL,
    )
    outcome = ode.integrate(heat.assemble_coupled_system(scenario))
    if outcome.kind != ode.REACHED_HORIZON:
        raise EvocontrolError(
            f"scenario does not persist on [0, {t1}]: {outcome.kind} "
            f"at t={outcome.t_end}"
        )
    ver_indices = default_verification_modes(scenario.modes)

    times = np.linspace(0.0, t1, grid_n + 1)
    states = outcome.interpolate(times)
    m = len(scenario.modes)
    coords_small = states[:, :m]
    radius = heat.tube_radius(states[:, m], p)
    form = galerkin.build_model(scenario.modes, p).eps_form
    eps_values = np.sqrt(form.value_many(coords_small, scenario.modes))

    col_of = {k: i for i, k in enumerate(ver_indices)}
    coords = np.zeros((len(times), len(ver_indices)))
    for i, k in enumerate(scenario.modes):
        coords[:, col_of[k]] = coords_small[:, i]
    datum = np.zeros(len(ver_indices))
    datum[col_of[1]] = A

    problem = FiniteVolterraProblem(
        indices=ver_indices, p=p, datum=datum, t0=0.0, t1=t1, grid_n=grid_n
    )
    phi_ap = TrajectoryGrid(indices=ver_indices, times=times, coords=coords)
    return iterate_and_check(
        problem, phi_ap, radius, eps_values, k_max,
        scenario_modes=scenario.modes,
    )
