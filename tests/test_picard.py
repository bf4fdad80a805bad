"""Fixed-point verification machinery."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from evocontrol import galerkin, picard
from evocontrol import quadrature as qd


def test_mode_convolution_against_closed_form():
    # int_0^t e^{-(t-s)} e^{-s} ds = t e^{-t} for the first-mode kernel
    n = 2048
    times = np.linspace(0.0, 2.0, n + 1)
    got = qd.exp_prefix(np.exp(-times), 1.0, 2.0 / n)
    exact = times * np.exp(-times)
    assert np.max(np.abs(got - exact)) <= 1e-10


def test_mode_convolution_fallback_branch():
    # a mode whose e^{k^2 span} would overflow a factorized rescale over
    # the whole interval still integrates correctly
    n = 4096
    times = np.linspace(0.0, 2.0, n + 1)
    k = 15  # k^2 * span = 450
    got = qd.exp_prefix(np.ones(n + 1), k * k, 2.0 / n)
    exact = (1.0 - np.exp(-(k**2) * times)) / k**2
    err = np.abs(got - exact)
    # the kernel's boundary layer (width 1/k^2) sits under the first
    # couple of grid cells, so the head of the curve is only resolved
    # to quadrature-spacing accuracy; past the layer the rule recovers
    assert np.max(err) <= 1e-5
    assert np.max(err[times >= 0.2]) <= 1e-8


def test_verification_memory_stays_linear_in_the_grid():
    # grid_n = 2048: a dense 2049 x 2049 prefix matrix alone is 33.6 MB
    tracemalloc.start()
    try:
        report = picard.verify_heat_scenario(A=1.0, t1=2.0, k_max=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 8e6


def test_many_mode_nonlinearity_is_small_and_matches_the_tensor():
    # the default verification set of the first 24 odd modes: 1..96
    indices = picard.default_verification_modes(tuple(range(1, 48, 2)))
    assert indices == tuple(range(1, 97))
    problem = picard.FiniteVolterraProblem(
        indices=indices, p=2, datum=np.zeros(96), t0=0.0, t1=1.0
    )
    k = np.asarray(indices, dtype=float)
    rng = np.random.default_rng(96)
    coords = rng.uniform(-1.0, 1.0, size=(2049, 96)) / k
    tracemalloc.start()
    try:
        got = picard.nonlinearity_on_grid(problem, coords)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6
    # reference: the dense tensor T[k, i, j] = <s_k | s_i s_j>_{L2} on the
    # model's nodes, contracted with the coordinates on both sides
    x, w = qd.nodes(2 * 2 * 96)
    S = np.array([qd.sine_values(j, x) for j in indices])
    ref = np.empty_like(got)
    for row, s_k in enumerate(S):
        T = (S * (w * s_k)) @ S.T
        ref[:, row] = np.sum((coords @ T) * coords, axis=1)
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_volterra_on_zero_trajectory_is_pure_decay():
    problem = picard.FiniteVolterraProblem(
        indices=(1, 2, 3), p=2, datum=np.array([1.0, 0.5, -0.2]),
        t0=0.0, t1=1.5, grid_n=256,
    )
    zero = picard.TrajectoryGrid(
        indices=(1, 2, 3), times=problem.times,
        coords=np.zeros((257, 3)),
    )
    out = picard.volterra_apply(problem, zero)
    for col, k in enumerate((1, 2, 3)):
        exact = problem.datum[col] * np.exp(-(k**2) * problem.times)
        assert np.max(np.abs(out.coords[:, col] - exact)) <= 1e-12


def test_reduced_trajectory_is_fixed_on_its_own_modes():
    # on the scenario's own mode set the reduced flow solves the
    # truncated integral equation exactly, so one application barely
    # moves it; this is why verification uses a strictly larger set
    report = picard.verify_heat_scenario(A=1.0, t1=1.0, k_max=1, grid_n=512)
    from evocontrol import heat, ode

    scenario = heat.HeatScenario(A=1.0, horizon=1.0, rtol=1e-11, atol=1e-13)
    spec = heat.assemble_coupled_system(scenario)
    outcome = ode.integrate(spec)
    times = np.linspace(0.0, 1.0, 513)
    states = outcome.interpolate(times)
    problem = picard.FiniteVolterraProblem(
        indices=(1, 3), p=2, datum=np.array([1.0, 0.0]),
        t0=0.0, t1=1.0, grid_n=512,
    )
    phi = picard.TrajectoryGrid(
        indices=(1, 3), times=times, coords=states[:, :2]
    )
    moved = picard.volterra_apply(problem, phi)
    assert moved.sup_distance(phi) <= 5e-8
    # whereas the embedded run on the larger set has a real residual
    assert report.sup_distances[1] > 1e-4


def test_full_verification_passes():
    report = picard.verify_heat_scenario(A=1.0, t1=2.0, k_max=6, grid_n=1024)
    assert report.passed
    assert min(report.tube_margins) >= -1e-8
    assert (1, 3) != report.indices and set((1, 3)) < set(report.indices)
    # contraction kicks in once k! beats (lam * span)^k; by iterate 5
    # the successive corrections have dropped several decades
    assert report.successive_diffs[5] <= 1e-4 * report.successive_diffs[0]
    for d, b in zip(report.successive_diffs, report.factorial_bounds):
        assert d <= b + 1e-12
    for _, _, dist, bound in report.cauchy_pairs:
        assert dist <= bound + 1e-12


def test_base_case_only_run():
    report = picard.verify_heat_scenario(A=1.0, t1=1.0, k_max=0, grid_n=512)
    assert len(report.successive_diffs) == 1
    assert len(report.factorial_bounds) == 1
    assert abs(report.factorial_bounds[0] - report.sigma) == 0.0
    assert report.successive_diffs[0] <= report.sigma + 1e-12
    assert report.cauchy_pairs == ()
    assert report.passed


def test_report_serializes():
    report = picard.verify_heat_scenario(A=1.0, t1=0.5, k_max=2, grid_n=256)
    text = json.dumps(report.to_dict(), sort_keys=True)
    back = json.loads(text)
    assert back["passed"] is True
    assert back["k_max"] == 2
    assert len(back["sup_distances"]) == 4  # phi_0 .. phi_3


def test_verification_modes_must_grow():
    with pytest.raises(ValueError):
        picard.verify_heat_scenario(
            A=1.0, t1=1.0, k_max=1, verification_modes=(1, 3)
        )


def test_default_verification_modes():
    assert picard.default_verification_modes((1, 3)) == tuple(range(1, 9))
    assert 1 in picard.default_verification_modes((1, 5))


def test_trajectory_grid_norms():
    times = np.linspace(0.0, 1.0, 5)
    coords = np.zeros((5, 2))
    coords[:, 0] = 1.0
    grid = picard.TrajectoryGrid(indices=(1, 3), times=times, coords=coords)
    assert np.allclose(grid.norms(), math.sqrt(2.0))
    other = picard.TrajectoryGrid(
        indices=(1, 3), times=times, coords=np.zeros((5, 2))
    )
    assert abs(grid.sup_distance(other) - math.sqrt(2.0)) <= 1e-15
