"""Finite-difference reference estimates."""

import math
import tracemalloc

import numpy as np
import pytest

from evocontrol import control, fd, heat, ode
from evocontrol.errors import GridDisagreementError, StepBudgetError
from test_ode import mol_spec, semidiscrete_rhs


def test_stencil_diagonalizes_on_discrete_sines():
    # the three-point stencil applied to sin(k x_i) is an exact
    # eigenvector relation with eigenvalue -(4/h^2) sin^2(kh/2)
    N, p = 127, 2
    h = math.pi / (N + 1)
    x = h * np.arange(1, N + 1)
    rhs = semidiscrete_rhs(N, p)
    for k in (1, 2, 5, 17):
        y = np.sin(k * x)
        linear = rhs(0.0, y) - y**p
        mu = -4.0 / h**2 * math.sin(k * h / 2.0) ** 2
        assert np.max(np.abs(linear - mu * y)) <= 1e-10 * abs(mu)


def test_blowup_estimate_sits_between_certified_bounds():
    A = 4.0
    result = heat.run_scenario(heat.HeatScenario(A=A))
    est = fd.fd_blowup_time(fd.FdConfig(A=A, N=64, horizon=2.0))
    assert result.t_g * 0.98 <= est.value <= result.t_k * 1.02
    # coarse and fine runs agree and the extrapolation stays between
    lo = min(est.coarse.estimate, est.fine.estimate)
    assert abs(est.value - lo) / lo <= 0.05
    # positivity is preserved up to integrator noise
    assert est.coarse.min_value >= -1e-10
    assert est.fine.min_value >= -1e-10


def test_single_run_keeps_no_step_history():
    # the run keeps its grid and per-step series, not its states: the
    # fine A=10 run of the reference, 158 steps on 512 points (2,366 for
    # explicit DOP853, held at the stencil's stability limit),
    # peaks at about 0.8 MB when it builds its 512 KB sine matrix and
    # 0.3 MB when the matrix is cached
    fd.fd_single_run(fd.FdConfig(A=100.0, N=64))
    tracemalloc.start()
    try:
        run = fd.fd_single_run(fd.FdConfig(A=10.0, N=512))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(run.times) - 1 == run.stats.accepted <= 200
    assert run.stats.rejected <= 0.1 * run.stats.accepted
    assert peak <= 2e6


def test_step_count_does_not_grow_with_the_grid():
    # the step error is scaled by the max-norm, not by |u| at each point:
    # near the walls u -> 0 and (u^2)'' = 2 u'^2 != 0, an order loss of
    # the Lawson scheme that a pointwise scale would chase with ever
    # smaller steps as the grid refines (159 and 160 steps here)
    coarse, fine = (fd.fd_single_run(fd.FdConfig(A=10.0, N=N)).stats.accepted
                    for N in (64, 128))
    assert abs(fine - coarse) <= 0.05 * coarse


def test_small_datum_reaches_horizon():
    est = fd.fd_blowup_time(fd.FdConfig(A=0.5, N=64, horizon=2.0))
    assert math.isinf(est.value)
    assert not est.coarse.blew_up
    # the integrating factor takes the diffusion exactly, so the step is
    # set by accuracy, not by the stencil's stability limit: 112 and 122
    # steps on 64 and 128 points, where explicit DOP853 takes 534 and
    # 2,108
    for run in (est.coarse, est.fine):
        assert run.stats.termination == ode.HORIZON
        assert run.stats.accepted <= 150
    d = est.to_dict()
    assert d["estimate"] is None and d["estimate_infinite"] is True


def test_limit_profile_closed_form_values():
    c = math.sqrt(2.0 / math.pi)
    x = np.array([math.pi / 2.0])
    assert abs(fd.limit_profile(0.0, x)[0] - c) <= 1e-15
    tau = 0.5
    expected = c / (1.0 - tau * c)
    assert abs(fd.limit_profile(tau, x)[0] - expected) <= 1e-15
    # profile blows up at the endpoint sqrt(pi/2)
    with pytest.raises(ValueError):
        fd.limit_profile(math.sqrt(math.pi / 2.0), x)


def test_large_amplitude_rescaled_run_follows_profile():
    dev0 = fd.limit_profile_check(100.0, 0.0, N=64)
    assert dev0 <= 1e-14
    dev = fd.limit_profile_check(100.0, 0.6, N=64)
    assert dev <= 0.05


def test_profile_preconditions():
    with pytest.raises(ValueError):
        fd.limit_profile_check(100.0, -0.1, N=64)
    with pytest.raises(ValueError):
        fd.limit_profile_check(100.0, 1.3, N=64)  # past sqrt(pi/2)


def test_config_validation():
    with pytest.raises(ValueError):
        fd.FdConfig(A=1.0, N=32)
    for tol in (0.0, 1.0, 2.0, math.nan):
        for field in ("rtol", "atol"):
            with pytest.raises(ValueError, match="rtol and atol"):
                fd.FdConfig(A=1.0, **{field: tol})
    # the threshold must exceed the datum's max-norm A sqrt(2/pi)
    with pytest.raises(ValueError, match="blowup_threshold"):
        fd.FdConfig(A=10.0, blowup_threshold=7.9)
    with pytest.raises(ValueError, match="blowup_threshold"):
        fd.FdConfig(A=1.0, blowup_threshold=math.nan)
    fd.FdConfig(A=10.0, blowup_threshold=8.0)
    with pytest.raises(ValueError):
        fd.FdConfig(A=-1.0)
    with pytest.raises(ValueError):
        fd.FdConfig(A=1.0, p=1)
    with pytest.raises(ValueError):
        fd.FdConfig(A=1.0, horizon=math.inf)


def test_estimate_tracks_lifespan_scaling():
    # doubling a large amplitude should roughly halve the estimate;
    # the limit object scales blow-up time like 1/A
    t1 = fd.fd_blowup_time(fd.FdConfig(A=10.0, N=64, horizon=2.0)).value
    t2 = fd.fd_blowup_time(fd.FdConfig(A=20.0, N=64, horizon=2.0)).value
    assert 0.8 <= t1 / (2.0 * t2) <= 1.2


def test_norms_csv_roundtrip(tmp_path):
    est = fd.fd_blowup_time(fd.FdConfig(A=0.5, N=64, horizon=1.0))
    path = tmp_path / "norms.csv"
    fd.write_norms_csv(path, est.coarse)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,max_norm"
    assert len(lines) == 1 + len(est.coarse.times)
    t0, m0 = lines[1].split(",")
    assert float(t0) == 0.0
    assert abs(float(m0) - est.coarse.max_norms[0]) <= 1e-15


@pytest.mark.parametrize("N", [64, 65, 127, 256])
def test_half_grid_transforms_reproduce_the_stencil(N):
    # on a state symmetric about pi/2, S (lam c + (w u^p) @ S) with
    # c = (w u) @ S is the full-grid method of lines on the half grid,
    # at odd N (middle point weighed once) and at even N
    S, weights, lam = fd._sine_modes(N)
    M = (N + 1) // 2
    assert S.shape == (M, M) and not S.flags.writeable
    half = np.random.default_rng(N).uniform(-2.0, 2.0, size=M)
    full = np.concatenate([half, half[: N // 2][::-1]])
    expected = semidiscrete_rhs(N, 3)(0.0, full)
    coeffs = (weights * half) @ S
    assert np.max(np.abs(S @ coeffs - half)) <= 1e-13
    got = S @ (lam * coeffs + (weights * half**3) @ S)
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(got - expected[:M])) <= 1e-12 * scale
    assert fd._sine_modes(N) is fd._sine_modes(N)


@pytest.mark.parametrize("p, A", [
    pytest.param(2, 20.0, id="2"), pytest.param(3, 20.0, id="3"),
    pytest.param(2, 2.0, id="2-A2"), pytest.param(2, 100.0, id="2-A100")])
def test_single_run_matches_the_full_grid_dop853_run(p, A):
    # the Lawson run on the odd modes against DOP853 on the full grid, in
    # relative terms: 5.6e-10 (p = 2) and 6.7e-10 (p = 3) at A = 20, and
    # 5.3e-11 and 8.4e-11 at A = 2 and 100, the amplitudes whose step
    # counts depend most on how the error is scaled. p = 3 stays at
    # A = 20: at A = 100 it ends on a min-step collapse, 3.4e-7 from
    # DOP853 on either engine
    config = fd.FdConfig(A=A, p=p, N=64)
    run = fd.fd_single_run(config)
    replay = ode.integrate(mol_spec(config))
    assert run.kind == replay.kind == ode.BLOW_UP
    assert abs(run.estimate - replay.t_end) <= 1e-8 * replay.t_end


def _growing_factors(nodes, rows):
    """The (i, j) of a tableau whose Lawson form multiplies stage j into
    stage i by e^{(c_i - c_j) h Lambda} with c_j > c_i, a factor that
    grows without bound on stiff modes."""
    return [(i, j) for i, row in enumerate(rows) for j, a in enumerate(row)
            if a != 0.0 and nodes[j] > nodes[i]]


def test_lawson_factors_never_grow():
    nodes = [n / 90 for n in fd._NODES]
    # the error weights act at the advanced state, node 1
    rows = [*fd._A, fd._E]
    assert _growing_factors(nodes + [1.0], rows) == []
    # the engine's terms are the tableau's rows, each stage led by the
    # start coefficients (node 0), and every gap it exponentiates is >= 0
    for i, used in enumerate(fd._STAGES, start=1):
        lead, *terms = fd._TERMS[used]
        assert lead == (i, None, 1.0)
        assert [(j, w) for _, j, w in terms] == list(enumerate(fd._A[i]))
    assert [w for *_, w in fd._TERMS[fd._ERROR_TERMS]] == list(fd._E)
    for (i, j, _), gap in zip(fd._TERMS, fd._TERM_GAPS):
        assert fd._GAPS[gap] == fd._NODES[i] - (0 if j is None
                                                else fd._NODES[j]) >= 0
    # DOP853's nodes are not monotone: a_64, a_65, a_75 and a_98 of its
    # stepping stages 0-12 would grow
    assert _growing_factors(ode._C, ode._A[:13]) == [(6, 4), (6, 5), (7, 5),
                                                     (9, 8)]


def test_dormand_prince_tableau():
    # the row sums are the nodes, and the 5th- and 4th-order weights meet
    # the quadrature conditions sum b_j c_j^q = 1/(q+1) up to their order
    c = np.array(fd._NODES) / 90
    for i, row in enumerate(fd._A):
        assert abs(sum(row) - c[i]) <= 1e-15
    b = np.array(fd._A[6] + (0.0,))
    b4 = b - np.array(fd._E)
    for q in range(5):
        assert abs(b @ c**q - 1 / (q + 1)) <= 1e-15
        if q < 4:
            assert abs(b4 @ c**q - 1 / (q + 1)) <= 1e-15
    assert abs(b4 @ c**4 - 0.2) > 1e-4


def test_no_fd_run_calls_the_dop853_engine(monkeypatch):
    def refuse(spec):
        raise AssertionError("an FD run called ode.integrate")

    monkeypatch.setattr(ode, "integrate", refuse)
    assert fd.fd_blowup_time(fd.FdConfig(A=20.0, N=64)).coarse.blew_up
    assert fd.limit_profile_check(100.0, 0.6, N=64) <= 0.05


def test_grid_pair_must_agree(monkeypatch):
    # the coarse run blows up at 1.0; the fine one reaches the horizon,
    # or blows up 2.06% later, past the 2% gate, or 1.96% later, within
    fine = {}

    def single_run(config):
        kind, estimate = (ode.BLOW_UP, 1.0) if config.N == 64 else fine["run"]
        return fd.FdRun(config=config, kind=kind, estimate=estimate,
                        times=np.zeros(1), max_norms=np.zeros(1),
                        min_value=0.0, stats=None)

    monkeypatch.setattr(fd, "fd_single_run", single_run)
    config = fd.FdConfig(A=4.0, N=64)
    for run, match in (((ode.REACHED_HORIZON, math.inf), "changed the outcome"),
                       ((ode.BLOW_UP, 1.021), "disagree by 2.06%")):
        fine["run"] = run
        with pytest.raises(GridDisagreementError, match=match):
            fd.fd_blowup_time(config)
    fine["run"] = ode.BLOW_UP, 1.02
    assert fd.fd_blowup_time(config).fine.estimate == 1.02


def test_one_step_budget_governs_both_engines(monkeypatch):
    monkeypatch.setattr(ode, "_MAX_STEPS", 5)
    with pytest.raises(StepBudgetError) as info:
        fd.fd_single_run(fd.FdConfig(A=20.0, N=64))
    assert info.value.steps == 5


def test_cubic_run_ends_on_a_min_step_collapse():
    # at p = 3 the step falls below 1e-12 x horizon while max |u| is near
    # 1.1e5, short of the 1e6 threshold, so the estimate is the collapse
    # time, the last grid time, and not a threshold escape
    run = fd.fd_single_run(fd.FdConfig(A=20.0, p=3, N=64))
    assert run.blew_up
    assert run.stats.termination == ode.MIN_STEP_COLLAPSE
    assert run.estimate == run.times[-1]
    assert run.max_norms[-1] < run.config.blowup_threshold
