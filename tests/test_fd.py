"""Finite-difference reference estimates."""

import math
import tracemalloc

import numpy as np
import pytest

from evocontrol import control, fd, heat
from evocontrol.errors import GridDisagreementError


def test_stencil_diagonalizes_on_discrete_sines():
    # the three-point stencil applied to sin(k x_i) is an exact
    # eigenvector relation with eigenvalue -(4/h^2) sin^2(kh/2)
    N, p = 127, 2
    h = math.pi / (N + 1)
    x = h * np.arange(1, N + 1)
    rhs = fd.semidiscrete_rhs(N, p)
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
    # the run keeps its grid and per-step series, not its states and
    # derivatives: the fine A=10 run of the reference (2,366 steps on 512
    # points) would hold 19.4 MB of rows; it peaks at about 0.3 MB
    fd.fd_single_run(fd.FdConfig(A=100.0, N=64))
    tracemalloc.start()
    try:
        run = fd.fd_single_run(fd.FdConfig(A=10.0, N=512))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(run.times) - 1 >= 2000
    assert peak <= 2e6


def test_small_datum_reaches_horizon():
    est = fd.fd_blowup_time(fd.FdConfig(A=0.5, N=64, horizon=2.0))
    assert math.isinf(est.value)
    assert not est.coarse.blew_up
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
