"""Coupled trajectory-plus-radius runs for the Dirichlet reaction problem."""

import json
import math

import numpy as np
import pytest

from evocontrol import control, galerkin, heat, ode


def test_datum_norm_and_basic_bounds():
    # the datum A s_1 has ambient norm A sqrt(2), i.e. A / C_N
    assert abs(heat.C_N - math.sqrt(2.0) / 2.0) <= 1e-15
    bb = heat.basic_bounds(2.0)
    assert abs(bb.norm_f0 - 2.0 / heat.C_N) <= 1e-14
    assert bb.tn == control.tn_closed(1.0, 1.0, 1.0, 2, 2.0 / heat.C_N)
    # below the critical datum size the guarantee is global
    assert heat.basic_bounds(0.5).tn == math.inf


def test_scenario_blowup_and_sandwich():
    result = heat.run_scenario(heat.HeatScenario(A=4.0))
    assert result.outcome_kind == ode.BLOW_UP
    assert abs(result.t_g - 0.313806) <= 1e-3
    assert result.t_n <= result.t_g <= result.t_k
    assert 0.0 < result.eta < 1.0
    tr = result.trajectory
    assert tr.coords.shape == (len(tr.times), 2)
    assert tr.radius[0] == 0.0 and np.all(np.diff(tr.times) > 0)


def test_global_scenario_below_threshold():
    result = heat.run_scenario(heat.HeatScenario(A=1.0))
    assert result.outcome_kind == ode.REACHED_HORIZON
    assert result.t_g == math.inf and result.t_k is None and result.eta is None


def test_gap_shrinks_with_amplitude():
    rows = heat.table_rows([2.0, 4.0, 10.0, 20.0])
    etas = [r.eta for r in rows]
    assert all(b < a for a, b in zip(etas, etas[1:]))
    # and every blow-up row is sandwiched
    for r in rows:
        assert r.t_n < r.t_g < r.t_k


def test_second_mode_never_activates():
    # with a first-mode datum the even mode is invariantly zero, so
    # enlarging the mode set with k=2 changes nothing
    for A in (0.8, 1.3):
        scenario = heat.HeatScenario(A=A, modes=(1, 2, 3), horizon=20.0)
        result = heat.run_scenario(scenario)
        col = result.trajectory.modes.index(2)
        assert float(np.max(np.abs(result.trajectory.coords[:, col]))) <= 1e-8


def test_settled_runs_below_critical_amplitude():
    # just below the bisected threshold the trajectory and radius decay
    result = heat.run_scenario(heat.HeatScenario(A=1.046))
    assert ode.norm_nonincreasing_tail(
        ode.integrate(heat.assemble_coupled_system(heat.HeatScenario(A=1.046)))
    )
    assert result.outcome_kind == ode.REACHED_HORIZON
    assert result.trajectory.norm_phi[-1] <= 1e-6


def test_rescaled_amplitude_consistency():
    # t_G(A) * A approaches the limit escape time for large A
    limit = heat.rescaled_limit()
    result = heat.run_scenario(heat.HeatScenario(A=100.0))
    assert abs(result.t_g * 100.0 - limit.escape_time) <= 1.5e-2
    eta_inf = heat.limit_uncertainty(limit.escape_time)
    assert 0.0 < eta_inf < 1.0


def test_empirical_curve_is_a_lower_bound_on_escape():
    # the observed fit -(limit_time/crit) log(1 - crit/A) for the escape
    # time as a function of amplitude, past the critical amplitude
    crit = 1.0569
    limit_time = 1.0261
    rows = heat.table_rows([1.60, 2.0, 4.0, 10.0, 20.0])
    for r in rows:
        curve = -(limit_time / crit) * math.log1p(-crit / r.scenario.A)
        assert r.t_g >= curve


def test_coupled_rhs_is_the_control_equation():
    # the R-component of the (a, R) right-hand side is the general
    # control_rhs with the module's U and B (B scaled like the linear
    # terms), eps = eps_hat(a) and the binomial growth coefficients
    # C(p, j) ||phi||^(p-j); the bound is relative to the sum of the
    # magnitudes of its three terms
    rng = np.random.default_rng(17)
    for modes, p in (((1, 3), 2), ((1, 3, 5), 3)):
        model = galerkin.build_model(modes, p)
        for linear_factor in (1.0, 0.0):
            rhs = heat._coupled_rhs(model, linear_factor)
            semigroup = control.SemigroupEstimator(U=heat.U,
                                                   B=linear_factor * heat.B)
            for _ in range(25):
                a = rng.uniform(-2.0, 2.0, len(modes))
                R = rng.uniform(0.0, 3.0)
                norm = model.basis.norm(a)
                eps = galerkin.epsilon_hat(model, a)
                growth = control.PolynomialGrowth.from_constants(
                    [math.comb(p, j) * norm ** (p - j) for j in range(1, p + 1)]
                )
                problem = control.ControlProblem(
                    semigroup=semigroup,
                    errors=control.ErrorEstimators.constant(0.0, eps),
                    growth=growth, t0=0.0, horizon=1.0,
                )
                expected = control.control_rhs(problem, R, 0.0)
                got = rhs(0.0, np.append(a, R))[len(modes)]
                scale = heat.U * (eps + growth.ell(R, 0.0)) + semigroup.B * R
                assert abs(got - expected) <= 1e-14 * scale


def test_scenario_record_round_trip(tmp_path):
    scenario = heat.HeatScenario(A=4.0, horizon=2.0)
    result = heat.run_scenario(scenario)
    record = heat.scenario_record(result)
    path = tmp_path / "scenario.json"
    heat.write_json(record, str(path))
    loaded = json.loads(path.read_text())
    assert loaded["spec_version"] == heat.SPEC_VERSION
    assert loaded["t_G_infinite"] is False

    rebuilt = heat.scenario_from_record(loaded)
    assert rebuilt == scenario
    again = heat.run_scenario(rebuilt)
    csv_a = tmp_path / "a.csv"
    csv_b = tmp_path / "b.csv"
    heat.write_scenario_csv(result, str(csv_a))
    heat.write_scenario_csv(again, str(csv_b))
    assert csv_a.read_bytes() == csv_b.read_bytes()


def test_infinite_values_serialize_as_flags(tmp_path):
    result = heat.run_scenario(heat.HeatScenario(A=0.5, horizon=5.0))
    record = heat.scenario_record(result)
    assert record["t_G"] is None and record["t_G_infinite"] is True
    assert record["t_K"] is None and record["t_K_infinite"] is False
    # json round trip keeps the flags intact
    assert json.loads(json.dumps(record)) == record


def test_scenario_validation():
    with pytest.raises(ValueError):
        heat.HeatScenario(A=-1.0)
    with pytest.raises(ValueError):
        heat.HeatScenario(A=1.0, modes=(2, 3))
    with pytest.raises(ValueError):
        heat.HeatScenario(A=1.0, p=1)


def test_record_with_an_invalid_ivp_is_rejected_when_read():
    # a scenario checks what its IVP will require, so a bad record fails
    # as it is read rather than when the run starts
    record = {"A": 4.0, "p": 2, "modes": [1, 3], "horizon": 2.0,
              "rtol": 1e-10, "atol": 1e-12, "blowup_threshold": 1e8}
    assert heat.scenario_from_record(record).horizon == 2.0
    for key, value in (("horizon", math.inf), ("horizon", math.nan),
                       ("rtol", 5.0), ("rtol", 0.0), ("atol", 1.0),
                       ("atol", -1e-12)):
        with pytest.raises(ValueError):
            heat.scenario_from_record({**record, key: value})


def test_every_coupled_ivp_requires_the_ground_mode():
    # the datum sits on mode 1, so every builder names it when it is missing
    with pytest.raises(ValueError, match="mode 1 must belong"):
        heat.rescaled_limit(modes=(3, 5))
    with pytest.raises(ValueError, match="mode 1 must belong"):
        heat.HeatScenario(A=1.0, modes=(3, 5))
