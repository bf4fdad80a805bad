"""Coupled trajectory-plus-radius runs for the Dirichlet reaction problem."""

import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from evocontrol import control, galerkin, heat, kaplan, ode
from evocontrol.errors import BracketError, EvocontrolError


def test_datum_norm_and_basic_bounds():
    # the datum A s_1 has ambient norm A sqrt(2), i.e. A / C_N
    assert abs(heat.C_N - math.sqrt(2.0) / 2.0) <= 1e-15
    assert abs(2.0 / heat.C_N - 2.0 * math.sqrt(2.0)) <= 1e-14
    # t_N is the closed-form guarantee of that norm
    result = heat.run_scenario(heat.HeatScenario(A=2.0))
    assert result.t_n == control.tn_closed(1.0, 1.0, 1.0, 2, 2.0 / heat.C_N)
    # below the critical datum size the guarantee is global
    assert heat.run_scenario(heat.HeatScenario(A=0.5)).t_n == math.inf


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
    assert result.outcome_kind == ode.REACHED_HORIZON
    assert result.trajectory.norm_phi[-1] <= 1e-6


@pytest.mark.parametrize("kw, value", [
    ({}, "0x1.0e93fffffffffp+0"),
    ({"p": 3}, "0x1.1c5c000000000p+0"),
    ({"modes": (1, 3, 5)}, "0x1.1f9f333333333p+0"),
    ({"modes": (1, 3, 5, 7, 9)}, "0x1.31f5999999998p+0"),
])
def test_certified_stops_are_prefixes_of_the_full_runs(monkeypatch, kw,
                                                       value):
    # every bisection run ends on a certificate; replayed to t = 50 with
    # the scenario's own stop at the escape level in place of the
    # certificates, its history is a bit-identical prefix of the replay,
    # which escapes exactly when the verdict is "escapes" (R > 1, that is
    # sigma < 2^(1-p))
    runs = []
    integrate = ode.integrate

    def recording(spec):
        runs.append(integrate(spec))
        return runs[-1]

    monkeypatch.setattr(ode, "integrate", recording)
    assert heat.critical_amplitude(**kw).hex() == value
    monkeypatch.setattr(ode, "integrate", integrate)
    assert len(runs) == 14
    p = kw.get("p", 2)
    level = (1.0 + 1e8) ** (1 - p)
    for run in runs:
        assert run.kind == ode.STOPPED
        escapes = run.final_state[-1] < 2.0 ** (1 - p)
        full = ode.integrate(dataclasses.replace(
            run.spec, stop=lambda t, y: y[-1] <= level, horizon=50.0))
        assert (full.kind == ode.STOPPED) == escapes
        n = len(run.times)
        assert len(full.times) > n
        for a, b in ((run.times, full.times), (run.states, full.states),
                     (run.derivs, full.derivs)):
            assert np.asarray(a).tobytes() == np.asarray(b[:n]).tobytes()


def test_undecided_critical_run_raises(monkeypatch):
    # no certificate decides the run at A = 0.7 by t = 0.5
    monkeypatch.setattr(heat, "CRITICAL_BACKSTOP", 0.5)
    with pytest.raises(EvocontrolError, match=r"A=0\.7 by t=0\.5") as info:
        heat.critical_amplitude()
    assert not isinstance(info.value, BracketError)


def test_critical_bracket_must_straddle_the_threshold(monkeypatch):
    # both ends of [0.7, 0.8] settle
    monkeypatch.setattr(heat, "CRITICAL_HI", 0.8)
    with pytest.raises(BracketError):
        heat.critical_amplitude()


@pytest.mark.parametrize("p", [2, 3, 4])
def test_critical_certificates_sit_at_their_exact_levels(monkeypatch, p):
    # the stop predicate of critical_amplitude, probed just inside and
    # just outside each certificate: settled where M = ||phi|| + R lies
    # below 2^(-1/(2(p-1))), the root of -M + sqrt(2) M^p, and escaping
    # where R > 1, the root of R^p - R
    class Recorded(Exception):
        pass

    def record(spec):
        stops.append(spec.stop)
        raise Recorded

    stops = []
    monkeypatch.setattr(ode, "integrate", record)
    with pytest.raises(Recorded):
        heat.critical_amplitude(p)
    stop = stops[0]
    norm = galerkin.build_model((1, 3), p).basis.norm

    def state(phi_norm, radius):
        # phi on mode 1 alone, with ||s_1|| = sqrt(2); sigma from R
        a = np.array([phi_norm / math.sqrt(2.0), 0.0])
        return np.append(a, (1.0 + radius) ** (1 - p)), norm(a)

    level = 2.0 ** (-0.5 / (p - 1))
    for scale, settled in ((1.0 - 1e-9, True), (1.0 + 1e-9, False)):
        y, m = state(scale * level, 0.0)
        assert bool(stop(0.0, y)) is settled, scale
        assert (2 * Fraction(m) ** (2 * (p - 1)) < 1) is settled, scale
    for radius, escaped in ((0.95, False), (1.0 + 1e-9, True)):
        y, _ = state(10.0, radius)
        assert bool(stop(0.0, y)) is escaped, radius


def _full_run(A):
    scenario = heat.HeatScenario(A=A)
    model = galerkin.build_model(scenario.modes, scenario.p)
    outcome = ode.integrate(heat.assemble_coupled_system(scenario))
    states = np.asarray(outcome.states)
    return (outcome, heat.tube_radius(states[:, -1], scenario.p),
            model.basis.norm(states[:, :-1]))


@pytest.mark.parametrize("A", [1.0577, 1.1, 1.6, 4.0])
def test_escape_certificate_bounds_every_escaping_run(A):
    # R' >= R^2 - R, so from any accepted T with R(T) > 1 the run escapes
    # no later than the comparison S' = S^2 - S from S(T) = R(T)
    outcome, radius, _ = _full_run(A)
    assert outcome.kind == ode.STOPPED
    t_g = heat.run_scenario(heat.HeatScenario(A=A)).t_g
    assert outcome.times[-2] < t_g <= outcome.t_end
    past = radius > 1.0
    assert np.any(past)
    for T, R in zip(outcome.times[past], radius[past]):
        assert t_g <= T + kaplan.kaplan_time(R, 2)


@pytest.mark.parametrize("A", [0.7, 1.046])
def test_settled_certificate_makes_the_bound_nonincreasing(A):
    # M = ||phi|| + R obeys M' <= -M + sqrt(2) M^2, negative below
    # 1/sqrt(2): once M drops below that level it never rises again, up
    # to the integrator's absolute noise floor
    outcome, radius, norm_phi = _full_run(A)
    assert outcome.kind == ode.REACHED_HORIZON
    bound = norm_phi + radius
    below = np.flatnonzero(bound < 2.0 ** -0.5)
    assert below.size
    tail = bound[below[0]:]
    assert np.all(np.diff(tail) <= 100.0 * outcome.spec.atol)


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


def test_bracket_run_escapes_in_few_steps():
    # sigma = (1 + R)^(1-p) crosses its escape level with slope near
    # -(p-1), on long steps: the A = 2 run takes 16
    outcome = ode.integrate(
        heat.assemble_coupled_system(heat.HeatScenario(A=2.0)))
    assert outcome.stats.termination == ode.STOPPED
    assert outcome.stats.accepted <= 30


def test_escape_time_error_budget():
    # the located crossing agrees with the same sigma run at tight
    # tolerances (measured: at most 2.2e-11 relative)
    for A in (1.60, 2.0, 4.0, 10.0, 20.0):
        t_g = heat.run_scenario(heat.HeatScenario(A=A)).t_g
        tight = heat.run_scenario(
            heat.HeatScenario(A=A, rtol=1e-13, atol=1e-15)).t_g
        assert abs(t_g - tight) <= 1e-9 * tight, A


@pytest.mark.parametrize("p", [3, 4])
@pytest.mark.parametrize("A", [4.0, 10.0])
def test_high_power_runs_end_on_the_crossing(p, A):
    # past sigma = 0 the row stays finite (the odd root of sigma), so the
    # run stops on the crossing rather than on a domain exit or a
    # min-step collapse, and the trajectory ends at R = threshold
    scenario = heat.HeatScenario(A=A, p=p)
    outcome = ode.integrate(heat.assemble_coupled_system(scenario))
    assert outcome.stats.termination == ode.STOPPED
    assert outcome.stats.accepted <= 40
    result = heat.run_scenario(scenario)
    assert result.outcome_kind == ode.BLOW_UP
    assert outcome.times[-2] < result.t_g <= outcome.t_end
    assert result.t_n <= result.t_g <= result.t_k
    radius = result.trajectory.radius
    assert abs(radius[-1] - 1e8) <= 1e-12 * 1e8
    assert np.all(np.diff(radius[-40:]) > 0.0)


def test_coupled_rhs_is_the_control_equation():
    # the sigma component of the (a, sigma) right-hand side is
    # (1 - p) q^p (U (eps + (||phi|| + R)^p - ||phi||^p) - B R), with
    # q = 1/(1 + R) the odd real root of sigma = q^(p-1), the module's U
    # and B (B scaled like the linear terms) and eps = eps_hat(a), here
    # evaluated exactly in rationals from the same eps and ||phi||. Each
    # sigma is sign(q) |q|^(p-1) for q = +-j/64, exact in floats, so R
    # runs over [0, 63] and, past sigma = 0, below -1. The bound is
    # relative to the sum of the magnitudes of the terms
    rng = np.random.default_rng(17)
    for modes, p in (((1, 3), 2), ((1, 3, 5), 3)):
        model = galerkin.build_model(modes, p)
        for linear_factor in (1.0, 0.0):
            rhs = heat._coupled_rhs(model, linear_factor)
            U = Fraction(heat.U)
            B = Fraction(linear_factor * heat.B)
            for sign in (1, -1):
                for _ in range(25):
                    a = rng.uniform(-2.0, 2.0, len(modes))
                    q = Fraction(sign * int(rng.integers(1, 65)), 64)
                    sigma = sign * abs(q) ** (p - 1)
                    R = 1 / q - 1
                    norm = Fraction(model.basis.norm(a))
                    eps = Fraction(galerkin.epsilon_hat(model, a))
                    ell = (norm + R) ** p - norm**p
                    expected = (1 - p) * q**p * (U * (eps + ell) - B * R)
                    got = rhs(0.0, np.append(a, float(sigma)))[len(modes)]
                    ell_abs = (norm + abs(R)) ** p - norm**p
                    scale = (p - 1) * abs(q) ** p * (U * (eps + ell_abs)
                                                     + B * abs(R))
                    assert abs(Fraction(got) - expected) <= 1e-14 * scale


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
    # sigma(0) = 1 is part of the state the threshold bounds
    with pytest.raises(ValueError):
        heat.HeatScenario(A=0.5, blowup_threshold=0.9)


def test_record_with_an_invalid_ivp_is_rejected_when_read():
    # a scenario checks what its IVP will require, so a bad record fails
    # as it is read rather than when the run starts
    record = {"A": 4.0, "p": 2, "modes": [1, 3], "horizon": 2.0,
              "rtol": 1e-10, "atol": 1e-12, "blowup_threshold": 1e8}
    assert heat.scenario_from_record(record).horizon == 2.0
    for key, value in (("horizon", math.inf), ("horizon", math.nan),
                       ("rtol", 5.0), ("rtol", 0.0), ("atol", 1.0),
                       ("atol", -1e-12), ("blowup_threshold", 4.0),
                       ("blowup_threshold", math.nan)):
        with pytest.raises(ValueError):
            heat.scenario_from_record({**record, key: value})


def test_every_coupled_ivp_requires_the_ground_mode():
    # the datum sits on mode 1, so every builder names it when it is missing
    with pytest.raises(ValueError, match="mode 1 must belong"):
        heat.rescaled_limit(modes=(3, 5))
    with pytest.raises(ValueError, match="mode 1 must belong"):
        heat.HeatScenario(A=1.0, modes=(3, 5))
