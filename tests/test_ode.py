"""Integrator engine: accuracy, blow-up detection, classification."""

import math

import numpy as np
import pytest

from evocontrol import ode
from evocontrol.errors import (
    BracketError,
    EvocontrolError,
    OutOfDomainError,
    StepBudgetError,
)


def _decay_spec(rate=2.0, y0=3.0, horizon=1.0, rtol=1e-10, atol=1e-12):
    return ode.IvpSpec(
        dimension=1,
        rhs=lambda t, y: -rate * y,
        y0=np.array([y0]),
        t0=0.0,
        horizon=horizon,
        rtol=rtol,
        atol=atol,
    )


def test_linear_decay_accuracy():
    outcome = ode.integrate(_decay_spec())
    exact = 3.0 * math.exp(-2.0)
    assert outcome.kind == ode.REACHED_HORIZON
    assert abs(outcome.final_state[0] - exact) <= 1e-9 * exact


def test_step_budget_failure_is_typed(monkeypatch):
    # the decay run needs dozens of steps; a budget of 5 must fail loudly
    monkeypatch.setattr(ode, "_MAX_STEPS", 5)
    with pytest.raises(StepBudgetError) as info:
        ode.integrate(_decay_spec(horizon=50.0))
    assert info.value.steps == 5
    assert isinstance(info.value, EvocontrolError)


def test_power_blowup_times():
    # r' = r^p from r0 blows up at 1/((p-1) r0^(p-1)), by separation of
    # variables; the threshold at 1e8 sits close enough to the pole.
    r0 = 1.3
    for p in (2, 3, 4):
        t_star = 1.0 / ((p - 1) * r0 ** (p - 1))
        spec = ode.IvpSpec(
            dimension=1,
            rhs=lambda t, y, p=p: y**p,
            y0=np.array([r0]),
            t0=0.0,
            horizon=10.0,
            rtol=1e-10,
            atol=1e-12,
        )
        outcome = ode.integrate(spec)
        assert outcome.kind == ode.BLOW_UP
        assert abs(outcome.t_end - t_star) <= 1e-6


def test_escape_is_bracketed_tightly():
    spec = ode.IvpSpec(
        dimension=1,
        rhs=lambda t, y: y**2,
        y0=np.array([1.0]),
        t0=0.0,
        horizon=5.0,
        blowup_threshold=1e6,
    )
    outcome = ode.integrate(spec)
    assert outcome.kind == ode.BLOW_UP
    assert outcome.max_norm_history()[-1] > 1e6
    assert np.all(outcome.max_norm_history()[:-1] <= 1e6)
    # the final sample is a refinement inside the last accepted step
    assert outcome.times[-1] - outcome.times[-2] <= 5e-7 + 1e-12


def test_tolerance_reduction_buys_accuracy():
    # Fifth-order advancing solution: dividing both tolerances by 32
    # roughly halves the accepted steps, which should cut the global
    # error by at least 8x on a smooth problem.
    def run(scale):
        spec = ode.IvpSpec(
            dimension=1,
            rhs=lambda t, y: y * math.cos(t),
            y0=np.array([1.0]),
            t0=0.0,
            horizon=6.0,
            rtol=1e-5 * scale,
            atol=1e-7 * scale,
        )
        outcome = ode.integrate(spec)
        return abs(outcome.final_state[0] - math.exp(math.sin(6.0)))

    coarse = run(1.0)
    fine = run(1.0 / 32.0)
    assert coarse >= 8.0 * fine


def test_bitwise_determinism():
    a = ode.integrate(_decay_spec())
    b = ode.integrate(_decay_spec())
    assert a.times.tobytes() == b.times.tobytes()
    assert a.states.tobytes() == b.states.tobytes()


def test_interpolation_matches_known_solution():
    # dense output is cubic Hermite, one order below the advancing
    # solution, so it gets a looser budget than the endpoint values
    outcome = ode.integrate(_decay_spec())
    ts = np.linspace(0.0, 1.0, 57)
    vals = outcome.interpolate(ts)[:, 0]
    exact = 3.0 * np.exp(-2.0 * ts)
    assert np.max(np.abs(vals - exact)) <= 1e-7
    with pytest.raises(OutOfDomainError):
        outcome.interpolate(1.5)


def test_domain_exit_on_nonfinite_rhs():
    # the right-hand side stops being finite while the state is small:
    # that is a domain exit, not a blow-up
    def rhs(t, y):
        if t > 0.5:
            return np.array([math.nan])
        return -y

    spec = ode.IvpSpec(
        dimension=1, rhs=rhs, y0=np.array([1.0]), t0=0.0, horizon=2.0
    )
    outcome = ode.integrate(spec)
    assert outcome.kind == ode.DOMAIN_EXIT
    assert abs(outcome.t_end - 0.5) <= 1e-6


def test_bisect_parameter_scalar_family():
    # r' = r^2 - c r with r0 = 1: the flow escapes exactly when c < 1
    def family(c):
        return ode.IvpSpec(
            dimension=1,
            rhs=lambda t, y, c=c: y**2 - c * y,
            y0=np.array([1.0]),
            t0=0.0,
            horizon=60.0,
            rtol=1e-8,
            atol=1e-10,
        )

    c_star = ode.bisect_parameter(family, 0.2, 1.8, 1e-3)
    assert abs(c_star - 1.0) <= 5e-3

    with pytest.raises(BracketError):
        ode.bisect_parameter(family, 1.5, 1.8, 1e-3)
    assert ode.bisect_parameter(family, 0.4, 0.4, 1e-3) == 0.4


def test_norm_tail_classification():
    decayed = ode.integrate(_decay_spec(horizon=8.0))
    assert ode.norm_nonincreasing_tail(decayed)

    growing = ode.integrate(
        ode.IvpSpec(
            dimension=1,
            rhs=lambda t, y: 0.3 * y,
            y0=np.array([1.0]),
            t0=0.0,
            horizon=4.0,
        )
    )
    assert not ode.norm_nonincreasing_tail(growing)


def test_spec_validation():
    with pytest.raises(ValueError):
        ode.IvpSpec(dimension=2, rhs=lambda t, y: y, y0=np.array([1.0]),
                    t0=0.0, horizon=1.0)
    with pytest.raises(ValueError):
        ode.IvpSpec(dimension=1, rhs=lambda t, y: y, y0=np.array([1.0]),
                    t0=1.0, horizon=1.0)
    with pytest.raises(ValueError):
        ode.IvpSpec(dimension=1, rhs=lambda t, y: y, y0=np.array([2.0]),
                    t0=0.0, horizon=1.0, blowup_threshold=1.0)
