"""Integrator engine: accuracy, blow-up detection, classification."""

import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest

from evocontrol import control, fd, galerkin, heat, kaplan, ode
from evocontrol.errors import (
    EvocontrolError,
    HistoryError,
    OutOfDomainError,
    StepBudgetError,
)


def _decay_spec(rate=2.0, y0=3.0, horizon=1.0, rtol=1e-10, atol=1e-12):
    return ode.IvpSpec(
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
        rhs=lambda t, y: y**2,
        y0=np.array([1.0]),
        t0=0.0,
        horizon=5.0,
        blowup_threshold=1e6,
    )
    outcome = ode.integrate(spec)
    assert outcome.kind == ode.BLOW_UP
    assert outcome.max_norms[-1] > 1e6
    assert np.all(outcome.max_norms[:-1] <= 1e6)
    # the run ends on the escaping step, which is at most 5e-7 long
    assert outcome.times[-1] - outcome.times[-2] <= 5e-7


@pytest.mark.parametrize("horizon, longest", [(5.0, 5e-7), (1e6, 2e-6)])
def test_long_escaping_step_is_halved(horizon, longest):
    # y' = y^2 from 1 crosses 10 at t = 0.9, where the controller takes
    # steps far longer than 5e-7; a crossing attempt is retried on at
    # most half the step, and no later step reaches past half of the
    # rest of it, until the escaping step is at most 5e-7 long. On a
    # window of 1e6, min_step (1e-6) exceeds that: the retries stop at
    # min_step, and the run is still a threshold escape
    rhs, calls = _counted(lambda t, y: y * y)
    outcome = ode.integrate(_spec(rhs, horizon=horizon,
                                  blowup_threshold=10.0))
    stats = outcome.stats
    assert stats.termination == ode.THRESHOLD_ESCAPE
    assert stats.h_max > 1e-3
    assert abs(outcome.t_end - 0.9) <= 1e-6
    last = outcome.times[-1] - outcome.times[-2]
    assert outcome.spec.min_step <= last <= longest
    norms = outcome.max_norms
    assert norms[-1] > 10.0 and np.all(norms[:-1] <= 10.0)
    assert stats.rhs_calls == len(calls)
    # a run that forgot each retry and grew the step past the crossing
    # again made 578 calls at horizon 5; a bisection by RK sub-steps of
    # the crossing step made 435
    assert stats.rhs_calls <= 435


def test_tolerance_reduction_buys_accuracy():
    # Fifth-order advancing solution: dividing both tolerances by 32
    # roughly halves the accepted steps, which should cut the global
    # error by at least 8x on a smooth problem.
    def run(scale):
        spec = ode.IvpSpec(
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
    assert np.asarray(a.states).tobytes() == np.asarray(b.states).tobytes()


def test_outcomes_compare_to_a_bool():
    # the fields hold arrays, so an element-wise == must not decide it
    a = ode.integrate(_decay_spec())
    b = ode.integrate(_decay_spec())
    assert (a == b) is False
    assert (a == a) is True
    assert (a != b) is True


def test_interpolation_matches_known_solution():
    # the 7th-order dense output, one order below the advancing
    # solution, gets a looser budget than the endpoint values
    outcome = ode.integrate(_decay_spec())
    ts = np.linspace(0.0, 1.0, 57)
    vals = outcome.interpolate(ts)[:, 0]
    exact = 3.0 * np.exp(-2.0 * ts)
    assert np.max(np.abs(vals - exact)) <= 1e-7
    with pytest.raises(OutOfDomainError):
        outcome.interpolate(1.5)


def test_tableau_is_dop853():
    # the inlined constants carry the bits of scipy's DOP853 coefficients
    coeffs = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
    A = np.zeros((16, 16))
    for i, row in enumerate(ode._A):
        A[i, :i] = row
    assert np.array(ode._C).tobytes() == coeffs.C.tobytes()
    assert A.tobytes() == coeffs.A.tobytes()
    assert ode._B.tobytes() == coeffs.B.tobytes()
    assert np.append(ode._E3, 0.0).tobytes() == coeffs.E3.tobytes()
    assert np.append(ode._E5, 0.0).tobytes() == coeffs.E5.tobytes()
    assert ode._D.tobytes() == coeffs.D.tobytes()
    # every stage sits at the node its row sums to
    for row, node in zip(ode._A, ode._C):
        assert abs(math.fsum(row) - node) <= 1e-14


@pytest.mark.parametrize(
    "rhs, y0, horizon, exact",
    [
        (lambda t, y: -2.0 * y, 3.0, 1.0, lambda t: 3.0 * np.exp(-2.0 * t)),
        (lambda t, y: y * y, 1.0, 0.9, lambda t: 1.0 / (1.0 - t)),
    ],
)
def test_dense_output_inside_the_steps(rhs, y0, horizon, exact):
    # the 7th-order dense output holds the accuracy of the grid values
    # between them, where the steps of the 8th-order pair are longest
    rtol = 1e-10
    outcome = ode.integrate(_spec(rhs, y0=y0, horizon=horizon, rtol=rtol,
                                  atol=1e-12))
    t = outcome.times
    inner = np.concatenate([t[:-1] + f * np.diff(t)
                            for f in (0.1, 0.37, 0.5, 0.83)])
    vals = outcome.interpolate(inner)[:, 0]
    assert np.max(np.abs(vals - exact(inner)) / exact(inner)) <= 10 * rtol
    # the interpolant meets the stored samples at the grid times
    states = np.asarray(outcome.states)[:, 0]
    assert np.max(np.abs(outcome.interpolate(t)[:, 0] - states)
                  / states) <= 1e-14


def _package_rhs_cases():
    """(name, rhs, random states of shape (n, 5)) for every right-hand
    side the package integrates."""
    rng = np.random.default_rng(5)
    cases = []
    for modes, p in (((1, 3), 2), ((1, 3, 5), 3)):
        model = galerkin.build_model(modes, p)
        y = rng.normal(size=(len(modes) + 1, 5))
        y[-1] = np.abs(y[-1])
        for factor in (1.0, 0.0):
            cases.append((f"coupled {modes} x{factor}",
                          heat._coupled_rhs(model, factor), y))
    cases.append(("fd N=64", fd.semidiscrete_rhs(64, 2),
                  rng.normal(size=(64, 5))))
    for p in (2, 3, 4):
        spec = kaplan._comparison_spec(2.0, p, 1.0)
        cases.append((f"kaplan p={p}", spec.rhs,
                      rng.uniform(0.5, 3.0, size=(1, 5))))
    problem = control.ControlProblem(
        semigroup=control.SemigroupEstimator(U=1.5, B=0.5),
        errors=control.ErrorEstimators(delta=0.1, eps=lambda t: 0.1 * t),
        growth=control.PolynomialGrowth.pure_power(1.0, 2, radius=5.0),
        t0=0.0,
        horizon=1.0,
    )
    # one column past the growth radius, where the value is inf
    cases.append(("control", control.as_ivp(problem).rhs,
                  np.array([[0.0, 0.3, 2.0, 4.9, 5.5]])))
    return cases


_RHS_CASES = _package_rhs_cases()


@pytest.mark.parametrize("name, rhs, states", _RHS_CASES,
                         ids=[case[0] for case in _RHS_CASES])
def test_rhs_column_contract(name, rhs, states):
    # (n, K) columns at (K,) times give, column by column, the (n,) call
    for K in (1, 5):
        y = states[:, :K].copy()
        t = np.linspace(0.0, 1.0, K)
        batch = rhs(t, y)
        assert batch.shape == y.shape
        for j in range(K):
            one = rhs(float(t[j]), y[:, j].copy())
            if name.startswith("coupled") and K > 1:
                # the Galerkin kernel's products go to BLAS, which rounds
                # one state (gemv, ddot) and a batch of rows (gemm) in a
                # different order: the columns agree to a few units in
                # the last place of the column's largest entry
                scale = np.max(np.abs(one))
                assert np.max(np.abs(batch[:, j] - one)) <= (
                    16 * np.finfo(float).eps * scale)
            else:
                assert batch[:, j].tobytes() == one.tobytes()


def _kaplan_outcome():
    return ode.integrate(kaplan._comparison_spec(2.0, 3, 100.0))


def _fd_outcome():
    return ode.integrate(fd._mol_spec(fd.FdConfig(A=20.0, N=64)))


@pytest.mark.parametrize("run", [_kaplan_outcome, _fd_outcome])
def test_dense_output_does_not_depend_on_the_chunks(monkeypatch, run):
    # the stage combinations add term by term, so with an elementwise
    # right-hand side one step per chunk gives the bits of the default
    outcome = run()
    t = np.linspace(outcome.times[0], outcome.times[-1], 777)
    default = outcome.interpolate(t)
    monkeypatch.setattr(ode, "_DENSE_BYTES", 16 * 8 * outcome.spec.dimension)
    assert outcome.interpolate(t).tobytes() == default.tobytes()


def test_dense_output_chunks_of_the_coupled_run(monkeypatch):
    # the coupled right-hand side rounds batches through BLAS (see
    # test_rhs_column_contract), so one step per chunk agrees to a few
    # units in the last place of each component's range
    outcome = ode.integrate(
        heat.assemble_coupled_system(heat.HeatScenario(A=2.0)))
    t = heat._sample_times(outcome)
    default = outcome.interpolate(t)
    monkeypatch.setattr(ode, "_DENSE_BYTES", 16 * 8 * outcome.spec.dimension)
    single = outcome.interpolate(t)
    scale = np.max(np.abs(default), axis=0)
    assert np.all(np.max(np.abs(single - default), axis=0)
                  <= 16 * np.finfo(float).eps * scale)


@pytest.mark.parametrize("steps_per_chunk", [None, 1, 3])
def test_dense_output_makes_14_calls_per_chunk(monkeypatch, steps_per_chunk):
    calls = [0]

    def rhs(t, y):
        calls[0] += 1
        return y * y

    outcome = ode.integrate(_spec(rhs, y0=1.0, horizon=0.9, rtol=1e-10,
                                  atol=1e-12))
    steps = outcome.stats.accepted
    assert steps >= 10
    width = ode._DENSE_BYTES // (16 * 8)
    if steps_per_chunk is not None:
        width = steps_per_chunk
        monkeypatch.setattr(ode, "_DENSE_BYTES", 16 * 8 * width)
    # one query inside every step
    t = outcome.times[:-1] + 0.5 * np.diff(outcome.times)
    calls[0] = 0
    outcome.interpolate(t)
    assert calls[0] == 14 * math.ceil(steps / width)


def test_heat_blowup_rejects_few_attempts():
    # Gustafsson's factor keeps the controller from alternating accepted
    # and rejected steps along the blow-up tail
    outcome = ode.integrate(
        heat.assemble_coupled_system(heat.HeatScenario(A=2.0)))
    assert outcome.stats.termination == ode.THRESHOLD_ESCAPE
    assert outcome.stats.rejected <= 0.1 * outcome.stats.accepted


def test_blowup_runs_emit_no_warning():
    # trial stages of the long steps overflow inside the RHS (y**p); the
    # attempt is retried, and the run stays silent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fd.fd_single_run(fd.FdConfig(A=100.0, N=512)).blew_up
        assert kaplan.comparison_blowup_time(10.0, 4) > 0.0


def test_domain_exit_on_nonfinite_rhs():
    # the right-hand side stops being finite while the state is small:
    # that is a domain exit, not a blow-up
    def rhs(t, y):
        if t > 0.5:
            return np.array([math.nan])
        return -y

    spec = ode.IvpSpec(
        rhs=rhs, y0=np.array([1.0]), t0=0.0, horizon=2.0
    )
    outcome = ode.integrate(spec)
    assert outcome.kind == ode.DOMAIN_EXIT
    assert abs(outcome.t_end - 0.5) <= 1e-6


def test_interpolation_without_an_accepted_step():
    # non-finite for every t > 0: no step is accepted, and the outcome
    # holds the initial sample alone
    def rhs(t, y):
        return -y if t == 0.0 else np.array([math.nan])

    outcome = ode.integrate(_spec(rhs))
    assert outcome.kind == ode.DOMAIN_EXIT
    assert outcome.stats.accepted == 0 and len(outcome.times) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert outcome.interpolate(0.0).tolist() == [1.0]
        assert outcome.interpolate(np.zeros(3)).tolist() == [[1.0]] * 3
    with pytest.raises(OutOfDomainError):
        outcome.interpolate(0.1)


def _assert_fd_run_matches_replay(run, replay):
    """An FD run, which keeps no step history, against the replay of its
    spec with the history kept: grid, max-norms, minimum and estimate
    carry the same bits."""
    assert run.times.tobytes() == replay.times.tobytes()
    assert run.max_norms.tobytes() == replay.max_norms.tobytes()
    assert run.min_value.hex() == float(np.min(replay.minima)).hex()
    assert run.estimate.hex() == replay.t_end.hex()


def test_history_reductions_match_the_stacked_states():
    # max-norms and minima are the per-step series of the run; max and
    # min are exact, so they carry the bits of the reductions of the
    # stacked states
    config = fd.FdConfig(A=20.0, N=64)
    replay = ode.integrate(fd._mol_spec(config))
    states = np.asarray(replay.states)
    assert replay.final_state.tobytes() == states[-1].tobytes()
    norms = np.max(np.abs(states), axis=1)
    assert replay.max_norms.tobytes() == norms.tobytes()
    assert replay.minima.tobytes() == np.min(states, axis=1).tobytes()
    _assert_fd_run_matches_replay(fd.fd_single_run(config), replay)


def test_a_run_without_history_keeps_its_last_sample():
    spec = fd._mol_spec(fd.FdConfig(A=20.0, N=64))
    full = ode.integrate(spec)
    lean = ode.integrate(dataclasses.replace(spec, dense_output=False))
    for a, b in ((full.times, lean.times),
                 (full.max_norms, lean.max_norms),
                 (full.minima, lean.minima),
                 (full.final_state, lean.final_state),
                 (full.derivs[-1], lean.derivs[-1])):
        assert a.tobytes() == b.tobytes()
    assert len(lean.states) == len(lean.derivs) == 1
    assert lean.stats == full.stats
    with pytest.raises(HistoryError):
        lean.interpolate(0.5 * lean.t_end)
    assert issubclass(HistoryError, EvocontrolError)


def test_spec_validation():
    for y0 in (np.ones((1, 1)), np.ones(0)):
        with pytest.raises(ValueError, match="1-d"):
            ode.IvpSpec(rhs=lambda t, y: y, y0=y0, t0=0.0, horizon=1.0)
    with pytest.raises(ValueError):
        ode.IvpSpec(rhs=lambda t, y: y, y0=np.array([1.0]),
                    t0=1.0, horizon=1.0)
    with pytest.raises(ValueError):
        ode.IvpSpec(rhs=lambda t, y: y, y0=np.array([2.0]),
                    t0=0.0, horizon=1.0, blowup_threshold=1.0)


def test_spec_rejects_an_infinite_window():
    # min_step is 1e-12 of the window: an infinite window would make every
    # step a collapse, so a run would "blow up" at t0
    for t0, horizon in ((0.0, math.inf), (-math.inf, 1.0), (0.0, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            ode.IvpSpec(rhs=lambda t, y: -y, y0=np.array([1.0]),
                        t0=t0, horizon=horizon)


def test_min_step_follows_the_window():
    # a copy with another horizon (how critical-amplitude runs are
    # replayed without their stop) gets the min_step of its own window
    spec = ode.IvpSpec(rhs=lambda t, y: -y, y0=np.array([1.0]),
                       t0=0.0, horizon=1e4)
    assert spec.min_step == 1e-8
    assert dataclasses.replace(spec, horizon=50.0).min_step == 5e-11


def _counted(rhs):
    """Wrap an RHS so the test sees every call time."""
    calls = []

    def wrapped(t, y):
        calls.append(t)
        return rhs(t, y)

    return wrapped, calls


def _spec(rhs, y0=1.0, horizon=1.0, **kw):
    return ode.IvpSpec(rhs=rhs, y0=np.array([y0]), t0=0.0,
                       horizon=horizon, **kw)


def _nan_after_half(t, y):
    return np.array([math.nan]) if t > 0.5 else -y


@pytest.mark.parametrize(
    "rhs, kw, kind, termination",
    [
        (lambda t, y: -2.0 * y, {}, ode.REACHED_HORIZON, ode.HORIZON),
        (lambda t, y: y**2, {"horizon": 5.0, "blowup_threshold": 1e6},
         ode.BLOW_UP, ode.THRESHOLD_ESCAPE),
        (lambda t, y: y**2, {"horizon": 1e9},
         ode.BLOW_UP, ode.MIN_STEP_COLLAPSE),
        (_nan_after_half, {"horizon": 2.0}, ode.DOMAIN_EXIT, ode.NONFINITE),
        (lambda t, y: -2.0 * y, {"stop": lambda t, y: y[0] < 0.5},
         ode.STOPPED, ode.STOPPED),
    ],
)
def test_stats_count_the_run(rhs, kw, kind, termination):
    counted, calls = _counted(rhs)
    outcome = ode.integrate(_spec(counted, **kw))
    stats = outcome.stats
    assert outcome.kind == kind
    assert stats.termination == termination
    assert stats.rhs_calls == len(calls)
    assert stats.accepted == len(outcome.times) - 1
    steps = np.diff(outcome.times)
    assert stats.h_min == steps.min() and stats.h_max == steps.max()
    assert (stats.nonfinite_retries > 0) == (termination == ode.NONFINITE)
    assert outcome.t_end == outcome.times[-1]
    if termination == ode.HORIZON:
        # no escape bracketing: twelve fresh stages per attempt after the
        # initial evaluation and the first-step guess
        assert stats.rhs_calls == 2 + 12 * (stats.accepted + stats.rejected)


@pytest.mark.parametrize("rhs, kw", [
    (lambda t, y: -2.0 * y, {}),
    # a threshold escape that shortens its crossing step
    (lambda t, y: y * y, {"horizon": 5.0, "blowup_threshold": 1e6}),
])
def test_stop_is_asked_on_every_step_that_did_not_escape(rhs, kw):
    asked = []

    def never(t, y):
        asked.append((t, y))
        return False

    plain = ode.integrate(_spec(rhs, **kw))
    watched = ode.integrate(_spec(rhs, stop=never, **kw))
    for a, b in ((plain.times, watched.times), (plain.states, watched.states),
                 (plain.derivs, watched.derivs)):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
    assert watched.stats == plain.stats
    assert (watched.kind, watched.t_end) == (plain.kind, plain.t_end)
    # the escaping step is never asked
    last = -1 if plain.kind == ode.BLOW_UP else None
    assert [t for t, _ in asked] == plain.times[1:last].tolist()
    assert all(y is x for (_, y), x in zip(asked, watched.states[1:]))


def test_a_stopped_run_is_a_prefix_of_the_full_run():
    full = ode.integrate(_spec(lambda t, y: y * y, horizon=5.0))
    stopped = ode.integrate(_spec(lambda t, y: y * y, horizon=5.0,
                                  stop=lambda t, y: y[0] > 2.0))
    n = len(stopped.times)
    assert stopped.stats.termination == ode.STOPPED
    assert stopped.final_state[0] > 2.0
    assert np.all(np.asarray(stopped.states[:-1]) <= 2.0)
    assert stopped.times.tobytes() == full.times[:n].tobytes()
    assert (np.asarray(stopped.states).tobytes()
            == np.asarray(full.states[:n]).tobytes())


def test_nonfinite_middle_stage_is_rejected_early():
    # A clean run shows the first attempt: calls 0 and 1 are the initial
    # point and the first-step guess, calls 2 and 3 the stages at c1 h
    # and c2 h. Poison exactly the time of stage 2 of that attempt.
    clean, clean_calls = _counted(lambda t, y: -y)
    first = ode.integrate(_spec(clean))
    assert first.stats.rejected == first.stats.nonfinite_retries == 0
    h = first.times[1]
    t_bad = clean_calls[3]

    rhs, calls = _counted(
        lambda t, y: np.array([math.nan]) if t == t_bad else -y
    )
    outcome = ode.integrate(_spec(rhs))
    assert calls[:4] == clean_calls[:4]
    # the next call is stage 1 of a new attempt with h quartered, so no
    # stage after the non-finite one was evaluated
    assert calls[4] == 0.05260015195876773 * (h * 0.25)  # c1 of DOP853
    assert outcome.times[1] == h * 0.25
    stats = outcome.stats
    assert stats.nonfinite_retries == 1
    assert stats.rhs_calls == len(calls)
    assert stats.rhs_calls == 2 + 2 + 12 * (stats.accepted + stats.rejected)
    assert outcome.kind == ode.REACHED_HORIZON
    assert abs(outcome.final_state[0] - math.exp(-1.0)) <= 1e-9


def test_escape_on_a_concave_norm_keeps_its_bracket():
    # y' = cos t from 0 crosses 0.9 at asin(0.9) with a concave norm, so
    # the chord estimate lies past the crossing and the retries approach
    # it from below, on steps capped at half the rest of the last
    # crossing attempt. It makes 302 calls; a run that forgot each retry
    # made 566, one that retried on the chord without the cap 710
    rhs, calls = _counted(lambda t, y: np.cos(t) + 0.0 * y)
    outcome = ode.integrate(_spec(rhs, y0=0.0, horizon=10.0,
                                  blowup_threshold=0.9))
    assert outcome.stats.termination == ode.THRESHOLD_ESCAPE
    assert outcome.times[-1] - outcome.times[-2] <= 5e-7
    assert abs(outcome.t_end - math.asin(0.9)) <= 1e-6
    norms = outcome.max_norms
    assert norms[-1] > 0.9 and np.all(norms[:-1] <= 0.9)
    assert outcome.stats.rhs_calls == len(calls) <= 320


def test_unconfirmed_crossing_releases_the_step_cap(monkeypatch):
    # y' = 0 from 1 takes 12 calls per attempt, each step 5 times the
    # last. Attempt k, the first longer than 0.01, sees y' = 100 in all
    # its stages and in its FSAL stage, so it crosses 2 with a zero error
    # estimate; no later step crosses. Once the run passes the end of
    # that attempt, its steps grow again instead of staying at 2.5e-7
    monkeypatch.setattr(ode, "_MAX_STEPS", 20_000)
    grid = ode.integrate(_spec(lambda t, y: 0.0 * y)).times
    k = int(np.argmax(np.diff(grid) > 0.01))
    spike = range(1 + 12 * k, 14 + 12 * k)
    rhs, calls = _counted(
        lambda t, y: 100.0 + 0.0 * y if len(calls) - 1 in spike else 0.0 * y)
    outcome = ode.integrate(_spec(rhs, blowup_threshold=2.0))
    assert outcome.kind == ode.REACHED_HORIZON
    assert outcome.final_state[0] < 2.0
    assert outcome.stats.h_max > 0.1


def _wide_first_attempt(poison):
    """Runs y' = -y on 512 entries twice: clean, and with ``poison``
    applied to stage 2 of the first attempt. Returns the first step of
    the clean run, the call times of both runs and the poisoned run."""
    y0 = np.linspace(0.5, 1.5, 512)
    clean, clean_calls = _counted(lambda t, y: -y)
    first = ode.integrate(ode.IvpSpec(rhs=clean, y0=y0, t0=0.0, horizon=1.0))
    t_bad = clean_calls[3]

    def poisoned(t, y):
        return poison(-y) if t == t_bad else -y

    rhs, calls = _counted(poisoned)
    outcome = ode.integrate(ode.IvpSpec(rhs=rhs, y0=y0, t0=0.0, horizon=1.0))
    assert outcome.kind == ode.REACHED_HORIZON
    assert np.max(np.abs(outcome.final_state - y0 * math.exp(-1.0))) <= 1e-9
    return first.times[1], clean_calls, calls, outcome


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_nonfinite_entry_of_a_wide_stage_is_rejected_at_that_stage(bad):
    def poison(k):
        k[300] = bad
        return k

    h, clean_calls, calls, outcome = _wide_first_attempt(poison)
    assert calls[:4] == clean_calls[:4]
    # the next call is stage 1 of a new attempt with h quartered
    assert calls[4] == 0.05260015195876773 * (h * 0.25)
    assert outcome.stats.nonfinite_retries == 1


def test_huge_finite_stage_is_not_flagged():
    # a stage of 512 entries of 1e300 is finite, though their squares are
    # not: the attempt goes on to stage 3 at the clean run's time
    _, clean_calls, calls, outcome = _wide_first_attempt(
        lambda k: np.full_like(k, 1e300))
    assert calls[:5] == clean_calls[:5]
    assert outcome.stats.nonfinite_retries == 0


def test_rhs_may_reuse_its_output_buffer():
    # an RHS that writes every result into one array must give the same
    # bits as one that returns fresh arrays, through rejected attempts
    # (the next attempt starts from the stored FSAL stage) and through
    # the escaping step, whose FSAL stage is stored too
    buf = np.empty(1)
    runs = [
        ode.integrate(_spec(rhs, horizon=5.0, blowup_threshold=1e6,
                            rtol=1e-6, atol=1e-8))
        for rhs in (lambda t, y: y * y,
                    lambda t, y: np.multiply(y, y, out=buf))
    ]
    fresh, reused = runs
    assert fresh.stats.rejected > 0
    assert fresh.stats.termination == ode.THRESHOLD_ESCAPE
    for a, b in ((fresh.times, reused.times), (fresh.states, reused.states),
                 (fresh.derivs, reused.derivs)):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def _run_digest(monkeypatch, fn):
    """Call fn while recording every integration; returns its value, the
    outcomes and a SHA-256 over their kinds, end times and histories."""
    outcomes = []
    integrate = ode.integrate

    def recording(spec):
        outcome = integrate(spec)
        outcomes.append(outcome)
        return outcome

    monkeypatch.setattr(ode, "integrate", recording)
    value = fn()
    monkeypatch.setattr(ode, "integrate", integrate)
    digest = hashlib.sha256()
    for o in outcomes:
        digest.update(o.kind.encode())
        digest.update(float(o.t_end).hex().encode())
        for a in (o.times, o.states, o.derivs):
            digest.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return value, outcomes, digest.hexdigest()


# Bits of four runs (numpy 2.4 with OpenBLAS on x86-64; another BLAS may
# round the stage combinations and the node sums differently), pinned at
# the DOP853 stepping core. The digests cover times, states and
# derivatives of every integration each run makes.
def test_pinned_bits_coupled_scenario(monkeypatch):
    result, outcomes, digest = _run_digest(
        monkeypatch, lambda: heat.run_scenario(heat.HeatScenario(A=2.0)))
    assert result.t_g.hex() == "0x1.8bd3eacb08d2dp-1"
    assert len(outcomes[0].times) == 151
    assert digest == (
        "13662caa953f291a27da7f7ebf9e6206b0e9a087993da1e99d504b748d46736d")


def test_pinned_bits_kaplan_comparison(monkeypatch):
    t_esc, outcomes, digest = _run_digest(
        monkeypatch, lambda: kaplan.comparison_blowup_time(2.0, 3))
    assert t_esc.hex() == "0x1.269620e929645p-3"
    assert len(outcomes[0].times) == 228
    assert digest == (
        "e2acc3113b5fae034d4367734f9481815b6f3af53657a833c3663c1543b3642d")


def test_pinned_bits_fd_run(monkeypatch):
    # the FD run keeps no step history, so the digest is taken on the
    # replay of its spec with the history kept
    config = fd.FdConfig(A=20.0, N=64)
    replay, _, digest = _run_digest(
        monkeypatch, lambda: ode.integrate(fd._mol_spec(config)))
    run = fd.fd_single_run(config)
    assert run.estimate.hex() == "0x1.109eec0f884bfp-4"
    assert len(run.times) - 1 == 49
    _assert_fd_run_matches_replay(run, replay)
    assert digest == (
        "35d6f1095a665af77512f27e70494c8fd5a797555077df7da0885abcf527811e")


def test_pinned_bits_critical_amplitude(monkeypatch):
    value, outcomes, digest = _run_digest(monkeypatch, heat.critical_amplitude)
    assert value.hex() == "0x1.0e93fffffffffp+0"
    assert len(outcomes) == 14
    # each run ends where a certificate decides it
    assert all(o.kind == ode.STOPPED for o in outcomes)
    assert sum(len(o.times) for o in outcomes) == 743
    assert digest == (
        "3f12b0902e34ae06d733d34ab901a4450284a346c8e388941f73d0f7459f15d6")
