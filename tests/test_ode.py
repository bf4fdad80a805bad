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
    # r' = r^p from r0 reaches r at (r0^(1-p) - r^(1-p))/(p-1), by
    # separation of variables; the escape time is that crossing of the
    # 1e8 threshold, located on the escaping step's dense output
    r0 = 1.3
    for p in (2, 3, 4):
        t_cross = (r0 ** (1 - p) - 1e8 ** (1 - p)) / (p - 1)
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
        assert abs(outcome.t_end - t_cross) <= 1e-9 * t_cross


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
    # the run ends on the escaping step; near the pole the controller's
    # steps shrink with 1 - t, so that step is at most 5e-7 long
    assert outcome.times[-1] - outcome.times[-2] <= 5e-7


@pytest.mark.parametrize("rhs, y0, threshold, t_cross", [
    # y' = y^2 from 1: y = 1/(1 - t) crosses the level at 1 - 1/level
    (lambda t, y: y * y, 1.0, 1e6, 1.0 - 1e-6),
    (lambda t, y: y * y, 1.0, 10.0, 0.9),
    # y' = cos t from 0, a concave norm
    (lambda t, y: np.cos(t) + 0.0 * y, 0.0, 0.9, math.asin(0.9)),
])
def test_threshold_escape_is_located(rhs, y0, threshold, t_cross):
    # the run ends on the accepted step that carries max |y| past the
    # threshold, and t_end is the crossing located inside that step
    counted, calls = _counted(rhs)
    outcome = ode.integrate(_spec(counted, y0=y0, horizon=5.0,
                                  blowup_threshold=threshold))
    assert outcome.stats.termination == ode.THRESHOLD_ESCAPE
    norms = outcome.max_norms
    assert norms[-1] > threshold and np.all(norms[:-1] <= threshold)
    assert outcome.times[-2] < outcome.t_end <= outcome.times[-1]
    assert abs(outcome.t_end - t_cross) <= 1e-9
    assert outcome.stats.rhs_calls == len(calls)


@pytest.mark.parametrize("c", [6.0, 6.5, 6.8, 6.9])
def test_escape_where_the_largest_entry_changes(c):
    # y0 = c + t and y1 = t^2: the dense output is exact, and max |y|
    # reaches 10 at min(sqrt(10), 10 - c), inside an escaping step over
    # which the largest entry changes, so max |y| is no polynomial there
    def rhs(t, y):
        return np.stack((np.ones_like(y[0]), 2.0 * (y[0] - c)))

    outcome = ode.integrate(ode.IvpSpec(rhs=rhs, y0=np.array([c, 0.0]),
                                        t0=0.0, horizon=10.0,
                                        blowup_threshold=10.0))
    assert outcome.stats.termination == ode.THRESHOLD_ESCAPE
    start, end = outcome.states[-2:]
    assert np.argmax(np.abs(start)) != np.argmax(np.abs(end))
    assert abs(outcome.t_end - min(math.sqrt(10.0), 10.0 - c)) <= 1e-12


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


def _combine(terms, k: np.ndarray) -> np.ndarray:
    """sum_j w_j k[j] over the (j, w_j) ``terms``, added term by term in
    their order: the reference for the engine's stage combinations."""
    (j, w), *rest = terms
    acc = w * k[j]
    for j, w in rest:
        acc += w * k[j]
    return acc


def _reference_coefficients(rhs, start, end) -> np.ndarray:
    """ode._step_coefficients with every combination of stages made by
    _combine from the nonzero entries of the tableau."""
    (t0, y0, f0), (t1, y1, f1) = start, end
    h = t1 - t0
    k = np.empty((16,) + y0.shape)
    k[0] = f0
    k[12] = f1

    def terms(row):
        return [(j, w) for j, w in enumerate(row) if w != 0.0]

    for i in (*range(1, 12), 13, 14, 15):
        k[i] = rhs(t0 + ode._C[i] * h, y0 + h * _combine(terms(ode._A[i]), k))
    dy = y1 - y0
    return np.stack((dy, h * f0 - dy, 2.0 * dy - h * (f0 + f1),
                     *(h * _combine(terms(row.tolist()), k) for row in ode._D)))


def _oracle_step(shape, seed):
    """An elementwise right-hand side and the two ends of one step (float
    times, (n,) rows) or of S steps ((S,) times, (n, S) columns)."""
    def rhs(t, y):
        return np.sin(3.0 * y) * y - 0.5 * y + t

    rng = np.random.default_rng(seed)
    y0 = rng.normal(size=shape) * rng.choice([1e-3, 1.0, 1e3], size=shape)
    y1 = y0 + rng.normal(size=shape)
    if len(shape) == 1:
        t0, t1 = 0.25, 0.25 + 0.01 * rng.uniform(0.5, 2.0)
    else:
        t0 = np.cumsum(rng.uniform(0.001, 0.1, size=shape[1]))
        t1 = t0 + rng.uniform(0.001, 0.1, size=shape[1])
    return rhs, (t0, y0, rhs(t0, y0)), (t1, y1, rhs(t1, y1))


@pytest.mark.parametrize("shape", [
    (1,), (3,), (512,), (3, 7), (3, 33), (3, 34), (3, 341),
])
def test_step_coefficients_keep_the_bits_of_the_term_loop(shape):
    rhs, start, end = _oracle_step(shape, seed=sum(shape))
    got = ode._step_coefficients(rhs, start, end)
    assert got.shape == (7,) + shape
    assert got.tobytes() == _reference_coefficients(rhs, start, end).tobytes()


@pytest.mark.parametrize("entries", [3, 512])
def test_combinations_keep_a_negative_zero(entries):
    # a sum of products that are all -0.0 is -0.0; an ordered sum that
    # started from +0.0 would give +0.0
    stages = np.full((16, entries), -0.0)
    for row in (*ode._A[1:12], *ode._A[13:], *ode._D):
        positive = np.abs(np.asarray(row, dtype=float))
        got = ode._combination(stages, ode._nonzero_terms(positive))
        want = _combine([(j, w) for j, w in enumerate(positive) if w], stages)
        assert np.all(np.signbit(got)) and np.all(got == 0.0)
        assert got.tobytes() == want.tobytes()


def test_horner_on_floats_keeps_the_bits_of_arrays():
    rng = np.random.default_rng(3)
    y0 = rng.normal(size=(2, 9))
    coeffs = rng.normal(size=(7, 2, 9)) * np.logspace(0, -6, 7)[:, None, None]
    x = np.concatenate(([0.0, 1.0], rng.uniform(size=7)))
    values = ode._horner(y0, coeffs, x)
    for i in range(2):
        for j in range(9):
            one = ode._horner(y0[i, j].item(), coeffs[:, i, j].tolist(),
                              x[j].item())
            assert one.hex() == values[i, j].item().hex()


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
    cases.append(("control",
                  control.pure_power_ivp(1.5, 0.5, 0.7, 3, 0.1, 1.0).rhs,
                  np.array([[0.0, 0.3, 1.0, 2.0, 4.9]])))
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
    t = heat._sample_times(float(outcome.times[-1]), True)
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


def test_blowup_tail_rejects_few_attempts():
    # Gustafsson's factor keeps the controller from alternating accepted
    # and rejected steps along a blow-up tail: the pure-power problem
    # R' = R^2 - R (Kaplan's comparison problem at p = 2), integrated in
    # R up to the threshold, rejects none of its 144-165 steps, and
    # without the factor about one per step
    for q0 in (1.1, 2.0, 5.0):
        outcome = ode.integrate(control.pure_power_ivp(1, 1, 1, 2, q0, 100))
        assert outcome.stats.termination == ode.THRESHOLD_ESCAPE
        assert outcome.stats.rejected <= 0.1 * outcome.stats.accepted


def test_blowup_runs_emit_no_warning():
    # trial stages of the long steps overflow inside the RHS (y**p); the
    # attempt is retried, and the run stays silent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fd.fd_single_run(fd.FdConfig(A=100.0, N=512)).blew_up
        outcome = ode.integrate(control.pure_power_ivp(1, 1, 1, 4, 10.0, 100))
        assert outcome.kind == ode.BLOW_UP


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
    if termination == ode.THRESHOLD_ESCAPE:
        # the located crossing lies inside the escaping step
        assert outcome.times[-2] < outcome.t_end <= outcome.times[-1]
    else:
        assert outcome.t_end == outcome.times[-1]
    if termination == ode.HORIZON:
        # twelve fresh stages per attempt after the initial evaluation
        # and the first-step guess
        assert stats.rhs_calls == 2 + 12 * (stats.accepted + stats.rejected)


@pytest.mark.parametrize("rhs, kw", [
    (lambda t, y: -2.0 * y, {}),
    # a threshold escape, located on the escaping step's dense output
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
    # an RHS that writes every stepping result into one array must give
    # the same bits as one that returns fresh arrays, through rejected
    # attempts (the next attempt starts from the stored FSAL stage) and
    # through the escaping step, whose FSAL stage is stored too and
    # feeds the dense output that locates the escape. The dense output
    # calls it on (1, S) columns, which get fresh arrays
    buf = np.empty(1)
    runs = [
        ode.integrate(_spec(rhs, horizon=5.0, blowup_threshold=1e6,
                            rtol=1e-6, atol=1e-8))
        for rhs in (lambda t, y: y * y,
                    lambda t, y: np.multiply(y, y, out=buf) if y.ndim == 1
                    else y * y)
    ]
    fresh, reused = runs
    assert fresh.stats.rejected > 0
    assert fresh.stats.termination == ode.THRESHOLD_ESCAPE
    for a, b in ((fresh.times, reused.times), (fresh.states, reused.states),
                 (fresh.derivs, reused.derivs)):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
    assert fresh.t_end.hex() == reused.t_end.hex()


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
    assert result.t_g.hex() == "0x1.8bd3eac370dc9p-1"
    assert len(outcomes[0].times) == 17
    assert digest == (
        "21dd46a52288f5e13fc5aacb019235c4aab54e33112772775dc753a5e7a00207")


def test_pinned_bits_kaplan_comparison(monkeypatch):
    t_esc, outcomes, digest = _run_digest(
        monkeypatch, lambda: kaplan.comparison_blowup_time(2.0, 3))
    assert t_esc.hex() == "0x1.269621134c8ecp-3"
    assert len(outcomes[0].times) == 4
    assert digest == (
        "38ea0f8648975b35b5646548f6775700899ea61a3b9798957aabcb5a920e1404")


def test_comparison_escape_error_budget(monkeypatch):
    # in sigma = S^(1-p) the comparison problem is linear, so each run
    # stops on the crossing of sigma = 0 within a few steps, and the
    # crossing located on that step's dense output is the escape time
    pairs = [(q0, p) for q0 in (1.1, 1.2535, 2.0, 5.0, 50.0)
             for p in (2, 3, 4)]
    times, outcomes, _ = _run_digest(monkeypatch, lambda: [
        kaplan.comparison_blowup_time(q0, p) for q0, p in pairs])
    assert len(outcomes) == len(pairs)
    for (q0, p), t_ode, outcome in zip(pairs, times, outcomes):
        t_k = kaplan.kaplan_time(q0, p)
        assert outcome.kind == ode.STOPPED, (q0, p)
        assert outcome.stats.accepted <= 10, (q0, p)
        assert abs(t_k - t_ode) <= 1e-10 * t_k, (q0, p, t_ode - t_k)


def test_pinned_bits_fd_run(monkeypatch):
    # the FD run keeps no step history, so the digest is taken on the
    # replay of its spec with the history kept
    config = fd.FdConfig(A=20.0, N=64)
    replay, _, digest = _run_digest(
        monkeypatch, lambda: ode.integrate(fd._mol_spec(config)))
    run = fd.fd_single_run(config)
    assert run.estimate.hex() == "0x1.109edc6bb31b1p-4"
    assert len(run.times) - 1 == 49
    _assert_fd_run_matches_replay(run, replay)
    assert digest == (
        "5bc6f382fbabdb14d5888c0e048a9fadc5d3dc53e827e2550bae05789d1e2973")


def test_pinned_bits_critical_amplitude(monkeypatch):
    value, outcomes, digest = _run_digest(monkeypatch, heat.critical_amplitude)
    assert value.hex() == "0x1.0e93fffffffffp+0"
    assert len(outcomes) == 14
    # each run ends where a certificate decides it
    assert all(o.kind == ode.STOPPED for o in outcomes)
    assert sum(len(o.times) for o in outcomes) == 758
    assert digest == (
        "7d74d879937d89581fe802b5e0265a1cfc9b4da7173397b9e270e7d53c4d2434")
