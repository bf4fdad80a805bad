"""Control equation closed forms against independent references.

The frozen radius values below come from a Radau reference integration
of dR/dt = U P R^p - B R (rtol 1e-12, atol 1e-14, max step 1e-3), run
with an implicit solver that shares no code with the package engine.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from evocontrol import control, fd, galerkin, heat, kaplan, ode, picard, wave
from evocontrol.errors import OutOfDomainError

# (U, B, P, p, norm_f0) -> {t: R_reference}
_RADAU_REFERENCE = {
    (1.5, 0.8, 0.7, 3, 0.9): {
        0.1: 1.55011991566809,
        0.2: 1.95873151238244,
        0.3: 3.5774277808637,
    },
    (1.2, 1.0, 0.4, 2, 0.5): {
        0.5: 0.410427724966957,
        1.0: 0.26985495354582,
        2.0: 0.108127435791039,
    },
}


def test_r_closed_matches_radau_reference():
    for (U, B, P, p, f0), table in _RADAU_REFERENCE.items():
        for t, ref in table.items():
            val = control.r_closed(U, B, P, p, f0, t)
            assert abs(val - ref) <= 1e-9 * ref


def test_hand_solvable_no_damping_case():
    # B = 0, U = P = f0 = 1, p = 2: R(t) = 1/(1-t) by separation
    for t in (0.2, 0.5, 0.8):
        assert abs(control.r_closed(1.0, 0.0, 1.0, 2, 1.0, t) - 1.0 / (1.0 - t)) < 1e-14
    assert control.tn_closed(1.0, 0.0, 1.0, 2, 1.0) == 1.0


def test_critical_datum_is_a_fixed_point():
    # P U^p f0^(p-1) = B exactly: R(0) = 1 solves R' = 0.7 R^2 - 0.7 R
    tn = control.tn_closed(1.0, 0.7, 0.7, 2, 1.0)
    assert tn == math.inf
    for t in (0.1, 1.0, 10.0, 100.0):
        assert abs(control.r_closed(1.0, 0.7, 0.7, 2, 1.0, t) - 1.0) < 1e-12


def test_lifespan_closed_form():
    val = control.tn_closed(1.5, 0.8, 0.7, 3, 0.9)
    assert abs(val - 0.3383618056321484) <= 1e-15
    # subcritical data live forever
    assert control.tn_closed(1.2, 1.0, 0.4, 2, 0.5) == math.inf
    # zero datum: R stays zero
    assert control.tn_closed(1.0, 0.0, 1.0, 2, 0.0) == math.inf


def test_radius_domain_errors():
    with pytest.raises(OutOfDomainError):
        control.r_closed(1.0, 0.0, 1.0, 2, 1.0, 1.0)
    with pytest.raises(OutOfDomainError):
        control.r_closed(1.0, 0.0, 1.0, 2, 1.0, -0.1)


def test_argument_validation():
    with pytest.raises(ValueError):
        control.tn_closed(0.5, 0.0, 1.0, 2, 1.0)  # U < 1
    with pytest.raises(ValueError):
        control.tn_closed(1.0, -0.1, 1.0, 2, 1.0)  # negative B
    with pytest.raises(ValueError):
        control.tn_closed(1.0, 0.0, 1.0, 1, 1.0)  # p too small
    with pytest.raises(ValueError):
        control.tn_closed(1.0, 0.0, 1.0, 2.5, 1.0)  # non-integer p


def test_every_entry_point_rejects_a_power_that_is_not_an_integer_above_one():
    # one check (control.check_power) behind every entry point taking p
    for p in (1, 2.5):
        entry_points = (
            lambda: heat.HeatScenario(A=1.0, p=p),
            lambda: galerkin.build_model((1, 3), p),
            lambda: control.tn_closed(1.0, 0.0, 1.0, p, 1.0),
            lambda: control.r_closed(1.0, 0.0, 1.0, p, 1.0, 0.1),
            lambda: kaplan.kaplan_time(2.0, p),
            lambda: control.pure_power_ivp(1.0, 0.0, 1.0, p, 1.0, 1.0),
            lambda: fd.FdConfig(A=1.0, p=p),
            lambda: wave.WaveDatum(sup_pos=0.5, sup_abs=1.0, p=p),
            lambda: kaplan.sn_iteration(2.0, p, 3, 0.5),
            lambda: wave.exact_solution_sup([0.5], p, 0.1),
        )
        for entry_point in entry_points:
            with pytest.raises(ValueError, match="integer >= 2"):
                entry_point()


def test_rhs_is_the_derivative_of_the_closed_form():
    rng = np.random.default_rng(11)
    for _ in range(25):
        U = 1.0 + rng.uniform(0.0, 1.0)
        B = rng.uniform(0.0, 1.2)
        P = rng.uniform(0.2, 1.5)
        p = int(rng.integers(2, 5))
        f0 = rng.uniform(0.2, 1.5)
        tn = control.tn_closed(U, B, P, p, f0)
        t = rng.uniform(0.05, 0.6) * min(tn, 3.0)
        h = 1e-6 * max(1.0, t)
        num = (
            control.r_closed(U, B, P, p, f0, t + h)
            - control.r_closed(U, B, P, p, f0, t - h)
        ) / (2.0 * h)
        spec = control.pure_power_ivp(U, B, P, p, f0, 10.0)
        R = control.r_closed(U, B, P, p, f0, t)
        rhs = float(spec.rhs(t, np.array([R]))[0])
        assert abs(num - rhs) <= 1e-5 * max(1.0, abs(rhs))


def test_tube_rate_on_arrays_gives_the_bits_of_scalar_calls():
    # the coupled (a, sigma) system and the dense output evaluate the rate
    # on rows of states; each entry must be the scalar call's float
    rng = np.random.default_rng(23)
    R = rng.uniform(0.0, 5.0, 40)
    eps = rng.uniform(0.0, 2.0, 40)
    norm = rng.uniform(0.0, 3.0, 40)
    for p in (2, 3, 4):
        for U, B, P in ((1.0, 1.0, 1.0), (1.5, 0.8, 0.7), (1.0, 0.0, 1.0)):
            batch = control.tube_rate(R, eps, norm, p, U, B, P)
            assert batch.shape == R.shape
            for j in range(R.size):
                one = control.tube_rate(float(R[j]), float(eps[j]),
                                        float(norm[j]), p, U, B, P)
                assert np.float64(one).tobytes() == batch[j].tobytes()


def test_integral_estimator_constant_eps():
    # with eps constant the integral has the elementary closed form
    # U delta e^{-B t} + (U eps / B)(1 - e^{-B t})
    times = np.linspace(0.0, 4.0, 2049)
    got = picard.integral_error_curve(times, np.full(times.shape, 0.25),
                                      1.3, 0.9, 0.4)
    expected = 1.3 * 0.4 * np.exp(-0.9 * times)
    expected += 1.3 * 0.25 / 0.9 * (1.0 - np.exp(-0.9 * times))
    assert float(np.max(np.abs(got - expected))) <= 1e-10


def _exact_growth(norm, r, p):
    n, x = Fraction(norm), Fraction(r)
    return (n + x) ** p - n**p


def test_power_growth_matches_exact_rationals():
    # the binomial form does not cancel: it stays within 2p roundings of
    # the exact value also where r << norm, and there the difference
    # form (norm + r)^p - norm^p loses most or all of its digits
    for norm, r in [(2.0, 1e-12), (1.4, 3e-14), (1.0, 1e-16), (3.3, 1e-9),
                    (0.5, 7.0), (1e-3, 1e3)]:
        for p in (2, 3, 4):
            exact = _exact_growth(norm, r, p)
            got = control.power_growth(norm, r, p)
            assert abs(Fraction(got) - exact) <= 2 * p * 2.0**-53 * exact
            assert control.power_growth(norm, 0.0, p) == 0.0


def test_pure_power_ivp_rejects_a_negative_datum():
    with pytest.raises(ValueError, match="norm_f0"):
        control.pure_power_ivp(1.0, 0.0, 1.0, 2, -0.1, 1.0)


def test_ivp_wrapper_reproduces_closed_form():
    U, B, P, p, f0 = 1.0, 0.5, 1.0, 2, 2.0
    tn = control.tn_closed(U, B, P, p, f0)
    outcome = ode.integrate(control.pure_power_ivp(U, B, P, p, f0, 0.9 * tn))
    assert outcome.kind == ode.REACHED_HORIZON
    for t in np.linspace(0.0, 0.9 * tn, 19):
        exact = control.r_closed(U, B, P, p, f0, float(t))
        got = outcome.interpolate(float(t))[0]
        assert abs(got - exact) <= 1e-6 * max(1.0, exact)
