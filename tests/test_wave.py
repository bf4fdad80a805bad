"""Transport example: lifespans are exact, so the tests mostly compare
against hand arithmetic."""

import math

import numpy as np
import pytest

from evocontrol import control, wave
from evocontrol.errors import OutOfDomainError


def test_three_standard_cases():
    # sup f0 = sup |f0| = 1: guarantee sharp
    d1 = wave.WaveDatum(sup_pos=1.0, sup_abs=1.0, p=2)
    assert wave.wave_tn(d1) == 1.0
    assert wave.wave_theta(d1) == 1.0
    # even power, positive part only 1/2: lifespan doubles
    d2 = wave.WaveDatum(sup_pos=0.5, sup_abs=1.0, p=2)
    assert wave.wave_tn(d2) == 1.0
    assert wave.wave_theta(d2) == 2.0
    # even power, nonpositive datum: global despite norm 1
    d3 = wave.WaveDatum(sup_pos=0.0, sup_abs=1.0, p=2)
    assert wave.wave_tn(d3) == 1.0
    assert math.isinf(wave.wave_theta(d3))


def test_theta_dominates_tn_with_sharpness_exactly_when_attained():
    rng = np.random.default_rng(3)
    for _ in range(200):
        sup_abs = float(rng.uniform(0.1, 3.0))
        sup_pos = float(rng.uniform(0.0, sup_abs))
        p = int(rng.integers(2, 6))
        d = wave.WaveDatum(sup_pos=sup_pos, sup_abs=sup_abs, p=p)
        tn, theta = wave.wave_tn(d), wave.wave_theta(d)
        assert theta >= tn
        if theta == tn:
            assert p % 2 == 1 or sup_pos == sup_abs
        else:
            assert p % 2 == 0 and sup_pos < sup_abs


def test_odd_power_ignores_sign_structure():
    d = wave.WaveDatum(sup_pos=0.0, sup_abs=2.0, p=3)
    assert wave.wave_theta(d) == wave.wave_tn(d) == 1.0 / 8.0


def test_growth_bound_matches_scalar_closed_form():
    d = wave.WaveDatum(sup_pos=0.7, sup_abs=0.9, p=3)
    for t in (0.0, 0.1, 0.3):
        ours = wave.wave_growth_bound(d, t)
        # the transport problem is the U = 1, B = 0, P = 1 instance of
        # the general certified radius
        general = control.r_closed(1.0, 0.0, 1.0, 3, 0.9, t)
        assert abs(ours - general) <= 1e-14 * general


def test_exact_solution_below_bound():
    x = np.linspace(-3.0, 3.0, 64)
    values = np.sin(x) * np.exp(-x * x) * 0.9
    d = wave.WaveDatum.from_samples(values, p=2)
    tn = wave.wave_tn(d)
    for t in np.linspace(0.0, 0.9 * tn, 7):
        sup = wave.exact_solution_sup(values, 2, float(t))
        assert sup <= wave.wave_growth_bound(d, float(t)) + 1e-12


def test_characteristic_flow():
    # w' = w^2 from 1/2 reaches 1 at t = 1 and blows up at t = 2
    assert abs(wave.characteristic_value(0.5, 2, 1.0) - 1.0) <= 1e-15
    with pytest.raises(OutOfDomainError):
        wave.characteristic_value(0.5, 2, 2.0)
    # negative start for even power decays in magnitude
    assert abs(wave.characteristic_value(-1.0, 2, 5.0)) < 1.0


def test_from_samples_clamps_negative_max():
    d = wave.WaveDatum.from_samples([-1.0, -0.25], p=2)
    assert d.sup_pos == 0.0
    assert d.sup_abs == 1.0
    assert math.isinf(wave.wave_theta(d))


def test_domain_errors_and_validation():
    d = wave.WaveDatum(sup_pos=1.0, sup_abs=1.0, p=2)
    with pytest.raises(OutOfDomainError):
        wave.wave_growth_bound(d, 1.0)  # exactly the lifespan
    with pytest.raises(OutOfDomainError):
        wave.wave_growth_bound(d, -0.1)
    with pytest.raises(OutOfDomainError):
        wave.exact_solution_sup([1.0], 2, 1.5)
    with pytest.raises(ValueError):
        wave.WaveDatum(sup_pos=2.0, sup_abs=1.0, p=2)
    with pytest.raises(ValueError):
        wave.WaveDatum(sup_pos=0.5, sup_abs=1.0, p=1)
    with pytest.raises(ValueError):
        wave.WaveDatum.from_samples([], p=2)


def test_zero_datum_is_global():
    d = wave.WaveDatum(sup_pos=0.0, sup_abs=0.0, p=3)
    assert math.isinf(wave.wave_tn(d))
    assert math.isinf(wave.wave_theta(d))
    assert wave.wave_growth_bound(d, 100.0) == 0.0
