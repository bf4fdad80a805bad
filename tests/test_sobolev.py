"""Multiplication inequality evidence: family ratio, convolution constant,
randomized algebra checks."""

import math
import tracemalloc

import numpy as np
import pytest

from evocontrol import quadrature as qd
from evocontrol import sobolev


def test_closed_forms_match_quadrature():
    for lam in (0.01, 0.05, 0.15, 0.2, 0.25, 0.7, 1.55, 3.0, 8.0):
        n_c = sobolev.closed_norm_sq(lam)
        n_q = sobolev.quad_norm_sq(lam)
        assert abs(n_c - n_q) <= 1e-10 * n_q
        s_c = sobolev.closed_square_norm_sq(lam)
        s_q = sobolev.quad_square_norm_sq(lam)
        assert abs(s_c - s_q) <= 1e-10 * s_q


def test_series_and_expm1_branches_agree_at_switch():
    # evaluate just below and above the internal switch; the two
    # evaluation strategies must join smoothly
    below = sobolev.closed_ratio(0.2 - 1e-9)
    above = sobolev.closed_ratio(0.2 + 1e-9)
    assert abs(below - above) <= 1e-9


def test_small_lam_limit_is_the_tent_function():
    # as lam -> 0 the family degenerates (after normalization) to the
    # tent v(x) = pi/2 - |x - pi/2|, whose ratio is computable by hand:
    # ||v^2||^2 = pi^5/80 + pi^3/3, ||v||^2 = pi^3/12 + pi
    tent = math.sqrt(math.pi**5 / 80.0 + math.pi**3 / 3.0) / (
        math.pi**3 / 12.0 + math.pi
    )
    assert abs(sobolev.closed_ratio(1e-6) - tent) <= 1e-5
    assert abs(sobolev.ratio_lower_bound(1e-4) - tent) <= 1e-3


def test_best_ratio_location_and_value():
    lam_star, ratio_star = sobolev.best_ratio()
    assert 1.50 <= lam_star <= 1.60
    assert ratio_star > 0.811
    assert ratio_star < 1.0
    # interior maximum: both neighbors are below
    assert sobolev.ratio_lower_bound(lam_star - 0.05) < ratio_star
    assert sobolev.ratio_lower_bound(lam_star + 0.05) < ratio_star


def test_ratio_never_exceeds_one():
    for lam in np.linspace(0.05, 12.0, 40):
        assert sobolev.closed_ratio(float(lam)) <= 1.0


def test_convolution_constant_quadrature():
    for k in (0, 1, 3, 10):
        got = sobolev.convolution_constant(k)
        assert abs(got - 1.0 / (4.0 + k * k)) <= 1e-10


def test_weighted_convolution_constant_monotone():
    # (1+k^2) C(k) = (1+k^2)/(4+k^2) increases toward 1; the quadrature
    # values must reproduce that ordering
    vals = [(1 + k * k) * sobolev.convolution_constant(k)
            for k in (0, 1, 2, 4, 8)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1.0


def test_algebra_property_holds():
    report = sobolev.algebra_property_test(seed=7, trials=2000)
    assert report.passed
    assert report.max_ratio <= 1.0
    d = report.to_dict()
    assert d["violations"] == 0 and d["trials"] == 2000


@pytest.mark.parametrize("seed, trials, max_ratio", [
    (0, 10_000, 0.33135934794371597),
    (1, 10_000, 0.35227596690832713),
    (7, 10_000, 0.32982134558279486),
    (7919, 10_000, 0.32179767550790206),
    (7, 2000, 0.31043138727681185),
    (5, 4097, 0.34228026849485277),
])
def test_algebra_property_pinned(seed, trials, max_ratio):
    # values of the one-trial-at-a-time loop this computation replaced
    report = sobolev.algebra_property_test(seed=seed, trials=trials)
    assert report.max_ratio == max_ratio
    assert report.violations == 0


def _scalar_ratio(fc, gc):
    # one pair at a time, one mode at a time: the reference evaluation
    x, w = qd.nodes(2 * (max(fc) + max(gc)))
    fv, dfv, gv, dgv = (np.zeros_like(x) for _ in range(4))
    for k, c in fc.items():
        fv += c * qd.sine_values(k, x)
        dfv += c * qd.sine_derivs(k, x)
    for k, c in gc.items():
        gv += c * qd.sine_values(k, x)
        dgv += c * qd.sine_derivs(k, x)
    prod = fv * gv
    dprod = dfv * gv + fv * dgv
    product = math.sqrt(float(np.sum(w * (prod * prod + dprod * dprod))))
    bound = (math.sqrt(sum((1.0 + k * k) * a * a for k, a in fc.items()))
             * math.sqrt(sum((1.0 + k * k) * a * a for k, a in gc.items())))
    return product / bound


def test_kernel_matches_one_pair_evaluation_bitwise():
    rng = np.random.default_rng(3)
    F = rng.uniform(-1.0, 1.0, (50, 8))
    G = rng.uniform(-1.0, 1.0, (50, 8))
    kernel = sobolev._product_norms(F, G, 32) / (
        sobolev._metric_norms(F) * sobolev._metric_norms(G))
    for row, (f, g) in enumerate(zip(F, G)):
        fc = dict(enumerate(f, start=1))
        gc = dict(enumerate(g, start=1))
        public = sobolev.product_norm(fc, gc) / (
            sobolev.metric_norm(fc) * sobolev.metric_norm(gc))
        assert kernel[row] == public == _scalar_ratio(fc, gc)


def test_blocks_follow_the_per_trial_stream():
    # a trial count that is not a multiple of the block: the blocked
    # draws must walk the same stream as two draws per trial
    trials = 2 * sobolev._BLOCK + 37
    rng = np.random.default_rng(11)
    ratios = []
    for _ in range(trials):
        fc = dict(enumerate(rng.uniform(-1.0, 1.0, 8), start=1))
        gc = dict(enumerate(rng.uniform(-1.0, 1.0, 8), start=1))
        ratios.append(sobolev.product_norm(fc, gc) / (
            sobolev.metric_norm(fc) * sobolev.metric_norm(gc)))
    report = sobolev.algebra_property_test(seed=11, trials=trials)
    assert report.max_ratio == max(ratios)
    assert report.trials == trials


def test_violations_are_counted(monkeypatch):
    # with a negative tolerance every positive ratio is a violation
    monkeypatch.setattr(sobolev, "ALGEBRA_TOLERANCE", -1.0)
    report = sobolev.algebra_property_test(seed=3, trials=1500)
    assert report.violations == 1500
    assert report.to_dict()["tolerance"] == -1.0
    assert not report.passed


def test_algebra_memory_does_not_grow_with_trials():
    peaks = []
    for trials in (sobolev._BLOCK, 8 * sobolev._BLOCK):
        tracemalloc.start()
        sobolev.algebra_property_test(seed=0, trials=trials)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


def test_coefficient_maps_need_sine_modes():
    with pytest.raises(ValueError):
        sobolev.metric_norm({0: 1.0})


def test_product_norm_on_known_case():
    # squaring the first normalized mode gives (2/pi) sin^2 x, whose
    # squared norm is 3/(2 pi) from the function and 2/pi from the
    # derivative (2/pi) sin 2x, so ||s_1^2|| = sqrt(7/(2 pi))
    one = {1: 1.0}
    bound = sobolev.metric_norm(one) ** 2
    assert abs(bound - 2.0) <= 1e-15
    got = sobolev.product_norm(one, one)
    assert abs(got - math.sqrt(7.0 / (2.0 * math.pi))) <= 1e-13
    assert got <= bound


def test_argument_validation():
    with pytest.raises(ValueError):
        sobolev.closed_norm_sq(0.0)
    with pytest.raises(ValueError):
        sobolev.ratio_lower_bound(-1.0)
    with pytest.raises(ValueError):
        sobolev.algebra_property_test(trials=0)
