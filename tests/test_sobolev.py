"""Multiplication inequality evidence: family ratio, convolution constant,
randomized algebra checks."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from evocontrol import quadrature as qd
from evocontrol import sobolev

# The kink family's norms in closed form, the oracle of the quadrature
# route of :mod:`evocontrol.sobolev`.
_SERIES_SWITCH = 0.2
_SERIES_TERMS = 28


def _exp_binom_integral(j: int, m: int, lam: float) -> float:
    """int_0^{pi/2} (e^{lam v} - 1)^j e^{m lam v} dv.

    The binomial expansion cancels catastrophically for small lam, so a
    truncated power series in v takes over below the switch point.
    """
    half = math.pi / 2.0
    if lam >= _SERIES_SWITCH:
        total = 0.0
        for i in range(j + 1):
            n = i + m
            term = half if n == 0 else math.expm1(n * lam * half) / (n * lam)
            total += math.comb(j, i) * (-1.0) ** (j - i) * term
        return total
    base = np.array(
        [0.0] + [lam**n / math.factorial(n) for n in range(1, _SERIES_TERMS)]
    )
    expm = np.array(
        [(m * lam) ** n / math.factorial(n) for n in range(_SERIES_TERMS)]
    )
    poly = npoly.polymul(npoly.polypow(base, j) if j else [1.0], expm)
    degrees = np.arange(len(poly), dtype=float)
    return float(np.sum(poly * half ** (degrees + 1) / (degrees + 1)))


def closed_norm_sq(lam: float) -> float:
    """||f_lam||^2 in closed form (both integrals elementary)."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    c2 = math.exp(-lam * math.pi)
    l2_part = 2.0 * c2 * _exp_binom_integral(2, 0, lam)
    deriv_part = 2.0 * lam * lam * c2 * _exp_binom_integral(0, 2, lam)
    return l2_part + deriv_part


def closed_square_norm_sq(lam: float) -> float:
    """||f_lam^2||^2 in closed form."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    c4 = math.exp(-2.0 * lam * math.pi)
    l2_part = 2.0 * c4 * _exp_binom_integral(4, 0, lam)
    deriv_part = 8.0 * lam * lam * c4 * _exp_binom_integral(2, 2, lam)
    return l2_part + deriv_part


def test_closed_forms_match_quadrature():
    for lam in (0.01, 0.05, 0.15, 0.2, 0.25, 0.7, 1.55, 3.0, 8.0):
        n_c = closed_norm_sq(lam)
        n_q = sobolev.quad_norm_sq(lam)
        assert abs(n_c - n_q) <= 1e-10 * n_q
        s_c = closed_square_norm_sq(lam)
        s_q = sobolev.quad_square_norm_sq(lam)
        assert abs(s_c - s_q) <= 1e-10 * s_q


def closed_ratio(lam: float) -> float:
    """||f_lam^2|| / ||f_lam||^2 from the closed forms."""
    return math.sqrt(closed_square_norm_sq(lam)) / (
        closed_norm_sq(lam))


def test_series_and_expm1_branches_agree_at_switch():
    # evaluate just below and above the internal switch; the two
    # evaluation strategies must join smoothly
    below = closed_ratio(0.2 - 1e-9)
    above = closed_ratio(0.2 + 1e-9)
    assert abs(below - above) <= 1e-9


def test_small_lam_limit_is_the_tent_function():
    # as lam -> 0 the family degenerates (after normalization) to the
    # tent v(x) = pi/2 - |x - pi/2|, whose ratio is computable by hand:
    # ||v^2||^2 = pi^5/80 + pi^3/3, ||v||^2 = pi^3/12 + pi
    tent = math.sqrt(math.pi**5 / 80.0 + math.pi**3 / 3.0) / (
        math.pi**3 / 12.0 + math.pi
    )
    assert abs(closed_ratio(1e-6) - tent) <= 1e-5
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
        assert closed_ratio(float(lam)) <= 1.0


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


def _coeff_row(coeffs: dict[int, float], n_modes: int) -> np.ndarray:
    """A {mode: coeff} mapping as a (1, n_modes) coefficient row."""
    row = np.zeros((1, n_modes))
    for k, c in coeffs.items():
        if k < 1:
            raise ValueError("sine modes start at 1")
        row[0, k - 1] = c
    return row


def product_norm(f_coeffs: dict[int, float],
                 g_coeffs: dict[int, float]) -> float:
    """H1 norm of the pointwise product of two sine polynomials, through
    the library's kernel on one pair, by quadrature exact for the
    product's trigonometric degree."""
    deg_f = max(f_coeffs, default=0)
    deg_g = max(g_coeffs, default=0)
    n_modes = max(deg_f, deg_g)
    F, G = _coeff_row(f_coeffs, n_modes), _coeff_row(g_coeffs, n_modes)
    return float(sobolev._product_norms(F, G, 2 * (deg_f + deg_g))[0])


def metric_norm(coeffs: dict[int, float]) -> float:
    """H1 norm straight from sine coefficients: sqrt(sum (1+k^2) a_k^2),
    through the library's kernel on one row."""
    C = _coeff_row(coeffs, max(coeffs, default=0))
    return float(sobolev._metric_norms(C)[0])


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
        public = product_norm(fc, gc) / (
            metric_norm(fc) * metric_norm(gc))
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
        ratios.append(product_norm(fc, gc) / (
            metric_norm(fc) * metric_norm(gc)))
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
        metric_norm({0: 1.0})


def test_product_norm_on_known_case():
    # squaring the first normalized mode gives (2/pi) sin^2 x, whose
    # squared norm is 3/(2 pi) from the function and 2/pi from the
    # derivative (2/pi) sin 2x, so ||s_1^2|| = sqrt(7/(2 pi))
    one = {1: 1.0}
    bound = metric_norm(one) ** 2
    assert abs(bound - 2.0) <= 1e-15
    got = product_norm(one, one)
    assert abs(got - math.sqrt(7.0 / (2.0 * math.pi))) <= 1e-13
    assert got <= bound


def test_argument_validation():
    with pytest.raises(ValueError):
        closed_norm_sq(0.0)
    with pytest.raises(ValueError):
        sobolev.ratio_lower_bound(-1.0)
    with pytest.raises(ValueError):
        sobolev.algebra_property_test(trials=0)
