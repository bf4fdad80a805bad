import math

import numpy as np
import pytest

from evocontrol import quadrature as qd


def test_sine_orthogonality_to_roundoff():
    for k in range(1, 21):
        for l in range(1, 21):
            x, w = qd.nodes(k + l)
            val = float(np.dot(w, np.sin(k * x) * np.sin(l * x)))
            expected = math.pi / 2.0 if k == l else 0.0
            assert abs(val - expected) <= 1e-13


def test_normalized_modes_have_weighted_norms():
    # int (s_k^2 + s_k'^2) = 1 + k^2 for the sqrt(2/pi) normalization
    for k in (1, 2, 5, 12):
        x, w = qd.nodes(2 * k)
        val = qd.h1_inner(
            qd.sine_values(k, x), qd.sine_derivs(k, x),
            qd.sine_values(k, x), qd.sine_derivs(k, x), w,
        )
        assert abs(val - (1.0 + k * k)) <= 1e-12


def test_poly_evaluation_matches_manual_sum():
    coeffs = {1: 0.7, 4: -0.2, 9: 1.1}
    x = np.linspace(0.1, 3.0, 11)
    manual = sum(
        c * math.sqrt(2.0 / math.pi) * np.sin(k * x) for k, c in coeffs.items()
    )
    assert np.max(np.abs(qd.sine_poly_values(coeffs, x) - manual)) < 1e-15


def test_prefix_weights_integrate_cubics_exactly():
    # every row past the first composes Simpson and 3/8 panels, both
    # cubic-exact; the 3-point head rule for the very first interval is
    # only quadratic-exact (its cubic defect is the h^4 term)
    n, h = 41, 0.1
    W = qd.prefix_weights(n, h)
    s = h * np.arange(n)
    for power in range(4):
        vals = s**power
        exact = s ** (power + 1) / (power + 1)
        err = np.abs(W @ vals - exact)
        assert np.max(np.delete(err, 1)) <= 1e-12
        if power <= 2:
            assert err[1] <= 1e-12


def test_prefix_weights_fourth_order_on_exponential():
    errs = []
    for n in (33, 65):
        h = 2.0 / (n - 1)
        s = h * np.arange(n)
        W = qd.prefix_weights(n, h)
        approx = W @ np.exp(s)
        errs.append(np.max(np.abs(approx - (np.exp(s) - 1.0))))
    # halving h should shrink the error by about 2^4
    assert errs[0] / errs[1] > 10.0
    assert errs[1] < 1e-7


def test_prefix_weights_need_enough_points():
    with pytest.raises(ValueError):
        qd.prefix_weights(3, 0.1)
