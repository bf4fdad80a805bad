import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import evocontrol
from evocontrol import quadrature as qd
from evocontrol.errors import QuadratureError


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


def _factorized_reference(W, h, rate, v):
    """e^{r(t_n - t)} (W @ (e^{-r(t_n - t)} v)), the dense form of the
    kernel-weighted rule."""
    n = len(W)
    back = np.multiply.outer(h * (n - 1) - h * np.arange(n), rate)
    return np.exp(back) * (W @ (np.exp(-back) * v))


@pytest.mark.parametrize("n", [4, 5, 6, 7, 2049])
def test_exp_prefix_matches_dense_rule(n):
    h = 1.0 / 2048
    W = qd.prefix_weights(n, h)
    rng = np.random.default_rng(n)
    for rate in (0.0, -1.0, 1.0, 64.0):
        v = rng.standard_normal(n)
        if rate == 0.0:
            ref = W @ v
        else:
            ref = _factorized_reference(W, h, rate, v)
        got = qd.exp_prefix(v, rate, h)
        assert got.shape == (n,)
        assert np.all(np.abs(got - ref) <= 1e-14 * (np.abs(W) @ np.abs(v)))
    rates = np.array([-1.0, 0.0, 1.0, 64.0, 0.5, 4.0, 16.0, 9.0])
    V = rng.standard_normal((n, 8))
    got = qd.exp_prefix(V, rates, h)
    assert got.shape == (n, 8)
    err = np.abs(got - _factorized_reference(W, h, rates, V))
    assert np.all(err <= 1e-14 * (np.abs(W) @ np.abs(V)))


def test_exp_prefix_stiff_mode_far_past_dense_range():
    # k^2 * span = 6400: e^{k^2 span} overflows, and the dense rule would
    # need a 65537^2 matrix (34 GB); rate * h is about 0.1
    k, span, n = 40, 4.0, 65_537
    times = np.linspace(0.0, span, n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="raise"):
            got = qd.exp_prefix(np.ones(n), k * k, span / (n - 1))
    err = np.abs(got - (1.0 - np.exp(-(k**2) * times)) / k**2)
    # the boundary layer of width 1/k^2 spans a few cells at the head
    assert np.max(err) <= 1e-5
    assert np.max(err[times >= 0.2]) <= 1e-8


def test_exp_prefix_rejects_bad_input():
    with pytest.raises(ValueError):
        qd.exp_prefix(np.ones(3), 1.0, 0.1)
    for rate in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            qd.exp_prefix(np.ones(8), rate, 0.1)
    with pytest.raises(ValueError):
        qd.exp_prefix(np.ones((8, 2)), np.array([1.0, math.nan]), 0.1)


_NO_SCIPY = """
import sys
from evocontrol import cli, fd, kaplan, sobolev
out = sys.argv[1]
fd.fd_blowup_time(fd.FdConfig(A=100.0))
gap = abs(kaplan.kaplan_time_by_quadrature(2.0, 2) - kaplan.kaplan_time(2.0, 2))
sobolev.sobolev_report(trials=100)
sobolev.convolution_constant(3.0)
codes = [cli.main(["kaplan", "--A", "4", "--out", out]),
         cli.main(["sobolev", "--trials", "100", "--out", out])]
print(sorted(m for m in sys.modules if m.startswith("scipy")))
print(gap)
print(codes)
"""


def test_no_route_loads_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(evocontrol.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY, str(tmp_path)], env=env,
        check=True, capture_output=True, text=True,
    ).stdout.split("\n")
    assert out[-4] == "[]"
    assert float(out[-3]) <= 1e-8
    assert out[-2] == "[0, 0]"


def test_gauss_kronrod_constants():
    nodes, kronrod, gauss = qd._GK21.T
    x, _ = np.polynomial.legendre.leggauss(10)
    assert np.max(np.abs(nodes[gauss != 0.0] - x)) <= 1e-15
    assert abs(math.fsum(kronrod) - 2.0) <= 1e-15
    assert abs(math.fsum(gauss) - 2.0) <= 1e-15
    # the rule is symmetric about the centre
    assert np.array_equal(nodes, -nodes[::-1])
    assert np.array_equal(kronrod, kronrod[::-1])


def test_one_interval_integrates_polynomials_exactly():
    # Kronrod (21 nodes) is exact through degree 31, Gauss (10) through 19
    for k in range(32):
        value, _ = qd._qk21(lambda x: x**k, np.array([0.0]), np.array([1.0]))
        assert abs(value[0] - 1.0 / (k + 1)) <= 1e-15
    nodes, _, gauss = qd._GK21.T
    for k in range(20):
        value = 0.5 * float(np.dot(gauss, (0.5 * (nodes + 1.0)) ** k))
        assert abs(value - 1.0 / (k + 1)) <= 1e-15


def test_interior_edges_are_honoured():
    calls = []

    def kink(x):
        calls.append(x.shape)
        return np.abs(x - 1.0)

    value, err = qd.adaptive_quad(kink, (0.0, 1.0, 2.0), epsabs=1e-14,
                                  epsrel=1e-13, limit=50)
    assert abs(value - 1.0) <= 1e-15
    assert calls == [(2, 21)]
    assert err <= 1e-13


def test_unconverged_integral_raises_after_at_most_limit_intervals():
    # int_0^1 dv/v diverges: the error estimate never falls, so the rule
    # must stop once its partition holds ``limit`` intervals
    limit = 40
    evaluated = []

    def inverse(v):
        evaluated.append(v.shape[0])
        return 1.0 / v

    with pytest.raises(QuadratureError) as info:
        qd.adaptive_quad(inverse, (0.0, 1.0), epsabs=1e-10, epsrel=1e-10,
                         limit=limit)
    # one interval, then each split replaces an interval by two halves
    intervals = evaluated[0] + sum(n // 2 for n in evaluated[1:])
    assert all(n % 2 == 0 for n in evaluated[1:])
    assert intervals <= limit
    assert info.value.achieved > 1e-10
