"""Numerical evidence around the multiplication inequality on (0, pi).

Three independent pieces:

* a lower bound on the sharp constant of ||f^2|| <= L* ||f||^2: the
  largest L with ||f_lam^2|| >= L ||f_lam||^2 for some member of the
  kink family f_lam(x) = e^{-lam |x - pi/2|} - e^{-lam pi/2}, found by
  maximizing the ratio ||f_lam^2|| / ||f_lam||^2 over lam, so L <= L*;
* the convolution constant C(k) = (1/2pi) int dh / ((1+(k-h)^2)(1+h^2)),
  which a residue computation puts at exactly 1/(4+k^2) and which drives
  the upper bound ||fg|| <= ||f|| ||g||;
* randomized spot checks of that upper bound on trigonometric
  polynomials, where both sides are computable to machine precision.

Norms are always the H1 norm: L2 of the function plus L2 of the almost
everywhere derivative. The family has a derivative kink at pi/2, so all
quadrature splits the interval there. The adaptive integrals run on the
numpy Gauss-Kronrod rule of :func:`quadrature.adaptive_quad`, so no
route here imports scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quadrature as qd
from .records import SPEC_VERSION

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# algebra_property_test: modes 1.._MAX_DEGREE per random sine polynomial,
# and the slack of ||fg|| <= (1 + ALGEBRA_TOLERANCE) ||f|| ||g||
_MAX_DEGREE = 8
ALGEBRA_TOLERANCE = 1e-12
_BLOCK = 1024  # trials per array block of algebra_property_test


# ---------------------------------------------------------------------------
# the kink family: quadrature route


def _split_quad(fn) -> float:
    """int_0^pi fn by adaptive quadrature with a breakpoint at the kink;
    an unconverged value raises :class:`QuadratureError`."""
    value, _ = qd.adaptive_quad(fn, (0.0, math.pi / 2.0, math.pi),
                                epsabs=1e-14, epsrel=1e-13, limit=200)
    return value


def _kink_parts(lam: float, x: np.ndarray):
    """f_lam and |f_lam'| at the abscissae x."""
    u = np.abs(x - math.pi / 2.0)
    f = math.exp(-lam * math.pi / 2.0) * np.expm1(lam * (math.pi / 2.0 - u))
    return f, lam * np.exp(-lam * u)


def quad_norm_sq(lam: float) -> float:
    """||f_lam||^2 by adaptive quadrature split at the kink."""

    def integrand(x):
        f, df = _kink_parts(lam, x)
        return f * f + df * df

    return _split_quad(integrand)


def quad_square_norm_sq(lam: float) -> float:
    """||f_lam^2||^2 by adaptive quadrature split at the kink."""

    def integrand(x):
        f, df = _kink_parts(lam, x)
        f2 = f * f
        return f2 * f2 + 4.0 * f2 * df * df

    return _split_quad(integrand)


def ratio_lower_bound(lam: float) -> float:
    """||f_lam^2|| / ||f_lam||^2; every value is a valid lower bound on
    the sharp squaring constant."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    return math.sqrt(quad_square_norm_sq(lam)) / quad_norm_sq(lam)


def best_ratio():
    """Maximize the squaring ratio over the family by golden-section
    search on lam in [0.1, 10], where the ratio is unimodal, down to a
    bracket of width 1e-4; returns (lam*, ratio*)."""
    a, b = 0.1, 10.0
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = ratio_lower_bound(x1), ratio_lower_bound(x2)
    while b - a > 1e-4:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = ratio_lower_bound(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = ratio_lower_bound(x1)
    mid = 0.5 * (a + b)
    return mid, ratio_lower_bound(mid)


# ---------------------------------------------------------------------------
# convolution constant


def convolution_constant(k: float) -> float:
    """(1/2pi) int_R dh / ((1+(k-h)^2)(1+h^2)), compactified by h = tan t
    so the Cauchy weight absorbs the substitution Jacobian exactly."""

    def integrand(theta):
        d = k - np.tan(theta)
        return 1.0 / (1.0 + d * d)

    val, _ = qd.adaptive_quad(
        integrand, (-math.pi / 2.0, math.atan(k), math.pi / 2.0),
        epsabs=1e-14, epsrel=1e-13, limit=200,
    )
    return val / (2.0 * math.pi)


def convolution_constant_exact(k: float) -> float:
    return 1.0 / (4.0 + k * k)


# ---------------------------------------------------------------------------
# randomized multiplication checks


@dataclass(frozen=True)
class AlgebraReport:
    seed: int
    trials: int
    violations: int
    max_ratio: float  # largest ||fg|| / (||f|| ||g||) seen
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def to_dict(self) -> dict:
        return {
            "spec_version": SPEC_VERSION,
            "kind": "algebra_property",
            "seed": self.seed,
            "trials": self.trials,
            "violations": self.violations,
            "max_ratio": self.max_ratio,
            "tolerance": self.tolerance,
        }


def _metric_norms(C: np.ndarray) -> np.ndarray:
    """H1 norm sqrt(sum (1+k^2) c_k^2) of every row of the sine
    coefficients C (mode k in column k - 1), summed with k ascending."""
    sq = np.zeros(len(C))
    for k in range(1, C.shape[1] + 1):
        sq += (1.0 + k * k) * C[:, k - 1] * C[:, k - 1]
    return np.sqrt(sq)


def _product_norms(F: np.ndarray, G: np.ndarray,
                   trig_degree: int) -> np.ndarray:
    """H1 norm of the pointwise product f g for every row pair of the sine
    coefficients F, G (mode k in column k - 1), by Gauss quadrature on
    ``qd.nodes(trig_degree)``.

    Values and derivatives accumulate mode by mode with k ascending and
    the nodes are summed along the last axis, so each row gets the same
    bits as the one-pair evaluation on the same nodes.
    """
    x, w = qd.nodes(trig_degree)
    fv = np.zeros((len(F), len(x)))
    dfv, gv, dgv = fv.copy(), fv.copy(), fv.copy()
    for k in range(1, F.shape[1] + 1):
        s, ds = qd.sine_values(k, x), qd.sine_derivs(k, x)
        f, g = F[:, k - 1, None], G[:, k - 1, None]
        fv += f * s
        dfv += f * ds
        gv += g * s
        dgv += g * ds
    prod = fv * gv
    dprod = dfv * gv + fv * dgv
    return np.sqrt(np.sum(w * (prod * prod + dprod * dprod), axis=-1))


def algebra_property_test(seed: int = 0,
                          trials: int = 10_000) -> AlgebraReport:
    """Random sine polynomials, checking ||fg|| <= ||f|| ||g|| every time,
    up to a relative slack of ``ALGEBRA_TOLERANCE``.

    Each trial draws the coefficients of f, then those of g, uniform on
    [-1, 1] for modes 1.._MAX_DEGREE. The trials run as one array
    computation over blocks of at most ``_BLOCK`` trials, so memory does
    not grow with ``trials``; every ratio has the same bits as a
    one-pair evaluation of the same kernels.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    tolerance = ALGEBRA_TOLERANCE
    violations = 0
    max_ratio = 0.0
    for start in range(0, trials, _BLOCK):
        n = min(_BLOCK, trials - start)
        coeffs = rng.uniform(-1.0, 1.0, (n, 2, _MAX_DEGREE))
        F, G = coeffs[:, 0], coeffs[:, 1]
        ratio = _product_norms(F, G, 4 * _MAX_DEGREE) / (
            _metric_norms(F) * _metric_norms(G))
        max_ratio = max(max_ratio, float(np.max(ratio)))
        violations += int(np.count_nonzero(ratio > 1.0 + tolerance))
    return AlgebraReport(
        seed=seed, trials=trials, violations=violations,
        max_ratio=max_ratio, tolerance=tolerance,
    )


def sobolev_report(seed: int = 0, trials: int = 10_000) -> dict:
    """JSON-ready summary: best family ratio, convolution spot checks,
    randomized multiplication result."""
    lam_star, ratio_star = best_ratio()
    algebra = algebra_property_test(seed=seed, trials=trials)
    checks = {
        f"C({k})": {
            "quadrature": convolution_constant(k),
            "exact": convolution_constant_exact(k),
        }
        for k in (0, 1, 3, 10)
    }
    return {
        "spec_version": SPEC_VERSION,
        "kind": "sobolev_bounds",
        "lambda_star": lam_star,
        "ratio_star": ratio_star,
        "ratio_is_lower_bound": True,
        "convolution_checks": checks,
        "algebra": algebra.to_dict(),
    }
