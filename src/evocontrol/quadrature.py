"""Gauss-Legendre quadrature on (0, pi) sized for trigonometric integrands.

Gauss rules are only algebraically exact, so exactness for a
trigonometric polynomial of degree d needs roughly one node per unit of
degree on an interval of length pi (d/2 + O(1) nodes, the algebraic
count, leaves errors of order 1e-2 already at degree 24). ``nodes(d)``
therefore allocates d + 16 nodes, which lands at machine precision with
a comfortable margin for every degree used in this package.

:func:`adaptive_quad` integrates everything that needs subdivision
(the Kaplan integral, the Sobolev kink family, the convolution
constant) with a vectorized Gauss-Kronrod 10/21 rule in numpy; the
package imports no scipy.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import QuadratureError


@lru_cache(maxsize=None)
def nodes(trig_degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on (0, pi), trig_degree + 16 of
    them, for trig polynomials of the given degree.

    Gauss-Legendre is exact only for algebraic polynomials; on trig ones
    its error at trig_degree + 16 nodes measured below rounding
    (eps_hat^2 within 1.6e-14 relative of mpmath), but nothing bounds
    it. numpy's ``leggauss`` weights add an error that grows with the
    node count: the rule's int sin^2(kx) over (0, pi) with
    k = trig_degree / 4 is off from pi/2 by 8.9e-16 at 64 nodes,
    4.3e-14 at 400 and 1.2e-13 at 1,584."""
    n = int(trig_degree) + 16
    x, w = leggauss(n)
    return (x + 1.0) * (np.pi / 2.0), w * (np.pi / 2.0)


# Gauss-Kronrod 10/21 rule on [-1, 1], the constants of QUADPACK's qk21
# (Piessens, de Doncker-Kapenga, Ueberhuber & Kahaner, QUADPACK, 1983).
# One row per node: abscissa, Kronrod weight, Gauss weight (zero at the
# 11 nodes that only the Kronrod rule uses).
_GK21 = np.array([
    (-0.9956571630258081, 0.011694638867371874, 0.0),
    (-0.9739065285171717, 0.032558162307964725, 0.06667134430868814),
    (-0.9301574913557082, 0.054755896574351995, 0.0),
    (-0.8650633666889845, 0.07503967481091996, 0.1494513491505806),
    (-0.7808177265864169, 0.0931254545836976, 0.0),
    (-0.6794095682990244, 0.10938715880229764, 0.21908636251598204),
    (-0.5627571346686047, 0.12349197626206584, 0.0),
    (-0.4333953941292472, 0.13470921731147334, 0.26926671930999635),
    (-0.2943928627014602, 0.14277593857706009, 0.0),
    (-0.14887433898163122, 0.14773910490133849, 0.29552422471475287),
    (0.0, 0.1494455540029169, 0.0),
    (0.14887433898163122, 0.14773910490133849, 0.29552422471475287),
    (0.2943928627014602, 0.14277593857706009, 0.0),
    (0.4333953941292472, 0.13470921731147334, 0.26926671930999635),
    (0.5627571346686047, 0.12349197626206584, 0.0),
    (0.6794095682990244, 0.10938715880229764, 0.21908636251598204),
    (0.7808177265864169, 0.0931254545836976, 0.0),
    (0.8650633666889845, 0.07503967481091996, 0.1494513491505806),
    (0.9301574913557082, 0.054755896574351995, 0.0),
    (0.9739065285171717, 0.032558162307964725, 0.06667134430868814),
    (0.9956571630258081, 0.011694638867371874, 0.0),
])
_NODES, _WK, _WEIGHTS = _GK21[:, 0], _GK21[:, 1], _GK21[:, 1:]
_EPS = 2.220446049250313e-16


def _qk21(fn, a: np.ndarray, b: np.ndarray):
    """qk21 on every interval (a_i, b_i) with one call of ``fn`` on the
    (n, 21) abscissae. Returns the Kronrod values and QUADPACK's error
    estimates, resasc min(1, (200 |K - G| / resasc)^1.5) floored at
    50 eps resabs.
    """
    half = 0.5 * (b - a)
    f = fn(np.multiply.outer(half, _NODES) + (a + half)[:, None])
    kronrod, gauss = (f @ _WEIGHTS).T
    resasc = np.abs(f - 0.5 * kronrod[:, None]) @ _WK
    gap = 200.0 * np.abs(kronrod - gauss)
    # where gap >= resasc the quotient is 1 and the estimate resasc; the
    # 1e-300 keeps 0 / 0 away and leaves any denominator above 1e-284 as is
    ratio = gap / (np.maximum(resasc, gap) + 1e-300)
    err = np.maximum(resasc * ratio**1.5, (50.0 * _EPS) * (np.abs(f) @ _WK))
    return kronrod * half, err * np.abs(half)


def adaptive_quad(fn, edges, epsabs: float, epsrel: float,
                  limit: int) -> tuple[float, float]:
    """Globally adaptive Gauss-Kronrod 10/21 quadrature of ``fn`` over
    the breakpoints ``edges``; returns (value, error estimate).

    ``fn`` maps an ndarray of abscissae to values of the same shape.
    Each interval between consecutive edges starts with one qk21 rule.
    While the summed error exceeds max(epsabs, epsrel |value|), a round
    bisects the intervals of largest error, as many as carry half of the
    excess, and evaluates all the halves in one call of ``fn``. Raises
    :class:`QuadratureError`, carrying the error estimate, once the
    partition would pass ``limit`` intervals or an interval can no longer
    be bisected in floating point.
    """
    grid = np.asarray(edges, dtype=float)
    a, b = grid[:-1].copy(), grid[1:].copy()
    if len(a) < 1 or len(a) > limit:
        raise ValueError("need between 1 and limit intervals")
    values, errors = _qk21(fn, a, b)
    while True:
        value, error = float(values.sum()), float(errors.sum())
        tolerance = max(epsabs, epsrel * abs(value))
        if error <= tolerance:
            return value, error
        room = limit - len(a)
        if room <= 0:
            raise QuadratureError(
                f"no convergence within {limit} intervals", error)
        order = np.argsort(errors)[::-1]
        carried = np.cumsum(errors[order])
        count = int(np.searchsorted(carried, 0.5 * (error - tolerance))) + 1
        split = order[: min(count, room)]
        lo, hi = a[split], b[split]
        mid = 0.5 * (lo + hi)
        if np.any((mid <= lo) | (mid >= hi)):
            raise QuadratureError("an interval too short to bisect", error)
        new_values, new_errors = _qk21(
            fn, np.concatenate((lo, mid)), np.concatenate((mid, hi)))
        n = len(split)
        b[split] = mid
        values[split], errors[split] = new_values[:n], new_errors[:n]
        a, b = np.concatenate((a, mid)), np.concatenate((b, hi))
        values = np.concatenate((values, new_values[n:]))
        errors = np.concatenate((errors, new_errors[n:]))


def sine_values(k: int, x: np.ndarray) -> np.ndarray:
    """Normalized Dirichlet mode sqrt(2/pi) sin(kx)."""
    return np.sqrt(2.0 / np.pi) * np.sin(k * x)


def sine_derivs(k: int, x: np.ndarray) -> np.ndarray:
    return np.sqrt(2.0 / np.pi) * k * np.cos(k * x)


def h1_inner(fv: np.ndarray, fd: np.ndarray, gv: np.ndarray, gd: np.ndarray,
             w: np.ndarray) -> float:
    """Inner product int (f g + f' g') on (0, pi) from sampled values."""
    return float(np.dot(w, fv * gv + fd * gd))


def prefix_weights(n_points: int, h: float) -> np.ndarray:
    """Fourth-order prefix quadrature weights on a uniform grid.

    Row i of the returned matrix integrates grid samples over
    [t_0, t_i]: composite Simpson where the prefix has an even number of
    subintervals, Simpson plus a trailing 3/8 rule where it is odd, and
    a one-sided parabolic rule for the very first subinterval. Row 0 is
    zero. The library evaluates this rule through :func:`exp_prefix`;
    the dense matrix is kept as its reference.
    """
    if n_points < 4:
        raise ValueError("need at least 4 grid points")
    W = np.zeros((n_points, n_points))
    # open head rule: integral over the first subinterval from a parabola
    # through the first three samples
    W[1, 0:3] = np.array([5.0, 8.0, -1.0]) * (h / 12.0)
    simpson = np.zeros(n_points)
    for i in range(2, n_points):
        if i % 2 == 0:
            simpson[: i + 1] = 0.0
            simpson[0] = 1.0
            simpson[1:i:2] = 4.0
            simpson[2:i:2] = 2.0
            simpson[i] = 1.0
            W[i, : i + 1] = simpson[: i + 1] * (h / 3.0)
        else:
            if i == 3:
                W[i, :4] = np.array([1.0, 3.0, 3.0, 1.0]) * (3.0 * h / 8.0)
            else:
                W[i, : i - 2] = W[i - 3, : i - 2]
                W[i, i - 3 : i + 1] += np.array([1.0, 3.0, 3.0, 1.0]) * (
                    3.0 * h / 8.0
                )
    return W


_BLOCK_EXPONENT = 64.0  # largest |exponent| of a rescale factor in a block


def exp_prefix(values, rate, h: float) -> np.ndarray:
    """int_{t_0}^{t_i} e^{-rate (t_i - s)} v(s) ds at every grid point.

    ``values`` holds samples on a uniform grid of spacing h, shape (n,)
    or (n, m); ``rate`` is a scalar or one rate per column. The rule is
    that of :func:`prefix_weights` with the kernel folded into the
    weights, row i being sum_j W_ij e^{-rate (t_i - t_j)} v_j (the head
    row's look-ahead sample gets e^{+rate h}). It runs in O(n m): the
    even rows follow

        S_{2M+2} = e^{-2 rate h} S_{2M}
                   + (h/3) (e^{-2 rate h} v_{2M} + 4 e^{-rate h} v_{2M+1}
                            + v_{2M+2}),

    and each odd row i >= 3 is e^{-3 rate h} S_{i-3} plus one 3/8 panel.
    """
    v = np.asarray(values, dtype=float)
    n = v.shape[0]
    if n < 4:
        raise ValueError("need at least 4 grid points")
    cols = v.reshape(n, -1)
    rh = np.broadcast_to(np.asarray(rate, dtype=float), cols.shape[1:]) * h
    if not np.all(np.isfinite(rh)):
        raise ValueError("rate and h must be finite")
    e1, e2, e3 = np.exp(-rh), np.exp(-2.0 * rh), np.exp(-3.0 * rh)
    out = np.zeros_like(cols)
    # head rule: parabola through the first three samples
    out[1] = (h / 12.0) * (5.0 * e1 * cols[0] + 8.0 * cols[1]
                           - np.exp(rh) * cols[2])
    m_panels = (n - 1) // 2
    simpson = (h / 3.0) * (e2 * cols[0 : 2 * m_panels - 1 : 2]
                           + 4.0 * e1 * cols[1 : 2 * m_panels : 2]
                           + cols[2 : 2 * m_panels + 1 : 2])
    out[2::2] = _decay_scan(simpson, 2.0 * rh)
    odd = (n - 2) // 2  # rows 3, 5, ...
    out[3::2] = e3 * out[0 : 2 * odd : 2] + (3.0 * h / 8.0) * (
        e3 * cols[0 : 2 * odd : 2] + 3.0 * e2 * cols[1 : 2 * odd : 2]
        + 3.0 * e1 * cols[2 : 2 * odd + 1 : 2] + cols[3::2]
    )
    return out.reshape(v.shape)


def _decay_scan(terms: np.ndarray, step: np.ndarray) -> np.ndarray:
    """x_j = e^{-step} x_{j-1} + terms_j with x_0 = 0, along axis 0.

    Blocks of b rows are one cumulative sum each, rescaled so that
    x_{s+j} = e^{-(j-1) step} (e^{-step} x_s + sum_{l<=j} e^{(l-1) step}
    terms_{s+l}); b keeps every rescale exponent within _BLOCK_EXPONENT,
    so the Python loop runs once per block, not once per row.
    """
    rows = terms.shape[0]
    widest = float(np.max(np.abs(step), initial=0.0))
    b = rows if widest == 0.0 else min(rows, 1 + int(_BLOCK_EXPONENT / widest))
    lag = np.arange(b, dtype=float)[:, None] * step
    grow, shrink, a = np.exp(lag), np.exp(-lag), np.exp(-step)
    out = np.empty_like(terms)
    carry = np.zeros(terms.shape[1:])
    for s in range(0, rows, b):
        block = terms[s : s + b]
        k = block.shape[0]
        out[s : s + k] = shrink[:k] * (
            a * carry + np.cumsum(grow[:k] * block, axis=0)
        )
        carry = out[s + k - 1]
    return out
