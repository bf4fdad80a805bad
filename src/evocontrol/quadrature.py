"""Gauss-Legendre quadrature on (0, pi) sized for trigonometric integrands.

Gauss rules are only algebraically exact, so exactness for a
trigonometric polynomial of degree d needs roughly one node per unit of
degree on an interval of length pi (d/2 + O(1) nodes, the algebraic
count, leaves errors of order 1e-2 already at degree 24). ``nodes(d)``
therefore allocates d + 16 nodes, which lands at machine precision with
a comfortable margin for every degree used in this package.

:func:`adaptive_quad` is the one door to ``scipy.integrate.quad``; it
imports scipy at its first call, so only the adaptive-quadrature routes
load it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

@lru_cache(maxsize=None)
def nodes(trig_degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights integrating trig polynomials of the given degree
    over (0, pi) to roundoff."""
    n = int(trig_degree) + 16
    x, w = leggauss(n)
    return (x + 1.0) * (np.pi / 2.0), w * (np.pi / 2.0)


def adaptive_quad(fn, a: float, b: float, **options):
    """``scipy.integrate.quad(fn, a, b, **options)``, with scipy imported
    here rather than when the package loads."""
    from scipy.integrate import quad

    return quad(fn, a, b, **options)


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
