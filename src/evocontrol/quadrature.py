"""Gauss-Legendre quadrature on (0, pi) sized for trigonometric integrands.

Gauss rules are only algebraically exact, so exactness for a
trigonometric polynomial of degree d needs roughly one node per unit of
degree on an interval of length pi (d/2 + O(1) nodes, the algebraic
count, leaves errors of order 1e-2 already at degree 24). ``nodes(d)``
therefore allocates d + 16 nodes, which lands at machine precision with
a comfortable margin for every degree used in this package.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

_NORM = None  # filled lazily: sqrt(2/pi)


@lru_cache(maxsize=None)
def nodes(trig_degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights integrating trig polynomials of the given degree
    over (0, pi) to roundoff."""
    n = int(trig_degree) + 16
    x, w = leggauss(n)
    return (x + 1.0) * (np.pi / 2.0), w * (np.pi / 2.0)


def sine_values(k: int, x: np.ndarray) -> np.ndarray:
    """Normalized Dirichlet mode sqrt(2/pi) sin(kx)."""
    return np.sqrt(2.0 / np.pi) * np.sin(k * x)


def sine_derivs(k: int, x: np.ndarray) -> np.ndarray:
    return np.sqrt(2.0 / np.pi) * k * np.cos(k * x)


def sine_poly_values(coeffs, x: np.ndarray) -> np.ndarray:
    """Values of sum_k c_k sqrt(2/pi) sin(kx) for a {mode: coeff} mapping."""
    out = np.zeros_like(x)
    for k, c in coeffs.items():
        out += c * sine_values(k, x)
    return out


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
    zero. Used for Volterra convolutions by direct summation.
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
