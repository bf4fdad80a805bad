"""Spectral Galerkin reduction of u_t = u_xx + u^p on (0, pi).

The working space is the Dirichlet Sobolev space with inner product
``<f|g> = int (f g + f' g')``; the normalized modes
``s_k = sqrt(2/pi) sin(kx)`` satisfy ``<s_k|s_l> = (1+k^2) delta_kl``
and are eigenfunctions of the Laplacian with eigenvalue ``-k^2``.

For a mode set I and integer power p, the reduced dynamics on
coordinates ``a = (a^k)`` is

    da^k/dt = -k^2 a^k + c^k(a),      c^k(a) = <s_k | phi^p>_{L2},

where ``phi = sum_k a^k s_k`` is the span element. Alongside the vector
field the module evaluates the exact residual norm of the reduced
trajectory: eps_hat(a) is the distance (in the ambient norm) between the
flow of the reduced field and the full right-hand side evaluated on the
reduced state, i.e. the ambient norm of ``phi^p - sum_k c^k s_k``.

Both come from one kernel, :func:`project_power`, which samples phi and
phi' on Gauss nodes and returns the projection c together with the
samples of phi^p; eps_hat is the weighted root sum of squares of what
the projection misses (:func:`missed_sq`), a norm and never negative.
:func:`project_values` is its value half, for callers that need c
alone. Many-row evaluations go a block of rows at a time
(:func:`row_blocks`). The integrands involved are trigonometric
polynomials of degree d <= 2 p max(I), which Gauss-Legendre does not
integrate exactly even in exact arithmetic; at d + 16 nodes the error
measured below rounding (eps_hat^2 within 1.6e-14 relative of mpmath),
but nothing bounds it (see :func:`evocontrol.quadrature.nodes`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import quadrature as quad
from .control import check_power

# bytes of node samples per block of row_blocks: blocks this small are
# recycled by the allocator instead of being mapped and faulted in afresh
_BLOCK_BYTES = 1 << 17


@dataclass(frozen=True)
class GalerkinBasis:
    """Finite set of Dirichlet sine modes with their metric weights."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(int(k) for k in self.indices)
        if len(idx) == 0:
            raise ValueError("mode set must be nonempty")
        if len(set(idx)) != len(idx) or any(k < 1 for k in idx):
            raise ValueError("mode indices must be distinct integers >= 1")
        object.__setattr__(self, "indices", tuple(sorted(idx)))

    @property
    def metric_diag(self) -> np.ndarray:
        k = np.asarray(self.indices, dtype=float)
        return 1.0 + k * k

    @property
    def eigenvalues(self) -> np.ndarray:
        k = np.asarray(self.indices, dtype=float)
        return -k * k

    def norm(self, a: np.ndarray):
        """Ambient norm of the span element with coordinates ``a``: a
        float for shape (m,), one norm per row for shape (N, m)."""
        a = np.asarray(a, dtype=float)
        return np.sqrt((a * a) @ self.metric_diag)


@dataclass(frozen=True)
class EpsilonForm:
    """The modes sampled on the model's Gauss nodes, laid out for
    :func:`project_power`.

    With SV and SD the values and derivatives of the modes on the n
    nodes and w the weights: ``samples`` is [SV | SD], ``doubled`` is
    [SV | SV] and ``residual_basis`` is [SV | SD/p], each of shape
    (m, 2n); ``projector`` is (SV w)^T, of shape (n, m); ``weights`` is
    [w | p^2 w], so the weighted square sum of a row of samples (values,
    then derivatives divided by p) is its squared ambient norm.
    """

    p: int
    indices: tuple[int, ...]
    samples: np.ndarray = field(repr=False)
    doubled: np.ndarray = field(repr=False)
    projector: np.ndarray = field(repr=False)
    residual_basis: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def value_many(self, coords: np.ndarray, indices: Sequence[int]) -> np.ndarray:
        """eps_hat^2 for rows of ``coords`` (one coordinate vector per
        row, ordered like ``indices``, which must be the model's
        ascending mode order)."""
        if tuple(int(k) for k in indices) != self.indices:
            raise ValueError("columns do not follow the model's mode order")
        coords = np.asarray(coords, dtype=float)
        out = np.empty(len(coords))
        for rows in row_blocks(self, len(coords)):
            c, power = project_power(self, coords[rows])
            out[rows] = missed_sq(self, power, c)
        return out


@dataclass(frozen=True)
class GalerkinModel:
    basis: GalerkinBasis
    p: int
    eps_form: EpsilonForm = field(repr=False)


def project_power(form: EpsilonForm, a: np.ndarray):
    """The L2 projection c of phi^p onto the span, and the samples of
    phi^p on the nodes (values, then derivatives divided by p), for the
    span element phi with coordinates ``a`` of shape (m,) or (N, m).

    This is the package's one Galerkin kernel: the reduced field, the
    residual norm, the (a, sigma) right-hand side and the Picard
    nonlinearity all evaluate through it.
    """
    power = a.dot(form.samples)  # phi and phi' on the nodes
    for _ in range(form.p - 1):  # phi^p and phi^(p-1) phi' = (phi^p)'/p
        power *= a.dot(form.doubled)
    return power[..., :len(form.projector)].dot(form.projector), power


def project_values(form: EpsilonForm, a: np.ndarray):
    """The projection c of :func:`project_power` from the samples of phi
    alone, without the derivative half; the same products in the same
    order."""
    phi = a.dot(form.samples[:, : len(form.projector)])
    power = phi
    for _ in range(form.p - 1):
        power = power * phi
    return power.dot(form.projector)


def row_blocks(form: EpsilonForm, count: int):
    """Slices that cut ``count`` rows into blocks whose node samples
    take about ``_BLOCK_BYTES``, so a many-row evaluation stays small."""
    step = max(1, _BLOCK_BYTES // form.samples[0].nbytes)
    return (slice(start, start + step) for start in range(0, count, step))


def missed_sq(form: EpsilonForm, power: np.ndarray, u: np.ndarray):
    """Squared ambient norm of phi^p - sum_k u_k s_k, from the samples
    ``power`` of phi^p that :func:`project_power` returns; with u the
    projection c it is eps_hat^2. A sum of squares, never negative."""
    residual = power - u.dot(form.residual_basis)
    return (residual * residual).dot(form.weights)


def build_model(indices: Sequence[int], p: int) -> GalerkinModel:
    """The model of a mode set and power: built once per (sorted modes,
    p) and shared, so its arrays are read-only."""
    basis = GalerkinBasis(tuple(indices))
    check_power(p)
    return _model(basis, int(p))


@lru_cache(maxsize=64)
def _model(basis: GalerkinBasis, p: int) -> GalerkinModel:
    """Sample the modes on the Gauss nodes of the model."""
    idx = basis.indices
    x, w = quad.nodes(2 * p * max(idx))
    SV = np.array([quad.sine_values(k, x) for k in idx])
    SD = np.array([quad.sine_derivs(k, x) for k in idx])
    eps_form = EpsilonForm(
        p=p, indices=idx, samples=np.hstack([SV, SD]),
        doubled=np.hstack([SV, SV]), projector=(SV * w).T,
        residual_basis=np.hstack([SV, SD / p]),
        weights=np.concatenate([w, (p * p) * w]),
    )
    for name in ("samples", "doubled", "projector", "residual_basis",
                 "weights"):
        getattr(eps_form, name).flags.writeable = False
    return GalerkinModel(basis=basis, p=p, eps_form=eps_form)


def vector_field(model: GalerkinModel, a: np.ndarray) -> np.ndarray:
    """Reduced right-hand side X(a): diagonal decay plus the projected power."""
    a = np.asarray(a, dtype=float)
    c, _ = project_power(model.eps_form, a)
    return model.basis.eigenvalues * a + c


def epsilon_hat(model: GalerkinModel, a: np.ndarray) -> float:
    """Residual norm of the reduced state: the ambient norm of the part
    of phi^p that the span misses, from its samples on the nodes."""
    a = np.asarray(a, dtype=float)
    if a.shape != (len(model.basis.indices),):
        raise ValueError(f"expected one coordinate per mode, got {a.shape}")
    form = model.eps_form
    c, power = project_power(form, a)
    return math.sqrt(missed_sq(form, power, c))
