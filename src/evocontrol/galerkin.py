"""Spectral Galerkin reduction of u_t = u_xx + u^p on (0, pi).

The working space is the Dirichlet Sobolev space with inner product
``<f|g> = int (f g + f' g')``; the normalized modes
``s_k = sqrt(2/pi) sin(kx)`` satisfy ``<s_k|s_l> = (1+k^2) delta_kl``
and are eigenfunctions of the Laplacian with eigenvalue ``-k^2``.

For a mode set I and integer power p, the reduced dynamics on
coordinates ``a = (a^k)`` is

    da^k/dt = -k^2 a^k + sum_L mult(L) T^k_L a^L,

with ``T^k_L = <s_k | prod_{l in L} s_l>_{L2}`` summed over size-p
multisets L of I. Alongside the vector field the module assembles the
exact residual norm of the reduced trajectory: eps_hat(a) is the
distance (in the ambient norm) between the flow of the reduced field and
the full right-hand side evaluated on the reduced state. Its square is a
homogeneous degree-2p polynomial in the coordinates, stored as a Gram
matrix over size-p multiset monomials, which keeps it nonnegative up to
roundoff by construction.

All pairings are evaluated with the exact-degree quadrature from
:mod:`evocontrol.quadrature`.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import Mapping, Sequence

import numpy as np

from . import quadrature as quad
from .control import PolynomialGrowth


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

    def norm(self, a: np.ndarray) -> float:
        """Ambient norm of the span element with coordinates ``a``."""
        a = np.asarray(a, dtype=float)
        return float(np.sqrt(np.dot(self.metric_diag, a * a)))


def multiset_products(a: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """The size-p monomials ``prod_{l in L} a^l`` of coordinate arrays of
    shape (..., m), one per row of ``positions`` (the coordinate column
    of each factor of L); the result has shape (..., len(positions)).

    This is the package's one monomial kernel: the reduced field, the
    residual form, the (a, R) right-hand side and the Picard
    nonlinearity all evaluate through it. A single state skips the
    ellipsis index, which would double the cost of the gather.
    """
    factors = a[positions] if a.ndim == 1 else a[..., positions]
    return np.multiply.reduce(factors, axis=-1)


@dataclass(frozen=True)
class NonlinearTensor:
    """Symmetric coefficients of the projected power nonlinearity.

    Column j of ``matrix`` holds ``<s_k | prod s_L>_{L2}`` for the j-th
    sorted size-p tuple L of ``monomials``, whose factors sit in the
    coordinate columns ``positions[j]``; ``multiplicities`` holds the
    multinomial count of each multiset, and ``weighted`` is
    ``matrix * multiplicities``, so that the contraction over ordered
    tuples is ``weighted @ multiset_products(a, positions)``.
    """

    p: int
    monomials: tuple[tuple[int, ...], ...]
    multiplicities: np.ndarray
    matrix: np.ndarray  # shape (len(indices), len(monomials))
    positions: np.ndarray = field(repr=False)  # shape (len(monomials), p)
    weighted: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class EpsilonForm:
    """Homogeneous degree-2p residual form as a Gram matrix over monomials;
    ``weighted`` folds the multiplicities of both sides into ``gram``."""

    p: int
    monomials: tuple[tuple[int, ...], ...]
    multiplicities: np.ndarray
    gram: np.ndarray
    positions: np.ndarray = field(repr=False)
    weighted: np.ndarray = field(repr=False)

    def value_many(self, coords: np.ndarray, indices: Sequence[int]) -> np.ndarray:
        """Vectorized form evaluation for rows of ``coords`` (one
        coordinate vector per row, ordered like ``indices``, which must
        be the model's ascending mode order)."""
        factors = np.asarray(indices)[self.positions]
        if not np.array_equal(factors, self.monomials):
            raise ValueError("columns do not follow the model's mode order")
        mono = multiset_products(coords, self.positions)
        return np.einsum("ij,jk,ik->i", mono, self.weighted, mono)


@dataclass(frozen=True)
class GalerkinModel:
    basis: GalerkinBasis
    p: int
    tensor: NonlinearTensor
    eps_form: EpsilonForm = field(repr=False)


def _multiplicity(L: tuple[int, ...]) -> int:
    p = len(L)
    m = math.factorial(p)
    for c in Counter(L).values():
        m //= math.factorial(c)
    return m


def _products_on_nodes(SV: np.ndarray, SD: np.ndarray,
                       positions: np.ndarray):
    """Values and derivatives of prod_{l in L} s_l on the nodes, one row
    per row of ``positions``, from the mode samples SV and SD. Term i of
    the derivative multiplies s_{l_i}' by the other factors in order."""
    vals = SV[positions]  # (monomials, p, nodes)
    dprod = np.zeros_like(vals[:, 0])
    for i in range(positions.shape[1]):
        factors = [SD[positions[:, i : i + 1]], np.delete(vals, i, axis=1)]
        dprod += np.multiply.reduce(np.concatenate(factors, axis=1), axis=1)
    return np.multiply.reduce(vals, axis=1), dprod


def build_model(indices: Sequence[int], p: int) -> GalerkinModel:
    """Assemble the reduced vector field and residual form for a mode set."""
    basis = GalerkinBasis(tuple(indices))
    if not (isinstance(p, (int, np.integer)) and p >= 2):
        raise ValueError("p must be an integer >= 2")
    idx = basis.indices
    kmax = max(idx)
    monomials = tuple(combinations_with_replacement(idx, p))
    mult = np.array([_multiplicity(L) for L in monomials], dtype=float)
    positions = np.searchsorted(idx, monomials)

    x, w = quad.nodes(2 * p * kmax)
    SV = np.array([quad.sine_values(k, x) for k in idx])
    SD = np.array([quad.sine_derivs(k, x) for k in idx])
    PV, PD = _products_on_nodes(SV, SD, positions)
    # L2 pairings of each mode against each monomial product
    P = (SV * w) @ PV.T
    # ambient Gram matrix of the monomial products
    G = (PV * w) @ PV.T + (PD * w) @ PD.T
    weights = basis.metric_diag
    gram = G - P.T @ (weights[:, None] * P)
    gram = 0.5 * (gram + gram.T)

    tensor = NonlinearTensor(
        p=p, monomials=monomials, multiplicities=mult, matrix=P,
        positions=positions, weighted=P * mult,
    )
    eps_form = EpsilonForm(
        p=p, monomials=monomials, multiplicities=mult, gram=gram,
        positions=positions, weighted=(mult[:, None] * mult[None, :]) * gram,
    )
    return GalerkinModel(basis=basis, p=p, tensor=tensor, eps_form=eps_form)


def vector_field(model: GalerkinModel, a: np.ndarray) -> np.ndarray:
    """Reduced right-hand side X(a): diagonal decay plus the projected power."""
    a = np.asarray(a, dtype=float)
    tensor = model.tensor
    mono = multiset_products(a, tensor.positions)
    return model.basis.eigenvalues * a + tensor.weighted @ mono


def epsilon_sq(model: GalerkinModel, a: np.ndarray) -> float:
    a = np.asarray(a, dtype=float)
    if a.shape != (len(model.basis.indices),):
        raise ValueError(f"expected one coordinate per mode, got {a.shape}")
    form = model.eps_form
    mono = multiset_products(a, form.positions)
    return float(mono @ form.weighted @ mono)


def epsilon_hat(model: GalerkinModel, a: np.ndarray) -> float:
    """Residual norm of the reduced state; clipped at zero since the
    assembled quadratic form can dip to -O(roundoff)."""
    return math.sqrt(max(0.0, epsilon_sq(model, a)))


def growth_estimator(model: GalerkinModel, a: np.ndarray) -> PolynomialGrowth:
    """Growth estimator r -> (||phi|| + r)^p - ||phi||^p, expanded in the
    binomial coefficients c_j = C(p, j) ||phi||^(p-j); valid for every r."""
    norm = model.basis.norm(a)
    p = model.p
    constants = [math.comb(p, j) * norm ** (p - j) for j in range(1, p + 1)]
    return PolynomialGrowth.from_constants(constants, radius=math.inf)


def ell_hat(model: GalerkinModel, a: np.ndarray, r: float) -> float:
    """Direct evaluation of the growth estimator at radius r."""
    if r < 0.0:
        raise ValueError("radius argument must be >= 0")
    norm = model.basis.norm(a)
    p = model.p
    return sum(math.comb(p, j) * norm ** (p - j) * r**j for j in range(1, p + 1))


def initial_coords(basis: GalerkinBasis,
                   f0_coeffs: Mapping[int, float]) -> tuple[np.ndarray, float]:
    """Best-approximation coordinates of a sine polynomial datum plus the
    ambient norm of what the mode set misses."""
    a0 = np.array([float(f0_coeffs.get(k, 0.0)) for k in basis.indices])
    missed = 0.0
    for k, c in f0_coeffs.items():
        if k not in basis.indices:
            missed += (1.0 + k * k) * float(c) ** 2
    return a0, math.sqrt(missed)


def residual_norm(model: GalerkinModel, a: np.ndarray, v: np.ndarray) -> float:
    """Ambient norm of ``Lap(phi) + phi^p - sum_k v_k s_k`` where phi is
    the span element with coordinates ``a``.

    With v equal to the reduced vector field this is eps_hat(a); for any
    other v it can only be larger, which is the optimality property the
    tests exercise.
    """
    a = np.asarray(a, dtype=float)
    v = np.asarray(v, dtype=float)
    idx = model.basis.indices
    kmax = max(idx)
    x, w = quad.nodes(2 * model.p * kmax)
    SV = np.array([quad.sine_values(k, x) for k in idx])
    SD = np.array([quad.sine_derivs(k, x) for k in idx])
    phi = a @ SV
    dphi = a @ SD
    lam = model.basis.eigenvalues
    vals = (lam * a) @ SV + phi**model.p - v @ SV
    ders = (lam * a) @ SD + model.p * phi ** (model.p - 1) * dphi - v @ SD
    return math.sqrt(quad.h1_inner(vals, ders, vals, ders, w))


def eigen_invariance_defect(indices: Sequence[int], p: int) -> tuple[float, float]:
    """Largest residual coefficients the error form drops for eigen-spans.

    For a general finite span, the squared residual carries a quadratic
    block (from the linear part of the equation escaping the span) and a
    degree-(p+1) cross block. Both vanish identically when the span is
    invariant under the Laplacian, as every sine mode set is. Returns the
    max absolute assembled coefficient of each block, computed by
    quadrature, so tests can assert they are zero to roundoff.
    """
    basis = GalerkinBasis(tuple(indices))
    idx = basis.indices
    kmax = max(idx)
    x, w = quad.nodes(2 * (p + 1) * kmax)
    SV = np.array([quad.sine_values(k, x) for k in idx])
    SD = np.array([quad.sine_derivs(k, x) for k in idx])

    def project_out(vals, ders):
        # subtract the span projection sum_k <s_k|f>_{L2} s_k
        coeff = (SV * w) @ vals
        return vals - coeff @ SV, ders - coeff @ SD

    # residuals of the linear images Lap(s_j) = -j^2 s_j
    lin_res = []
    for j_pos, j in enumerate(idx):
        vals = -(j**2) * SV[j_pos]
        ders = -(j**2) * SD[j_pos]
        lin_res.append(project_out(vals, ders))

    quad_block = 0.0
    for rv, rd in lin_res:
        for sv, sd in lin_res:
            quad_block = max(quad_block, abs(quad.h1_inner(rv, rd, sv, sd, w)))

    cross_block = 0.0
    monomials = list(combinations_with_replacement(idx, p))
    positions = np.searchsorted(idx, monomials)
    for pv, pd in zip(*_products_on_nodes(SV, SD, positions)):
        rv, rd = project_out(pv, pd)
        for lv, ld in lin_res:
            cross_block = max(cross_block, abs(quad.h1_inner(lv, ld, rv, rd, w)))
    return quad_block, cross_block
