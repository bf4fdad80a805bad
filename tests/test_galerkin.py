"""Spectral reduction assembly.

The two-mode reduction of the quadratic problem has hand-computable
coefficients (sine product integrals over (0, pi), reduced with the
product-to-sum identities). The node kernel must reproduce all eleven
of them to 1e-12 absolute, read off the reduced field and the residual
norm at fixed points.
"""

import itertools
import math

import numpy as np
import pytest

from evocontrol import control
from evocontrol import galerkin as gk
from evocontrol import heat, picard
from evocontrol import quadrature as qd

_SQ = math.sqrt(2.0 / math.pi**3)
_PI = math.pi

# coefficients of the reduced field on modes (1, 3), power 2:
# X^1 = -a1 + sq (8/3 a1^2 - 16/15 a1 a3 + 72/35 a3^2)
# X^3 = -9 a3 + sq (-8/15 a1^2 + 144/35 a1 a3 + 8/9 a3^2)
_FIELD_COEFFS = {
    (0, (1, 1)): _SQ * 8.0 / 3.0,
    (0, (1, 3)): -_SQ * 16.0 / 15.0,
    (0, (3, 3)): _SQ * 72.0 / 35.0,
    (1, (1, 1)): -_SQ * 8.0 / 15.0,
    (1, (1, 3)): _SQ * 144.0 / 35.0,
    (1, (3, 3)): _SQ * 8.0 / 9.0,
}

# quartic coefficients of the squared residual on the same span
_EPS_SQ_COEFFS = {
    (4, 0): 7.0 / (2.0 * _PI) - 512.0 / (15.0 * _PI**3),
    (3, 1): 34816.0 / (315.0 * _PI**3) - 10.0 / _PI,
    (2, 2): 46.0 / _PI - 12172288.0 / (33075.0 * _PI**3),
    (1, 3): -22528.0 / (175.0 * _PI**3),
    (0, 4): 39.0 / (2.0 * _PI) - 3247616.0 / (99225.0 * _PI**3),
}


def test_metric_identity_through_mode_twelve():
    # roundoff scales with k*l through the derivative products, hence
    # the slightly-above-machine absolute budget
    x, w = qd.nodes(24)
    for k in range(1, 13):
        for l in range(1, 13):
            val = qd.h1_inner(
                qd.sine_values(k, x), qd.sine_derivs(k, x),
                qd.sine_values(l, x), qd.sine_derivs(l, x), w,
            )
            expected = (1.0 + k * k) if k == l else 0.0
            assert abs(val - expected) <= 5e-12


def _field_coefficients(model):
    """Coefficients of the projected power on modes (1, 3), power 2,
    read off the reduced field at fixed points with lam * a removed:
    c(e1), c(e3) and (c(1, 1) - c(1, -1)) / 2."""
    lam = model.basis.eigenvalues

    def c(a1, a3):
        a = np.array([a1, a3])
        return gk.vector_field(model, a) - lam * a

    mixed = (c(1.0, 1.0) - c(1.0, -1.0)) / 2.0
    return {
        (row, mono): value
        for mono, values in (((1, 1), c(1.0, 0.0)), ((1, 3), mixed),
                             ((3, 3), c(0.0, 1.0)))
        for row, value in enumerate(values)
    }


def _residual_coefficients(model):
    """Quartic coefficients of eps_hat^2 on modes (1, 3), power 2, from
    the even and odd parts of t -> eps_hat(1, t)^2 at t = 1, 2 and the
    pure powers eps_hat(1, 0)^2, eps_hat(0, 1)^2."""

    def eps_sq(a1, a3):
        return gk.epsilon_hat(model, np.array([a1, a3])) ** 2

    c40, c04 = eps_sq(1.0, 0.0), eps_sq(0.0, 1.0)
    odd1 = (eps_sq(1.0, 1.0) - eps_sq(1.0, -1.0)) / 2.0  # c31 + c13
    odd2 = (eps_sq(1.0, 2.0) - eps_sq(1.0, -2.0)) / 2.0  # 2 c31 + 8 c13
    even1 = (eps_sq(1.0, 1.0) + eps_sq(1.0, -1.0)) / 2.0  # c40 + c22 + c04
    c13 = (odd2 - 2.0 * odd1) / 6.0
    return {(4, 0): c40, (3, 1): odd1 - c13, (2, 2): even1 - c40 - c04,
            (1, 3): c13, (0, 4): c04}


def test_two_mode_field_coefficients():
    model = gk.build_model((1, 3), 2)
    got = _field_coefficients(model)
    for key, expected in _FIELD_COEFFS.items():
        assert abs(got[key] - expected) <= 1e-12
    lam = model.basis.eigenvalues
    assert lam[0] == -1.0 and lam[1] == -9.0


def test_two_mode_residual_coefficients():
    got = _residual_coefficients(gk.build_model((1, 3), 2))
    for key, expected in _EPS_SQ_COEFFS.items():
        assert abs(got[key] - expected) <= 1e-12


def test_two_mode_growth_estimator_formula():
    # ell(r) = r^2 + 2 sqrt(2 a1^2 + 10 a3^2) r for the quadratic case
    model = gk.build_model((1, 3), 2)
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = rng.uniform(-2.0, 2.0, 2)
        r = rng.uniform(0.0, 3.0)
        expected = r * r + 2.0 * math.sqrt(2 * a[0] ** 2 + 10 * a[1] ** 2) * r
        got = control.power_growth(model.basis.norm(a), r, model.p)
        assert abs(got - expected) <= 1e-12


def test_residual_form_nonnegative_everywhere():
    rng = np.random.default_rng(20)
    for indices, p in itertools.product(
        [(1, 2), (1, 3), (1, 2, 3), (1, 3, 5, 7)], [2, 3]
    ):
        model = gk.build_model(indices, p)
        coords = rng.uniform(-3.0, 3.0, size=(2500, len(indices)))
        vals = model.eps_form.value_many(coords, indices)
        assert float(np.min(vals)) >= 0.0


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


def eigen_invariance_defect(indices, p: int) -> tuple[float, float]:
    """Largest residual coefficients the error form drops for eigen-spans.

    For a general finite span, the squared residual carries a quadratic
    block (from the linear part of the equation escaping the span) and a
    degree-(p+1) cross block. Both vanish identically when the span is
    invariant under the Laplacian, as every sine mode set is. Returns the
    max absolute assembled coefficient of each block, computed by
    quadrature, so a test can assert they are zero to roundoff.
    """
    basis = gk.GalerkinBasis(tuple(indices))
    idx = basis.indices
    kmax = max(idx)
    x, w = qd.nodes(2 * (p + 1) * kmax)
    SV = np.array([qd.sine_values(k, x) for k in idx])
    SD = np.array([qd.sine_derivs(k, x) for k in idx])

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
            quad_block = max(quad_block, abs(qd.h1_inner(rv, rd, sv, sd, w)))

    cross_block = 0.0
    monomials = list(itertools.combinations_with_replacement(idx, p))
    positions = np.searchsorted(idx, monomials)
    for pv, pd in zip(*_products_on_nodes(SV, SD, positions)):
        rv, rd = project_out(pv, pd)
        for lv, ld in lin_res:
            cross_block = max(cross_block,
                              abs(qd.h1_inner(lv, ld, rv, rd, w)))
    return quad_block, cross_block


def test_span_invariance_defects_vanish():
    for indices, p in [((1, 3), 2), ((1, 2, 3), 2), ((1, 2), 3)]:
        quad_block, cross_block = eigen_invariance_defect(indices, p)
        assert quad_block <= 1e-12
        assert cross_block <= 1e-12


def test_projected_field_minimizes_the_residual():
    rng = np.random.default_rng(8)
    for indices, p in [((1, 3), 2), ((1, 2, 3), 2), ((1, 2), 3)]:
        model = gk.build_model(indices, p)
        form = model.eps_form
        for _ in range(10):
            a = rng.uniform(-1.5, 1.5, len(indices))
            _, power = gk.project_power(form, a)

            def residual(v):
                # ambient norm of Lap(phi) + phi^p - sum_k v_k s_k, where
                # Lap(phi) = sum_k lam_k a_k s_k lies in the span
                u = v - model.basis.eigenvalues * a
                return math.sqrt(gk.missed_sq(form, power, u))

            v = gk.vector_field(model, a)
            best = residual(v)
            eps = gk.epsilon_hat(model, a)
            assert abs(best - eps) <= 1e-10 * max(1.0, eps)
            perturbed = residual(v + rng.uniform(0.1, 0.5, v.size))
            assert perturbed >= eps - 1e-10


def test_basis_validation():
    with pytest.raises(ValueError):
        gk.GalerkinBasis((0, 1))
    with pytest.raises(ValueError):
        gk.GalerkinBasis((1, 1))
    basis = gk.GalerkinBasis((3, 1))
    assert basis.indices == (1, 3)
    a = np.array([1.0, 2.0])
    assert abs(basis.norm(a) - math.sqrt(2.0 + 40.0)) <= 1e-15


def _ordered_tuple_reference(indices, p, a):
    """X(a) and eps_hat(a)^2 as sums over ordered index tuples, from sine
    products sampled on nodes of their own: no monomial table, no
    multiplicities."""
    x, w = qd.nodes(4 * p * max(indices))
    S = np.array([qd.sine_values(k, x) for k in indices])
    D = np.array([qd.sine_derivs(k, x) for k in indices])
    tuples = list(itertools.product(range(len(indices)), repeat=p))
    vals = np.array([np.prod(S[list(t)], axis=0) for t in tuples])
    ders = np.array([
        sum(D[t[i]] * np.prod(S[list(t[:i] + t[i + 1:])], axis=0)
            for i in range(p))
        for t in tuples
    ])
    coef = np.array([math.prod(a[list(t)]) for t in tuples])
    f, df = coef @ vals, coef @ ders  # phi^p and its derivative
    c = (S * w) @ f  # L2 projection of phi^p onto the span
    k = np.asarray(indices, dtype=float)
    field = -k * k * a + c
    rv, rd = f - c @ S, df - c @ D
    return field, qd.h1_inner(rv, rd, rv, rd, w)


def test_cubic_kernel_matches_ordered_tuple_sums():
    indices = (1, 2, 3)
    model = gk.build_model(indices, 3)
    rng = np.random.default_rng(5)
    coords = rng.uniform(-1.5, 1.5, size=(40, 3))
    many = model.eps_form.value_many(coords, indices)
    for a, eps_sq in zip(coords, many):
        field, ref_sq = _ordered_tuple_reference(indices, 3, a)
        got = gk.vector_field(model, a)
        assert np.max(np.abs(got - field)) <= 1e-13 * np.max(np.abs(field))
        assert abs(eps_sq - ref_sq) <= 1e-13 * ref_sq
        assert abs(gk.epsilon_hat(model, a) ** 2 - ref_sq) <= 1e-13 * ref_sq


def test_many_mode_residual_matches_an_independent_node_set():
    # along an A=10 trajectory on the first 24 odd modes, where a Gram
    # form over degree-p monomials loses about 1e-5 to cancellation
    modes = tuple(range(1, 48, 2))
    model = gk.build_model(modes, 2)
    result = heat.run_scenario(heat.HeatScenario(A=10.0, modes=modes))
    coords = result.trajectory.coords
    many = np.sqrt(model.eps_form.value_many(coords, modes))
    for row in [*range(0, len(coords), 40), len(coords) - 1]:
        a = coords[row]
        ref = math.sqrt(_ordered_tuple_reference(modes, 2, a)[1])
        assert abs(many[row] - ref) <= 1e-11 * ref
        assert abs(gk.epsilon_hat(model, a) - ref) <= 1e-11 * ref


def test_every_kernel_path_agrees_at_p2():
    model = gk.build_model((1, 3), 2)
    coords = np.random.default_rng(11).uniform(-3.0, 3.0, size=(257, 2))
    rhs = heat._coupled_rhs(model, 1.0)
    # sigma = 1 (R = 0): the last component of the (a, sigma) field is
    # (1 - p) eps_hat, -eps_hat at p = 2
    out = np.array([rhs(0.0, np.append(a, 1.0)) for a in coords])
    field = np.array([gk.vector_field(model, a) for a in coords])
    eps = np.array([gk.epsilon_hat(model, a) for a in coords])
    assert np.array_equal(field, out[:, :2])
    assert np.array_equal(eps, -out[:, 2])
    # the array paths run the same kernel on all rows at once, where
    # BLAS may block the sums differently, so they agree to a few ulps
    many = np.sqrt(model.eps_form.value_many(coords, (1, 3)))
    assert np.max(np.abs(many - eps) / eps) <= 1e-14
    problem = picard.FiniteVolterraProblem(
        indices=(1, 3), p=2, datum=np.zeros(2), t0=0.0, t1=1.0
    )
    grid = model.basis.eigenvalues * coords + picard.nonlinearity_on_grid(
        problem, coords
    )
    assert np.max(np.abs(grid - field)) <= 1e-14 * np.max(np.abs(field))


def test_models_are_built_once_and_read_only():
    model = gk.build_model((3, 1), 2)
    assert gk.build_model([1, 3], 2) is model
    assert gk.build_model((1, 3), np.int64(2)) is model
    assert model.basis.indices == (1, 3)
    form = model.eps_form
    for name in ("samples", "doubled", "projector", "residual_basis",
                 "weights"):
        with pytest.raises(ValueError):
            getattr(form, name)[0] = 0.0


def test_value_many_rejects_a_foreign_column_order():
    model = gk.build_model((1, 3), 2)
    with pytest.raises(ValueError):
        model.eps_form.value_many(np.ones((4, 2)), (3, 1))


def test_node_products_keep_the_bits_of_the_factor_loop():
    # reference: multiply the sampled factors one at a time, in order,
    # and each derivative term as s_{l_i}' times the other factors
    indices, p = (1, 2, 3), 3
    x, _ = qd.nodes(2 * p * max(indices))
    SV = np.array([qd.sine_values(k, x) for k in indices])
    SD = np.array([qd.sine_derivs(k, x) for k in indices])
    tuples = list(itertools.combinations_with_replacement(range(3), p))
    PV, PD = _products_on_nodes(SV, SD, np.array(tuples))
    for row, t in enumerate(tuples):
        prod = np.ones_like(x)
        for l in t:
            prod = prod * SV[l]
        dprod = np.zeros_like(x)
        for i in range(p):
            term = SD[t[i]].copy()
            for j in range(p):
                if j != i:
                    term = term * SV[t[j]]
            dprod += term
        assert np.array_equal(PV[row], prod)
        assert np.array_equal(PD[row], dprod)


@pytest.mark.parametrize("indices, p, rows", [
    ((1, 3), 2, 1), ((1, 3), 2, 300), ((1, 2, 3, 5), 3, 40),
    (tuple(range(1, 97)), 2, 200),
])
def test_value_half_keeps_the_bits_of_the_projection(indices, p, rows):
    # project_values multiplies the samples of phi alone, in the order
    # project_power multiplies its value half
    form = gk.build_model(indices, p).eps_form
    k = np.asarray(indices, dtype=float)
    rng = np.random.default_rng(rows)
    coords = rng.uniform(-1.0, 1.0, size=(rows, len(indices))) / k
    for a in (coords[0], coords):
        c, _ = gk.project_power(form, a)
        assert np.array_equal(gk.project_values(form, a), c)
