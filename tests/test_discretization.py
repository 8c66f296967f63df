import gc
import itertools
import math
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from wentzell4.coefficient import DegeneracyClass, classify, power_profile, singular_moment
from wentzell4.discretization import (
    WeightKind,
    _fitted_singular_rule,
    _gauss_legendre,
    _moment_fit,
    _shifted_legendre_coeffs,
    build_mesh,
    evaluate,
    interpolate_poly,
    l2_error,
    shape_values,
    weighted_rule,
)
from wentzell4.forms import PENCIL, OperatorForm, WentzellParams, assemble, element_blocks


def test_build_mesh_uniform_midpoint():
    mesh = build_mesh(4, 0.5)
    np.testing.assert_allclose(mesh.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert mesh.x0 == 0.5 and mesh.x0_index == 2


def test_build_mesh_minimal():
    mesh = build_mesh(2, 0.3)
    np.testing.assert_allclose(mesh.nodes, [0.0, 0.3, 1.0])


def test_build_mesh_rejects_boundary_x0():
    with pytest.raises(ValueError):
        build_mesh(4, 0.0)
    with pytest.raises(ValueError):
        build_mesh(4, 1.0)
    with pytest.raises(ValueError):
        build_mesh(1, 0.5)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    n=st.integers(min_value=2, max_value=10**5),
    x0=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
)
@example(n=10**5, x0=5e-324)
@example(n=10**5, x0=1e-300)
@example(n=10**5, x0=1.0 - 2.0**-53)
@example(n=2, x0=1.0 - 2.0**-53)
def test_build_mesh_is_valid_for_every_n_and_x0(n, x0):
    mesh = build_mesh(n, x0)
    assert mesh.n_elements == n
    assert mesh.nodes[0] == 0.0 and mesh.nodes[-1] == 1.0
    assert mesh.nodes[mesh.x0_index] == x0
    assert np.all(np.diff(mesh.nodes) > 0.0)


def test_mesh_numbers_a_value_and_a_slope_dof_per_node():
    mesh = build_mesh(3, 0.5)
    assert mesh.n_dofs == 8 and mesh.end_dofs == [0, 6]
    assert np.array_equal(mesh.element_dofs(), [[0, 1, 2, 3], [2, 3, 4, 5], [4, 5, 6, 7]])


def test_hermite_cardinality():
    # value shape: one at its node with zero slope; slope shape: zero value
    # with unit slope, on an element of length 0.25
    v, dv = (shape_values(0.0, d) * column_scales(0.25, d) for d in (0, 1))
    np.testing.assert_allclose(v, [1.0, 0.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(dv, [0.0, 1.0, 0.0, 0.0], atol=1e-15)
    v1, dv1 = (shape_values(1.0, d) * column_scales(0.25, d) for d in (0, 1))
    np.testing.assert_allclose(v1, [0.0, 0.0, 1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(dv1, [0.0, 0.0, 0.0, 1.0], atol=1e-15)


def _reproduction_error(dofs, mesh, coeffs, x, d):
    """Error of the represented d-th derivative at x against the
    polynomial, and a rounding bound for it: 32 eps times the summed
    magnitudes of the terms of both sides, u_i phi_i^(d)(x) and p_k x^k.
    An absolute bound fails for d = 3, where the terms scale like 1/h^3;
    the largest error seen over 1e5 random and edge-value draws is 5.1 eps
    times the sum.  The 1e-300 floor is for subnormal coefficients."""
    p = np.polynomial.Polynomial(coeffs).deriv(d)
    unit = np.eye(mesh.n_dofs)
    terms = sum(abs(evaluate(u * e, mesh, x, d)) for u, e in zip(dofs, unit))
    terms += sum(abs(c * x**k) for k, c in enumerate(p.coef))
    bound = 32.0 * np.finfo(float).eps * terms + 1e-300
    return abs(evaluate(dofs, mesh, x, d) - p(x)), bound


@settings(max_examples=25, deadline=None)
@given(
    coeffs=st.lists(
        st.floats(min_value=-3, max_value=3), min_size=1, max_size=4
    ),
    x=st.floats(min_value=0.0, max_value=1.0),
    d=st.integers(min_value=0, max_value=3),
)
@example(coeffs=[-1.0, -2.5752827714775375], x=1.0, d=3)
def test_cubic_reproduction_all_derivatives(coeffs, x, d):
    mesh = build_mesh(5, 0.4)
    dofs = interpolate_poly(mesh, coeffs)
    error, bound = _reproduction_error(dofs, mesh, coeffs, x, d)
    assert error <= bound


@pytest.mark.parametrize("d", range(4))
@pytest.mark.parametrize("x", [0.0, 0.13, 0.4, 0.77, 1.0])
@pytest.mark.parametrize("coeffs", [[-1.0, -2.5752827714775375], [0.3, -1.2, 0.8, 2.1]])
def test_cubic_reproduction_bound_rejects_a_perturbed_dof(coeffs, x, d):
    mesh = build_mesh(5, 0.4)
    dofs = interpolate_poly(mesh, coeffs)
    # the dof of the largest term u_i phi_i^(d)(x), off by a relative 1e-9
    terms = [abs(evaluate(u * e, mesh, x, d)) for u, e in zip(dofs, np.eye(len(dofs)))]
    dofs[int(np.argmax(terms))] *= 1.0 + 1e-9
    error, bound = _reproduction_error(dofs, mesh, coeffs, x, d)
    assert error > bound


def test_evaluate_rejects_fourth_derivative():
    mesh = build_mesh(2, 0.5)
    with pytest.raises(ValueError):
        evaluate(np.zeros(mesh.n_dofs), mesh, 0.5, 4)


def test_evaluate_refuses_a_vector_of_the_wrong_length():
    # a free-dof vector of a system with a pinned dof is one entry short
    mesh = build_mesh(4, 0.5)
    system = assemble(OperatorForm.NON_DIVERGENCE, mesh, power_profile(0.5, 1.5),
                      WentzellParams(1.0, 1.0))
    n = mesh.n_dofs
    free = np.ones(len(system.free))
    assert len(free) == n - 1
    for dofs in (free, np.ones(n + 1), np.ones((n - 1, 2)), np.float64(1.0)):
        with pytest.raises(ValueError, match="coefficients of shape"):
            evaluate(dofs, mesh, 0.3)
    with pytest.raises(ValueError, match="coefficients of shape"):
        l2_error(free, mesh, np.cos)
    assert l2_error(np.zeros(n), mesh, np.zeros_like) == 0.0


def test_evaluate_zero_function():
    mesh = build_mesh(3, 0.5)
    for d in range(4):
        assert evaluate(np.zeros(mesh.n_dofs), mesh, 0.77, d) == 0.0


def test_unit_rule_weights_sum_to_measure():
    mesh = build_mesh(6, 0.37)
    rule = weighted_rule(mesh, power_profile(0.37, 0.5), WeightKind.UNIT)
    total = np.sum(rule.weights)
    assert total == pytest.approx(1.0, abs=1e-14)


def test_reciprocal_rule_weak_matches_closed_moment():
    coeff = power_profile(0.5, 0.5)
    mesh = build_mesh(4, 0.5)
    rule = weighted_rule(mesh, coeff, WeightKind.COEFF_RECIP_A)
    # element [0.25, 0.5]: integral of 1/a is 2 sqrt(0.25)
    assert np.sum(rule.weights[1]) == pytest.approx(1.0, rel=1e-13)
    total = np.sum(rule.weights)
    assert total == pytest.approx(singular_moment(coeff, (0, 1), 0, -1), rel=1e-10)


def test_weight_rule_nondegenerate_is_plain_gauss():
    coeff = power_profile(0.5, 0.0)  # constant one
    mesh = build_mesh(4, 0.5)
    rule = weighted_rule(mesh, coeff, WeightKind.COEFF_A)
    total = np.sum(rule.weights)
    assert total == pytest.approx(1.0, rel=1e-14)


def test_weight_rule_coeff_a_triangle():
    coeff = power_profile(0.5, 1.0)
    mesh = build_mesh(4, 0.5)
    rule = weighted_rule(mesh, coeff, WeightKind.COEFF_A)
    assert np.sum(rule.weights[2]) == pytest.approx(0.03125, rel=1e-13)


def test_singular_rule_exact_for_fitted_degrees():
    coeff = power_profile(0.5, 0.5, scale=1.7)
    mesh = build_mesh(4, 0.5)
    rule = weighted_rule(mesh, coeff, WeightKind.COEFF_RECIP_A)
    for j in range(8):
        got = float(np.dot(rule.weights[1], (0.5 - rule.points[1]) ** j))
        exact = (0.25) ** (j + 0.5) / ((j + 0.5) * 1.7)
        assert got == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("r", range(8))
def test_shifted_legendre_coefficients_are_numpys_conversion(r):
    # the integers (-1)^(r+k) C(r, k) C(r+k, k), with the bits of numpy's
    # P_r(2s - 1) by basis conversion and composition
    Legendre, Polynomial = np.polynomial.Legendre, np.polynomial.Polynomial
    expected = Legendre.basis(r).convert(kind=Polynomial)(Polynomial([-1.0, 2.0])).coef
    got = _shifted_legendre_coeffs(r)
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


def loop_fitted_rule(coeff, h, sign, min_degree):
    """The fitted weights with the moments as a dict and each right-hand
    side entry a Python sum over the shifted Legendre coefficients."""
    p = sign * coeff.K
    amp = coeff.scale**sign
    sigma, A, _ = _moment_fit(min_degree)
    moments = {
        j: amp * h ** (p + 1.0) / (j + p + 1.0)
        for j in range(min_degree, 8)
    }
    rhs = np.array([
        sum(c * moments[min_degree + j] for j, c in enumerate(_shifted_legendre_coeffs(r)))
        for r in range(len(sigma))
    ])
    return np.linalg.solve(A, rhs)


def test_fitted_rule_equals_the_moment_loop_bit_for_bit():
    for K, scale, k, sign, min_degree in itertools.product(
        (0.0, 0.3, 0.5, 1.0, 1.5, 1.9), (1.0, 0.37, 3e5), range(1, 14), (1, -1), (0, 2)
    ):
        if min_degree - K + 1.0 <= 0.0 and sign < 0:  # a divergent moment: never fitted
            continue
        coeff, h = power_profile(0.5, K, scale), 2.0**-k
        got = _fitted_singular_rule(coeff, h, sign, min_degree)
        assert np.array_equal(got, loop_fitted_rule(coeff, h, sign, min_degree))


def test_smooth_element_weighted_rule_accuracy():
    coeff = power_profile(0.5, 0.7)
    mesh = build_mesh(8, 0.5)
    rule = weighted_rule(mesh, coeff, WeightKind.COEFF_RECIP_A)
    # first element does not touch x0: compare with adaptive quadrature
    got = float(np.dot(rule.weights[0], rule.points[0] ** 3))
    expected = quad(lambda x: x**3 / coeff(x), *mesh.element(0))[0]
    assert got == pytest.approx(expected, rel=1e-13)


def _legendre_rule_mp(npoints, node):
    """The Gauss-Legendre node next to ``node`` and its weight, to 50
    digits: a root of P_n by mpmath, w = 2 / ((1 - x^2) P_n'(x)^2) with
    P_n'(x) = n P_{n-1}(x) / (1 - x^2) at a root."""
    with mpmath.workdps(50):
        x = mpmath.findroot(lambda t: mpmath.legendre(npoints, t), mpmath.mpf(node))
        derivative = npoints * mpmath.legendre(npoints - 1, x) / (1 - x**2)
        return x, 2 / ((1 - x**2) * derivative**2)


@pytest.mark.parametrize("npoints", [4, 6, 8, 16])
def test_gauss_legendre_table_is_correctly_rounded(npoints):
    # every node and weight within half an ulp of the 50-digit rule
    nodes, weights = _gauss_legendre(npoints)
    for node, weight in zip(nodes, weights):
        exact_node, exact_weight = _legendre_rule_mp(npoints, node)
        for value, exact in ((node, exact_node), (weight, exact_weight)):
            with mpmath.workdps(50):
                ulps = abs(mpmath.mpf(float(value)) - exact) / np.spacing(abs(value))
            assert ulps <= 0.5, (value, float(ulps))
    assert not nodes.flags.writeable and not weights.flags.writeable


@pytest.mark.parametrize("npoints", [4, 6, 8, 16])
def test_gauss_legendre_table_integrates_monomials(npoints):
    # correctly rounded nodes and weights integrate x^k, k < 2 npoints, to
    # within eps; the largest error seen is eps / 2 (6, 8 and 16 points)
    nodes, weights = _gauss_legendre(npoints)
    for k in range(2 * npoints):
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        moment = math.fsum((weights * nodes**k).tolist())
        assert abs(moment - exact) <= np.finfo(float).eps, k


def test_gauss_legendre_refuses_an_untabulated_count():
    with pytest.raises(ValueError, match=r"\[4, 6, 8, 16\]"):
        _gauss_legendre(5)


def test_quadrature_symmetric_in_basis_pairs():
    mesh = build_mesh(4, 0.5)
    rule = weighted_rule(mesh, power_profile(0.5, 0.5), WeightKind.COEFF_A)
    for d in range(3):
        blocks = element_blocks(rule, d)
        assert np.array_equal(blocks, blocks.transpose(0, 2, 1))


def loop_rule(mesh, coeff, kind, npoints=None):
    """Element-by-element construction of a rule, ragged, the reference
    for the batched one: points, weights and the reference abscissae s in
    [0, 1] of every element."""
    n_gauss = npoints or (4 if kind is WeightKind.UNIT else 16)
    xi, wi = _gauss_legendre(n_gauss)
    klass = classify(coeff)
    singular, min_degree = set(), 0
    if kind is not WeightKind.UNIT and klass is not DegeneracyClass.NONDEGENERATE:
        singular = {mesh.x0_index - 1, mesh.x0_index}
        if kind is WeightKind.COEFF_RECIP_A and klass is DegeneracyClass.STRONG:
            min_degree = 2
    sign = -1 if kind is WeightKind.COEFF_RECIP_A else 1
    sigma = _moment_fit(min_degree)[0]
    points, weights, abscissae = [], [], []
    for e in range(mesh.n_elements):
        xa, xb = mesh.element(e)
        h = xb - xa
        if e in singular:
            w = _fitted_singular_rule(coeff, h, sign, min_degree)
            if xb == mesh.x0:  # left of x0: ascending x is descending sigma
                s, x, w = 1.0 - sigma[::-1], xb - h * sigma[::-1], w[::-1]
            else:
                s, x = sigma, xa + h * sigma
        else:
            s = 0.5 * (xi + 1.0)
            x = xa + 0.5 * h * (xi + 1.0)
            w = 0.5 * h * wi
            if kind is not WeightKind.UNIT:
                w = w * coeff(x) ** sign
        points.append(x)
        weights.append(w)
        abscissae.append(s)
    return points, weights, abscissae


def padded(mesh, points, weights, abscissae):
    """(n_elements, P) arrays, rows padded with zero weights at the left
    node, where the reference abscissa is 0."""
    width = max(map(len, points))
    P = np.repeat(mesh.nodes[:-1, None], width, axis=1)
    W = np.zeros(P.shape)
    S = np.zeros(P.shape)
    for e, (x, w, s) in enumerate(zip(points, weights, abscissae)):
        P[e, : len(x)], W[e, : len(w)], S[e, : len(s)] = x, w, s
    return P, W, S


def column_scales(h, d):
    """c with phi^(d) = c * phi_hat^(d) on an element of length h."""
    return np.array({
        0: (1.0, h, 1.0, h),
        1: (1.0 / h, 1.0, 1.0 / h, 1.0),
        2: (1.0 / (h * h), 1.0 / h, 1.0 / (h * h), 1.0 / h),
    }[d])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    form=st.sampled_from(list(OperatorForm)),
    K=st.floats(min_value=0.0, max_value=1.99),
    x0=st.floats(min_value=0.05, max_value=0.95),
    n=st.integers(min_value=2, max_value=64),
    npoints=st.sampled_from([None, 8]),
)
@example(form=OperatorForm.NON_DIVERGENCE, K=1.5, x0=0.3, n=2, npoints=None)
@example(form=OperatorForm.DIVERGENCE, K=0.5, x0=0.7, n=2, npoints=8)
def test_batched_rule_equals_element_loop_bit_for_bit(form, K, x0, n, npoints):
    coeff = power_profile(x0, K)
    mesh = build_mesh(n, x0)
    row, col = np.tril_indices(4)
    for kind in PENCIL[form]:
        rule = weighted_rule(mesh, coeff, kind, npoints)
        P, W, S = padded(mesh, *loop_rule(mesh, coeff, kind, npoints))
        assert np.array_equal(rule.points, P) and np.array_equal(rule.weights, W)
        assert not (rule.points.flags.writeable or rule.weights.flags.writeable)
        for d in range(3):
            # each element alone, on its reference abscissae: the 10 lower
            # entries (w @ (T_i T_j)) c_i c_j, mirrored
            expected = np.empty((n, 4, 4))
            for e in range(n):
                T = shape_values(S[e], d)
                c = column_scales(mesh.lengths()[e], d)
                entries = (W[e] @ (T[:, row] * T[:, col])) * (c[row] * c[col])
                expected[e, row, col] = expected[e, col, row] = entries
            assert np.array_equal(element_blocks(rule, d), expected)
    coeffs = [0.3, -1.0, 2.0, 0.5, -0.25]
    p = np.polynomial.Polynomial(coeffs)
    reference = np.zeros(mesh.n_dofs)
    for i, xn in enumerate(mesh.nodes):
        reference[2 * i], reference[2 * i + 1] = p(xn), p.deriv()(xn)
    assert np.array_equal(interpolate_poly(mesh, coeffs), reference)


def test_a_mesh_keeps_each_rule_and_is_freed_without_the_collector():
    coeff = power_profile(0.5, 1.5)
    mesh = build_mesh(8, 0.5)
    rule = mesh.rule(coeff, WeightKind.COEFF_A)
    assert mesh.rule(coeff, "coeff_a") is rule
    # the unit rule does not depend on the coefficient
    assert mesh.rule(power_profile(0.5, 0.5), WeightKind.UNIT) is mesh.rule(coeff, WeightKind.UNIT)
    assert np.array_equal(rule.weights, weighted_rule(mesh, coeff, WeightKind.COEFF_A).weights)
    assert rule.pair_integrals(2) is rule.pair_integrals(2)
    # a rule refers to a copy of the mesh, so neither refers back to the
    # other and both go with their last user, collector or not
    system = assemble(OperatorForm.DIVERGENCE, mesh, coeff, WentzellParams(1.0, 1.0))
    alive = [weakref.ref(obj) for obj in (mesh, rule, system.rule(WeightKind.UNIT), system)]
    gc.disable()
    try:
        del mesh, rule, system
        assert [ref() for ref in alive] == [None] * len(alive)
    finally:
        gc.enable()
