import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh

from wentzell4 import discretization, oracle
from wentzell4.coefficient import constant_profile, power_profile, singular_moment
from wentzell4.discretization import WeightKind, build_mesh, interpolate_poly, weighted_rule
from wentzell4.evolution import initial_dofs
from wentzell4.forms import (
    PENCIL,
    OperatorForm,
    WentzellParams,
    assemble,
    band_quadratic,
    element_blocks,
    gram_matrix,
)
from wentzell4.powers import DivergentIntegralError, PiecewisePower


def make(form, coeff, gamma=0.0, beta=(1.0, 1.0), n=8):
    mesh = build_mesh(n, coeff.x0)
    params = WentzellParams(beta[0], beta[1], gamma, gamma)
    return assemble(form, mesh, coeff, params)


def gram_sq(sys, kind, d, u):
    """u^T G u, G the Gram matrix of the d-th derivatives for the weight kind."""
    return band_quadratic(gram_matrix(sys.rule(kind), d), u)


def assert_exactly_symmetric(sys):
    # the element blocks of M and K, before they are folded into the bands
    # (the boundary terms are diagonal), and the dense matrices
    pencil = PENCIL[sys.form]
    for kind, d in ((pencil.mass, 0), (pencil.stiffness, 2)):
        blocks = element_blocks(sys.rule(kind), d)
        assert np.array_equal(blocks, blocks.transpose(0, 2, 1))
    for A in sys.to_dense():
        assert np.array_equal(A, A.T)


def test_wentzell_params_validation():
    with pytest.raises(ValueError):
        WentzellParams(0.0, 1.0)
    with pytest.raises(ValueError):
        WentzellParams(1.0, 1.0, 0.5, 0.0)
    WentzellParams(2.0, 3.0, -1.0, 0.0)


def test_divergence_mass_includes_boundary_point_masses():
    sys = make(OperatorForm.DIVERGENCE, power_profile(0.5, 0.5))
    one = interpolate_poly(sys.mesh, [1.0])
    M, _ = sys.to_dense()
    assert one @ M @ one == pytest.approx(1.0 + 2.0 * math.sqrt(0.5), rel=1e-13)


def test_divergence_energy_of_affine_is_zero():
    sys = make(OperatorForm.DIVERGENCE, power_profile(0.5, 0.5))
    one = interpolate_poly(sys.mesh, [1.0])
    _, K = sys.to_dense()
    scale = np.abs(K).max()
    assert abs(one @ K @ one) <= 1e-14 * scale


def test_divergence_boundary_gamma_term():
    mesh = build_mesh(8, 0.5)
    params = WentzellParams(1.0, 1.0, 0.0, -1.0)
    sys = assemble(
        OperatorForm.DIVERGENCE, mesh, power_profile(0.5, 1.0), params
    )
    x = interpolate_poly(sys.mesh, [0.0, 1.0])
    _, K = sys.to_dense()
    assert x @ K @ x == pytest.approx(0.5, abs=1e-12)


def test_nondivergence_weak_mass_value():
    sys = make(OperatorForm.NON_DIVERGENCE, power_profile(0.5, 0.5), beta=(2.0, 2.0))
    one = interpolate_poly(sys.mesh, [1.0])
    M, _ = sys.to_dense()
    assert one @ M @ one == pytest.approx(2.0 * math.sqrt(2.0) + 1.0, rel=1e-12)


def test_nondivergence_strong_constrains_value_at_x0():
    sys = make(OperatorForm.NON_DIVERGENCE, power_profile(0.5, 1.0))
    pinned = np.setdiff1d(np.arange(sys.mesh.n_dofs), sys.free)
    assert np.array_equal(pinned, [2 * sys.mesh.x0_index])  # the value dof at x0
    assert len(sys.free) == sys.mesh.n_dofs - 1
    u = interpolate_poly(sys.mesh, [-0.5, 1.0])  # x - x0, zero at the pinned dof
    assert gram_sq(sys, WeightKind.COEFF_RECIP_A, 0, u) == pytest.approx(0.25, rel=1e-12)


def test_strong_reciprocal_requires_constraint(monkeypatch):
    coeff = power_profile(0.5, 1.5)
    mesh = build_mesh(4, 0.5)
    divergence = assemble(OperatorForm.DIVERGENCE, mesh, coeff, WentzellParams(1.0, 1.0))
    assert len(divergence.free) == mesh.n_dofs  # nothing is pinned
    with pytest.raises(DivergentIntegralError):
        divergence.rule(WeightKind.COEFF_RECIP_A)
    built = {}
    original = discretization.weighted_rule

    def recording(mesh, coeff, kind, npoints=None):
        built[kind] = original(mesh, coeff, kind, npoints)
        return built[kind]

    monkeypatch.setattr(discretization, "weighted_rule", recording)
    pinned = assemble(OperatorForm.NON_DIVERGENCE, mesh, coeff, WentzellParams(1.0, 1.0))
    rule = pinned.rule(WeightKind.COEFF_RECIP_A)
    assert rule is built[WeightKind.COEFF_RECIP_A]
    # exact on products carrying the (x - x0)^2 factor
    got = float(np.dot(rule.weights[2], (rule.points[2] - 0.5) ** 2))
    assert got == pytest.approx(0.25**1.5 / 1.5, rel=1e-12)


def test_strong_exponent_two_or_more_rejected():
    mesh = build_mesh(8, 0.5)
    for form in OperatorForm:
        with pytest.raises(ValueError):
            assemble(form, mesh, power_profile(0.5, 2.0), WentzellParams(1, 1))


def test_interior_degeneracy_required():
    mesh = build_mesh(8, 0.5)
    with pytest.raises(ValueError):
        assemble(
            OperatorForm.DIVERGENCE,
            mesh,
            power_profile(0.0, 0.5),
            WentzellParams(1, 1),
        )


CASES = [
    (form, coeff, gamma)
    for form in OperatorForm
    for coeff in (
        power_profile(0.5, 0.5),
        power_profile(0.5, 1.0),
        power_profile(0.5, 1.5),
        constant_profile(1.0, 0.5),
    )
    for gamma in (0.0, -1.0)
]


@pytest.mark.parametrize("form,coeff,gamma", CASES)
def test_exact_symmetry_and_positive_semidefiniteness(form, coeff, gamma):
    sys = make(form, coeff, gamma=gamma, n=8)
    assert_exactly_symmetric(sys)
    M, K = sys.to_dense()
    w = eigh(K, M, eigvals_only=True)
    assert w[0] >= -1e-10 * max(w[-1], 1.0)
    assert np.all(eigh(M, eigvals_only=True) > 0.0)


# The cubic Hermite blocks of the reference element [0, 1]: mass (d = 0)
# and second derivatives (d = 2); on an element of length h the mass block
# carries a factor h, the other 1/h^3, and the slope rows and columns one
# factor h each.
EXACT_MASS_BLOCK = np.array(
    [[156, 22, 54, -13], [22, 4, 13, -3], [54, 13, 156, -22], [-13, -3, -22, 4]],
    dtype=np.longdouble,
) / 420
EXACT_STIFFNESS_BLOCK = np.array(
    [[12, 6, -12, 6], [6, 4, -6, 2], [-12, -6, 12, -6], [6, 2, -6, 4]], dtype=np.longdouble
)


@pytest.mark.parametrize("n", [16, 512, 4096])
@pytest.mark.parametrize("x0", [0.5, 0.37, 0.123])
def test_regular_gram_blocks_are_the_exact_integrals(n, x0):
    # every block of the unit weight against its closed form, entry by
    # entry, relative to the entry; the worst seen over these n and x0 is
    # 1.23e-15 (mass) and 4.9e-16 (d = 2), and the bounds leave a margin of
    # 2.4.  Evaluating the basis at (x - xa) / h instead costs 6.1e-14 and
    # 6.0e-14 at n = 512, x0 = 0.5, and grows with n.
    mesh = build_mesh(n, x0)
    rule = weighted_rule(mesh, power_profile(x0, 0.5), WeightKind.UNIT)
    h = mesh.lengths().astype(np.longdouble)[:, None, None]
    slope = np.array([0, 1, 0, 1])
    slope_powers = slope[:, None] + slope[None, :]
    for d, block, power, bound in (
        (0, EXACT_MASS_BLOCK, 1, 3e-15),
        (2, EXACT_STIFFNESS_BLOCK, -3, 1.2e-15),
    ):
        exact = block * h**power * h**slope_powers
        error = np.abs(element_blocks(rule, d) - exact) / np.abs(exact)
        assert float(error.max()) <= bound, (d, float(error.max()))


@pytest.mark.parametrize(
    "kind, K, d",
    [(WeightKind.COEFF_A, 0.5, 2), (WeightKind.COEFF_A, 1.5, 2),
     (WeightKind.COEFF_RECIP_A, 0.5, 0), (WeightKind.COEFF_RECIP_A, 1.5, 0)],
)
@pytest.mark.parametrize("x0", [0.3, 0.5])
def test_two_fitted_elements_integrate_cubics_exactly(kind, K, d, x0):
    # n = 2: both rows are moment-fitted, 8 (or 6) wide, narrower than the
    # 16-point Gauss rule, and no row is regular.  A cubic with a zero at
    # x0 keeps the strong 1/a integral finite.
    coeff = power_profile(x0, K)
    rule = weighted_rule(build_mesh(2, x0), coeff, kind)
    assert rule.points.shape == (2, 6 if K > 1.0 and kind is WeightKind.COEFF_RECIP_A else 8)
    q = np.polynomial.Polynomial([0.7, -1.3, 2.1])
    p = np.polynomial.Polynomial([-x0, 1.0]) * q
    u = interpolate_poly(rule.mesh, p.coef)
    if d == 0:  # p^2 = (x - x0)^2 q^2, the distance power kept exact
        square = (q**2).coef
        distance_sq = PiecewisePower.power_weight(x0, 2.0)
        integrand = PiecewisePower.from_sides(square, square, x0) * distance_sq
        integrand = integrand * coeff.as_power(-1)
    else:
        square = (p.deriv(d) ** 2).coef
        integrand = PiecewisePower.from_sides(square, square, x0) * coeff.as_power(1)
    exact = integrand.integrate()
    assert band_quadratic(gram_matrix(rule, d), u) == pytest.approx(exact, rel=1e-13)


def test_kernel_dimensions_with_neutral_boundary():
    sys = make(OperatorForm.DIVERGENCE, power_profile(0.5, 0.5), n=16)
    M, K = sys.to_dense()
    w = eigh(K, M, eigvals_only=True)
    assert np.sum(w < 1e-9 * w[-1]) == 2
    sys = make(OperatorForm.NON_DIVERGENCE, power_profile(0.5, 1.0), n=16)
    M, K = sys.to_dense()
    w = eigh(K, M, eigvals_only=True)
    assert np.sum(w < 1e-9 * w[-1]) == 1


@pytest.mark.parametrize("form", list(OperatorForm))
def test_coercivity_against_seminorm_matrix(form):
    # lam*M + K - delta*(M + S) is positive semidefinite for
    # delta = min(lam, 1, lam - gamma0, lam - gamma1)
    coeff = power_profile(0.5, 0.5)
    sys = make(form, coeff, gamma=-1.0, n=8)
    M, K, S = sys.to_dense("M", "K", "stiffness_interior")
    for lam in (0.5, 1.0, 10.0):
        delta = min(lam, 1.0, lam + 1.0)
        B = lam * M + K - delta * (M + S)
        w = eigh(B, eigvals_only=True)
        assert w[0] >= -1e-8 * max(abs(w[-1]), 1.0)


def test_norms_trivial_values():
    sys = make(OperatorForm.DIVERGENCE, power_profile(0.5, 0.5))
    one = interpolate_poly(sys.mesh, [1.0])
    assert gram_sq(sys, WeightKind.UNIT, 0, one) == pytest.approx(1.0, rel=1e-13)
    # squared seminorm vanishes to rounding against the stiffness scale
    _, K = sys.to_dense()
    scale = np.abs(K).max()
    assert gram_sq(sys, WeightKind.COEFF_A, 2, one) <= 1e-13 * scale


def test_norms_quadratic_and_measure():
    sys = make(OperatorForm.DIVERGENCE, constant_profile(1.0, 0.5))
    u = interpolate_poly(sys.mesh, [0.0, -1.0, 1.0])  # x^2 - x
    assert gram_sq(sys, WeightKind.COEFF_A, 2, u) == pytest.approx(4.0, rel=1e-13)
    sysw = make(OperatorForm.DIVERGENCE, power_profile(0.5, 0.5))
    x = interpolate_poly(sysw.mesh, [0.0, 1.0])
    assert sysw.mass_norm_sq(x) == pytest.approx(1.0 / 3.0 + math.sqrt(0.5), rel=1e-13)


@settings(max_examples=20, deadline=None)
@given(
    gamma=st.floats(min_value=-5.0, max_value=0.0),
    beta=st.floats(min_value=0.1, max_value=10.0),
    K=st.floats(min_value=0.1, max_value=1.9),
)
def test_assembly_properties_random_parameters(gamma, beta, K):
    sys = make(
        OperatorForm.DIVERGENCE, power_profile(0.4, K), gamma=gamma, beta=(beta, beta), n=6
    )
    assert_exactly_symmetric(sys)
    M, K = sys.to_dense()
    w = eigh(K, M, eigvals_only=True)
    assert w[0] >= -1e-10 * max(w[-1], 1.0)


def test_weak_reciprocal_mass_matches_closed_moment():
    coeff = power_profile(0.5, 0.5)
    sys = make(OperatorForm.NON_DIVERGENCE, coeff, beta=(1e6, 1e6), n=8)
    one = interpolate_poly(sys.mesh, [1.0])
    expected = singular_moment(coeff, (0, 1), 0, -1) + 2e-6
    M, _ = sys.to_dense()
    assert one @ M @ one == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize(
    "form, K",
    [(OperatorForm.DIVERGENCE, 0.5), (OperatorForm.NON_DIVERGENCE, 0.5),
     (OperatorForm.NON_DIVERGENCE, 1.5)],
)
def test_each_weight_rule_is_built_once_per_system(monkeypatch, form, K):
    built = Counter()
    original = discretization.weighted_rule

    def counting(mesh, coeff, kind, npoints=None):
        if npoints is None:
            built[WeightKind(kind)] += 1
        return original(mesh, coeff, kind, npoints)

    monkeypatch.setattr(discretization, "weighted_rule", counting)
    sys = make(form, power_profile(0.5, K), gamma=-1.0)
    assert set(built) == set(PENCIL[form])
    initial_dofs(sys, [1.0, 2.0], project=True)
    (check,) = oracle.SUITES["spectral"]([("case", sys)])
    assert check.computed["symmetry_gap"] == 0.0
    assert max(built.values()) == 1, built
