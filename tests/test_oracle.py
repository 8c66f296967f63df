import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad

from wentzell4 import forms, oracle
from wentzell4.coefficient import constant_profile, power_profile
from wentzell4.discretization import (
    WeightKind,
    build_mesh,
    interpolate_poly,
    weighted_rule,
)
from wentzell4.forms import (
    PENCIL,
    OperatorForm,
    WentzellParams,
    _dense_spectrum,
    assemble,
    gram_matrix,
    pencil_spectrum,
)
from wentzell4.oracle import (
    NESTED_REL_TOL,
    NormEquivalenceReport,
    SpaceMembershipError,
    best_linear_fit,
    dense_decompose,
    exact_propagator,
    expected_kernel,
    green_battery,
    green_residual,
    hardy_bound,
    near_zero_count,
    norm_equivalence_report,
    pointwise_sqrt_bound,
    verification_report,
)
from wentzell4.powers import PiecewisePower


@pytest.fixture(scope="module")
def weak_system():
    mesh = build_mesh(16, 0.5)
    return assemble(
        OperatorForm.DIVERGENCE,
        mesh,
        power_profile(0.5, 0.5),
        WentzellParams(1.0, 1.0),
    )


# ---- spectral reference ---------------------------------------------------


def test_decomposition_orthonormality_and_diagonalization(weak_system):
    d = dense_decompose(weak_system)
    V = d.vectors
    M, K = weak_system.to_dense()
    assert np.max(np.abs(V.T @ M @ V - np.eye(len(d.eigenvalues)))) <= 1e-10
    off = V.T @ K @ V - np.diag(d.eigenvalues)
    assert np.max(np.abs(off)) <= 1e-8 * max(d.eigenvalues[-1], 1.0)


def test_divergence_kernel_is_affine(weak_system):
    d = dense_decompose(weak_system)
    assert near_zero_count(d) == expected_kernel(weak_system) == 2
    # cross-check: the stiffness annihilates interpolants of 1 and x
    for coeffs in ([1.0], [0.0, 1.0]):
        u = interpolate_poly(weak_system.mesh, coeffs)
        (K,) = weak_system.to_dense("K")
        assert np.linalg.norm(K @ u) <= 1e-10 * np.abs(K).max()


def test_strong_nondivergence_kernel_is_pinned_linear():
    mesh = build_mesh(16, 0.5)
    sys = assemble(
        OperatorForm.NON_DIVERGENCE,
        mesh,
        power_profile(0.5, 1.0),
        WentzellParams(1.0, 1.0),
    )
    d = dense_decompose(sys)
    assert near_zero_count(d) == expected_kernel(sys) == 1
    u = interpolate_poly(sys.mesh, [-0.5, 1.0])
    (K,) = sys.to_dense("K")
    assert K.shape == (len(sys.free),) * 2
    assert np.linalg.norm(K @ u[sys.free]) <= 1e-10 * np.abs(K).max()


def test_propagator_time_zero_and_modal_decay(weak_system):
    d = dense_decompose(weak_system)
    rng = np.random.default_rng(2)
    u0 = rng.standard_normal(len(weak_system.free))
    np.testing.assert_allclose(exact_propagator(d, u0, 0.0), u0, atol=1e-9)
    k = 3
    v = d.vectors[:, k]
    t = 0.37 / max(d.eigenvalues[k], 1.0)
    np.testing.assert_allclose(
        exact_propagator(d, v, t), math.exp(-d.eigenvalues[k] * t) * v, atol=1e-10
    )


def test_propagator_contracts(weak_system):
    d = dense_decompose(weak_system)
    rng = np.random.default_rng(8)
    for _ in range(5):
        u0 = rng.standard_normal(len(weak_system.free))
        n0 = weak_system.mass_norm_sq(u0)
        for t in (1e-4, 0.01, 1.0):
            assert weak_system.mass_norm_sq(exact_propagator(d, u0, t)) <= n0 * (1 + 1e-12)


def test_propagator_rejects_negative_time(weak_system):
    d = dense_decompose(weak_system)
    with pytest.raises(ValueError):
        exact_propagator(d, np.zeros(len(weak_system.free)), -0.1)


# ---- integration-by-parts battery ----------------------------------------


def test_green_classic_case_values():
    rep = green_residual(
        "divergence", [0.0, 0.0, 1.0, -2.0, 1.0], [1.0], constant_profile(1.0, 0.5)
    )
    assert rep.lhs == pytest.approx(24.0, rel=1e-14)
    assert rep.boundary_first == pytest.approx(24.0, rel=1e-14)
    assert rep.boundary_second == pytest.approx(0.0, abs=1e-14)
    assert rep.rhs == pytest.approx(0.0, abs=1e-14)
    assert rep.residual <= 1e-13


def test_green_battery_all_identities_hold():
    cases = green_battery()
    assert len(cases) >= 12
    names = {c[0] for c in cases}
    assert any("jump" in n for n in names)
    assert any("x0_left" in n for n in names) and any("x0_right" in n for n in names)
    for name, form, coeff, u, v in cases:
        rep = green_residual(form, u, v, coeff)
        assert rep.residual <= 1e-11 * max(rep.scale, 1e-30), name


def test_green_jump_term_is_essential():
    name, form, coeff, u, v = next(
        c for c in green_battery() if c[0] == "strong_nondiv_jump_K1"
    )
    rep = green_residual(form, u, v, coeff)
    assert rep.jump != 0.0
    without = abs(rep.lhs - (rep.boundary_first - rep.boundary_second + rep.rhs))
    assert without >= abs(rep.jump) * (1.0 - 1e-12)
    assert rep.residual <= 1e-12 * rep.scale


def test_green_membership_rejections():
    # weak case with u'' not vanishing at x0: a u'' falls out of the space
    with pytest.raises(SpaceMembershipError):
        green_residual("divergence", [0.0, 0.0, 0.0, 0.0, 1.0], [1.0], power_profile(0.5, 0.5))
    # discontinuous v
    with pytest.raises(SpaceMembershipError):
        green_residual(
            "divergence",
            [0.0, 0.0, 1.0, -2.0, 1.0],
            ([0.0], [1.0]),
            constant_profile(1.0, 0.5),
        )
    # strong non-divergence with u(x0) != 0
    with pytest.raises(SpaceMembershipError):
        green_residual("nondivergence", [1.0, 1.0], [0.0, 1.0], power_profile(0.5, 1.5))


def test_green_zero_v_trivial():
    name, form, coeff, u, v = next(c for c in green_battery() if c[0] == "zero_v")
    rep = green_residual(form, u, v, coeff)
    assert rep.scale == 0.0 and rep.residual == 0.0


# ---- closed-form estimates ------------------------------------------------


def test_hardy_pieces_prototype_identity():
    # left piece: integrand t/a collapses to t^(1-K)
    for K in (1.0, 1.25, 1.5, 1.75):
        left, right = hardy_bound(power_profile(0.0, K), 0.5)
        assert left == pytest.approx(0.5 ** (2.0 - K) / (2.0 - K), rel=1e-14)
        assert right > 0.0
    left, right = hardy_bound(power_profile(0.0, 1.0), 0.5)
    assert right == pytest.approx(0.5 - 1.0 - math.log(0.5), rel=1e-14)
    assert hardy_bound(power_profile(0.0, 1.5), 0.25)[0] == pytest.approx(1.0, rel=1e-14)


def test_hardy_pieces_against_double_quadrature():
    K = 1.25
    left, right = hardy_bound(power_profile(0.0, K), 0.4)
    num_left = dblquad(lambda t, x: t**-K, 0.0, 0.4, lambda x: x, lambda x: 0.4)[0]
    num_right = dblquad(lambda t, x: t**-K, 0.4, 1.0, lambda x: 0.4, lambda x: x)[0]
    assert left == pytest.approx(num_left, rel=1e-9)
    assert right == pytest.approx(num_right, rel=1e-9)


def test_hardy_requires_admissible_exponent():
    with pytest.raises(ValueError):
        hardy_bound(power_profile(0.0, 2.0), 0.5)
    with pytest.raises(ValueError):
        hardy_bound(power_profile(0.0, 0.5), 0.5)


def test_best_linear_fit_square_closed_form():
    fit = best_linear_fit([0.0, 0.0, 1.0])
    assert fit.slope == pytest.approx(1.0, abs=1e-14)
    assert fit.intercept == pytest.approx(-1.0 / 6.0, abs=1e-14)
    expected = ((1.0 - math.sqrt(1.0 / 3.0)) / 2.0, (1.0 + math.sqrt(1.0 / 3.0)) / 2.0)
    assert fit.zeros == pytest.approx(expected, abs=1e-12)


def test_best_linear_fit_affine_input_is_fixed_point():
    fit = best_linear_fit([2.0, -3.0])
    assert fit.intercept == pytest.approx(2.0, abs=1e-13)
    assert fit.slope == pytest.approx(-3.0, abs=1e-13)
    np.testing.assert_allclose(fit.residual_coeffs, 0.0, atol=1e-13)
    assert fit.zeros == ()


def test_best_linear_fit_orthogonality_and_sign_changes():
    for coeffs in ([0.0, 0.0, 0.0, 1.0], [1.0, 1.0, 0.5, 1.0 / 6.0, 1.0 / 24.0]):
        fit = best_linear_fit(coeffs)
        r = np.polynomial.Polynomial(fit.residual_coeffs)
        assert abs(r.integ()(1.0) - r.integ()(0.0)) <= 1e-12
        xr = np.polynomial.Polynomial([0.0, 1.0]) * r
        assert abs(xr.integ()(1.0) - xr.integ()(0.0)) <= 1e-12
        assert len(fit.zeros) >= 2


def test_pointwise_bound_documented_cases():
    a1 = power_profile(0.5, 1.0)
    assert pointwise_sqrt_bound([1.0], a1, 0) == pytest.approx(math.sqrt(0.5), rel=1e-6)
    assert pointwise_sqrt_bound([0.0, 1.0], a1, 1) == pytest.approx(math.sqrt(0.5), rel=1e-6)
    assert pointwise_sqrt_bound([0.0], a1, 0) == 0.0
    assert pointwise_sqrt_bound([0.0, 0.0, 1.0], power_profile(0.5, 1.5), 2) <= 1.0 + 1e-8


def scalar_pointwise_bound(u_coeffs, coeff, k):
    """pointwise_sqrt_bound as a point-by-point scan of the 2001-point grid."""
    g = coeff.as_power(1) * PiecewisePower.from_sides(u_coeffs, u_coeffs, coeff.x0).derivative(k)
    denom = math.sqrt(g.derivative().l2_norm_sq())
    if denom == 0.0:
        return 0.0
    best = 0.0
    for x in np.linspace(0.0, 1.0, 2001):
        d = abs(x - coeff.x0)
        if d < 1e-14:
            continue
        best = max(best, abs(g(x)) / (denom * math.sqrt(d)))
    return best


def test_pointwise_suite_equals_the_scalar_scan_bit_for_bit():
    x0 = 0.5
    cases = {
        "constant_k0_K1": (power_profile(x0, 1.0), [1.0], 0),
        "linear_k1_K1": (power_profile(x0, 1.0), [0.0, 1.0], 1),
        "curved_k2_K1": (power_profile(x0, 1.0), [1.0, 1.0, 1.0], 2),
        "curved_k2_K15": (power_profile(x0, 1.5), [0.0, 0.0, 1.0], 2),
        "zero_function": (power_profile(x0, 1.0), [0.0], 0),
    }
    checks = verification_report(["pointwise"])["checks"]
    assert [c["name"] for c in checks] == list(cases)
    for c in checks:
        coeff, u, k = cases[c["name"]]
        assert repr(c["computed"]["max_ratio"]) == repr(scalar_pointwise_bound(u, coeff, k))


@settings(max_examples=60, deadline=None)
@given(
    u=st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=1, max_size=6),
    x0=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
    K=st.floats(min_value=1.0, max_value=1.9),
    k=st.sampled_from([0, 1, 2]),
)
def test_pointwise_bound_equals_the_scalar_scan_bit_for_bit(u, x0, K, k):
    coeff = power_profile(x0, K)
    assert repr(pointwise_sqrt_bound(u, coeff, k)) == repr(scalar_pointwise_bound(u, coeff, k))
    assert pointwise_sqrt_bound([0.0] * len(u), coeff, k) == 0.0


def test_pointwise_bound_rejects_nonvanishing_weighted_derivative():
    # K = 0: a u^(0) = u does not vanish at x0
    with pytest.raises(SpaceMembershipError):
        pointwise_sqrt_bound([1.0], constant_profile(1.0, 0.5), 0)


# ---- norm-equivalence constant and report ----------------------------------


def test_norm_equivalence_constant_is_exact_and_nested():
    rep = norm_equivalence_report(power_profile(0.5, 0.5), n=8)
    assert rep.element_counts == (8, 16, 32)
    # the top pencil eigenvalue is 12.0097 on every level; nested spaces
    # make it non-decreasing
    assert rep.constants == pytest.approx([12.0097] * 3, rel=1e-5)
    assert rep.nested_ok
    # refinement must not blow the constant up
    assert max(rep.growth_factors) < 10.0


@pytest.mark.parametrize(
    "coeff", [power_profile(0.5, 0.5), power_profile(0.5, 1.5), constant_profile(1.0, 0.5)]
)
def test_norm_equivalence_constant_matches_the_banded_pencil(coeff):
    rep = norm_equivalence_report(coeff, n=8)
    for n, constant in zip(rep.element_counts, rep.constants):
        mesh = build_mesh(n, 0.5)
        unit = weighted_rule(mesh, coeff, WeightKind.UNIT)
        a_rule = weighted_rule(mesh, coeff, WeightKind.COEFF_A)
        # the dense solve of spectrum, on the Jacobi-equilibrated bands
        top = _dense_spectrum(
            gram_matrix(unit, 0) + gram_matrix(a_rule, 2), gram_matrix(unit, 1), 1
        ).largest
        assert constant == pytest.approx(top, rel=NESTED_REL_TOL)


def test_norm_equivalence_nondegenerate_bound():
    # the classical constant bounds it far away from this level
    rep = norm_equivalence_report(constant_profile(1.0, 0.5), n=32, refinements=0)
    assert rep.constants[0] <= 20.0


@pytest.mark.parametrize("coeff", [power_profile(0.0, 0.5), power_profile(1.0, 1.5)])
def test_norm_equivalence_refuses_an_end_point_degeneracy(coeff):
    with pytest.raises(ValueError, match="interior x0"):
        norm_equivalence_report(coeff, n=8)


def test_nested_gate_rejects_a_falling_constant():
    assert not NormEquivalenceReport((12.0, 12.0 * (1.0 - 2e-9)), (8, 16)).nested_ok
    assert NormEquivalenceReport((12.0, 12.0 * (1.0 - 0.5e-9)), (8, 16)).nested_ok


def test_verification_report_all_pass_and_shape():
    rep = verification_report()
    assert rep["all_pass"] is True
    suites = {c["suite"] for c in rep["checks"]}
    assert suites == {
        "green", "spectral", "resolvent", "hardy", "linear_fit",
        "pointwise", "norm_equivalence",
    }
    for c in rep["checks"]:
        assert {"suite", "name", "inputs", "computed", "tolerance", "pass"} <= set(c)


def test_case_matrix_is_assembled_once_per_report(monkeypatch):
    calls = []
    original = oracle.assemble

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(oracle, "assemble", counting)
    verification_report()
    assert len(calls) == 16
    verification_report(["hardy", "linear_fit"])
    assert len(calls) == 16
    verification_report()
    assert len(calls) == 32  # nothing is kept from one report to the next


def test_spectral_suite_solves_each_case_once(monkeypatch):
    # one dense generalized eigensolve per case, through either binding of
    # _eigh, and no production spectrum beside it
    generalized, spectra = [], []
    exact = forms._eigh

    def counting_eigh(a, b=None, vectors=False):
        if b is not None:
            generalized.append(vectors)
        return exact(a, b, vectors)

    def counting_spectrum(*args):
        spectra.append(args)
        return pencil_spectrum(*args)

    for module in (forms, oracle):
        monkeypatch.setattr(module, "_eigh", counting_eigh)
        monkeypatch.setattr(module, "pencil_spectrum", counting_spectrum, raising=False)
    checks = verification_report(["spectral"])["checks"]
    assert len(checks) == 16
    assert generalized == [True] * 16
    assert spectra == []
    for c in checks:
        assert list(c["computed"]) == [
            "symmetry_gap",
            "min_eigenvalue_rel",
            "min_eigenvalue_bound",
            "orthonormality_gap",
            "near_zero_count",
            "expected_kernel",
        ], c["name"]


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def test_case_matrix_systems_share_their_mesh_and_equal_fresh_ones():
    # the 16 systems share one mesh, its rules and their pair integrals;
    # each must equal the system assembled alone on a fresh mesh
    cases = list(oracle._case_matrix())
    assert len({id(system.mesh) for _, system in cases}) == 1
    oracle.SUITES["spectral"](cases)  # reads the kept pair integrals and dense copies
    for name, system in cases:
        fresh = assemble(system.form, build_mesh(16, 0.5), system.coeff, system.params)
        for band in ("M", "K", "stiffness_interior"):
            assert _same_bits(getattr(system, band), getattr(fresh, band)), (name, band)
        for kind in PENCIL[system.form]:
            shared, alone = system.rule(kind), fresh.rule(kind)
            assert _same_bits(shared.points, alone.points), (name, kind)
            assert _same_bits(shared.weights, alone.weights), (name, kind)
            assert shared.reference == alone.reference


def test_kept_arrays_are_read_only():
    # assemble adds the point terms in place, so what is kept must be a
    # copy nothing can write to
    _, system = next(oracle._case_matrix())
    kept = [*system.to_dense("M", "K", "stiffness_interior"), system.mass_rows]
    for kind, d in zip(PENCIL[system.form], (0, 2)):
        rule = system.rule(kind)
        kept += [rule.points, rule.weights, rule.pair_integrals(d), gram_matrix(rule, d)]
        assert gram_matrix(rule, d) is kept[-1]  # formed once
    for array in kept:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
    assert system.to_dense("M")[0] is system.to_dense("M", "K")[0]  # formed once


def test_verification_report_suite_selection():
    rep = verification_report(["hardy"])
    assert {c["suite"] for c in rep["checks"]} == {"hardy"}
    with pytest.raises(ValueError):
        verification_report(["nope"])


@pytest.mark.parametrize("side", [0, 1])
def test_hardy_suite_fails_on_either_integral_off_by_1e9(monkeypatch, side):
    exact = oracle.hardy_bound

    def perturbed(coeff, y0):
        values = list(exact(coeff, y0))
        values[side] *= 1.0 + 1e-9
        return tuple(values)

    monkeypatch.setattr(oracle, "hardy_bound", perturbed)
    rep = verification_report(["hardy"])
    assert rep["all_pass"] is False
    assert not any(c["pass"] for c in rep["checks"])
