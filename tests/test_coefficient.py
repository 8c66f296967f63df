import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from wentzell4.coefficient import (
    ConfigError,
    DegeneracyClass,
    check_power_comparison,
    classify,
    constant_profile,
    power_profile,
    singular_moment,
)
from wentzell4.discretization import build_mesh
from wentzell4.forms import OperatorForm, WentzellParams, assemble
from wentzell4.powers import DivergentIntegralError


def test_power_profile_exact_values():
    a = power_profile(0.5, 1.0)
    assert a(0.75) == 0.25
    assert power_profile(0.5, 0.5)(0.5) == 0.0
    assert power_profile(0.3, 1.5)(0.3 + 1e-8) == pytest.approx(1e-12, rel=1e-9)


def test_power_profile_rejects_bad_arguments():
    with pytest.raises(ValueError):
        power_profile(-0.1, 1.0)
    with pytest.raises(ValueError):
        power_profile(0.5, -1.0)
    with pytest.raises(ValueError):
        power_profile(0.5, 1.0, scale=0.0)


def test_classify_prototypes():
    assert classify(power_profile(0.5, 0.5)) is DegeneracyClass.WEAK
    assert classify(power_profile(0.5, 1.0)) is DegeneracyClass.STRONG
    assert classify(constant_profile(1.0)) is DegeneracyClass.NONDEGENERATE
    assert constant_profile(2.0, 0.3) == power_profile(0.3, 0.0, 2.0)
    assert classify(constant_profile(2.0, 0.3)) is DegeneracyClass.NONDEGENERATE
    assert classify(power_profile(0.5, 0.0)) is DegeneracyClass.NONDEGENERATE


@settings(max_examples=40, deadline=None)
@given(K=st.floats(min_value=0.01, max_value=3.0))
def test_classify_threshold_over_exponent_grid(K):
    expected = DegeneracyClass.WEAK if K < 1.0 else DegeneracyClass.STRONG
    assert classify(power_profile(0.4, K)) is expected


@settings(max_examples=40, deadline=None)
@given(K=st.floats(min_value=0.0, max_value=3.0, exclude_max=True))
@example(K=1.0)
@example(K=2.0)
def test_power_comparison_admits_exactly_K_below_two(K):
    coeff = power_profile(0.5, K)
    if K < 2.0:
        assert check_power_comparison(coeff) is None
        return
    with pytest.raises(ConfigError) as err:
        check_power_comparison(coeff)
    assert err.value.key == "K"
    for form in OperatorForm:
        with pytest.raises(ConfigError) as err:
            assemble(form, build_mesh(4, 0.5), coeff, WentzellParams(1.0, 1.0))
        assert err.value.key == "K"


def test_singular_moment_reciprocal_closed_forms():
    a = power_profile(0.5, 0.5)
    # antiderivative 2 sqrt(t) on each side of the midpoint
    assert singular_moment(a, (0, 1), 0, -1) == pytest.approx(2 * math.sqrt(2), rel=1e-14)
    # symmetry halves the first moment
    assert singular_moment(a, (0, 1), 1, -1) == pytest.approx(math.sqrt(2), rel=1e-14)


def test_singular_moment_weight_closed_form():
    assert singular_moment(power_profile(0.5, 1.0), (0, 1), 0, 1) == pytest.approx(0.25)


def test_singular_moment_against_adaptive_quadrature():
    a = power_profile(0.3, 0.7, scale=2.0)
    for m, sign in ((0, 1), (2, 1), (3, -1), (1, -1)):
        expected = quad(
            lambda x: x**m * a(x) ** sign, 0.0, 1.0, points=[0.3], limit=400
        )[0]
        assert singular_moment(a, (0, 1), m, sign) == pytest.approx(expected, rel=1e-10)


def test_singular_moment_off_degeneracy_subinterval():
    a = power_profile(0.5, 1.5)
    expected = quad(lambda x: x**2 / a(x), 0.6, 0.9, limit=200)[0]
    assert singular_moment(a, (0.6, 0.9), 2, -1) == pytest.approx(expected, rel=1e-12)


def test_singular_moment_divergence():
    with pytest.raises(DivergentIntegralError):
        singular_moment(power_profile(0.5, 1.0), (0, 1), 0, -1)
    # vanishing monomial does not rescue an interior degeneracy
    with pytest.raises(DivergentIntegralError):
        singular_moment(power_profile(0.5, 1.5), (0.25, 0.75), 1, -1)
    # but it does when the degeneracy sits at the origin
    val = singular_moment(power_profile(0.0, 1.5), (0, 1), 2, -1)
    assert val == pytest.approx(1.0 / 1.5, rel=1e-14)


@settings(max_examples=30, deadline=None)
@given(
    split=st.floats(min_value=0.1, max_value=0.9),
    m=st.integers(min_value=0, max_value=4),
)
def test_singular_moment_additive_over_subintervals(split, m):
    a = power_profile(0.35, 0.6)
    whole = singular_moment(a, (0, 1), m, -1)
    parts = singular_moment(a, (0, split), m, -1) + singular_moment(a, (split, 1), m, -1)
    assert parts == pytest.approx(whole, rel=1e-11)


def test_coefficient_is_vectorized():
    a = power_profile(0.5, 2.0, scale=3.0)
    xs = np.linspace(0, 1, 7)
    np.testing.assert_allclose(a(xs), 3.0 * np.abs(xs - 0.5) ** 2)
