import math

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial
from scipy.integrate import quad

from wentzell4 import powers
from wentzell4.powers import DivergentIntegralError, PiecewisePower, _poly_in_distance


def composed(coeffs, x0, side):
    """The shift as numpy composes it: p(x0 + d) or p(x0 - d)."""
    sign = -1.0 if side == "left" else 1.0
    shifted = Polynomial(np.asarray(coeffs, dtype=float))(Polynomial([x0, sign]))
    return tuple((float(j), float(c)) for j, c in enumerate(shifted.coef))


finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
coefficient = st.one_of(finite, st.sampled_from([0.0, -0.0, 1.0, -1.0, 1.0 / 3.0]))


@settings(max_examples=400, deadline=None)
@given(
    coeffs=st.lists(coefficient, min_size=1, max_size=9),
    trailing_zeros=st.integers(min_value=0, max_value=3),
    x0=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
    side=st.sampled_from(["left", "right"]),
)
def test_shift_equals_polynomial_composition_bit_for_bit(coeffs, trailing_zeros, x0, side):
    coeffs = coeffs + [0.0] * trailing_zeros
    # repr tells -0.0 from 0.0 and prints every float exactly
    expected = repr(composed(coeffs, x0, side))
    assert repr(_poly_in_distance(coeffs, x0, side)) == expected
    assert repr(_poly_in_distance(np.array(coeffs), x0, side)) == expected


def same_bits(ours, theirs, *args):
    """Whether ours(*args) has the dtype, shape and bytes of theirs(*args),
    or raises the error theirs raises (a subnormal leading coefficient
    overflows the companion matrix)."""
    try:
        expected = np.asarray(theirs(*args))
    except Exception as exc:
        with pytest.raises(type(exc)):
            ours(*args)
        return True
    got = np.asarray(ours(*args))
    return (got.dtype, got.shape, got.tobytes()) == (expected.dtype, expected.shape, expected.tobytes())


series = st.builds(
    lambda c, zeros: c + [0.0] * zeros,
    st.lists(coefficient, min_size=1, max_size=10),  # degrees 0-9
    st.integers(min_value=0, max_value=3),
)


@settings(max_examples=400, deadline=None)
@given(
    c1=st.one_of(series, st.lists(st.sampled_from([0.0, -0.0]), min_size=1, max_size=4)),
    c2=series,
    points=st.lists(st.one_of(st.sampled_from([0.0, 1.0]), finite), min_size=1, max_size=5),
    m=st.integers(min_value=0, max_value=11),
)
def test_coefficient_operations_are_the_bits_of_numpy(c1, c2, points, m):
    x = np.array([0.0, 1.0] + points)
    for c in (c1, c2, np.array(c1)):
        for point in (x, 0.0, 1.0, points[0]):
            assert same_bits(powers.polyval, npoly.polyval, point, c)
        assert same_bits(powers.polyder, npoly.polyder, c, m)
        for name in ("polyint", "polytrim", "polyroots"):
            assert same_bits(getattr(powers, name), getattr(npoly, name), c), name
    for a, b in ((c1, c2), (c2, c1), (c2, c2)):
        assert same_bits(powers.polymul, npoly.polymul, a, b)
        assert same_bits(powers.polysub, npoly.polysub, a, b)


@settings(max_examples=100, deadline=None)
@given(
    left=st.lists(finite, min_size=1, max_size=6),
    right=st.lists(finite, min_size=1, max_size=6),
    x0=st.floats(min_value=0.05, max_value=0.95),
    K=st.floats(min_value=0.0, max_value=2.0),
)
def test_side_values_equal_pointwise_calls_bit_for_bit(left, right, x0, K):
    f = PiecewisePower.power_weight(x0, K) * PiecewisePower.from_sides(left, right, x0)
    xs = np.linspace(0.0, 1.0, 101)
    for side, on_side in (("left", xs < x0), ("right", xs > x0)):
        d = np.abs(xs[on_side] - x0)
        expected = np.array([f(x) for x in xs[on_side]], dtype=float)
        got = f.side_values(side, d)
        assert got.dtype == float and np.array_equal(np.signbit(got), np.signbit(expected))
        assert np.array_equal(got, expected)
    assert PiecewisePower(x0, (), ()).side_values("left", [0.1, 0.2]).tolist() == [0.0, 0.0]


def test_polynomial_roundtrip_values():
    f = PiecewisePower.from_sides([1.0, -2.0, 0.5, 3.0], [1.0, -2.0, 0.5, 3.0], 0.4)
    p = np.polynomial.Polynomial([1.0, -2.0, 0.5, 3.0])
    for x in (0.0, 0.1, 0.39, 0.41, 0.77, 1.0):
        assert f(x) == pytest.approx(p(x), rel=1e-14)


def test_product_matches_pointwise():
    a = PiecewisePower.power_weight(0.5, 0.5)
    u = PiecewisePower.from_sides([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], 0.5)
    g = a * u
    for x in (0.1, 0.49, 0.8):
        assert g(x) == pytest.approx(abs(x - 0.5) ** 0.5 * (x + 2 * x**2), rel=1e-13)


def test_derivative_left_side_sign():
    # f = (x0 - x)^2 on the left has f' = -2 (x0 - x)
    f = PiecewisePower(0.3, ((2.0, 1.0),), ())
    df = f.derivative()
    assert df(0.1) == pytest.approx(-2.0 * 0.2, rel=1e-14)


def test_integral_against_adaptive_quadrature():
    f = PiecewisePower.power_weight(0.5, -0.5) * PiecewisePower.from_sides(
        [1.0, 1.0], [1.0, 1.0], 0.5
    )
    expected = quad(
        lambda x: (1.0 + x) * abs(x - 0.5) ** -0.5, 0.0, 1.0, points=[0.5], limit=200
    )[0]
    assert f.integrate() == pytest.approx(expected, rel=1e-12)


def test_integral_partial_interval():
    f = PiecewisePower.from_sides([0.0, 0.0, 3.0], [0.0, 0.0, 3.0], 0.5)  # 3 x^2
    assert f.integrate(0.2, 0.9) == pytest.approx(0.9**3 - 0.2**3, rel=1e-14)


def test_divergent_integral_raises():
    f = PiecewisePower.power_weight(0.5, -1.0)
    with pytest.raises(DivergentIntegralError):
        f.integrate()
    # fine away from the breakpoint
    assert f.integrate(0.6, 1.0) == pytest.approx(math.log(0.5 / 0.1), rel=1e-13)


def test_limits_and_jump():
    u = PiecewisePower.from_sides([0.0, 1.0], [0.0, 3.0], 0.5)  # x vs 3x
    assert u.limit("left") == pytest.approx(0.5)
    assert u.limit("right") == pytest.approx(1.5)
    assert u.jump() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        PiecewisePower.power_weight(0.5, -0.5).limit("left")


def test_addition_merges_matching_exponents():
    a = PiecewisePower.power_weight(0.5, 1.0, 2.0)
    b = PiecewisePower.power_weight(0.5, 1.0, -2.0)
    assert (a + b).left == ()
    assert (a + b).right == ()


def test_boundary_breakpoint_has_one_side():
    f = PiecewisePower.power_weight(0.0, 1.5)
    assert f.left == ()
    assert f(0.25) == pytest.approx(0.25**1.5)
    assert f.integrate() == pytest.approx(1.0 / 2.5, rel=1e-14)


def test_l2_norm_sq():
    f = PiecewisePower.from_sides([0.0, 1.0], [0.0, 1.0], 0.5)
    assert f.l2_norm_sq() == pytest.approx(1.0 / 3.0, rel=1e-14)


@pytest.mark.parametrize("coeffs", [[], [[1.0, 2.0]]])
def test_shift_refuses_empty_or_nested_coefficients(coeffs):
    with pytest.raises(ValueError):
        PiecewisePower.from_sides(coeffs, coeffs, 0.5)
