"""The row storage of M and K against dense copies."""
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded, eigh

from wentzell4 import forms
from wentzell4.cli import main
from wentzell4.coefficient import ConfigError
from wentzell4.coefficient import power_profile
from wentzell4.discretization import WeightKind, _gauss_legendre, build_mesh, shape_values
from wentzell4.evolution import ProblemConfig, Scheme, TimeStepper, _polynomial_load, run
from wentzell4.forms import (
    PENCIL,
    OperatorForm,
    WentzellParams,
    _BandedSPD,
    _jacobi,
    assemble,
    band_congruence,
    band_matvec,
    band_quadratic,
    band_to_dense,
    gram_matrix,
    pencil_spectrum,
)
from wentzell4.oracle import (
    BANDED_EIGENVALUE_GAP_TOL,
    _case_matrix,
    _eigh,
    dense_decompose,
    expected_kernel,
    near_zero_count,
)

# (form, strong class, n, x0, K - 1 or K, gamma, beta)
systems = st.tuples(
    st.sampled_from(list(OperatorForm)),
    st.booleans(),
    st.integers(min_value=2, max_value=64),
    st.floats(min_value=0.1, max_value=0.9),
    st.floats(min_value=0.1, max_value=0.9),
    st.floats(min_value=-2.0, max_value=0.0),
    st.floats(min_value=0.5, max_value=2.0),
)


def build(spec):
    form, strong, n, x0, K, gamma, beta = spec
    coeff = power_profile(x0, 1.0 + K if strong else K)
    mesh = build_mesh(n, x0)
    params = WentzellParams(beta, 1.0 / beta, gamma, 0.5 * gamma)
    return assemble(form, mesh, coeff, params)


LOWER = np.tril_indices(4)


def rows_of(dense):
    """The rows (n, 7) of a dense matrix, ``rows[i, o] = dense[i, i + o - 3]``
    and +0.0 outside it: the reference of the storage every kernel reads."""
    n = len(dense)
    rows = np.zeros((n, 7), dtype=dense.dtype)
    for i in range(n):
        for o in range(7):
            if 0 <= i + o - 3 < n:
                rows[i, o] = dense[i, i + o - 3]
    return rows


def symmetric(lower):
    """The dense symmetric matrix whose diagonal k, k = 0..3, below and
    above the main one is ``lower[k, :n-k]``."""
    n = lower.shape[1]
    dense = np.zeros((n, n), dtype=lower.dtype)
    for k in range(min(4, n)):
        j = np.arange(n - k)
        dense[j + k, j] = dense[j, j + k] = lower[k, : n - k]
    return dense


def padding(n):
    """The mask of the entries (i, o) of rows (n, 7) outside the matrix."""
    column = np.arange(n)[:, None] + np.arange(-3, 4)
    return (column < 0) | (column >= n)


def same_bits(a, b):
    return (a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def reference_shapes(rule, e, d):
    """Row e's d-th basis derivatives on its reference abscissae (h = 1,
    padded with zeros to the rule's width) and its column scales c, so
    that phi^(d) = c * phi_hat^(d) on the element."""
    elements = range(rule.mesh.n_elements)
    [(npoints, reversed_)] = [key for key, rows in rule.reference if e in elements[rows]]
    sigma = 0.5 * (_gauss_legendre(npoints)[0] + 1.0)
    s = np.zeros(rule.points.shape[1])
    s[:npoints] = 1.0 - sigma[::-1] if reversed_ else sigma
    xa, xb = rule.mesh.element(e)
    h = xb - xa
    c = {
        0: (1.0, h, 1.0, h),
        1: (1.0 / h, 1.0, 1.0 / h, 1.0),
        2: (1.0 / (h * h), 1.0 / h, 1.0 / (h * h), 1.0 / h),
    }[d]
    return shape_values(s, d), np.array(c)


def loop_blocks(rule, d):
    """Element-by-element Gram blocks on the reference abscissae: the 10
    lower entries (w @ (T_i T_j)) c_i c_j, mirrored."""
    row, col = LOWER
    blocks = []
    for e in range(rule.mesh.n_elements):
        T, c = reference_shapes(rule, e, d)
        local = np.empty((4, 4))
        local[row, col] = local[col, row] = (rule.weights[e] @ (T[:, row] * T[:, col])) * (
            c[row] * c[col]
        )
        blocks.append(local)
    return np.array(blocks)


def loop_gram(rule, d):
    """Element-by-element dense assembly, the reference for the batch."""
    mesh = rule.mesh
    G = np.zeros((2 * len(mesh.nodes), 2 * len(mesh.nodes)))
    for e, local in enumerate(loop_blocks(rule, d)):
        ix = np.arange(2 * e, 2 * e + 4)
        G[np.ix_(ix, ix)] += local
    return G


def loop_load(sys, rule, coeffs, d):
    p = np.polynomial.Polynomial(coeffs).deriv(d)
    out = np.zeros(sys.mesh.n_dofs)
    for e in range(sys.mesh.n_elements):
        T, c = reference_shapes(rule, e, d)
        out[2 * e : 2 * e + 4] += ((rule.weights[e] * p(rule.points[e])) @ T) * c
    return out


def dense_refined_solve(A, b):
    """Dense statement of the banded solver: equilibrated banded Cholesky
    and one refinement round against the dense longdouble residual."""
    dinv = 1.0 / np.sqrt(np.diag(A))
    scaled = A * np.outer(dinv, dinv)
    n = len(A)
    ab = np.zeros((4, n))
    for k in range(4):
        ab[k, : n - k] = np.diagonal(scaled, -k)
    factor = cholesky_banded(ab, lower=True)

    def once(rhs):
        return dinv * cho_solve_banded((factor, True), dinv * rhs)

    x = once(b)
    r = (b.astype(np.longdouble) - A.astype(np.longdouble) @ x.astype(np.longdouble)).astype(float)
    return x + once(r)


@settings(max_examples=40, deadline=None)
@given(spec=systems)
# n = 2: both rows moment-fitted, no row regular
@example(spec=(OperatorForm.DIVERGENCE, False, 2, 0.3, 0.5, -1.0, 1.0))
@example(spec=(OperatorForm.NON_DIVERGENCE, True, 2, 0.6, 0.5, 0.0, 1.0))
def test_batched_assembly_equals_element_loop_bit_for_bit(spec):
    sys = build(spec)
    unit, a_rule = sys.rule(WeightKind.UNIT), sys.rule(WeightKind.COEFF_A)
    rules = [(unit, d) for d in (0, 1, 2)] + [(a_rule, 0), (a_rule, 2)]
    if not (spec[1] and sys.form is OperatorForm.DIVERGENCE):
        rules.append((sys.rule(WeightKind.COEFF_RECIP_A), 0))
    for rule, d in rules:
        assert np.array_equal(band_to_dense(gram_matrix(rule, d)), loop_gram(rule, d))
    coeffs = [0.3, -1.0, 2.0, 0.5]
    expected = loop_load(sys, a_rule, coeffs, 2)
    ends = np.polynomial.Polynomial(coeffs)(np.array([0.0, 1.0]))
    expected[sys.mesh.end_dofs] += np.multiply(sys.point_stiffness, ends)
    assert np.array_equal(
        _polynomial_load(sys, coeffs, WeightKind.COEFF_A, 2, sys.point_stiffness),
        expected[sys.free],
    )


@settings(max_examples=40, deadline=None)
@given(spec=systems, seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_band_kernels_match_dense(spec, seed):
    sys = build(spec)
    rng = np.random.default_rng(seed)
    n = len(sys.free)
    x = rng.standard_normal(n)
    X = rng.standard_normal((n, 3))
    for name in ("M", "K", "stiffness_interior"):
        band = getattr(sys, name)
        (A,) = sys.to_dense(name)
        assert A.shape == (n, n)
        scale = np.abs(A).max()
        np.testing.assert_allclose(
            band_matvec(band, x), A @ x, rtol=0, atol=1e-13 * scale * np.abs(x).sum()
        )
        np.testing.assert_allclose(
            band_matvec(band, X), A @ X, rtol=0, atol=1e-13 * scale * np.abs(X).sum()
        )
        assert abs(band_quadratic(band, x) - x @ A @ x) <= 1e-13 * scale * np.abs(x).sum() ** 2
    assert sys.mass_norm_sq(x) == band_quadratic(sys.M, x)
    assert sys.energy(x) == band_quadratic(sys.K, x)


@settings(max_examples=40, deadline=None)
@given(spec=systems, seed=st.integers(min_value=0, max_value=2**32 - 1),
       rows=st.integers(min_value=1, max_value=300))
# whole stacks go through one call: the 2501 states of 65 free dofs of a
# strong non-divergence run of 2500 steps at n = 32, and 300 states of 8194
@example(spec=(OperatorForm.NON_DIVERGENCE, True, 32, 0.5, 0.5, 0.0, 1.0), seed=1, rows=2501)
@example(spec=(OperatorForm.DIVERGENCE, False, 4096, 0.5, 0.5, -1.0, 1.0), seed=2, rows=300)
def test_stacked_quadratic_is_the_rows_one_by_one_bit_for_bit(spec, seed, rows):
    sys = build(spec)
    rng = np.random.default_rng(seed)
    n = len(sys.free)
    X = rng.standard_normal((rows, n)) * 10.0 ** rng.uniform(-6, 6, (rows, 1))
    for band in (sys.M, sys.K):
        stacked = band_quadratic(band, X)
        assert stacked.shape == (rows,)
        assert np.array_equal(stacked, [band_quadratic(band, x) for x in X])


@pytest.mark.parametrize("n", [1, 2, 5])
def test_band_quadratic_refuses_a_vector_of_another_length(n):
    rows = rows_of(symmetric(np.ones((4, n))))
    for length in (n - 1, n + 1):
        for shape in ((length,), (3, length)):
            with pytest.raises(ValueError, match=f"vector of {length} entries"):
                band_quadratic(rows, np.ones(shape))
    with pytest.raises(ValueError):
        band_matvec(rows, np.ones(n + 1))


@pytest.mark.parametrize("n", [*range(1, 9), int(np.random.default_rng(7).integers(9, 2000))])
def test_band_congruence_is_the_entrywise_loop_bit_for_bit(n):
    rng = np.random.default_rng(n)
    ab = rng.standard_normal((4, n)) * 10.0 ** rng.integers(-8, 9, (4, n))
    ab[rng.random((4, n)) < 0.2] = -0.0
    rows = rows_of(symmetric(ab))
    pad = padding(n)
    rows[pad] = np.where(rng.random(pad.sum()) < 0.5, -0.0, rng.standard_normal(pad.sum()))
    d = rng.uniform(0.5, 2.0, n) * 10.0 ** rng.integers(-8, 9, n)
    expected = np.zeros((n, 7))
    for i in range(n):
        for o in range(7):
            if 0 <= i + o - 3 < n:
                expected[i, o] = rows[i, o] * (d[i + o - 3] * d[i])
    got = band_congruence(rows, d)
    assert same_bits(got, expected)  # +0.0 in the padding
    assert_symmetric_rows(got)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 34, 1026])
def test_band_congruence_is_the_diagonal_loop_bit_for_bit_with_inf_and_nan(n):
    """The one product over the rows against a loop over the diagonals,
    each a slice product, in the bits of every entry: nan payloads, the
    signs of zeros and +0.0 in the padding, whatever the rows hold
    there."""
    rng = np.random.default_rng(n)
    ab = rng.standard_normal((4, n)) * 10.0 ** rng.integers(-150, 150, (4, n))
    special = rng.random((4, n))
    ab[special < 0.1] = np.inf
    ab[(special >= 0.1) & (special < 0.2)] = -np.inf
    ab[(special >= 0.2) & (special < 0.3)] = np.nan
    ab[(special >= 0.3) & (special < 0.4)] = -0.0
    rows = rows_of(symmetric(ab))
    pad = padding(n)
    rows[pad] = np.resize([0.0, np.nan, -np.inf, np.inf, -0.0], pad.sum())
    d = rng.uniform(0.5, 2.0, n) * 10.0 ** rng.integers(-150, 150, n)
    expected = np.zeros((n, 7))
    with np.errstate(all="ignore"):  # products overflow, inf times a tiny d
        for k in range(min(4, n)):
            expected[: n - k, 3 + k] = rows[: n - k, 3 + k] * (d[k:] * d[: n - k])
            expected[k:, 3 - k] = rows[k:, 3 - k] * (d[: n - k] * d[k:])
        got = band_congruence(rows, d)
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 34])
def test_band_to_dense_is_the_row_loop_bit_for_bit(n):
    """The scatter against a loop over the entries of the rows, in the
    bits of every entry: float and longdouble, nan, inf and signed zeros,
    rows that are not symmetric, and whatever the padding holds."""
    rng = np.random.default_rng(n)
    for dtype in (float, np.longdouble):
        rows = rng.standard_normal((n, 7)).astype(dtype)
        rows.ravel()[rng.permutation(rows.size)[:4]] = [np.nan, -np.inf, -0.0, 0.0]
        rows[padding(n)] = np.nan
        expected = np.zeros((n, n), dtype=dtype)
        for i in range(n):
            for o in range(7):
                j = i + o - 3
                if 0 <= j < n:  # a slice copies every byte of a longdouble
                    expected[i, j : j + 1] = rows[i, o : o + 1]
        got = band_to_dense(rows)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
        assert band_to_dense(np.asfortranarray(rows)).tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_band_to_dense_of_rows_wider_than_the_matrix(n):
    rows = np.random.default_rng(n).standard_normal((n, 7))
    expected = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            expected[i, j] = rows[i, j - i + 3]
    assert np.array_equal(band_to_dense(rows), expected)


@pytest.mark.parametrize("form", list(OperatorForm))
@pytest.mark.parametrize("strong", [False, True])
@settings(max_examples=20, deadline=None)
@given(rest=systems.map(lambda spec: spec[2:]), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_bands_are_the_free_rows_of_the_element_loop_bit_for_bit(form, strong, rest, seed):
    sys = build((form, strong) + rest)
    pencil = PENCIL[sys.form]
    M = loop_gram(sys.rule(pencil.mass), 0)
    S = loop_gram(sys.rule(pencil.stiffness), 2)
    K = S.copy()
    ends = sys.mesh.end_dofs
    M[ends, ends] += sys.point_mass
    K[ends, ends] += sys.point_stiffness
    free = np.ix_(sys.free, sys.free)
    for band, dense in ((sys.M, M), (sys.K, K), (sys.stiffness_interior, S)):
        assert band.shape == (len(sys.free), 7)
        assert np.array_equal(band_to_dense(band), dense[free])
        assert same_bits(band, rows_of(dense[free]))
    pinned = np.setdiff1d(np.arange(sys.mesh.n_dofs), sys.free)
    if len(pinned):
        # the pinned value dof at x0 is gone and its neighbours close up
        c = 2 * sys.mesh.x0_index
        assert pinned.tolist() == [c] and len(sys.free) == sys.mesh.n_dofs - 1
        assert sys.K[c, 2] == sys.K[c - 1, 4] == K[c + 1, c - 1] and sys.K[c, 3] == K[c + 1, c + 1]
    # expand puts free-dof values back in place, zero on the pinned dof
    x = np.random.default_rng(seed).standard_normal(len(sys.free))
    full = sys.expand(x)
    assert full.shape == (sys.mesh.n_dofs,) and np.array_equal(full[sys.free], x)
    assert not full[pinned].any()


def test_case_matrix_bands_are_on_the_free_dofs():
    for name, sys in _case_matrix():
        bands = (sys.M, sys.K, sys.stiffness_interior)
        assert all(band.shape == (len(sys.free), 7) for band in bands), name
        assert dense_decompose(sys).vectors.shape == (len(sys.free),) * 2, name


def assert_symmetric_rows(rows):
    """The storage invariant: contiguous rows (n, 7) with +0.0 in the
    padding, diagonal k read from the top (column 3 + k) equal bit for
    bit to diagonal k read from the bottom (column 3 - k), and the view
    rows.T[3:] that dpbtrf reads equal to the lower band of the dense
    matrix, whose upper half band_matvec reads."""
    n = len(rows)
    assert rows.shape == (n, 7) and rows.flags.c_contiguous
    pad = rows[padding(n)]
    assert not pad.any() and not np.signbit(pad).any()
    for k in range(1, 4):
        assert same_bits(rows[: max(n - k, 0), 3 + k], rows[k:, 3 - k]), k
    dense = band_to_dense(rows)
    lower = np.zeros((4, n), dtype=rows.dtype)
    for k in range(min(4, n)):
        lower[k, : n - k] = np.diagonal(dense, -k)
    assert same_bits(rows.T[3:], lower)
    assert same_bits(rows, rows_of(dense))


# strong non-divergence: the value dof at x0 is pinned
PINNED = (OperatorForm.NON_DIVERGENCE, True, 16, 0.5, 0.5, -1.0, 1.0)


@pytest.mark.parametrize("name, sys", [pytest.param(name, sys, id=name) for name, sys in
                                       [*_case_matrix(), ("pinned", build(PINNED))]])
def test_every_matrix_the_package_forms_is_symmetric_rows(name, sys):
    # dpbtrf reads only the lower half and band_matvec both, so the one
    # format rests on the mirrored entries being the same bits
    if name == "pinned":
        assert len(sys.free) == sys.mesh.n_dofs - 1
    matrices = {name: getattr(sys, name) for name in ("M", "K", "stiffness_interior")}
    for scheme in Scheme:
        stepper = TimeStepper(sys, 0.01, scheme)
        matrices[f"{scheme.value} A"] = stepper._solver.rows
        matrices[f"{scheme.value} R"] = stepper._rhs
    matrices["lambda M + K"] = 1.5 * sys.M + sys.K
    matrices["K + M"] = sys.K + 1.0 * sys.M  # the Lanczos shift
    for name in ("M", "lambda M + K"):
        matrices[f"equilibrated {name}"] = _jacobi(matrices[name])[1]
    for rows in matrices.values():
        assert len(rows) == len(sys.free)
        assert_symmetric_rows(rows)


def sequential_matvec(rows, x):
    """A @ x from the rows of A: each row's seven products added one by one,
    in ascending column order, from +0.0."""
    n = len(rows)
    total = np.zeros(x.shape, dtype=rows.dtype)
    for o in range(7):
        column = np.clip(np.arange(n) + o - 3, 0, n - 1)
        total = total + rows[:, o].reshape((n,) + (1,) * (x.ndim - 1)) * x[column]
    return total


def _signed_zeros(rng, a):
    a[rng.random(a.shape) < 0.3] = -0.0
    return a


@pytest.mark.parametrize("dtype", [float, np.longdouble])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 65, 1026])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_band_matvec_is_the_sequential_sum_bit_for_bit(n, dtype, seed):
    # entries over 16 decades and signed zeros, so rows that sum to a zero
    rng = np.random.default_rng(seed)
    ab = rng.standard_normal((4, n)) * 10.0 ** rng.integers(-8, 9, (4, n))
    rows = rows_of(symmetric(ab.astype(dtype)))
    for shape in ((n,), (n, 3)):
        x = _signed_zeros(rng, rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape))
        for v in (x, -np.zeros(shape)):
            got, expected = band_matvec(rows, v), sequential_matvec(rows, v.astype(dtype))
            assert got.dtype == expected.dtype == dtype
            assert np.array_equal(got, expected)
            assert np.array_equal(np.signbit(got), np.signbit(expected))
    assert not np.signbit(band_matvec(rows, -np.zeros(n))).any()  # +0.0, as A @ x


@pytest.mark.parametrize("dtype", [float, np.longdouble])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 65])
def test_band_matvec_keeps_the_sequential_sum_on_inf_nan_and_stacked_columns(n, dtype):
    # a band with zero entries, so 0 * inf = nan lands in rows whose
    # products include one, and the zeros past each end meet x[0] and
    # x[n - 1] as they do in the dense product
    rng = np.random.default_rng(n)
    ab = _signed_zeros(rng, rng.standard_normal((4, n)))
    ab[rng.random((4, n)) < 0.3] = 0.0
    rows = rows_of(symmetric(ab.astype(dtype)))
    inf_first = rng.standard_normal(n)
    inf_first[0] = np.inf
    nan_last = rng.standard_normal(n)
    nan_last[-1] = np.nan
    stacked = _signed_zeros(rng, rng.standard_normal((n, 2, 3)))
    stacked[0, 1, 2], stacked[-1, 0, 0] = -np.inf, np.nan
    for x in (inf_first, nan_last, np.full(n, -np.inf), stacked):
        with np.errstate(invalid="ignore"):
            got, expected = band_matvec(rows, x), sequential_matvec(rows, x.astype(dtype))
        assert got.dtype == expected.dtype == dtype and got.shape == x.shape
        assert np.array_equal(got, expected, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(expected))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 65, 1026])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_fused_residual_equals_the_dense_longdouble_residual_bit_for_bit(n, seed):
    # entries over 16 decades, a diagonal that dominates: a matrix the
    # solver factors; it refines against b - band_matvec(rows, x) on its
    # longdouble rows, which is the dense longdouble residual
    rng = np.random.default_rng(seed)
    ab = rng.standard_normal((4, n)) * 10.0 ** rng.integers(-8, 9, (4, n))
    dense = symmetric(ab)
    np.fill_diagonal(dense, np.abs(ab[0]) + 2.0 * np.abs(dense).sum(axis=0))
    rows = rows_of(dense)
    solver = _BandedSPD(rows)
    assert same_bits(solver.rows, rows.astype(np.longdouble))
    A = band_to_dense(rows).astype(np.longdouble)
    for shape in ((n,), (n, 3)):
        x = _signed_zeros(rng, rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape))
        b = _signed_zeros(rng, rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape))
        for rhs in (b, b.astype(np.longdouble)):
            got, dense = rhs - band_matvec(solver.rows, x), rhs - A @ x.astype(np.longdouble)
            assert got.dtype == dense.dtype == np.longdouble
            assert np.array_equal(got, dense)
            assert np.array_equal(np.signbit(got), np.signbit(dense))


@settings(max_examples=40, deadline=None)
@given(
    spec=systems,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    dt=st.floats(min_value=1e-4, max_value=1.0),
)
def test_longdouble_residual_and_solve_match_dense_bit_for_bit(spec, seed, dt):
    sys = build(spec)
    rng = np.random.default_rng(seed)
    band = sys.M + dt * sys.K
    A = band_to_dense(band)
    x = rng.standard_normal(len(A)) * 10.0 ** rng.uniform(-6, 6)
    X = rng.standard_normal((len(A), 3))
    for v in (x, X):
        dense = A.astype(np.longdouble) @ v.astype(np.longdouble)
        assert np.array_equal(band_matvec(band.astype(np.longdouble), v), dense)
    b = rng.standard_normal(len(A))
    assert np.array_equal(_BandedSPD(band).solve(b), dense_refined_solve(A, b))


@settings(max_examples=40, deadline=None)
@given(spec=systems)
def test_pencil_spectrum_of_a_small_system_matches_dense(spec):
    # up to _DENSE_SPECTRUM_MAX_DOFS dofs spectrum takes the dense solve
    # from the bands: every eigenvalue and count against the oracle's
    sys = build(spec)
    m = len(sys.free)
    assert m <= forms._DENSE_SPECTRUM_MAX_DOFS
    spectrum = pencil_spectrum(sys.M, sys.K, m, expected_kernel(sys))
    reference = dense_decompose(sys)
    w = reference.eigenvalues
    assert np.all(np.diff(spectrum.lowest) >= 0.0)
    assert np.max(np.abs(spectrum.lowest - w)) <= BANDED_EIGENVALUE_GAP_TOL * max(w[-1], 1.0)
    assert spectrum.kernel == near_zero_count(reference)
    assert spectrum.psd_ok


@settings(max_examples=40, deadline=None)
@given(spec=systems, dt=st.floats(min_value=1e-4, max_value=1.0))
def test_direct_lapack_calls_keep_the_bits_of_scipy(spec, dt):
    # each LAPACK call made directly equals the scipy function it stands
    # for, bit for bit: the generalized eigensolve with and without
    # vectors (dsygvd), the spectrum of one matrix (dsyevr) and the
    # banded Cholesky factor of an equilibrated band (dpbtrf)
    sys = build(spec)
    M, K = sys.to_dense()
    A = M + dt * K
    w, v = _eigh(K, M, vectors=True)
    w_ref, v_ref = eigh(K, M)
    assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)
    assert np.array_equal(_eigh(K, A), eigh(K, A, eigvals_only=True))
    assert np.array_equal(_eigh(A - dt * M), eigh(A - dt * M, eigvals_only=True))
    for band in (sys.M, sys.M + dt * sys.K):
        expected = cholesky_banded(_jacobi(band)[1].T[3:], lower=True)
        assert np.array_equal(_BandedSPD(band).factor, expected)


def test_indefinite_band_keeps_the_text_of_cholesky_banded():
    # a positive diagonal, but indefinite: the factorization stops at the
    # same leading minor, with the same message, as cholesky_banded
    sys = build((OperatorForm.DIVERGENCE, False, 8, 0.5, 0.5, -1.0, 1.0))
    bad = sys.M.copy()
    bad[3, 4] = bad[4, 2] = 2.0 * np.sqrt(sys.M[3, 3] * sys.M[4, 3])
    with pytest.raises(LinAlgError) as expected:
        cholesky_banded(_jacobi(bad)[1].T[3:], lower=True)
    assert str(expected.value) == "5-th leading minor not positive definite"
    with pytest.raises(LinAlgError) as raised:
        _BandedSPD(bad)
    assert str(raised.value) == str(expected.value)


def lanczos_spectrum(sys, k):
    # the Lanczos path of pencil_spectrum at any size, and no dense solve
    # beside it
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(forms, "_DENSE_SPECTRUM_MAX_DOFS", 0)
        patch.setattr(forms, "_dense_spectrum", refuse_the_dense_solve)
        return pencil_spectrum(sys.M, sys.K, k, expected_kernel(sys))


def refuse_the_dense_solve(*args):
    raise AssertionError("the dense solve ran")


def check_lanczos_against_dense(sys, k):
    spectrum = lanczos_spectrum(sys, k)
    reference = dense_decompose(sys)
    w = reference.eigenvalues
    lowest = spectrum.lowest
    assert len(lowest) == k and np.all(np.diff(lowest) >= 0.0)
    assert np.max(np.abs(lowest - w[:k])) <= BANDED_EIGENVALUE_GAP_TOL * max(w[-1], 1.0)
    # Lanczos counts among the bottom max(k, expected + 1), and bisects
    # the largest only where the count is the expected one.  Its bounds
    # lack the dense solve's own error, so it may resolve an eigenvalue
    # near zero (3.3e-6 against the dense bound 3.9e-6 at gamma = -1e-5)
    # that the dense solve cannot tell from the kernel
    expected = expected_kernel(sys)
    count = min(near_zero_count(reference), max(k, expected + 1))
    assert spectrum.kernel <= count
    if near_zero_count(reference) == expected:
        assert spectrum.kernel == count
    if spectrum.kernel == expected:
        assert abs(spectrum.largest - w[-1]) <= 1e-14 * abs(w[-1])
        assert spectrum.psd_ok
    else:
        assert spectrum.largest is None
    return lowest


@settings(max_examples=40, deadline=None)
@given(spec=systems, data=st.data())
def test_band_pencil_lanczos_matches_dense(spec, data):
    sys = build(spec)
    per = forms._LANCZOS_MIN_DOFS_PER_EIGENVALUE
    assume(len(sys.free) > per)
    k = data.draw(st.integers(min_value=1, max_value=(len(sys.free) - 1) // per))
    check_lanczos_against_dense(sys, k)


@pytest.mark.parametrize("sys", [pytest.param(sys, id=name) for name, sys in _case_matrix()])
def test_band_pencil_lanczos_matches_dense_on_the_case_matrix(sys):
    # at 33-34 dofs spectrum takes the dense path, so the spectral suite
    # checks no Lanczos value; here the forced Lanczos path meets the
    # oracle's dense solve on every case
    check_lanczos_against_dense(sys, 1)


@pytest.mark.parametrize("form, K", [(OperatorForm.DIVERGENCE, 0.5), (OperatorForm.NON_DIVERGENCE, 1.5)])
# k = 51 is the most the Lanczos path takes at 1025 dofs
@pytest.mark.parametrize("k", [1, 6, 20, 51])
def test_band_pencil_lanczos_matches_dense_at_1026_dofs(form, K, k):
    sys = assemble(form, build_mesh(512, 0.5), power_profile(0.5, K),
                   WentzellParams(1.0, 1.0, -0.5, -0.5))
    lowest = check_lanczos_against_dense(sys, k)
    # the values of the projection made symmetric: within 1e-3 of the gate
    # (measured), where those of the block recurrence alone reach 0.71 of
    # it at k = 20
    w = dense_decompose(sys).eigenvalues
    assert np.max(np.abs(lowest - w[:k])) <= 0.05 * BANDED_EIGENVALUE_GAP_TOL * w[-1]


def test_band_pencil_lanczos_finds_both_directions_of_a_double_kernel():
    # strong divergence with neutral ends: a double kernel next to
    # lambda_3 = 0.35, so a single start vector grows the second kernel
    # direction out of rounding by only 1.35 times a step, and stops
    # first (a kernel count of 1 at k = 1; lambda_2 = lambda_3 at k = 2)
    sys = build((OperatorForm.DIVERGENCE, True, 25, 0.5248028968105877, 0.8784520872329385,
                 0.0, 1.8364103449547187))
    assert expected_kernel(sys) == 2
    check_lanczos_against_dense(sys, 1)
    reference = dense_decompose(sys)
    w = reference.eigenvalues
    lowest, vectors = forms._lanczos(sys.M, sys.K, 2)
    count = forms.bounded_spectrum(lowest, vectors, sys.K, 2, None).kernel
    assert count == near_zero_count(reference) == 2
    assert np.max(np.abs(lowest - w[:2])) <= BANDED_EIGENVALUE_GAP_TOL * w[-1]


# lambda_1 of the damped weak divergence problem (x0 = 0.5, beta = (1, 1.5),
# gamma = (-1, -0.5)) to 8 digits, from scipy's eigsh in shift-invert mode
# on a QR-factor solve with one longdouble round (the K = 0 value holds
# at every n from 512 to 16384), against (n, K, relative tolerance): the
# Lanczos path is 3.6e-7, 6.8e-7 and 1.4e-5 off, the sweep 1.8e-3,
# 3.4e-2 and 1.6e-2
@pytest.mark.parametrize("n, K, reference, rtol", [
    (512, 0.5, 0.28506687, 1e-6),
    (512, 0.0, 0.32775966, 2e-6),
    (1024, 0.5, 0.28506345, 1e-4),
])
def test_lanczos_lambda_1_of_the_test_problem(n, K, reference, rtol):
    sys = assemble(OperatorForm.DIVERGENCE, build_mesh(n, 0.5), power_profile(0.5, K),
                   WentzellParams(1.0, 1.5, -1.0, -0.5))
    spectrum = lanczos_spectrum(sys, 6)
    assert abs(spectrum.lowest[0] / reference - 1.0) <= rtol


def test_lanczos_that_does_not_converge_is_refused(monkeypatch, tmp_path, capsys):
    # three steps cannot converge the bottom two: no number is reported,
    # and spectrum exits 2 on its own key
    sys = build((OperatorForm.DIVERGENCE, False, 100, 0.5, 0.5, -1.0, 1.0))
    monkeypatch.setattr(forms, "_LANCZOS_MAX_STEPS", 3)
    assert len(sys.free) > forms._DENSE_SPECTRUM_MAX_DOFS
    assert forms._lanczos(sys.M, sys.K, 2) is None
    with pytest.raises(LinAlgError, match="^shift-invert Lanczos has not converged in 3 steps$"):
        pencil_spectrum(sys.M, sys.K, 2, expected_kernel(sys))
    config = tmp_path / "spectrum.json"
    config.write_text(json.dumps({
        "operator": "divergence", "coefficient": {"x0": 0.5, "K": 0.5},
        "wentzell": {"beta0": 1.0, "beta1": 1.0, "gamma0": -1.0, "gamma1": -0.5},
        "mesh": {"n": 100}, "time": {"T": 1.0}, "spectrum": {"count": 2},
    }))
    assert main(["spectrum", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["key"] == "spectrum"
    assert not (tmp_path / "out" / "spectrum.json").exists()


@pytest.mark.parametrize("n", [32, 100])
def test_band_pencil_keeps_the_text_of_a_singular_mass(n):
    # on both paths: 66 dofs by the dense solve, 202 by Lanczos
    sys = build((OperatorForm.DIVERGENCE, False, n, 0.5, 0.5, -1.0, 1.0))
    bad = sys.M.copy()
    bad[3, 4] = bad[4, 2] = 2.0 * np.sqrt(sys.M[3, 3] * sys.M[4, 3])
    with pytest.raises(LinAlgError, match="^mass matrix is not positive definite$"):
        pencil_spectrum(bad, sys.K, 1, 0)


def test_band_pencil_clamps_a_count_above_n():
    # the dense path gives the oracle's eigenvalues bit for bit: the same
    # equilibrated matrices and the same LAPACK call
    sys = build((OperatorForm.NON_DIVERGENCE, True, 8, 0.5, 0.5, -1.0, 1.0))
    n = len(sys.free)
    w = dense_decompose(sys).eigenvalues
    for count in (n, n + 1, 10 * n):
        spectrum = pencil_spectrum(sys.M, sys.K, count, expected_kernel(sys))
        assert spectrum.lowest.tobytes() == w.tobytes() and spectrum.largest == w[-1]


def test_lanczos_path_refuses_a_count_it_does_not_serve():
    # 202 dofs: more than 20 dofs to each of at most 10 eigenvalues
    sys = build((OperatorForm.DIVERGENCE, False, 100, 0.5, 0.5, -1.0, 1.0))
    assert len(pencil_spectrum(sys.M, sys.K, 10, 0).lowest) == 10
    with pytest.raises(ConfigError) as refused:
        pencil_spectrum(sys.M, sys.K, 11, 0)
    assert refused.value.key == "count"
    assert refused.value.reason == "at most 10 eigenvalues are served at 202 free dofs"


@pytest.mark.parametrize(
    "entry, value",
    [
        ((3, 3), 0.0),
        ((3, 3), -1.0),
        ((3, 3), np.inf),
        ((3, 3), np.nan),
        # a positive, finite diagonal, but a coupling whose equilibration
        # overflows
        ((3, 4), 1e308),
    ],
)
def test_solver_and_pencil_refuse_the_same_bad_bands(entry, value):
    # both go through one Jacobi step, so one bad matrix fails both alike;
    # the entry (i, o) is set with its mirror (i + o - 3, 6 - o)
    sys = build((OperatorForm.DIVERGENCE, False, 8, 0.5, 0.5, -1.0, 1.0))
    bad = sys.M.copy()
    i, o = entry
    bad[i, o] = bad[i + o - 3, 6 - o] = value
    with np.errstate(over="ignore"):
        with pytest.raises(LinAlgError):
            _BandedSPD(bad)
        with pytest.raises(LinAlgError):
            pencil_spectrum(bad, sys.K, 1, 0)


def test_run_and_resolvent_memory_is_linear_in_n(tmp_path):
    # a dense 4098 x 4098 M alone would take 134 MB
    for form, K, scheme in (
        (OperatorForm.DIVERGENCE, 0.5, Scheme.CRANK_NICOLSON),
        (OperatorForm.NON_DIVERGENCE, 1.5, Scheme.IMPLICIT_EULER),
    ):
        cfg = ProblemConfig(
            form,
            power_profile(0.5, K),
            WentzellParams(1.0, 1.0, -0.5, -0.5),
            T=5e-4,
            dt=1e-4,
            n=2048,
            scheme=scheme,
            u0="bump_cubed",
            forcing={"kind": "separable", "space": "parabola", "rate": 1.0},
        )
        tracemalloc.start()
        try:
            traj = run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.aborted is None and len(traj.times) == 6
        assert peak < 30e6, (form, peak)
    config = tmp_path / "resolvent.json"
    config.write_text(json.dumps({
        "operator": "divergence",
        "coefficient": {"x0": 0.5, "K": 0.5},
        "wentzell": {"beta0": 1, "beta1": 1, "gamma0": -0.5, "gamma1": 0},
        "mesh": {"n": 2048},
        "time": {"T": 1.0},
        "resolvent": {"lambda": 1.0, "f": "quartic_bump"},
    }))
    tracemalloc.start()
    try:
        status = main(["resolvent", "--config", str(config), "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 0 and peak < 30e6, peak


def test_spectrum_memory_is_linear_in_n(tmp_path, capsys):
    # the dense pencil at n = 2048 would take 134 MB per matrix: every
    # count the Lanczos path serves, the largest and the default 6, and a
    # count of all 4097 eigenvalues, which no path serves at this size
    doc = {
        "operator": "nondivergence",
        "coefficient": {"x0": 0.5, "K": 1.5},
        "wentzell": {"beta0": 1, "beta1": 2, "gamma0": -0.5, "gamma1": 0},
        "mesh": {"n": 2048},
        "time": {"T": 1.0},
    }
    config = tmp_path / "spectrum.json"
    # header plus the count; 4098 dofs less the one pinned at x0
    for spectrum, lines in (({"count": 100}, 1 + 100), ({}, 1 + 6), ({"count": 4097}, None)):
        config.write_text(json.dumps(dict(doc, spectrum=spectrum)))
        (tmp_path / "spectrum.csv").unlink(missing_ok=True)
        tracemalloc.start()
        try:
            status = main(["spectrum", "--config", str(config), "--out", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30e6, peak
        if lines is None:
            assert status == 2 and not (tmp_path / "spectrum.csv").exists()
            error = json.loads(capsys.readouterr().err)
            assert error["key"] == "spectrum.count"
            assert error["error"] == "at most 100 eigenvalues are served at 4097 free dofs"
        else:
            assert status == 0
            assert len((tmp_path / "spectrum.csv").read_text().splitlines()) == lines
