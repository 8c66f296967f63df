"""Assembly of the weighted inner-product and energy matrices.

The two operator forms give the same pencil up to one choice, kept in
one table, :data:`PENCIL`: the weight of the mass matrix M and the weight
of the stiffness matrix K.  For the divergence operator (a u'')'' they
are 1 and a, for the non-divergence operator a u'''' they are 1/a and 1.
The Wentzell point terms scale with c_j, the stiffness weight at the end
j (a(j) or 1): M is ``int w_M u v + sum_j c_j/beta_j u(j) v(j)`` and K is
``int w_K u'' v'' - sum_j gamma_j/beta_j c_j u(j) v(j)``.  The boundary
conditions are natural: no dof manipulation is needed, except that a 1/a
mass in the strong class pins the value dof at x0 to zero.

One :func:`assemble` serves both forms.  The system it returns keeps the
point terms it added and the quadrature rules it integrated with, so the
loads, projections, norms and oracle checks that pair with M and K read
the table and these, never a second copy of the choice.

Storage.  Cubic Hermite dofs couple at most three apart, so every matrix
is held in LAPACK lower band storage ``ab`` of shape (4, n):
``ab[k, j] = A[j + k, j]``, entries past the end of a diagonal kept at
zero.  Assembly computes all element blocks in one batch, scatters them
into the band and keeps only the rows and columns of the free dofs
(:func:`free_band`), so n is the number of free dofs and a pinned dof has
no entry anywhere.  Every vector is held on the free dofs too, and
:meth:`AssembledSystem.expand` forms a full-dof vector only where one
is written out or evaluated.  The time step, the norms and the solvers
read the bands directly, at O(n) cost: a kernel that reduces or
rescales a band reads diagonal k as the slices ``ab[k, :n-k]``,
``x[k:]`` and ``x[:n-k]``.  Only the matvec, applied many times to one
matrix, reads a (7, n) row form (:func:`row_band`), built once.  Dense
copies exist only through :meth:`AssembledSystem.to_dense`, for the
oracle and tests; the eigenvalues of the pencil come from the bands
(:func:`band_pencil_eigenvalues`, LAPACK ``dsbgv``).

The element blocks are exactly symmetric and an entry of the band sums
at most two of them, so the band is that of a dense accumulation, bit for
bit, and M = M^T and K = K^T hold with no rounding gap.

Solvers.  :class:`_BandedSPD` is a banded Cholesky factorization after
Jacobi equilibration, the step :func:`band_pencil_eigenvalues` shares,
plus one round of refinement against a longdouble residual that equals
the dense one bit for bit.  Equilibration leaves a step matrix
ill-conditioned (condition number 7.3e9 for the Crank-Nicolson matrix of
the divergence form at n = 512, dt = 0.01; 3.7e3 for the strong
non-divergence implicit Euler one at n = 32, dt = 4e-4), and the round
takes the forward error of a solve with the first from 2.3e-8 to 3.5e-12
(against four rounds).
"""
from __future__ import annotations

import ctypes
import enum
import functools
from dataclasses import InitVar, dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import LinAlgError, cholesky_banded, cython_lapack
from scipy.linalg.lapack import dpbtrs

from .coefficient import (
    ConfigError,
    DegeneracyClass,
    DegenerateCoefficient,
    check_power_comparison,
    classify,
)
from .discretization import Mesh, WeightKind, element_shape_values, weighted_rule
from .powers import DivergentIntegralError

__all__ = [
    "OperatorForm",
    "WentzellParams",
    "AssembledSystem",
    "Pencil",
    "PENCIL",
    "assemble",
    "BANDWIDTH",
    "band_congruence",
    "band_matvec",
    "band_pencil_eigenvalues",
    "band_quadratic",
    "band_to_dense",
    "element_blocks",
    "free_band",
    "gram_matrix",
    "point_terms",
    "row_band",
]


class OperatorForm(enum.Enum):
    DIVERGENCE = "divergence"
    NON_DIVERGENCE = "nondivergence"


class Pencil(NamedTuple):
    """Weights of M (basis values) and K (basis second derivatives)."""

    mass: WeightKind
    stiffness: WeightKind


PENCIL = {
    OperatorForm.DIVERGENCE: Pencil(WeightKind.UNIT, WeightKind.COEFF_A),
    OperatorForm.NON_DIVERGENCE: Pencil(WeightKind.COEFF_RECIP_A, WeightKind.UNIT),
}


@dataclass(frozen=True)
class WentzellParams:
    """Boundary data: beta_j > 0 and gamma_j <= 0 for j = 0, 1."""

    beta0: float
    beta1: float
    gamma0: float = 0.0
    gamma1: float = 0.0

    def __post_init__(self):
        for name in ("beta0", "beta1"):
            if not getattr(self, name) > 0.0:
                raise ConfigError(name, "must be > 0")
        for name in ("gamma0", "gamma1"):
            if not getattr(self, name) <= 0.0:
                raise ConfigError(name, "must be <= 0")


# ---------------------------------------------------------------------------
# band kernels: a fixed number of numpy calls each, whatever n is
# ---------------------------------------------------------------------------

BANDWIDTH = 3
_LOCAL_ROW, _LOCAL_COL = np.tril_indices(4)


@functools.lru_cache(maxsize=16)
def _band_columns(n):
    """Read-only columns i + o - 3 of :func:`row_band`, clipped into range."""
    column = np.clip(np.arange(n) + np.arange(-BANDWIDTH, BANDWIDTH + 1)[:, None], 0, n - 1)
    column.setflags(write=False)
    return column


def row_band(ab):
    """The rows of the symmetric matrix with lower band ``ab``, as an
    array (7, n) with entry (o, i) = A[i, i + o - 3] and zero outside the
    matrix; the dtype of ``ab`` is kept.  :func:`band_matvec` takes this
    form, so a matrix applied many times is expanded once.  Diagonal k
    of the band is row 3 + k, read from the left, and row 3 - k, read
    from the right."""
    n = ab.shape[1]
    rows = np.zeros((2 * BANDWIDTH + 1, n), dtype=ab.dtype)
    for k in range(BANDWIDTH + 1):
        m = max(n - k, 0)
        rows[BANDWIDTH + k, :m] = rows[BANDWIDTH - k, k:] = ab[k, :m]
    return rows


def band_matvec(rows, x):
    """A @ x from ``rows = row_band(A)``; x may carry trailing columns.

    The seven products of a row are added as a running sum in ascending
    column order, the order of numpy's dense product, so a longdouble
    ``rows`` reproduces the dense longdouble ``A @ x`` bit for bit.
    ``add.reduce`` over the leading axis is that running sum without the
    array of partial sums: with more than one dof the axis is the outer
    loop, each row of products added to the sums in turn; with one dof
    six of the seven products are zeros, so no order can differ.  The
    sum starts from -0.0, which leaves the first product as it is, so
    an all-zero row keeps its sign too.
    """
    x = np.asarray(x, dtype=rows.dtype)
    if len(x) != rows.shape[1]:  # a full-dof vector is refused, not misread
        raise ValueError(f"vector of {len(x)} entries for a band of {rows.shape[1]} dofs")
    products = x[_band_columns(rows.shape[1])]
    products *= rows if x.ndim == 1 else rows.reshape(rows.shape + (1,) * (x.ndim - 1))
    return np.add.reduce(products, axis=0, initial=-0.0)


def band_quadratic(ab, x):
    """x^T A x for the symmetric matrix with lower band ``ab``; for x of
    shape (s, n), the array of the s values x[i]^T A x[i].

    Diagonal k is summed from slices, ``ab[k, :n-k] x[k:] x[:n-k]`` in
    column order, so a stack of any length takes one call and no copy.
    The value is 1, 2, 2, 2 times the four diagonal sums, added term by
    term from zero as BLAS forms a dot product of four entries; the
    weights make every product exact.  A row of a stack gives the bits
    of the same vector alone.
    """
    x = np.asarray(x, dtype=float)
    n = ab.shape[1]
    if x.shape[-1] != n:  # a full-dof vector is refused, not misread
        raise ValueError(f"vector of {x.shape[-1]} entries for a band of {n} dofs")
    rows = x.reshape(-1, n)
    per = [
        np.einsum("j,sj,sj->s", ab[k, : max(n - k, 0)], rows[:, k:], rows[:, : max(n - k, 0)])
        for k in range(BANDWIDTH + 1)
    ]
    out = 0.0 + per[0] + 2.0 * per[1] + 2.0 * per[2] + 2.0 * per[3]
    return out if x.ndim > 1 else float(out[0])


def band_congruence(ab, d):
    """Lower band of diag(d) A diag(d): entry (k, j) times d[j + k] * d[j],
    and +0.0 past the end of each diagonal."""
    n = len(d)
    out = np.zeros_like(ab)
    for k in range(min(len(ab), n)):
        out[k, : n - k] = ab[k, : n - k] * (d[k:] * d[: n - k])
    return out


@functools.cache
def _dsbgv():
    """LAPACK dsbgv as a ctypes function.  scipy.linalg.lapack wraps no
    banded generalized eigensolver; scipy.linalg.cython_lapack exports one
    for Cython, as a capsule holding the C function pointer."""
    capsule = cython_lapack.__pyx_capi__["dsbgv"]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi)
    )
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi)
    )
    address = get_pointer(capsule, get_name(capsule))
    char, integer = ctypes.c_char_p, ctypes.POINTER(ctypes.c_int)
    double = ctypes.POINTER(ctypes.c_double)
    return ctypes.CFUNCTYPE(
        None, char, char, integer, integer, integer, double, integer,
        double, integer, double, double, integer, double, integer,
    )(address)


def _jacobi(ab):
    """``dinv = 1/sqrt(diag A)`` and the band of diag(dinv) A diag(dinv);
    LinAlgError unless diag A is positive and finite and the result finite."""
    diag = ab[0]
    if np.any(diag <= 0.0) or not np.all(np.isfinite(diag)):
        raise LinAlgError("matrix diagonal is not positive and finite")
    dinv = 1.0 / np.sqrt(diag)
    scaled = band_congruence(ab, dinv)
    if not np.isfinite(scaled).all():
        raise LinAlgError("equilibrated matrix is out of double range")
    return dinv, scaled


class _BandedSPD:
    """Banded SPD solver with Jacobi equilibration and refinement; takes
    the matrix as a lower band (4, n)."""

    def __init__(self, ab):
        ab = np.asarray(ab, dtype=float)
        self.dinv, scaled = _jacobi(ab)
        self.factor = cholesky_banded(scaled, lower=True, check_finite=False)
        self._rows_ext = row_band(ab.astype(np.longdouble))

    def _solve_once(self, b):
        # LAPACK's banded Cholesky solve, as cho_solve_banded calls it but
        # without the wrapper's argument checks, which cost more than the
        # solve itself on small systems; solve() checks b once
        scale = self.dinv if b.ndim == 1 else self.dinv[:, None]
        y, info = dpbtrs(self.factor, scale * b, lower=1, overwrite_b=1)
        if info:
            raise LinAlgError(f"dpbtrs argument {-info} is invalid")
        return scale * y

    def solve(self, b):
        """Solve A x = b for a float array b (vectorized over trailing
        columns), with one round of refinement against the
        extended-precision residual: it recovers the digits the
        condition number of the equilibrated matrix costs the plain
        solve (see the module docstring)."""
        if not np.isfinite(b).all():
            raise LinAlgError("right-hand side is not finite")
        x = self._solve_once(b)
        r = (b - band_matvec(self._rows_ext, x)).astype(float)
        return x + self._solve_once(r)


def band_pencil_eigenvalues(mass, stiffness):
    """All eigenvalues, ascending, of the symmetric-definite pencil
    K v = lambda M v given by the lower bands of M and K.

    Both bands are Jacobi-equilibrated by 1/sqrt(diag M), a congruence
    that leaves the spectrum unchanged, and handed to LAPACK dsbgv
    (Crawford's band reduction, then a tridiagonal eigensolve) without
    eigenvectors: O(n^2) time and O(n) memory.  A mass that is not
    positive definite, or whose equilibration is out of double range,
    raises LinAlgError.
    """
    mass, stiffness = np.asarray(mass, dtype=float), np.asarray(stiffness, dtype=float)
    if mass.ndim != 2 or mass.shape != stiffness.shape:
        raise ValueError(f"bands of shape {mass.shape} and {stiffness.shape}")
    dinv, bb = _jacobi(mass)
    # dsbgv overwrites both, in Fortran (column-major) order
    ab = np.asfortranarray(band_congruence(stiffness, dinv))
    bb = np.asfortranarray(bb)
    ldab, n = ab.shape
    w = np.empty(n)
    work = np.empty(3 * n)
    z = np.empty(1)
    info = ctypes.c_int(0)

    def ref(value):
        return ctypes.byref(ctypes.c_int(value))

    def ptr(a):
        return a.ctypes.data_as(ctypes.POINTER(ctypes.c_double))

    _dsbgv()(
        b"N", b"L", ref(n), ref(ldab - 1), ref(ldab - 1), ptr(ab), ref(ldab),
        ptr(bb), ref(ldab), ptr(w), ptr(z), ref(1), ptr(work), ctypes.byref(info),
    )
    if info.value > n:  # the split Cholesky factorization of M failed
        raise LinAlgError("mass matrix is not positive definite")
    if info.value > 0:
        raise LinAlgError(f"dsbgv: {info.value} eigenvalues failed to converge")
    if info.value < 0:
        raise ValueError(f"dsbgv argument {-info.value} is invalid")
    return w


def free_band(ab, free):
    """Lower band of A[free][:, free].  Dropping dofs never widens the
    band: two free dofs at most 3 apart after renumbering but more than 3
    apart before meet in a zero entry."""
    n = len(free)
    rows = np.arange(n) + np.arange(BANDWIDTH + 1)[:, None]
    offset = free[np.minimum(rows, n - 1)] - free
    keep = (rows < n) & (offset <= BANDWIDTH)
    return np.where(keep, ab[np.minimum(offset, BANDWIDTH), free], 0.0)


def band_to_dense(ab):
    """Dense symmetric matrix from a lower band of any width."""
    n = ab.shape[1]
    dense = np.zeros((n, n), dtype=ab.dtype)
    for k in range(min(len(ab), n)):
        j = np.arange(n - k)
        dense[j + k, j] = dense[j, j + k] = ab[k, : n - k]
    return dense


def element_blocks(rule, d):
    """Local Gram blocks (n_elements, 4, 4) of the d-th basis derivatives:
    entry (i, j) of block e is the rule's sum of w phi_i^(d) phi_j^(d)
    over element e.  phi_i * phi_j is formed before the weight
    contraction, so every block is exactly symmetric."""
    phi, weights, _ = element_shape_values(rule, d)
    products = phi[..., :, None] * phi[..., None, :]
    return np.einsum("ep,epij->eij", weights, products)


def gram_matrix(rule, d):
    """Lower band of the weighted Gram matrix of the d-th basis
    derivatives: the element blocks scattered into the band.  Element e
    owns dofs 2e..2e+3, so an entry receives at most two contributions;
    they are added to zero in element order."""
    blocks = element_blocks(rule, d)
    n = rule.mesh.n_dofs
    dofs = rule.mesh.element_dofs()
    flat = (_LOCAL_ROW - _LOCAL_COL) * n + dofs[:, _LOCAL_COL]
    values = blocks[:, _LOCAL_ROW, _LOCAL_COL]
    summed = np.bincount(flat.ravel(), weights=values.ravel(), minlength=4 * n)
    return summed.reshape(BANDWIDTH + 1, n)


# ---------------------------------------------------------------------------
# assembled systems
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class AssembledSystem:
    """Symmetric positive-definite inner-product matrix M and positive
    semidefinite energy matrix K on the free dofs.

    ``free`` lists the dofs of ``mesh`` that are not pinned to zero: all
    of them, or all but the value dof at x0.  M, K and
    ``stiffness_interior`` (K without its boundary terms) are lower bands
    of shape (4, len(free)): rows and columns of the free dofs only, the
    coordinates of every vector that pairs with them.  ``point_mass`` and
    ``point_stiffness`` are the terms assembly added to M and K at
    ``mesh.end_dofs``; ``rules`` seeds :meth:`rule` with the rules it
    integrated with.
    """

    form: OperatorForm
    mesh: Mesh
    free: np.ndarray
    coeff: DegenerateCoefficient
    params: WentzellParams
    M: np.ndarray
    K: np.ndarray
    stiffness_interior: np.ndarray
    point_mass: tuple
    point_stiffness: tuple
    rules: InitVar[dict]

    def __post_init__(self, rules):
        for a in (self.M, self.K, self.stiffness_interior):
            a.setflags(write=False)
        self._rules = {(kind, None): rule for kind, rule in rules.items()}

    def to_dense(self, *names):
        """Dense copies of the named matrices ("M" and "K" by default;
        "stiffness_interior"), on the free dofs.  O(n^2) memory: for the
        oracle and tests."""
        return tuple(band_to_dense(getattr(self, name)) for name in names or ("M", "K"))

    def expand(self, free_values):
        """The full-dof array of free-dof values (leading axis), zero on
        the pinned dof, for writing out and for evaluation."""
        out = np.zeros((self.mesh.n_dofs,) + np.shape(free_values)[1:])
        out[self.free] = free_values
        return out

    def mass_norm_sq(self, u):
        return band_quadratic(self.M, u)

    def energy(self, u):
        return band_quadratic(self.K, u)

    def rule(self, kind, npoints=None):
        """Quadrature rule for the weight ``kind`` on this system, built
        once; the pencil's two rules are the ones assembly used.  A 1/a
        weight of the strong class raises DivergentIntegralError unless
        the value dof at x0 is pinned: only then is every product of
        represented functions integrable against it."""
        key = (WeightKind(kind), npoints)
        if key not in self._rules:
            if (key[0] is WeightKind.COEFF_RECIP_A
                    and classify(self.coeff) is DegeneracyClass.STRONG
                    and len(self.free) == self.mesh.n_dofs):
                raise DivergentIntegralError(
                    "1/a is not integrable across a strong degeneracy unless the "
                    "value dof at x0 is pinned to zero"
                )
            self._rules[key] = weighted_rule(self.mesh, self.coeff, *key)
        return self._rules[key]


def point_terms(form, coeff, params):
    """Point masses c_j/beta_j and stiffnesses -(gamma_j/beta_j) c_j of
    ``form`` at the ends j = 0, 1, c_j its stiffness weight there (a(j) or
    1); a term out of double range raises ConfigError("beta{j}" or "gamma{j}")."""
    weight = PENCIL[OperatorForm(form)].stiffness
    c = coeff.boundary_values() if weight is WeightKind.COEFF_A else (1.0, 1.0)
    p = params
    mass = (c[0] / p.beta0, c[1] / p.beta1)
    stiffness = (-((p.gamma0 / p.beta0) * c[0]), -((p.gamma1 / p.beta1) * c[1]))
    for j in (0, 1):
        for key, term in ((f"beta{j}", mass[j]), (f"gamma{j}", stiffness[j])):
            if not np.isfinite(term):
                raise ConfigError(key, f"the point term at x = {j} is not finite")
    return mass, stiffness


def assemble(form, mesh, coeff, params) -> AssembledSystem:
    """System of the operator ``form`` on the cubic Hermite space of
    ``mesh``, with dynamic boundary terms.

    M is the Gram matrix of the basis for the pencil's mass weight plus
    the point masses c_j/beta_j; K is that of the second derivatives for
    its stiffness weight plus -gamma_j/beta_j c_j, c_j the stiffness
    weight at the end j.  A 1/a mass in the strong class pins the value
    dof at x0 (functions vanish there), which is exactly what keeps its
    integrals finite for exponents K < 2; the bands keep the free dofs only.
    """
    form = OperatorForm(form)
    pencil = PENCIL[form]
    check_power_comparison(coeff)
    klass = classify(coeff)
    free = np.arange(mesh.n_dofs)
    if klass is DegeneracyClass.STRONG and pencil.mass is WeightKind.COEFF_RECIP_A:
        free = np.delete(free, 2 * mesh.x0_index)  # the value dof at x0
    point_mass, point_stiffness = point_terms(form, coeff, params)
    rules = {kind: weighted_rule(mesh, coeff, kind) for kind in pencil}
    M = gram_matrix(rules[pencil.mass], 0)
    M[0, mesh.end_dofs] += point_mass
    S = gram_matrix(rules[pencil.stiffness], 2)
    K = S.copy()
    K[0, mesh.end_dofs] += point_stiffness
    M, K, S = (free_band(ab, free) for ab in (M, K, S))
    return AssembledSystem(
        form, mesh, free, coeff, params, M, K, S, point_mass, point_stiffness, rules
    )
