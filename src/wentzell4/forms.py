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
point terms it added, and its mesh the quadrature rules it integrated
with, so the loads, projections, norms and oracle checks that pair with
M and K read the table and these, never a second copy of the choice.

Storage.  Cubic Hermite dofs couple at most three apart, so every matrix
is held as its symmetric rows, an array (n, 7) with
``rows[i, o] = A[i, i + o - 3]`` and +0.0 in the six entries that fall
outside the matrix (the padding).  Assembly computes the 10 lower
entries of all element blocks in one batch, a matrix product per
reference rule of the quadrature rule
(:func:`discretization.element_integrals`), scatters all 16 entries of
each block into the rows and keeps only the rows and columns of the
free dofs (:func:`free_band`), so n is the number of free dofs and a
pinned dof has no entry anywhere.  Every vector is held on the free dofs
too, and :meth:`AssembledSystem.expand` forms a full-dof vector only
where one is written out or evaluated.  The time step, the norms and the
solvers read the rows directly, at O(n) cost: a kernel that reduces a
matrix reads diagonal k as the slices ``rows[:n-k, 3+k]``, ``x[k:]`` and
``x[:n-k]``.  Every product of a matrix with a vector (a step's
right-hand side, the solver's residual) is :func:`band_matvec`: the rows
are the data of a CSR matrix with seven entries per row, which scipy's
compiled CSR loop applies, and that loop's order of summation is what
the bits of every product rest on.  LAPACK's lower band storage
``ab[k, j] = A[j + k, j]`` is the view ``rows.T[3:]``, formed only as
the argument of the Cholesky factorization ``dpbtrf``.  Dense copies
exist only through :meth:`AssembledSystem.to_dense`, for the oracle and
tests, and in the propagator of a long run on a small mesh
(:class:`evolution.TimeStepper`).

Eigenvalues.  :func:`pencil_spectrum` answers what ``spectrum``
reports, the bottom eigenvalues with a bound on the rounding error of
each, the largest and the kernel count, by one of two paths chosen by
size.  Small systems (up to 150 dofs) take the dense generalized
eigensolve of LAPACK ``dsygvd`` on the Jacobi-equilibrated matrices,
:func:`dense_pencil`, the one dense pencil solve, which the oracle's
``dense_decompose`` makes too.  Larger ones touch the rows
only through O(n) factorizations, solves and products: the largest
eigenvalue by bisection on sigma, where the Cholesky factorization of
sigma M - K succeeds exactly above it, and the bottom ones by block
shift-invert Lanczos on the refined solve of K + M, which stops once
the requested count and one eigenvalue past the expected kernel have
converged (16-18 steps on the damped test problem from n = 256 to
16384).  Each eigenvalue's bound, ``eps |v|^T |K| |v|`` from its
eigenvector v plus, on the dense path, ``8 eps lambda_max`` for the
dense solve's own error (:func:`bounded_spectrum`), decides both the
kernel count and whether the smallest counts as nonnegative.  At 1026
dofs the Lanczos path takes about 5 ms (median of 11 calls, one core of
a 2-vCPU x86-64 VM).

An element block is one computed value per pair i >= j, written to
(i, j) and (j, i), and an entry of the rows sums at most two of them in
element order, so the rows are those of a dense accumulation of the
mirrored blocks, bit for bit: ``rows[i, 3+k] == rows[i+k, 3-k]``.  So
the lower half that ``dpbtrf`` reads holds the values of the upper half
that :func:`band_matvec` reads too, and a dense copy
(:func:`band_to_dense`) has M = M^T and K = K^T with no rounding gap.
Sums, scalings and congruences of the rows keep that.

Solvers.  :class:`_BandedSPD` is a banded Cholesky factorization (LAPACK
``dpbtrf``, the call ``cholesky_banded`` makes, made directly) after
Jacobi equilibration, the step every eigenvalue path shares,
plus one round of refinement against a longdouble residual that equals
the dense one bit for bit.  Equilibration leaves a step matrix
ill-conditioned (condition number 7.3e9 for the Crank-Nicolson matrix of
the divergence form at n = 512, dt = 0.01; 3.7e3 for the strong
non-divergence implicit Euler one at n = 32, dt = 4e-4), and the round
takes the forward error of a solve with the first from 2.3e-8 to 3.5e-12
(against four rounds).  A refined solve is two plain solves (the
equilibration scaling and LAPACK ``dpbtrs``) and one residual, the
:func:`band_matvec` of the longdouble rows.  On the first matrix (1026
dofs) ``bench/nsweep.py`` gives 87 us per refined solve, of which
26 us per plain solve and 20 us for the longdouble product of the
residual; a float :func:`band_matvec` takes 6.9 us (BENCH_27.json; one
core of a 2-vCPU x86-64 VM, BLAS at one thread).
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.linalg import LinAlgError

from ._scipy import csr_matvec, csr_matvecs, dpbtrf, dpbtrs, dsyevr, dsyevr_lwork, dsygvd
from .coefficient import (
    ConfigError,
    DegeneracyClass,
    DegenerateCoefficient,
    check_power_comparison,
    classify,
)
from .discretization import LOWER_PAIRS, Mesh, WeightKind
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
    "bounded_spectrum",
    "dense_pencil",
    "band_quadratic",
    "band_to_dense",
    "free_band",
    "gram_matrix",
    "PencilSpectrum",
    "pencil_spectrum",
    "point_terms",
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


@functools.lru_cache(maxsize=16)
def _csr_index(n):
    """Read-only CSR ``indptr`` (0, 7, 14, ...), the (n, 7) columns of the
    entries of rows (n, 7), i + o - 3 for entry (i, o) clipped into range
    (the CSR ``indices``), and the mask of the padding, the entries whose
    column the clip moved: they hold +0.0."""
    width = 2 * BANDWIDTH + 1
    indptr = np.arange(0, width * n + 1, width)
    unclipped = np.arange(n)[:, None] + np.arange(-BANDWIDTH, BANDWIDTH + 1)
    columns = np.clip(unclipped, 0, n - 1)
    padding = columns != unclipped
    for a in (indptr, columns, padding):
        a.setflags(write=False)
    return indptr, columns, padding


def band_matvec(rows, x):
    """A @ x from the rows (n, 7) of A, in the dtype of ``rows``; x may
    carry trailing columns.

    The rows are the data of a CSR matrix with seven entries per row
    (:func:`_csr_index`), and scipy's compiled CSR product
    (``csr_matvec``, and ``csr_matvecs`` over trailing columns) applies
    them without forming a sparse matrix.  That loop adds the seven
    products of a row as one running sum in ascending column order from
    the +0.0 of the zeroed output, the order of numpy's dense product, so
    for a finite x a longdouble ``rows`` gives the dense longdouble
    ``A @ x`` bit for bit, signed zeros included: an all-zero row sums
    to +0.0.  The zeros past an end are multiplied too, so an inf at
    dof 0 makes rows 0 to 2 nan (0 * inf); the tests pin these sums
    too.  With one dof six of the seven products are
    zeros, so no order can differ.  At
    1026 dofs a product takes 6.9 us in float and 20 us in longdouble
    (BENCH_27.json).
    """
    x = np.asarray(x, dtype=rows.dtype)
    n = len(rows)
    if len(x) != n:  # a full-dof vector is refused, not misread
        raise ValueError(f"vector of {len(x)} entries for a band of {n} dofs")
    indptr, columns, _ = _csr_index(n)
    out = np.zeros(x.shape, dtype=rows.dtype)
    if x.ndim == 1:
        csr_matvec(n, n, indptr, columns, rows, x, out)
    else:
        csr_matvecs(n, n, math.prod(x.shape[1:]), indptr, columns, rows, x, out)
    return out


def band_quadratic(rows, x):
    """x^T A x for the symmetric matrix with rows ``rows``; for x of
    shape (s, n), the array of the s values x[i]^T A x[i].

    Diagonal k is summed from slices, ``rows[:n-k, 3+k] x[k:] x[:n-k]``
    in column order, so a stack of any length takes one call and no copy.
    The value is 1, 2, 2, 2 times the four diagonal sums, added term by
    term from zero as BLAS forms a dot product of four entries; the
    weights make every product exact.  A row of a stack gives the bits
    of the same vector alone.
    """
    x = np.asarray(x, dtype=float)
    n = len(rows)
    if x.shape[-1] != n:  # a full-dof vector is refused, not misread
        raise ValueError(f"vector of {x.shape[-1]} entries for a band of {n} dofs")
    stack = x.reshape(-1, n)
    per = [
        np.einsum("j,sj,sj->s", rows[: max(n - k, 0), BANDWIDTH + k], stack[:, k:],
                  stack[:, : max(n - k, 0)])
        for k in range(BANDWIDTH + 1)
    ]
    out = 0.0 + per[0] + 2.0 * per[1] + 2.0 * per[2] + 2.0 * per[3]
    return out if x.ndim > 1 else float(out[0])


def band_congruence(rows, d):
    """Rows of diag(d) A diag(d): entry (i, o) times d[i + o - 3] * d[i],
    and +0.0 in the padding.  One product over all rows, through the
    clipped columns of :func:`_csr_index`; the padding is then
    overwritten, whatever the rows hold there."""
    _, columns, padding = _csr_index(len(d))
    out = rows * (d[columns] * d[:, None])
    out[padding] = 0.0
    return out


def _jacobi(rows):
    """``dinv = 1/sqrt(diag A)`` and the rows of diag(dinv) A diag(dinv);
    LinAlgError unless diag A is positive and finite and the result finite."""
    diag = rows[:, BANDWIDTH]
    if not (diag.min() > 0.0 and diag.max() < math.inf):  # nan fails both
        raise LinAlgError("matrix diagonal is not positive and finite")
    dinv = 1.0 / np.sqrt(diag)
    scaled = band_congruence(rows, dinv)
    if not np.isfinite(scaled).all():
        raise LinAlgError("equilibrated matrix is out of double range")
    return dinv, scaled


class _BandedSPD:
    """Banded SPD solver with Jacobi equilibration and refinement; takes
    the matrix as rows (n, 7) and keeps them in longdouble for the
    residual.

    The factor is ``cholesky_banded``'s call, ``dpbtrf``, made directly
    on the lower band of the equilibrated rows, the view ``rows.T[3:]``,
    and an indefinite matrix raises its text.  A solve costs two
    ``dpbtrs`` calls and one longdouble residual
    ``b - band_matvec(rows, x)``: 26 us each and 20 us for the product,
    of 87 us at 1026 dofs (BENCH_27.json; see the module docstring)."""

    def __init__(self, A):
        A = np.asarray(A, dtype=float)
        self.dinv, scaled = _jacobi(A)
        self.factor, info = dpbtrf(scaled.T[BANDWIDTH:], lower=1)
        if info > 0:
            raise LinAlgError(f"{info}-th leading minor not positive definite")
        self.rows = A.astype(np.longdouble)

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
        columns), with one round of refinement against the longdouble
        residual, the dense ``b - A x`` bit for bit: it recovers the
        digits the condition number of the equilibrated matrix costs the
        plain solve (see the module docstring)."""
        if not np.isfinite(b).all():
            raise LinAlgError("right-hand side is not finite")
        x = self._solve_once(b)
        return x + self._solve_once((b - band_matvec(self.rows, x)).astype(float))


def _largest(dinv, mass, stiffness):
    """The largest eigenvalue of the pencil, by bisection on sigma: by
    Sylvester's law of inertia, sigma M - K is positive definite, and its
    Cholesky factorization ``dpbtrf`` succeeds, exactly when sigma is
    above it.  ``dinv, mass`` is :func:`_jacobi` of M, which must be
    positive definite, and K is scaled by ``dinv`` once, so the bracket
    starts at the largest diagonal entry of the scaled K, a Rayleigh
    quotient; its width doubles until the factorization succeeds, then
    halves to the last bit, about 55 factorizations of O(n) each, on the
    lower bands, the views ``rows.T[3:]``."""
    mass, stiffness = mass.T[BANDWIDTH:], band_congruence(stiffness, dinv).T[BANDWIDTH:]
    shifted = np.empty_like(mass, order="F")  # each factorization overwrites it

    def above(sigma):
        np.multiply(mass, sigma, out=shifted)
        np.subtract(shifted, stiffness, out=shifted)
        return dpbtrf(shifted, lower=1, overwrite_ab=1)[1] == 0

    lo = float(stiffness[0].max())
    step = max(abs(lo), np.finfo(float).tiny)
    while not above(lo + step):
        lo += step
        step *= 2.0
        if not math.isfinite(lo + step):
            raise LinAlgError("largest eigenvalue is out of double range")
    hi = lo + step
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if above(mid):
            hi = mid
        else:
            lo = mid


def _eigh(a, b=None, vectors=False):
    """``scipy.linalg.eigh(a, b, eigvals_only=not vectors)`` bit for bit:
    the LAPACK call it makes, ``dsyevr`` with the workspace of scipy's
    ``dsyevr_lwork`` query or ``dsygvd``, without its wrapper's checks.
    A ``b`` that is not positive definite raises the text of the other
    eigenvalue paths."""
    if b is None:
        work, iwork, info = dsyevr_lwork(len(a), lower=1)
        w, v, _, _, info = dsyevr(a, compute_v=int(vectors), lower=1, lwork=int(work), liwork=iwork)
    else:
        w, v, info = dsygvd(a, b, jobz="V" if vectors else "N")
        if info > len(a):
            raise LinAlgError("mass matrix is not positive definite")
    if info:
        raise LinAlgError(f"{'dsyevr' if b is None else 'dsygvd'} failed with info = {info}")
    return (w, v) if vectors else w


class PencilSpectrum(NamedTuple):
    """What ``spectrum`` reports of a pencil: the bottom eigenvalues,
    ascending, the bound on the rounding error of each, the largest
    eigenvalue, and the kernel count, the number of eigenvalues below
    their bounds among those resolved (every one on the dense path, the
    bottom ``max(count, kernel + 1)`` on the Lanczos path)."""

    lowest: np.ndarray
    bounds: np.ndarray
    largest: float
    kernel: int

    @property
    def psd_ok(self):
        """The smallest eigenvalue is nonnegative within its bound."""
        return bool(self.lowest[0] >= -self.bounds[0])


# dsygvd is backward stable for the equilibrated pencil, so each of its
# eigenvalues carries an error of about eps * lambda_max besides the
# rounding of K.  On the kernels of 3000 random systems of the tests'
# strategy it reached 2.1 times that, and up to 175 times the rounding
# term alone; the dense bounds add this many times eps * lambda_max
_DENSE_ERROR = 8.0


def bounded_spectrum(values, vectors, stiffness, count, largest, dense=False):
    """The :class:`PencilSpectrum` of the ascending eigenvalues ``values``
    and their M-normalized eigenvectors (rows of ``vectors``), of which
    the bottom ``count`` are reported.  The bound of an eigenvalue is
    ``eps |v|^T |K| |v|``, |K| the rows with their entries made absolute:
    the size of the rounding that K's entries carry into the Rayleigh
    quotient of v.  It is first order and heuristic: it bounds the error
    of lambda_1 of the damped test problem at every n from 512 to 8192,
    by a factor of 24 to 21,000, 150-170 times tighter than ``eps *
    lambda_max`` (ROADMAP item 18), and the Lanczos kernel values of 400
    random systems of the tests' strategy stay within 0.26 of it.  The
    bounds of ``dense`` values add ``_DENSE_ERROR * eps * |lambda_max|``,
    the dense solve's own error."""
    floor = _DENSE_ERROR * abs(largest) if dense else 0.0
    bounds = np.finfo(float).eps * (band_quadratic(np.abs(stiffness), np.abs(vectors)) + floor)
    return PencilSpectrum(values[:count], bounds[:count], largest, int(np.sum(values < bounds)))


def dense_pencil(mass, stiffness):
    """The ascending eigenvalues of the pencil K v = lambda M v of the
    rows of M and K and their M-normalized eigenvectors (columns):
    ``dsygvd`` of the Jacobi-equilibrated matrices, its vectors scaled
    back.  The rows form ``K_ij (d_i d_j)`` as a dense ``K * outer(d, d)``
    does, bit for bit.  O(n^3) time and O(n^2) memory."""
    dinv, scaled = _jacobi(mass)
    w, z = _eigh(band_to_dense(band_congruence(stiffness, dinv)), band_to_dense(scaled),
                 vectors=True)
    return w, dinv[:, None] * z


def _dense_spectrum(mass, stiffness, count):
    """The :class:`PencilSpectrum` of every eigenpair of :func:`dense_pencil`."""
    w, v = dense_pencil(mass, stiffness)
    return bounded_spectrum(w, v.T, stiffness, count, float(w[-1]), dense=True)


# Each shift-invert Lanczos step is one refined solve of K + sigma M at
# this shift, whose spectrum transform 1/(lambda + sigma) keeps the
# bottom eigenvalues apart.  A Ritz value counts as converged once its
# residual bound is below this fraction of itself: lambda + sigma is then
# within that fraction of an eigenvalue.  The Krylov space is that of a
# block of start vectors, the Weyl sequences frac(i sqrt(p)) - 1/2 of
# these p: one vector finds a double eigenvalue once, or only after the
# rounding of many steps has grown its second direction (a double kernel
# next to an eigenvalue 0.35 was counted once and made lambda_2 =
# lambda_3), and the kernel of a pencil with neutral ends is double.
# Neither sequence is symmetric or antisymmetric, so neither misses a
# family of modes of a symmetric problem, as all ones misses every
# antisymmetric one
_LANCZOS_SHIFT = 1.0
_LANCZOS_TOL = 1e-8
_LANCZOS_START = (2.0, 3.0)
# a run that has not converged in this many steps is refused
_LANCZOS_MAX_STEPS = 300


def _lanczos(mass, stiffness, count):
    """The ``count`` smallest eigenvalues of the pencil, ascending, and
    their M-normalized Ritz vectors (rows), by block shift-invert Lanczos
    (Ericsson and Ruhe, Math. Comp. 35, 1980): the Krylov space of
    (K + sigma M)^-1 M from the fixed start vectors ``_LANCZOS_START``,
    in the M inner product, with full reorthogonalization, run until the
    first ``count`` Ritz values have converged.  None if that takes more
    than ``_LANCZOS_MAX_STEPS`` steps or the space stops growing.  Each
    step costs one refined solve, three products with M (two for the
    inner products of the reorthogonalization against every vector before
    it, one for the norm) and an eigensolve of the projection; the basis
    grows with the steps."""
    n = len(mass)
    block = len(_LANCZOS_START)
    solver = _BandedSPD(stiffness + _LANCZOS_SHIFT * mass)
    most = min(n - block, _LANCZOS_MAX_STEPS)
    basis = np.empty((0, n))  # the M-orthonormal Lanczos vectors, one per row
    pending = []  # M times each vector no step has started from yet
    # the projection of the operator on them, column by column: its lower
    # band holds the block recurrence, the rest what reorthogonalization
    # removes
    h = np.zeros((most + block, most))
    size = 0

    def append(w, column=None):
        """M-orthogonalize w against the basis, by classical Gram-Schmidt
        twice, and append it normalized; its coefficients go to
        ``column`` of h.  False if nothing is left of it."""
        nonlocal basis, size
        if size == len(basis):  # room for twice as many vectors, up to the last
            grown = np.empty((min(max(2 * size, 16), most + block), n))
            grown[:size] = basis
            basis = grown
        for _ in range(2):
            c = basis[:size] @ band_matvec(mass, w)
            w -= c @ basis[:size]
            if column is not None:
                h[:size, column] += c
        mw = band_matvec(mass, w)
        b = math.sqrt(max(float(w @ mw), 0.0))
        if column is not None:
            h[size, column] = b
        if not b > 0.0:
            return False
        basis[size] = w / b
        pending.append(mw / b)
        size += 1
        return True

    for p in _LANCZOS_START:
        append(np.modf(np.arange(1, n + 1) * math.sqrt(p))[0] - 0.5)
    for steps in range(1, most + 1):
        if not append(solver.solve(pending.pop(0)), steps - 1):
            return None  # an invariant subspace: no further step
        # the Ritz pairs of the block recurrence (the lower band), and the
        # bound on the residual of each from the rows below the block
        theta, vectors = np.linalg.eigh(h[:steps, :steps])
        residual = np.linalg.norm(h[steps:steps + block, :steps] @ vectors, axis=0)
        converged = (residual <= _LANCZOS_TOL * theta)[::-1]
        ready = len(converged) if converged.all() else int(np.argmin(converged))
        if ready >= count:
            # the pairs are those of the whole projection made symmetric:
            # the solve is not exactly self-adjoint, and the recurrence
            # misses the coefficients this leaves on the earlier vectors
            # (without them the bottom 20 at 1026 dofs move by up to 0.71
            # of oracle.BANDED_EIGENVALUE_GAP_TOL against the dense solve,
            # with them 0.001); descending theta is ascending lambda =
            # 1/theta - sigma
            projection = h[:steps, :steps]
            theta, vectors = np.linalg.eigh(0.5 * (projection + projection.T))
            top = vectors[:, ::-1][:, :count]
            return 1.0 / theta[::-1][:count] - _LANCZOS_SHIFT, top.T @ basis[:steps]
    return None


# The dense eigensolve costs O(n^3), the Lanczos path O(n) per step plus
# a fixed cost (the bisection of the largest, the steps up to the count),
# so the dense solve answers up to this many dofs.  With eigenvectors and
# bounds it takes 2.2-2.8 ms at 130 dofs against 2.2-2.5 ms for the
# Lanczos path and the bisection, and 4.9-6.6 ms at 202 dofs against
# 2.6-2.9 (best of 3 calls on one pinned core of a 2-vCPU x86-64 VM)
_DENSE_SPECTRUM_MAX_DOFS = 150
# Above it, the Lanczos path serves a count while each eigenvalue has more
# than this many dofs, up to a largest count: on three test problems its
# bottom values were within 4e-16 of lambda_max of the dense ones at 10
# to 22 dofs each, and 100 eigenvalues took 160 steps at 2050 and 4098
# dofs (0.2-0.3 s)
_LANCZOS_MIN_DOFS_PER_EIGENVALUE = 20
_LANCZOS_MAX_COUNT = 100


def pencil_spectrum(mass, stiffness, count, kernel):
    """The :class:`PencilSpectrum` of the pencil K v = lambda M v of the
    rows of M and K: its ``count`` smallest eigenvalues (all n when
    ``count`` is n or more) with their bounds (:func:`bounded_spectrum`),
    its largest, and its kernel count, where the kernel is expected to
    have dimension ``kernel``.

    Up to ``_DENSE_SPECTRUM_MAX_DOFS`` dofs every number comes from the
    dense eigensolve (:func:`_dense_spectrum`).  Above it the bottom
    ``max(count, kernel + 1)`` come from shift-invert Lanczos
    (:func:`_lanczos`), O(n) per step, so that a kernel count other than
    ``kernel`` shows; the largest is then bisected (:func:`_largest`),
    unless the kernel count differs, which its caller refuses (the
    largest is None).  There a count the Lanczos path does not serve
    raises ConfigError("count"), naming the largest it serves, and a run
    that does not converge LinAlgError."""
    n = len(mass)
    if n <= _DENSE_SPECTRUM_MAX_DOFS:
        return _dense_spectrum(mass, stiffness, count)
    served = min((n - 1) // _LANCZOS_MIN_DOFS_PER_EIGENVALUE, _LANCZOS_MAX_COUNT)
    if count > served:
        raise ConfigError("count", f"at most {served} eigenvalues are served at {n} free dofs")
    dinv, scaled = _jacobi(mass)
    if dpbtrf(scaled.T[BANDWIDTH:], lower=1)[1]:
        raise LinAlgError("mass matrix is not positive definite")
    found = _lanczos(mass, stiffness, max(count, kernel + 1))
    if found is None:
        raise LinAlgError(f"shift-invert Lanczos has not converged in {_LANCZOS_MAX_STEPS} steps")
    spectrum = bounded_spectrum(*found, stiffness, count, None)
    if spectrum.kernel != kernel:
        return spectrum
    return spectrum._replace(largest=_largest(dinv, scaled, stiffness))


def free_band(rows, free):
    """Rows of A[free][:, free], gathered through the clipped columns of
    :func:`_csr_index`, +0.0 in the padding.  Dropping dofs never widens
    the band: two free dofs at most 3 apart after renumbering but more
    than 3 apart before meet in a zero entry."""
    n = len(free)
    _, columns, padding = _csr_index(n)
    offset = free[columns] - free[:, None]
    keep = ~padding & (np.abs(offset) <= BANDWIDTH)
    return np.where(keep, rows[free[:, None], BANDWIDTH + offset.clip(-BANDWIDTH, BANDWIDTH)], 0.0)


def band_to_dense(rows):
    """Dense matrix from rows (n, 7): each entry but the padding scattered
    to its row and its column of :func:`_csr_index`, once."""
    n = len(rows)
    _, columns, padding = _csr_index(n)
    i, o = np.nonzero(~padding)
    dense = np.zeros((n, n), dtype=rows.dtype)
    dense[i, columns[i, o]] = rows[i, o]
    return dense


def gram_matrix(rule, d):
    """Rows of the weighted Gram matrix of the d-th basis derivatives,
    kept read-only with the rule (a caller that adds to it works on a
    copy): the 10 lower entries of every element block, one value per
    pair i >= j (:meth:`QuadratureRule.pair_integrals`, kept with the
    rule), scattered straight into the rows, each to (i, j) and (j, i).
    Element e owns dofs 2e..2e+3, so an entry receives at most two
    contributions; they are added to zero in element order."""

    def scatter(rule):
        width = 2 * BANDWIDTH + 1
        pair = np.zeros((4, 4), dtype=int)  # the pair of LOWER_PAIRS of (r, c)
        pair[LOWER_PAIRS] = pair[LOWER_PAIRS[::-1]] = np.arange(len(LOWER_PAIRS[0]))
        row, col = np.indices((4, 4)).reshape(2, -1)
        flat = rule.mesh.element_dofs()[:, row] * width + (BANDWIDTH + col - row)
        entries = rule.pair_integrals(d)[:, pair.ravel()]
        summed = np.bincount(flat.ravel(), weights=entries.ravel(), minlength=width * rule.mesh.n_dofs)
        return summed.reshape(-1, width)

    return rule.kept(("gram", d), scatter)


# ---------------------------------------------------------------------------
# assembled systems
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class AssembledSystem:
    """Symmetric positive-definite inner-product matrix M and positive
    semidefinite energy matrix K on the free dofs.

    ``free`` lists the dofs of ``mesh`` that are not pinned to zero: all
    of them, or all but the value dof at x0.  M, K and
    ``stiffness_interior`` (K without its boundary terms) are symmetric
    rows of shape (len(free), 7), the form every kernel takes: rows and
    columns of the free dofs only, the coordinates of every vector that
    pairs with them.  ``point_mass`` and ``point_stiffness`` are the
    terms assembly added to M and K at ``mesh.end_dofs``.  The quadrature
    rules are those the mesh keeps (:meth:`rule`), and the dense copies
    are formed on the first request and kept read-only with the system.
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
    _dense: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        for a in (self.M, self.K, self.stiffness_interior):
            a.setflags(write=False)

    def to_dense(self, *names):
        """Dense copies of the named matrices ("M" and "K" by default;
        "stiffness_interior"), on the free dofs, each formed once and
        kept read-only.  O(n^2) memory: for the oracle and tests."""
        names = names or ("M", "K")
        for name in names:
            if name not in self._dense:
                dense = band_to_dense(getattr(self, name))
                dense.setflags(write=False)
                self._dense[name] = dense
        return tuple(self._dense[name] for name in names)

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
        """Quadrature rule for the weight ``kind`` on this system, the one
        its mesh keeps (:meth:`discretization.Mesh.rule`); the pencil's two
        rules are the ones assembly used.  A 1/a weight of the strong
        class raises DivergentIntegralError unless the value dof at x0 is
        pinned: only then is every product of represented functions
        integrable against it."""
        if (WeightKind(kind) is WeightKind.COEFF_RECIP_A
                and classify(self.coeff) is DegeneracyClass.STRONG
                and len(self.free) == self.mesh.n_dofs):
            raise DivergentIntegralError(
                "1/a is not integrable across a strong degeneracy unless the "
                "value dof at x0 is pinned to zero"
            )
        return self.mesh.rule(self.coeff, kind, npoints)


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
    integrals finite for exponents K < 2; the rows keep the free dofs only.
    """
    form = OperatorForm(form)
    pencil = PENCIL[form]
    check_power_comparison(coeff)
    klass = classify(coeff)
    free = np.arange(mesh.n_dofs)
    if klass is DegeneracyClass.STRONG and pencil.mass is WeightKind.COEFF_RECIP_A:
        free = np.delete(free, 2 * mesh.x0_index)  # the value dof at x0
    point_mass, point_stiffness = point_terms(form, coeff, params)
    M = gram_matrix(mesh.rule(coeff, pencil.mass), 0).copy()
    M[mesh.end_dofs, BANDWIDTH] += point_mass
    S = gram_matrix(mesh.rule(coeff, pencil.stiffness), 2)
    K = S.copy()
    K[mesh.end_dofs, BANDWIDTH] += point_stiffness
    if len(free) < mesh.n_dofs:  # else the rows are those of every dof already
        M, K, S = (free_band(rows, free) for rows in (M, K, S))
    return AssembledSystem(form, mesh, free, coeff, params, M, K, S, point_mass, point_stiffness)
