"""Independent verifiers: dense spectral reference and closed-form checks.

Everything here is deliberately decoupled from the production solver: the
exact propagator goes through a dense generalized eigendecomposition, and
the identity checks (integration-by-parts formulas with boundary and jump
terms, nested reciprocal integrals, best linear fit, pointwise square-root
bounds) are evaluated in the exact piecewise-power algebra, so that a
disagreement always points at the code under test.

The dense eigensolves call the LAPACK drivers ``scipy.linalg.eigh``
picks by default, ``dsygvd`` for a pencil and ``dsyevr`` for one matrix,
directly (``forms._eigh``, which ``spectrum`` calls for small systems
too), with every argument that decides the bits, so each value is
eigh's without its wrapper's cost.

The oracle shares quadrature with assembly and, of the solver, only
that LAPACK call and the rounding bound of an eigenvalue
(``forms.bounded_spectrum``).  A verification report builds each object once and frees it with the
report: one mesh per (n, x0), which keeps its rules and they their Gram
pair integrals (:mod:`discretization`), so the case matrix and the
n = 16 level of the norm-equivalence ladder read the same ones; the
case-matrix systems, assembled once for the ``spectral`` and
``resolvent`` suites; and the dense copies each system keeps.  A rule
keeps its Gram bands too, so each level of the ladder forms its unit
bands once for its three coefficients.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError

from .coefficient import (
    DegeneracyClass,
    DegenerateCoefficient,
    classify,
    constant_profile,
    power_profile,
    singular_moment,
)
from .discretization import WeightKind, build_mesh
from .forms import (
    PENCIL,
    AssembledSystem,
    OperatorForm,
    WentzellParams,
    _eigh,
    assemble,
    band_to_dense,
    bounded_spectrum,
    element_blocks,
    gram_matrix,
)
from .powers import (
    DivergentIntegralError,
    PiecewisePower,
    _poly_in_distance,
    polyder,
    polyint,
    polymul,
    polyroots,
    polysub,
    polytrim,
    polyval,
)

__all__ = [
    "SpaceMembershipError",
    "SpectralDecomposition",
    "GreenReport",
    "dense_decompose",
    "expected_kernel",
    "near_zero_count",
    "exact_propagator",
    "green_residual",
    "green_battery",
    "hardy_bound",
    "best_linear_fit",
    "pointwise_sqrt_bound",
    "norm_equivalence_report",
    "verification_report",
    "SUITES",
]


class SpaceMembershipError(ValueError):
    """A test pair violates the function-space preconditions of an identity."""


# ---------------------------------------------------------------------------
# dense spectral reference
# ---------------------------------------------------------------------------


# max |production - dense| eigenvalue over max(lambda_max, 1), a gate of
# the tests only: they hold both paths of forms.pencil_spectrum to it
# against dense_decompose, the Lanczos path on the case matrix too (at
# most 1.9e-16 there for lambda_1).  The spectral suite does not apply
# it: on the case matrix the production spectrum is the dense solve of
# the same equilibrated matrices, so the gap would be 0 by construction
BANDED_EIGENVALUE_GAP_TOL = 5e-14


def expected_kernel(system):
    """The kernel dimension of the discrete pencil, from the space and the
    ends: the affine functions for every form, less the one the pinned
    value dof at x0 removes (the strong non-divergence form, whose kernel
    is then the span of x - x0), less one for each damped end (a positive
    point stiffness), at which a kernel function must vanish.  x0 is
    interior, so these conditions are independent."""
    pinned = system.mesh.n_dofs - len(system.free)
    damped = sum(term > 0.0 for term in system.point_stiffness)
    return max(2 - pinned - damped, 0)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Generalized symmetric eigendecomposition K v = lambda M v on the
    free dofs; eigenvectors are M-orthonormal."""

    system: AssembledSystem
    eigenvalues: np.ndarray
    vectors: np.ndarray  # (n_free, n_free), one eigenvector per column


def dense_decompose(system: AssembledSystem) -> SpectralDecomposition:
    """Full dense eigensolve of the free pencil.

    Both matrices are symmetrically equilibrated first (a congruence with
    the same diagonal leaves the pencil spectrum invariant); eigenvectors
    are mapped back and M-normalized.
    """
    M, K = system.to_dense()
    diag = np.diag(M)
    if not np.all(diag > 0.0):
        raise LinAlgError("singular mass matrix: quadrature or constraint bug")
    dinv = 1.0 / np.sqrt(diag)
    scale = np.outer(dinv, dinv)
    w, v = _eigh(K * scale, M * scale, vectors=True)
    v = dinv[:, None] * v
    v /= np.sqrt(np.einsum("ij,ij->j", v, M @ v))
    return SpectralDecomposition(system, w, v)


def near_zero_count(decomp: SpectralDecomposition):
    """The number of eigenvalues of a dense decomposition below their
    bounds (:func:`forms.bounded_spectrum`): its kernel count."""
    w = decomp.eigenvalues
    return bounded_spectrum(w, decomp.vectors.T, decomp.system.K, len(w), w[-1], dense=True).kernel


def exact_propagator(decomp: SpectralDecomposition, u0, t):
    """u(t) = sum_k exp(-lambda_k t) <u0, v_k>_M v_k for free-dof u0; the
    identity at t = 0."""
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    (M,) = decomp.system.to_dense("M")
    coeffs = decomp.vectors.T @ (M @ np.asarray(u0, dtype=float))
    return decomp.vectors @ (np.exp(-decomp.eigenvalues * t) * coeffs)


# ---------------------------------------------------------------------------
# integration-by-parts identities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GreenReport:
    """Both sides of an integration-by-parts identity, evaluated exactly."""

    lhs: float
    boundary_first: float
    boundary_second: float
    jump: float
    rhs: float

    @property
    def residual(self):
        return abs(self.lhs - (self.boundary_first - self.boundary_second + self.jump + self.rhs))

    @property
    def scale(self):
        return max(
            abs(self.lhs),
            abs(self.boundary_first),
            abs(self.boundary_second),
            abs(self.jump),
            abs(self.rhs),
        )


def _as_piecewise(spec, x0):
    if isinstance(spec, PiecewisePower):
        return spec
    if isinstance(spec, tuple) and len(spec) == 2 and not np.isscalar(spec[0]):
        return PiecewisePower.from_sides(spec[0], spec[1], x0)
    return PiecewisePower.from_sides(spec, spec, x0)


def _require(cond, message):
    if not cond:
        raise SpaceMembershipError(message)


def _l2_ok(f, side):
    # square integrability near the breakpoint needs exponent > -1/2
    return f.min_exponent(side) > -0.5 + 1e-12 or not (
        f.left if side == "left" else f.right
    )


def _continuous(f):
    if not f.left or not f.right:
        return True  # boundary breakpoint: nothing to match
    try:
        return abs(f.jump()) < 1e-11
    except ValueError:
        return False


def _interior(x0):
    return 0.0 < x0 < 1.0


def _derivatives(f, order):
    """[f, f', ..., f^(order)], each the derivative of the one before: the
    bits of ``f.derivative(k)``, each formed once."""
    out = [f]
    for _ in range(order):
        out.append(out[-1].derivative())
    return out


def _check_divergence_pair(du, dv, dg, klass):
    """``du``, ``dv`` and ``dg`` list u, v and g = a u'' with their
    derivatives (:func:`_derivatives`)."""
    _require(_continuous(du[0]), "u must be continuous")
    _require(_continuous(dv[0]), "v must be continuous")
    if klass is not DegeneracyClass.STRONG:
        _require(_continuous(du[1]), "weak case: u' must be continuous")
        _require(_continuous(dv[1]), "weak case: v' must be continuous")
    for side in ("left", "right"):
        _require(
            _l2_ok(dg[2], side),
            "a u'' must have a square-integrable second derivative",
        )
    _require(_continuous(dg[0]), "a u'' must be continuous")
    _require(_continuous(dg[1]), "(a u'')' must be continuous")


def _check_nondivergence_pair(du, dv, coeff, klass):
    u, v = du[0], dv[0]
    _require(_continuous(u), "u must be continuous")
    _require(_continuous(du[1]), "u' must be continuous")
    _require(_continuous(v), "v must be continuous")
    _require(_continuous(dv[1]), "v' must be continuous")
    if klass is DegeneracyClass.STRONG:
        recip = coeff.as_power(-1)
        try:
            (u * u * recip).integrate()
            (v * v * recip).integrate()
        except DivergentIntegralError as exc:
            raise SpaceMembershipError(
                f"strong case: u and v must vanish at x0 ({exc})"
            ) from None
    else:
        # the weak fourth-power domain embeds in C3
        _require(
            _continuous(du[2]) and _continuous(du[3]),
            "weak case: u must be C3 across x0",
        )


def green_residual(form, u_spec, v_spec, coeff):
    """Evaluate one integration-by-parts identity exactly.

    Divergence form:  int (a u'')'' v = [(a u'')' v] - [a u'' v'] + int a u'' v''.
    Non-divergence:   int u'''' v = [u''' v] - [u'' v'] (+ jump of u'' v' at
    an interior strong degeneracy) + int u'' v''; with a boundary
    degeneracy the [u''' v] bracket keeps only the nondegenerate end.

    Test pairs must satisfy the membership conditions of the underlying
    spaces (continuity across x0, integrability, vanishing at a strong
    x0); violations raise SpaceMembershipError.
    """
    form = OperatorForm(form)
    klass = classify(coeff)
    x0 = coeff.x0
    u = _as_piecewise(u_spec, x0)
    v, v1, v2 = _derivatives(_as_piecewise(v_spec, x0), 2)

    if form is OperatorForm.DIVERGENCE:
        du = _derivatives(u, 2)
        g, gp, g2 = dg = _derivatives(coeff.as_power(1) * du[2], 2)
        _check_divergence_pair(du, (v, v1), dg, klass)
        lhs = (g2 * v).integrate()
        b1 = gp(1.0) * v(1.0) - gp(0.0) * v(0.0)
        b2 = g(1.0) * v1(1.0) - g(0.0) * v1(0.0)
        jump = 0.0
        rhs = (g * v2).integrate()
        return GreenReport(lhs, b1, b2, jump, rhs)

    variant = "interior" if _interior(x0) else ("left_end" if x0 == 0.0 else "right_end")
    du = _derivatives(u, 4)
    _check_nondivergence_pair(du, (v, v1), coeff, klass)
    u2, u3, u4 = du[2:]
    lhs = (u4 * v).integrate()
    strong = klass is DegeneracyClass.STRONG
    if strong and variant == "left_end":
        b1 = u3(1.0) * v(1.0)
    elif strong and variant == "right_end":
        b1 = -u3(0.0) * v(0.0)
    else:
        b1 = u3(1.0) * v(1.0) - u3(0.0) * v(0.0)
    b2 = u2(1.0) * v1(1.0) - u2(0.0) * v1(0.0)
    jump = 0.0
    if strong and variant == "interior":
        jump = (u2.limit("right") - u2.limit("left")) * v1(x0)
    rhs = (u2 * v2).integrate()
    return GreenReport(lhs, b1, b2, jump, rhs)


def _reflect(coeffs):
    """Polynomial coefficients under the reflection x -> 1 - x: p
    re-expanded in the distance 1 - x to the right end."""
    return [c for _, c in _poly_in_distance(coeffs, 1.0, "left")]


def _in_t(x0, *t_coeffs):
    """Polynomial given by ascending coefficients in t = x - x0, returned
    as ascending coefficients in x: p re-expanded about t = -x0, where
    x = 0."""
    return [c for _, c in _poly_in_distance(t_coeffs, -x0, "right")]


def _strong_nondiv_u(x0, left_curv, right_curv):
    """C1 two-sided cubic vanishing at x0 with a curvature jump there."""
    left = _in_t(x0, 0.0, 1.0, 0.5 * left_curv)
    right = _in_t(x0, 0.0, 1.0, 0.5 * right_curv, 1.0)
    return (left, right)


def green_battery():
    """Polynomial test battery covering every identity variant.

    Returns (name, form, coeff, u_spec, v_spec) tuples; every case honours
    the membership conditions of its identity.
    """
    x0 = 0.5
    quartic = [0.0, 0.0, 1.0, -2.0, 1.0]  # x^2 (1-x)^2
    # affine part plus |x - x0|^4: u'' and u''' vanish at x0, so a u''
    # stays twice weakly differentiable even for fractional exponents
    affine = [1.0, 2.0]
    weak_u = PiecewisePower.from_sides(affine, affine, x0) + PiecewisePower.power_weight(x0, 4.0)
    cases = [
        ("nondegenerate_div_classic", OperatorForm.DIVERGENCE,
         constant_profile(1.0, x0), quartic, [1.0]),
        ("nondegenerate_div_cubic_v", OperatorForm.DIVERGENCE,
         constant_profile(1.0, x0), [0.0, 1.0, -1.0, 2.0, 0.5], [2.0, -1.0, 0.0, 1.0]),
        ("nondegenerate_nondiv", OperatorForm.NON_DIVERGENCE,
         constant_profile(1.0, x0), [0.0, 1.0, 0.0, 0.0, 0.0, 1.0], [1.0, 2.0, 1.0]),
        ("zero_v", OperatorForm.DIVERGENCE,
         power_profile(x0, 0.5), weak_u, [0.0]),
        ("weak_div_interior", OperatorForm.DIVERGENCE, power_profile(x0, 0.5),
         weak_u, [2.0, -1.0, 0.0, 1.0]),
        ("weak_div_boundary_x0", OperatorForm.DIVERGENCE, power_profile(0.0, 0.5),
         [0.0, 1.0, 0.0, 0.0, 1.0], [1.0, -1.0]),
        ("weak_nondiv_interior", OperatorForm.NON_DIVERGENCE, power_profile(x0, 0.5),
         [0.0, 0.0, 1.0, 0.0, 0.0, 1.0],
         (_in_t(x0, 0.0, 1.0, 1.0), _in_t(x0, 0.0, 1.0, 3.0))),  # v'' jumps
        # strong divergence, K = 1: u' kinks and u'' flips sign across x0,
        # which is exactly what keeps (a u'')' continuous
        ("strong_div_kink_K1", OperatorForm.DIVERGENCE, power_profile(x0, 1.0),
         (_in_t(x0, 1.0, 1.0, -1.0), _in_t(x0, 1.0, 2.0, 1.0)),
         (_in_t(x0, 0.0, 1.0), _in_t(x0, 0.0, 2.0))),
        # strong divergence, K = 1.5: u'' vanishes at x0 from both sides
        ("strong_div_K15", OperatorForm.DIVERGENCE, power_profile(x0, 1.5),
         (_in_t(x0, 1.0, 2.0, 0.0, -1.0), _in_t(x0, 1.0, 2.0, 0.0, 2.0)),
         [1.0, 1.0, 1.0]),
        # strong non-divergence, interior: u'' jumps and the jump bracket
        # carries the identity
        ("strong_nondiv_jump_K1", OperatorForm.NON_DIVERGENCE, power_profile(x0, 1.0),
         _strong_nondiv_u(x0, left_curv=2.0, right_curv=6.0),
         _in_t(x0, 0.0, 1.0, 1.0)),
        ("strong_nondiv_jump_K15", OperatorForm.NON_DIVERGENCE, power_profile(x0, 1.5),
         _strong_nondiv_u(x0, left_curv=-2.0, right_curv=1.0),
         _in_t(x0, 0.0, 1.0, 1.0)),
        ("strong_nondiv_x0_left", OperatorForm.NON_DIVERGENCE, power_profile(0.0, 1.0),
         [0.0, 1.0, 0.0, 0.0, 0.0, 1.0], [0.0, 1.0, 2.0]),
        ("strong_nondiv_x0_right", OperatorForm.NON_DIVERGENCE, power_profile(1.0, 1.5),
         _reflect([0.0, 1.0, 0.0, 0.0, 1.0]), _reflect([0.0, 1.0])),
        ("strong_div_x0_right", OperatorForm.DIVERGENCE, power_profile(1.0, 1.0),
         _reflect([0.0, 0.0, 0.0, 1.0]), [1.0, 2.0, -1.0]),
    ]
    return cases


# ---------------------------------------------------------------------------
# closed-form inequalities
# ---------------------------------------------------------------------------


def hardy_bound(coeff: DegenerateCoefficient, y0):
    """The two nested reciprocal integrals controlling the strong-case
    first-derivative estimate, in closed form for the power prototype with
    the zero of a placed at the origin (an interior zero reduces to this
    by reflection):

        left  = int_0^y0 t / a(t) dt          = y0^(2-K) / ((2-K) scale)
        right = int_y0^1 int_y0^x dt/a(t) dx

    Both are finite precisely because K < 2.
    """
    if not 0.0 < y0 < 1.0:
        raise ValueError("y0 must be interior")
    K, s = coeff.K, coeff.scale
    if not 1.0 <= K < 2.0:
        raise ValueError("the nested integrals require an exponent in [1, 2)")
    left = y0 ** (2.0 - K) / ((2.0 - K) * s)
    if K == 1.0:
        right = (y0 - 1.0 - math.log(y0)) / s
    else:
        right = ((1.0 - y0 ** (2.0 - K)) / (2.0 - K) - y0 ** (1.0 - K) * (1.0 - y0)) / (
            (1.0 - K) * s
        )
    return left, right


@dataclass(frozen=True)
class LinearFit:
    """L2-best degree-one approximation and the sign changes it exposes."""

    intercept: float
    slope: float
    residual_coeffs: np.ndarray
    zeros: tuple


def best_linear_fit(coeffs):
    """Minimize ||u - (q + m x)||_L2(0,1) over q, m by the 2x2 normal
    equations (Gram matrix of {1, x} inverted in closed form), then locate
    the zeros of the residual in [0, 1]: the real roots of the residual
    polynomial, polished by Newton steps.

    For non-affine u the residual changes sign at least twice: it is
    L2-orthogonal to both 1 and x.  For affine u it vanishes identically
    and no zeros are reported.
    """
    p = np.array(coeffs, dtype=float)
    b0, b1 = _moments(p)
    # inverse of [[1, 1/2], [1/2, 1/3]]
    q = 4.0 * b0 - 6.0 * b1
    m = -6.0 * b0 + 12.0 * b1
    residual = polysub(p, [q, m])
    # + 0.0 maps a root -0.0 to +0.0, as Polynomial.roots does (0.0 + 1.0 r)
    roots = polyroots(polytrim(residual)) + 0.0
    x = np.sort(roots.real[(roots.imag == 0.0) & (roots.real >= 0.0) & (roots.real <= 1.0)])
    slope = polyder(residual)
    for _ in range(2):
        d = polyval(x, slope)
        x = x - np.divide(polyval(x, residual), d, out=np.zeros_like(x), where=d != 0.0)
    return LinearFit(q, m, residual, tuple(map(float, x)))


def _moments(c):
    """The integrals over [0, 1] of p and of x p, p the polynomial of
    ascending coefficients ``c``, each from its antiderivative."""
    P = polyint(c)
    XP = polyint(polymul([0.0, 1.0], c))
    return (float(polyval(1.0, P) - polyval(0.0, P)),
            float(polyval(1.0, XP) - polyval(0.0, XP)))


def pointwise_sqrt_bound(u_spec, coeff, k):
    """Max over 2001 equispaced points of |a u^(k)| / (||(a u^(k))'||_L2 sqrt(d)).

    The continuous estimate bounds this ratio by one whenever a u^(k)
    vanishes at x0 with a square-integrable derivative; both conditions
    are verified before sampling.  Points where both sides vanish are
    skipped; the all-zero case reports 0.  Each side is evaluated as an
    array, with the bits of a point-by-point scan.
    """
    if k not in (0, 1, 2):
        raise ValueError("derivative order k must be 0, 1 or 2")
    x0 = coeff.x0
    u = _as_piecewise(u_spec, x0)
    g = coeff.as_power(1) * u.derivative(k)
    g1 = g.derivative()
    for side, present in (("left", x0 > 0.0), ("right", x0 < 1.0)):
        if not present:
            continue
        _require(
            g.min_exponent(side) > 1e-12 or g.min_exponent(side) == math.inf,
            f"a u^({k}) must vanish at x0",
        )
        _require(
            _l2_ok(g1, side),
            f"(a u^({k}))' must be square integrable",
        )
    _require(_continuous(g), f"a u^({k}) must be continuous at x0")
    denom = math.sqrt(g1.l2_norm_sq())
    if denom == 0.0:
        return 0.0
    xs = np.linspace(0.0, 1.0, 2001)
    best = 0.0
    for side, on_side in (("left", xs < x0), ("right", xs > x0)):
        d = np.abs(xs[on_side] - x0)
        d = d[d >= 1e-14]  # both sides vanish at x0
        ratios = np.abs(g.side_values(side, d)) / (denom * np.sqrt(d))
        # fmax skips a NaN ratio, as max() does
        best = float(np.fmax.reduce(ratios, initial=best))
    return best


# ---------------------------------------------------------------------------
# exact discrete norm-equivalence constant
# ---------------------------------------------------------------------------

# relative slack of the min-max gate c(2n) >= c(n): the dense eigh agrees
# with the dense solve of the Jacobi-equilibrated bands to 8.3e-10
# relative at n <= 32, and the smallest rise seen is 2e-8 (nondegenerate
# weight, n = 16 -> 32)
NESTED_REL_TOL = 1e-9


@dataclass(frozen=True)
class NormEquivalenceReport:
    """Discrete constant C of ||u'||^2 <= C (||u||^2 + ||sqrt(a) u''||^2)
    on each mesh level.

    The constant of the Hermite space is the largest eigenvalue of the
    pencil (G1, G0 + G2a) of weighted Gram matrices.  The theory
    guarantees a finite continuous constant (weak case unconditionally,
    strong case under the power-comparison condition) but does not supply
    its value.  The spaces of the levels are nested, so by the min-max
    principle the discrete constant cannot fall under refinement.
    """

    constants: tuple
    element_counts: tuple

    @property
    def growth_factors(self):
        return tuple(b / a for a, b in zip(self.constants, self.constants[1:]))

    @property
    def nested_ok(self):
        """The min-max property of nested spaces, c(2n) >= c(n)."""
        return all(
            b >= a * (1.0 - NESTED_REL_TOL)
            for a, b in zip(self.constants, self.constants[1:])
        )


def norm_equivalence_report(coeff, n=16, refinements=2, mesh=None):
    """The constants on the meshes ``mesh(n_level, x0)`` (build_mesh by
    default) of n, 2n, ... elements, ``refinements`` times doubled.  Each
    level reads the rules its mesh keeps, so coefficients given a builder
    that returns the same mesh share its unit rule."""
    if not _interior(coeff.x0):
        raise ValueError(f"the norm equivalence needs an interior x0, got {coeff.x0}")
    mesh = mesh or build_mesh
    constants = []
    counts = []
    for level in range(refinements + 1):
        n_level = n * 2**level
        level_mesh = mesh(n_level, coeff.x0)
        unit = level_mesh.rule(coeff, WeightKind.UNIT)
        a_rule = level_mesh.rule(coeff, WeightKind.COEFF_A)
        G1 = band_to_dense(gram_matrix(unit, 1))
        G0_G2a = band_to_dense(gram_matrix(unit, 0) + gram_matrix(a_rule, 2))
        constants.append(float(_eigh(G1, G0_G2a)[-1]))
        counts.append(n_level)
    return NormEquivalenceReport(tuple(constants), tuple(counts))


# ---------------------------------------------------------------------------
# verification report
# ---------------------------------------------------------------------------


@dataclass
class Check:
    suite: str
    name: str
    inputs: dict
    computed: dict
    tolerance: float
    passed: bool


def _case_matrix(mesh=None):
    """Structural test matrix at n = 16: both operator forms, the four
    degeneracy prototypes, neutral and damped boundary terms.

    x0 = 1/2 makes the mesh uniform across x0, not only on each side of
    it, and every case shares that x0, so one mesh, ``mesh(16, 0.5)``
    (build_mesh by default), serves them all, and the systems of one
    coefficient share the rules it keeps.
    """
    coeffs = [
        ("weak_K05", power_profile(0.5, 0.5)),
        ("strong_K1", power_profile(0.5, 1.0)),
        ("strong_K15", power_profile(0.5, 1.5)),
        ("nondegenerate", constant_profile(1.0, 0.5)),
    ]
    gammas = [("neutral", 0.0), ("damped", -1.0)]
    shared = (mesh or build_mesh)(16, 0.5)
    for form in OperatorForm:
        for ctag, coeff in coeffs:
            for gtag, g in gammas:
                params = WentzellParams(1.0, 1.0, g, g)
                yield f"{form.value}_{ctag}_{gtag}", assemble(form, shared, coeff, params)


def _green_checks():
    out = []
    for name, form, coeff, u, v in green_battery():
        rep = green_residual(form, u, v, coeff)
        tol = 1e-11 * max(rep.scale, 1e-30)
        out.append(
            Check(
                "green",
                name,
                {"form": form.value, "K": coeff.K, "x0": coeff.x0},
                {
                    "lhs": rep.lhs,
                    "boundary_first": rep.boundary_first,
                    "boundary_second": rep.boundary_second,
                    "jump": rep.jump,
                    "rhs": rep.rhs,
                    "residual": rep.residual,
                },
                tol,
                rep.residual <= tol,
            )
        )
    return out


def _spectral_checks(cases):
    out = []
    for name, system in cases:
        # element blocks before they are folded into the bands (symmetric
        # by construction: one value mirrored per pair); the boundary
        # terms are diagonal
        pencil = PENCIL[system.form]
        sym_gap = max(
            float(np.max(np.abs(B - B.transpose(0, 2, 1))))
            for B in (
                element_blocks(system.rule(kind), d)
                for kind, d in ((pencil.mass, 0), (pencil.stiffness, 2))
            )
        )
        decomp = dense_decompose(system)
        w = decomp.eigenvalues
        lam_max = max(float(w[-1]), 1.0)
        min_rel = float(w[0] / lam_max)
        V = decomp.vectors
        (M,) = system.to_dense("M")
        ortho_gap = float(np.max(np.abs(V.T @ M @ V - np.eye(len(w)))))
        reference = bounded_spectrum(w, V.T, system.K, len(w), w[-1], dense=True)
        expected = expected_kernel(system)
        computed = {
            "symmetry_gap": sym_gap,
            "min_eigenvalue_rel": min_rel,
            "min_eigenvalue_bound": float(reference.bounds[0]),
            "orthonormality_gap": ortho_gap,
            "near_zero_count": reference.kernel,
            "expected_kernel": expected,
        }
        ok = (
            sym_gap == 0.0
            and reference.psd_ok
            and ortho_gap <= 1e-10
            and reference.kernel == expected
        )
        out.append(Check("spectral", name, {"case": name}, computed, 1e-10, ok))
    return out


def _resolvent_checks(cases):
    from .evolution import resolvent_solve

    samples = 20
    # the right-hand sides, fixed without a random generator: the Weyl
    # sequence frac(i sqrt(2)) - 1/2, i = 1, 2, ..., read on draw by draw
    drawn = 0
    out = []
    for name, system in cases:
        if system.params.gamma0 == 0.0:
            continue
        M, K = system.to_dense()
        # a mask, not np.setdiff1d, whose unique call imports numpy.ma
        free = np.zeros(system.mesh.n_dofs, dtype=bool)
        free[system.free] = True
        pinned = np.flatnonzero(~free)
        for lam in (0.5, 1.0, 10.0):
            A = lam * M + K
            # column k holds the free entries of the k-th draw of n_dofs
            # values.  np.delete leaves them row-major when it drops one
            # dof and column-major when it drops none; the bits of the
            # dense products M @ F follow that layout
            i = np.arange(drawn + 1, drawn + samples * system.mesh.n_dofs + 1)
            drawn = i[-1]
            draws = (np.modf(i * math.sqrt(2.0))[0] - 0.5).reshape(samples, -1)
            F = np.delete(draws, pinned, axis=1).T
            U = resolvent_solve(system, lam, F)
            B = M @ F
            R = A @ U - B
            worst = float(np.max(np.linalg.norm(R, axis=0) / np.linalg.norm(B, axis=0)))
            delta = min(lam, 1.0)
            w = _eigh(A - delta * M)
            lam_min = float(w[0])
            ok = worst <= 1e-10 and lam_min >= -1e-8 * max(abs(float(w[-1])), 1.0)
            out.append(
                Check(
                    "resolvent",
                    f"{name}_lam{lam}",
                    {"case": name, "lambda": lam, "samples": samples},
                    {"max_rel_residual": worst, "coercivity_min_eig": lam_min, "delta": delta},
                    1e-10,
                    ok,
                )
            )
    return out


def _hardy_checks():
    """Both nested integrals against the exact piecewise-power algebra;
    swapping the order of integration turns the right one into
    int_y0^1 (1 - t) / a(t) dt."""
    out = []
    for K in (1.0, 1.25, 1.5, 1.75):
        coeff = power_profile(0.0, K)
        y0 = 0.4
        left, right = hardy_bound(coeff, y0)
        exact_left = singular_moment(coeff, (0.0, y0), 1, -1)
        exact_right = singular_moment(coeff, (y0, 1.0), 0, -1) - singular_moment(
            coeff, (y0, 1.0), 1, -1
        )
        left_err = abs(left - exact_left) / exact_left
        right_err = abs(right - exact_right) / exact_right
        out.append(
            Check(
                "hardy",
                f"K{K}",
                {"K": K, "y0": y0},
                {"left": left, "right": right, "left_rel_err": left_err,
                 "right_rel_err": right_err},
                1e-12,
                left_err <= 1e-12 and right_err <= 1e-12,
            )
        )
    return out


def _linear_fit_checks():
    out = []
    exp_like = [1.0, 1.0, 0.5, 1.0 / 6.0, 1.0 / 24.0]
    for name, coeffs in (
        ("square", [0.0, 0.0, 1.0]),
        ("cube", [0.0, 0.0, 0.0, 1.0]),
        ("exp_surrogate", exp_like),
    ):
        fit = best_linear_fit(coeffs)
        ortho0, ortho1 = _moments(fit.residual_coeffs)
        ok = len(fit.zeros) >= 2 and abs(ortho0) <= 1e-12 and abs(ortho1) <= 1e-12
        computed = {
            "intercept": fit.intercept,
            "slope": fit.slope,
            "zeros": list(fit.zeros),
            "ortho_const": ortho0,
            "ortho_linear": ortho1,
        }
        if name == "square":
            ok = ok and abs(fit.slope - 1.0) <= 1e-14 and abs(fit.intercept + 1.0 / 6.0) <= 1e-14
        out.append(Check("linear_fit", name, {"coeffs": list(map(float, coeffs))}, computed, 1e-12, ok))
    return out


def _pointwise_checks():
    x0 = 0.5
    cases = [
        ("constant_k0_K1", power_profile(x0, 1.0), [1.0], 0),
        ("linear_k1_K1", power_profile(x0, 1.0), [0.0, 1.0], 1),
        ("curved_k2_K1", power_profile(x0, 1.0), [1.0, 1.0, 1.0], 2),
        ("curved_k2_K15", power_profile(x0, 1.5), [0.0, 0.0, 1.0], 2),
        ("zero_function", power_profile(x0, 1.0), [0.0], 0),
    ]
    out = []
    for name, coeff, u, k in cases:
        ratio = pointwise_sqrt_bound(u, coeff, k)
        ok = ratio <= 1.0 + 1e-8
        out.append(
            Check("pointwise", name, {"K": coeff.K, "k": k}, {"max_ratio": ratio}, 1e-8, ok)
        )
    return out


def _norm_equivalence_checks(mesh=None):
    """The ladder n = 8, 16, 32 at x0 = 1/2 for three coefficients, each
    level built once for all three: by the report's builder ``mesh``, or
    by one of the suite's own."""
    mesh = mesh or functools.cache(build_mesh)
    out = []
    for name, coeff in (
        ("weak_K05", power_profile(0.5, 0.5)),
        ("strong_K15", power_profile(0.5, 1.5)),
        ("nondegenerate", constant_profile(1.0, 0.5)),
    ):
        rep = norm_equivalence_report(coeff, n=8, refinements=2, mesh=mesh)
        ok = rep.nested_ok and all(math.isfinite(c) for c in rep.constants)
        out.append(
            Check(
                "norm_equivalence",
                name,
                {"K": coeff.K},
                {
                    "constants": list(rep.constants),
                    "element_counts": list(rep.element_counts),
                    "growth_factors": list(rep.growth_factors),
                },
                NESTED_REL_TOL,
                ok,
            )
        )
    return out


# suites that check the assembled systems of _case_matrix(); each takes
# the list of (name, system) pairs, built once per report
_ON_CASE_MATRIX = ("spectral", "resolvent")

SUITES = {
    "green": _green_checks,
    "spectral": _spectral_checks,
    "resolvent": _resolvent_checks,
    "hardy": _hardy_checks,
    "linear_fit": _linear_fit_checks,
    "pointwise": _pointwise_checks,
    "norm_equivalence": _norm_equivalence_checks,
}


def verification_report(suites=None):
    """Run the selected verification suites and gather a JSON-ready report."""
    selected = list(SUITES) if suites is None else list(suites)
    unknown = set(selected) - set(SUITES)
    if unknown:
        raise ValueError(f"unknown suites {sorted(unknown)}; known: {sorted(SUITES)}")
    # what the suites share lives as long as this report: the meshes, the
    # rules and Gram pair integrals they keep, the case-matrix systems and
    # the dense copies those keep
    mesh = functools.cache(build_mesh)
    cases = list(_case_matrix(mesh)) if set(_ON_CASE_MATRIX) & set(selected) else None
    # the case-matrix suites take the systems; norm_equivalence takes the
    # mesh builder, so that its n = 16 level is the case matrix's mesh
    args = {**dict.fromkeys(_ON_CASE_MATRIX, (cases,)), "norm_equivalence": (mesh,)}
    checks = []
    for suite in selected:
        checks.extend(SUITES[suite](*args.get(suite, ())))
    return {
        "suites": selected,
        "checks": [
            {
                "suite": c.suite,
                "name": c.name,
                "inputs": _jsonable(c.inputs),
                "computed": _jsonable(c.computed),
                "tolerance": c.tolerance,
                "pass": bool(c.passed),
            }
            for c in checks
        ],
        "all_pass": all(c.passed for c in checks),
    }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and math.isinf(obj):
        return "inf"
    return obj
