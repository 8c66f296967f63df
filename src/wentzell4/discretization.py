"""Interval meshes, C1 cubic Hermite spaces, weighted quadrature.

The degeneracy point is always a mesh node, with equal elements on each
side of it, so the singular behaviour of the weights a and 1/a is
confined to the two adjacent elements.  There the quadrature weights are
moment-fitted against exact closed-form moments of the power-law
weight; any polynomial integrand up to the declared degree is then
integrated exactly, so assembled matrices carry no quadrature error.
Away from the degeneracy a high-order Gauss rule applied to the full
integrand is accurate to rounding.

Every element-wise quantity is one batched array with the element index
first.  A quadrature rule holds ``(n_elements, P)`` points and weights, P
the largest per-element point count; a row with fewer points (the
moment-fitted rows next to x0) is padded at its end with zero weights at
the element's left node, so a sum over a row is the sum over the
element's own points.

Every row maps one of at most three reference rules on [0, 1] onto its
element, so the basis is evaluated on the reference rules, never per
element: each reference rule has one cached shape table, computed with
h = 1, and the powers of the element lengths enter as column scales.
:func:`element_integrals` is the one path from a rule to element
integrals, for the Gram matrices and the loads alike.

What is derived from an object is kept on it, so that it is built once
for as long as the object lives and never outlives it: a mesh keeps the
rules :meth:`Mesh.rule` built on it (each by :func:`weighted_rule`),
and a rule keeps the pair integrals of each derivative order
(:meth:`QuadratureRule.pair_integrals`) that the Gram matrices and the
element blocks of :mod:`forms` both read, and the Gram bands
(:meth:`QuadratureRule.kept`).  Every kept array is read-only.
"""
from __future__ import annotations

import enum
import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .coefficient import ConfigError, DegeneracyClass, classify
from .powers import polyder, polyval

__all__ = [
    "Mesh",
    "WeightKind",
    "QuadratureRule",
    "check_interior",
    "build_mesh",
    "shape_values",
    "LOWER_PAIRS",
    "element_integrals",
    "evaluate",
    "interpolate_poly",
    "weighted_rule",
    "l2_error",
]


class WeightKind(enum.Enum):
    UNIT = "unit"
    COEFF_A = "coeff_a"
    COEFF_RECIP_A = "coeff_recip_a"


@dataclass(frozen=True)
class Mesh:
    """Nodes of [0, 1] with x0 at ``x0_index``, and the numbering of the
    C1 cubic Hermite dofs on them: node i holds the value dof 2i and the
    slope dof 2i + 1, so element e holds dofs 2e..2e+3."""

    nodes: np.ndarray
    x0_index: int
    _rules: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def rule(self, coeff, kind, npoints=None):
        """``weighted_rule(self, coeff, kind, npoints)``, built on the first
        request and kept with the mesh; the unit weight does not depend on
        the coefficient, so all coefficients share its rule.

        The rule is built on a copy of the mesh that shares its nodes and
        keeps no rules: a rule that referred back to this mesh would make
        a reference cycle, which only the garbage collector frees, long
        after the last user of the mesh is gone."""
        kind = WeightKind(kind)
        key = (None if kind is WeightKind.UNIT else coeff, kind, npoints)
        if key not in self._rules:
            self._rules[key] = weighted_rule(Mesh(self.nodes, self.x0_index), coeff, kind, npoints)
        return self._rules[key]

    @property
    def n_elements(self):
        return len(self.nodes) - 1

    @property
    def n_dofs(self):
        return 2 * len(self.nodes)

    @property
    def end_dofs(self):
        """Value dofs at x = 0 and x = 1, where the Wentzell point terms sit."""
        return [0, self.n_dofs - 2]

    def element_dofs(self):
        """The dofs of every element, (n_elements, 4): row e is 2e + (0, 1, 2, 3)."""
        return 2 * np.arange(self.n_elements)[:, None] + np.arange(4)

    @property
    def x0(self):
        return float(self.nodes[self.x0_index])

    def element(self, e):
        return float(self.nodes[e]), float(self.nodes[e + 1])

    def lengths(self):
        return np.diff(self.nodes)


def check_interior(x0):
    """Meshes, and so every discrete problem, need 0 < x0 < 1; the
    coefficient itself admits the end points."""
    if not 0.0 < x0 < 1.0:
        raise ConfigError("x0", f"must be interior, 0 < x0 < 1, got {x0}")


def build_mesh(n, x0) -> Mesh:
    """Mesh of ``n`` elements on [0, 1] with ``x0`` as an interior node and
    equal elements on each side of it, about ``n x0`` of them on the left.
    An ``n`` whose arrays cannot be allocated, or whose elements would
    round to zero length, raises ConfigError("n").
    """
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 2:
        raise ConfigError("n", "must be an integer >= 2")
    check_interior(x0)
    n = int(n)
    n_left = min(n - 1, max(1, round(n * x0)))
    n_right = n - n_left
    try:
        left = np.full(n_left, x0 / n_left)
        right = np.full(n_right, (1.0 - x0) / n_right)
        nodes = np.concatenate([[0.0], np.cumsum(left), x0 + np.cumsum(right)])
    except (MemoryError, ValueError) as exc:  # numpy refused an allocation
        raise ConfigError("n", f"{n} elements cannot be stored: {exc}") from None
    nodes[n_left] = x0
    nodes[-1] = 1.0
    if not np.all(np.diff(nodes) > 0.0):
        raise ConfigError("n", f"{n} elements leave some of zero length")
    nodes.setflags(write=False)
    return Mesh(nodes, n_left)


def shape_values(s, d=0):
    """Cubic Hermite shape functions on the reference element s in [0, 1]
    (h = 1): an (..., 4) array of value/slope at the left node and
    value/slope at the right node.  ``d`` is the derivative order, 0..3;
    :func:`_column_scales` brings in the length of an element.
    """
    s = np.asarray(s, dtype=float)
    one = np.ones_like(s)
    if d == 0:
        cols = [1.0 - 3.0 * s**2 + 2.0 * s**3, s - 2.0 * s**2 + s**3,
                3.0 * s**2 - 2.0 * s**3, s**3 - s**2]
    elif d == 1:
        cols = [6.0 * (s**2 - s), 1.0 - 4.0 * s + 3.0 * s**2,
                6.0 * (s - s**2), 3.0 * s**2 - 2.0 * s]
    elif d == 2:
        cols = [12.0 * s - 6.0, 6.0 * s - 4.0, 6.0 - 12.0 * s, 6.0 * s - 2.0]
    elif d == 3:
        cols = [12.0 * one, 6.0 * one, -12.0 * one, 6.0 * one]
    else:
        raise ValueError("derivative order must be 0..3")
    return np.stack(cols, axis=-1)


def evaluate(dofs, mesh: Mesh, x, d=0):
    """Value of the d-th derivative of the represented piecewise cubic at x
    (one-sided at element boundaries for d >= 2); ``dofs`` holds all
    ``mesh.n_dofs`` coefficients, else ValueError."""
    dofs = np.asarray(dofs, dtype=float)
    if dofs.shape[:1] != (mesh.n_dofs,):
        raise ValueError(f"coefficients of shape {dofs.shape} for {mesh.n_dofs} dofs")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    nodes = mesh.nodes
    idx = np.clip(np.searchsorted(nodes, x_arr, side="right") - 1, 0, len(nodes) - 2)
    xa = nodes[idx]
    h = nodes[idx + 1] - xa
    phi = shape_values((x_arr - xa) / h, d) * _column_scales(h, d)
    out = np.sum(phi * dofs[mesh.element_dofs()[idx]], axis=-1)
    return out if np.ndim(x) else float(out[0])


def interpolate_poly(mesh: Mesh, coeffs):
    """All dofs of the Hermite interpolant of a polynomial: nodal values
    and slopes."""
    nodes = mesh.nodes
    return np.column_stack([polyval(nodes, coeffs), polyval(nodes, polyder(coeffs))]).ravel()


@dataclass(frozen=True)
class QuadratureRule:
    """Points and weights of every element with the weight function folded
    into the weights, and the reference rule each row maps.

    ``points`` and ``weights`` are read-only (n_elements, P) arrays, P the
    largest per-element point count; a shorter row is padded at its end
    with zero weights at the element's left node.

    ``reference`` lists ``((npoints, reversed), rows)`` entries, ``rows`` a
    slice of consecutive rows that map the abscissae s = (xi + 1)/2 of the
    npoints-point Gauss rule, or with ``reversed`` 1 - s in ascending
    order.  Regular rows map the Gauss rule, the moment-fitted row right
    of x0 maps its nodes sigma (the Gauss abscissae of 8 - min_degree
    points) and the one left of x0 maps 1 - sigma.  Row e has its points
    at ``xa + h s`` and its reference shape values at s itself, which
    keeps the rounding of ``(x - xa) / h`` out of every integral.

    On the elements adjacent to the degeneracy the rule is moment-fitted
    and exact to polynomial degree 7 against the weight; elsewhere a
    high-order Gauss rule on the full integrand is accurate to rounding.
    For a strongly degenerate 1/a weight the guarantee holds for
    polynomials with a double zero at x0.
    """

    mesh: Mesh
    points: np.ndarray
    weights: np.ndarray
    reference: tuple
    _kept: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def kept(self, key, build):
        """``build(self)``, an array formed on the first request of ``key``
        and kept read-only with the rule."""
        if key not in self._kept:
            value = build(self)
            value.setflags(write=False)
            self._kept[key] = value
        return self._kept[key]

    def pair_integrals(self, d):
        """``element_integrals(self, self.weights, d, pairs=True)``: the 10
        lower entries of every element block of the d-th derivatives,
        (n_elements, 10), computed on the first request and kept read-only
        with the rule."""
        return self.kept(("pairs", d), lambda r: element_integrals(r, r.weights, d, pairs=True))


# The (row, column) pairs i >= j of a 4 x 4 element block, row by row: the
# order of the 10 entries element_integrals(..., pairs=True) returns.
LOWER_PAIRS = np.tril_indices(4)


@functools.cache
def _reference_table(key, width, d, pairs):
    """Shape table of the reference rule ``key`` = (npoints, reversed) on
    the element [0, 1] (h = 1): T = phi^(d)(s) of shape (width, 4), or with
    ``pairs`` its 10 lower products T_i T_j in LOWER_PAIRS order; s is
    padded with zeros to ``width``, where rows carry zero weights.
    Cached, hence read-only."""
    npoints, reversed_ = key
    sigma = 0.5 * (_gauss_legendre(npoints)[0] + 1.0)
    s = np.zeros(width)
    s[:npoints] = 1.0 - sigma[::-1] if reversed_ else sigma
    table = shape_values(s, d)
    if pairs:
        table = table[:, LOWER_PAIRS[0]] * table[:, LOWER_PAIRS[1]]
    table.setflags(write=False)
    return table


def _column_scales(h, d):
    """Factors c, (..., 4) for lengths h of shape (...), with phi^(d) on an
    element of length h equal to c times the reference phi^(d) of
    :func:`shape_values`: h^-d for the value columns and h^(1 - d) for the
    slope columns, powers of h as products.  The only place h enters the
    basis."""
    one = np.ones_like(h)
    if d == 0:
        value, slope = one, h
    elif d == 1:
        value, slope = 1.0 / h, one
    elif d == 2:
        value, slope = 1.0 / (h * h), 1.0 / h
    elif d == 3:
        value, slope = 1.0 / (h * h * h), 1.0 / (h * h)
    else:
        raise ValueError("derivative order must be 0..3")
    return np.stack([value, slope, value, slope], axis=-1)


def element_integrals(rule, weighted, d, pairs=False):
    """Integrals over every element of the d-th basis derivatives against
    ``weighted``, an (n_elements, P) array of the rule's weights times an
    integrand at its points: the rule's sums of ``weighted * phi_i^(d)``,
    (n_elements, 4), or with ``pairs`` of ``weighted * phi_i^(d) phi_j^(d)``
    for the 10 pairs i >= j of LOWER_PAIRS, (n_elements, 10).

    Each reference rule takes one matrix product of its rows of
    ``weighted`` with its shape table; the column scales c (c_i c_j for a
    pair) bring in the element lengths afterwards.  The product is stacked
    over the rows, (rows, 1, P) @ (P, k), which numpy evaluates row by
    row, so a row has the bits of its element computed alone: a 2-D
    product, blocked over rows by BLAS, does not keep them.
    """
    width = weighted.shape[1]
    out = np.empty((len(weighted), len(LOWER_PAIRS[0]) if pairs else 4))
    for key, rows in rule.reference:
        table = _reference_table(key, width, d, pairs)
        out[rows] = (weighted[rows, None, :] @ table)[:, 0]
    c = _column_scales(rule.mesh.lengths(), d)
    return out * (c[:, LOWER_PAIRS[0]] * c[:, LOWER_PAIRS[1]] if pairs else c)


_MAX_FIT_DEGREE = 7


@functools.lru_cache(maxsize=None)
def _shifted_legendre_coeffs(r):
    """Monomial coefficients of the Legendre polynomial P_r(2s - 1), the
    integers (-1)^(r+k) C(r, k) C(r+k, k); only r <= _MAX_FIT_DEGREE
    occurs.  Cached, hence read-only."""
    coef = np.array(
        [(-1) ** (r + k) * math.comb(r, k) * math.comb(r + k, k) for k in range(r + 1)], dtype=float
    )
    coef.setflags(write=False)
    return coef


# Gauss-Legendre rules on [-1, 1] for the only point counts the package
# uses: 4 and 16 (the default unit and weighted rules), 8 (loads and L2
# errors) and 6 and 8 (the moment fits, 8 - min_degree points).  Each
# row is a positive node and its weight, ascending; the rule is symmetric,
# so the negative half is the mirror image.  Every literal is the double
# nearest the node or weight computed with mpmath at 50 digits (roots of
# P_n by Newton's method, w = 2 / ((1 - x^2) P_n'(x)^2)); a table rather
# than scipy.special.roots_legendre, whose weights are off by up to 683
# ulp at 16 points, and so that no command loads scipy.special.
_GAUSS_LEGENDRE_HALVES = {
    4: (
        (0.33998104358485626, 0.6521451548625461),
        (0.8611363115940526, 0.34785484513745385),
    ),
    6: (
        (0.2386191860831969, 0.46791393457269104),
        (0.6612093864662645, 0.3607615730481386),
        (0.932469514203152, 0.17132449237917036),
    ),
    8: (
        (0.1834346424956498, 0.362683783378362),
        (0.525532409916329, 0.31370664587788727),
        (0.7966664774136267, 0.22238103445337448),
        (0.9602898564975363, 0.10122853629037626),
    ),
    16: (
        (0.09501250983763744, 0.1894506104550685),
        (0.2816035507792589, 0.18260341504492358),
        (0.45801677765722737, 0.16915651939500254),
        (0.6178762444026438, 0.14959598881657674),
        (0.755404408355003, 0.12462897125553388),
        (0.8656312023878318, 0.09515851168249279),
        (0.9445750230732326, 0.062253523938647894),
        (0.9894009349916499, 0.027152459411754096),
    ),
}


@functools.cache
def _gauss_legendre(npoints):
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1] for a
    tabulated point count, else ValueError.  Cached, hence read-only."""
    if npoints not in _GAUSS_LEGENDRE_HALVES:
        raise ValueError(
            f"no Gauss-Legendre rule of {npoints} points; "
            f"tabulated: {sorted(_GAUSS_LEGENDRE_HALVES)}"
        )
    half_nodes, half_weights = np.array(_GAUSS_LEGENDRE_HALVES[npoints]).T
    nodes = np.concatenate([-half_nodes[::-1], half_nodes])
    weights = np.concatenate([half_weights[::-1], half_weights])
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@functools.cache
def _moment_fit(min_degree):
    """Nodes sigma in [0, 1] of the moment fit of degrees min_degree to
    _MAX_FIT_DEGREE, its matrix, row r sigma**min_degree times the
    shifted Legendre polynomial r at sigma, and the monomial coefficients
    of those polynomials, row r zero-padded past degree r; none depends
    on the element.  Cached, hence read-only."""
    ncond = _MAX_FIT_DEGREE + 1 - min_degree
    sigma = 0.5 * (_gauss_legendre(ncond)[0] + 1.0)
    A = np.empty((ncond, ncond))
    C = np.zeros((ncond, ncond))
    for r in range(ncond):
        C[r, : r + 1] = _shifted_legendre_coeffs(r)
        A[r] = sigma**min_degree * polyval(sigma, _shifted_legendre_coeffs(r))
    for array in (sigma, A, C):
        array.setflags(write=False)
    return sigma, A, C


def _fitted_singular_rule(coeff, h, sign, min_degree):
    """Weights at the moment-fit nodes sigma (ascending) reproducing the
    exact moments of the power weight over an element of length h with x0
    at one end, sigma h the distance from x0."""
    p = sign * coeff.K
    _, A, C = _moment_fit(min_degree)
    # exact moments of sigma**j against the weight, sigma = d/h in [0, 1],
    # for j = min_degree..7; moments below min_degree may diverge (strong
    # reciprocal weight) and are never used by the fit
    scaled = coeff.scale**sign * float(h) ** (p + 1.0)
    moments = scaled / (np.arange(min_degree, _MAX_FIT_DEGREE + 1) + p + 1.0)
    # row r: the moment of shifted Legendre polynomial r, its terms added
    # left to right (the padding adds zeros)
    rhs = np.cumsum(C * moments, axis=1)[:, -1]
    return np.linalg.solve(A, rhs)


def weighted_rule(mesh, coeff, kind, npoints=None):
    """Quadrature rule for the weight 1 (UNIT), a (COEFF_A) or 1/a
    (COEFF_RECIP_A) on every element.

    On the two elements adjacent to x0 the rule is moment-fitted and exact
    for polynomial integrands of degree <= 7 against the power-law weight.
    For a strongly degenerate reciprocal weight it is fitted to the
    degrees 2..7 only: it integrates exactly the products that carry a
    (x - x0)**2 factor, those of a space whose value dof at x0 is pinned
    to zero, and no other integrand is finite.
    """
    kind = WeightKind(kind)
    n_gauss = npoints or (4 if kind is WeightKind.UNIT else 16)
    sign = -1 if kind is WeightKind.COEFF_RECIP_A else 1
    x, w = _gauss_rule(mesh, n_gauss)
    if kind is not WeightKind.UNIT:
        w = w * coeff(x) ** sign
    klass = classify(coeff)
    if kind is WeightKind.UNIT or klass is DegeneracyClass.NONDEGENERATE:
        return _read_only_rule(mesh, x, w, (((n_gauss, False), slice(0, mesh.n_elements)),))
    if abs(mesh.x0 - coeff.x0) > 1e-12:
        raise ValueError("mesh must place the degeneracy point on a node")
    strong_recip = kind is WeightKind.COEFF_RECIP_A and klass is DegeneracyClass.STRONG
    min_degree = 2 if strong_recip else 0
    ncond = _MAX_FIT_DEGREE + 1 - min_degree
    sigma = _moment_fit(min_degree)[0]
    # x0 is interior, so both neighbours exist; at n = 2 no row is regular
    left, right = mesh.x0_index - 1, mesh.x0_index
    regular = [r for r in (slice(0, left), slice(right + 1, mesh.n_elements)) if r.start < r.stop]
    # P is the largest per-element count; pad columns sit at the left node
    width = max(ncond, n_gauss if regular else 0)
    if width == n_gauss:
        points, weights = x, w
    else:
        points = np.repeat(mesh.nodes[:-1, None], width, axis=1)
        weights = np.zeros_like(points)
        for rows in regular:
            points[rows, :n_gauss], weights[rows, :n_gauss] = x[rows], w[rows]
    for e in (left, right):
        xa, xb = mesh.element(e)
        fitted = _fitted_singular_rule(coeff, xb - xa, sign, min_degree)
        points[e], weights[e] = xa, 0.0
        if e == left:  # sigma measured from x0 = xb, so ascending x reverses it
            points[e, :ncond], weights[e, :ncond] = xb - (xb - xa) * sigma[::-1], fitted[::-1]
        else:
            points[e, :ncond], weights[e, :ncond] = xa + (xb - xa) * sigma, fitted
    reference = tuple(((n_gauss, False), rows) for rows in regular) + (
        ((ncond, True), slice(left, left + 1)),
        ((ncond, False), slice(right, right + 1)),
    )
    return _read_only_rule(mesh, points, weights, reference)


def _read_only_rule(mesh, points, weights, reference):
    points.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(mesh, points, weights, reference)


def _gauss_rule(mesh, npoints):
    """Gauss points and weights of every element, (n_elements, npoints)."""
    xi, wi = _gauss_legendre(npoints)
    xa = mesh.nodes[:-1, None]
    h = mesh.lengths()[:, None]
    return xa + 0.5 * h * (xi + 1.0), 0.5 * h * wi


_L2_POINTS = 8


def l2_error(dofs, mesh, fn):
    """L2 distance between a represented function and a callable."""
    x, w = _gauss_rule(mesh, _L2_POINTS)
    diff = evaluate(dofs, mesh, x) - np.asarray(fn(x), dtype=float)
    return math.sqrt(float(np.sum(w * diff**2)))
