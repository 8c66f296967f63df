"""Assembly of the weighted inner-product and energy matrices.

For the divergence operator (a u'')'' the natural inner product is
L2(0, 1) plus boundary point masses a(j)/beta_j, and the energy form is
``int a u'' v'' - sum_j gamma_j/beta_j a(j) u(j) v(j)``.  For the
non-divergence operator a u'''' the inner product carries the weight 1/a
and masses 1/beta_j, and the energy form is ``int u'' v''`` with the same
boundary terms without the factor a(j).  The boundary conditions are
natural: no dof manipulation is needed, except that a strongly degenerate
non-divergence problem pins the value dof at x0 to zero.

Element contributions are accumulated in a fixed order and are exactly
symmetric, so M = M^T and K = K^T hold with no rounding gap.
"""
from __future__ import annotations

import enum
import io
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .coefficient import (
    DegeneracyClass,
    DegenerateCoefficient,
    ParameterError,
    check_power_comparison,
    classify,
)
from .discretization import (
    DofMap,
    Mesh,
    WeightKind,
    basis_row,
    constrain,
    shape_values,
    weighted_rule,
)
from .powers import DivergentIntegralError

__all__ = [
    "OperatorForm",
    "WentzellParams",
    "AssembledSystem",
    "assemble_divergence",
    "assemble_nondivergence",
    "assemble",
    "gram_matrix",
    "norm",
    "export_matrix",
    "load_matrix",
]


class OperatorForm(enum.Enum):
    DIVERGENCE = "divergence"
    NON_DIVERGENCE = "nondivergence"


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
                raise ParameterError(name, "must be > 0")
        for name in ("gamma0", "gamma1"):
            if not getattr(self, name) <= 0.0:
                raise ParameterError(name, "must be <= 0")


def gram_matrix(rule, dofmap: DofMap, d):
    """Weighted Gram matrix of the d-th basis derivatives.

    Element loops run in index order with a per-element einsum, so the
    result is exactly symmetric and runs are bit-identical.
    """
    n = dofmap.total_dofs
    G = np.zeros((n, n))
    mesh = dofmap.mesh
    for e in range(mesh.n_elements):
        pts = rule.points[e]
        if len(pts) == 0:
            continue
        xa, xb = mesh.element(e)
        h = xb - xa
        phi = shape_values((pts - xa) / h, h, d)
        # phi_i * phi_j is computed before the weight contraction so the
        # local block is exactly symmetric, not just up to rounding
        products = phi[:, :, None] * phi[:, None, :]
        local = np.einsum("p,pij->ij", rule.weights[e], products)
        ix = dofmap.element_dofs(e)
        G[np.ix_(ix, ix)] += local
    return G


@dataclass(eq=False)
class AssembledSystem:
    """Symmetric positive-definite inner-product matrix M, positive
    semidefinite energy matrix K, and the constraint metadata.

    Constrained rows/columns are zeroed with a unit mass diagonal; solvers
    and eigenproblems operate on the ``free`` submatrices.
    """

    form: OperatorForm
    mesh: Mesh
    dofmap: DofMap
    coeff: DegenerateCoefficient
    params: WentzellParams
    M: np.ndarray
    K: np.ndarray
    stiffness_interior: np.ndarray
    free: np.ndarray = field(init=False)

    def __post_init__(self):
        self.free = self.dofmap.free_dofs()
        for a in (self.M, self.K, self.stiffness_interior):
            a.setflags(write=False)

    @property
    def size(self):
        return len(self.free)

    @property
    def constrained_dofs(self):
        return tuple(sorted(self.dofmap.constrained))

    def free_matrices(self):
        ix = np.ix_(self.free, self.free)
        return self.M[ix], self.K[ix]

    def mass_norm_sq(self, dofs):
        return float(dofs @ self.M @ dofs)

    def energy(self, dofs):
        return float(dofs @ self.K @ dofs)

    # quadrature rules reused by norms and load assembly
    @cached_property
    def unit_rule(self):
        return weighted_rule(self.mesh, self.dofmap, self.coeff, WeightKind.UNIT)

    @cached_property
    def a_rule(self):
        return weighted_rule(self.mesh, self.dofmap, self.coeff, WeightKind.COEFF_A)

    @cached_property
    def recip_rule(self):
        return weighted_rule(
            self.mesh, self.dofmap, self.coeff, WeightKind.COEFF_RECIP_A
        )

    @cached_property
    def _gram_d0(self):
        return gram_matrix(self.unit_rule, self.dofmap, 0)

    @cached_property
    def _gram_d1(self):
        return gram_matrix(self.unit_rule, self.dofmap, 1)

    @cached_property
    def _gram_d2(self):
        return gram_matrix(self.unit_rule, self.dofmap, 2)

    @cached_property
    def _gram_d2_a(self):
        return gram_matrix(self.a_rule, self.dofmap, 2)

    @cached_property
    def _gram_d0_recip(self):
        return gram_matrix(self.recip_rule, self.dofmap, 0)


def _boundary_projectors(dofmap):
    e0 = basis_row(dofmap, 0.0)
    e1 = basis_row(dofmap, 1.0)
    return np.outer(e0, e0), np.outer(e1, e1)


def _apply_constraints(dofmap, *matrices, mass=None):
    for c in dofmap.constrained:
        for A in matrices:
            A[c, :] = 0.0
            A[:, c] = 0.0
        if mass is not None:
            mass[c, c] = 1.0


def _require_admissible(coeff):
    klass = classify(coeff)
    if klass is DegeneracyClass.STRONG:
        check = check_power_comparison(coeff, coeff.K)
        if not check:
            raise ValueError(
                "strong degeneracy needs a monotone power comparison with "
                f"exponent in [1, 2): {check.reason}"
            )
    return klass


def assemble_divergence(mesh, dofmap, coeff, params) -> AssembledSystem:
    """System for the operator (a u'')'' with dynamic boundary terms.

    M = mass + a(j)/beta_j point masses; K = int a u''v'' plus the
    boundary terms -gamma_j/beta_j a(j).  No essential constraints: the
    boundary conditions are recovered variationally.
    """
    if not 0.0 < coeff.x0 < 1.0:
        raise ValueError("interior degeneracy required: 0 < x0 < 1")
    _require_admissible(coeff)
    E0, E1 = _boundary_projectors(dofmap)
    a0, a1 = coeff.boundary_values()
    unit = weighted_rule(mesh, dofmap, coeff, WeightKind.UNIT)
    a_rule = weighted_rule(mesh, dofmap, coeff, WeightKind.COEFF_A)
    M = gram_matrix(unit, dofmap, 0) + (a0 / params.beta0) * E0
    M += (a1 / params.beta1) * E1
    S = gram_matrix(a_rule, dofmap, 2)
    K = S - (params.gamma0 / params.beta0) * a0 * E0
    K -= (params.gamma1 / params.beta1) * a1 * E1
    _apply_constraints(dofmap, M, K, S, mass=M)
    return AssembledSystem(
        OperatorForm.DIVERGENCE, mesh, dofmap, coeff, params, M, K, S
    )


def assemble_nondivergence(
    mesh, dofmap, coeff, params, constrain_strong=True
) -> AssembledSystem:
    """System for the operator a u'''' with dynamic boundary terms.

    M carries the weight 1/a plus masses 1/beta_j; K = int u''v'' plus the
    -gamma_j/beta_j boundary terms.  A strongly degenerate coefficient
    pins the value dof at x0 (functions vanish there), which is exactly
    what makes the 1/a mass integrals finite for exponents K < 2.
    """
    if not 0.0 < coeff.x0 < 1.0:
        raise ValueError("interior degeneracy required: 0 < x0 < 1")
    klass = _require_admissible(coeff)
    if klass is DegeneracyClass.STRONG:
        if not constrain_strong:
            raise DivergentIntegralError(
                "strong 1/a mass matrix requires the value constraint at x0"
            )
        dofmap = constrain(dofmap, [dofmap.value_dof(mesh.x0_index)])
    E0, E1 = _boundary_projectors(dofmap)
    unit = weighted_rule(mesh, dofmap, coeff, WeightKind.UNIT)
    recip = weighted_rule(mesh, dofmap, coeff, WeightKind.COEFF_RECIP_A)
    M = gram_matrix(recip, dofmap, 0) + E0 / params.beta0 + E1 / params.beta1
    S = gram_matrix(unit, dofmap, 2)
    K = S - (params.gamma0 / params.beta0) * E0
    K -= (params.gamma1 / params.beta1) * E1
    _apply_constraints(dofmap, M, K, S, mass=M)
    return AssembledSystem(
        OperatorForm.NON_DIVERGENCE, mesh, dofmap, coeff, params, M, K, S
    )


def assemble(form, mesh, dofmap, coeff, params) -> AssembledSystem:
    if OperatorForm(form) is OperatorForm.DIVERGENCE:
        return assemble_divergence(mesh, dofmap, coeff, params)
    return assemble_nondivergence(mesh, dofmap, coeff, params)


_NORM_KINDS = (
    "l2",
    "l2_recip_a",
    "mu",
    "mu_div",
    "mu_nondiv",
    "d1",
    "d2",
    "sqrt_a_d2",
    "h2_a",
    "h2_a_reduced",
    "h2_recip_a",
)


def norm(system: AssembledSystem, dofs, kind):
    """Weighted norms of a represented function.

    Kinds: plain "l2"; "l2_recip_a" (weight 1/a); "mu" (the measure norm
    matched to the operator form, with boundary masses; explicitly
    "mu_div"/"mu_nondiv"); seminorms "d1", "d2", "sqrt_a_d2"; composites
    "h2_a" (l2 + d1 + sqrt_a_d2), "h2_a_reduced" (l2 + sqrt_a_d2) and
    "h2_recip_a" (l2_recip_a + d1 + d2).

    Reciprocal-weight kinds in the strong class require the represented
    function to vanish at x0 (the constrained convention); otherwise the
    integral diverges and DivergentIntegralError is raised.
    """
    dofs = np.asarray(dofs, dtype=float)

    def quad(G):
        return float(dofs @ G @ dofs)

    def recip_sq():
        if classify(system.coeff) is DegeneracyClass.STRONG:
            x0_dof = system.dofmap.value_dof(system.mesh.x0_index)
            if dofs[x0_dof] != 0.0:
                raise DivergentIntegralError(
                    "1/a-weighted norm diverges unless the function vanishes at x0"
                )
        return quad(system._gram_d0_recip)

    p, c = system.params, system.coeff
    u0, u1 = dofs[system.dofmap.value_dof(0)], dofs[system.dofmap.value_dof(system.dofmap.n_nodes - 1)]
    a0, a1 = c.boundary_values()

    if kind == "l2":
        sq = quad(system._gram_d0)
    elif kind == "d1":
        sq = quad(system._gram_d1)
    elif kind == "d2":
        sq = quad(system._gram_d2)
    elif kind == "sqrt_a_d2":
        sq = quad(system._gram_d2_a)
    elif kind == "l2_recip_a":
        sq = recip_sq()
    elif kind == "mu":
        return norm(
            system,
            dofs,
            "mu_div" if system.form is OperatorForm.DIVERGENCE else "mu_nondiv",
        )
    elif kind == "mu_div":
        sq = quad(system._gram_d0) + a0 / p.beta0 * u0**2 + a1 / p.beta1 * u1**2
    elif kind == "mu_nondiv":
        sq = recip_sq() + u0**2 / p.beta0 + u1**2 / p.beta1
    elif kind == "h2_a":
        sq = quad(system._gram_d0) + quad(system._gram_d1) + quad(system._gram_d2_a)
    elif kind == "h2_a_reduced":
        sq = quad(system._gram_d0) + quad(system._gram_d2_a)
    elif kind == "h2_recip_a":
        sq = recip_sq() + quad(system._gram_d1) + quad(system._gram_d2)
    else:
        raise ValueError(f"unknown norm kind {kind!r}; expected one of {_NORM_KINDS}")
    return math.sqrt(max(sq, 0.0))


def export_matrix(matrix, destination):
    """Write a symmetric matrix as sorted (row, col, value) triplets.

    Format: comment header, one ``size bandwidth`` line, then one line per
    structurally nonzero lower-triangle entry (row >= col), row-major,
    values with 17 significant digits.
    """
    matrix = np.asarray(matrix)
    n = matrix.shape[0]
    rows, cols = np.nonzero(np.tril(matrix))
    band = int(np.max(rows - cols)) if len(rows) else 0
    buf = io.StringIO()
    buf.write("# symmetric banded matrix: lower-triangle row col value\n")
    buf.write(f"{n} {band}\n")
    for i, j in zip(rows, cols):
        buf.write(f"{i} {j} {matrix[i, j]:.17g}\n")
    text = buf.getvalue()
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w") as fh:
            fh.write(text)


def load_matrix(source):
    """Inverse of :func:`export_matrix`."""
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        with open(source) as fh:
            lines = fh.read().splitlines()
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    n = int(lines[0].split()[0])
    out = np.zeros((n, n))
    for ln in lines[1:]:
        i, j, v = ln.split()
        out[int(i), int(j)] = float(v)
        out[int(j), int(i)] = float(v)
    return out
