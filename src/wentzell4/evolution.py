"""Resolvent solves and time integration of M u' + K u = load(t).

The single implicit step is non-expansive in the M-norm whenever K is
positive semidefinite, which is the discrete counterpart of the contraction
property of the continuous solution operator.  Each step also records the
slack of the discrete energy inequality

    ||u+||_M^2 - ||u||_M^2 + 2 dt E(u+) - dt ||u+||_M^2 - dt ||h+||_M^2 <= 0

(E the energy quadratic form), whose time-summed version is the Gronwall
bound ``||u_m||^2 + 2 dt sum_{k<=m} E(u_k) <= e^{t_m} (||u_0||^2 + dt
sum_{k<=m} ||h_k||^2)``, checked at every step m by
:meth:`Trajectory.energy_bound_ok`.

Every matrix is read in the lower band storage of :mod:`forms`, so a step
costs O(n).  Linear systems are solved with a banded Cholesky
factorization after symmetric diagonal equilibration, plus one round of
iterative refinement: Hermite slope dofs scale like h^3 against h for
value dofs, and graded meshes would otherwise cost several digits in the
residual.  After that round the relative residual stalls near 1e-11, so
a second one buys nothing.  The refinement residual is formed in
longdouble from the band, summed in the order of the dense product, so
it equals the dense residual bit for bit.
"""
from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import Polynomial
from scipy.linalg import LinAlgError, cholesky_banded
from scipy.linalg.lapack import dpbtrs

from .coefficient import DegeneracyClass, DegenerateCoefficient, ParameterError, classify
from .discretization import (
    WeightKind,
    build_mesh,
    element_shape_values,
    hermite_basis,
    interpolate_poly,
)
from .forms import (
    PENCIL,
    AssembledSystem,
    OperatorForm,
    WentzellParams,
    assemble,
    band_congruence,
    band_matvec,
    row_band,
)

__all__ = [
    "NotCoerciveError",
    "Scheme",
    "EvolutionState",
    "Trajectory",
    "ProblemConfig",
    "TimeStepper",
    "resolvent_solve",
    "run",
    "Forcing",
    "ZeroForcing",
    "SeparableForcing",
    "WeakLoadForcing",
    "manufactured_divergence_forcing",
    "resolve_space_spec",
    "parse_forcing",
    "resolve_forcing",
    "initial_dofs",
    "SPACE_PRESETS",
    "CONTRACTION_TOL",
    "ENERGY_BOUND_TOL",
]

CONTRACTION_TOL = 1e-12
ENERGY_BOUND_TOL = 1e-8


class NotCoerciveError(ValueError):
    """The shifted system lambda*M + K is not positive definite."""


class Scheme(enum.Enum):
    IMPLICIT_EULER = "implicit_euler"
    CRANK_NICOLSON = "crank_nicolson"


class _BandedSPD:
    """Banded SPD solver with Jacobi equilibration and refinement; takes
    the matrix as a lower band (4, n)."""

    def __init__(self, ab):
        ab = np.asarray(ab, dtype=float)
        diag = ab[0]
        if np.any(diag <= 0.0) or not np.all(np.isfinite(diag)):
            raise LinAlgError("matrix has a nonpositive diagonal")
        self.dinv = 1.0 / np.sqrt(diag)
        self.factor = cholesky_banded(band_congruence(ab, self.dinv), lower=True)
        self._rows_ext = row_band(ab.astype(np.longdouble))

    def _solve_once(self, b):
        # LAPACK's banded Cholesky solve, as cho_solve_banded calls it but
        # without the wrapper's argument checks, which cost more than the
        # solve itself on small systems; solve() checks b once
        scale = self.dinv if b.ndim == 1 else self.dinv[:, None]
        y, info = dpbtrs(self.factor, scale * b, lower=1)
        if info:
            raise LinAlgError(f"dpbtrs argument {-info} is invalid")
        return scale * y

    def solve(self, b):
        """Solve A x = b (vectorized over trailing columns), with one
        round of refinement against the extended-precision residual: it
        recovers the digits the dof scaling h**3 vs h costs on graded
        meshes, and further rounds leave the residual where it is."""
        b = np.asarray(b, dtype=float)
        if not np.all(np.isfinite(b)):
            raise ValueError("array must not contain infs or NaNs")
        x = self._solve_once(b)
        r = (b.astype(np.longdouble) - band_matvec(self._rows_ext, x)).astype(float)
        return x + self._solve_once(r)


def _scatter(system, free_values):
    out = np.zeros((system.dofmap.total_dofs,) + free_values.shape[1:])
    out[system.free] = free_values
    return out


def resolvent_solve(system: AssembledSystem, lam, f):
    """Solve (lambda*M + K) u = M f.

    Valid for lambda above max(0, gamma0, gamma1); outside that range the
    shifted matrix may be indefinite and NotCoerciveError is raised when
    the factorization fails.
    """
    Mf, Kf = system.free_matrices()
    rhs = band_matvec(row_band(system.M), np.asarray(f, dtype=float))[system.free]
    try:
        solver = _BandedSPD(lam * Mf + Kf)
    except LinAlgError as exc:
        p = system.params
        bound = max(0.0, p.gamma0, p.gamma1)
        raise NotCoerciveError(
            f"lambda = {lam} leaves the coercivity range (> {bound}): {exc}"
        ) from exc
    return _scatter(system, solver.solve(rhs))


# ---------------------------------------------------------------------------
# forcing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimeProfile:
    """Separable time factor g(t): constant or exponential decay."""

    kind: str = "const"
    rate: float = 0.0

    def __call__(self, t):
        if self.kind == "const":
            return 1.0
        if self.kind == "exp":
            return math.exp(-self.rate * t)
        raise ValueError(f"unknown time profile {self.kind!r}")


class Forcing:
    """Right-hand side supplier: load(t) is the assembled vector added to
    the step equations, mass_norm_sq(t) the squared M-norm of its Riesz
    representer (used by the energy bookkeeping)."""

    is_zero = False

    def load(self, t):
        raise NotImplementedError

    def mass_norm_sq(self, t):
        raise NotImplementedError


class ZeroForcing(Forcing):
    is_zero = True

    def __init__(self, system):
        self._shape = system.dofmap.total_dofs

    def load(self, t):
        return np.zeros(self._shape)

    def mass_norm_sq(self, t):
        return 0.0


class SeparableForcing(Forcing):
    """h(t, x) = g(t) p(x) supplied through the Hermite interpolant of p;
    the load is g(t) * M p."""

    def __init__(self, system, profile: TimeProfile, space_dofs):
        self.profile = profile
        self.space_dofs = np.asarray(space_dofs, dtype=float)
        self._mp = band_matvec(row_band(system.M), self.space_dofs)
        self._norm_sq = float(self.space_dofs @ self._mp)

    def load(self, t):
        return self.profile(t) * self._mp

    def mass_norm_sq(self, t):
        return self.profile(t) ** 2 * self._norm_sq


class WeakLoadForcing(Forcing):
    """g(t) times a fixed assembled load vector.

    Used when the strong-form forcing is singular at x0 but its action on
    the test space is finite; the M-norm reported is that of the discrete
    Riesz representer M^{-1} load.
    """

    def __init__(self, system, profile: TimeProfile, load_vector):
        self.profile = profile
        self.load_vector = np.asarray(load_vector, dtype=float)
        Mf, _ = system.free_matrices()
        rep = _BandedSPD(Mf).solve(self.load_vector[system.free])
        self._norm_sq = float(rep @ self.load_vector[system.free])

    def load(self, t):
        return self.profile(t) * self.load_vector

    def mass_norm_sq(self, t):
        return self.profile(t) ** 2 * self._norm_sq


def _polynomial_load(system, coeffs, weight_kind, derivative):
    """Exact vector of weighted products of a polynomial with every basis
    function: entries int w(x) p^(d)(x) phi_i^(d)(x) dx."""
    p = Polynomial(np.asarray(coeffs, dtype=float)).deriv(derivative)
    npts = 8 if weight_kind is WeightKind.UNIT else None
    rule = system.rule(weight_kind, npoints=npts)
    phi, weights, points = element_shape_values(rule, derivative)
    local = ((weights * p(points))[:, None, :] @ phi)[:, 0, :]
    n_el = system.mesh.n_elements
    dofs = 2 * np.arange(n_el)[:, None] + np.arange(4)
    return np.bincount(
        dofs.ravel(), weights=local.ravel(), minlength=system.dofmap.total_dofs
    )


def manufactured_divergence_forcing(system, witness_coeffs, rate=1.0):
    """Forcing whose exact solution is exp(-rate*t) * w(x) for the
    divergence operator, assembled in weak form.

    The strong-form residual (a w'')'' - rate*w is singular at x0 for
    fractional exponents, so the load is built directly from the energy
    pairing: load_i = B(w, phi_i) - rate * <w, phi_i>_mu, all integrals
    exact for polynomial w.
    """
    if system.form is not OperatorForm.DIVERGENCE:
        raise ValueError("manufactured forcing preset targets the divergence form")
    w = np.asarray(witness_coeffs, dtype=float)
    pencil = PENCIL[system.form]
    mass_part = _polynomial_load(system, w, pencil.mass, 0)
    energy_part = _polynomial_load(system, w, pencil.stiffness, 2)
    ends = system.dofmap.end_dofs
    w_ends = Polynomial(w)(np.array([0.0, 1.0]))
    mass_part[ends] += np.multiply(system.point_mass, w_ends)
    energy_part[ends] += np.multiply(system.point_stiffness, w_ends)

    load = energy_part - rate * mass_part
    load[list(system.dofmap.constrained)] = 0.0
    return WeakLoadForcing(system, TimeProfile("exp", rate), load)


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvolutionState:
    """Time-stamped coefficient vector with cached norms."""

    t: float
    dofs: np.ndarray
    norm_mu_sq: float
    energy: float


def make_state(system, t, dofs):
    dofs = np.asarray(dofs, dtype=float)
    return EvolutionState(
        float(t), dofs, system.mass_norm_sq(dofs), system.energy(dofs)
    )


class TimeStepper:
    """One factorization per (system, dt, scheme); reused across steps."""

    def __init__(self, system, dt, scheme=Scheme.IMPLICIT_EULER):
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        self.system = system
        self.dt = float(dt)
        self.scheme = Scheme(scheme)
        Mf, Kf = system.free_matrices()
        if self.scheme is Scheme.IMPLICIT_EULER:
            self._solver = _BandedSPD(Mf + dt * Kf)
            self._rhs = row_band(Mf)
        else:
            self._solver = _BandedSPD(Mf + (0.5 * dt) * Kf)
            self._rhs = row_band(Mf - (0.5 * dt) * Kf)

    def step_free(self, u_free, load_now=None, load_next=None):
        """Advance free-dof coefficients; vectorized over trailing axes."""
        dt = self.dt
        rhs = band_matvec(self._rhs, u_free)
        if load_next is not None:
            if self.scheme is Scheme.IMPLICIT_EULER:
                rhs = rhs + dt * load_next
            else:
                rhs = rhs + 0.5 * dt * (load_now + load_next)
        return self._solver.solve(rhs)

    def step(self, state: EvolutionState, forcing: Forcing | None = None):
        forcing = forcing or ZeroForcing(self.system)
        free = self.system.free
        ln = None if forcing.is_zero else forcing.load(state.t)[free]
        lp = None if forcing.is_zero else forcing.load(state.t + self.dt)[free]
        u_next = _scatter(self.system, self.step_free(state.dofs[free], ln, lp))
        return make_state(self.system, state.t + self.dt, u_next)


def energy_slack(system, prev: EvolutionState, new: EvolutionState, dt, h_sq):
    """Slack of the per-step energy inequality (nonpositive for the
    implicit Euler scheme up to rounding)."""
    return (
        new.norm_mu_sq
        - prev.norm_mu_sq
        + 2.0 * dt * new.energy
        - dt * new.norm_mu_sq
        - dt * h_sq
    )


# ---------------------------------------------------------------------------
# problem configuration and runs
# ---------------------------------------------------------------------------

SPACE_PRESETS = {
    "one": (1.0,),
    "linear": (0.0, 1.0),
    "parabola": (0.0, 1.0, -1.0),
    "quartic_bump": (0.0, 0.0, 1.0, -2.0, 1.0),
    "bump_cubed": (0.0, 0.0, 0.0, 1.0, -3.0, 3.0, -1.0),
}


def resolve_space_spec(spec):
    """Polynomial coefficients from a preset name, {'poly': [...]} mapping
    or a bare coefficient sequence: a non-empty flat list of finite
    numbers."""
    if isinstance(spec, str):
        try:
            return np.asarray(SPACE_PRESETS[spec], dtype=float)
        except KeyError:
            raise ValueError(
                f"unknown preset {spec!r}; known: {sorted(SPACE_PRESETS)}"
            ) from None
    if isinstance(spec, dict):
        if set(spec) != {"poly"}:
            raise ValueError("space spec mapping must have exactly the key 'poly'")
        spec = spec["poly"]
    try:
        coeffs = np.asarray(spec)
        valid = (
            coeffs.ndim == 1
            and coeffs.size > 0
            and coeffs.dtype.kind in "iuf"
            and bool(np.all(np.isfinite(coeffs)))
        )
    except ValueError:  # ragged nesting
        valid = False
    if not valid:
        raise ValueError(
            "polynomial coefficients must be a non-empty list of finite numbers"
        )
    return coeffs.astype(float)


def parse_forcing(spec):
    """``(kind, space_coeffs, rate)`` from a forcing spec: None / 'zero' or
    {'kind': 'zero' | 'separable' | 'manufactured', 'space': ..., 'rate': r}.
    A bad entry of the mapping raises ParameterError naming its key."""
    if spec is None or spec == "zero":
        return "zero", None, 0.0
    if not isinstance(spec, dict):
        raise ValueError("forcing spec must be 'zero' or a mapping with 'kind'")
    extra = set(spec) - {"kind", "space", "rate"}
    if extra:
        raise ParameterError(sorted(extra)[0], "unknown key")
    kind = spec.get("kind")
    if kind not in ("zero", "separable", "manufactured"):
        raise ParameterError("kind", "must be 'zero', 'separable' or 'manufactured'")
    rate = spec.get("rate", 0.0)
    if isinstance(rate, bool) or not isinstance(rate, (int, float)):
        raise ParameterError("rate", "must be a number")
    default_space = "bump_cubed" if kind == "manufactured" else "one"
    try:
        coeffs = resolve_space_spec(spec.get("space", default_space))
    except ValueError as exc:
        raise ParameterError("space", str(exc)) from None
    return kind, coeffs, float(rate)


def resolve_forcing(system, spec) -> Forcing:
    """Forcing from a spec accepted by :func:`parse_forcing`."""
    kind, coeffs, rate = parse_forcing(spec)
    if kind == "separable":
        profile = TimeProfile("exp", rate) if rate != 0.0 else TimeProfile("const")
        return SeparableForcing(system, profile, interpolate_poly(system.dofmap, coeffs))
    if kind == "manufactured":
        return manufactured_divergence_forcing(system, coeffs, rate=rate or 1.0)
    return ZeroForcing(system)


def initial_dofs(system, spec, project=False):
    """Initial coefficients: Hermite interpolant of the polynomial spec,
    or its M-orthogonal projection when ``project`` is set."""
    coeffs = resolve_space_spec(spec)
    if not project:
        return interpolate_poly(system.dofmap, coeffs)
    load = _polynomial_load(system, coeffs, PENCIL[system.form].mass, 0)
    u_ends = Polynomial(coeffs)(np.array([0.0, 1.0]))
    load[system.dofmap.end_dofs] += np.multiply(system.point_mass, u_ends)
    Mf, _ = system.free_matrices()
    return _scatter(system, _BandedSPD(Mf).solve(load[system.free]))


@dataclass(frozen=True)
class ProblemConfig:
    """Everything defining one Cauchy problem run."""

    form: OperatorForm
    coeff: DegenerateCoefficient
    params: WentzellParams
    T: float
    dt: float | None = None
    n: int = 32
    grading: float | None = None
    scheme: Scheme = Scheme.IMPLICIT_EULER
    u0: object = "one"
    forcing: object = None
    project_u0: bool = False

    def __post_init__(self):
        if not self.T > 0.0:
            raise ParameterError("T", "must be > 0")
        if self.dt is not None and not 0.0 < self.dt <= self.T:
            raise ParameterError("dt", "must satisfy 0 < dt <= T")

    def resolved_dt(self):
        return self.dt if self.dt is not None else self.T / 100.0

    def resolved_grading(self):
        if self.grading is not None:
            return self.grading
        return 2.0 if classify(self.coeff) is DegeneracyClass.STRONG else 1.0


def build_system(config: ProblemConfig) -> AssembledSystem:
    mesh = build_mesh(config.n, config.coeff.x0, config.resolved_grading())
    return assemble(config.form, mesh, hermite_basis(mesh), config.coeff, config.params)


@dataclass
class Trajectory:
    """Recorded evolution with per-step energy-inequality slack.

    ``aborted`` carries the failure description when a step could not be
    completed; the recorded states end with the last valid one.
    """

    system: AssembledSystem
    scheme: Scheme
    dt: float
    states: list[EvolutionState] = field(default_factory=list)
    slacks: list[float] = field(default_factory=list)
    forcing_norm_sq: list[float] = field(default_factory=list)
    forced: bool = False
    aborted: str | None = None

    @property
    def sup_norm_sq(self):
        return max(s.norm_mu_sq for s in self.states)

    @property
    def energy_integral(self):
        """dt-weighted sum of twice the energy form over recorded steps."""
        return 2.0 * self.dt * sum(s.energy for s in self.states[1:])

    @property
    def final_state(self):
        return self.states[-1]

    def contraction_ok(self):
        """Non-expansiveness of every step; None when forcing is present."""
        if self.forced:
            return None
        norms = [s.norm_mu_sq for s in self.states]
        return all(
            b <= a * (1.0 + CONTRACTION_TOL) ** 2 for a, b in zip(norms, norms[1:])
        )

    def energy_bound_ok(self):
        """Gronwall bound at every recorded step m:

            ||u_m||^2 + 2 dt sum_{k<=m} E(u_k)
                <= e^{t_m} (||u_0||^2 + dt sum_{k<=m} ||h_k||^2).
        """
        norms = np.array([s.norm_mu_sq for s in self.states])
        t = np.array([s.t for s in self.states]) - self.states[0].t
        energy = np.cumsum([0.0] + [s.energy for s in self.states[1:]])
        forcing = np.cumsum([0.0] + self.forcing_norm_sq)
        lhs = norms + 2.0 * self.dt * energy
        rhs = np.exp(t) * (norms[0] + self.dt * forcing)
        return bool(np.all(lhs <= rhs * (1.0 + ENERGY_BOUND_TOL)))

    def write_csv(self, destination):
        rows = [("step", "t", "norm_mu_sq", "energy_form", "slack")]
        for i, s in enumerate(self.states):
            slack = self.slacks[i - 1] if i > 0 else 0.0
            rows.append(
                (
                    str(i),
                    format(s.t, ".17g"),
                    format(s.norm_mu_sq, ".17g"),
                    format(s.energy, ".17g"),
                    format(slack, ".17g"),
                )
            )
        if hasattr(destination, "write"):
            csv.writer(destination, lineterminator="\n").writerows(rows)
        else:
            with open(destination, "w", newline="") as fh:
                csv.writer(fh, lineterminator="\n").writerows(rows)

    def summary(self):
        return {
            "operator": self.system.form.value,
            "class": classify(self.system.coeff).value,
            "n": self.system.mesh.n_elements,
            "dt": self.dt,
            "T": self.states[-1].t,
            "final_norm_mu_sq": self.final_state.norm_mu_sq,
            "sup_norm_mu_sq": self.sup_norm_sq,
            "energy_integral": self.energy_integral,
            "contraction_ok": self.contraction_ok(),
            "energy_bound_ok": self.energy_bound_ok(),
            "aborted": self.aborted,
        }


def run(config: ProblemConfig, system=None) -> Trajectory:
    """Integrate the configured problem to its final time."""
    system = system or build_system(config)
    dt = config.resolved_dt()
    n_steps = max(1, round(config.T / dt))
    forcing = resolve_forcing(system, config.forcing)
    stepper = TimeStepper(system, dt, config.scheme)

    state = make_state(system, 0.0, initial_dofs(system, config.u0, config.project_u0))
    traj = Trajectory(system, stepper.scheme, dt, forced=not forcing.is_zero)
    traj.states.append(state)
    for _ in range(n_steps):
        try:
            new = stepper.step(state, forcing)
            if not math.isfinite(new.norm_mu_sq):
                raise ArithmeticError("step produced a non-finite state")
        except (ArithmeticError, ValueError, LinAlgError) as exc:
            traj.aborted = f"step from t = {state.t}: {exc}"
            break
        if stepper.scheme is Scheme.IMPLICIT_EULER:
            h_sq = forcing.mass_norm_sq(new.t)
        else:
            h_sq = 0.5 * (forcing.mass_norm_sq(state.t) + forcing.mass_norm_sq(new.t))
        traj.slacks.append(energy_slack(system, state, new, dt, h_sq))
        traj.forcing_norm_sq.append(h_sq)
        traj.states.append(new)
        state = new
    return traj
