"""Resolvent solves and time integration of M u' + K u = load(t).

The forcing h of u_t + A u = h is one :class:`Forcing` record: its load
is ``exp(-rate t) * vector``, fixed in space and decaying in time.
Time steps use the theta-scheme

    M (u+ - u) + dt K (theta u+ + (1 - theta) u) = dt (theta l+ + (1 - theta) l),

with theta = 1 for implicit Euler and theta = 1/2 for Crank-Nicolson.
Both steps are non-expansive in the M-norm whenever K is positive
semidefinite, which is the discrete counterpart of the contraction
property of the continuous solution operator.  Each step also records
the slack of the discrete energy inequality

    ||u+||_M^2 - ||u||_M^2 + 2 dt E(u+) - dt ||u+||_M^2 - dt h_sq <= 0

(E the energy quadratic form, h_sq = theta ||h+||_M^2 + (1 - theta)
||h||_M^2), whose time-summed version is the Gronwall bound
``||u_m||^2 + 2 dt sum_{k<=m} E(u_k) <= e^{t_m} (||u_0||^2 + dt
sum_{k<=m} h_sq_k)``, checked at every step m by
:meth:`Trajectory.energy_bound_ok`.

A :class:`Trajectory` holds arrays, one row per recorded state.  The step
loop of :func:`run` only advances the free dofs, into one preallocated
array; the times, norms, energies and slacks of all steps are computed
after it, in one batched pass (:func:`make_state`) that keeps the
rounding of a step-by-step evaluation.

Every matrix is read in the lower band storage of :mod:`forms`, so a step
costs O(n); the banded Cholesky solver and its equilibration live there too.
A long run on a small mesh is the exception: :class:`TimeStepper` then
inverts its step matrix once and steps by a dense product.
"""
from __future__ import annotations

import enum
import functools
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial
from scipy.linalg import LinAlgError

from .coefficient import (
    ConfigError,
    DegenerateCoefficient,
    check_power_comparison,
    classify,
    is_finite_number,
    keyed,
    number,
    only_keys,
)
from .discretization import (
    WeightKind,
    build_mesh,
    check_interior,
    element_shape_values,
    interpolate_poly,
)
from .forms import (
    PENCIL,
    AssembledSystem,
    OperatorForm,
    WentzellParams,
    _BandedSPD,
    assemble,
    band_matvec,
    point_terms,
    row_band,
)

__all__ = [
    "Scheme",
    "Trajectory",
    "ProblemConfig",
    "TimeStepper",
    "resolvent_solve",
    "run",
    "solvable",
    "Forcing",
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


class Scheme(enum.Enum):
    IMPLICIT_EULER = "implicit_euler"
    CRANK_NICOLSON = "crank_nicolson"


@contextmanager
def solvable(key):
    """ConfigError on ``key`` for a solve of the block that fails in double
    precision: the one place a LinAlgError becomes a diagnostic."""
    try:
        yield
    except LinAlgError as exc:
        raise ConfigError(key, f"not solvable in double precision: {exc}") from None


def resolvent_solve(system: AssembledSystem, lam, f):
    """Solve (lambda*M + K) u = M f for free-dof f (vectorized over
    trailing columns).

    lambda*M + K is coercive for every lambda > 0, since beta_j > 0 and
    gamma_j <= 0; a factorization that fails in floating point all the
    same raises ConfigError("resolvent.lambda"), and a right-hand side
    M f that is not finite ConfigError("resolvent.f").
    """
    with solvable("resolvent.lambda"):
        solver = _BandedSPD(lam * system.M + system.K)
    with solvable("resolvent.f"):
        return solver.solve(band_matvec(row_band(system.M), f))


# ---------------------------------------------------------------------------
# forcing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Forcing:
    """The right-hand side h of u_t + A u = h, scaled in time by exp(-rate t).

    ``load(t)`` is the assembled vector ``exp(-rate t) * vector`` on the
    free dofs, added to the step equations; ``vector`` None means
    unforced.  ``norm_sq`` is the squared M-norm of the Riesz representer
    M^{-1} vector at t = 0, used by the energy bookkeeping.
    """

    rate: float
    vector: np.ndarray | None
    norm_sq: float

    def load(self, t):
        return math.exp(-self.rate * t) * self.vector

    def mass_norm_sq(self, t):
        """``norm_sq`` scaled to time t; inf where the square of the time
        factor passes the double range (the limit of the product)."""
        try:
            return math.exp(-self.rate * t) ** 2 * self.norm_sq
        except OverflowError:
            return math.inf if self.norm_sq else 0.0


UNFORCED = Forcing(0.0, None, 0.0)


def _polynomial_load(system, coeffs, weight_kind, derivative, end_terms):
    """Exact vector of weighted products of a polynomial p with every free
    basis function: entries int w(x) p^(d)(x) phi_i^(d)(x) dx, plus the
    Wentzell point terms c_j p(j) at the end dofs."""
    p = Polynomial(np.asarray(coeffs, dtype=float))
    rule = system.rule(weight_kind, npoints=8 if weight_kind is WeightKind.UNIT else None)
    phi, weights, points = element_shape_values(rule, derivative)
    local = ((weights * p.deriv(derivative)(points))[:, None, :] @ phi)[:, 0, :]
    mesh = system.mesh
    load = np.bincount(
        mesh.element_dofs().ravel(), weights=local.ravel(), minlength=mesh.n_dofs
    )
    load[mesh.end_dofs] += np.multiply(end_terms, p(np.array([0.0, 1.0])))
    return load[system.free]


def _require_divergence(form):
    if form is not OperatorForm.DIVERGENCE:
        raise ConfigError("kind", "manufactured forcing targets the divergence form")


def manufactured_divergence_forcing(system, witness_coeffs, rate=1.0):
    """Forcing whose exact solution is exp(-rate*t) * w(x) for the
    divergence operator, assembled in weak form.

    The strong-form residual (a w'')'' - rate*w is singular at x0 for
    fractional exponents, so the load is built directly from the energy
    pairing: load_i = B(w, phi_i) - rate * <w, phi_i>_mu, all integrals
    exact for polynomial w.  A load that is not finite gets the norm inf,
    without a solve.
    """
    _require_divergence(system.form)
    w = np.asarray(witness_coeffs, dtype=float)
    pencil = PENCIL[system.form]
    load = _polynomial_load(
        system, w, pencil.stiffness, 2, system.point_stiffness
    ) - rate * _polynomial_load(system, w, pencil.mass, 0, system.point_mass)
    if not np.isfinite(load).all():  # resolve_forcing refuses it on its norm
        return Forcing(rate, load, math.inf)
    return Forcing(rate, load, float(_BandedSPD(system.M).solve(load) @ load))


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------


_THETA = {Scheme.IMPLICIT_EULER: 1.0, Scheme.CRANK_NICOLSON: 0.5}

# A run of n_steps steps on m free dofs inverts its step matrix when
# m <= _DENSE_MAX_DOFS and n_steps >= _DENSE_MIN_STEPS_PER_DOF * m, read
# off bench/nsweep.py (BENCH_21.json; one core of a 2-vCPU x86-64 VM): a
# dense step costs 15 against 36 us for a refined banded one at 34 dofs
# and 33 against 84 us at 258; at up to 258 dofs the saving repays
# forming A^{-1} within 0.3 to 1.03 m steps, which 2 m steps cover.  At
# 514 dofs it takes 3.5 to 4.1 m steps, and at 1026 the dense step is 2
# to 2.7 times slower.
_DENSE_MAX_DOFS = 258
_DENSE_MIN_STEPS_PER_DOF = 2


class TimeStepper:
    """One factorization of the theta-scheme per (system, dt, scheme);
    reused across steps.

    A stepper told its step count ``n_steps`` forms the inverse of the
    step matrix A = M + theta dt K once, by the refined banded solve of
    the unit vectors, when A is small and the run long enough to repay
    it; each step is then one dense product of A^{-1} with the banded
    right-hand side.  Without ``n_steps`` every step is a refined banded
    solve.  A step matrix with an entry that is not finite raises
    ConfigError("time.dt"); a finite one without a Cholesky factor,
    LinAlgError.
    """

    def __init__(self, system, dt, scheme=Scheme.IMPLICIT_EULER, n_steps=None):
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        self.dt = float(dt)
        self.theta = _THETA[Scheme(scheme)]
        M, K = system.M, system.K
        lhs, rhs = M + (self.theta * dt) * K, M - ((1.0 - self.theta) * dt) * K
        with solvable("time.dt"):
            if not (np.isfinite(lhs).all() and np.isfinite(rhs).all()):
                raise LinAlgError(
                    "M + theta dt K or M - (1 - theta) dt K has an entry that is not finite"
                )
        self._solver = _BandedSPD(lhs)
        self._rhs = row_band(rhs)
        m = lhs.shape[1]
        self._inverse = None
        if (n_steps is not None and m <= _DENSE_MAX_DOFS
                and n_steps >= _DENSE_MIN_STEPS_PER_DOF * m):
            self._invert()

    def _invert(self):
        """Form A^{-1} by the refined banded solve of the unit vectors;
        every later step is one dense product with it."""
        self._inverse = self._solver.solve(np.eye(self._rhs.shape[1]))

    def step_free(self, u_free, load_now=None, load_next=None):
        """Advance free-dof coefficients; vectorized over trailing columns."""
        rhs = band_matvec(self._rhs, u_free)
        if load_next is not None:
            theta = self.theta
            rhs += self.dt * (theta * load_next + (1.0 - theta) * load_now)
        if self._inverse is None:
            return self._solver.solve(rhs)
        if not np.isfinite(rhs).all():
            raise LinAlgError("right-hand side is not finite")
        return self._inverse @ rhs


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
    numbers; else ConfigError with an empty key, the whole value."""
    if isinstance(spec, str):
        if spec not in SPACE_PRESETS:
            raise ConfigError("", f"unknown preset {spec!r}; known: {sorted(SPACE_PRESETS)}")
        spec = SPACE_PRESETS[spec]
    elif isinstance(spec, dict):
        if set(spec) != {"poly"}:
            raise ConfigError("", "space spec mapping must have exactly the key 'poly'")
        spec = spec["poly"]
    if not (isinstance(spec, (list, tuple, np.ndarray)) and len(spec) > 0
            and all(map(is_finite_number, spec))):
        raise ConfigError("", "polynomial coefficients must be a non-empty list of finite numbers")
    return np.array(spec, dtype=float)


def parse_forcing(spec):
    """``(kind, space_coeffs, rate)`` from a forcing spec: None / 'zero' or
    {'kind': 'zero' | 'separable' | 'manufactured', 'space': ..., 'rate': r}.
    The rate defaults to 1 for manufactured forcing and to 0 otherwise.  A
    bad spec raises ConfigError with its config key, ``forcing`` or
    ``forcing.<entry>``."""
    if spec is None or spec == "zero":
        return "zero", None, 0.0
    with keyed("forcing"):
        if not isinstance(spec, dict):
            raise ConfigError("", "must be 'zero' or an object with 'kind'")
        only_keys(spec, {"kind", "space", "rate"})
        kind = spec.get("kind")
        if kind not in ("zero", "separable", "manufactured"):
            raise ConfigError("kind", "must be 'zero', 'separable' or 'manufactured'")
        manufactured = kind == "manufactured"
        rate = number(spec, "rate", default=1.0 if manufactured else 0.0)
        with keyed("space"):
            coeffs = resolve_space_spec(spec.get("space", "bump_cubed" if manufactured else "one"))
    return kind, coeffs, rate


def resolve_forcing(system, spec) -> Forcing:
    """Forcing from a spec accepted by :func:`parse_forcing`; a load whose
    squared M-norm is not finite raises ConfigError("forcing.space")."""
    kind, coeffs, rate = parse_forcing(spec)
    if kind == "separable":
        p = initial_dofs(system, coeffs)
        mp = band_matvec(row_band(system.M), p)
        forcing = Forcing(rate, mp, float(p @ mp))
    elif kind == "manufactured":
        forcing = manufactured_divergence_forcing(system, coeffs, rate=rate)
    else:
        return UNFORCED
    if not math.isfinite(forcing.norm_sq):  # a load that is not finite has no finite norm
        raise ConfigError("forcing.space", "the squared M-norm of the load is not finite")
    return forcing


def initial_dofs(system, spec, project=False):
    """Initial free-dof coefficients: Hermite interpolant of the
    polynomial spec, or its M-orthogonal projection when ``project`` is
    set; a projection whose load is not finite raises ConfigError("u0")."""
    coeffs = resolve_space_spec(spec)
    if not project:
        return interpolate_poly(system.mesh, coeffs)[system.free]
    load = _polynomial_load(system, coeffs, PENCIL[system.form].mass, 0, system.point_mass)
    if not np.isfinite(load).all():
        raise ConfigError("u0", "the load of the projection is not finite")
    return _BandedSPD(system.M).solve(load)


@dataclass(frozen=True)
class ProblemConfig:
    """Everything defining one Cauchy problem run.  Construction checks
    each bound of the problem, the mesh included, and that a given dt
    divides T; it raises ConfigError on the config key at fault
    (``time.dt``, ``coefficient.K``, ...).  The mesh built by that
    check, ``n`` elements equal on each side of x0, is kept as
    :attr:`mesh`."""

    form: OperatorForm
    coeff: DegenerateCoefficient
    params: WentzellParams
    T: float
    dt: float | None = None
    n: int = 32
    scheme: Scheme = Scheme.IMPLICIT_EULER
    u0: object = "one"
    forcing: object = None
    project_u0: bool = False

    def __post_init__(self):
        with keyed("coefficient"):
            check_interior(self.coeff.x0)
            check_power_comparison(self.coeff)
        with keyed("wentzell"):
            point_terms(self.form, self.coeff, self.params)
        with keyed("time"):
            if not self.T > 0.0:
                raise ConfigError("T", "must be > 0")
            if self.dt is not None and not 0.0 < self.dt <= self.T:
                raise ConfigError("dt", "must satisfy 0 < dt <= T")
            if not self.resolved_dt() > 0.0:
                raise ConfigError("T", "the default step T/100 underflows to zero")
            if not math.isfinite(self.T / self.resolved_dt()):
                raise ConfigError("dt", "the step count T/dt is not finite")
            if self.dt is not None:
                end = max(1, round(self.T / self.dt)) * self.dt
                if not math.isclose(end, self.T, rel_tol=1e-12):
                    raise ConfigError("dt", f"must divide T: the steps end at {end}, not {self.T}")
        with keyed("u0"):
            resolve_space_spec(self.u0)
        if parse_forcing(self.forcing)[0] == "manufactured":
            with keyed("forcing"):
                _require_divergence(self.form)
        with keyed("mesh"):
            self.mesh  # built here once, or ConfigError

    @functools.cached_property
    def mesh(self):
        return build_mesh(self.n, self.coeff.x0)

    def resolved_dt(self):
        return self.dt if self.dt is not None else self.T / 100.0


def build_system(config: ProblemConfig) -> AssembledSystem:
    """The assembled system of ``config``; an M or K with an entry that is
    not finite raises ConfigError("coefficient")."""
    system = assemble(config.form, config.mesh, config.coeff, config.params)
    with solvable("coefficient"):
        if not (np.isfinite(system.M).all() and np.isfinite(system.K).all()):
            raise LinAlgError("M or K has an entry that is not finite")
    return system


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded evolution as arrays, one row per recorded state.

    ``times``, ``norm_mu_sq`` and ``energy`` have one entry per state and
    ``dofs`` one row of free-dof coefficients; ``slacks`` and
    ``forcing_norm_sq`` (the h_sq of each step) have one entry per step.
    ``aborted`` carries the failure description when a step could not be
    completed; the arrays end with the last valid state.
    """

    system: AssembledSystem
    scheme: Scheme
    dt: float
    times: np.ndarray
    dofs: np.ndarray
    norm_mu_sq: np.ndarray
    energy: np.ndarray
    slacks: np.ndarray
    forcing_norm_sq: np.ndarray
    forced: bool
    aborted: str | None

    @property
    def sup_norm_sq(self):
        return float(self.norm_mu_sq.max())

    @property
    def _energy_sums(self):
        """sum_{1<=k<=m} E(u_k) for every m, added left to right."""
        return np.cumsum(np.concatenate(([0.0], self.energy[1:])))

    @property
    def energy_integral(self):
        """dt-weighted sum of twice the energy form over recorded steps."""
        return 2.0 * self.dt * float(self._energy_sums[-1])

    def contraction_ok(self):
        """Non-expansiveness of every step; None when forcing is present."""
        if self.forced:
            return None
        norms = self.norm_mu_sq
        return bool(np.all(norms[1:] <= norms[:-1] * (1.0 + CONTRACTION_TOL) ** 2))

    def energy_bound_ok(self):
        """Gronwall bound at every recorded step m:

            ||u_m||^2 + 2 dt sum_{k<=m} E(u_k)
                <= e^{t_m} (||u_0||^2 + dt sum_{k<=m} ||h_k||^2).
        """
        norms = self.norm_mu_sq
        forcing = np.cumsum(np.concatenate(([0.0], self.forcing_norm_sq)))
        lhs = norms + 2.0 * self.dt * self._energy_sums
        rhs = np.exp(self.times - self.times[0]) * (norms[0] + self.dt * forcing)
        return bool(np.all(lhs <= rhs * (1.0 + ENERGY_BOUND_TOL)))

    def write_csv(self, destination):
        columns = (
            self.times.tolist(),
            self.norm_mu_sq.tolist(),
            self.energy.tolist(),
            [0.0] + self.slacks.tolist(),
        )
        text = "step,t,norm_mu_sq,energy_form,slack\n" + "".join(
            f"{i},{t:.17g},{norm:.17g},{energy:.17g},{slack:.17g}\n"
            for i, (t, norm, energy, slack) in enumerate(zip(*columns))
        )
        if hasattr(destination, "write"):
            destination.write(text)
        else:
            with open(destination, "w", newline="") as fh:
                fh.write(text)

    def summary(self):
        return {
            "operator": self.system.form.value,
            "class": classify(self.system.coeff).value,
            "n": self.system.mesh.n_elements,
            "dt": self.dt,
            "T": float(self.times[-1]),
            "final_norm_mu_sq": float(self.norm_mu_sq[-1]),
            "sup_norm_mu_sq": self.sup_norm_sq,
            "energy_integral": self.energy_integral,
            "contraction_ok": self.contraction_ok(),
            "energy_bound_ok": self.energy_bound_ok(),
            "aborted": self.aborted,
            "scheme": self.scheme.value,
        }


def make_state(system, scheme, dt, states, forcing=UNFORCED, aborted=None) -> Trajectory:
    """The trajectory of a run from its states at t = 0, dt, 2 dt, ...:
    the bookkeeping of every step in one batched pass after the step loop.

    ``states`` (states, n_free) holds the free dofs of each state.  Norms
    and energies are two stacked quadratic forms, each one call over all
    states that copies none of them.  Times are accumulated as ``t + dt``,
    and the slack of step k is

        ||u_k||^2 - ||u_{k-1}||^2 + 2 dt E(u_k) - dt ||u_k||^2 - dt h_sq_k,

    each sum formed left to right, so every value carries the rounding of
    a step-by-step evaluation.  A state whose squared M-norm or forcing
    norm is not finite (finite dofs and loads can overflow them) ends the
    trajectory at the state before it, with ``aborted`` saying so;
    otherwise ``aborted`` is kept.  An initial state whose squared M-norm
    is not finite raises ConfigError("u0") instead.
    """
    norm_mu_sq, energy = system.mass_norm_sq(states), system.energy(states)
    if not math.isfinite(norm_mu_sq[0]):
        raise ConfigError("u0", "the squared M-norm of the initial state is not finite")
    times = np.full(len(states), float(dt))
    times[0] = 0.0
    np.cumsum(times, out=times)
    if forcing.vector is None:
        h = np.zeros(len(times))
    else:
        h = np.array([forcing.mass_norm_sq(t) for t in times.tolist()])
    overflow = np.flatnonzero(~(np.isfinite(norm_mu_sq[1:]) & np.isfinite(h[1:])))
    if overflow.size:
        count = overflow[0] + 1
        if math.isfinite(norm_mu_sq[count]):
            reason = "the forcing norm is not finite"
        else:
            reason = "step produced a non-finite state"
        aborted = f"step from t = {float(times[count - 1])}: {reason}"
        states, times, h = states[:count], times[:count], h[:count]
        norm_mu_sq, energy = norm_mu_sq[:count], energy[:count]
    theta = _THETA[scheme]
    h_sq = theta * h[1:] + (1.0 - theta) * h[:-1]
    new = norm_mu_sq[1:]
    slacks = new - norm_mu_sq[:-1] + 2.0 * dt * energy[1:] - dt * new - dt * h_sq
    forced = forcing.vector is not None
    return Trajectory(
        system, scheme, dt, times, states, norm_mu_sq, energy, slacks, h_sq, forced, aborted
    )


def run(config: ProblemConfig) -> Trajectory:
    """Integrate the configured problem to its final time.

    The loop steps the free dofs into one preallocated array, a row per
    state, and does nothing else: it stops at the first step that raises,
    which includes the step after a non-finite state (its right-hand side
    is not finite), and :func:`make_state` does the bookkeeping of all
    steps once.  A finite step matrix without a Cholesky factor in double
    precision aborts the run at t = 0; a step count whose states cannot be
    allocated raises ConfigError("time.dt").
    """
    system = build_system(config)
    dt = config.resolved_dt()
    n_steps = max(1, round(config.T / dt))
    scheme = Scheme(config.scheme)
    with solvable("forcing"):
        forcing = resolve_forcing(system, config.forcing)
    with solvable("project_u0"):
        u0 = initial_dofs(system, config.u0, config.project_u0)
    forced = forcing.vector is not None
    try:
        u = np.empty((n_steps + 1, len(u0)))
    except (MemoryError, ValueError) as exc:
        raise ConfigError("time.dt", f"T/dt = {config.T / dt:.3g} steps: {exc}") from None
    u[0] = u0
    try:
        stepper = TimeStepper(system, dt, scheme, n_steps)
    except LinAlgError as exc:
        return make_state(system, scheme, dt, u[:1], forcing, f"step matrix at t = 0.0: {exc}")
    load_now = load_next = None
    t, count, aborted = 0.0, n_steps + 1, None
    for k in range(n_steps):
        try:
            if forced:
                load_now = forcing.load(t) if k == 0 else load_next
                load_next = forcing.load(t + dt)
            u[k + 1] = stepper.step_free(u[k], load_now, load_next)
        except (ArithmeticError, ValueError, LinAlgError) as exc:
            aborted = f"step from t = {t}: {exc}"
            count = k + 1
            break
        t += dt
    return make_state(system, scheme, dt, u[:count], forcing, aborted)
