import collections
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError

from wentzell4 import evolution
from wentzell4.coefficient import ConfigError, classify, power_profile
from wentzell4.discretization import build_mesh, l2_error
from wentzell4.evolution import (
    CONTRACTION_TOL,
    ENERGY_BOUND_TOL,
    ProblemConfig,
    Scheme,
    TimeStepper,
    build_system,
    initial_dofs,
    make_state,
    manufactured_divergence_forcing,
    parse_forcing,
    resolve_forcing,
    resolve_space_spec,
    resolvent_solve,
    run,
)
from wentzell4.forms import (
    AssembledSystem,
    OperatorForm,
    WentzellParams,
    _BandedSPD,
    assemble,
    band_matvec,
    band_quadratic,
)
from wentzell4.oracle import dense_decompose


@pytest.fixture(scope="module")
def neutral_system():
    mesh = build_mesh(16, 0.5)
    return assemble(
        OperatorForm.DIVERGENCE,
        mesh,
        power_profile(0.5, 0.5),
        WentzellParams(1.0, 1.0),
    )


def test_resolvent_constant_kernel(neutral_system):
    f = initial_dofs(neutral_system, [1.0])
    u = resolvent_solve(neutral_system, 2.0, f)
    np.testing.assert_allclose(u, 0.5 * f, atol=1e-10)


def test_resolvent_affine_kernel(neutral_system):
    f = initial_dofs(neutral_system, [0.0, 1.0])
    u = resolvent_solve(neutral_system, 1.0, f)
    np.testing.assert_allclose(u, f, atol=1e-10)


def test_resolvent_zero_rhs(neutral_system):
    u = resolvent_solve(neutral_system, 1.0, np.zeros(len(neutral_system.free)))
    assert np.array_equal(u, np.zeros_like(u))


def test_resolvent_identity_residual(neutral_system):
    rng = np.random.default_rng(11)
    M, K = neutral_system.to_dense()
    for lam in (0.5, 1.0, 10.0):
        f = rng.standard_normal(len(neutral_system.free))
        u = resolvent_solve(neutral_system, lam, f)
        b = M @ f
        res = np.linalg.norm((lam * M + K) @ u - b)
        assert res <= 1e-10 * np.linalg.norm(b)


def test_resolvent_not_coercive(neutral_system):
    decomp = dense_decompose(neutral_system)
    lam = -1.1 * float(decomp.eigenvalues[-1])
    with pytest.raises(ConfigError) as info:
        resolvent_solve(neutral_system, lam, initial_dofs(neutral_system, [1.0]))
    assert info.value.key == "resolvent.lambda"


def test_steady_state_both_schemes(neutral_system):
    u0 = initial_dofs(neutral_system, [1.0])
    for scheme in Scheme:
        new = TimeStepper(neutral_system, 0.05, scheme).step_free(u0)
        np.testing.assert_allclose(new, u0, atol=1e-11)


def test_single_step_contraction(neutral_system):
    rng = np.random.default_rng(5)
    stepper = TimeStepper(neutral_system, 0.02)
    for _ in range(10):
        u = rng.standard_normal(len(neutral_system.free))
        new = stepper.step_free(u)
        assert neutral_system.mass_norm_sq(new) <= neutral_system.mass_norm_sq(u) * (1.0 + 1e-12) ** 2


def test_modal_decay_single_step(neutral_system):
    decomp = dense_decompose(neutral_system)
    k = 4
    lam = float(decomp.eigenvalues[k])
    v = decomp.vectors[:, k]
    dt = 0.01
    new = TimeStepper(neutral_system, dt).step_free(v)
    np.testing.assert_allclose(new, v / (1.0 + dt * lam), rtol=1e-8, atol=1e-10)


def test_state_cached_norms_match_recomputation(neutral_system):
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((4, len(neutral_system.free)))
    traj = make_state(neutral_system, Scheme.IMPLICIT_EULER, 0.3, rows)
    for i, dofs in enumerate(rows):
        assert traj.norm_mu_sq[i] == pytest.approx(neutral_system.mass_norm_sq(dofs), rel=1e-12)
        assert traj.energy[i] == pytest.approx(neutral_system.energy(dofs), rel=1e-12)


def test_run_steady_state():
    cfg = ProblemConfig(
        OperatorForm.DIVERGENCE,
        power_profile(0.5, 0.5),
        WentzellParams(1.0, 1.0),
        T=1.0,
        dt=0.01,
        n=8,
        u0="one",
    )
    traj = run(cfg)
    one_norm = traj.norm_mu_sq[0]
    assert traj.sup_norm_sq == pytest.approx(one_norm, rel=1e-10)
    assert traj.contraction_ok() is True
    assert traj.energy_bound_ok() is True


def test_run_strict_decay_with_damping():
    cfg = ProblemConfig(
        OperatorForm.DIVERGENCE,
        power_profile(0.5, 0.5),
        WentzellParams(1.0, 1.0, -1.0, -1.0),
        T=0.5,
        dt=0.005,
        n=8,
        u0="one",
    )
    traj = run(cfg)
    norms = traj.norm_mu_sq.tolist()
    assert all(b < a for a, b in zip(norms, norms[1:]))
    assert max(traj.slacks) <= 1e-12 * norms[0]


def test_implicit_euler_slack_nonpositive_with_forcing():
    cfg = ProblemConfig(
        OperatorForm.NON_DIVERGENCE,
        power_profile(0.5, 1.5),
        WentzellParams(1.0, 2.0, -1.0, 0.0),
        T=0.5,
        dt=0.01,
        n=8,
        u0="quartic_bump",
        forcing={"kind": "separable", "space": "linear", "rate": 2.0},
    )
    traj = run(cfg)
    assert traj.forced and traj.contraction_ok() is None
    scale = max(traj.norm_mu_sq) + max(traj.forcing_norm_sq)
    assert max(traj.slacks) <= 1e-12 * scale
    assert traj.energy_bound_ok() is True


def test_trajectory_csv_format():
    cfg = ProblemConfig(
        OperatorForm.DIVERGENCE,
        power_profile(0.5, 0.5),
        WentzellParams(1.0, 1.0),
        T=0.05,
        dt=0.01,
        n=4,
        u0="linear",
    )
    traj = run(cfg)
    buf = io.StringIO()
    traj.write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "step,t,norm_mu_sq,energy_form,slack"
    assert len(lines) == len(traj.times) + 1
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 0.0


def test_resolve_space_spec_forms():
    np.testing.assert_allclose(resolve_space_spec("one"), [1.0])
    np.testing.assert_allclose(resolve_space_spec({"poly": [1, 2]}), [1.0, 2.0])
    np.testing.assert_allclose(resolve_space_spec([0, 1]), [0.0, 1.0])
    with pytest.raises(ValueError):
        resolve_space_spec("nope")
    with pytest.raises(ValueError):
        resolve_space_spec({"poly": [1], "extra": 2})


def test_resolve_forcing_validation(neutral_system):
    assert resolve_forcing(neutral_system, None).vector is None
    assert resolve_forcing(neutral_system, "zero").vector is None
    with pytest.raises(ValueError):
        resolve_forcing(neutral_system, {"kind": "separable", "bogus": 1})
    with pytest.raises(ValueError):
        resolve_forcing(neutral_system, {"kind": "wavelet"})


def test_separable_norm_is_the_riesz_norm(neutral_system):
    forcing = resolve_forcing(neutral_system, {"kind": "separable", "space": "parabola"})
    v = forcing.vector
    riesz = _BandedSPD(neutral_system.M).solve(v) @ v
    assert forcing.norm_sq == pytest.approx(riesz, rel=1e-12)


def test_constant_forcing_load_is_the_vector(neutral_system):
    forcing = resolve_forcing(neutral_system, {"kind": "separable", "rate": 0.0})
    for t in (0.0, 0.37, 5.0):
        assert forcing.load(t).tobytes() == forcing.vector.tobytes()
        assert forcing.mass_norm_sq(t) == forcing.norm_sq


def test_manufactured_rate_defaults_to_one_and_keeps_an_explicit_zero(neutral_system):
    assert resolve_forcing(neutral_system, {"kind": "manufactured"}).rate == 1.0
    assert resolve_forcing(neutral_system, {"kind": "manufactured", "rate": 0}).rate == 0.0
    assert resolve_forcing(neutral_system, {"kind": "separable"}).rate == 0.0


def test_manufactured_forcing_targets_divergence_only():
    mesh = build_mesh(8, 0.5)
    sys = assemble(
        OperatorForm.NON_DIVERGENCE,
        mesh,
        power_profile(0.5, 0.5),
        WentzellParams(1.0, 1.0),
    )
    with pytest.raises(ValueError):
        manufactured_divergence_forcing(sys, [0.0, 1.0])


def test_manufactured_solution_is_reproduced():
    # with the weak-form load the semidiscrete solution should track
    # exp(-t) w(x) up to discretization error
    w = resolve_space_spec("bump_cubed")
    cfg = ProblemConfig(
        OperatorForm.DIVERGENCE,
        power_profile(0.5, 0.5),
        WentzellParams(1.0, 1.0, -1.0, -1.0),
        T=0.2,
        dt=0.2 / 800,
        n=16,
        scheme=Scheme.CRANK_NICOLSON,
        u0="bump_cubed",
        forcing={"kind": "manufactured", "space": "bump_cubed", "rate": 1.0},
    )
    traj = run(cfg)
    wp = np.polynomial.Polynomial(w)
    err = l2_error(
        traj.system.expand(traj.dofs[-1]), traj.system.mesh, lambda x: math.exp(-0.2) * wp(x)
    )
    assert err < 2e-5


def test_run_aborts_with_last_valid_state(monkeypatch):
    import wentzell4.evolution as ev

    class ExplodingForcing(ev.Forcing):
        def load(self, t):
            if t > 0.045:
                raise ValueError("forcing preset exhausted")
            return super().load(t)

    monkeypatch.setattr(
        ev,
        "resolve_forcing",
        lambda system, spec: ExplodingForcing(0.0, np.zeros(len(system.free)), 0.0),
    )
    cfg = ProblemConfig(
        OperatorForm.DIVERGENCE,
        power_profile(0.5, 0.5),
        WentzellParams(1.0, 1.0),
        T=0.1,
        dt=0.01,
        n=4,
        u0="one",
        forcing={"kind": "separable", "space": "one"},
    )
    traj = ev.run(cfg)
    assert traj.aborted is not None and "forcing preset exhausted" in traj.aborted
    assert len(traj.times) == 5  # steps at t = 0.01 .. 0.04 succeeded
    assert math.isfinite(traj.norm_mu_sq[-1])


def test_run_ends_before_the_first_state_whose_norm_overflows():
    # exp(800 t) forcing: from t = 0.45 the dofs are finite but their
    # squared M-norm overflows; the loop stops at the next checked state,
    # and the bookkeeping cuts the trajectory back
    cfg = ProblemConfig(
        OperatorForm.DIVERGENCE,
        power_profile(0.5, 0.5),
        WentzellParams(1.0, 1.0),
        T=1.0,
        n=16,
        forcing={"kind": "separable", "space": "one", "rate": -800},
    )
    with np.errstate(all="ignore"):  # as the command line runs it
        traj = run(cfg)
    assert traj.aborted == "step from t = 0.4400000000000002: step produced a non-finite state"
    assert len(traj.times) == 45 and traj.times[-1] == 0.4400000000000002
    assert np.all(np.isfinite(traj.norm_mu_sq)) and np.all(np.isfinite(traj.dofs))


def _counted_calls(monkeypatch):
    """Count the calls of TimeStepper.propagator and .step_free, by name."""
    calls = collections.Counter()
    for name in ("propagator", "step_free"):

        def counted(self, *args, _method=getattr(TimeStepper, name), _name=name):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(TimeStepper, name, counted)
    return calls


def test_forced_run_stops_soon_after_the_norm_overflows(monkeypatch):
    # the run of the test above: the norm of state 45 overflows, its load
    # only at step 88; checking every 16th state stops the loop at 48
    calls = _counted_calls(monkeypatch)
    cfg = ProblemConfig(
        OperatorForm.DIVERGENCE, power_profile(0.5, 0.5), WentzellParams(1.0, 1.0), T=1.0, n=16,
        forcing={"kind": "separable", "space": "one", "rate": -800},
    )
    with np.errstate(all="ignore"):
        traj = run(cfg)
    assert traj.aborted == "step from t = 0.4400000000000002: step produced a non-finite state"
    assert len(traj.times) == 45
    assert dict(calls) == {"step_free": 48}


# (form, K, n, steps, forcing, free dofs, calls): at most _DENSE_MAX_DOFS
# = 258 free dofs and at least _DENSE_MIN_STEPS_PER_DOF = 2 steps per dof
_SELECTION_CASES = {
    "258-dofs-516-steps": (OperatorForm.DIVERGENCE, 0.5, 128, 516, None, 258, {"propagator": 1}),
    "258-dofs-515-steps": (OperatorForm.DIVERGENCE, 0.5, 128, 515, None, 258, {"step_free": 515}),
    "259-dofs-518-steps": (OperatorForm.NON_DIVERGENCE, 1.5, 129, 518, None, 259, {"step_free": 518}),
    # demo 03's forced run
    "forced-33-dofs-100-steps": (OperatorForm.NON_DIVERGENCE, 1.5, 16, 100,
                                 {"kind": "separable", "space": "one", "rate": 1.0}, 33,
                                 {"step_free": 100}),
}


@pytest.mark.parametrize(
    "form, K, n, steps, forcing, dofs, expected", _SELECTION_CASES.values(), ids=_SELECTION_CASES
)
def test_run_steps_by_the_propagator_only_long_unforced_runs_on_small_meshes(
    monkeypatch, form, K, n, steps, forcing, dofs, expected
):
    calls = _counted_calls(monkeypatch)
    cfg = ProblemConfig(
        form, power_profile(0.5, K), WentzellParams(1.0, 1.0, -1.0, -1.0), T=0.01 * steps,
        dt=0.01, n=n, u0={"poly": [0.0, 0.25, -1.25, 2.0, -1.0]}, forcing=forcing,
    )
    traj = run(cfg)
    assert len(traj.system.free) == dofs
    assert traj.aborted is None and len(traj.times) == steps + 1
    assert dict(calls) == expected
    assert _takes_propagator(cfg) == ("propagator" in expected)


def test_unforced_run_takes_no_norm_in_its_step_loop(monkeypatch):
    norms = []
    mass_norm_sq = AssembledSystem.mass_norm_sq

    def counted(self, u):
        norms.append(np.shape(u))
        return mass_norm_sq(self, u)

    monkeypatch.setattr(AssembledSystem, "mass_norm_sq", counted)
    cfg = ProblemConfig(
        OperatorForm.NON_DIVERGENCE, power_profile(0.5, 1.5), WentzellParams(1.0, 1.0), T=1.0,
        dt=0.01, n=16, u0="bump_cubed",
    )
    traj = run(cfg)
    assert _takes_propagator(cfg)
    assert norms == [traj.dofs.shape]  # make_state's one stacked call


def test_projection_initial_data(neutral_system):
    # projecting a representable function returns its interpolant
    u_interp = initial_dofs(neutral_system, [1.0, -2.0, 3.0, 0.5])
    u_proj = initial_dofs(neutral_system, [1.0, -2.0, 3.0, 0.5], project=True)
    np.testing.assert_allclose(u_proj, u_interp, rtol=1e-9, atol=1e-9)


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_contraction_random_initial_data(data):
    mesh = build_mesh(8, 0.5)
    sys = assemble(
        OperatorForm.DIVERGENCE,
        mesh,
        power_profile(0.5, 1.5),
        WentzellParams(1.0, 1.0, -1.0, -1.0),
    )
    u0 = np.array(
        data.draw(
            st.lists(
                st.floats(min_value=-10, max_value=10),
                min_size=len(sys.free),
                max_size=len(sys.free),
            )
        )
    )
    stepper = TimeStepper(sys, 0.03)
    u = u0
    for _ in range(5):
        new = stepper.step_free(u)
        assert sys.mass_norm_sq(new) <= sys.mass_norm_sq(u) * (1.0 + 1e-12) ** 2
        u = new


def _takes_propagator(config):
    """Whether run steps ``config`` by the propagator: unforced, at most
    _DENSE_MAX_DOFS free dofs and at least _DENSE_MIN_STEPS_PER_DOF steps
    per free dof."""
    m = len(build_system(config).free)
    steps = max(1, round(config.T / config.resolved_dt()))
    return (parse_forcing(config.forcing)[0] == "zero" and m <= evolution._DENSE_MAX_DOFS
            and steps >= evolution._DENSE_MIN_STEPS_PER_DOF * m)


def _step(config, stepper):
    """The step of the path run takes for ``config``: the propagator
    product or the banded step_free."""
    return stepper.propagator().dot if _takes_propagator(config) else stepper.step_free


def _reference_run(config):
    """The run as a per-step loop on the free dofs: one step of a stepper
    built as run builds it, on the path run takes, one band_quadratic per
    norm and energy and a scalar slack per step; the summary as sums over
    Python lists."""
    system = build_system(config)
    dt = config.resolved_dt()
    n_steps = max(1, round(config.T / dt))
    forcing = resolve_forcing(system, config.forcing)
    stepper = TimeStepper(system, dt, config.scheme)
    step = _step(config, stepper)
    theta = stepper.theta
    u = initial_dofs(system, config.u0, config.project_u0)
    t = 0.0
    times, norms, energies = [t], [band_quadratic(system.M, u)], [band_quadratic(system.K, u)]
    slacks, h_sqs = [], []
    for _ in range(n_steps):
        loads = ()
        if forcing.vector is not None:
            loads = (forcing.load(t), forcing.load(t + dt))
        new = step(u, *loads)
        t_new = t + dt
        norm, energy = band_quadratic(system.M, new), band_quadratic(system.K, new)
        h_sq = theta * forcing.mass_norm_sq(t_new) + (1.0 - theta) * forcing.mass_norm_sq(t)
        slacks.append(norm - norms[-1] + 2.0 * dt * energy - dt * norm - dt * h_sq)
        h_sqs.append(h_sq)
        times.append(t_new)
        norms.append(norm)
        energies.append(energy)
        u, t = new, t_new
    contraction = all(b <= a * (1.0 + CONTRACTION_TOL) ** 2 for a, b in zip(norms, norms[1:]))
    lhs = np.array(norms) + 2.0 * dt * np.cumsum([0.0] + energies[1:])
    rhs = np.exp(np.array(times) - times[0]) * (norms[0] + dt * np.cumsum([0.0] + h_sqs))
    summary = {
        "operator": config.form.value,
        "class": classify(config.coeff).value,
        "n": config.n,
        "dt": dt,
        "T": times[-1],
        "final_norm_mu_sq": norms[-1],
        "sup_norm_mu_sq": max(norms),
        "energy_integral": 2.0 * dt * sum(energies[1:]),
        "contraction_ok": None if forcing.vector is not None else contraction,
        "energy_bound_ok": bool(np.all(lhs <= rhs * (1.0 + ENERGY_BOUND_TOL))),
        "aborted": None,
        "scheme": Scheme(config.scheme).value,
    }
    return times, norms, energies, slacks, h_sqs, u, summary


_FORCING = st.one_of(
    st.none(),
    st.fixed_dictionaries({
        "kind": st.just("separable"),
        "space": st.sampled_from(["one", "linear", "parabola"]),
        "rate": st.sampled_from([0.0, 0.7, 2.0, -3.0]),
    }),
    st.fixed_dictionaries({"kind": st.just("manufactured"), "rate": st.sampled_from([0.0, 1.0])}),
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    form=st.sampled_from(list(OperatorForm)),
    K=st.sampled_from([0.5, 1.5]),
    scheme=st.sampled_from(list(Scheme)),
    forcing=_FORCING,
    project_u0=st.booleans(),
    n=st.integers(min_value=2, max_value=16),
    steps=st.integers(min_value=1, max_value=120),
    gamma=st.floats(min_value=-2.0, max_value=0.0),
    u0=st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=1, max_size=5),
)
# unforced, at least 2 steps per free dof: run steps by the propagator
@example(form=OperatorForm.NON_DIVERGENCE, K=1.5, scheme=Scheme.IMPLICIT_EULER,
         forcing=None, project_u0=False, n=4, steps=60, gamma=-1.0, u0=[0.5, -1.0, 0.3])
# fewer: every step is a banded solve
@example(form=OperatorForm.DIVERGENCE, K=0.5, scheme=Scheme.CRANK_NICOLSON,
         forcing=None, project_u0=True, n=16, steps=60, gamma=-0.5, u0=[1.0, 0.2])
def test_run_equals_the_per_step_loop_bit_for_bit(
    form, K, scheme, forcing, project_u0, n, steps, gamma, u0
):
    if forcing is not None and forcing["kind"] == "manufactured" and form is not OperatorForm.DIVERGENCE:
        forcing = None
    config = ProblemConfig(
        form, power_profile(0.4, K), WentzellParams(1.5, 0.7, gamma, 0.5 * gamma),
        T=0.02 * steps, dt=0.02, n=n, scheme=scheme, u0={"poly": u0},
        forcing=forcing, project_u0=project_u0,
    )
    traj = run(config)
    times, norms, energies, slacks, h_sqs, final, summary = _reference_run(config)
    assert traj.aborted is None
    assert traj.dofs.shape == (steps + 1, len(traj.system.free))
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.norm_mu_sq, norms)
    assert np.array_equal(traj.energy, energies)
    assert np.array_equal(traj.slacks, slacks)
    assert np.array_equal(traj.forcing_norm_sq, h_sqs)
    assert np.array_equal(traj.dofs[-1], final)
    assert traj.summary() == summary


def _step_free_run(config):
    """run as a loop of one step call per row on the path run takes, each
    result written into its row, with the aborts of that loop: the
    reference of the propagator path's in-place loop."""
    system = build_system(config)
    dt = config.resolved_dt()
    n_steps = max(1, round(config.T / dt))
    forcing = resolve_forcing(system, config.forcing)
    forced = forcing.vector is not None
    step = _step(config, TimeStepper(system, dt, config.scheme))
    u = np.empty((n_steps + 1, len(system.free)))
    u[0] = initial_dofs(system, config.u0, config.project_u0)
    loads = ()
    t, count, aborted = 0.0, n_steps + 1, None
    for k in range(n_steps):
        try:
            if forced:
                if k % evolution._OVERFLOW_CHECK_STEPS == 0 and not (
                    math.isfinite(system.mass_norm_sq(u[k]))
                    and math.isfinite(forcing.mass_norm_sq(t))
                ):
                    count = k + 1
                    break
                loads = (forcing.load(t) if k == 0 else loads[1], forcing.load(t + dt))
            u[k + 1] = step(u[k], *loads)
        except (ArithmeticError, ValueError, LinAlgError) as exc:
            aborted = f"step from t = {t}: {exc}"
            count = k + 1
            break
        t += dt
    return make_state(system, config.scheme, dt, u[:count], forcing, aborted)


def _assert_same_run(traj, reference):
    assert traj.aborted == reference.aborted
    for name in ("times", "dofs", "norm_mu_sq", "energy", "slacks", "forcing_norm_sq"):
        value, expected = getattr(traj, name), getattr(reference, name)
        assert value.shape == expected.shape and value.tobytes() == expected.tobytes(), name


def _propagator_config(form, K, scheme, n, steps, dt, u0=(0.3, -0.8, 0.5, 0.9)):
    config = ProblemConfig(
        form, power_profile(0.5, K), WentzellParams(1.3, 0.8, -0.4, 0.0), T=dt * steps, dt=dt,
        n=n, scheme=scheme, u0={"poly": list(u0)},
    )
    assert _takes_propagator(config)
    return config


@pytest.mark.parametrize(
    "form, K, scheme, n, steps, dt",
    [
        # march: strong non-divergence, implicit Euler, 65 free dofs
        (OperatorForm.NON_DIVERGENCE, 1.5, Scheme.IMPLICIT_EULER, 32, 2500, 4e-4),
        (OperatorForm.DIVERGENCE, 0.5, Scheme.CRANK_NICOLSON, 16, 80, 0.01),
    ],
    ids=["march", "divergence-crank_nicolson"],
)
def test_propagator_loop_keeps_the_bits_of_step_free(form, K, scheme, n, steps, dt):
    config = _propagator_config(form, K, scheme, n, steps, dt)
    traj = run(config)
    assert traj.aborted is None and len(traj.times) == steps + 1
    _assert_same_run(traj, _step_free_run(config))


def _growing_propagator(monkeypatch, factor):
    """Scale every propagator by ``factor``: unforced states that grow."""
    propagator = TimeStepper.propagator
    monkeypatch.setattr(TimeStepper, "propagator", lambda self: propagator(self) * factor)


@pytest.mark.parametrize("columns", [None, 1, 3])
def test_propagate_keeps_the_bits_of_matmul(columns):
    # np.dot makes the BLAS call np.matmul makes: the same bits for one
    # state or trailing columns, with inf and nan among the entries, and
    # written into a row of a larger array as the run loop does
    config = _propagator_config(OperatorForm.NON_DIVERGENCE, 1.5, Scheme.IMPLICIT_EULER, 32, 2500, 4e-4)
    S = TimeStepper(build_system(config), config.dt, config.scheme).propagator()
    rng = np.random.default_rng(7)
    shape = (len(S),) if columns is None else (len(S), columns)
    for special in (None, np.inf, -np.inf, np.nan):
        u = rng.standard_normal(shape)
        if special is not None:
            u[5] = special
        with np.errstate(invalid="ignore"):  # inf - inf in the sums
            expected = np.matmul(S, u)
            assert S.dot(u).tobytes() == expected.tobytes()
            rows = np.zeros((3,) + shape)
            row = rows[1]
            assert S.dot(u, row) is row
        assert row.tobytes() == expected.tobytes() and not rows[[0, 2]].any()


def test_propagator_loop_keeps_the_truncation_of_an_overflow(monkeypatch):
    # the states double every step: the squared M-norm overflows at
    # state 513, the dofs themselves about 500 steps later
    _growing_propagator(monkeypatch, 2.0)
    config = _propagator_config(
        OperatorForm.NON_DIVERGENCE, 1.5, Scheme.IMPLICIT_EULER, 16, 1200, 1.0 / 1200
    )
    with np.errstate(all="ignore"):
        traj, reference = run(config), _step_free_run(config)
    assert traj.aborted == "step from t = 0.42666666666666975: step produced a non-finite state"
    assert len(traj.times) == 513
    _assert_same_run(traj, reference)


def test_overflow_under_raised_fp_errors_ends_with_the_same_abort(monkeypatch):
    # the doubling run above under np.errstate(all="raise"): make_state
    # tests finiteness itself, so its overflowing norms and slacks raise
    # nothing and the run ends as it does with errors ignored
    _growing_propagator(monkeypatch, 2.0)
    config = _propagator_config(
        OperatorForm.NON_DIVERGENCE, 1.5, Scheme.IMPLICIT_EULER, 16, 1200, 1.0 / 1200
    )
    with np.errstate(all="ignore"):
        ignored = run(config)
    with np.errstate(all="raise"):
        traj = run(config)
    assert traj.aborted == "step from t = 0.42666666666666975: step produced a non-finite state"
    assert len(traj.times) == 513
    _assert_same_run(traj, ignored)


def test_propagator_step_that_raises_ends_the_run(monkeypatch):
    # one step multiplies by about 1e160: state 1 is near 1e150 and its
    # squared norm finite, and the product of step 1 overflows
    _growing_propagator(monkeypatch, 1e160)
    config = _propagator_config(
        OperatorForm.NON_DIVERGENCE, 1.5, Scheme.IMPLICIT_EULER, 16, 1200, 1.0 / 1200,
        u0=(1e-10, 1e-10, -1e-10),
    )
    with np.errstate(all="raise"):
        traj, reference = run(config), _step_free_run(config)
    assert traj.aborted == "step from t = 0.0008333333333333334: overflow encountered in dot"
    assert len(traj.times) == 2 and np.all(np.isfinite(traj.norm_mu_sq))
    _assert_same_run(traj, reference)


def _refined_norms(system, dt, scheme, u, steps):
    """Squared M-norms of a banded loop from u whose step solves
    A u+ = R u with R u in longdouble, refined three rounds: the
    reference of the dense path."""
    stepper = TimeStepper(system, dt, scheme)
    solver = stepper._solver
    rhs = stepper._rhs.astype(np.longdouble)
    norms = [system.mass_norm_sq(u)]
    for _ in range(steps):
        b = band_matvec(rhs, u)
        u = solver._solve_once(b.astype(float))
        for _ in range(3):
            u = u + solver._solve_once((b - band_matvec(solver.rows, u)).astype(float))
        norms.append(system.mass_norm_sq(u))
    return np.array(norms)


ND, D = OperatorForm.NON_DIVERGENCE, OperatorForm.DIVERGENCE
IE, CN = Scheme.IMPLICIT_EULER, Scheme.CRANK_NICOLSON


@pytest.mark.parametrize(
    "form, K, scheme, x0, beta0, beta1",
    # march's step matrix; x0 near an end: its condition number is 3e12,
    # not 3e5
    [pytest.param(ND, 1.5, IE, *case, id="-".join(map(str, case)))
     for case in [(0.5, 0.7, 1.9), (0.5, 1.6, 0.6), (1e-4, 0.7, 1.9), (1.0 - 1e-4, 1.6, 0.6)]]
    + [pytest.param(D, 0.5, CN, 0.5, 1.3, 0.8, id="divergence-crank_nicolson")],
)
def test_dense_steps_keep_the_norms_of_the_banded_loop(form, K, scheme, x0, beta0, beta1):
    # a run like the march benchmark: 65 or 66 free dofs and 2500 steps,
    # so run steps by the propagator
    steps = 2500
    config = ProblemConfig(
        form, power_profile(x0, K), WentzellParams(beta0, beta1), T=1.0, dt=1.0 / steps,
        n=32, scheme=scheme, u0={"poly": [0.3, -0.8, 0.5, 0.9]},
    )
    traj = run(config)
    system = traj.system
    assert _takes_propagator(config)
    assert traj.aborted is None
    norms = _refined_norms(system, config.dt, scheme, traj.dofs[0], steps)
    np.testing.assert_allclose(traj.norm_mu_sq, norms, rtol=1e-12, atol=0.0)
    assert traj.contraction_ok()
    # the bound reads Crank-Nicolson's energy at the step's end, not its
    # midpoint, and fails on this rough u0 whichever path steps
    assert traj.energy_bound_ok() or scheme is CN


# the benchmark's two step matrices: (K, dt) of evolve and of march
_GRID_CASES = {D: (0.5, 0.01), ND: (1.5, 4e-4)}


@pytest.mark.parametrize("gamma", [0.0, -1.0])
@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("form", list(OperatorForm))
@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_dense_path_is_as_near_the_refined_loop_as_the_banded_one(n, form, scheme, gamma):
    # both paths carry rounding noise, the dense product more per step
    # (it is not backward stable); on Crank-Nicolson the banded one
    # drifts more, through the rounding of R u.  Over 11 draws of beta
    # and u0 the ratio of the two distances reached 19 on implicit Euler
    # and 0.92 on Crank-Nicolson.
    K, dt = _GRID_CASES[form]

    def config(steps):
        return ProblemConfig(
            form, power_profile(0.5, K), WentzellParams(1.3, 0.8, gamma, gamma), T=dt * steps,
            dt=dt, n=n, scheme=scheme, u0={"poly": [0.3, -0.8, 0.5, 0.9]},
        )

    steps = 2 * len(build_system(config(1)).free) + 4
    traj = run(config(steps))
    system = traj.system
    assert _takes_propagator(config(steps))
    reference = _refined_norms(system, dt, scheme, traj.dofs[0], steps)
    banded_stepper = TimeStepper(system, dt, scheme)
    u = traj.dofs[0]
    banded = [system.mass_norm_sq(u)]
    for _ in range(steps):
        u = banded_stepper.step_free(u)
        banded.append(system.mass_norm_sq(u))

    def distance(norms):
        return float(np.max(np.abs(np.asarray(norms) - reference) / reference))

    dense_distance, banded_distance = distance(traj.norm_mu_sq), distance(banded)
    assert dense_distance <= max(5e-15, 32.0 * banded_distance)
    if scheme is CN:
        assert dense_distance <= max(5e-15, banded_distance)
