import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wentzell4.coefficient import power_profile
from wentzell4.discretization import build_mesh, hermite_basis, interpolate_poly, l2_error
from wentzell4.evolution import (
    NotCoerciveError,
    ProblemConfig,
    Scheme,
    TimeStepper,
    _BandedSPD,
    initial_dofs,
    make_state,
    manufactured_divergence_forcing,
    resolve_forcing,
    resolve_space_spec,
    resolvent_solve,
    run,
)
from wentzell4.forms import OperatorForm, WentzellParams, assemble
from wentzell4.oracle import dense_decompose


@pytest.fixture(scope="module")
def neutral_system():
    mesh = build_mesh(16, 0.5)
    return assemble(
        OperatorForm.DIVERGENCE,
        mesh,
        hermite_basis(mesh),
        power_profile(0.5, 0.5),
        WentzellParams(1.0, 1.0),
    )


def test_resolvent_constant_kernel(neutral_system):
    f = interpolate_poly(neutral_system.dofmap, [1.0])
    u = resolvent_solve(neutral_system, 2.0, f)
    np.testing.assert_allclose(u, 0.5 * f, atol=1e-10)


def test_resolvent_affine_kernel(neutral_system):
    f = interpolate_poly(neutral_system.dofmap, [0.0, 1.0])
    u = resolvent_solve(neutral_system, 1.0, f)
    np.testing.assert_allclose(u, f, atol=1e-10)


def test_resolvent_zero_rhs(neutral_system):
    u = resolvent_solve(neutral_system, 1.0, np.zeros(neutral_system.dofmap.total_dofs))
    assert np.array_equal(u, np.zeros_like(u))


def test_resolvent_identity_residual(neutral_system):
    rng = np.random.default_rng(11)
    M, _ = neutral_system.to_dense()
    Mf, Kf = neutral_system.to_dense(free=True)
    for lam in (0.5, 1.0, 10.0):
        f = rng.standard_normal(neutral_system.dofmap.total_dofs)
        u = resolvent_solve(neutral_system, lam, f)
        b = (M @ f)[neutral_system.free]
        res = np.linalg.norm((lam * Mf + Kf) @ u[neutral_system.free] - b)
        assert res <= 1e-10 * np.linalg.norm(b)


def test_resolvent_not_coercive(neutral_system):
    decomp = dense_decompose(neutral_system)
    lam = -1.1 * float(decomp.eigenvalues[-1])
    with pytest.raises(NotCoerciveError):
        resolvent_solve(neutral_system, lam, interpolate_poly(neutral_system.dofmap, [1.0]))


def test_steady_state_both_schemes(neutral_system):
    u0 = interpolate_poly(neutral_system.dofmap, [1.0])
    state = make_state(neutral_system, 0.0, u0)
    for scheme in Scheme:
        new = TimeStepper(neutral_system, 0.05, scheme).step(state)
        np.testing.assert_allclose(new.dofs, u0, atol=1e-11)


def test_single_step_contraction(neutral_system):
    rng = np.random.default_rng(5)
    stepper = TimeStepper(neutral_system, 0.02)
    for _ in range(10):
        state = make_state(neutral_system, 0.0, rng.standard_normal(neutral_system.dofmap.total_dofs))
        new = stepper.step(state)
        assert new.norm_mu_sq <= state.norm_mu_sq * (1.0 + 1e-12) ** 2


def test_modal_decay_single_step(neutral_system):
    decomp = dense_decompose(neutral_system)
    k = 4
    lam = float(decomp.eigenvalues[k])
    v = decomp.vectors[:, k]
    dt = 0.01
    new = TimeStepper(neutral_system, dt).step(make_state(neutral_system, 0.0, v))
    np.testing.assert_allclose(new.dofs, v / (1.0 + dt * lam), rtol=1e-8, atol=1e-10)


def test_state_cached_norms_match_recomputation(neutral_system):
    rng = np.random.default_rng(3)
    dofs = rng.standard_normal(neutral_system.dofmap.total_dofs)
    s = make_state(neutral_system, 0.3, dofs)
    assert s.norm_mu_sq == pytest.approx(neutral_system.mass_norm_sq(dofs), rel=1e-12)
    assert s.energy == pytest.approx(neutral_system.energy(dofs), rel=1e-12)


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
    one_norm = traj.states[0].norm_mu_sq
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
    norms = [s.norm_mu_sq for s in traj.states]
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
    scale = max(s.norm_mu_sq for s in traj.states) + max(traj.forcing_norm_sq)
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
    assert len(lines) == len(traj.states) + 1
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
    Mf, _ = neutral_system.free_matrices()
    v = forcing.vector[neutral_system.free]
    riesz = _BandedSPD(Mf).solve(v) @ v
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
        hermite_basis(mesh),
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
        traj.final_state.dofs, traj.system.dofmap, lambda x: math.exp(-0.2) * wp(x)
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
        lambda system, spec: ExplodingForcing(0.0, np.zeros(system.dofmap.total_dofs), 0.0),
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
    assert len(traj.states) == 5  # steps at t = 0.01 .. 0.04 succeeded
    assert math.isfinite(traj.final_state.norm_mu_sq)


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
        hermite_basis(mesh),
        power_profile(0.5, 1.5),
        WentzellParams(1.0, 1.0, -1.0, -1.0),
    )
    u0 = np.array(
        data.draw(
            st.lists(
                st.floats(min_value=-10, max_value=10),
                min_size=sys.dofmap.total_dofs,
                max_size=sys.dofmap.total_dofs,
            )
        )
    )
    stepper = TimeStepper(sys, 0.03)
    state = make_state(sys, 0.0, u0)
    for _ in range(5):
        new = stepper.step(state)
        assert new.norm_mu_sq <= state.norm_mu_sq * (1.0 + 1e-12) ** 2
        state = new
