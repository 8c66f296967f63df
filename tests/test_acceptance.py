"""Acceptance gate: one test per structural property, each at its stated
tolerance and time budget, printing one PASS/FAIL line per criterion.

The structural criteria are evaluated by the ``oracle`` suites behind
``wentzell4 verify``; the tests here assert on the report entries those
suites return and pin each entry's tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from wentzell4.coefficient import constant_profile, power_profile
from wentzell4.discretization import l2_error
from wentzell4.evolution import (
    CONTRACTION_TOL,
    ProblemConfig,
    Scheme,
    TimeStepper,
    resolve_space_spec,
    run,
)
from wentzell4.forms import OperatorForm, WentzellParams
from wentzell4.oracle import (
    dense_decompose,
    exact_propagator,
    verification_report,
)
from wentzell4.oracle import _case_matrix

D, ND = OperatorForm.DIVERGENCE, OperatorForm.NON_DIVERGENCE


@contextmanager
def criterion(number, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {number:2d} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE {number:2d} {name}: PASS ({elapsed:.2f} s / budget {budget_seconds} s)")
    assert elapsed < budget_seconds


def _suite(name):
    """Entries of one oracle suite; every one of them must pass."""
    checks = verification_report([name])["checks"]
    failed = [c["name"] for c in checks if not c["pass"]]
    assert not failed, failed
    return checks


def test_01_symmetry():
    with criterion(1, "symmetry of mass and energy matrices", 1.0):
        checks = _suite("spectral")
        assert len(checks) == 16
        assert {c["tolerance"] for c in checks} == {1e-10}
        for c in checks:
            assert c["computed"]["symmetry_gap"] == 0.0, c["name"]


def test_02_nonnegativity_and_kernels():
    with criterion(2, "non-negativity and kernel dimensions", 5.0):
        checks = _suite("spectral")
        assert {c["tolerance"] for c in checks} == {1e-10}
        for c in checks:
            # the kernel dimension is gated exactly for every case: the
            # space's, less one for each damped end
            computed = c["computed"]
            assert computed["near_zero_count"] == computed["expected_kernel"]
            assert (computed["expected_kernel"] == 0) == c["name"].endswith("_damped")


def test_03_contraction_semigroup():
    with criterion(3, "implicit Euler contraction, 100 random data x 200 steps", 30.0):
        rng = np.random.default_rng(123)
        bound = (1.0 + CONTRACTION_TOL) ** 2
        for name, system in _case_matrix():
            (M,) = system.to_dense("M")
            stepper = TimeStepper(system, 0.05, Scheme.IMPLICIT_EULER)
            U = rng.standard_normal((len(system.free), 100))
            norms = np.einsum("if,if->f", U, M @ U)
            for _ in range(200):
                U = stepper.step_free(U)
                new = np.einsum("if,if->f", U, M @ U)
                assert np.all(new <= norms * bound), name
                norms = new


def test_04_resolvent_surjectivity_and_coercivity():
    with criterion(4, "resolvent residuals and shifted coercivity", 10.0):
        checks = _suite("resolvent")
        assert len(checks) == 8 * 3  # damped cases x lambda in (0.5, 1, 10)
        assert {c["tolerance"] for c in checks} == {1e-10}
        assert min(c["inputs"]["samples"] for c in checks) >= 20


def test_05_green_identities():
    with criterion(5, "integration-by-parts battery incl. jump and one-sided", 1.0):
        checks = _suite("green")
        assert len(checks) >= 12
        names = [c["name"] for c in checks]
        assert any("jump" in n for n in names)
        assert any("x0_left" in n for n in names)
        assert any("x0_right" in n for n in names)
        for c in checks:
            terms = ("lhs", "boundary_first", "boundary_second", "jump", "rhs")
            scale = max(abs(c["computed"][t]) for t in terms)
            assert c["tolerance"] == 1e-11 * max(scale, 1e-30), c["name"]


ENERGY_CONFIGS = [
    ProblemConfig(D, power_profile(0.5, 0.5), WentzellParams(1, 1, 0, 0), T=1.0,
                  dt=0.01, n=12, u0="one", forcing={"kind": "separable", "space": "one"}),
    ProblemConfig(D, power_profile(0.5, 0.5), WentzellParams(1, 1, -1, -1), T=1.0,
                  dt=0.01, n=12, u0="quartic_bump",
                  forcing={"kind": "separable", "space": "linear", "rate": 1.0}),
    ProblemConfig(D, power_profile(0.5, 1.0), WentzellParams(2, 1, 0, -1), T=1.0,
                  dt=0.01, n=12, u0="bump_cubed",
                  forcing={"kind": "separable", "space": "one", "rate": 2.0}),
    ProblemConfig(D, power_profile(0.5, 1.5), WentzellParams(1, 1, -1, 0), T=1.0,
                  dt=0.02, n=12, u0="linear",
                  forcing={"kind": "separable", "space": "quartic_bump"}),
    ProblemConfig(D, constant_profile(1.0, 0.5), WentzellParams(1, 2, 0, 0), T=1.0,
                  dt=0.01, n=12, u0="parabola",
                  forcing={"kind": "separable", "space": "one", "rate": 0.5}),
    ProblemConfig(ND, power_profile(0.5, 0.5), WentzellParams(1, 1, 0, 0), T=1.0,
                  dt=0.01, n=12, u0="one", forcing={"kind": "separable", "space": "one"}),
    ProblemConfig(ND, power_profile(0.5, 0.5), WentzellParams(1, 1, -1, -1), T=1.0,
                  dt=0.01, n=12, u0="quartic_bump",
                  forcing={"kind": "separable", "space": "linear", "rate": 1.0}),
    ProblemConfig(ND, power_profile(0.5, 1.0), WentzellParams(1, 2, -1, -1), T=1.0,
                  dt=0.02, n=12, u0="bump_cubed",
                  forcing={"kind": "separable", "space": "quartic_bump", "rate": 1.0}),
    ProblemConfig(ND, power_profile(0.5, 1.5), WentzellParams(2, 2, 0, 0), T=1.0,
                  dt=0.01, n=12, u0="parabola",
                  forcing={"kind": "separable", "space": "one", "rate": 3.0}),
    ProblemConfig(ND, constant_profile(1.0, 0.5), WentzellParams(1, 1, 0, -1), T=1.0,
                  dt=0.01, n=12, u0="linear",
                  forcing={"kind": "separable", "space": "parabola"}),
]


def test_06_energy_estimate():
    with criterion(6, "discrete Gronwall bound with constant e^T", 20.0):
        assert len(ENERGY_CONFIGS) == 10
        for i, cfg in enumerate(ENERGY_CONFIGS):
            traj = run(cfg)
            assert traj.aborted is None, f"config {i}"
            assert traj.energy_bound_ok(), f"config {i}"


def _temporal_order(form, coeff, scheme):
    """Error at the final time against the spectral propagator over a
    five-point dt-halving sweep; returns the least-squares order."""
    from wentzell4.discretization import build_mesh
    from wentzell4.forms import assemble

    mesh = build_mesh(16, 0.5)
    system = assemble(form, mesh, coeff, WentzellParams(1, 1, -1, -1))
    decomp = dense_decompose(system)
    w = decomp.eigenvalues
    modes = np.nonzero(w > 1e-9 * w[-1])[0][:3]
    u0 = decomp.vectors[:, modes] @ np.array([1.0, 0.5, 0.25])
    T = 2.0 / w[modes[-1]]
    exact = exact_propagator(decomp, u0, T)
    errors = []
    steps = [10 * 2**k for k in range(5)]
    for n_steps in steps:
        stepper = TimeStepper(system, T / n_steps, scheme)
        u = u0
        for _ in range(n_steps):
            u = stepper.step_free(u)
        errors.append(math.sqrt(system.mass_norm_sq(u - exact)))
    return -np.polyfit(np.log(steps), np.log(errors), 1)[0]


def test_07_scheme_consistency_against_propagator():
    with criterion(7, "temporal orders vs spectral propagator", 20.0):
        for form, coeff in ((D, power_profile(0.5, 0.5)), (ND, power_profile(0.5, 1.5))):
            assert _temporal_order(form, coeff, Scheme.CRANK_NICOLSON) >= 1.8
            assert _temporal_order(form, coeff, Scheme.IMPLICIT_EULER) >= 0.9


def test_08_hardy_type_bound():
    with criterion(8, "nested reciprocal integrals, prototype closed form", 1.0):
        checks = _suite("hardy")
        assert [c["inputs"]["K"] for c in checks] == [1.0, 1.25, 1.5, 1.75]
        assert {c["tolerance"] for c in checks} == {1e-12}


def test_09_best_linear_fit():
    with criterion(9, "best linear fit: orthogonality and sign changes", 1.0):
        # the oracle also gates the square's slope and intercept at 1e-14
        checks = _suite("linear_fit")
        assert [c["name"] for c in checks] == ["square", "cube", "exp_surrogate"]
        assert {c["tolerance"] for c in checks} == {1e-12}


@pytest.mark.parametrize("K", [0.5, 1.0, 1.5, 1.9])
def test_10_manufactured_solution_convergence(K):
    with criterion(10, f"manufactured-solution spatial convergence, K = {K}", 60.0):
        witness = np.polynomial.Polynomial(resolve_space_spec("bump_cubed"))
        T = 0.25
        errors = []
        sizes = (8, 16, 32, 64)
        for n in sizes:
            cfg = ProblemConfig(
                D,
                power_profile(0.5, K),
                WentzellParams(1.0, 1.0, -1.0, -1.0),
                T=T,
                dt=T / (50 * (n // 8) ** 2),
                n=n,
                scheme=Scheme.CRANK_NICOLSON,
                u0="bump_cubed",
                forcing={"kind": "manufactured", "space": "bump_cubed", "rate": 1.0},
            )
            traj = run(cfg)
            errors.append(
                l2_error(
                    traj.system.expand(traj.dofs[-1]),
                    traj.system.mesh,
                    lambda x: math.exp(-T) * witness(x),
                )
            )
        errors = np.array(errors)
        assert np.all(np.diff(errors) < 0.0), errors
        order = -np.polyfit(np.log(sizes), np.log(errors), 1)[0]
        assert order >= 1.0, order


def test_11_pointwise_sqrt_bounds():
    with criterion(11, "pointwise square-root bounds", 1.0):
        checks = _suite("pointwise")
        assert len(checks) == 5
        assert {c["tolerance"] for c in checks} == {1e-8}
