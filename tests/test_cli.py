import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import wentzell4
from wentzell4.cli import ConfigError, dispatch, main, parse_config
from wentzell4.evolution import Scheme, build_system
from wentzell4.forms import AssembledSystem, OperatorForm
from wentzell4.oracle import BANDED_EIGENVALUE_GAP_TOL, dense_decompose, near_zero_count, psd_ok

BASE = {
    "operator": "divergence",
    "coefficient": {"x0": 0.5, "K": 0.5},
    "wentzell": {"beta0": 1, "beta1": 1, "gamma0": 0, "gamma1": 0},
    "time": {"T": 1.0},
}


def cfg(**overrides):
    doc = json.loads(json.dumps(BASE))
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(doc.get(key), dict):
            doc[key].update(value)
        else:
            doc[key] = value
    return json.dumps(doc)


def test_parse_minimal_config_defaults():
    c = parse_config(cfg())
    assert c.problem.form is OperatorForm.DIVERGENCE
    assert c.problem.n == 32
    assert c.problem.scheme is Scheme.IMPLICIT_EULER
    assert c.problem.resolved_dt() == pytest.approx(0.01)


def test_parse_rejects_positive_gamma():
    with pytest.raises(ConfigError) as err:
        parse_config(cfg(wentzell={"gamma0": 0.5}))
    assert err.value.key == "wentzell.gamma0"


def test_parse_rejects_strong_exponent_out_of_range():
    with pytest.raises(ConfigError) as err:
        parse_config(cfg(operator="nondivergence", coefficient={"K": 2.5}))
    assert err.value.key == "coefficient.K"


def test_parse_rejects_unknown_keys():
    with pytest.raises(ConfigError) as err:
        parse_config(cfg(extra=1))
    assert err.value.key == "extra"
    with pytest.raises(ConfigError) as err:
        parse_config(cfg(mesh={"n": 8, "spacing": "log"}))
    assert err.value.key == "mesh.spacing"


def test_parse_rejects_malformed_numbers_and_json():
    with pytest.raises(ConfigError):
        parse_config(cfg(time={"T": "soon"}))
    with pytest.raises(ConfigError):
        parse_config("{not json")
    with pytest.raises(ConfigError):
        parse_config(cfg(time={"T": 1.0, "dt": 2.0}))
    with pytest.raises(ConfigError):
        parse_config(cfg(mesh={"n": 1}))


def test_parse_validates_subcommand_sections():
    c = parse_config(cfg(verify={"suites": ["green", "hardy"]}))
    assert c.verify_suites == ("green", "hardy")
    with pytest.raises(ConfigError):
        parse_config(cfg(verify={"suites": ["bogus"]}))
    with pytest.raises(ConfigError):
        parse_config(cfg(spectrum={"count": 0}))
    with pytest.raises(ConfigError):
        parse_config(cfg(resolvent={"lambda": -1.0}))
    with pytest.raises(ConfigError):
        parse_config(cfg(forcing={"kind": "manufactured"}, operator="nondivergence"))


def test_run_writes_trajectory_and_summary(tmp_path):
    config = parse_config(cfg(mesh={"n": 8}, time={"T": 0.1, "dt": 0.01}))
    status = dispatch("run", config, tmp_path)
    assert status == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert set(summary) == {
        "operator", "class", "n", "dt", "T", "final_norm_mu_sq",
        "sup_norm_mu_sq", "energy_integral", "contraction_ok", "energy_bound_ok",
        "aborted", "scheme",
    }
    assert summary["contraction_ok"] is True and summary["energy_bound_ok"] is True
    assert summary["aborted"] is None
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "step,t,norm_mu_sq,energy_form,slack"
    assert len(lines) == 12


def test_aborted_run_fails(tmp_path):
    # exp(800 t) forcing overflows the state before T
    path = tmp_path / "config.json"
    path.write_text(cfg(mesh={"n": 16}, time={"T": 1.0},
                        forcing={"kind": "separable", "space": "one", "rate": -800}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 1
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["aborted"].startswith("step from t = ")
    assert summary["T"] < 1.0


@pytest.mark.parametrize("space, status", [("one", 1), ({"poly": [0.0]}, 0)])
def test_forcing_norm_overflow_ends_the_run(tmp_path, capsys, space, status):
    # exp(500 t) forcing: from t = 0.71 the square of its time factor
    # passes the double range while the loads are still finite; times a
    # zero forcing norm it stays zero
    path = tmp_path / "config.json"
    path.write_text(cfg(mesh={"n": 8}, forcing={"kind": "separable", "space": space, "rate": -500}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == status
    assert capsys.readouterr().err == ""
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    if status:
        assert summary["aborted"] == "step from t = 0.7000000000000004: the forcing norm is not finite"
        assert summary["T"] == 0.7000000000000004
    else:
        assert summary["aborted"] is None and summary["T"] == pytest.approx(1.0)
    rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()[1:]
    assert np.all(np.isfinite(np.array([row.split(",") for row in rows], dtype=float)))


def test_verify_writes_report(tmp_path):
    config = parse_config(cfg(verify={"suites": ["hardy", "linear_fit"]}))
    assert dispatch("verify", config, tmp_path) == 0
    report = json.loads((tmp_path / "verification.json").read_text())
    assert report["all_pass"] is True
    assert {c["suite"] for c in report["checks"]} == {"hardy", "linear_fit"}


def test_spectrum_kernel_of_neutral_divergence(tmp_path):
    config = parse_config(cfg(mesh={"n": 8}, spectrum={"count": 5}))
    assert dispatch("spectrum", config, tmp_path) == 0
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "index,eigenvalue"
    assert len(lines) == 6
    meta = json.loads((tmp_path / "spectrum.json").read_text())
    assert meta["psd_ok"] is True and meta["near_zero_count"] == 2
    eigs = [float(ln.split(",")[1]) for ln in lines[1:]]
    lam_max = meta["max_eigenvalue"]
    assert abs(eigs[0]) <= 1e-9 * lam_max and abs(eigs[1]) <= 1e-9 * lam_max


@pytest.mark.parametrize(
    "overrides",
    [
        {"mesh": {"n": 32}},
        {
            "operator": "nondivergence",
            "coefficient": {"x0": 0.4, "K": 1.5},
            "wentzell": {"gamma0": -0.5, "gamma1": -1.0},
            "mesh": {"n": 24},
        },
    ],
)
def test_spectrum_forms_no_dense_matrix(tmp_path, monkeypatch, overrides):
    config = parse_config(cfg(**overrides))
    reference = dense_decompose(build_system(config.problem))

    def refuse(*args, **kwargs):
        raise AssertionError("spectrum formed a dense matrix")

    monkeypatch.setattr(AssembledSystem, "to_dense", refuse)
    assert dispatch("spectrum", config, tmp_path) == 0
    meta = json.loads((tmp_path / "spectrum.json").read_text())
    assert meta["psd_ok"] is psd_ok(reference.eigenvalues)
    assert meta["near_zero_count"] == near_zero_count(reference.eigenvalues)
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()[1:]
    eigs = np.array([float(ln.split(",")[1]) for ln in lines])
    w = reference.eigenvalues
    assert np.max(np.abs(eigs - w)) <= BANDED_EIGENVALUE_GAP_TOL * max(w[-1], 1.0)


def test_resolvent_outputs_and_gate(tmp_path):
    config = parse_config(cfg(mesh={"n": 8}, resolvent={"lambda": 2.0, "f": "one"}))
    assert dispatch("resolvent", config, tmp_path) == 0
    result = json.loads((tmp_path / "resolvent.json").read_text())
    assert result["residual_ok"] is True and result["lambda"] == 2.0
    lines = (tmp_path / "resolvent.csv").read_text().splitlines()
    assert lines[0] == "dof,value"
    # gamma = 0 and constant f: the solution is f / lambda
    values = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert values[0] == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize(
    "command, files, overrides",
    [
        ("run", {"trajectory.csv", "summary.json"}, {}),
        ("spectrum", {"spectrum.csv", "spectrum.json"}, {}),
        ("resolvent", {"resolvent.csv", "resolvent.json"}, {}),
        ("verify", {"verification.json"}, {}),
        (
            "run",
            {"trajectory.csv", "summary.json"},
            {
                "scheme": "crank_nicolson",
                "project_u0": True,
                "forcing": {"kind": "separable", "space": "parabola", "rate": 0.7},
            },
        ),
    ],
)
def test_byte_identical_reruns(tmp_path, command, files, overrides):
    config = parse_config(
        cfg(
            mesh={"n": 8},
            time={"T": 0.1, "dt": 0.01},
            wentzell={"gamma0": -0.5, "gamma1": -1.0},
            **overrides,
        )
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert dispatch(command, config, out1) == 0
    assert dispatch(command, config, out2) == 0
    assert {p.name for p in out1.iterdir()} == files
    assert {p.name for p in out2.iterdir()} == files
    for name in files:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


@pytest.mark.parametrize(
    "overrides",
    [
        # T < ln 2: e^T < 2, so the bound must be read step by step, not
        # as sup ||u||^2 plus the energy of the whole run
        {"wentzell": {"gamma0": -0.5, "gamma1": -0.5}, "mesh": {"n": 64},
         "time": {"T": 0.01, "dt": 1e-4}, "u0": "bump_cubed"},
        {"operator": "nondivergence", "coefficient": {"x0": 0.4, "K": 0.5},
         "wentzell": {"beta0": 2, "beta1": 1, "gamma1": -0.5}, "mesh": {"n": 30},
         "time": {"T": 0.05}, "u0": "bump_cubed", "project_u0": True},
    ],
)
def test_short_runs_meet_the_energy_bound(tmp_path, overrides):
    path = tmp_path / "config.json"
    path.write_text(cfg(**overrides))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["energy_bound_ok"] is True and summary["contraction_ok"] is True


def test_main_end_to_end(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(cfg(mesh={"n": 8}, time={"T": 0.05, "dt": 0.01}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "out")]) == 0


def test_no_command_loads_scipy_special(tmp_path):
    # the Gauss rules are a table; a fresh interpreter holds only what the
    # commands import, not what the tests did
    path = tmp_path / "config.json"
    path.write_text(cfg(mesh={"n": 4}, time={"T": 0.05, "dt": 0.01}))
    script = (
        "import json, sys\n"
        "from wentzell4.cli import main\n"
        "status = [main([c, '--config', sys.argv[1], '--out', sys.argv[2] + '/' + c])\n"
        "          for c in ('run', 'spectrum', 'resolvent', 'verify')]\n"
        "print(json.dumps([status, 'scipy.special' in sys.modules]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(wentzell4.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script, str(path), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [[0, 0, 0, 0], False]


def test_main_reports_config_errors(tmp_path, capsys):
    # bad values are covered key by key below; here the file is missing
    assert main(["run", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path)]) == 2
    assert json.loads(capsys.readouterr().err)["key"] == "--config"
    # a directory is not a readable config either
    assert main(["run", "--config", str(tmp_path), "--out", str(tmp_path / "out")]) == 2
    assert json.loads(capsys.readouterr().err)["key"] == "--config"


def test_main_reports_output_errors_under_out(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(cfg(mesh={"n": 8}, time={"T": 0.05, "dt": 0.01}))
    taken = tmp_path / "afile"
    taken.write_text("")
    assert main(["run", "--config", str(path), "--out", str(taken)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["key"] == "--out" and "afile" in err["error"]


def test_main_reports_any_other_error_with_exit_3(tmp_path, capsys, monkeypatch):
    import wentzell4.cli as cli

    def crash(*args, **kwargs):
        raise RuntimeError("internal failure")

    monkeypatch.setattr(cli, "dispatch", crash)
    path = tmp_path / "config.json"
    path.write_text(cfg(mesh={"n": 4}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "internal failure", "type": "RuntimeError", "key": None}


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"coefficient": {"x0": 1.5}}, "coefficient.x0"),
        ({"coefficient": {"K": -0.5}}, "coefficient.K"),
        ({"coefficient": {"scale": 0.0}}, "coefficient.scale"),
        ({"wentzell": {"beta0": 0.0}}, "wentzell.beta0"),
        ({"wentzell": {"beta1": -1.0}}, "wentzell.beta1"),
        ({"wentzell": {"gamma0": 0.5}}, "wentzell.gamma0"),
        ({"wentzell": {"gamma1": 2.0}}, "wentzell.gamma1"),
        ({"time": {"T": 0.0}}, "time.T"),
        ({"time": {"T": 1.0, "dt": 2.0}}, "time.dt"),
        # numpy refuses the states of 1e15 steps (71 PiB) and of 1e300 steps
        # (past the largest dimension) before it touches memory; 1e300/1e-300
        # is no step count at all
        ({"time": {"T": 1.0, "dt": 1e-15}}, "time.dt"),
        ({"time": {"T": 1.0, "dt": 1e-300}}, "time.dt"),
        ({"time": {"T": 1e300, "dt": 1e-300}}, "time.dt"),
        ({"forcing": {"kind": "separable", "space": "nope"}}, "forcing.space"),
        ({"forcing": {"kind": "bogus"}}, "forcing.kind"),
        ({"forcing": {"kind": "separable", "rate": "fast"}}, "forcing.rate"),
        ({"forcing": {"kind": "separable", "speed": 1.0}}, "forcing.speed"),
        ({"spectrum": {"count": True}}, "spectrum.count"),
        ({"coefficient": {"x0": 0.0}}, "coefficient.x0"),
        ({"coefficient": {"x0": 1.0}}, "coefficient.x0"),
        ({"u0": {"poly": []}}, "u0"),
        ({"u0": {"poly": [[1, 2]]}}, "u0"),
        ({"u0": [1, [2]]}, "u0"),
        ({"u0": {"poly": [True]}}, "u0"),
        ({"u0": {"poly": ["1"]}}, "u0"),
        ({"u0": {"poly": None}}, "u0"),
        ({"forcing": {"kind": "separable", "space": {"poly": []}}}, "forcing.space"),
        ({"forcing": {"kind": "separable", "space": [[0.5]]}}, "forcing.space"),
        ({"resolvent": {"f": {"poly": []}}}, "resolvent.f"),
        ({"resolvent": {"f": {"poly": [[1, 2]]}}}, "resolvent.f"),
        # meshes have equal elements on each side of x0; no key grades them
        ({"mesh": {"grading": 0.5}}, "mesh.grading"),
        ({"mesh": {"grading": 1.0}}, "mesh.grading"),
        # the constant coefficient is K = 0; no key overrides a given K
        ({"coefficient": {"profile": "constant", "K": 1.5, "x0": 0.3}}, "coefficient.profile"),
        # 1/scale leaves the double range: the reciprocal weight would overflow
        ({"operator": "nondivergence", "coefficient": {"K": 1.5, "scale": 1e-320}},
         "coefficient.scale"),
        ({"coefficient": {"K": 0.5, "scale": 1e-320}}, "coefficient.scale"),
        # numpy refuses the mesh arrays before it touches memory: 10**15
        # elements need 3.55 PiB, 2**62 pass the largest array dimension
        ({"mesh": {"n": 10**15}}, "mesh.n"),
        ({"mesh": {"n": 2**62}}, "mesh.n"),
        # a report of no check, or of one suite twice
        ({"verify": {"suites": []}}, "verify.suites"),
        ({"verify": {"suites": ["hardy", "hardy"]}}, "verify.suites"),
        # JSON admits NaN and Infinity; no number of the schema does
        ({"time": {"T": math.inf}}, "time.T"),
        ({"wentzell": {"gamma0": -math.inf}}, "wentzell.gamma0"),
        ({"coefficient": {"scale": math.inf}}, "coefficient.scale"),
        ({"forcing": {"kind": "manufactured", "rate": math.inf}}, "forcing.rate"),
        ({"forcing": {"kind": "separable", "rate": math.nan}}, "forcing.rate"),
        ({"resolvent": {"lambda": math.nan}}, "resolvent.lambda"),
        ({"resolvent": {"lambda": 0.0}}, "resolvent.lambda"),
        ({"resolvent": {"lambda": -1.0}}, "resolvent.lambda"),
        # the Jacobi scaling of M overflows before the projection solve
        ({"operator": "nondivergence", "coefficient": {"x0": 1e-9, "K": 1.5, "scale": 1e300},
          "mesh": {"n": 5}, "project_u0": True}, "project_u0"),
        # initial data out of double range: infinite dofs, then finite dofs
        # whose squared M-norm overflows
        ({"u0": {"poly": [1e308, 1e308]}}, "u0"),
        ({"u0": {"poly": [1e200, 0, 0, 1e200]}}, "u0"),
        # a separable load that is not finite at t = 0
        ({"forcing": {"kind": "separable", "space": {"poly": [1e308, 1e308]}}}, "forcing.space"),
        # the same data as a manufactured witness, and as a projected u0
        ({"forcing": {"kind": "manufactured", "space": {"poly": [1e308, 1e308]}}},
         "forcing.space"),
        ({"u0": {"poly": [1e308, 1e308]}, "project_u0": True}, "u0"),
        # a subnormal T whose default step T/100 underflows to zero
        ({"time": {"T": 5e-324}}, "time.T"),
        # a step that does not divide T: the steps would end at 0.8 and 1.2
        ({"time": {"T": 1.0, "dt": 0.4}}, "time.dt"),
        ({"time": {"T": 1.0, "dt": 0.6}}, "time.dt"),
    ],
)
def test_main_config_diagnostic_names_key(tmp_path, capsys, overrides, key):
    path = tmp_path / "bad.json"
    path.write_text(cfg(**{"mesh": {"n": 4}, **overrides}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "Traceback" not in lines[0]
    assert json.loads(lines[0])["key"] == key


@pytest.mark.parametrize("command", ["run", "spectrum", "resolvent"])
@pytest.mark.parametrize(
    "overrides, key",
    [
        # a(0)/beta0 overflows
        ({"coefficient": {"scale": 1e10}, "wentzell": {"beta0": 1e-300}}, "wentzell.beta0"),
        # 1/beta0 overflows
        ({"operator": "nondivergence", "wentzell": {"beta0": 1e-309}}, "wentzell.beta0"),
        # gamma0/beta0 overflows
        ({"wentzell": {"beta0": 1e-10, "gamma0": -1e300}}, "wentzell.gamma0"),
    ],
)
def test_point_term_out_of_double_range_names_its_key(tmp_path, capsys, command, overrides, key):
    path = tmp_path / "config.json"
    doc = json.loads(cfg(mesh={"n": 8}, time={"T": 0.1}))
    for section, values in overrides.items():
        if isinstance(values, dict):
            doc[section].update(values)
        else:
            doc[section] = values
    path.write_text(json.dumps(doc))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["key"] == key
    assert not (tmp_path / "out").exists()


def test_resolvent_factorization_failure_is_a_diagnostic(tmp_path, capsys):
    # lambda passes the schema bound, but the shifted matrix of this mesh
    # is not positive definite in floating point
    path = tmp_path / "config.json"
    path.write_text(cfg(
        coefficient={"x0": 0.001, "K": 0.5},
        wentzell={"beta0": 1e8, "beta1": 1},
        mesh={"n": 2},
        resolvent={"lambda": 1e-12},
    ))
    assert main(["resolvent", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "Traceback" not in lines[0]
    assert json.loads(lines[0])["key"] == "resolvent.lambda"


DAMPED = {"gamma0": -0.5, "gamma1": -0.5}


@pytest.mark.parametrize(
    "overrides, key",
    [
        # lambda = 1 with damped ends is coercive; only M f overflows
        ({"wentzell": DAMPED}, "resolvent.f"),
        # both fail: the factorization is tried first
        ({"coefficient": {"x0": 0.001, "K": 0.5}, "wentzell": {"beta0": 1e8, "beta1": 1},
          "mesh": {"n": 2}, "resolvent": {"lambda": 1e-12}}, "resolvent.lambda"),
    ],
)
def test_resolvent_overflowing_data_is_blamed_on_f_not_lambda(tmp_path, capsys, overrides, key):
    path = tmp_path / "config.json"
    doc = json.loads(cfg(mesh={"n": 8}, resolvent={"lambda": 1.0, "f": {"poly": [1e308, 1e308]}}))
    for section, values in overrides.items():
        doc[section].update(values)
    path.write_text(json.dumps(doc))
    assert main(["resolvent", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["key"] == key


def test_resolvent_norms_do_not_overflow_on_large_finite_data(tmp_path):
    # the squares of entries near 1e200 overflow; the solve itself is fine
    path = tmp_path / "config.json"
    path.write_text(cfg(wentzell=DAMPED, resolvent={"lambda": 1.0, "f": {"poly": [1e200, 1e200]}}))
    assert main(["resolvent", "--config", str(path), "--out", str(tmp_path / "out")]) == 0

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    report = json.loads((tmp_path / "out" / "resolvent.json").read_text(), parse_constant=refuse)
    assert report["residual_ok"] and 0.0 < report["backward_error"] <= 1e-14
    assert 0.0 < report["relative_residual"] < 1.0


def test_run_factorization_failure_aborts(tmp_path, capsys):
    # elements this small next to x0 leave M + dt K without a Cholesky
    # factor in double precision; the run stops before its first step
    path = tmp_path / "config.json"
    path.write_text(cfg(coefficient={"x0": 1e-9, "K": 0.5}, mesh={"n": 8}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == ""
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["aborted"].startswith("step matrix at t = 0.0")
    assert summary["T"] == 0.0
    lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("0,0,")


def test_step_matrix_out_of_double_range_is_a_time_step_diagnostic(tmp_path, capsys):
    # M and K are finite, but dt K overflows: the step is what to change
    path = tmp_path / "config.json"
    path.write_text(cfg(coefficient={"x0": 0.5, "K": 0.5, "scale": 1e300}, mesh={"n": 16},
                        time={"T": 1e10, "dt": 1e8}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["key"] == "time.dt"
    assert not (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize(
    "command, overrides, key",
    [
        ("run", {"project_u0": True}, "coefficient"),
        ("run", {"forcing": {"kind": "manufactured"}}, "coefficient"),
        ("spectrum", {}, "coefficient"),
    ],
)
def test_mass_matrix_out_of_double_range(tmp_path, capsys, command, overrides, key):
    # the basis derivatives of an element of length 1e-110 overflow, and
    # K gets NaN entries: assembly refuses the system before any solve
    path = tmp_path / "config.json"
    path.write_text(cfg(coefficient={"x0": 1e-110, "K": 0.5}, mesh={"n": 8}, **overrides))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["key"] == key


@pytest.mark.parametrize("command", ["run", "spectrum", "resolvent"])
@pytest.mark.parametrize(
    "coefficient",
    [
        # elements of length 1e-300 / 8: K gets NaN entries
        {"x0": 1e-300, "K": 0.5},
        # a(x) up to 1e305 times the 1/h**3 of second derivatives: K overflows
        {"x0": 0.5, "K": 0.5, "scale": 1e305},
    ],
    ids=["x0", "scale"],
)
def test_non_finite_system_is_one_diagnostic_from_every_command(
    tmp_path, capsys, command, coefficient
):
    path = tmp_path / "config.json"
    path.write_text(cfg(coefficient=coefficient, mesh={"n": 16}))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "Traceback" not in lines[0]
    assert json.loads(lines[0])["key"] == "coefficient"


def test_summary_names_the_scheme(tmp_path):
    for scheme in ("implicit_euler", "crank_nicolson"):
        config = parse_config(cfg(mesh={"n": 8}, time={"T": 0.05}, scheme=scheme))
        assert dispatch("run", config, tmp_path / scheme) == 0
        summary = json.loads((tmp_path / scheme / "summary.json").read_text())
        assert summary["scheme"] == scheme


def test_explicit_manufactured_rate_zero_is_kept(tmp_path):
    trajectories = []
    for rate in (0, 1):
        config = parse_config(cfg(mesh={"n": 8}, time={"T": 0.05},
                                  forcing={"kind": "manufactured", "rate": rate}))
        assert dispatch("run", config, tmp_path / str(rate)) == 0
        trajectories.append((tmp_path / str(rate) / "trajectory.csv").read_bytes())
    assert trajectories[0] != trajectories[1]


@pytest.mark.parametrize("n", [128, 200, 1024])
def test_strong_meshes_are_valid_at_large_n(tmp_path, n):
    # equal elements on each side of x0 leave no element of zero length
    path = tmp_path / "config.json"
    path.write_text(cfg(operator="nondivergence", coefficient={"K": 1.5}, mesh={"n": n}))
    for command in ("run", "spectrum", "resolvent"):
        assert main([command, "--config", str(path), "--out", str(tmp_path / command)]) == 0


def test_readme_config_document_runs(tmp_path):
    # the JSON block that follows "A config document:" in README.md
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("A config document:", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    parse_config(block)
    path = tmp_path / "config.json"
    path.write_text(block)
    for command in ("run", "verify", "spectrum", "resolvent"):
        assert main([command, "--config", str(path), "--out", str(tmp_path / command)]) == 0


# ---------------------------------------------------------------------------
# schema property: every document ends in a result or a one-line diagnostic
# ---------------------------------------------------------------------------

_JUNK = st.sampled_from(
    [math.nan, math.inf, -math.inf, True, False, "1", None, [1.0], -1.0, 0.0, 2.5, 1e300]
)
_BAD_SPACE = st.sampled_from(
    ["nope", 3, {"poly": []}, {"poly": [[1.0]]}, {"poly": [True]}, {"poly": ["1"]}, [1, [2]], {}]
)
_SPACE = st.one_of(
    st.sampled_from(["one", "linear", "parabola", "quartic_bump", "bump_cubed"]),
    st.fixed_dictionaries({"poly": st.lists(st.floats(-2, 2), min_size=1, max_size=5)}),
    st.lists(st.floats(-2, 2), min_size=1, max_size=5),
)


def _mostly(good, bad):
    """``good``, or one time in sixteen ``bad``."""
    return st.integers(0, 15).flatmap(lambda k: bad if k == 15 else good)


def _number(lo, hi):
    return _mostly(st.floats(lo, hi), _JUNK)


def _optional(doc, key, strategy):
    return st.one_of(st.just(doc), strategy.map(lambda v: {**doc, key: v}))


@st.composite
def _documents(draw):
    """Config documents of the schema, n from 2 to 12 and a given dt of at
    least T/50, with now and then a value of the wrong type or range."""
    T = draw(st.floats(1e-3, 5.0))
    coefficient = {"x0": draw(_number(0.0, 1.0)), "K": draw(_number(0.0, 2.0))}
    coefficient = draw(_optional(coefficient, "scale", _number(1e-3, 10.0)))
    wentzell = {"beta0": draw(_number(1e-3, 10.0)), "beta1": draw(_number(1e-3, 10.0))}
    for key in ("gamma0", "gamma1"):
        wentzell = draw(_optional(wentzell, key, _number(-10.0, 0.0)))
    mesh = {"n": draw(_mostly(st.integers(2, 12), _JUNK))}
    time = draw(_optional({"T": draw(_mostly(st.just(T), _JUNK))}, "dt", _number(T / 50, T)))
    space = _mostly(_SPACE, _BAD_SPACE)
    forcing = st.fixed_dictionaries(
        {"kind": _mostly(st.sampled_from(["zero", "separable", "manufactured"]), st.just("x"))},
        optional={"space": space, "rate": _number(-10.0, 10.0)},
    )
    doc = {
        "operator": draw(_mostly(st.sampled_from(["divergence", "nondivergence"]), _JUNK)),
        "coefficient": coefficient, "wentzell": wentzell, "mesh": mesh, "time": time,
        "scheme": draw(_mostly(st.sampled_from(["implicit_euler", "crank_nicolson"]), _JUNK)),
        "u0": draw(space), "project_u0": draw(_mostly(st.booleans(), _JUNK)),
        "resolvent": {"lambda": draw(_number(1e-3, 10.0)), "f": draw(space)},
    }
    return draw(_optional(doc, "forcing", _mostly(forcing, st.sampled_from(["zero", 1.0]))))


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=_documents())
# the Jacobi scaling of this M overflows: exit 2 on project_u0, not 3
@example(doc={"operator": "nondivergence", "coefficient": {"x0": 1e-09, "K": 1.5, "scale": 1e300},
              "wentzell": {"beta0": 1, "beta1": 1}, "mesh": {"n": 5}, "time": {"T": 0.1},
              "project_u0": True})
# 1/scale overflows: exit 2 on coefficient.scale, not 3
@example(doc={"operator": "nondivergence", "coefficient": {"x0": 0.5, "K": 1.5, "scale": 1e-320},
              "wentzell": {"beta0": 1, "beta1": 1}, "time": {"T": 0.1}})
# the initial state has no finite M-norm: exit 2 on u0, not a NaN summary
@example(doc={"operator": "divergence", "coefficient": {"x0": 0.5, "K": 0.5},
              "wentzell": {"beta0": 1, "beta1": 1, "gamma0": -1, "gamma1": -1},
              "mesh": {"n": 8}, "time": {"T": 0.1}, "u0": {"poly": [1e308, 1e308]}})
# a(0)/beta0 overflows: exit 2 on wentzell.beta0, not an infinite summary
@example(doc={"operator": "divergence", "coefficient": {"x0": 0.5, "K": 0.5, "scale": 1e10},
              "wentzell": {"beta0": 1e-300, "beta1": 1, "gamma0": -1, "gamma1": -1},
              "mesh": {"n": 8}, "time": {"T": 0.1}})
# the default step T/100 underflows to zero: exit 2 on time.T, not 3
@example(doc={"operator": "divergence", "coefficient": {"x0": 0.5, "K": 0.5},
              "wentzell": {"beta0": 1, "beta1": 1}, "mesh": {"n": 4}, "time": {"T": 5e-324}})
# a finite solution of 6.4e299 whose A u overflows: backward error 2.3e-17,
# not a NaN report
@example(doc={"operator": "divergence", "coefficient": {"x0": 0.999, "K": 0},
              "wentzell": {"beta0": 0.5, "beta1": 1.5, "gamma0": -1e-300, "gamma1": -1e-30},
              "mesh": {"n": 16}, "time": {"T": 1.0},
              "resolvent": {"lambda": 1.5, "f": {"poly": [1e200, -1, -1e300]}}})
def test_schema_documents_end_in_a_result_or_one_diagnostic(doc):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(doc))
        for command in ("run", "spectrum", "resolvent"):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                status = main([command, "--config", str(path), "--out", str(Path(tmp) / command)])
            assert status in (0, 1, 2)
            assert len(err.getvalue().splitlines()) <= 1 and not caught
            # every file written is strict JSON: no NaN, no Infinity
            for written in (Path(tmp) / command).glob("*.json"):
                json.loads(written.read_text(), parse_constant=refuse)
