"""Command-line entry point.

Subcommands: ``run`` (time integration, trajectory CSV + summary JSON),
``verify`` (closed-form verification suites, report JSON), ``spectrum``
(pencil eigenvalues from the bands, CSV + JSON) and ``resolvent``
(single shifted solve, CSV + residual JSON).  One JSON config file
drives everything; identical config and seed produce byte-identical
outputs.  Exit status is 0 exactly when every check requested by the
subcommand passes.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import eigvals_banded

from .coefficient import DegeneracyClass, ParameterError, classify, constant_profile, power_profile
from .evolution import (
    NotCoerciveError,
    ProblemConfig,
    Scheme,
    build_system,
    initial_dofs,
    parse_forcing,
    resolve_space_spec,
    resolvent_solve,
    run,
)
from .discretization import build_mesh, check_interior
from .forms import OperatorForm, WentzellParams, band_matvec, band_pencil_eigenvalues, row_band
from .oracle import SUITES, near_zero_count, psd_ok, verification_report

__all__ = ["ConfigError", "CliConfig", "parse_config", "dispatch", "main"]


class ConfigError(ValueError):
    """Invalid configuration; ``key`` names the offending entry."""

    def __init__(self, key, message):
        super().__init__(f"{key}: {message}")
        self.key = key
        self.reason = message


def _reject_unknown(mapping, allowed, where):
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(
            f"{where}.{sorted(unknown)[0]}" if where else sorted(unknown)[0],
            "unknown key",
        )


def _number(mapping, where, key, default=None, required=False):
    if key not in mapping:
        if required:
            raise ConfigError(f"{where}.{key}" if where else key, "missing required key")
        return default
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}.{key}" if where else key, "must be a number")
    return float(value)


def _checked(section, build, *args, **kwargs):
    """Call a library constructor, which enforces its own bounds; its
    ParameterError becomes a ConfigError on ``section.<parameter>``."""
    try:
        return build(*args, **kwargs)
    except ParameterError as exc:
        raise ConfigError(f"{section}.{exc.name}", exc.reason) from None


@dataclass(frozen=True)
class CliConfig:
    problem: ProblemConfig
    verify_suites: tuple
    spectrum_count: int | None
    resolvent_lambda: float
    resolvent_f: object


def parse_config(text) -> CliConfig:
    """Validate a JSON config document and apply defaults.

    Required: operator, coefficient.x0, coefficient.K, wentzell.beta0/1,
    wentzell.gamma0/1, time.T.  Defaults: scheme implicit_euler, n = 32,
    dt = T/100, grading 2 for a strongly degenerate coefficient and 1
    otherwise.  Unknown keys anywhere are rejected.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("<document>", f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("<document>", "top level must be an object")
    _reject_unknown(
        doc,
        {
            "operator", "coefficient", "wentzell", "mesh", "time", "scheme",
            "u0", "project_u0", "forcing", "verify", "spectrum", "resolvent",
        },
        "",
    )

    operator = doc.get("operator")
    if operator not in ("divergence", "nondivergence"):
        raise ConfigError("operator", "must be 'divergence' or 'nondivergence'")
    form = OperatorForm(operator)

    cdoc = doc.get("coefficient")
    if not isinstance(cdoc, dict):
        raise ConfigError("coefficient", "missing or not an object")
    _reject_unknown(cdoc, {"x0", "K", "scale", "profile"}, "coefficient")
    profile = cdoc.get("profile", "power")
    if profile not in ("power", "constant"):
        raise ConfigError("coefficient.profile", "must be 'power' or 'constant'")
    scale = _number(cdoc, "coefficient", "scale", default=1.0)
    if profile == "constant":
        x0 = _number(cdoc, "coefficient", "x0", default=0.5)
        coeff = _checked("coefficient", constant_profile, scale, x0)
    else:
        x0 = _number(cdoc, "coefficient", "x0", required=True)
        K = _number(cdoc, "coefficient", "K", required=True)
        coeff = _checked("coefficient", power_profile, x0, K, scale)
    _checked("coefficient", check_interior, coeff.x0)
    if classify(coeff) is DegeneracyClass.STRONG and coeff.K >= 2.0:
        raise ConfigError(
            "coefficient.K", "strong degeneracy requires K in [1, 2)"
        )

    wdoc = doc.get("wentzell")
    if not isinstance(wdoc, dict):
        raise ConfigError("wentzell", "missing or not an object")
    _reject_unknown(wdoc, {"beta0", "beta1", "gamma0", "gamma1"}, "wentzell")
    params = _checked(
        "wentzell",
        WentzellParams,
        _number(wdoc, "wentzell", "beta0", required=True),
        _number(wdoc, "wentzell", "beta1", required=True),
        _number(wdoc, "wentzell", "gamma0", default=0.0),
        _number(wdoc, "wentzell", "gamma1", default=0.0),
    )

    mdoc = doc.get("mesh", {})
    if not isinstance(mdoc, dict):
        raise ConfigError("mesh", "must be an object")
    _reject_unknown(mdoc, {"n", "grading"}, "mesh")
    n = mdoc.get("n", 32)
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise ConfigError("mesh.n", "must be an integer >= 2")
    grading = _number(mdoc, "mesh", "grading")

    tdoc = doc.get("time")
    if not isinstance(tdoc, dict):
        raise ConfigError("time", "missing or not an object")
    _reject_unknown(tdoc, {"T", "dt"}, "time")
    T = _number(tdoc, "time", "T", required=True)
    dt = _number(tdoc, "time", "dt")

    scheme_name = doc.get("scheme", "implicit_euler")
    try:
        scheme = Scheme(scheme_name)
    except ValueError:
        raise ConfigError(
            "scheme", "must be 'implicit_euler' or 'crank_nicolson'"
        ) from None

    u0 = doc.get("u0", "one")
    try:
        resolve_space_spec(u0)
    except ValueError as exc:
        raise ConfigError("u0", str(exc)) from None
    project_u0 = doc.get("project_u0", False)
    if not isinstance(project_u0, bool):
        raise ConfigError("project_u0", "must be a boolean")

    forcing = doc.get("forcing")
    if forcing is not None and forcing != "zero" and not isinstance(forcing, dict):
        raise ConfigError("forcing", "must be 'zero' or an object")
    forcing_kind, _, _ = _checked("forcing", parse_forcing, forcing)
    if forcing_kind == "manufactured" and form is not OperatorForm.DIVERGENCE:
        raise ConfigError(
            "forcing.kind", "manufactured forcing targets the divergence form"
        )

    vdoc = doc.get("verify", {})
    if not isinstance(vdoc, dict):
        raise ConfigError("verify", "must be an object")
    _reject_unknown(vdoc, {"suites"}, "verify")
    suites = vdoc.get("suites", sorted(SUITES))
    if not isinstance(suites, list) or not all(isinstance(s, str) for s in suites):
        raise ConfigError("verify.suites", "must be a list of suite names")
    bad = set(suites) - set(SUITES)
    if bad:
        raise ConfigError("verify.suites", f"unknown suite {sorted(bad)[0]!r}")

    sdoc = doc.get("spectrum", {})
    if not isinstance(sdoc, dict):
        raise ConfigError("spectrum", "must be an object")
    _reject_unknown(sdoc, {"count"}, "spectrum")
    count = sdoc.get("count")
    if count is not None and (isinstance(count, bool) or not isinstance(count, int) or count < 1):
        raise ConfigError("spectrum.count", "must be a positive integer")

    rdoc = doc.get("resolvent", {})
    if not isinstance(rdoc, dict):
        raise ConfigError("resolvent", "must be an object")
    _reject_unknown(rdoc, {"lambda", "f"}, "resolvent")
    lam = _number(rdoc, "resolvent", "lambda", default=1.0)
    if lam <= max(0.0, params.gamma0, params.gamma1):
        raise ConfigError("resolvent.lambda", "must exceed max(0, gamma0, gamma1)")
    rf = rdoc.get("f", "one")
    try:
        resolve_space_spec(rf)
    except ValueError as exc:
        raise ConfigError("resolvent.f", str(exc)) from None

    # ProblemConfig bounds T and dt only, both under "time"
    problem = _checked(
        "time",
        ProblemConfig,
        form=form,
        coeff=coeff,
        params=params,
        T=T,
        dt=dt,
        n=n,
        grading=grading,
        scheme=scheme,
        u0=u0,
        forcing=forcing,
        project_u0=project_u0,
    )
    # build_mesh bounds the grading, and refuses one that collapses elements
    _checked("mesh", build_mesh, n, coeff.x0, problem.resolved_grading())
    return CliConfig(problem, tuple(suites), count, lam, rf)


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_run(config: CliConfig, out: Path, seed):
    traj = run(config.problem)
    traj.write_csv(out / "trajectory.csv")
    summary = traj.summary()
    _write_json(out / "summary.json", summary)
    checks = [v for v in (summary["contraction_ok"], summary["energy_bound_ok"]) if v is not None]
    return summary["aborted"] is None and all(checks)


def _cmd_verify(config: CliConfig, out: Path, seed):
    report = verification_report(config.verify_suites, seed=seed)
    _write_json(out / "verification.json", report)
    return report["all_pass"]


def _cmd_spectrum(config: CliConfig, out: Path, seed):
    system = build_system(config.problem)
    eigenvalues = band_pencil_eigenvalues(*system.free_matrices())
    count = config.spectrum_count or len(eigenvalues)
    with open(out / "spectrum.csv", "w") as fh:
        fh.write("index,eigenvalue\n")
        for i, lam in enumerate(eigenvalues[:count]):
            fh.write(f"{i},{lam:.17g}\n")
    ok = psd_ok(eigenvalues)
    _write_json(
        out / "spectrum.json",
        {
            "min_eigenvalue": float(eigenvalues[0]),
            "max_eigenvalue": float(eigenvalues[-1]),
            "near_zero_count": near_zero_count(eigenvalues),
            "psd_ok": ok,
        },
    )
    return ok


def _cmd_resolvent(config: CliConfig, out: Path, seed):
    system = build_system(config.problem)
    f = initial_dofs(system, config.resolvent_f)
    try:
        u = resolvent_solve(system, config.resolvent_lambda, f)
    except NotCoerciveError as exc:
        # lambda passed the bound max(0, gamma0, gamma1), yet the shifted
        # matrix failed its factorization in floating point
        raise ConfigError("resolvent.lambda", str(exc)) from None
    with open(out / "resolvent.csv", "w") as fh:
        fh.write("dof,value\n")
        for i, v in enumerate(u):
            fh.write(f"{i},{v:.17g}\n")
    Mf, Kf = system.free_matrices()
    A = config.resolvent_lambda * Mf + Kf
    b = band_matvec(row_band(system.M), f)[system.free]
    r = float(np.linalg.norm(band_matvec(row_band(A), u[system.free]) - b))
    b_norm = max(float(np.linalg.norm(b)), 1e-300)
    relative = r / b_norm
    # the plain relative residual has a floor of eps*||A||*||u|| / ||b||
    # that grows with refinement; the gate uses the normwise backward
    # error, which is mesh-independent.  A is SPD: ||A||_2 is its top
    # eigenvalue
    top = A.shape[1] - 1
    a_norm = float(eigvals_banded(A, lower=True, select="i", select_range=(top, top))[0])
    backward = r / (a_norm * float(np.linalg.norm(u[system.free])) + b_norm)
    ok = backward <= 1e-14
    _write_json(
        out / "resolvent.json",
        {
            "lambda": config.resolvent_lambda,
            "relative_residual": relative,
            "backward_error": backward,
            "residual_ok": ok,
        },
    )
    return ok


_COMMANDS = {
    "run": _cmd_run,
    "verify": _cmd_verify,
    "spectrum": _cmd_spectrum,
    "resolvent": _cmd_resolvent,
}


def dispatch(command, config: CliConfig, out, seed=0):
    """Execute one subcommand; returns the process exit status."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    ok = _COMMANDS[command](config, out, seed)
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="wentzell4",
        description="Fourth-order degenerate parabolic problems with "
        "generalized Wentzell boundary conditions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("run", "integrate the configured problem and write the trajectory"),
        ("verify", "run the closed-form verification suites"),
        ("spectrum", "write the pencil eigenvalues"),
        ("resolvent", "solve one shifted system and report the residual"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default="./out", help="output directory")
        p.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    args = parser.parse_args(argv)

    try:
        config = parse_config(Path(args.config).read_text())
        return dispatch(args.command, config, args.out, seed=args.seed)
    except ConfigError as exc:
        print(json.dumps({"error": exc.reason, "key": exc.key}), file=sys.stderr)
        return 2
    except OSError as exc:
        print(json.dumps({"error": str(exc), "key": "--config"}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
