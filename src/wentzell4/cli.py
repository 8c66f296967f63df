"""Command-line entry point.

Subcommands: ``run`` (time integration, trajectory CSV + summary JSON),
``verify`` (closed-form verification suites, report JSON), ``spectrum``
(pencil eigenvalues from the bands, CSV + JSON) and ``resolvent``
(single shifted solve, CSV + residual JSON).  One JSON config file
drives everything; an identical config produces byte-identical
outputs.  Exit status is 0 exactly when every check requested by the
subcommand passes, 1 when one fails or a run aborts, 2 for a config or
file error (a one-line JSON diagnostic naming the key) and 3 for any
other error (a one-line JSON diagnostic with its type, never a
traceback).
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .coefficient import ConfigError, keyed, number, only_keys, power_profile
from .evolution import (
    ProblemConfig,
    Scheme,
    build_system,
    initial_dofs,
    resolve_space_spec,
    resolvent_solve,
    run,
    solvable,
    write_csv,
)
from .forms import OperatorForm, WentzellParams, band_matvec, pencil_spectrum, row_band
from .oracle import SUITES, expected_kernel, verification_report

__all__ = ["ConfigError", "CliConfig", "parse_config", "dispatch", "main"]

# eigenvalues spectrum.csv lists without spectrum.count: lambda_1..lambda_6
SPECTRUM_COUNT = 6


def _section(doc, key, allowed, required=False):
    """The object ``doc[key]``, holding only keys in ``allowed``; an
    optional one defaults to {}."""
    value = doc.get(key) if required else doc.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(key, "missing or not an object" if required else "must be an object")
    with keyed(key):
        only_keys(value, allowed)
    return value


@dataclass(frozen=True)
class CliConfig:
    problem: ProblemConfig
    verify_suites: tuple
    spectrum_count: int
    resolvent_lambda: float
    resolvent_f: object


def parse_config(text) -> CliConfig:
    """Read a JSON config document and apply defaults.

    Required: operator, coefficient.x0, coefficient.K, wentzell.beta0/1,
    time.T.  Defaults: coefficient.scale 1, wentzell.gamma0/1 0, scheme
    implicit_euler, n = 32, dt = T/100, spectrum.count 6; the mesh has
    equal elements on each side of x0.  Unknown keys anywhere are
    rejected.  This reads the shape of the document only; each bound is
    checked by the constructor the value goes to, and
    :class:`ProblemConfig` checks the problem.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("<document>", f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("<document>", "top level must be an object")
    only_keys(
        doc,
        {
            "operator", "coefficient", "wentzell", "mesh", "time", "scheme",
            "u0", "project_u0", "forcing", "verify", "spectrum", "resolvent",
        },
    )

    operator = doc.get("operator")
    if operator not in ("divergence", "nondivergence"):
        raise ConfigError("operator", "must be 'divergence' or 'nondivergence'")

    cdoc = _section(doc, "coefficient", {"x0", "K", "scale"}, required=True)
    with keyed("coefficient"):
        coeff = power_profile(
            number(cdoc, "x0", required=True),
            number(cdoc, "K", required=True),
            number(cdoc, "scale", default=1.0),
        )

    wdoc = _section(doc, "wentzell", {"beta0", "beta1", "gamma0", "gamma1"}, required=True)
    with keyed("wentzell"):
        params = WentzellParams(
            number(wdoc, "beta0", required=True),
            number(wdoc, "beta1", required=True),
            number(wdoc, "gamma0", default=0.0),
            number(wdoc, "gamma1", default=0.0),
        )

    mdoc = _section(doc, "mesh", {"n"})

    tdoc = _section(doc, "time", {"T", "dt"}, required=True)
    with keyed("time"):
        T, dt = number(tdoc, "T", required=True), number(tdoc, "dt")

    try:
        scheme = Scheme(doc.get("scheme", "implicit_euler"))
    except ValueError:
        raise ConfigError("scheme", "must be 'implicit_euler' or 'crank_nicolson'") from None
    project_u0 = doc.get("project_u0", False)
    if not isinstance(project_u0, bool):
        raise ConfigError("project_u0", "must be a boolean")

    problem = ProblemConfig(
        form=OperatorForm(operator),
        coeff=coeff,
        params=params,
        T=T,
        dt=dt,
        n=mdoc.get("n", 32),
        scheme=scheme,
        u0=doc.get("u0", "one"),
        forcing=doc.get("forcing"),
        project_u0=project_u0,
    )

    vdoc = _section(doc, "verify", {"suites"})
    suites = vdoc.get("suites", sorted(SUITES))
    if not isinstance(suites, list) or not all(isinstance(s, str) for s in suites):
        raise ConfigError("verify.suites", "must be a list of suite names")
    if not suites or len(set(suites)) != len(suites):
        raise ConfigError("verify.suites", "must name at least one suite, each once")
    bad = set(suites) - set(SUITES)
    if bad:
        raise ConfigError("verify.suites", f"unknown suite {sorted(bad)[0]!r}")

    count = _section(doc, "spectrum", {"count"}).get("count")
    count = SPECTRUM_COUNT if count is None else count
    if isinstance(count, bool) or not isinstance(count, int) or count < 1:
        raise ConfigError("spectrum.count", "must be a positive integer")

    rdoc = _section(doc, "resolvent", {"lambda", "f"})
    with keyed("resolvent"):
        lam = number(rdoc, "lambda", default=1.0)
        if not lam > 0.0:
            raise ConfigError("lambda", "must be > 0")
        rf = rdoc.get("f", "one")
        with keyed("f"):
            resolve_space_spec(rf)
    return CliConfig(problem, tuple(suites), count, lam, rf)


def _write_json(path, payload):
    # one write: json.dump hands the file thousands of fragments
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _cmd_run(config: CliConfig, out: Path):
    traj = run(config.problem)
    traj.write_csv(out / "trajectory.csv")
    summary = traj.summary()
    _write_json(out / "summary.json", summary)
    checks = [v for v in (summary["contraction_ok"], summary["energy_bound_ok"]) if v is not None]
    return summary["aborted"] is None and all(checks)


def _cmd_verify(config: CliConfig, out: Path):
    report = verification_report(config.verify_suites)
    _write_json(out / "verification.json", report)
    return report["all_pass"]


def _cmd_spectrum(config: CliConfig, out: Path):
    system = build_system(config.problem)
    kernel = expected_kernel(system)
    with solvable("spectrum"), keyed("spectrum"):
        spectrum = pencil_spectrum(system.M, system.K, config.spectrum_count, kernel)
    if spectrum.kernel != kernel:
        # an eigenvalue within its rounding bound cannot be told from zero
        raise ConfigError(
            "mesh.n",
            f"{spectrum.kernel} eigenvalues below their rounding bounds, where the "
            f"kernel of the space has dimension {kernel}: the pencil is not resolved "
            "in double precision at this n",
        )
    write_csv(out / "spectrum.csv", "index,eigenvalue", spectrum.lowest)
    _write_json(
        out / "spectrum.json",
        {
            "min_eigenvalue": float(spectrum.lowest[0]),
            "min_eigenvalue_bound": float(spectrum.bounds[0]),
            "max_eigenvalue": spectrum.largest,
            "near_zero_count": spectrum.kernel,
            "psd_ok": spectrum.psd_ok,
        },
    )
    return spectrum.psd_ok


def _cmd_resolvent(config: CliConfig, out: Path):
    system = build_system(config.problem)
    f = initial_dofs(system, config.resolvent_f)
    u = resolvent_solve(system, config.resolvent_lambda, f)
    write_csv(out / "resolvent.csv", "dof,value", system.expand(u))
    A = config.resolvent_lambda * system.M + system.K
    b = band_matvec(system.mass_rows, f)
    # both ratios below are invariant under a common scaling of u and b;
    # one exact power of two brings their largest entry into [0.5, 1), so
    # that A u does not overflow where u and b are finite
    exponent = np.frexp(max(np.abs(u).max(), np.abs(b).max()))[1]
    u, b = np.ldexp(u, -exponent), np.ldexp(b, -exponent)
    # math.hypot scales as it sums, so no square overflows or underflows;
    # np.linalg.norm squares the entries in double, which overflow for
    # data near 1e160 and up
    r = math.hypot(*(band_matvec(row_band(A), u) - b).tolist())
    b_norm = max(math.hypot(*b.tolist()), 1e-300)
    relative = r / b_norm
    # the plain relative residual has a floor of eps*||A||*||u|| / ||b||
    # that grows with refinement; the gate uses the normwise backward
    # error, which is mesh-independent.  A is SPD, so its largest diagonal
    # entry is a lower bound on ||A||_2: the error reported is never below
    # the exact one
    a_norm = float(A[0].max())
    backward = r / (a_norm * math.hypot(*u.tolist()) + b_norm)
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


def dispatch(command, config: CliConfig, out):
    """Execute one subcommand; returns the process exit status."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    ok = _COMMANDS[command](config, out)
    return 0 if ok else 1


@functools.cache
def _parser():
    """The argument parser, built on the first call to :func:`main`."""
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
        p.add_argument("--seed", type=int, default=0, help="ignored; every check is deterministic")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return _diagnostic(str(exc), "--config")
    try:
        # non-finite values are caught and reported; warnings would add lines
        with np.errstate(all="ignore"):
            config = parse_config(text)
            return dispatch(args.command, config, args.out)
    except ConfigError as exc:
        return _diagnostic(exc.reason, exc.key)
    except OSError as exc:
        # parse_config reads no file: this came from writing the outputs
        return _diagnostic(str(exc), "--out")
    except Exception as exc:  # a crash must not read as a failed check (1)
        print(json.dumps({"error": str(exc), "type": type(exc).__name__, "key": None}),
              file=sys.stderr)
        return 3


def _diagnostic(reason, key):
    """The one-line JSON diagnostic on stderr; exit status 2."""
    print(json.dumps({"error": reason, "key": key}), file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
