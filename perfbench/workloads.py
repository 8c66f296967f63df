"""Seed-generated workloads for the wentzell4 CLI and the checks on
their outputs.

Each workload is a fixed list of CLI calls (one *pass*) whose config
documents are drawn from ``--seed``.  The seed changes coefficients,
boundary parameters and data, never the problem size, so every seed does
the same amount of work.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# ||x^3 (1-x)^3||^2 on (0, 1) = B(7, 7); the manufactured solution is
# exp(-rate t) x^3 (1-x)^3 and the witness vanishes at both ends, so the
# boundary point masses drop out of the mu-norm.
B77 = math.gamma(7) ** 2 / math.gamma(14)

# evolve: relative error allowed between final_norm_mu_sq and the closed
# form exp(-2 rate T) B(7, 7).  The largest error seen at this commit over
# seeds 0-19 is 1.2e-5 (rate in [0.5, 2], 25 Crank-Nicolson steps, n = 512).
EVOLVE_REL_TOL = 5e-5

# Sizes keep one pass near a second, so a 30 s run holds about ten timed
# pairs (run.py); each still spends most of its time in its dominant layer
# (evolve: step_free, about 68%; resolvent: the backward-error SVD, about
# 70%; spectrum: the dense eigh, about 90%).
EVOLVE_N, EVOLVE_STEPS, EVOLVE_T = 512, 25, 0.25
# march stays at n = 32: with the default strong grading (ratio 2 per
# element) the contraction gate fails at n = 40, 56 and 64, where the
# graded mesh drives the pencil's smallest eigenvalues negative by rounding
# and every step grows the M-norm by 1e-11 to 1e-8 (mesh-grading defect).
# At n = 32 the largest per-step growth is 8e-13 against a gate of 2e-12.
# 2500 steps of dt = 4e-4 take about 0.75 s.
MARCH_N, MARCH_STEPS = 32, 2500
RESOLVENT_N, SPECTRUM_N = 512, 512


@dataclass(frozen=True)
class Call:
    """One CLI invocation of a pass: ``wentzell4 <command> --config
    <label>.json``."""

    command: str
    label: str
    config: dict


def _wentzell(rng, damped):
    def gamma():
        return -rng.uniform(0.0, 2.0) if damped else 0.0

    return {
        "beta0": rng.uniform(0.5, 2.0),
        "beta1": rng.uniform(0.5, 2.0),
        "gamma0": gamma(),
        "gamma1": gamma(),
    }


def _weak_divergence(rng, n):
    return {
        "operator": "divergence",
        "coefficient": {"x0": 0.5, "K": 0.5},
        "wentzell": _wentzell(rng, damped=True),
        "mesh": {"n": n},
    }


def _poly(rng, degree):
    return {"poly": [rng.uniform(-1.0, 1.0) for _ in range(degree + 1)]}


def evolve_calls(rng):
    rate = rng.uniform(0.5, 2.0)
    doc = _weak_divergence(rng, EVOLVE_N)
    doc.update(
        time={"T": EVOLVE_T, "dt": EVOLVE_T / EVOLVE_STEPS},
        scheme="crank_nicolson",
        u0="bump_cubed",
        forcing={"kind": "manufactured", "space": "bump_cubed", "rate": rate},
    )
    return [Call("run", "evolve", doc)]


def march_calls(rng):
    doc = {
        "operator": "nondivergence",
        "coefficient": {"x0": 0.5, "K": 1.5},
        "wentzell": _wentzell(rng, damped=False),
        "mesh": {"n": MARCH_N},
        "time": {"T": 1.0, "dt": 1.0 / MARCH_STEPS},
        "scheme": "implicit_euler",
        "u0": _poly(rng, 3),
    }
    return [Call("run", "march", doc)]


def oneshot_calls(rng):
    resolvent = _weak_divergence(rng, RESOLVENT_N)
    gammas = (resolvent["wentzell"]["gamma0"], resolvent["wentzell"]["gamma1"])
    resolvent.update(
        time={"T": 1.0},
        resolvent={
            "lambda": max(0.0, *gammas) + rng.uniform(0.5, 2.0),
            "f": _poly(rng, 3),
        },
    )
    spectrum = dict(resolvent, mesh={"n": SPECTRUM_N})
    # verify runs its fixed case matrix whatever the problem; the seed
    # reaches its sampled checks through --seed
    verify = dict(
        _weak_divergence(rng, 32),
        time={"T": 1.0},
        verify={"suites": ["green", "spectral", "resolvent", "hardy",
                           "linear_fit", "pointwise", "norm_equivalence"]},
    )
    return [
        Call("resolvent", "resolvent", resolvent),
        Call("spectrum", "spectrum", spectrum),
        Call("verify", "verify", verify),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_calls: object

    def calls(self, seed):
        return self.make_calls(random.Random(seed))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "evolve",
            "run, divergence, weak class, n=512, 25 Crank-Nicolson steps, "
            "manufactured forcing with a closed-form answer; step-bound: O(n^2) "
            "dense longdouble refinement residual per step",
            evolve_calls,
        ),
        Workload(
            "march",
            "run, non-divergence, strong class (constrained path), n=32, 2500 "
            "implicit Euler steps; per-call-overhead-bound, the only workload "
            "on the contraction gate",
            march_calls,
        ),
        Workload(
            "oneshot",
            "resolvent n=512, spectrum n=512, verify (all 7 suites); no time "
            "steps: cli backward-error SVD, dense oracle eigh at scale, oracle "
            "suites and small-n assembly",
            oneshot_calls,
        ),
    )
}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _read(out_dir, name):
    return json.loads((Path(out_dir) / name).read_text())


def check_output(call: Call, out_dir):
    """Gate the outputs of one finished call.

    Returns ``(failure, diagnostics)``: ``failure`` is None when every
    gate holds, else a one-line reason.
    """
    if call.command == "run":
        summary = _read(out_dir, "summary.json")
        gates = {"energy_bound_ok": summary["energy_bound_ok"]}
        if summary["contraction_ok"] is not None:
            gates["contraction_ok"] = summary["contraction_ok"]
        for gate, ok in gates.items():
            if ok is not True:
                return f"{gate} is {ok}", {}
        forcing = call.config.get("forcing")
        if isinstance(forcing, dict) and forcing.get("kind") == "manufactured":
            T = call.config["time"]["T"]
            expected = math.exp(-2.0 * forcing["rate"] * T) * B77
            rel = abs(summary["final_norm_mu_sq"] - expected) / expected
            diag = {"manufactured_rel_err": rel}
            if not rel <= EVOLVE_REL_TOL:
                return f"final_norm_mu_sq misses the closed form by {rel:.3g}", diag
            return None, diag
        return None, {}
    if call.command == "resolvent":
        report = _read(out_dir, "resolvent.json")
        diag = {"resolvent_backward_error": report["backward_error"]}
        return (None if report["residual_ok"] is True else "residual_ok is false"), diag
    if call.command == "spectrum":
        ok = _read(out_dir, "spectrum.json")["psd_ok"]
        return (None if ok is True else "psd_ok is false"), {}
    if call.command == "verify":
        ok = _read(out_dir, "verification.json")["all_pass"]
        return (None if ok is True else "all_pass is false"), {}
    raise ValueError(f"unknown command {call.command!r}")
