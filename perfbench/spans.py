"""Spans recorded from outside the program, and the per-layer metrics
derived from them.

A span is the timed interval around one wrapped call: name, start, end
and the index of the span that was open when it began (its parent).
Spans are kept in memory; the harness writes them out once at the end
of a run.  Nothing inside ``src/`` is instrumented: the wrappers are
installed by rebinding the module-level names each caller looks up, and
removed again after every traced pass, so untraced passes run the
program exactly as shipped.
"""
from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one traced pass (single thread)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.assembled_bytes: list[int] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), float("nan"), parent)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name, on_return=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_return is not None:
                on_return(result)
            return result

        return traced


def self_times(spans):
    """Self time of each span: its duration minus the part of its
    interval covered by its direct children (overlaps counted once)."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for lo, hi in sorted((spans[c].start, spans[c].end) for c in children[i]):
            lo, hi = max(lo, cursor), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.duration - covered)
    return out


# ---------------------------------------------------------------------------
# what is wrapped
# ---------------------------------------------------------------------------

# (defining module, function name, span name).  Every module of the
# package that binds the same function object under that name gets the
# wrapper, so evolution.run() calling its own build_system and the CLI
# calling cli.build_system are both seen.
FUNCTION_TARGETS = [
    ("cli", "parse_config", "cli.parse_config"),
    ("cli", "dispatch", "cli.dispatch"),
    ("coefficient", "check_power_comparison", "coefficient.check_power_comparison"),
    ("discretization", "build_mesh", "discretization.build_mesh"),
    ("discretization", "weighted_rule", "discretization.weighted_rule"),
    ("forms", "assemble", "forms.assemble"),
    ("evolution", "build_system", "evolution.build_system"),
    ("evolution", "run", "evolution.run"),
    ("evolution", "resolve_forcing", "evolution.forcing"),
    ("evolution", "initial_dofs", "evolution.initial_dofs"),
    ("evolution", "make_state", "evolution.make_state"),
    ("evolution", "resolvent_solve", "evolution.resolvent_solve"),
    ("oracle", "dense_decompose", "oracle.dense_decompose"),
    ("oracle", "verification_report", "oracle.verification_report"),
]

# (class name in evolution, method name, span name)
METHOD_TARGETS = [
    ("TimeStepper", "__init__", "evolution.stepper_init"),
    ("TimeStepper", "step_free", "evolution.step"),
]

SUITE_NAMES = (
    "green", "spectral", "resolvent", "hardy",
    "linear_fit", "pointwise", "norm_equivalence",
)


def _dense_bytes(system):
    return int(system.M.nbytes + system.K.nbytes + system.stiffness_interior.nbytes)


@contextmanager
def installed(tracer, package="wentzell4"):
    """Rebind every traced name to its wrapper; restore on exit."""
    modules = [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == package or name.startswith(package + "."))
    ]
    restore = []

    def rebind(owner, attr, value):
        restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    try:
        for module, attr, span_name in FUNCTION_TARGETS:
            original = getattr(sys.modules[f"{package}.{module}"], attr)
            hook = None
            if span_name == "forms.assemble":
                hook = lambda system: tracer.assembled_bytes.append(_dense_bytes(system))
            wrapper = tracer.wrap(original, span_name, on_return=hook)
            for m in modules:
                if getattr(m, attr, None) is original:
                    rebind(m, attr, wrapper)
        evolution = sys.modules[f"{package}.evolution"]
        for cls_name, attr, span_name in METHOD_TARGETS:
            cls = getattr(evolution, cls_name)
            rebind(cls, attr, tracer.wrap(cls.__dict__[attr], span_name))
        suites = sys.modules[f"{package}.oracle"].SUITES
        originals = dict(suites)
        for name, fn in originals.items():
            suites[name] = tracer.wrap(fn, f"oracle.suite.{name}")
        try:
            yield tracer
        finally:
            suites.update(originals)
    finally:
        for owner, attr, value in reversed(restore):
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# name -> (unit, end-to-end metric and workload it should move).  The
# per-command times named in parentheses (run_s, resolvent_s, spectrum_s,
# verify_s) are the parts of a pass that run.py prints; pass_rel is the
# pass time of src over that of the frozen reference tree.
# "self" is span time minus the time covered by child spans; every other
# time is the whole span, summed over one pass of the workload.
LAYER_METRICS = {
    "cli.parse_config_s": ("s", "setup_s on all workloads"),
    "cli.dispatch_self_s": ("s", "pass_rel (resolvent_s) on oneshot: residual, backward-error SVD, output writing"),
    "cli.run_s": ("s", "pass_rel (run_s) on evolve and march: one whole traced run call"),
    "cli.resolvent_s": ("s", "pass_rel (resolvent_s) on oneshot: one whole traced resolvent call"),
    "cli.spectrum_s": ("s", "pass_rel (spectrum_s) on oneshot: one whole traced spectrum call"),
    "cli.verify_s": ("s", "pass_rel (verify_s) on oneshot: one whole traced verify call"),
    "coefficient.check_power_comparison_s": ("s", "pass_rel (run_s) on march, strong class only"),
    "discretization.build_mesh_s": ("s", "pass_rel (run_s) on march and evolve"),
    "discretization.weighted_rule_s": ("s", "pass_rel (verify_s) on oneshot"),
    "discretization.weighted_rule_calls": ("count", "pass_rel (verify_s) on oneshot"),
    "forms.assemble_s": ("s", "pass_rel (resolvent_s, spectrum_s, verify_s) on oneshot; self time"),
    "forms.dense_bytes": ("bytes_computed", "peak_rss_mb on evolve and oneshot; nbytes of M, K and stiffness_interior of the largest system, computed"),
    "evolution.stepper_init_s": ("s", "pass_rel (run_s) on evolve: equilibration plus banded Cholesky"),
    "evolution.step_s": ("s", "pass_rel (run_s) on evolve and march"),
    "evolution.step_calls": ("count", "pass_rel (run_s) on evolve and march"),
    "evolution.step_ms": ("ms", "pass_rel (run_s) on evolve and march; per step_free call"),
    "evolution.make_state_s": ("s", "pass_rel (run_s) on evolve: dense M-norm and energy"),
    "evolution.forcing_s": ("s", "pass_rel (run_s) on evolve"),
    "evolution.initial_dofs_s": ("s", "pass_rel (run_s) on evolve"),
    "evolution.resolvent_solve_s": ("s", "pass_rel (resolvent_s) on oneshot"),
    "oracle.dense_decompose_s": ("s", "pass_rel (spectrum_s) on oneshot"),
    "oracle.dense_decompose_calls": ("count", "pass_rel (spectrum_s) on oneshot"),
    **{
        f"oracle.suite.{name}_s": ("s", "pass_rel (verify_s) on oneshot")
        for name in SUITE_NAMES
    },
    "evolution.manufactured_rel_err": ("ratio", "diagnostic, never a gate: evolve (0 on other workloads)"),
    "cli.resolvent_backward_error": ("ratio", "diagnostic, never a gate: oneshot (0 on other workloads)"),
    "trace.overhead_frac": ("ratio", "diagnostic: median traced pass over median untraced pass, minus 1"),
}


def pass_metrics(tracer):
    """Per-layer metrics of one traced pass, from its spans (times in s).

    The diagnostics and ``trace.overhead_frac`` are filled in by the
    harness, which has the outputs and the untraced timings.
    """
    total, own, calls = defaultdict(float), defaultdict(float), Counter()
    for s, t in zip(tracer.spans, self_times(tracer.spans)):
        total[s.name] += s.duration
        own[s.name] += t
        calls[s.name] += 1
    steps = calls["evolution.step"]
    out = {
        "cli.parse_config_s": total["cli.parse_config"],
        "cli.dispatch_self_s": own["cli.dispatch"],
        **{f"cli.{c}_s": total[f"call.{c}"] for c in ("run", "resolvent", "spectrum", "verify")},
        "coefficient.check_power_comparison_s": total["coefficient.check_power_comparison"],
        "discretization.build_mesh_s": total["discretization.build_mesh"],
        "discretization.weighted_rule_s": total["discretization.weighted_rule"],
        "discretization.weighted_rule_calls": calls["discretization.weighted_rule"],
        "forms.assemble_s": own["forms.assemble"],
        "forms.dense_bytes": max(tracer.assembled_bytes, default=0),
        "evolution.stepper_init_s": total["evolution.stepper_init"],
        "evolution.step_s": total["evolution.step"],
        "evolution.step_calls": steps,
        "evolution.step_ms": 1e3 * total["evolution.step"] / steps if steps else 0.0,
        "evolution.make_state_s": total["evolution.make_state"],
        "evolution.forcing_s": total["evolution.forcing"],
        "evolution.initial_dofs_s": total["evolution.initial_dofs"],
        "evolution.resolvent_solve_s": total["evolution.resolvent_solve"],
        "oracle.dense_decompose_s": total["oracle.dense_decompose"],
        "oracle.dense_decompose_calls": calls["oracle.dense_decompose"],
    }
    for name in SUITE_NAMES:
        out[f"oracle.suite.{name}_s"] = total[f"oracle.suite.{name}"]
    return out


def median_metrics(per_pass):
    """Median of each metric over the traced passes."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
