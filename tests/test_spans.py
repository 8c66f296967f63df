"""The benchmark's tracer (``perfbench/spans.py``) rebinds names of the
package by their spelling; every one it names must resolve, and a traced
run must record one step span per time step and one bookkeeping pass."""
import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import numpy as np

import wentzell4.cli  # noqa: F401  (the tracer finds each target module in sys.modules)
from wentzell4.coefficient import power_profile
from wentzell4.evolution import ProblemConfig, run
from wentzell4.forms import OperatorForm, WentzellParams

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    if "perfbench_spans" not in sys.modules:
        spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look the module up
        spec.loader.exec_module(module)
    return sys.modules["perfbench_spans"]


def test_every_trace_target_resolves():
    spans = _spans()
    for module, attr, _ in spans.FUNCTION_TARGETS:
        assert callable(getattr(importlib.import_module(f"wentzell4.{module}"), attr)), attr
    evolution = importlib.import_module("wentzell4.evolution")
    for cls_name, attr, _ in spans.METHOD_TARGETS:
        assert callable(vars(getattr(evolution, cls_name))[attr]), (cls_name, attr)


def test_traced_run_records_each_step_and_one_bookkeeping_pass():
    spans = _spans()
    evolution = importlib.import_module("wentzell4.evolution")
    config = ProblemConfig(
        OperatorForm.NON_DIVERGENCE,
        power_profile(0.5, 1.5),
        WentzellParams(1.0, 2.0, -1.0, 0.0),
        T=0.07,
        dt=0.01,
        n=6,
        u0="quartic_bump",
        forcing={"kind": "separable", "space": "linear", "rate": 2.0},
    )
    tracer = spans.Tracer()
    with spans.installed(tracer):
        traced = evolution.run(config)
    calls = Counter(s.name for s in tracer.spans)
    assert calls["evolution.run"] == 1
    assert calls["evolution.step"] == 7
    assert calls["evolution.make_state"] == 1
    assert spans.pass_metrics(tracer)["evolution.step_calls"] == 7
    # the wrappers are gone again and changed nothing
    assert evolution.run is run
    untraced = run(config)
    assert np.array_equal(traced.norm_mu_sq, untraced.norm_mu_sq)
    assert traced.summary() == untraced.summary()
