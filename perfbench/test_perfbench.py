"""Tests of the benchmark itself: ``python -m pytest perfbench -q``."""
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from wentzell4 import cli, evolution  # noqa: E402

SEEDS = range(6)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generated_configs_parse_for_several_seeds(name):
    workload = workloads.WORKLOADS[name]
    for seed in SEEDS:
        calls = workload.calls(seed)
        assert calls == workload.calls(seed)
        for call in calls:
            parsed = cli.parse_config(json.dumps(call.config))
            assert parsed.problem.n == call.config["mesh"]["n"]
    assert workload.calls(0) != workload.calls(1)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_changes_data_not_size(name):
    def sizes(seed):
        calls = workloads.WORKLOADS[name].calls(seed)
        return [(c.command, c.config["mesh"]["n"], c.config["time"].get("dt")) for c in calls]

    assert all(sizes(seed) == sizes(0) for seed in SEEDS)


def test_self_time_subtracts_covered_child_time():
    recorded = [
        spans.Span("root", 0.0, 10.0, None),
        spans.Span("a", 1.0, 3.0, 0),
        spans.Span("a.inner", 1.5, 2.5, 1),
        spans.Span("b", 2.0, 5.0, 0),  # overlaps a: covered once
        spans.Span("c", 9.0, 12.0, 0),  # runs past its parent: clipped
    ]
    assert spans.self_times(recorded) == pytest.approx([10.0 - 4.0 - 1.0, 1.0, 1.0, 3.0, 3.0])


def test_tracer_nesting_and_dispatch_self_time():
    tracer = spans.Tracer()
    with tracer.span("call.resolvent"):
        with tracer.span("cli.dispatch") as dispatch:
            with tracer.span("evolution.build_system") as child:
                pass
    assert [s.parent for s in tracer.spans] == [None, 0, 1]
    metrics = spans.pass_metrics(tracer)
    assert metrics["cli.dispatch_self_s"] == pytest.approx(dispatch.duration - child.duration)
    assert metrics["cli.resolvent_s"] == tracer.spans[0].duration
    assert set(metrics) | {
        "evolution.manufactured_rel_err", "cli.resolvent_backward_error", "trace.overhead_frac"
    } == set(spans.LAYER_METRICS)


def test_installed_wraps_each_lookup_site_and_restores():
    originals = (cli.build_system, evolution.build_system, evolution.TimeStepper.step_free)
    assert cli.build_system is evolution.build_system
    tracer = spans.Tracer()
    doc = {
        "operator": "divergence", "coefficient": {"x0": 0.5, "K": 0.5},
        "wentzell": {"beta0": 1.0, "beta1": 1.0}, "mesh": {"n": 8},
        "time": {"T": 0.03, "dt": 0.01},
    }
    config = cli.parse_config(json.dumps(doc))
    with spans.installed(tracer):
        assert cli.build_system is not originals[0]
        assert evolution.build_system is not originals[1]
        evolution.run(config.problem)
    assert (cli.build_system, evolution.build_system, evolution.TimeStepper.step_free) == originals
    metrics = spans.pass_metrics(tracer)
    assert metrics["evolution.step_calls"] == 3
    assert metrics["discretization.build_mesh_s"] > 0.0
    assert metrics["forms.dense_bytes"] == 3 * 18 * 18 * 8


def _call(command="verify"):
    return workloads.Call(command, "case", {"time": {"T": 1.0}})


@pytest.mark.parametrize(
    "fake_main",
    [lambda argv: 1 / 0, lambda argv: 1, lambda argv: 0],
    ids=["raises", "nonzero-status", "missing-output"],
)
def test_forced_failure_is_counted_not_raised(tmp_path, fake_main):
    tally = worker.Tally()
    worker.run_pass(fake_main, [_call(), _call()], tmp_path, 0, tally, {})
    assert (tally.attempted, tally.failed, tally.failed_frac) == (2, 2, 1.0)


def test_gate_and_closed_form_failures(tmp_path):
    out = tmp_path / "case"
    out.mkdir()
    (out / "verification.json").write_text(json.dumps({"all_pass": False}))
    tally = worker.Tally()
    worker.execute(lambda argv: 0, _call("verify"), tmp_path, 0, tally)
    assert tally.failures == ["case: all_pass is false"]

    rate, T = 1.0, 0.25
    call = workloads.Call("run", "case", {
        "time": {"T": T}, "forcing": {"kind": "manufactured", "rate": rate},
    })
    exact = workloads.B77 * 2.718281828459045 ** (-2 * rate * T)
    for value, failed in ((exact * (1 + 1e-6), False), (exact * (1 + 1e-3), True)):
        (out / "summary.json").write_text(json.dumps({
            "energy_bound_ok": True, "contraction_ok": None, "final_norm_mu_sq": value,
        }))
        failure, diag = workloads.check_output(call, out)
        assert (failure is not None) == failed
        assert diag["manufactured_rel_err"] == pytest.approx(abs(value / exact - 1))


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in spans.LAYER_METRICS.items()
    }
    assert {m["name"] for m in spec["end_to_end"]} == {"pass_rel", "setup_s", "peak_rss_mb"}


def test_worker_runs_both_trees_in_one_process():
    seed = 3
    call, = workloads.WORKLOADS["march"].calls(seed)
    run_dir = HERE.parent / ".perfbench_out" / "test-worker"
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / f"{call.label}.json").write_text(json.dumps(call.config))
    args = worker.argparse.Namespace(
        workload="march", seed=seed, dir=str(run_dir.relative_to(HERE.parent)))
    replies = []
    commands = ["pass current 0", "peak", "load-reference", "pass reference", "quit"]
    worker.serve(args, commands, replies.append)
    ready, current, peak, loaded, reference, done = replies
    assert ready["environment"]["package"] == "src/wentzell4/__init__.py"
    assert sys.modules["wentzell4_reference"].__file__.endswith("reference/wentzell4/__init__.py")
    for reply in (current, reference):
        assert (reply["attempted"], reply["failures"], reply["layer"]) == (1, [], None)
        assert reply["seconds"]["run"] > 0.0
    assert peak["peak_rss_mb"] > 0.0
    assert loaded["ready"] and done["done"]
