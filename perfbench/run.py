"""Benchmark of the wentzell4 command line.

    python3 perfbench/run.py --workload evolve --seed 1 --seconds 30 --trace 0

Run from the repository root.  The package is imported from ``src`` (it
need not be installed).  The seed generates the workload's config
documents; each is validated with the tree's ``parse_config`` before
anything is timed.  One *pass* is the workload's CLI calls, made in
process through ``cli.main`` by one worker process (``worker.py``) that
stays up for the whole run.

``--trace 0`` has the worker load, besides ``src``, the frozen reference
tree ``perfbench/reference`` (the package as it stood when the benchmark
was defined).  After one warm-up pass of each tree, it times passes in
pairs, one of each tree, until ``--seconds`` have elapsed; within a pair
the two trees make each call of the pass back to back, alternating which
goes first.  It reports the end-to-end metrics:

  pass_rel     median over pairs of (src pass time / reference pass
               time).  Both passes of a pair run back to back in the same
               process on the same CPU, so a change of the machine's speed
               cancels; the reference never changes, so a faster src
               lowers it.  The raw pass times are printed as well.
  setup_s      set-up time of src at the reference machine speed:
               REFERENCE_SETUP_S times the median, over SETUP_REPEATS
               pairs spread over the timed window, of (src set-up /
               reference set-up).  One set-up is a fresh interpreter that
               imports wentzell4.cli from the tree and parses the
               workload's configs; the two of a pair run back to back.
               The raw set-up times are printed as well.
  peak_rss_mb  peak resident memory of the worker (ru_maxrss / 1024)
               after its warm-up pass of src, before it loads the
               reference tree

Every timed process (the worker and set-up interpreters) is pinned to
one CPU, ``CPU``, and BLAS runs one thread.

``--trace 1`` never loads the reference tree; it alternates untraced and traced
passes and reports the per-layer metrics of ``spans.LAYER_METRICS``
(medians over traced passes) plus ``trace.overhead_frac``; the spans of
the last traced pass are written to
``.perfbench_out/<workload>-seed<seed>/current/spans.json``.

Every call's exit status and output gates are checked, for both trees; a
call that raises, exits nonzero or fails a gate counts in ``failed`` and
never aborts the run.  The last line of stdout is the JSON result; the
lines before it give the seed, the generated configs, the environment and
every metric by name with its unit.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from contextlib import ExitStack
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
# median set-up time of the reference tree on a 2-vCPU x86-64 VM (Python
# 3.11, numpy 2.4, scipy 1.17), the scale that turns the set-up ratio
# into seconds
REFERENCE_SETUP_S = 1.04
CHILD_TIMEOUT_S = 120.0

# Every timed process runs on this one CPU.  Processes left to the
# scheduler move between the CPUs of the VM, and the CPUs of a shared
# host differ in speed, by 10% or more, for a whole run.
CPU = max(os.sched_getaffinity(0))

# eigh and the 2-norm SVD in oneshot are multithreaded in OpenBLAS; one
# thread for every process, set before numpy is first imported
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

SETUP_CODE = """\
import os, sys
os.sched_setaffinity(0, {int(sys.argv.pop(1))})
from pathlib import Path
from wentzell4.cli import parse_config
for path in sys.argv[1:]:
    parse_config(Path(path).read_text())
"""


def child_env(tree=None):
    env = dict(os.environ, **BLAS_THREADS)
    if tree is not None:
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree), env.get("PYTHONPATH")]))
    return env


class Worker:
    """A ``worker.py`` process driven over its stdin and stdout."""

    def __init__(self, args, run_dir):
        self.done = False
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--dir", str(run_dir.relative_to(ROOT)), "--cpu", str(CPU)],
            cwd=ROOT, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.ready = self._read()

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker ended (status {self.proc.wait()})")
        return json.loads(line)

    def ask(self, command):
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self):
        """Ask the worker to quit, once, and reap it; a worker that does
        not end is killed."""
        try:
            if not self.done and self.proc.poll() is None:
                self.done = self.ask("quit")["done"]
        except (OSError, RuntimeError, ValueError):
            pass
        finally:
            try:
                self.proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class Results:
    """Pass replies of one worker: timings, calls and failures."""

    def __init__(self):
        self.passes, self.layers = [], []
        self.attempted, self.failures, self.diagnostics = 0, [], {}

    def add(self, reply):
        """Count the reply's calls; returns its seconds per command."""
        self.attempted += reply["attempted"]
        self.failures += reply["failures"]
        for key, value in reply["diagnostics"].items():
            self.diagnostics[key] = max(self.diagnostics.get(key, 0.0), value)
        if reply["layer"] is not None:
            self.layers.append(reply["layer"])
        return reply["seconds"]


def setup_once(tree, paths):
    """Wall seconds of one fresh interpreter importing wentzell4.cli from
    ``tree`` and parsing the configs."""
    argv = [sys.executable, "-c", SETUP_CODE, str(CPU), *map(str, paths)]
    start = time.perf_counter()
    child = subprocess.Popen(argv, env=child_env(tree), stdout=subprocess.DEVNULL)
    # a blocking wait: Popen.wait(timeout=...) polls in 50 ms steps,
    # which would quantize the measurement
    watchdog = threading.Timer(CHILD_TIMEOUT_S, child.kill)
    watchdog.start()
    try:
        status = child.wait()
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - start
    if status != 0:
        raise subprocess.CalledProcessError(status, argv)
    return elapsed


def measure_untraced(args, calls, run_dir, config_paths, stack):
    worker = Worker(args, run_dir)
    stack.callback(worker.close)
    results = {"current": Results(), "reference": Results()}
    # warm-up; peak memory is taken after one pass of src alone, before
    # the reference tree is loaded into the same process
    results["current"].add(worker.ask("pass current"))
    peak = worker.ask("peak")["peak_rss_mb"]
    worker.ask("load-reference")
    results["reference"].add(worker.ask("pass reference"))

    ratios, setups = [], []

    def setup_pair():
        trees = (SRC, REFERENCE) if len(setups) % 2 == 0 else (REFERENCE, SRC)
        seconds = {tree: setup_once(tree, config_paths) for tree in trees}
        setups.append((seconds[SRC], seconds[REFERENCE]))

    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or not ratios:
        due = SETUP_REPEATS * (time.perf_counter() - start) / args.seconds
        if len(setups) < min(SETUP_REPEATS, due):
            setup_pair()
        seconds = {"current": {}, "reference": {}}
        for i in range(len(calls)):
            order = ("current", "reference") if (len(ratios) + i) % 2 == 0 else ("reference", "current")
            for tree in order:
                reply = results[tree].add(worker.ask(f"pass {tree} {i}"))
                for command, value in reply.items():
                    seconds[tree][command] = seconds[tree].get(command, 0.0) + value
        for name, per_command in seconds.items():
            results[name].passes.append(per_command)
        ratios.append(sum(seconds["current"].values()) / sum(seconds["reference"].values()))
    while len(setups) < SETUP_REPEATS:
        setup_pair()

    worker.close()
    metrics = {
        "pass_rel": (statistics.median(ratios), "ratio"),
        "setup_s": (REFERENCE_SETUP_S * statistics.median(s / r for s, r in setups), "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    samples = (
        f"{len(ratios)} pairs, pass_rel per pair " + " ".join(f"{r:.4f}" for r in ratios)
        + "; set-up s (src/reference) per pair " + " ".join(f"{s:.4f}/{r:.4f}" for s, r in setups)
    )
    return results, metrics, samples, worker.ready["environment"]


def measure_traced(args, run_dir, stack):
    worker = Worker(args, run_dir)
    stack.callback(worker.close)
    results = Results()
    results.add(worker.ask("pass current"))  # warm-up
    traced = []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or not traced:
        results.passes.append(results.add(worker.ask("pass current")))
        traced.append(sum(results.add(worker.ask("trace")).values()))
    worker.close()
    untraced = [sum(p.values()) for p in results.passes]

    layer = spans.median_metrics(results.layers)
    layer["evolution.manufactured_rel_err"] = results.diagnostics.get("manufactured_rel_err", 0.0)
    layer["cli.resolvent_backward_error"] = results.diagnostics.get("resolvent_backward_error", 0.0)
    layer["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    metrics = {k: (layer[k], unit) for k, (unit, _) in spans.LAYER_METRICS.items()}
    return {"current": results}, metrics, f"{len(untraced)} untraced passes", worker.ready["environment"]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    for tree in (SRC, REFERENCE):
        if not (tree / "wentzell4" / "cli.py").is_file():
            print(f"perfbench: no package source at {tree / 'wentzell4'}", file=sys.stderr)
            return 2

    workload = workloads.WORKLOADS[args.workload]
    calls = workload.calls(args.seed)
    run_dir = OUT / f"{workload.name}-seed{args.seed}"
    run_dir.mkdir(parents=True, exist_ok=True)
    config_paths = []
    for call in calls:
        path = run_dir / f"{call.label}.json"
        path.write_text(json.dumps(call.config, indent=2, sort_keys=True) + "\n")
        config_paths.append(path)

    with ExitStack() as stack:  # every worker is closed and reaped on every way out
        if args.trace:
            results, metrics, samples, environment = measure_traced(args, run_dir, stack)
        else:
            results, metrics, samples, environment = measure_untraced(
                args, calls, run_dir, config_paths, stack)

    print(json.dumps({
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "why": workload.why, "configs": {c.label: c.config for c in calls},
        "environment": environment,
        **({"layer_metric_moves": {k: v for k, (_, v) in spans.LAYER_METRICS.items()}}
           if args.trace else {}),
    }, sort_keys=True))

    attempted = sum(r.attempted for r in results.values())
    failures = [f"{tree}: {f}" for tree, r in results.items() for f in r.failures]
    for tree, r in results.items():
        for command in dict.fromkeys(c.command for c in calls):
            value = statistics.median(p[command] for p in r.passes)
            print(f"{tree} {command}_s {value:.6g} s (median of {len(r.passes)} passes)")
    print(f"samples: {samples}")
    failed_frac = len(failures) / attempted
    print(f"failed_frac {failed_frac:.6g} ratio ({len(failures)} of {attempted} calls)")
    for reason in failures:
        print(f"failed: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
