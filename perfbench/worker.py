"""One long-lived process that runs passes of a workload on the
wentzell4 package of ``src`` and, on request, on the frozen reference
tree ``perfbench/reference``.

    python3 perfbench/worker.py --workload march --seed 1 --dir .perfbench_out/march-seed1 --cpu 1

``run.py`` starts it.  The worker imports ``src/wentzell4`` as
``wentzell4``, validates the workload's configs (written by ``run.py`` to
``<dir>/<label>.json``) with its ``parse_config``, then answers commands
read one per line from stdin, each with one JSON line on stdout:

  pass T [i]      one untraced pass of tree T (current or reference), or
                  of its i-th call only: per-command seconds, calls,
                  failures
  trace           one traced pass of current: the same plus the
                  per-layer metrics
  peak            peak resident memory of this process so far
  load-reference  import the reference tree as ``wentzell4_reference``
                  and validate the configs with it
  quit            end; the spans of the last traced pass are written to
                  ``<dir>/current/spans.json``

Both trees run in this one process, so an A/B pair of passes shares its
CPU, allocator and page layout, which differ between processes by a few
per cent for a whole run.

The BLAS thread variables are set by ``run.py`` before the worker starts.
"""
from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import platform
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = ROOT / "perfbench" / "reference"


class Tally:
    """Attempted and failed CLI calls."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    @property
    def failed(self):
        return len(self.failures)

    @property
    def failed_frac(self):
        return self.failed / self.attempted if self.attempted else 0.0

    def record(self, label, failure):
        self.attempted += 1
        if failure is not None:
            self.failures.append(f"{label}: {failure}")


def execute(main, call, out_dir, seed, tally, tracer=None):
    """Make one CLI call; returns (wall seconds, diagnostics).

    Only ``main`` is timed.  Any exception, a nonzero status or a failed
    output gate is recorded in ``tally`` instead of propagating.
    """
    argv = [call.command, "--config", str(out_dir / f"{call.label}.json"),
            "--out", str(out_dir / call.label), "--seed", str(seed)]
    failure, diag = None, {}
    start = time.perf_counter()
    try:
        with tracer.span(f"call.{call.command}") if tracer else nullcontext():
            status = main(argv)
    except Exception as exc:  # a crash is a failed call, not a benchmark error
        elapsed = time.perf_counter() - start
        where = traceback.extract_tb(exc.__traceback__)[-1]
        failure = f"raised {type(exc).__name__}: {exc} ({Path(where.filename).name}:{where.lineno})"
    else:
        elapsed = time.perf_counter() - start
        if status != 0:
            failure = f"exit status {status}"
        else:
            try:
                failure, diag = workloads.check_output(call, out_dir / call.label)
            except (OSError, KeyError, ValueError) as exc:
                failure = f"unreadable output: {type(exc).__name__}: {exc}"
    tally.record(call.label, failure)
    return elapsed, diag


def run_pass(main, calls, out_dir, seed, tally, diagnostics, tracer=None):
    """One pass over the workload's calls; returns per-command seconds."""
    seconds = {}
    for call in calls:
        elapsed, diag = execute(main, call, out_dir, seed, tally, tracer)
        seconds[call.command] = seconds.get(call.command, 0.0) + elapsed
        for key, value in diag.items():
            diagnostics[key] = max(diagnostics.get(key, 0.0), value)
    return seconds


def environment():
    import numpy
    import scipy
    import wentzell4

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "package": str(Path(wentzell4.__file__).resolve().relative_to(ROOT)),
        "import": "src/wentzell4 loaded by path as wentzell4; the package is not installed",
    }


def load(tree, package):
    """Import the wentzell4 package found in ``tree`` under the name
    ``package``; returns its cli module.  The package imports itself by
    relative imports only, so two trees load side by side."""
    init = tree / "wentzell4" / "__init__.py"
    if package not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            package, init, submodule_search_locations=[str(init.parent)])
        module = importlib.util.module_from_spec(spec)
        sys.modules[package] = module
        spec.loader.exec_module(module)
    return importlib.import_module(f"{package}.cli")


def prepare(cli, calls, config_dir, name):
    """Validate the configs with this tree's parser and copy them to the
    tree's own output directory."""
    out_dir = config_dir / name
    out_dir.mkdir(parents=True, exist_ok=True)
    for call in calls:
        text = (config_dir / f"{call.label}.json").read_text()
        cli.parse_config(text)  # a ConfigError here is a benchmark bug: no result
        (out_dir / f"{call.label}.json").write_text(text)
    return cli.main, out_dir


def serve(args, commands, reply):
    calls = workloads.WORKLOADS[args.workload].calls(args.seed)
    config_dir = ROOT / args.dir
    trees = {"current": prepare(load(SRC, "wentzell4"), calls, config_dir, "current")}
    reply({"ready": True, "environment": environment()})

    last_spans = None
    for line in commands:
        command, *rest = line.split()
        if command == "quit":
            break
        if command == "peak":
            reply({"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024})
            continue
        if command == "load-reference":
            trees["reference"] = prepare(
                load(REFERENCE, "wentzell4_reference"), calls, config_dir, "reference")
            reply({"ready": True})
            continue
        tally, diagnostics = Tally(), {}
        if command == "pass":
            tree, *index = rest
            main, out_dir = trees[tree]
            chosen = [calls[int(i)] for i in index] or calls
            seconds = run_pass(main, chosen, out_dir, args.seed, tally, diagnostics)
            layer = None
        elif command == "trace":
            main, out_dir = trees["current"]
            tracer = spans.Tracer()
            with spans.installed(tracer):
                seconds = run_pass(main, calls, out_dir, args.seed, tally, diagnostics, tracer)
            layer = spans.pass_metrics(tracer)
            last_spans = [vars(s) for s in tracer.spans]
        else:
            raise ValueError(f"unknown command {command!r}")
        reply({"seconds": seconds, "attempted": tally.attempted, "failures": tally.failures,
               "diagnostics": diagnostics, "layer": layer})
    if last_spans is not None:
        (config_dir / "current" / "spans.json").write_text(json.dumps(last_spans) + "\n")
    reply({"done": True})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True, help="run directory, relative to the repo root")
    parser.add_argument("--cpu", type=int, help="run on this CPU only")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    protocol = sys.stdout
    sys.stdout = sys.stderr  # anything the program prints stays off the protocol

    def reply(message):
        protocol.write(json.dumps(message) + "\n")
        protocol.flush()

    serve(args, sys.stdin, reply)
    return 0


if __name__ == "__main__":
    sys.exit(main())
