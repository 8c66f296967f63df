"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --seeds 1-10 --seconds 30 [--workload evolve ...] [--trace 0]

Runs ``perfbench/run.py`` once per (workload, seed), one after another,
and prints for every workload and metric the median, the quartiles and
the quartile spread as a share of the median, with its unit, plus the
failed calls over attempted calls.  This is the spread the end-to-end
bounds in BENCHMARK.json are set against.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for name in args.workload or list(workloads.WORKLOADS):
        values, units = {}, {}
        attempted = failed = 0
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=HERE.parent, capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
                units[metric] = entry["unit"]
        print(f"{name}: seeds {args.seeds[0]}-{args.seeds[-1]}, "
              f"failed_frac {failed / attempted:.4g} ({failed} of {attempted} calls)")
        for metric, series in values.items():
            median = statistics.median(series)
            if len(series) > 1:
                q1, _, q3 = statistics.quantiles(series, n=4)
            else:
                q1 = q3 = median
            spread = (q3 - q1) / median if median else float("nan")
            print(f"  {metric} {median:.6g} {units[metric]} "
                  f"(quartiles {q1:.6g}..{q3:.6g}, spread {spread:.3f})")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
