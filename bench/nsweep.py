"""Cost of assembly and of the two step paths of ``TimeStepper`` against
the mesh size.

    OPENBLAS_NUM_THREADS=1 python3 bench/nsweep.py [--sizes 8 16 ...] \
        [--repeats 5] --out BENCH_23.json

Run from the repository root; the package is imported from ``src``.  For
each n (default 8, 16, ..., 512 elements) and both operator forms it
builds the step matrix of a benchmark-like run (divergence: weak class,
Crank-Nicolson, dt = 0.01; non-divergence: strong class, implicit Euler,
dt = 4e-4) and measures, each a median over ``--repeats`` timings:

  assemble_ms       one ``build_system``: mesh, quadrature rules and the
                    bands of M and K
  banded_step_us    one ``step_free`` by the refined banded solve
  dense_step_us     one ``step_free`` by the propagator product
  inverse_build_ms  forming the propagator S = A^{-1} R by the refined
                    banded solve of the columns of R (the name is
                    that of earlier BENCH files, whose keys stay fixed)
  break_even_steps  inverse_build / (banded_step - dense_step): the step
                    count from which forming S pays; null where the dense
                    step is not faster
  norm_rel_diff     largest relative difference of the squared M-norms of
                    the two paths over 2 * dofs steps from one initial state

and, read off the rows, ``dense_max_dofs``: the largest dof count up to
which every row repays forming S within ``dense_min_steps_per_dof``
steps per dof, the shortest run ``TimeStepper`` forms it for.  It prints
one line per row and writes all of it as JSON to ``--out``.  Time it on
an idle machine with BLAS at one thread, as the benchmark runs the
package.
"""
from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from wentzell4.coefficient import power_profile  # noqa: E402
from wentzell4.evolution import (  # noqa: E402
    _DENSE_MIN_STEPS_PER_DOF,
    ProblemConfig,
    Scheme,
    TimeStepper,
    build_system,
    initial_dofs,
)
from wentzell4.forms import OperatorForm, WentzellParams  # noqa: E402

SIZES = (8, 16, 32, 64, 128, 256, 512)
# (form, exponent K, scheme, dt): the step matrices of evolve and march
CASES = (
    (OperatorForm.DIVERGENCE, 0.5, Scheme.CRANK_NICOLSON, 0.01),
    (OperatorForm.NON_DIVERGENCE, 1.5, Scheme.IMPLICIT_EULER, 4e-4),
)
ROW_KEYS = (
    "form", "n", "dofs", "assemble_ms", "banded_step_us", "dense_step_us", "inverse_build_ms",
    "break_even_steps", "norm_rel_diff",
)
KEYS = ("python", "numpy", "machine", "sizes", "rows", "dense_max_dofs",
        "dense_min_steps_per_dof")
STEPS_PER_TIMING = 50


def _median_seconds(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure(form, K, scheme, dt, n, repeats):
    """One row: the two step paths of one step matrix."""
    config = ProblemConfig(form, power_profile(0.5, K), WentzellParams(1.0, 1.0, -0.5, -0.5),
                           T=1.0, dt=dt, n=n, scheme=scheme, u0="bump_cubed")
    system = build_system(config)
    assemble_s = _median_seconds(lambda: build_system(config), repeats)
    stepper = TimeStepper(system, dt, scheme)  # no step count: banded
    u0 = initial_dofs(system, config.u0)
    m = len(u0)

    def steps(count):
        u = u0
        for _ in range(count):
            u = stepper.step_free(u)
        return u

    banded = _median_seconds(lambda: steps(STEPS_PER_TIMING), repeats) / STEPS_PER_TIMING
    banded_norms = _norms(system, stepper, u0, 2 * m)
    build_s = _median_seconds(stepper._form_propagator, repeats)  # from here on the stepper is dense
    dense = _median_seconds(lambda: steps(STEPS_PER_TIMING), repeats) / STEPS_PER_TIMING
    dense_norms = _norms(system, stepper, u0, 2 * m)
    return {
        "form": form.value,
        "n": n,
        "dofs": m,
        "assemble_ms": assemble_s * 1e3,
        "banded_step_us": banded * 1e6,
        "dense_step_us": dense * 1e6,
        "inverse_build_ms": build_s * 1e3,
        "break_even_steps": build_s / (banded - dense) if dense < banded else None,
        "norm_rel_diff": float(np.max(np.abs(dense_norms - banded_norms) / banded_norms)),
    }


def _norms(system, stepper, u, count):
    norms = [system.mass_norm_sq(u)]
    for _ in range(count):
        u = stepper.step_free(u)
        norms.append(system.mass_norm_sq(u))
    return np.array(norms)


def sweep(sizes=SIZES, repeats=5, report=None):
    rows = []
    for n in sizes:
        for case in CASES:
            rows.append(measure(*case, n, repeats))
            if report:
                report(rows[-1])
    max_dofs = 0
    for row in sorted(rows, key=lambda r: r["dofs"]):
        steps = row["break_even_steps"]
        if steps is None or steps > _DENSE_MIN_STEPS_PER_DOF * row["dofs"]:
            break
        max_dofs = row["dofs"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": f"{platform.machine()} {platform.processor()}".strip(),
        "sizes": list(sizes),
        "rows": rows,
        "dense_max_dofs": max_dofs,
        "dense_min_steps_per_dof": _DENSE_MIN_STEPS_PER_DOF,
    }


def _print_row(row):
    steps = row["break_even_steps"]
    print(f"{row['form']:>13} n={row['n']:4d} dofs={row['dofs']:5d}  "
          f"assemble {row['assemble_ms']:6.2f} ms  "
          f"banded {row['banded_step_us']:8.1f} us  dense {row['dense_step_us']:8.1f} us  "
          f"inverse {row['inverse_build_ms']:8.2f} ms  break-even {'-' if steps is None else f'{steps:.0f}'} steps  "
          f"norm diff {row['norm_rel_diff']:.1e}", flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=list(SIZES))
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    result = sweep(args.sizes, args.repeats, report=_print_row)
    print(f"dense_max_dofs {result['dense_max_dofs']}  "
          f"dense_min_steps_per_dof {result['dense_min_steps_per_dof']}")
    args.out.write_text(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    main()
