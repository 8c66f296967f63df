"""Cost of assembly, of the two step paths of ``run`` and of the pencil's
eigenvalues against the mesh size.

    OPENBLAS_NUM_THREADS=1 python3 bench/nsweep.py [--sizes 8 16 ...] \
        [--repeats 5] --out BENCH_36.json

Run from the repository root; the package is imported from ``src``.  For
each n (default 8, 16, ..., 512 elements) and both operator forms it
builds the step matrix of a benchmark-like run (divergence: weak class,
Crank-Nicolson, dt = 0.01; non-divergence: strong class, implicit Euler,
dt = 4e-4) and measures, each the median over ``--repeats`` rounds that
time every quantity once, so that a slow spell of the machine falls on
all of them alike, with the minimum over the rounds beside it under the
same key plus ``_min``.  Each round starts one quantity later than the
round before, so no quantity is always the first of its round, whose
timing reads high on small meshes:

  assemble_ms       one ``build_system``: mesh, quadrature rules and the
                    rows (n, 7) of M and K
  banded_step_us    one ``step_free`` by the refined banded solve
  solve_us          one refined banded solve ``_BandedSPD.solve`` of the
                    step matrix: two plain solves and one longdouble
                    residual
  plain_solve_us    one plain solve ``_BandedSPD._solve_once`` (the
                    equilibration scaling and LAPACK ``dpbtrs``)
  matvec_us         one float ``band_matvec`` of the step's R = M -
                    (1 - theta) dt K, the product R u a banded step forms
                    before its solve
  ld_matvec_us      one longdouble ``band_matvec`` of the step matrix's
                    rows ``_BandedSPD.rows`` with a float vector, the
                    product of the refined solve's residual
  dense_step_us     one propagator product ``S.dot``, chained on fresh
                    arrays that store no state
  propagator_loop_us  one step of ``run``'s unforced propagator loop,
                    ``S.dot`` into the next row of the states in place,
                    timed over 2 * dofs steps
  csv_row_us        ``Trajectory.write_csv`` (``csvtext.write_csv``) of
                    those 2 * dofs steps, per row of its 5 fields: one
                    ``%`` format up to 66 dofs, the numpy formatter
                    (``csvtext.rows``) from 129 dofs, where the rows hold
                    ``csvtext._VECTOR_CSV_MIN_VALUES`` floats
  spectrum_ms       what ``spectrum`` computes at its default count
                    (``cli.SPECTRUM_COUNT``), ``forms.pencil_spectrum``:
                    the bottom eigenvalues with their bounds, the
                    largest and the kernel count, by the dense solve up
                    to ``forms._DENSE_SPECTRUM_MAX_DOFS`` dofs and by
                    shift-invert Lanczos and Cholesky bisection above
  spectrum_all_ms   every eigenvalue with its bound, by the dense solve
                    ``forms._dense_spectrum`` (O(n^3); ``spectrum``
                    serves a full list only up to the dense path's cap)
  inverse_build_ms  ``TimeStepper.propagator``: forming S = A^{-1} R by
                    the refined banded solve of the columns of R (the
                    name is that of earlier BENCH files, whose keys stay
                    fixed)
  break_even_steps  inverse_build / (banded_step - dense_step): the step
                    count from which forming S pays; null where the dense
                    step is not faster
  norm_rel_diff     largest relative difference of the squared M-norms of
                    the two paths over 2 * dofs steps from one initial state

and, read off the rows, ``dense_max_dofs``: the largest dof count up to
which every row repays forming S within ``dense_min_steps_per_dof``
steps per dof, the shortest run ``run`` forms it for, with the
margin ``break_even_margin``: a row counts only if it breaks even within
that fraction of the steps, and a mesh size only if both of its rows
count.  Break-even counts near the threshold (sweeps of one tree gave
1.1 to 4 steps per dof at 513 and 514 dofs) would otherwise flip the
reading between sweeps.  It prints one line per row and writes all of
it as JSON to ``--out``.  Time it on an idle machine with BLAS at one
thread, as the benchmark runs the package.
"""
from __future__ import annotations

import argparse
import io
import itertools
import json
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from wentzell4.cli import SPECTRUM_COUNT  # noqa: E402
from wentzell4.coefficient import power_profile  # noqa: E402
from wentzell4.evolution import (  # noqa: E402
    _DENSE_MIN_STEPS_PER_DOF,
    ProblemConfig,
    Scheme,
    TimeStepper,
    build_system,
    initial_dofs,
    make_state,
)
from wentzell4.forms import (  # noqa: E402
    OperatorForm,
    WentzellParams,
    _dense_spectrum,
    band_matvec,
    pencil_spectrum,
)
from wentzell4.oracle import expected_kernel  # noqa: E402

SIZES = (8, 16, 32, 64, 128, 256, 512)
# (form, exponent K, scheme, dt): the step matrices of evolve and march
CASES = (
    (OperatorForm.DIVERGENCE, 0.5, Scheme.CRANK_NICOLSON, 0.01),
    (OperatorForm.NON_DIVERGENCE, 1.5, Scheme.IMPLICIT_EULER, 4e-4),
)
# the timed quantities, in the order of the first round
TIMINGS = (
    "assemble_ms", "banded_step_us", "solve_us", "plain_solve_us", "matvec_us", "dense_step_us",
    "inverse_build_ms", "propagator_loop_us", "csv_row_us", "ld_matvec_us",
    "spectrum_ms", "spectrum_all_ms",
)
ROW_KEYS = (
    "form", "n", "dofs", "assemble_ms", "banded_step_us", "solve_us", "plain_solve_us",
    "matvec_us", "dense_step_us", "inverse_build_ms", "break_even_steps", "norm_rel_diff",
    "propagator_loop_us", "csv_row_us", "ld_matvec_us", "spectrum_ms", "spectrum_all_ms",
) + tuple(f"{key}_min" for key in TIMINGS)
KEYS = ("python", "numpy", "machine", "sizes", "rows", "dense_max_dofs",
        "dense_min_steps_per_dof", "break_even_margin")
STEPS_PER_TIMING = 50
# a row repays S if it breaks even within this fraction of the shortest
# run that forms it
BREAK_EVEN_MARGIN = 0.75


def _seconds(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def _chain(step, u, count=STEPS_PER_TIMING):
    for _ in range(count):
        u = step(u)


def _same(fn, *args, count=STEPS_PER_TIMING):
    for _ in range(count):
        fn(*args)


def _propagate_rows(propagate, states):
    """The unforced propagator loop of ``run`` (which also counts the
    steps): each state written into its row of ``states``."""
    for state, after in itertools.pairwise(states):
        propagate(state, after)


def measure(form, K, scheme, dt, n, repeats):
    """One row: the two step paths of one step matrix."""
    config = ProblemConfig(form, power_profile(0.5, K), WentzellParams(1.0, 1.0, -0.5, -0.5),
                           T=1.0, dt=dt, n=n, scheme=scheme, u0="bump_cubed")
    system = build_system(config)
    u0 = initial_dofs(system, config.u0)
    m = len(u0)
    stepper = TimeStepper(system, dt, scheme)
    S = stepper.propagator()
    solver, b = stepper._solver, stepper.step_free(u0)
    states = np.empty((2 * m + 1, m))
    states[0] = u0
    _propagate_rows(S.dot, states)
    trajectory = make_state(system, scheme, dt, states)
    timed = {
        "assemble_ms": lambda: _seconds(build_system, config),
        "banded_step_us": lambda: _seconds(_chain, stepper.step_free, u0) / STEPS_PER_TIMING,
        "solve_us": lambda: _seconds(_same, solver.solve, b) / STEPS_PER_TIMING,
        "plain_solve_us": lambda: _seconds(_same, solver._solve_once, b) / STEPS_PER_TIMING,
        "matvec_us": lambda: _seconds(_same, band_matvec, stepper._rhs, u0) / STEPS_PER_TIMING,
        "dense_step_us": lambda: _seconds(_chain, S.dot, u0) / STEPS_PER_TIMING,
        "inverse_build_ms": lambda: _seconds(stepper.propagator),
        "propagator_loop_us": lambda: _seconds(_propagate_rows, S.dot, states) / (2 * m),
        "csv_row_us": lambda: _seconds(trajectory.write_csv, io.StringIO()) / len(states),
        "ld_matvec_us": lambda: _seconds(_same, band_matvec, solver.rows, u0) / STEPS_PER_TIMING,
        "spectrum_ms": lambda: _seconds(pencil_spectrum, system.M, system.K, SPECTRUM_COUNT,
                                        expected_kernel(system)),
        "spectrum_all_ms": lambda: _seconds(_dense_spectrum, system.M, system.K, m),
    }
    rounds = []
    for r in range(repeats):
        start = r % len(TIMINGS)
        seconds = {key: timed[key]() for key in TIMINGS[start:] + TIMINGS[:start]}
        rounds.append([seconds[key] for key in TIMINGS])
    scales = [1e3 if key.endswith("_ms") else 1e6 for key in TIMINGS]  # from seconds
    columns = list(zip(TIMINGS, zip(*rounds), scales))
    medians = {key: statistics.median(t) * c for key, t, c in columns}
    minima = {f"{key}_min": min(t) * c for key, t, c in columns}
    banded_us, dense_us = medians["banded_step_us"], medians["dense_step_us"]
    build_us = medians["inverse_build_ms"] * 1e3
    banded_norms = _norms(system, stepper.step_free, u0, 2 * m)
    dense_norms = _norms(system, S.dot, u0, 2 * m)
    row = {"form": form.value, "n": n, "dofs": m, **medians}
    row["break_even_steps"] = build_us / (banded_us - dense_us) if dense_us < banded_us else None
    row["norm_rel_diff"] = float(np.max(np.abs(dense_norms - banded_norms) / banded_norms))
    row.update(minima)
    return {key: row[key] for key in ROW_KEYS}


def _norms(system, step, u, count):
    norms = [system.mass_norm_sq(u)]
    for _ in range(count):
        u = step(u)
        norms.append(system.mass_norm_sq(u))
    return np.array(norms)


def sweep(sizes=SIZES, repeats=5, report=None):
    rows = []
    for n in sizes:
        for case in CASES:
            rows.append(measure(*case, n, repeats))
            if report:
                report(rows[-1])
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": f"{platform.machine()} {platform.processor()}".strip(),
        "sizes": list(sizes),
        "rows": rows,
        "dense_max_dofs": dense_max_dofs(rows),
        "dense_min_steps_per_dof": _DENSE_MIN_STEPS_PER_DOF,
        "break_even_margin": BREAK_EVEN_MARGIN,
    }


def dense_max_dofs(rows):
    """The largest dof count of a mesh size n up to which every row, of
    either form, breaks even within ``BREAK_EVEN_MARGIN *
    _DENSE_MIN_STEPS_PER_DOF`` steps per dof."""
    max_dofs = 0
    for n in sorted({row["n"] for row in rows}):
        size = [row for row in rows if row["n"] == n]
        limit = BREAK_EVEN_MARGIN * _DENSE_MIN_STEPS_PER_DOF
        if any(r["break_even_steps"] is None or r["break_even_steps"] > limit * r["dofs"] for r in size):
            break
        max_dofs = max(r["dofs"] for r in size)
    return max_dofs


def _print_row(row):
    steps = row["break_even_steps"]
    print(f"{row['form']:>13} n={row['n']:4d} dofs={row['dofs']:5d}  "
          f"assemble {row['assemble_ms']:6.2f} ms  "
          f"banded {row['banded_step_us']:8.1f} us (solve {row['solve_us']:7.1f}, "
          f"dpbtrs {row['plain_solve_us']:6.1f}, matvec {row['matvec_us']:6.1f}, "
          f"ld matvec {row['ld_matvec_us']:6.1f})  dense {row['dense_step_us']:8.1f} us  "
          f"loop {row['propagator_loop_us']:8.1f} us  csv row {row['csv_row_us']:5.2f} us  "
          f"inverse {row['inverse_build_ms']:8.2f} ms  break-even {'-' if steps is None else f'{steps:.0f}'} steps  "
          f"spectrum {row['spectrum_ms']:7.2f} ms (all {row['spectrum_all_ms']:7.2f})  "
          f"norm diff {row['norm_rel_diff']:.1e}", flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=list(SIZES))
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    result = sweep(args.sizes, args.repeats, report=_print_row)
    print(f"dense_max_dofs {result['dense_max_dofs']}  "
          f"dense_min_steps_per_dof {result['dense_min_steps_per_dof']}  "
          f"break_even_margin {result['break_even_margin']}")
    args.out.write_text(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    main()
