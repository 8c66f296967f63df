"""Manufactured-solution convergence study.

The exact solution exp(-t) x^3 (1-x)^3 for the divergence operator with
a = |x - 1/2|^(1/2) has a forcing that is singular at the degeneracy
point, so the load is assembled in weak form (exactly, for polynomial
witnesses).  Halving the mesh width then drives the final-time L2 error
down at better than first order, with the time error kept subordinate by
shrinking Crank-Nicolson steps.
"""
import math

import numpy as np

from wentzell4 import (
    OperatorForm,
    ProblemConfig,
    Scheme,
    WentzellParams,
    l2_error,
    power_profile,
    run,
)
from wentzell4.evolution import resolve_space_spec

T = 0.25
witness = np.polynomial.Polynomial(resolve_space_spec("bump_cubed"))

print(f"{'n':>4s} {'dt':>12s} {'L2 error at T':>14s} {'order':>7s}")
previous = None
for n in (8, 16, 32, 64):
    dt = T / (50 * (n // 8) ** 2)
    cfg = ProblemConfig(
        OperatorForm.DIVERGENCE,
        power_profile(0.5, 0.5),
        WentzellParams(1.0, 1.0, -1.0, -1.0),
        T=T,
        dt=dt,
        n=n,
        scheme=Scheme.CRANK_NICOLSON,
        u0="bump_cubed",
        forcing={"kind": "manufactured", "space": "bump_cubed", "rate": 1.0},
    )
    traj = run(cfg)
    final = traj.system.expand(traj.dofs[-1])
    err = l2_error(final, traj.system.mesh, lambda x: math.exp(-T) * witness(x))
    order = "" if previous is None else f"{math.log2(previous / err):7.2f}"
    print(f"{n:4d} {dt:12.3e} {err:14.4e} {order:>7s}")
    previous = err
