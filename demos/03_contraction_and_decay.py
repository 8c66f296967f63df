"""Time integration: contraction, decay and the energy inequality.

With zero forcing the implicit Euler step is non-expansive in the measure
norm for every admissible configuration.  Neutral boundary terms leave
constants untouched (they sit in the kernel of the energy form); damped
boundary terms make the norm strictly decrease.  Every step records the
slack of the discrete energy inequality, nonpositive for implicit Euler;
the trajectory holds times, norms, energies and slacks as arrays.
"""
import io

from wentzell4 import OperatorForm, ProblemConfig, WentzellParams, power_profile, run

coeff = power_profile(0.5, 0.5)

neutral = ProblemConfig(
    OperatorForm.DIVERGENCE,
    coeff,
    WentzellParams(1.0, 1.0, 0.0, 0.0),
    T=1.0,
    dt=0.01,
    n=16,
    u0="one",
)
traj = run(neutral)
print("neutral boundary, u0 = 1 (steady state):")
print(f"  initial norm^2 {traj.norm_mu_sq[0]:.15f}")
print(f"  final   norm^2 {traj.norm_mu_sq[-1]:.15f}")
print(f"  contraction_ok = {traj.contraction_ok()}")

damped = ProblemConfig(
    OperatorForm.DIVERGENCE,
    coeff,
    WentzellParams(1.0, 1.0, -1.0, -1.0),
    T=1.0,
    dt=0.01,
    n=16,
    u0="one",
)
traj = run(damped)
norms = traj.norm_mu_sq
print("\ndamped boundary (gamma = -1), u0 = 1:")
print(f"  norm^2 decays {norms[0]:.4f} -> {norms[-1]:.4f}")
print(f"  strictly decreasing: {all(norms[1:] < norms[:-1])}")
print(f"  max energy-inequality slack: {max(traj.slacks):.3e} (must be <= 0)")
print(f"  Gronwall bound holds: {traj.energy_bound_ok()}")

# the strong state space pins u(x0) = 0, so pick a datum that vanishes
# there: (x - 1/2)^2 x (1 - x)
forced = ProblemConfig(
    OperatorForm.NON_DIVERGENCE,
    power_profile(0.5, 1.5),
    WentzellParams(1.0, 1.0, -1.0, -1.0),
    T=1.0,
    dt=0.01,
    n=16,
    u0={"poly": [0.0, 0.25, -1.25, 2.0, -1.0]},
    forcing={"kind": "separable", "space": "one", "rate": 1.0},
)
traj = run(forced)
print("\nstrong non-divergence with decaying forcing:")
print(f"  sup norm^2 {traj.sup_norm_sq:.4f}, energy integral {traj.energy_integral:.4f}")
print(f"  Gronwall bound holds: {traj.energy_bound_ok()}")

buf = io.StringIO()
traj.write_csv(buf)
print("\ntrajectory CSV head:")
print("\n".join(buf.getvalue().splitlines()[:4]))

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    plt.semilogy(traj.times, traj.norm_mu_sq)
    plt.xlabel("t")
    plt.ylabel("measure norm squared")
    plt.title("decay under boundary damping and fading forcing")
    plt.savefig("decay.png", dpi=120)
    print("\nwrote decay.png")
except ImportError:
    pass
