"""Fourth-order parabolic problems with an interior degeneracy and
generalized Wentzell boundary conditions: conforming Galerkin assembly,
contraction time stepping, and a closed-form verification battery for the
structural properties of the continuous operators (symmetry,
non-negativity, coercivity, integration-by-parts identities, energy
estimates)."""

from .coefficient import (
    ConfigError,
    DegeneracyClass,
    DegenerateCoefficient,
    check_power_comparison,
    classify,
    constant_profile,
    power_profile,
    singular_moment,
)
from .discretization import (
    Mesh,
    QuadratureRule,
    WeightKind,
    build_mesh,
    evaluate,
    interpolate_poly,
    l2_error,
    weighted_rule,
)
from .evolution import (
    ProblemConfig,
    Scheme,
    TimeStepper,
    Trajectory,
    build_system,
    initial_dofs,
    resolvent_solve,
    run,
)
from .forms import (
    AssembledSystem,
    OperatorForm,
    WentzellParams,
    assemble,
)
from .oracle import (
    GreenReport,
    SpaceMembershipError,
    SpectralDecomposition,
    best_linear_fit,
    dense_decompose,
    exact_propagator,
    green_battery,
    green_residual,
    hardy_bound,
    norm_equivalence_report,
    pointwise_sqrt_bound,
    verification_report,
)
from .powers import DivergentIntegralError, PiecewisePower

__version__ = "0.1.0"
