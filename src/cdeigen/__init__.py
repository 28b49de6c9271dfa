"""First Dirichlet eigenvalues of CD(K,N) model densities, with comparison
and rigidity checks, closed-form bounds, and warped-compactification mass
bounds built on top of them."""

__version__ = "0.1.0"

from .errors import CdeigenError, NonconvergenceError, PreconditionError
from .modelspace import (
    CdCheckReport,
    Density,
    check_cd_density,
    max_diameter,
    model_density,
    s_kappa,
)
from .eigensolve import (
    EigenSolution,
    GridSpec,
    WeightedEigenProblem,
    assemble_weighted_problem,
    first_dirichlet_eigen,
    flux_identity_residual,
    shoot_eigen,
    weighted_integral,
)
from .bounds import (
    BoundValue,
    bessel_first_zero,
    closed_form_bound,
    essential_spectrum_threshold,
    neumann_upper_bound,
)
from .comparison import (
    ComparisonReport,
    RigidityVerdict,
    cd_density_family,
    comparison_residual,
    composed_tolerance,
    rigidity_check,
)
from .physics import (
    CompactificationSpec,
    KkBoundResult,
    kk_curvature,
    kk_mass_bound_at,
    kk_mass_bound_optimal,
)

__all__ = [
    "__version__",
    "CdeigenError",
    "NonconvergenceError",
    "PreconditionError",
    "CdCheckReport",
    "Density",
    "check_cd_density",
    "max_diameter",
    "model_density",
    "s_kappa",
    "EigenSolution",
    "GridSpec",
    "WeightedEigenProblem",
    "assemble_weighted_problem",
    "first_dirichlet_eigen",
    "flux_identity_residual",
    "shoot_eigen",
    "weighted_integral",
    "BoundValue",
    "bessel_first_zero",
    "closed_form_bound",
    "essential_spectrum_threshold",
    "neumann_upper_bound",
    "ComparisonReport",
    "RigidityVerdict",
    "cd_density_family",
    "comparison_residual",
    "composed_tolerance",
    "rigidity_check",
    "CompactificationSpec",
    "KkBoundResult",
    "kk_curvature",
    "kk_mass_bound_at",
    "kk_mass_bound_optimal",
]
