"""First Dirichlet eigenvalues of CD(K,N) model densities, with comparison
and rigidity checks, closed-form bounds, and warped-compactification mass
bounds built on top of them.

The names in ``__all__`` are exported lazily: ``import cdeigen`` loads no
submodule, and the first access to a name imports the submodule that
defines it (and with it numpy or scipy, as that submodule needs).
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("CdeigenError", "NonconvergenceError", "PreconditionError"),
    "modelspace": ("CdCheckReport", "Density", "check_cd_density", "max_diameter",
                   "model_density", "s_kappa"),
    "eigensolve": ("EigenSolution", "first_dirichlet_eigen", "weighted_integral"),
    "bounds": ("BoundValue", "bessel_first_zero", "closed_form_bound",
               "essential_spectrum_threshold", "neumann_upper_bound"),
    "comparison": ("ComparisonReport", "RigidityVerdict", "comparison_residual",
                   "composed_tolerance", "rigidity_check"),
    "physics": ("CompactificationSpec", "KkBoundResult", "kk_curvature",
                "kk_mass_bound_at", "kk_mass_bound_optimal"),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_SUBMODULE]


def __getattr__(name):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
