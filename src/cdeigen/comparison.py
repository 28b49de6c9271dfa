"""Spectral comparison inequality on weighted intervals, with rigidity.

For any CD(K,N) density h on [0, r0] the model eigenpair (lambda, phi) of
h_{K,N} satisfies

    int_0^theta (phi')^2 h dtheta  <=  lambda * int_0^theta phi^2 h dtheta

for every theta in (0, r0].  Equality at theta = r0 forces h to be a positive
multiple of the model density; ``rigidity_check`` tests for that case by a
least-squares scale fit.

Between the nodes of the model solution, phi and phi' are the value and the
derivative of one C^1 cubic Hermite interpolant of the solution's nodal
(phi, phi'), the same one the flux-identity check integrates.  Both sides
are integrated in one adaptive Gauss-Kronrod pass: each point gets one
evaluation of h and one lookup of the interpolant, which gives phi and phi'
together, and the partition is refined until each side meets the
quadrature tolerance.  Only numpy and ``scipy.linalg`` (through the matrix
eigensolver) are loaded.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .eigensolve import _cubic_hermite, first_dirichlet_eigen, weighted_integral
from .errors import PreconditionError
from .modelspace import Density, ball_fits, check_cd_density, max_diameter

DEFAULT_SOLVER_TOL = 1e-8
DEFAULT_QUAD_TOL = 1e-10


def composed_tolerance(solver_tol: float = DEFAULT_SOLVER_TOL,
                       quad_tol: float = DEFAULT_QUAD_TOL) -> float:
    """Worst-case linear accumulation: two integrals plus the eigenvalue."""
    if not solver_tol > 0 or not quad_tol > 0:
        raise PreconditionError("domain", "tolerances must be positive")
    return 2.0 * solver_tol + 10.0 * quad_tol


@dataclass(frozen=True)
class ComparisonReport:
    """Both sides of the comparison inequality at a single theta.

    gap = rhs - lhs is nonnegative (up to tolerance) for CD(K,N) densities;
    relative_gap divides by rhs.
    """

    theta: float
    lhs: float
    rhs: float
    gap: float
    relative_gap: float


@dataclass(frozen=True)
class RigidityVerdict:
    rigid: bool
    fitted_c: float | None
    max_relative_density_deviation: float
    relative_gap: float


@lru_cache(maxsize=64)
def _model_eigen_interpolant(K: float, N: float, r0: float, tol: float):
    # phi is the test function on all of [0, theta], not only where h_{K,N}
    # puts its mass, so the solve refines all of [0, r0]
    sol = first_dirichlet_eigen(Density.model(K, N, right=r0), r0, tol=tol, cut=False)
    return sol.eigenvalue, _cubic_hermite(sol.grid, sol.phi, sol.dphi)


def _validate_inputs(h: Density, K: float, N: float, r0: float, theta: float) -> None:
    if not (ball_fits(K, N, r0) and r0 > 0):
        raise PreconditionError("domain", f"r0 must lie in (0, (1 - 1e-12) "
                                          f"{max_diameter(K, N)}), got {r0}")
    if not 0 < theta <= r0:
        raise PreconditionError("domain", f"theta must lie in (0, r0], got {theta}")
    if h.right < r0 * (1.0 - 1e-12):
        raise PreconditionError(
            "domain",
            f"density is defined only up to {h.right} < r0 = {r0}; refusing to extrapolate",
        )


def comparison_residual(h: Density, K: float, N: float, r0: float, theta: float,
                        solver_tol: float = DEFAULT_SOLVER_TOL,
                        quad_tol: float = DEFAULT_QUAD_TOL,
                        check_density: bool = True) -> ComparisonReport:
    """Evaluate both sides of the comparison inequality at theta.

    The eigenpair always comes from the model density h_{K,N}, so the ball
    of radius r0 must fit inside that model (``ball_fits``); only the
    measure in the two integrals is the general density h.  First h must
    pass ``check_cd_density`` on (0, r0) at its default per-node relative
    tolerance (only the nodes are tested when h interpolates in a dimension
    other than N), or ``PreconditionError("cd-violation")`` names the failing
    node.  Set ``check_density=False`` to skip that test (negative testing).
    """
    _validate_inputs(h, K, N, r0, theta)
    if check_density:
        report = check_cd_density(h, K, N, interval=(0.0, r0))
        if not report.satisfied:
            raise PreconditionError(
                "cd-violation",
                f"density fails CD({K},{N}): relative slack {report.worst_violation:.3e} "
                f"at node theta = {report.witness}",
            )
    lam, phi = _model_eigen_interpolant(float(K), float(N), float(r0), float(solver_tol))

    def squares(t):
        p, dp = phi(t)
        return np.stack((dp * dp, p * p))

    lhs, rhs = weighted_integral(squares, h, 0.0, theta, quad_tol).tolist()
    rhs *= lam
    gap = rhs - lhs
    if rhs <= 0:
        raise PreconditionError("domain", "right-hand integral vanished; degenerate density")
    return ComparisonReport(theta=float(theta), lhs=lhs, rhs=rhs, gap=gap,
                            relative_gap=gap / rhs)


def _deviation_grid(h: Density, r0: float) -> np.ndarray:
    # Sampled densities are compared on their own nodes, where interpolation
    # is exact; anything else gets midpoints of a uniform partition.
    if h.kind == "sampled":
        inside = h.grid[(h.grid > 0.0) & (h.grid < r0)]
        if inside.size >= 8:
            return inside
    edges = np.linspace(0.0, r0, 513)
    return 0.5 * (edges[:-1] + edges[1:])


def rigidity_check(h: Density, K: float, N: float, r0: float, tol: float,
                   solver_tol: float = DEFAULT_SOLVER_TOL,
                   quad_tol: float = DEFAULT_QUAD_TOL,
                   check_density: bool = True) -> RigidityVerdict:
    """Decide whether h is (numerically) a positive multiple of h_{K,N}.

    A least-squares scale c is fitted on a grid of (0, r0); the verdict is
    rigid when both the sup deviation |h - c h_{K,N}| (relative to the scale
    of c h_{K,N}) and the comparison relative gap at theta = r0 fall within
    tol.
    """
    if not tol > 0:
        raise PreconditionError("domain", f"tol must be positive, got {tol}")
    report = comparison_residual(h, K, N, r0, r0, solver_tol=solver_tol,
                                 quad_tol=quad_tol, check_density=check_density)
    grid = _deviation_grid(h, r0)
    hv = np.asarray(h(grid), dtype=float)
    mv = np.asarray(Density.model(K, N)(grid), dtype=float)
    denom = float(np.dot(mv, mv))
    if denom <= 0:
        raise PreconditionError("domain", "model density vanished on the fit grid")
    c = float(np.dot(hv, mv) / denom)
    if c <= 0:
        return RigidityVerdict(rigid=False, fitted_c=None,
                               max_relative_density_deviation=float("inf"),
                               relative_gap=report.relative_gap)
    deviation = float(np.max(np.abs(hv - c * mv)) / np.max(c * mv))
    rigid = deviation <= tol and abs(report.relative_gap) <= tol
    return RigidityVerdict(rigid=rigid, fitted_c=c,
                           max_relative_density_deviation=deviation,
                           relative_gap=report.relative_gap)

