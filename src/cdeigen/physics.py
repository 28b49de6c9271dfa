"""Spin-2 mass bounds for warped compactifications.

A warped product with total dimension D, spacetime dimension d, cosmological
constant Lambda and warp-gradient bound sigma_w has internal Bakry-Emery
curvature at least

    K(N) = Lambda - (N + d - 2) sigma_w^2 / ((D - 2)(N - D + d))

for every synthetic dimension N > D - d.  The j-th spin-2 Kaluza-Klein mass
then obeys m_j^2 <= lambda_{K(N), N, diam/(2j)}, and N is a free parameter to
optimize over.

``kk_mass_bound_optimal`` scans a logarithmic grid in N - (D - d) and refines
the best bracket by golden-section search.  With the closed form, the grid
is one array pass (K(N), the infeasible points and the closed forms, each
in one call), on Bessel zeros computed once per D - d and grid size; the
golden-section steps evaluate one N at a time through ``kk_mass_bound_at``.
The closed form loads no scipy: ``bounds`` finds the Bessel zeros with
``math`` alone, one order at a time, through its zero cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bounds import (_MAX_ORDER, _model_eigenvalue, bessel_first_zeros, closed_form_values,
                     mode_radius)
from .errors import NonconvergenceError, PreconditionError
from .modelspace import ball_fits, max_diameter

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Largest N-scan grid.  It bounds a scan's memory and that of the cached
# grids (three arrays of this size each), and keeps a solver scan finite.
_MAX_GRID_POINTS = 10_000


@dataclass(frozen=True)
class CompactificationSpec:
    """Warped-compactification data in one consistent length unit.

    sigma_w is the supremum of |grad f| for the warp function f; diam is the
    diameter of the internal space.
    """

    D: int
    d: int
    Lambda: float
    sigma_w: float
    diam: float

    def __post_init__(self):
        for name in ("D", "d"):
            value = getattr(self, name)
            if not float(value).is_integer():
                raise PreconditionError("domain", f"{name} must be an integer, got {value}")
        if not self.D > self.d >= 1:
            raise PreconditionError(
                "domain", f"need D > d >= 1, got D={self.D}, d={self.d}"
            )
        if not (math.isfinite(self.diam) and self.diam > 0):
            raise PreconditionError("domain", f"diam must be finite positive, got {self.diam}")
        if not (math.isfinite(self.sigma_w) and self.sigma_w >= 0):
            raise PreconditionError("domain", f"sigma_w must be nonnegative, got {self.sigma_w}")
        if not math.isfinite(self.Lambda):
            raise PreconditionError("domain", f"Lambda must be finite, got {self.Lambda}")

    @property
    def n_internal(self) -> int:
        return int(self.D) - int(self.d)


def kk_curvature(spec: CompactificationSpec, N):
    """Curvature parameter K(N) of the internal weighted geometry; elementwise
    for an array of N."""
    n = spec.n_internal
    array = isinstance(N, np.ndarray)
    if not (np.all(N > n) if array else N > n):
        raise PreconditionError("domain", f"N must exceed D - d = {n}, got {N}")
    if spec.sigma_w == 0.0:
        return np.full(N.shape, spec.Lambda) if array else spec.Lambda
    if spec.D == 2:
        raise PreconditionError("domain", "D = 2 with a nonzero warp gradient is degenerate")
    return spec.Lambda - (N + spec.d - 2.0) * spec.sigma_w ** 2 / (
        (spec.D - 2.0) * (N - n)
    )


def kk_mass_bound_at(spec: CompactificationSpec, j: int, N: float,
                     method: str = "solver", solver_tol: float = 1e-8) -> float:
    """Upper bound on m_j^2 at a fixed synthetic dimension N.

    method="solver" evaluates lambda_{K(N),N,r0} with the eigensolver;
    method="closed_form" uses the explicit bound formulas, which are exact
    only at K = 0 or N = 3 and otherwise valid but possibly weaker.  An N
    whose ball of radius r0 = diam/(2j) does not fit inside the (K(N), N)
    model (``ball_fits``) is ``infeasible``, by either method.
    """
    eigenvalue = _model_eigenvalue(method)
    K = kk_curvature(spec, N)
    r0 = mode_radius(spec.diam, j)
    if not ball_fits(K, N, r0):
        raise PreconditionError(
            "infeasible", f"r0 = {r0} must stay below (1 - 1e-12) times the model "
                          f"diameter {max_diameter(K, N)} at N={N}")
    return eigenvalue(K, N, r0, solver_tol)


@dataclass(frozen=True)
class KkBoundResult:
    """Outcome of the N-optimization of the mass bound.

    bracketed=False flags an objective that stayed monotone across the
    scanned range (minimum reported at a search boundary); note carries the
    human-readable diagnostic.
    """

    j: int
    N_star: float
    K_star: float
    bound: float
    method: str
    profile: tuple | None
    bracketed: bool
    note: str


def _objective(spec, j, method, solver_tol):
    def f(N: float) -> float:
        try:
            return kk_mass_bound_at(spec, j, N, method=method, solver_tol=solver_tol)
        except PreconditionError as exc:
            if exc.code == "infeasible":
                return math.inf
            raise
        except NonconvergenceError as exc:
            raise NonconvergenceError(
                exc.code, f"at N={N:.17g}, K(N)={kk_curvature(spec, N):.17g}: {exc.message}"
            ) from exc
    return f


@lru_cache(maxsize=64)
def _scan_grid(n: int, points: int):
    """The N-scan's grid u = N - n, logarithmic in [1e-3, 1000 n - n], its
    N = n + u and the Bessel zeros j_{N/2-1,1} of the closed forms there
    (NaN where one fails).  They depend only on n = D - d and the grid size,
    so every spec and mode index with that n shares them."""
    us = np.geomspace(1e-3, 1000.0 * n - n, points)
    Ns = n + us
    try:
        zeros = bessel_first_zeros(Ns / 2.0 - 1.0)
    except PreconditionError as exc:
        # The orders N/2 - 1 grow along the scan, so the first one past the
        # supported range is the one that failed.
        N = Ns[np.searchsorted(Ns / 2.0 - 1.0, _MAX_ORDER, side="right")]
        raise PreconditionError(exc.code, f"at N={N:.17g}: {exc.message}") from None
    grid = us, Ns, zeros
    for a in grid:
        a.setflags(write=False)
    return grid


def _closed_form_scan(spec: CompactificationSpec, j: int, Ns, zeros):
    """``kk_mass_bound_at(spec, j, N, method="closed_form")`` at every N of an
    array in one pass, bit for bit: +inf where the ball of radius r0 does
    not fit inside the model (``ball_fits``), NaN where the closed form
    fails."""
    K = kk_curvature(spec, Ns)
    r0 = mode_radius(spec.diam, j)
    feasible = ball_fits(K, Ns, r0)
    vals = np.full(Ns.shape, math.inf)
    v = closed_form_values(K[feasible], Ns[feasible], r0, zeros[feasible])
    vals[feasible] = np.where(np.isfinite(v), v, np.nan)
    return vals


def kk_mass_bound_optimal(spec: CompactificationSpec, j: int = 1,
                          method: str = "closed_form", grid_points: int = 160,
                          golden_tol: float = 1e-6, want_profile: bool = False,
                          solver_tol: float = 1e-8) -> KkBoundResult:
    """Minimize the mass bound over N in (D-d, 10^3 (D-d)].

    A logarithmic grid of ``grid_points`` values of u = N - (D-d) from 1e-3
    up (an integer in [8, ``_MAX_GRID_POINTS``]) brackets the minimum;
    golden-section search in log u refines it to relative tolerance
    ``golden_tol``.  N values whose ball of radius r0 does not fit inside
    the model (``ball_fits``) are infeasible and excluded (treated as +inf).
    The closed-form grid is valued in one array pass, with the values
    ``kk_mass_bound_at`` gives point by point; the solver's is solved point
    by point.
    """
    if not (math.isfinite(grid_points) and float(grid_points).is_integer()):
        raise PreconditionError("domain", f"grid_points must be an integer, got {grid_points}")
    if not 8 <= grid_points <= _MAX_GRID_POINTS:
        raise PreconditionError(
            "domain", f"grid_points must lie in [8, {_MAX_GRID_POINTS}], got {grid_points}")
    if not 0 < golden_tol < 1e-1:
        raise PreconditionError("domain", f"golden_tol must lie in (0, 0.1), got {golden_tol}")
    n = spec.n_internal
    f = _objective(spec, j, method, solver_tol)
    try:
        us, Ns, zeros = _scan_grid(n, int(grid_points))
    except PreconditionError as exc:
        raise PreconditionError(exc.code, f"N-scan of {spec} {exc.message}") from None
    if method == "closed_form":
        vals = _closed_form_scan(spec, j, Ns, zeros)
        # A point the array pass could not value raises its own coded error.
        for i in np.flatnonzero(np.isnan(vals)):
            vals[i] = f(Ns[i])
    else:
        vals = np.array([f(N) for N in Ns])
    if not np.any(np.isfinite(vals)):
        raise PreconditionError(
            "infeasible", "every scanned N is infeasible for this compactification"
        )
    i = int(np.nanargmin(np.where(np.isfinite(vals), vals, np.nan)))
    profile = tuple((float(N), float(v)) for N, v in zip(Ns, vals)) if want_profile else None

    interior = 0 < i < us.size - 1 and np.isfinite(vals[i - 1]) and np.isfinite(vals[i + 1])
    if not interior:
        N_star = float(Ns[i])
        return KkBoundResult(
            j=int(j), N_star=N_star, K_star=kk_curvature(spec, N_star),
            bound=float(vals[i]), method=method, profile=profile, bracketed=False,
            note="objective is monotone across the scanned range; "
                 "minimum reported at a search boundary",
        )

    # Golden-section in log u on the bracketing triple.
    a, b = math.log(us[i - 1]), math.log(us[i + 1])
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(n + math.exp(x1)), f(n + math.exp(x2))
    # Width w in log u means u (hence N - (D-d)) is pinned to relative
    # accuracy about w, so the stop test is on the raw log-interval width.
    for _ in range(400):
        if b - a <= golden_tol:
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(n + math.exp(x1))
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(n + math.exp(x2))
    else:
        raise NonconvergenceError("golden", "golden-section failed to shrink the bracket")
    u_star = math.exp(0.5 * (a + b))
    N_star = float(n + u_star)
    bound = f(N_star)
    return KkBoundResult(
        j=int(j), N_star=N_star, K_star=kk_curvature(spec, N_star),
        bound=float(bound), method=method, profile=profile, bracketed=True, note="",
    )
