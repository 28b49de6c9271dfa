"""Model geometry for one-dimensional curvature-dimension spaces.

The central objects are the curvature-scaled sine ``s_kappa``, the distortion
coefficients ``sigma_coeff`` and ``tau_coeff`` built from it, the model weight
h_{K,N}(theta) = s_{K/(N-1)}(theta)^(N-1) on an interval [0, r0], and a
brute-force lattice validator for the CD(K,N) density inequality

    h(m)^(1/(N-1)) >= sigma^(1-t)(|t1-t0|) h(t0)^(1/(N-1))
                    + sigma^(t)(|t1-t0|) h(t1)^(1/(N-1)),

where m = (1-t) t0 + t t1 and sigma is taken at curvature K/(N-1).  The model
weight attains equality for every admissible triple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError

# Below this value of |kappa| * theta^2 the closed trig/hyperbolic forms are
# replaced by their common Taylor expansion; keeps evaluation continuous
# across kappa = 0 and avoids 0/0 at tiny arguments.
_SERIES_CUTOFF = 1e-8


def _as_theta_array(theta):
    th = np.asarray(theta, dtype=float)
    if np.any(th < 0) or np.any(~np.isfinite(th)):
        raise PreconditionError("domain", "theta must be finite and nonnegative")
    return th


def s_kappa(kappa: float, theta):
    """Generalized sine: the solution of u'' + kappa u = 0, u(0)=0, u'(0)=1.

    sin(sqrt(k) x)/sqrt(k) for k > 0, x for k = 0, sinh(sqrt(-k) x)/sqrt(-k)
    for k < 0.  Accepts scalar or array theta >= 0.
    """
    th = _as_theta_array(theta)
    scalar = th.ndim == 0
    th = np.atleast_1d(th)
    x2 = kappa * th * th
    out = np.empty_like(th)
    small = np.abs(x2) < _SERIES_CUTOFF
    xs = x2[small]
    out[small] = th[small] * (1.0 - xs / 6.0 * (1.0 - xs / 20.0 * (1.0 - xs / 42.0)))
    big = ~small
    if np.any(big):
        if kappa > 0:
            rk = math.sqrt(kappa)
            out[big] = np.sin(rk * th[big]) / rk
        else:
            rk = math.sqrt(-kappa)
            out[big] = np.sinh(rk * th[big]) / rk
    return float(out[0]) if scalar else out


def s_kappa_prime(kappa: float, theta):
    """Derivative of ``s_kappa`` in theta (cos / 1 / cosh branches)."""
    th = _as_theta_array(theta)
    scalar = th.ndim == 0
    th = np.atleast_1d(th)
    x2 = kappa * th * th
    out = np.empty_like(th)
    small = np.abs(x2) < _SERIES_CUTOFF
    xs = x2[small]
    out[small] = 1.0 - xs / 2.0 * (1.0 - xs / 12.0 * (1.0 - xs / 30.0))
    big = ~small
    if np.any(big):
        if kappa > 0:
            out[big] = np.cos(math.sqrt(kappa) * th[big])
        else:
            out[big] = np.cosh(math.sqrt(-kappa) * th[big])
    return float(out[0]) if scalar else out


def _check_sigma_domain(kappa: float, theta: float) -> None:
    if kappa > 0 and theta >= math.pi / math.sqrt(kappa):
        raise PreconditionError(
            "domain",
            f"theta = {theta} is outside [0, pi/sqrt(kappa)) for kappa = {kappa}",
        )


def sigma_coeff(kappa: float, t: float, theta: float) -> float:
    """Distortion coefficient sigma^(t)_kappa(theta) = s_kappa(t theta)/s_kappa(theta).

    Defined for t in [0,1] and theta in [0, pi/sqrt(kappa)) when kappa > 0,
    any theta >= 0 otherwise.  At theta = 0 the limiting value t is returned.
    """
    if not 0.0 <= t <= 1.0:
        raise PreconditionError("domain", f"t must lie in [0, 1], got {t}")
    theta = float(theta)
    if theta < 0:
        raise PreconditionError("domain", "theta must be nonnegative")
    _check_sigma_domain(kappa, theta)
    if theta == 0.0:
        return float(t)
    return s_kappa(kappa, t * theta) / s_kappa(kappa, theta)


def max_diameter(K: float, N: float) -> float:
    """Diameter bound pi * sqrt((N-1)/K) for K > 0; +inf for K <= 0."""
    if N <= 1:
        raise PreconditionError("domain", f"dimension parameter N must exceed 1, got {N}")
    if K > 0:
        return math.pi * math.sqrt((N - 1) / K)
    return math.inf


def tau_coeff(K: float, N: float, t: float, theta: float) -> float:
    """Weighted distortion coefficient tau^(t)_{K,N}(theta).

    Equals t^(1/N) * sigma^(t)_{K/(N-1)}(theta)^((N-1)/N) for theta below the
    diameter bound, +inf past it when K > 0, and 0 when t = 0.
    """
    if N <= 1:
        raise PreconditionError("domain", f"dimension parameter N must exceed 1, got {N}")
    if not 0.0 <= t <= 1.0:
        raise PreconditionError("domain", f"t must lie in [0, 1], got {t}")
    if theta < 0:
        raise PreconditionError("domain", "theta must be nonnegative")
    if t == 0.0:
        return 0.0
    if K > 0 and theta >= max_diameter(K, N):
        return math.inf
    sig = t if theta == 0.0 else sigma_coeff(K / (N - 1), t, theta)
    return t ** (1.0 / N) * sig ** ((N - 1.0) / N)


def model_density(K: float, N: float, theta):
    """Model weight h_{K,N}(theta) = s_{K/(N-1)}(theta)^(N-1).

    Vanishes at theta = 0 (for N > 1) and, when K > 0, exactly at the
    diameter bound.  Evaluation past the diameter bound is an error.
    """
    d = max_diameter(K, N)
    th = _as_theta_array(theta)
    scalar = th.ndim == 0
    th = np.atleast_1d(th)
    if np.any(th > d * (1.0 + 1e-12)):
        raise PreconditionError(
            "domain", f"theta beyond the diameter bound {d} for K={K}, N={N}"
        )
    s = np.atleast_1d(s_kappa(K / (N - 1), np.minimum(th, d)))
    out = np.where(th >= d, 0.0, np.maximum(s, 0.0) ** (N - 1))
    return float(out[0]) if scalar else out


@dataclass(frozen=True, eq=False)
class Density:
    """A weight h on [0, right]; the reference measure is h(theta) d(theta).

    Two kinds exist.  ``model`` densities evaluate the closed form h_{K,N}.
    ``sampled`` densities carry nodes and values; between nodes they
    interpolate h^(1/(interp_dim - 1)) piecewise-linearly, which preserves
    the CD inequality structure under refinement.  Those node values
    g = values^(1/(interp_dim - 1)) are computed once, as ``g_values``.
    """

    kind: str
    right: float
    K: float | None = None
    N: float | None = None
    grid: np.ndarray | None = None
    values: np.ndarray | None = None
    interp_dim: float = 2.0
    g_values: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.kind == "sampled":
            object.__setattr__(self, "g_values",
                               self.values ** (1.0 / (self.interp_dim - 1.0)))

    @classmethod
    def model(cls, K: float, N: float, right: float | None = None) -> "Density":
        d = max_diameter(K, N)
        if right is None:
            right = d
        if right <= 0:
            raise PreconditionError("domain", f"right endpoint must be positive, got {right}")
        if right > d:
            raise PreconditionError(
                "domain", f"right endpoint {right} exceeds the diameter bound {d}"
            )
        return cls(kind="model", right=float(right), K=float(K), N=float(N))

    @classmethod
    def sampled(cls, grid, values, interp_dim: float = 2.0) -> "Density":
        g = np.asarray(grid, dtype=float)
        v = np.asarray(values, dtype=float)
        if g.ndim != 1 or g.shape != v.shape:
            raise PreconditionError("schema", "grid and values must be 1-d arrays of equal length")
        if g.size < 3:
            raise PreconditionError("schema", f"sampled densities need at least 3 nodes, got {g.size}")
        if g[0] != 0.0:
            raise PreconditionError("schema", f"sample grid must start at 0, starts at {g[0]}")
        if np.any(np.diff(g) <= 0):
            raise PreconditionError("schema", "sample grid must be strictly increasing")
        if np.any(~np.isfinite(v)) or np.any(v < 0):
            raise PreconditionError("schema", "sample values must be finite and nonnegative")
        if not np.any(v > 0):
            raise PreconditionError("schema", "sample values must not all vanish")
        if interp_dim <= 1:
            raise PreconditionError("domain", f"interp_dim must exceed 1, got {interp_dim}")
        return cls(
            kind="sampled",
            right=float(g[-1]),
            grid=g.copy(),
            values=v.copy(),
            interp_dim=float(interp_dim),
        )

    def __call__(self, theta):
        th = _as_theta_array(theta)
        if np.any(th > self.right * (1.0 + 1e-12)):
            raise PreconditionError(
                "domain", f"evaluation outside the density domain [0, {self.right}]"
            )
        th = np.minimum(th, self.right)
        if self.kind == "model":
            return model_density(self.K, self.N, th)
        out = np.interp(th, self.grid, self.g_values) ** (self.interp_dim - 1.0)
        return float(out) if np.ndim(theta) == 0 else out

    def positive_on_interior(self, r0: float) -> bool:
        """True when no sample node in (0, r0) carries a zero value."""
        if self.kind == "model":
            return True
        inside = (self.grid > 0) & (self.grid < r0)
        return bool(np.all(self.values[inside] > 0))


@dataclass(frozen=True)
class CdCheckReport:
    """Outcome of a lattice scan of the CD(K,N) density inequality."""

    satisfied: bool
    worst_violation: float
    witness: tuple[float, float, float]
    triples_checked: int
    tolerance: float


def check_cd_density(
    h: Density,
    K: float,
    N: float,
    resolution: tuple[int, int] = (64, 17),
    tolerance: float = 1e-9,
    interval: tuple[float, float] | None = None,
) -> CdCheckReport:
    """Scan the CD(K,N) inequality for ``h`` on a (theta0, theta1, t) lattice.

    ``resolution = (n_theta, n_t)`` sets the lattice: n_theta interior points
    per endpoint axis and n_t convex weights (odd n_t includes 0, 1/2, 1).
    The report carries the most negative slack found and its witness triple;
    the density passes when that slack is >= -tolerance.

    For sampled densities the effective tolerance is floored at the
    piecewise-linear interpolation defect (largest second difference of the
    node values in g-space): a finite sample cannot certify the inequality
    below its own resolution.  The report's ``tolerance`` field records the
    value actually used.
    """
    if N <= 1:
        raise PreconditionError("domain", f"N must exceed 1, got {N}")
    n_theta, n_t = int(resolution[0]), int(resolution[1])
    if n_theta < 2 or n_t < 3:
        raise PreconditionError("domain", "resolution must be at least (2, 3)")
    if interval is None:
        interval = (0.0, h.right)
    lo, hi = float(interval[0]), float(interval[1])
    if not (0 <= lo < hi) or not math.isfinite(hi) or hi > h.right * (1 + 1e-12):
        raise PreconditionError(
            "domain", f"scan interval {interval} must be finite and inside [0, {h.right}]"
        )
    kap = K / (N - 1)
    if K > 0 and (hi - lo) >= max_diameter(K, N):
        raise PreconditionError(
            "domain",
            f"interval length {hi - lo} reaches the diameter bound {max_diameter(K, N)}",
        )
    if h.kind == "sampled" and h.grid.size >= 3:
        gnode = h.values ** (1.0 / (N - 1.0))
        defect = float(np.max(np.abs(np.diff(gnode, n=2))))
        tolerance = max(tolerance, defect)

    # Interior lattice points only; endpoint behavior (vanishing weights)
    # is deliberately left out of the scan.
    theta = np.linspace(lo, hi, n_theta + 2)[1:-1]
    t = np.linspace(0.0, 1.0, n_t)
    p = 1.0 / (N - 1.0)

    g = np.asarray(h(theta)) ** p
    t0 = theta[:, None, None]
    t1 = theta[None, :, None]
    tw = t[None, None, :]
    mid = (1.0 - tw) * t0 + tw * t1
    g_mid = np.asarray(h(mid.ravel())).reshape(mid.shape) ** p

    dist = np.abs(t1 - t0)
    s_full = s_kappa(kap, dist.ravel()).reshape(dist.shape)
    s_t = s_kappa(kap, (tw * dist).ravel()).reshape(mid.shape)
    s_ct = s_kappa(kap, ((1.0 - tw) * dist).ravel()).reshape(mid.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        sig_t = np.where(dist > 0, s_t / s_full, tw)
        sig_ct = np.where(dist > 0, s_ct / s_full, 1.0 - tw)

    slack = g_mid - sig_ct * g[:, None, None] - sig_t * g[None, :, None]
    flat = int(np.argmin(slack))
    i, j, k = np.unravel_index(flat, slack.shape)
    worst = float(slack[i, j, k])
    return CdCheckReport(
        satisfied=bool(worst >= -tolerance),
        worst_violation=worst,
        witness=(float(theta[i]), float(theta[j]), float(t[k])),
        triples_checked=slack.size,
        tolerance=float(tolerance),
    )
