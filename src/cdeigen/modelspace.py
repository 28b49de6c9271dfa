"""Model geometry for one-dimensional curvature-dimension spaces.

The central objects are the curvature-scaled sine ``s_kappa``, the model
weight h_{K,N}(theta) = s_{K/(N-1)}(theta)^(N-1) on an interval [0, r0], and
a nodal test of the CD(K,N) density condition.  On an interval, CD(K,N) is
the distributional inequality

    g'' + kappa g <= 0,    g = h^(1/(N-1)),  kappa = K/(N-1),

which ``check_cd_density`` tests against the hat function of every sample
node, each node with its own tolerance scale.  The model weight attains
equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError, require_finite

# Below this value of |kappa| * theta^2 the closed trig/hyperbolic forms are
# replaced by their common Taylor expansion; keeps evaluation continuous
# across kappa = 0 and avoids 0/0 at tiny arguments.
_SERIES_CUTOFF = 1e-8


def _as_theta(theta):
    """theta as a float, or as a float array when it has a dimension, with
    its largest value (0 for an empty array); finite and nonnegative, which
    the array's smallest and largest values tell.  A float skips numpy's
    array set-up, which costs more than the evaluation at one point."""
    if not isinstance(theta, (float, int)):
        th = np.asarray(theta, dtype=float)
        if th.ndim:
            top = float(th.max(initial=0.0))
            if not (th.min(initial=0.0) >= 0.0 and math.isfinite(top)):
                raise PreconditionError("domain", "theta must be finite and nonnegative")
            return th, top
    th = float(theta)
    if not (th >= 0.0 and math.isfinite(th)):
        raise PreconditionError("domain", "theta must be finite and nonnegative")
    return th, th


def _series(x2, th):
    """Taylor form of s_kappa(theta) in x2 = kappa theta^2, for |x2| < _SERIES_CUTOFF."""
    return th * (1.0 - x2 / 6.0 * (1.0 - x2 / 20.0 * (1.0 - x2 / 42.0)))


def _sine(kappa, th):
    """s_kappa at a checked theta: the one evaluation behind ``s_kappa`` and
    the model weight.  ``kappa`` is a finite float, or a finite array of the
    shape of the array ``th``.  An array takes sin (kappa > 0) or sinh
    (kappa < 0) of sqrt|kappa| theta at every entry, and the Taylor form is
    patched in only where |kappa| theta^2 < _SERIES_CUTOFF; each entry gets
    the value it gets as a float."""
    x2 = kappa * th * th
    if isinstance(x2, float):
        if abs(x2) < _SERIES_CUTOFF:
            return _series(x2, th)
        rk = math.sqrt(abs(kappa))
        return float((np.sin if kappa > 0 else np.sinh)(rk * th) / rk)
    if isinstance(kappa, float):
        if kappa == 0.0:
            return _series(x2, th)
        rk = math.sqrt(abs(kappa))
        out = (np.sin if kappa > 0 else np.sinh)(rk * th) / rk
    else:
        out = np.empty(x2.shape)  # kappa = 0 gives the Taylor form everywhere
        for sine, part in ((np.sin, kappa > 0), (np.sinh, kappa < 0)):
            rk = np.sqrt(np.abs(kappa[part]))
            out[part] = sine(rk * th[part]) / rk
    small = np.nonzero(np.abs(x2) < _SERIES_CUTOFF)
    out[small] = _series(x2[small], th[small])
    return out


def s_kappa(kappa, theta):
    """Generalized sine: the solution of u'' + kappa u = 0, u(0)=0, u'(0)=1.

    sin(sqrt(k) x)/sqrt(k) for k > 0, x for k = 0, sinh(sqrt(-k) x)/sqrt(-k)
    for k < 0.  Accepts scalar or array theta >= 0, and scalar or array
    kappa, elementwise; a NaN or infinite kappa is a ``domain`` error.
    Floats give a float, through the same numpy sin and sinh as an array.
    """
    th, _ = _as_theta(theta)
    if isinstance(kappa, np.ndarray) and kappa.ndim:
        if not np.all(np.isfinite(kappa)):
            require_finite(kappa=float(kappa[~np.isfinite(kappa)][0]))
        kappa, th = np.broadcast_arrays(kappa, th)
    else:
        kappa = float(kappa)
        require_finite(kappa=kappa)
    return _sine(kappa, th)


def max_diameter(K, N):
    """Diameter bound pi * sqrt((N-1)/K) for K > 0; +inf for K <= 0.

    Elementwise when K or N is an array.
    """
    if isinstance(K, np.ndarray) or isinstance(N, np.ndarray):
        K, N = np.broadcast_arrays(np.asarray(K, dtype=float), np.asarray(N, dtype=float))
        bad = ~(np.isfinite(K) & (N > 1.0) & np.isfinite(N))
        if np.any(bad):
            i = np.flatnonzero(bad)[0]
            max_diameter(float(K.flat[i]), float(N.flat[i]))  # raises its domain error
        d = np.full(K.shape, math.inf)
        pos = K > 0
        with np.errstate(over="ignore"):  # a tiny K gives inf, as for a float
            d[pos] = math.pi * np.sqrt((N[pos] - 1) / K[pos])
        return d
    require_finite(K=K, N=N)
    if N <= 1:
        raise PreconditionError("domain", f"dimension parameter N must exceed 1, got {N}")
    if K > 0:
        return math.pi * math.sqrt((N - 1) / K)
    return math.inf


def ball_fits(K, N, r0):
    """Whether the Dirichlet ball of radius r0 fits inside the (K, N) model,
    r0 < (1 - 1e-12) max_diameter(K, N): the one rule of the solver, the
    closed form, the comparison and the Kaluza-Klein objective.  Closer to
    the diameter the matrix route fails.  Elementwise for arrays."""
    return r0 < (1.0 - 1e-12) * max_diameter(K, N)


def _model_weight(K: float, N: float, th, top: float):
    """h_{K,N} at a checked theta (a float, or an array whose largest value
    is ``top``) at most 1e-12 relative past the diameter bound d: 0 at and
    past d, max(s_kappa(theta), 0)^(N-1) before it.  The one evaluation
    behind ``model_density`` and ``Density.__call__``."""
    d = max_diameter(K, N)
    kappa = K / (N - 1)
    if isinstance(th, float):
        if th >= d:
            return 0.0
        # np.power is the array's ``**``; ``**`` on a numpy scalar is libm's pow.
        return float(np.power(np.maximum(_sine(kappa, th), 0.0), N - 1))
    if top < d:
        return np.maximum(_sine(kappa, th), 0.0) ** (N - 1)
    out = np.maximum(_sine(kappa, np.minimum(th, d)), 0.0) ** (N - 1)
    out[th >= d] = 0.0
    return out


def model_density(K: float, N: float, theta):
    """Model weight h_{K,N}(theta) = s_{K/(N-1)}(theta)^(N-1).

    Vanishes at theta = 0 (for N > 1) and, when K > 0, exactly at the
    diameter bound.  Evaluation past the diameter bound is an error.
    """
    d = max_diameter(K, N)
    th, top = _as_theta(theta)
    if top > d * (1.0 + 1e-12):
        raise PreconditionError(
            "domain", f"theta beyond the diameter bound {d} for K={K}, N={N}"
        )
    return _model_weight(K, N, th, top)


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
        else:
            require_finite(right=right)
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
        # Finiteness first: a NaN compares False and np.diff of infinities warns.
        if not np.all(np.isfinite(g)) or np.any(np.diff(g) <= 0):
            raise PreconditionError("schema", "sample grid must be finite and strictly increasing")
        if g[0] != 0.0:
            raise PreconditionError("schema", f"sample grid must start at 0, starts at {g[0]}")
        if np.any(~np.isfinite(v)) or np.any(v < 0):
            raise PreconditionError("schema", "sample values must be finite and nonnegative")
        if not np.any(v > 0):
            raise PreconditionError("schema", "sample values must not all vanish")
        require_finite(interp_dim=interp_dim)
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
        th, top = _as_theta(theta)
        if top > self.right * (1.0 + 1e-12):
            raise PreconditionError(
                "domain", f"evaluation outside the density domain [0, {self.right}]"
            )
        scalar = isinstance(th, float)
        if top > self.right:
            th = min(th, self.right) if scalar else np.minimum(th, self.right)
            top = self.right
        if self.kind == "model":
            return _model_weight(self.K, self.N, th, top)
        out = np.interp(th, self.grid, self.g_values) ** (self.interp_dim - 1.0)
        return float(out) if scalar else out

    def positive_on_interior(self, r0: float) -> bool:
        """True when no sample node in (0, r0) carries a zero value."""
        if self.kind == "model":
            return True
        inside = (self.grid > 0) & (self.grid < r0)
        return bool(np.all(self.values[inside] > 0))




# Nodes of the uniform grid on which a model density that the closed-form
# criterion cannot settle is sampled for the nodal CD test.
_MODEL_NODES = 1025


@dataclass(frozen=True)
class CdCheckReport:
    """Outcome of the nodal test of the CD(K,N) density inequality.

    ``worst_violation`` is the smallest relative slack
    (rounding_i - r_i)/scale_i (see ``check_cd_density``) over the
    tested nodes, ``witness`` the node theta_i where it occurs, and
    ``triples_checked`` the number of nodes tested.  When no node is tested
    (closed-form acceptance, or no node inside the interval) the slack is 0
    and the witness None.
    """

    satisfied: bool
    worst_violation: float
    witness: float | None
    triples_checked: int
    tolerance: float


def check_cd_density(
    h: Density,
    K: float,
    N: float,
    tolerance: float = 1e-9,
    interval: tuple[float, float] | None = None,
) -> CdCheckReport:
    """Test the CD(K,N) inequality g'' + kappa g <= 0 for ``h`` on ``interval``.

    Here g = h^(1/(N-1)) and kappa = K/(N-1); on an interval, CD(K,N) is this
    inequality in the sense of distributions.  It is tested against the hat
    function phi_i of every node theta_i inside the open interval.  With s_i
    the slope of g on segment i and w_i its width,

        r_i = (s_i - s_{i-1}) + kappa * int g phi_i,
        int g phi_i = (w_{i-1} (g_{i-1} + 2 g_i) + w_i (2 g_i + g_{i+1})) / 6,

    and the node passes when r_i <= tolerance * scale_i + rounding_i.  Each
    node has its own scale_i = |s_{i-1}| + |s_i| + |kappa| int g phi_i, and
    rounding_i bounds the rounding error of the computed slope jump by 16
    ulps of each of g_{i-1}, g_i, g_{i+1}.  The slope jump is the exact weak
    second derivative of the piecewise-linear g, so a dent of any size fails
    with relative slack near -1.  Only the kappa term carries an
    interpolation error, of order kappa w^3 |g''| per node, and for the
    model weight itself that error has the safe sign.

    A sampled density with interp_dim = N is tested as interpolated, from its
    ``g_values``.  With interp_dim != N, g is not piecewise linear between
    the nodes: then g = values^(1/(N-1)) is tested at the nodes only, and
    nothing between them.  A model density h_{K',N} with K' >= K is accepted
    without a test, since its g'' = -K'/(N-1) g makes g'' + kappa g <= 0 in
    closed form; any other model density is sampled on a uniform grid of the
    interval and tested like a sampled one.
    """
    d = max_diameter(K, N)
    require_finite(tolerance=tolerance)
    if tolerance < 0:
        raise PreconditionError("domain", f"tolerance must be nonnegative, got {tolerance}")
    if interval is None:
        interval = (0.0, h.right)
    lo, hi = float(interval[0]), float(interval[1])
    if not (0 <= lo < hi) or not math.isfinite(hi) or hi > h.right * (1 + 1e-12):
        raise PreconditionError(
            "domain", f"test interval {interval} must be finite and inside [0, {h.right}]"
        )
    if hi - lo >= d:
        raise PreconditionError(
            "domain", f"interval length {hi - lo} reaches the diameter bound {d}")
    untested = CdCheckReport(satisfied=True, worst_violation=0.0, witness=None,
                             triples_checked=0, tolerance=float(tolerance))
    if h.kind == "model":
        if h.N == N and h.K >= K:
            return untested
        x = np.linspace(lo, hi, _MODEL_NODES)
        g = h(x) ** (1.0 / (N - 1.0))
    else:
        x = h.grid
        g = h.g_values if h.interp_dim == N else h.values ** (1.0 / (N - 1.0))

    kap = K / (N - 1.0)
    w = np.diff(x)
    s = np.diff(g) / w
    gphi = (w[:-1] * (g[:-2] + 2.0 * g[1:-1]) + w[1:] * (2.0 * g[1:-1] + g[2:])) / 6.0
    r = s[1:] - s[:-1] + kap * gphi
    scale = np.abs(s[:-1]) + np.abs(s[1:]) + abs(kap) * gphi
    ulps = 16.0 * np.finfo(float).eps * g
    rounding = (ulps[:-2] + ulps[1:-1]) / w[:-1] + (ulps[1:-1] + ulps[2:]) / w[1:]
    inside = (x[1:-1] > lo) & (x[1:-1] < hi)
    slack = np.divide(rounding - r, scale, out=np.zeros_like(r), where=scale > 0)[inside]
    if slack.size == 0:
        return untested
    i = int(np.argmin(slack))
    worst = float(slack[i])
    return CdCheckReport(
        satisfied=worst >= -tolerance,
        worst_violation=worst,
        witness=float(x[1:-1][inside][i]),
        triples_checked=int(slack.size),
        tolerance=float(tolerance),
    )
