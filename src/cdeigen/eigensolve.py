"""First Dirichlet eigenvalues of weighted Sturm-Liouville problems on [0, r0].

The problem is the minimization of int (phi')^2 h dtheta / int phi^2 h dtheta
over functions vanishing at r0, with natural (no) boundary condition at the
left end where the weight h may vanish.  Two routes are provided:

* a conforming piecewise-linear discretization whose generalized eigenvalue
  is a variational upper bound, refined by mesh bisection, each level
  Richardson-extrapolated against the one before;
* a shooting method integrating the ODE phi'' + (log h)' phi' + lambda phi = 0
  from near the singular end and root-finding on phi(r0).

An adaptive Gauss-Kronrod quadrature for integrals against the measure
h dtheta, the C^1 cubic Hermite interpolant of a solution's (phi, phi') and
the flux-identity diagnostic live here as well.  Mesh size, bisections and
the quadrature's panel budget are module constants, not parameters.

Only numpy and ``scipy.linalg`` load with this module, which is all the
matrix route uses.  Shooting imports ``scipy.integrate`` and
``scipy.optimize`` the first time it runs.
"""

from __future__ import annotations

import bisect as _bisect_mod
import math
import warnings
from dataclasses import dataclass
from functools import cache
from types import SimpleNamespace

import numpy as np
from scipy.linalg import eigh_tridiagonal, lapack

from .errors import NonconvergenceError, PreconditionError
from .modelspace import Density, max_diameter

# ------------------------------------------------------------------ quadrature
# 15-point Kronrod extension of 7-point Gauss-Legendre (positive half).
_XGK_HALF = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK_HALF = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG_HALF = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_XK = np.concatenate((-_XGK_HALF[:7], _XGK_HALF[::-1]))
_WK = np.concatenate((_WGK_HALF[:7], _WGK_HALF[::-1]))
_WG = np.zeros(15)
_WG[1:14:2] = np.concatenate((_WG_HALF[:3], _WG_HALF[::-1]))


def _vectorized(f):
    """Wrap a callable so it maps float arrays to float arrays."""
    if not callable(f):
        c = float(f)
        return lambda x: np.full(np.shape(x), c)

    def wrapped(x):
        res = np.asarray(f(x), dtype=float)
        if res.shape != np.shape(x):
            res = np.broadcast_to(res, np.shape(x)).astype(float)
        return res

    return wrapped


# Relative roundoff floor of a panel's error estimate, as in QUADPACK's qk15.
_GK_ROUNDOFF = 50.0 * float(np.finfo(float).eps)


def _gk_panel(fh, a, b):
    """One Gauss-Kronrod pass over each panel [a[i], b[i]].

    ``a`` and ``b`` are arrays of panel ends; all 15 nodes of every panel go
    through one call of the already-vectorized integrand fh.  Returns the
    arrays (res, err) of Kronrod values and error estimates.  An error
    estimate never drops below the roundoff floor, so a tolerance beneath
    double precision exhausts the panel budget instead of being met by an
    exact-looking Kronrod-Gauss difference.
    """
    hw = 0.5 * (b - a)
    x = (0.5 * (a + b))[:, None] + hw[:, None] * _XK
    vals = fh(x.ravel()).reshape(x.shape)
    res_k = hw * (vals @ _WK)
    res_g = hw * (vals @ _WG)
    return res_k, np.maximum(np.abs(res_k - res_g), _GK_ROUNDOFF * np.abs(res_k))


def _breaks(h: Density, a: float, b: float) -> np.ndarray:
    """Sorted points inside (a, b) where integrands against h stop being
    smooth: every decade 1e-6, 1e-5, ..., 1e-1 of b when the weight vanishes
    at a = 0, where it behaves like a power of theta, and every sample node
    of a sampled density, where its interpolant changes slope.  The first
    mesh, the quadrature's first partition and slope recovery all break
    there."""
    # A model weight s_kappa^(N-1) always vanishes at 0; that spares every
    # solve two scalar evaluations of it.
    vanishing = a == 0.0 and (h.kind == "model" or float(h(0.0)) == 0.0)
    pts = b * 10.0 ** np.arange(-6.0, 0.0) if vanishing else np.empty(0)
    if h.kind == "sampled":
        pts = np.concatenate((pts, h.grid))
    return np.unique(pts[(pts > a) & (pts < b)])


# First mesh size and bisections of the matrix route; quadrature panel budget.
_BASE_NODES = 512
_MAX_REFINEMENTS = 8
_MAX_PANELS = 4096


def weighted_integral(f, h: Density, a: float, b: float, rel_tol: float = 1e-10) -> float:
    """Adaptive quadrature of int_a^b f(theta) h(theta) dtheta.

    ``f`` may be a constant or a numpy-vectorizable callable.  The initial
    partition breaks at ``_breaks(h, a, b)``, so h stays smooth per panel;
    all its panels are evaluated in one ``_gk_panel`` call.  Refinement then
    runs in rounds.  Each round bisects every panel whose error estimate
    exceeds its equal share rel_tol*|total|/n_panels of the target (the worst
    panel when none does) and evaluates all the halves in one call.  When
    the round would take the partition past ``_MAX_PANELS`` panels, only
    the largest errors are split.  Panels narrower than 64 eps (b - a) are
    frozen.  NonconvergenceError("quadrature") is raised once the budget is
    spent or every panel is frozen.
    """
    if not isinstance(h, Density):
        raise PreconditionError("domain", "h must be a Density instance")
    a, b = float(a), float(b)
    if not (0.0 <= a < b) or not math.isfinite(b):
        raise PreconditionError("domain", f"bad integration interval [{a}, {b}]")
    if b > h.right * (1.0 + 1e-12):
        raise PreconditionError("domain", f"interval end {b} outside density domain [0, {h.right}]")
    if not rel_tol > 0:
        raise PreconditionError("domain", "rel_tol must be positive")

    fv = _vectorized(f)
    hv = _vectorized(h)
    fh = lambda x: fv(x) * hv(x)

    pts = np.concatenate(([a], _breaks(h, a, b), [b]))
    lo, hi = pts[:-1], pts[1:]
    res, err = _gk_panel(fh, lo, hi)

    min_width = 64.0 * np.finfo(float).eps * (b - a)
    while True:
        total = float(res.sum())
        target = rel_tol * max(abs(total), 1e-300)
        if err.sum() <= target:
            return total
        # Panels too narrow to bisect in double precision stay frozen.
        wide = hi - lo >= min_width
        if lo.size >= _MAX_PANELS or not wide.any():
            raise NonconvergenceError(
                "quadrature",
                f"adaptive quadrature stalled at {lo.size} panels with "
                f"relative error {err.sum() / max(abs(total), 1e-300):.3e}",
            )
        split = wide & (err > target / lo.size)
        if not split.any():
            split[np.argmax(np.where(wide, err, -np.inf))] = True
        idx = np.flatnonzero(split)
        room = _MAX_PANELS - lo.size
        if idx.size > room:
            idx = idx[np.argsort(-err[idx], kind="stable")[:room]]
        mid = 0.5 * (lo[idx] + hi[idx])
        new_lo = np.concatenate((lo[idx], mid))
        new_hi = np.concatenate((mid, hi[idx]))
        new_res, new_err = _gk_panel(fh, new_lo, new_hi)
        lo, hi, res, err = (np.concatenate((np.delete(old, idx), new)) for old, new in
                            ((lo, new_lo), (hi, new_hi), (res, new_res), (err, new_err)))


# ------------------------------------------------------------------ grids

def _initial_nodes(h: Density, r0: float) -> np.ndarray:
    """``_BASE_NODES`` uniform nodes on [0, r0], joined with ``_breaks(h, 0,
    r0)``; a node within 1e-14 r0 of the one before it is dropped.

    The weight is smooth on every element, and the decades toward a
    vanishing weight at 0 (h ~ theta^(N-1) there) let the elements' Gauss
    rules resolve it, so that each level's value is the Rayleigh quotient of
    a conforming function: an upper bound, non-increasing under bisection."""
    nodes = np.union1d(np.linspace(0.0, r0, _BASE_NODES), _breaks(h, 0.0, r0))
    nodes = nodes[np.concatenate(([True], np.diff(nodes) > 1e-14 * r0))]
    nodes[-1] = r0
    return nodes


def _bisect_nodes(nodes: np.ndarray) -> np.ndarray:
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    out = np.empty(nodes.size + mids.size)
    out[0::2] = nodes
    out[1::2] = mids
    return out


# ------------------------------------------------------------------ assembly

@dataclass
class WeightedEigenProblem:
    """Tridiagonal pencil (A, B) of the hat-function discretization.

    Unknowns sit at nodes[:-1]; the right endpoint carries the Dirichlet
    condition and is eliminated.  A is the weighted stiffness matrix,
    B the weighted mass matrix, both symmetric.
    """

    nodes: np.ndarray
    stiff_diag: np.ndarray
    stiff_off: np.ndarray
    mass_diag: np.ndarray
    mass_off: np.ndarray


_QX, _QW = np.polynomial.legendre.leggauss(8)
_QX = 0.5 * (_QX + 1.0)
_QW = 0.5 * _QW


def assemble_weighted_problem(h: Density, r0: float, nodes) -> WeightedEigenProblem:
    """Assemble stiffness and mass matrices for the weight h on the mesh
    ``nodes``, which must increase strictly from 0 to r0."""
    _validate_problem(h, r0)
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1 or nodes.size < 3 or nodes[0] != 0.0 or nodes[-1] != r0 \
            or np.any(np.diff(nodes) <= 0):
        raise PreconditionError("grid", "the mesh must increase strictly from 0 to r0")

    w = np.diff(nodes)
    pts = nodes[:-1, None] + w[:, None] * _QX[None, :]
    hv = np.asarray(h(pts.ravel()), dtype=float).reshape(pts.shape)

    m0 = w * (hv @ _QW)
    mll = w * (hv @ (_QW * (1.0 - _QX) ** 2))
    mlr = w * (hv @ (_QW * _QX * (1.0 - _QX)))
    mrr = w * (hv @ (_QW * _QX ** 2))
    s = m0 / w**2

    n = nodes.size
    stiff_diag = np.zeros(n - 1)
    stiff_diag[0] = s[0]
    stiff_diag[1:] = s[:-1] + s[1:]
    mass_diag = np.zeros(n - 1)
    mass_diag[0] = mll[0]
    mass_diag[1:] = mrr[:-1] + mll[1:]
    return WeightedEigenProblem(
        nodes=nodes,
        stiff_diag=stiff_diag,
        stiff_off=-s[:-1],
        mass_diag=mass_diag,
        mass_off=mlr[:-1],
    )


def _validate_problem(h: Density, r0: float) -> None:
    if not isinstance(h, Density):
        raise PreconditionError("domain", "h must be a Density instance")
    if not (r0 > 0 and math.isfinite(r0)):
        raise PreconditionError("domain", f"r0 must be positive and finite, got {r0}")
    if r0 > h.right * (1.0 + 1e-12):
        raise PreconditionError("domain", f"r0 = {r0} exceeds the density domain [0, {h.right}]")
    if h.kind == "model" and h.K > 0:
        d = max_diameter(h.K, h.N)
        if r0 >= d * (1.0 - 1e-12):
            raise PreconditionError(
                "domain", f"r0 = {r0} must stay strictly below the diameter bound {d}"
            )
    if not h.positive_on_interior(r0):
        raise PreconditionError(
            "domain", "density vanishes at an interior sample node; the solver refuses"
        )


# ------------------------------------------------------------------ eigenpair

def _tri_mv(diag, off, x):
    y = diag * x
    y[:-1] += off * x[1:]
    y[1:] += off * x[:-1]
    return y


def _smallest_eigenpair(prob: WeightedEigenProblem, start):
    """Smallest eigenpair of (A, B) by inverse iteration at a certified shift.

    Leading rows of zero lumped mass (h underflows there at large N) form a
    massless chain with a free end; eliminating them leaves a natural end
    at the first row k0 of nonzero mass.  M_L, the diagonal of B's row sums,
    exceeds B by a sum of m_lr [[1, -1], [-1, 1]] with m_lr >= 0, so the
    smallest eigenvalue lambda_L of (A, M_L) lies at or below that of
    (A, B).  Sturm bisection on M_L^(-1/2) A M_L^(-1/2), bracketed by the
    Rayleigh quotient mu0 of ``start`` (one value per unknown), gives
    lambda_L to 1e-5 mu0, and A - sigma B is factored once at
    sigma = (1 - 1e-3) lambda_L.  The iteration stops at the second step,
    counted without reset, that fails to lower the Rayleigh quotient by
    1e-14 relative, and raises ``eigen-iteration`` after 200 steps.
    Returns lambda and the eigenvector on all nodes: the eliminated rows
    repeat the value of row k0, and the Dirichlet end is zero.
    """
    lumped = prob.mass_diag + np.pad(prob.mass_off, (0, 1)) + np.pad(prob.mass_off, (1, 0))
    k0 = int(np.argmax(lumped > 0.0))
    ad, ao = prob.stiff_diag[k0:].copy(), prob.stiff_off[k0:]
    bd, bo, lumped = prob.mass_diag[k0:], prob.mass_off[k0:], lumped[k0:]
    ad[0] = -ao[0]

    x = np.array(start[k0:], dtype=float)
    x /= math.sqrt(float(x @ _tri_mv(bd, bo, x)))
    mu = float(x @ _tri_mv(ad, ao, x))

    r = 1.0 / np.sqrt(lumped)
    lam_lumped = eigh_tridiagonal(ad / lumped, ao * r[:-1] * r[1:], eigvals_only=True,
                                  select="v", select_range=(0.0, (1.0 + 1e-3) * mu),
                                  tol=1e-5 * mu)[0]
    sigma = (1.0 - 1e-3) * lam_lumped
    d, e, info = lapack.dpttrf(ad - sigma * bd, ao - sigma * bo)
    if info != 0:
        raise NonconvergenceError("factorization", f"tridiagonal factorization failed (info={info})")

    stalls = 0
    for _ in range(200):
        y, info = lapack.dpttrs(d, e, _tri_mv(bd, bo, x))
        if info != 0:
            raise NonconvergenceError("eigen-iteration", f"tridiagonal solve failed (info={info})")
        bnorm = math.sqrt(float(y @ _tri_mv(bd, bo, y)))
        if not (bnorm > 0 and math.isfinite(bnorm)):
            raise NonconvergenceError("eigen-iteration", "inverse iteration produced a degenerate iterate")
        x = y / bnorm
        mu_prev, mu = mu, float(x @ _tri_mv(ad, ao, x))
        # In exact arithmetic the quotient decreases monotonically, so a
        # step that fails to decrease it beyond roundoff is stagnation.
        if mu_prev - mu <= 1e-14 * abs(mu):
            stalls += 1
            if stalls == 2:
                break
    else:
        raise NonconvergenceError("eigen-iteration", "inverse iteration did not stagnate within 200 steps")

    if float(np.sum(x)) < 0:
        x = -x
    if float(np.min(x)) < -1e-7 * float(np.max(x)):
        raise NonconvergenceError("eigen-iteration", "iterate is not one-signed; not the ground state")
    phi = np.zeros(prob.nodes.size)
    phi[k0:-1] = x
    phi[:k0] = x[0]
    return mu, phi


# ------------------------------------------------------------------ solutions

@dataclass
class EigenSolution:
    """Converged first Dirichlet eigenpair on [0, r0].

    phi is sampled on ``grid``, normalized to sup-norm 1 with nonnegative
    sign; dphi holds its nodal slopes (integrated by shooting, those of
    5-node interpolants of phi by the matrix route).  refinement_history
    records the raw per-level eigenvalue estimates (the final eigenvalue adds
    one Richardson step on top of the last entry for the matrix method).
    """

    eigenvalue: float
    grid: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray
    method: str
    refinement_history: list
    flux_residual: float


def _poly_derivative(x: np.ndarray, y: np.ndarray, breaks) -> np.ndarray:
    """Slope at each node of the polynomial of degree <= 4 through its 5
    nearest nodes within its stretch between two ``breaks``: a Newton
    divided-difference table over all nodes at once, then p' by Horner.

    Windows are clipped to the stretch (to all of it when it has fewer than
    5 nodes), and a node on a break, or within 1e-14 (x[-1] - x[0]) before
    it, takes its right-hand stretch, so slopes are one-sided there.  A
    short window is the head of min(5, n) distinct nodes (the next ones, or
    the last ones before it at the end of x); the Newton coefficients past
    its length are dropped, which leaves its own interpolant.
    """
    n = x.size
    win = min(5, n)
    # A break that _initial_nodes merged into the node before it cuts there.
    cuts = np.searchsorted(x, np.asarray(breaks) - 1e-14 * (x[-1] - x[0]))
    edges = np.unique(np.concatenate(([0], cuts[(cuts > 1) & (cuts < n - 1)], [n - 1])))
    i = np.arange(n)
    seg = np.minimum(np.searchsorted(edges, i, side="right") - 1, edges.size - 2)
    lo, hi = edges[seg], edges[seg + 1]
    size = np.minimum(win, hi - lo + 1)
    start = np.clip(i - win // 2, lo, hi - size + 1)
    rows = np.arange(win)[:, None]
    idx = start + rows
    idx[idx >= n] -= win
    xs, c = x[idx], y[idx]
    for j in range(1, win):
        for k in range(win - 1, j - 1, -1):
            c[k] = (c[k] - c[k - 1]) / (xs[k] - xs[k - j])
    c[rows >= size] = 0.0
    p, dp = c[-1], np.zeros(n)
    for k in range(win - 2, -1, -1):
        t = x - xs[k]
        dp = dp * t + p
        p = p * t + c[k]
    return dp


def _cubic_hermite(x: np.ndarray, y: np.ndarray, dy: np.ndarray):
    """C^1 piecewise cubic through the values y with slopes dy at the nodes x.

    Returns f(t, derivative=False), the cubic or its derivative at the points
    t inside [x[0], x[-1]].  ``np.interp`` of the node index locates each t
    (a compiled search that starts from its last position) and yields the
    interval i and the offset s in [0, 1] in one call; the cubic in s is
    evaluated by Horner's rule with per-interval coefficients.
    """
    w = np.diff(x)
    dlt = np.diff(y)
    m0, m1 = w * dy[:-1], w * dy[1:]
    c2 = 3.0 * dlt - 2.0 * m0 - m1
    c3 = m0 + m1 - 2.0 * dlt
    y0 = y[:-1]
    index = np.arange(x.size, dtype=float)
    last = x.size - 2

    def f(t, derivative=False):
        u = np.interp(t, x, index)
        i = np.minimum(u.astype(np.intp), last)
        s = u - i
        if derivative:
            return (m0[i] + s * (2.0 * c2[i] + 3.0 * s * c3[i])) / w[i]
        return y0[i] + s * (m0[i] + s * (c2[i] + s * c3[i]))

    return f


_FX, _FW = np.polynomial.legendre.leggauss(4)
_FX = 0.5 * (_FX + 1.0)
_FW = 0.5 * _FW


def flux_identity_residual(sol: EigenSolution, h: Density) -> float:
    """Scale-free defect of the identity phi'(t) h(t) = -lambda int_0^t phi h.

    The maximum over grid nodes of |phi' h + lambda F| is normalized by
    lambda * F(r0), F being the cumulative integral of phi against h.  F is
    summed from 4-point Gauss rules on each grid interval, applied to the
    C^1 cubic Hermite interpolant of the solution's own nodal phi and phi'.
    """
    x, phi, dphi = sol.grid, sol.phi, sol.dphi
    if not (x.shape == phi.shape == dphi.shape):
        raise PreconditionError("grid", "solution arrays have mismatched shapes")
    lam = sol.eigenvalue
    w = np.diff(x)
    pts = x[:-1, None] + w[:, None] * _FX[None, :]
    hv = np.asarray(h(pts.ravel()), dtype=float).reshape(pts.shape)
    panels = w * ((hv * _cubic_hermite(x, phi, dphi)(pts)) @ _FW)
    F = np.concatenate(([0.0], np.cumsum(panels)))
    defect = dphi * np.asarray(h(x), dtype=float) + lam * F
    denom = abs(lam) * F[-1]
    if not denom > 0:
        raise PreconditionError("domain", "cumulative weighted integral of phi vanished")
    return float(np.max(np.abs(defect)) / denom)


def _eigen_solution(h, nodes, lam, phi, method, history, dphi=None) -> EigenSolution:
    """Scale phi to sup-norm 1, clip it at 0, recover dphi from it by divided
    differences within the stretches between ``_breaks`` (or scale a given
    dphi alike); attach the flux residual."""
    top = float(np.max(np.abs(phi)))
    phi = np.maximum(phi / top, 0.0)
    if dphi is None:
        dphi = _poly_derivative(nodes, phi, _breaks(h, 0.0, nodes[-1]))
    else:
        dphi = dphi / top
    sol = EigenSolution(
        eigenvalue=lam,
        grid=nodes,
        phi=phi,
        dphi=dphi,
        method=method,
        refinement_history=history,
        flux_residual=math.nan,
    )
    sol.flux_residual = flux_identity_residual(sol, h)
    return sol


def first_dirichlet_eigen(h: Density, r0: float, tol: float = 1e-8,
                          method: str = "matrix") -> EigenSolution:
    """Smallest Dirichlet eigenvalue of the weight h on [0, r0].

    The matrix route bisects the first mesh (``_initial_nodes``: uniform,
    graded toward a vanishing weight at 0, every sample node a node) up to
    ``_MAX_REFINEMENTS`` times.  From the second level on, each level's
    estimate is Richardson-extrapolated, ex_k = lambda_k + (lambda_k -
    lambda_{k-1})/3, and the route stops once two successive extrapolated
    values agree to tol relatively (so at least three levels run).  It
    returns the last extrapolated value once the flux-identity residual
    falls below 100*tol (the eigenfunction can lag the eigenvalue on rough
    weights), and raises ``flux`` or ``refinement`` when the levels run out.
    Each level runs inverse iteration from a certified shift (see
    ``_smallest_eigenpair``), started from the previous level's eigenvector.
    The shooting route runs the matrix route at tol 1e-6, hands the bracket
    (1 - 1e-3, 1 + 1e-3) times that converged estimate to ``shoot_eigen``,
    integrates once more at the root with the same integrator to take phi
    and phi' from LSODA's own interpolant at the nodes of the first mesh,
    and applies the same 100*tol flux gate.  On model densities
    it agrees with the matrix route for K in [-5, 2], N in [1.05, 30] and r0
    up to min(2.5, 0.9 * diameter).  It fails as N -> 2+ on the default
    kk-bound curve (``flux`` or ``bracket``) and from N = 55 on
    (``domain``: h(1e-6 r0) underflows to 0).
    """
    _validate_problem(h, r0)
    if not (1e-12 < tol < 1e-3):
        raise PreconditionError("domain", f"tol must lie in (1e-12, 1e-3), got {tol}")
    if method not in ("matrix", "shooting"):
        raise PreconditionError("domain", f"unknown method {method!r}")

    if method == "shooting":
        return _shooting_solution(h, r0, tol)

    nodes = _initial_nodes(h, r0)
    start = 1.0 - (nodes[:-1] / r0) ** 2
    history: list[float] = []
    ex_prev = stuck_flux = None
    for _ in range(_MAX_REFINEMENTS + 1):
        prob = assemble_weighted_problem(h, r0, nodes)
        lam, phi = _smallest_eigenpair(prob, start)
        history.append(lam)
        if len(history) > 1:
            ex = lam + (lam - history[-2]) / 3.0
            if ex_prev is not None and abs(ex - ex_prev) <= tol * abs(ex):
                sol = _eigen_solution(h, nodes, ex, phi, "matrix", history)
                if sol.flux_residual <= 100.0 * tol:
                    return sol
                stuck_flux = sol.flux_residual
            ex_prev = ex
        fine = _bisect_nodes(nodes)
        start = np.interp(fine[:-1], nodes, phi)
        nodes = fine
    if stuck_flux is not None:
        raise NonconvergenceError(
            "flux",
            f"flux-identity residual {stuck_flux:.3e} stayed above 100*tol "
            f"within {_MAX_REFINEMENTS} refinements",
        )
    raise NonconvergenceError(
        "refinement",
        f"extrapolated eigenvalue did not settle to rel tol {tol} within {_MAX_REFINEMENTS} "
        f"refinements (history: {history})",
    )


# ------------------------------------------------------------------ shooting

def solve_ivp(fun, t_span, y0, *, t_eval=None, rtol, atol):
    """LSODA on y' = fun(t, y) from t_span[0] to t_span[1], never stepping
    past t_span[1].

    ``scipy.integrate.odeint`` runs LSODA's step loop in compiled code and
    calls Python only for the right-hand side; it is imported on the first
    call, so that only shooting loads scipy.integrate.  The result has the
    fields of a ``scipy.integrate.solve_ivp`` result that shooting reads:
    ``t`` (t_eval, or t_span[1] alone), ``y`` (one column per time),
    ``nfev``, ``success`` and ``message``.  A failure is reported there, not
    as an ``ODEintWarning``.  Shooting calls the integrator only through
    this module global.
    """
    from scipy.integrate import ODEintWarning, odeint

    t0, t1 = t_span
    t = np.array([t1] if t_eval is None else t_eval, dtype=float)
    # odeint's first row is y(t0); it serves a t_eval point at t0 as well.
    times = np.concatenate(([t0], t[t > t0]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ODEintWarning)
        y, info = odeint(fun, y0, times, tfirst=True, rtol=rtol, atol=atol, tcrit=[t1],
                         mxstep=2**31 - 1, full_output=True)
    return SimpleNamespace(t=t, y=y[times.size - t.size:].T, nfev=int(info["nfe"][-1]),
                           success=info["message"] == "Integration successful.",
                           message=info["message"])


def _log_derivative(h: Density):
    """(log h)' as a scalar function on Python floats, for the shooting
    right-hand side."""
    if h.kind == "model":
        nm1 = h.N - 1.0
        kap = h.K / nm1
        if kap == 0.0:
            return lambda t: nm1 / t
        rk = math.sqrt(abs(kap))
        tan = math.tan if kap > 0 else math.tanh

        def dlog(t):
            if rk * t < 1e-4:
                return nm1 * (1.0 / t - kap * t / 3.0)
            return nm1 * rk / tan(rk * t)

        return dlog

    p = h.interp_dim - 1.0
    gvals = h.g_values.tolist()
    grid = h.grid.tolist()
    nseg = len(grid) - 1

    def dlog(t):
        i = min(max(_bisect_mod.bisect_right(grid, t) - 1, 0), nseg - 1)
        slope = (gvals[i + 1] - gvals[i]) / (grid[i + 1] - grid[i])
        g = gvals[i] + slope * (t - grid[i])
        if g <= 0:
            raise PreconditionError("domain", "density vanishes inside the shooting interval")
        return p * slope / g

    return dlog


def _shooting_machinery(h: Density, r0: float):
    """Start point eps0 = 1e-6 r0 of the shooting ODE and the integrator
    from it.  The mass m([0, eps0]) and h(eps0) that set the start slope are
    computed once here; a shooting solve shares the integrator between its
    root search and its eigenfunction pass."""
    eps0 = r0 * 1e-6
    mass0 = weighted_integral(1.0, h, 0.0, eps0, rel_tol=1e-10)
    heps = float(h(eps0))
    if not heps > 0:
        raise PreconditionError("domain", "density vanishes at the shooting start point")
    dlog = _log_derivative(h)

    def integrate(lam, t_eval=None):
        """Integrate (phi - 1, phi') from eps0 to r0, from phi(eps0) = 1, and
        return them at t_eval (default: r0 alone).

        Near the singular end phi differs from 1 by O(lam theta^2).  LSODA
        weighs a switch from Adams to BDF only while its error estimate is
        above roundoff relative to |y|; carried in phi itself that change is
        not, and LSODA could keep the Adams step of its start-point
        stability limit (2e-8 at N = 19.6, r0 = 0.262) for millions of
        steps.  Carried as phi - 1, it switches to BDF within its first steps.
        """
        def rhs(t, y):
            return (y[1], -lam * (1.0 + y[0]) - dlog(t) * y[1])

        # Initial slope from the flux identity: phi' (eps) = -lam m([0,eps]) / h(eps).
        ivp = solve_ivp(rhs, (eps0, r0), [0.0, -lam * mass0 / heps], t_eval=t_eval,
                        rtol=1e-11, atol=1e-13)
        if not ivp.success:
            raise NonconvergenceError(
                "stiffness", f"ODE integration at lambda = {lam!r} failed: {ivp.message}")
        # A NaN right-hand side does not stop LSODA; it ends "successfully".
        if not np.all(np.isfinite(ivp.y)):
            raise NonconvergenceError(
                "stiffness", f"ODE integration at lambda = {lam!r} ended at a non-finite "
                f"(phi, phi') = ({1.0 + ivp.y[0, -1]}, {ivp.y[1, -1]})")
        return ivp

    return eps0, integrate


def shoot_eigen(h: Density, r0: float, bracket, tol: float = 1e-8, *, integrate=None) -> float:
    """Shooting eigenvalue: root of lambda -> phi(r0) inside ``bracket``.

    phi'' + (log h)' phi' + lambda phi = 0 is integrated from eps0 = 1e-6 r0
    to r0 by LSODA (Adams/BDF, rtol 1e-11, atol 1e-13, through
    ``scipy.integrate.odeint``, never stepping past r0), starting from
    phi(eps0) = 1 and the flux identity phi'(eps0) = -lambda m([0, eps0]) /
    h(eps0).  Brent's method finds the root to xtol tol * bracket[0]; each
    trial lambda is integrated once.  Raises ``bracket`` when phi(r0) has
    one sign at both ends, ``stiffness`` when LSODA fails or ends at a
    non-finite state, and ``shooting`` when |phi(r0)| stays above 100*tol.
    ``integrate`` is the integrator of ``_shooting_machinery(h, r0)``, built
    here unless a shooting solve passes the one it reuses afterwards.
    """
    _validate_problem(h, r0)
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (0.0 < lo < hi) or not math.isfinite(hi):
        raise PreconditionError("bracket", f"bracket must satisfy 0 < lo < hi, got ({lo}, {hi})")
    if not (1e-12 < tol < 1e-3):
        raise PreconditionError("domain", f"tol must lie in (1e-12, 1e-3), got {tol}")

    from scipy.optimize import brentq

    if integrate is None:
        _, integrate = _shooting_machinery(h, r0)

    # brentq evaluates both bracket ends again and returns a point it has
    # evaluated, so the cache integrates each trial lambda once.
    @cache
    def miss(lam):
        return 1.0 + float(integrate(lam).y[0, -1])

    f_lo, f_hi = miss(lo), miss(hi)
    if f_lo * f_hi > 0:
        raise PreconditionError(
            "bracket",
            f"no sign change of phi(r0) on ({lo}, {hi}): endpoints give ({f_lo:.3e}, {f_hi:.3e})",
        )
    lam = brentq(miss, lo, hi, xtol=tol * lo, rtol=max(1e-13, 0.01 * tol))
    resid = abs(miss(lam))
    if resid > 100.0 * tol:
        raise NonconvergenceError("shooting", f"|phi(r0)| = {resid:.3e} did not fall below tolerance")
    return float(lam)


def _shooting_solution(h: Density, r0: float, tol: float) -> EigenSolution:
    est = first_dirichlet_eigen(h, r0, tol=1e-6, method="matrix").eigenvalue
    eps0, integrate = _shooting_machinery(h, r0)
    lam = shoot_eigen(h, r0, ((1.0 - 1e-3) * est, (1.0 + 1e-3) * est), tol,
                      integrate=integrate)

    nodes = _initial_nodes(h, r0)
    inside = nodes >= eps0
    vals = integrate(lam, nodes[inside]).y
    # Below the start point phi is flat to O(eps^2); pin the natural boundary.
    phi = np.ones_like(nodes)
    dphi = np.zeros_like(nodes)
    phi[inside] = 1.0 + vals[0]
    dphi[inside] = vals[1]
    phi[-1] = 0.0
    sol = _eigen_solution(h, nodes, lam, phi, "shooting", [est, lam], dphi)
    if sol.flux_residual > 100.0 * tol:
        raise NonconvergenceError(
            "flux", f"flux-identity residual {sol.flux_residual:.3e} exceeds 100*tol"
        )
    return sol
