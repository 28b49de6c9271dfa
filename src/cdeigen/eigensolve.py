"""First Dirichlet eigenvalues of weighted Sturm-Liouville problems on [0, r0].

The problem is the minimization of int (phi')^2 h dtheta / int phi^2 h dtheta
over functions vanishing at r0, with natural (no) boundary condition at the
left end where the weight h may vanish.  Three routes are provided:

* a Ritz route for model weights of small reach (``_spectral_solution``):
  in x = (t/r0)^2 the model eigenfunction is analytic, so polynomials in x
  of degree P vanishing at x = 1, with Gauss-Jacobi quadrature of the
  weight x^(N/2-1), give lambda as the smallest eigenvalue of one dense
  pencil of size P - 1, P doubling from 16 until two values agree;
* a conforming piecewise-linear discretization whose generalized eigenvalue
  is a variational upper bound, refined by mesh bisection, each level
  Richardson-extrapolated against the one before.  Unless told not to cut,
  it refines only [a, r0] after the first level, a being the cut below
  which that level puts less than 1e-16 of h phi^2.  The end at a is
  natural (phi repeats phi(a) below it), so each level is still the
  Rayleigh quotient of a conforming function on [0, r0], and
  lambda <= lambda_[a,r0] <= lambda / (1 - f), f being the converged
  eigenfunction's share below a;
* ``shoot_eigen``, a shooting method integrating the ODE
  phi'' + (log h)' phi' + lambda phi = 0 from near the singular end,
  together with its lambda-derivative, and finding the root of phi(r0) by
  Newton's method from the first mesh level's value; the root is certified
  as the first eigenvalue by the sign of phi and by the flux identity.

``weighted_integral``, the adaptive Gauss-Kronrod quadrature of one or
several integrands against the measure h dtheta in one pass, the C^1 cubic
Hermite interpolant of a solution's (phi, phi') and the flux-identity
diagnostic live here as well.  Mesh size, bisections, the
quadrature's panel budget and shooting's Newton steps are module constants,
not parameters.

Only numpy and ``scipy.linalg`` load with this module, which is all the
matrix and Ritz routes use.  Shooting imports ``scipy.integrate`` the first time it
runs (which loads ``scipy.optimize`` as well; shooting calls nothing of it).
"""

from __future__ import annotations

import bisect as _bisect_mod
import math
import warnings
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np
from scipy.linalg import eigh, eigh_tridiagonal, lapack

from .errors import NonconvergenceError, PreconditionError
from .modelspace import Density, ball_fits, max_diameter, s_kappa

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


# Relative roundoff floor of a panel's error estimate, as in QUADPACK's qk15.
_GK_ROUNDOFF = 50.0 * float(np.finfo(float).eps)


def _gk_panel(fh, a, b):
    """One Gauss-Kronrod pass over each panel [a[i], b[i]].

    ``a`` and ``b`` are arrays of panel ends; all 15 nodes of every panel go
    through one call of the already-vectorized integrand fh, which returns
    one row of values per integrand.  Returns the arrays (res, err) of
    Kronrod values and error estimates, one row per integrand and one
    column per panel.  An error estimate never drops below the roundoff
    floor, so a tolerance beneath double precision exhausts the panel budget
    instead of being met by an exact-looking Kronrod-Gauss difference.
    """
    hw = 0.5 * (b - a)
    x = (0.5 * (a + b))[:, None] + hw[:, None] * _XK
    vals = fh(x.ravel()).reshape(-1, *x.shape)
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


# First mesh size and bisections of the matrix route; the share of h phi^2
# the matrix route leaves below its cut; quadrature panel budget.
_BASE_NODES = 512
_MAX_REFINEMENTS = 8
_CUT_SHARE = 1e-16
_MAX_PANELS = 4096


def weighted_integral(f, h: Density, a: float, b: float,
                      rel_tol: float = 1e-10) -> float | np.ndarray:
    """Adaptive quadrature of int_a^b f(theta) h(theta) dtheta.

    ``f`` is a constant, a numpy-vectorizable callable with one value per
    point (the result is a float), or a callable that returns one row of
    values per integrand, shape (k, n) for n points (the result is the array
    of the k integrals, from one pass that evaluates h once per point).

    The initial partition breaks at ``_breaks(h, a, b)``, so h stays smooth
    per panel; all its panels are evaluated in one ``_gk_panel`` call.
    Refinement then runs in rounds until every row's summed error estimate
    is within rel_tol of its |total|.  Each round bisects every panel whose
    error estimate in some row exceeds its equal share rel_tol*|total|/n_panels
    of that row's target (when none does, the worst panel of the row
    farthest from its target) and evaluates all the halves in one call.
    When the round would take the partition past ``_MAX_PANELS`` panels,
    only the largest errors relative to their targets are split.  Panels
    narrower than 64 eps (b - a) are frozen.  NonconvergenceError
    ("quadrature") is raised once the budget is spent or every panel is
    frozen.
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

    rows = False
    if callable(f):
        def fh(x):
            nonlocal rows
            fx = np.asarray(f(x), dtype=float)
            rows = fx.ndim == 2
            return fx * h(x)
    else:
        c = float(f)
        fh = lambda x: c * h(x)

    pts = np.concatenate(([a], _breaks(h, a, b), [b]))
    lo, hi = pts[:-1], pts[1:]
    res, err = _gk_panel(fh, lo, hi)

    min_width = 64.0 * np.finfo(float).eps * (b - a)
    while True:
        total = res.sum(axis=1)
        target = rel_tol * np.maximum(np.abs(total), 1e-300)
        errsum = err.sum(axis=1)
        if np.all(errsum <= target):
            return total if rows else float(total[0])
        missed = errsum / target  # each row's error in units of its target
        # Panels too narrow to bisect in double precision stay frozen.
        wide = hi - lo >= min_width
        if lo.size >= _MAX_PANELS or not wide.any():
            raise NonconvergenceError(
                "quadrature",
                f"adaptive quadrature stalled at {lo.size} panels with "
                f"relative error {rel_tol * float(np.max(missed)):.3e}",
            )
        split = wide & np.any(err > (target / lo.size)[:, None], axis=0)
        if not split.any():
            worst = err[int(np.argmax(missed))]
            split[np.argmax(np.where(wide, worst, -np.inf))] = True
        idx = np.flatnonzero(split)
        room = _MAX_PANELS - lo.size
        if idx.size > room:
            score = np.max(err[:, idx] / target[:, None], axis=0)
            idx = idx[np.argsort(-score, kind="stable")[:room]]
        mid = 0.5 * (lo[idx] + hi[idx])
        new_lo = np.concatenate((lo[idx], mid))
        new_hi = np.concatenate((mid, hi[idx]))
        new_res, new_err = _gk_panel(fh, new_lo, new_hi)
        lo, hi = (np.concatenate((np.delete(old, idx), new))
                  for old, new in ((lo, new_lo), (hi, new_hi)))
        res, err = (np.concatenate((np.delete(old, idx, axis=1), new), axis=1)
                    for old, new in ((res, new_res), (err, new_err)))


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
# Weights of the element moments int h, int h l^2, int h l r, int h r^2 per
# unit width, l = 1 - x and r = x the hat functions on the element.
_QMOM = np.stack((_QW, _QW * (1.0 - _QX) ** 2, _QW * _QX * (1.0 - _QX), _QW * _QX ** 2),
                 axis=1)


def assemble_weighted_problem(h: Density, r0: float, nodes) -> WeightedEigenProblem:
    """Assemble stiffness and mass matrices for the weight h on the mesh
    ``nodes``, which must increase strictly from 0 to r0."""
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1 or nodes.size < 3 or nodes[0] != 0.0 or nodes[-1] != r0 \
            or np.any(np.diff(nodes) <= 0):
        raise PreconditionError("grid", "the mesh must increase strictly from 0 to r0")

    w = np.diff(nodes)
    w2 = w * w
    if not np.all(w2 > 0.0):  # else m0 / w2 is 0/0 or inf
        raise PreconditionError(
            "domain", f"an element of the mesh on [0, r0] with r0 = {r0} is too narrow: "
                      "its width squared underflows double precision")
    pts = nodes[:-1, None] + w[:, None] * _QX[None, :]
    hv = np.asarray(h(pts.ravel()), dtype=float).reshape(pts.shape)

    m0, mll, mlr, mrr = (hv @ _QMOM).T * w
    s = m0 / w2

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
    if h.kind == "model" and not ball_fits(h.K, h.N, r0):
        raise PreconditionError("domain", f"r0 = {r0} must stay below (1 - 1e-12) times "
                                          f"the diameter bound {max_diameter(h.K, h.N)}")
    if not h.positive_on_interior(r0):
        raise PreconditionError(
            "domain", "density vanishes at an interior sample node; the solver refuses"
        )


def _validate_tol(tol: float) -> None:
    if not (1e-12 < tol < 1e-3):
        raise PreconditionError("domain", f"tol must lie in (1e-12, 1e-3), got {tol}")


# ------------------------------------------------------------------ eigenpair

def _tri_mv(diag, off, x):
    y = diag * x
    y[:-1] += off * x[1:]
    y[1:] += off * x[:-1]
    return y


# Largest scaled off-diagonal of the pencil that the model weight's range
# admits: past it the weight's values leave double precision (see
# ``_smallest_eigenpair``).
_SQRT_MAX = math.sqrt(float(np.finfo(float).max))


class _Massless(ArithmeticError):
    """No row of the mesh keeps nonzero mass: h underflows on all of it."""


def _lumped_mass(prob: WeightedEigenProblem) -> np.ndarray:
    """Row sums of B: the lumped mass of each unknown."""
    lumped = prob.mass_diag.copy()
    lumped[:-1] += prob.mass_off
    lumped[1:] += prob.mass_off
    return lumped


def _factor_below(ad, ao, bd, bo, mu):
    """A shift sigma below the smallest eigenvalue lambda of (A, B), with the
    LDL^T factors (d, e) of A - sigma B.

    B is positive definite, so by Sylvester's law of inertia A - sigma B is
    positive definite, and ``dpttrf`` succeeds (info == 0), exactly when
    sigma < lambda.  The warm start sigma = (1 - 2e-3) mu, mu the Rayleigh
    quotient of the start vector, succeeds whenever mu < lambda / (1 - 2e-3):
    the previous level's eigenvector gives that.  Otherwise bisection on
    [0, sigma] by the same test keeps the largest sigma that factors, to
    1e-3 relative of the smallest one that does not, which puts it within
    1e-3 of lambda.  After 64 halvings without a sigma that factors the
    shift is 0: A itself, which raises ``factorization`` when it does not
    factor."""
    lo, hi = 0.0, (1.0 - 2e-3) * mu
    d, e, info = lapack.dpttrf(ad - hi * bd, ao - hi * bo)
    if info == 0:
        return hi, d, e
    factors = None
    for _ in range(64):
        if hi - lo <= 1e-3 * hi:
            break
        mid = 0.5 * (lo + hi)
        d, e, info = lapack.dpttrf(ad - mid * bd, ao - mid * bo)
        if info == 0:
            lo, factors = mid, (d, e)
        else:
            hi = mid
    if factors is None:
        d, e, info = lapack.dpttrf(ad, ao)
        if info != 0:
            raise NonconvergenceError("factorization",
                                      f"tridiagonal factorization failed (info={info})")
        factors = d, e
    return (lo, *factors)


def _smallest_eigenpair(prob: WeightedEigenProblem, start, first: int = 0):
    """Smallest eigenpair of (A, B) by inverse iteration at a certified shift.

    One mechanism makes the natural end: the rows before k0 are eliminated
    and repeat the value of row k0, so the element left of k0 adds no
    stiffness and their own mass is dropped, which can only raise the
    quotient.  k0 follows the last row of zero lumped mass (h underflows up
    to there at large N), and is at least ``first``: 1 on a mesh cut at
    a = nodes[1], whose row at 0 would carry the share f of the mass below
    a.  A mesh with no row of nonzero mass, or on which the start vector's
    B-norm underflows to 0, raises ``_Massless``.  A mesh
    whose off-diagonal scaled by the lumped masses, a_{i,i+1} /
    sqrt(m_i m_{i+1}), exceeds sqrt(max double) raises FloatingPointError,
    as numpy's overflow does: that is the model weight's range
    precondition (at r0 = 1e-90 the inverse iteration degenerates without
    it), kept until the model weight is solved scale-free.

    The shift comes from the factorization of A - sigma B itself (see
    ``_factor_below``), from the Rayleigh quotient mu0 of ``start`` (one
    value per unknown); the iteration reuses the factors that certified it.
    It stops at the second step, counted without reset, that fails to lower
    the Rayleigh quotient by 1e-14 relative, and raises ``eigen-iteration``
    after 200 steps.
    Returns lambda and the eigenvector on all nodes: the eliminated rows
    repeat the value of row k0, and the Dirichlet end is zero.
    """
    lumped = _lumped_mass(prob)
    massless = np.flatnonzero(lumped == 0.0)
    k0 = max(first, int(massless[-1]) + 1 if massless.size else 0)
    if k0 == lumped.size:
        raise _Massless
    ad, ao = prob.stiff_diag[k0:].copy(), prob.stiff_off[k0:]
    bd, bo, lumped = prob.mass_diag[k0:], prob.mass_off[k0:], lumped[k0:]
    ad[0] = -ao[0]

    r = 1.0 / np.sqrt(lumped)
    if not np.max(np.abs(ao * r[:-1] * r[1:]), initial=0.0) < _SQRT_MAX:
        raise FloatingPointError("the scaled off-diagonal leaves the model weight's range")

    x = np.array(start[k0:], dtype=float)
    bx = _tri_mv(bd, bo, x)
    bnorm = math.sqrt(float(x @ bx))
    if not bnorm > 0:  # the masses are so small that x B x underflows
        raise _Massless
    x /= bnorm
    bx /= bnorm
    mu = float(x @ _tri_mv(ad, ao, x))
    _, d, e = _factor_below(ad, ao, bd, bo, mu)

    stalls = 0
    for _ in range(200):
        y, info = lapack.dpttrs(d, e, bx)
        if info != 0:
            raise NonconvergenceError("eigen-iteration", f"tridiagonal solve failed (info={info})")
        by = _tri_mv(bd, bo, y)
        bnorm = math.sqrt(float(y @ by))
        if not (bnorm > 0 and math.isfinite(bnorm)):
            raise NonconvergenceError("eigen-iteration", "inverse iteration produced a degenerate iterate")
        x, bx = y / bnorm, by / bnorm
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
    5-node interpolants of phi by the matrix route, exact derivatives of the
    Ritz polynomial by the Ritz route).  ``method`` is "matrix", "spectral"
    (the Ritz route) or "shooting".  refinement_history records the matrix
    route's raw per-level eigenvalue estimates (the final eigenvalue adds
    one Richardson step on top of the last entry), the Ritz value at each
    degree 16, 32, ... (the last is the eigenvalue), or shooting's Newton
    iterates, from the first level's value, and its root.
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

    Returns f(t), the pair (cubic, derivative) at the points t inside
    [x[0], x[-1]].  ``np.interp`` of the node index locates each t (a
    compiled search that starts from its last position) and yields the
    interval i and the offset s in [0, 1] in one call, shared by both; the
    cubic in s is evaluated by Horner's rule with per-interval coefficients.
    """
    w = np.diff(x)
    dlt = np.diff(y)
    m0, m1 = w * dy[:-1], w * dy[1:]
    c2 = 3.0 * dlt - 2.0 * m0 - m1
    c3 = m0 + m1 - 2.0 * dlt
    y0 = y[:-1]
    index = np.arange(x.size, dtype=float)
    last = x.size - 2

    def f(t):
        u = np.interp(t, x, index)
        i = np.minimum(u.astype(np.intp), last)
        s = u - i
        m0i, c2i, c3i = m0[i], c2[i], c3[i]
        return (y0[i] + s * (m0i + s * (c2i + s * c3i)),
                (m0i + s * (2.0 * c2i + 3.0 * s * c3i)) / w[i])

    return f


_FX, _FW = np.polynomial.legendre.leggauss(4)
_FX = 0.5 * (_FX + 1.0)
_FW = 0.5 * _FW
# Cubic Hermite basis at the abscissas _FX: row j weighs y0, y1, w y0', w y1'.
_FH = np.stack((1.0 - _FX ** 2 * (3.0 - 2.0 * _FX), _FX ** 2 * (3.0 - 2.0 * _FX),
                _FX * (1.0 - _FX) ** 2, _FX ** 2 * (_FX - 1.0)))


def flux_identity_residual(sol: EigenSolution, h: Density) -> float:
    """Scale-free defect of the identity phi'(t) h(t) = -lambda int_0^t phi h.

    The maximum over grid nodes of |phi' h + lambda F| is normalized by
    lambda * F(r0), F being the cumulative integral of phi against h.  F is
    summed from 4-point Gauss rules on each grid interval, applied to the
    C^1 cubic Hermite interpolant of the solution's own nodal phi and phi':
    at the rules' fixed abscissas the cubic is its nodal data times the
    Hermite basis there.  h is evaluated once, at the rules' points and the
    grid nodes together.
    """
    x, phi, dphi = sol.grid, sol.phi, sol.dphi
    if not (x.shape == phi.shape == dphi.shape):
        raise PreconditionError("grid", "solution arrays have mismatched shapes")
    lam = sol.eigenvalue
    w = np.diff(x)
    pts = x[:-1, None] + w[:, None] * _FX[None, :]
    hv = np.asarray(h(np.concatenate((pts.ravel(), x))), dtype=float)
    cubic = np.stack((phi[:-1], phi[1:], w * dphi[:-1], w * dphi[1:]), axis=1) @ _FH
    panels = w * ((hv[:pts.size].reshape(pts.shape) * cubic) @ _FW)
    F = np.concatenate(([0.0], np.cumsum(panels)))
    defect = dphi * hv[pts.size:] + lam * F
    denom = abs(lam) * F[-1]
    if not denom > 0:
        raise PreconditionError("domain", "cumulative weighted integral of phi vanished")
    return float(np.max(np.abs(defect)) / denom)


def _eigen_solution(h, nodes, lam, phi, method, history, dphi=None, first=0) -> EigenSolution:
    """Scale phi to sup-norm 1, clip it at 0, recover dphi from it by divided
    differences within the stretches of [nodes[first], r0] between
    ``_breaks`` (phi is flat below nodes[first]), or scale a given dphi
    alike; attach the flux residual."""
    top = float(np.max(np.abs(phi)))
    phi = np.maximum(phi / top, 0.0)
    if dphi is None:
        dphi = np.zeros(nodes.size)
        x = nodes[first:]
        dphi[first:] = _poly_derivative(x, phi[first:], _breaks(h, x[0], x[-1]))
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
                          method: str = "matrix", cut: bool = True) -> EigenSolution:
    """Smallest Dirichlet eigenvalue of the weight h on [0, r0].

    ``method="matrix"`` takes the Ritz route (``_spectral_solution``,
    ``EigenSolution.method`` "spectral") for a model weight whose reach r0
    sqrt(max(|K|, |K|/(N - 1))) is below ``_SPECTRAL_REACH`` = 10, and, with
    ``cut=False``, N at most ``_UNCUT_MAX_N`` = 30; everything else takes
    the matrix route below (sampled weights, the N -> 2+ end of the default
    kk-bound curve below N = 2.04, where the reach passes 10; it is 63 at
    N = 2.001).  The Ritz route returns
    the last of its Ritz values, which agree with the closed form within
    2.1e-11 where that is exact (K = 0 or N = 3) and with the matrix route
    within 1e-10 on K in [-5, 2], N in [1.05, 30], r0 up to min(2.5, 0.9 *
    diameter).  On the default kk-bound curve it takes N from 2.04 up and
    solves every N tried to 20 000, within 1e-12 of the closed form (nearly
    exact there) from N = 1000 on, in about 1 ms up to N = 300, 3 ms at N =
    2000 and 10 ms at N = 20 000.  Its phi passes the same 100*tol flux
    gate.

    The matrix route bisects the first mesh (``_initial_nodes``: uniform,
    graded toward a vanishing weight at 0, every sample node a node) up to
    ``_MAX_REFINEMENTS`` times.  From that first level's lumped mass times
    phi^2 it takes the cut a: the largest node below which the share is
    under ``_CUT_SHARE`` = 1e-16.  When that drops a node, the later levels
    keep 0 and a and bisect only [a, r0], with a natural end at a (see
    ``_smallest_eigenpair``) and a a break of slope recovery.  The value
    stays an upper bound and moves by a factor of at most 1/(1 - f), f the
    converged eigenfunction's share below a.  The first level only
    estimates f; on the default kk-bound curve at N = 30 to 2000 the
    converged share measured 0.8e-16 to 1.3e-16, and the value stayed
    within 2e-13 of the uncut solve.  Below a, phi repeats phi(a) and dphi
    is 0: that is no approximation of the eigenfunction there, so a caller
    that uses phi itself on all of [0, r0] (as a test function against
    another density) passes ``cut=False``, and every level bisects all of
    [0, r0].  From the second level on, each level's estimate is
    Richardson-extrapolated, ex_k = lambda_k + (lambda_k -
    lambda_{k-1})/3, and the route stops once two successive extrapolated
    values agree to tol relatively (so at least three levels run).  It
    returns the last extrapolated value once the flux-identity residual
    falls below 100*tol (the eigenfunction can lag the eigenvalue on rough
    weights), and raises ``flux`` or ``refinement`` when the levels run out.
    Each level runs inverse iteration from the previous level's
    eigenvector, at a shift certified by the factorization of A - sigma B
    itself (see ``_factor_below``): the warm start (1 - 2e-3) times that
    vector's Rayleigh quotient factors wherever the level lowers the value
    by less than 0.2 %, so such a level factors once; otherwise, and on the
    first level, bisection by factorization takes about 12.  Forced onto the
    default kk-bound curve, the matrix route solves out to N = 3000 (9 986
    nodes at N = 2300); at N = 6000 it raises ``refinement``.
    The shooting route is one call of ``shoot_eigen``, which runs no matrix
    solve: Newton's method starts from the value of the matrix route's
    first level (``_first_level``), an upper bound on lambda, and may not
    leave (1 - 1e-3, 1 + 1e-3) times it; each integration is sampled at the
    first mesh's nodes, and the last one gives phi and phi'.  The root is
    certified as the first eigenvalue by Sturm's oscillation theorem (phi
    positive at every interior node, else ``shooting``) and passes the same
    100*tol flux gate.  On model densities it agrees with the matrix route
    for K in [-5, 2], N in [1.05, 30] and r0 up to min(2.5, 0.9 *
    diameter), in 2 or 3 integrations, and on the default kk-bound curve
    for N in [2.003, 88].  On that curve it fails as N -> 2+ (``shooting``
    at N = 2.001, where Newton does not settle; ``flux`` at N = 2.0018,
    residual 2.2e-6) and from about N = 90 on (``flux`` at N = 90, residual
    1.05e-6; ``bracket`` at N = 150; ``shooting`` at N = 300 and 1000,
    where phi - 1 rounds to -1 near r0, so phi is not positive there).
    A weight whose values or matrix entries overflow double precision on
    [0, r0], or underflow so far that no mass is left, raises ``domain``
    in the matrix and shooting routes; for a model weight the message names
    K, N and r0.  So does a mesh whose element widths square to 0 (a tiny
    r0), from ``assemble_weighted_problem``.  The Ritz route solves the unit
    problem and meets neither; it raises ``domain`` only when lambda itself
    leaves double precision (r0 = 1e-160 at N = 3).  Every route raises
    ``domain`` for a model radius whose ball does not fit inside the model
    (``ball_fits``: r0 < (1 - 1e-12) times the diameter bound).
    """
    _validate_problem(h, r0)
    _validate_tol(tol)
    if method not in ("matrix", "shooting"):
        raise PreconditionError("domain", f"unknown method {method!r}")

    # lambda is blind to a constant factor in h, but the assembly is not: a
    # weight past the double range is a domain error, not an inf or NaN that
    # fails in LAPACK.  Underflow alone is no error (h vanishes at 0); it is
    # one once it leaves no mass.  Both routes start from the same first
    # level, so both meet it there.
    try:
        with np.errstate(over="raise"):
            if method == "shooting":
                return shoot_eigen(h, r0, tol)
            share = _CUT_SHARE if cut else 0.0
            if h.kind == "model" and _spectral_reach(h, r0) < _SPECTRAL_REACH \
                    and (cut or h.N <= _UNCUT_MAX_N):
                return _spectral_solution(h, r0, tol, share)
            return _matrix_solution(h, r0, tol, share)
    except FloatingPointError:
        how = "overflows"
    except _Massless:
        how = "underflows"
    what = f"the model weight with K = {h.K}, N = {h.N}" if h.kind == "model" else "h"
    raise PreconditionError(
        "domain", f"{what} {how} double precision on [0, r0] with r0 = {r0}")


def _mass_cut(prob: WeightedEigenProblem, phi: np.ndarray, share: float) -> int:
    """Index j of the cut a = nodes[j]: the rows before it carry less than
    ``share`` of sum(lumped mass * phi^2)."""
    c = np.cumsum(_lumped_mass(prob) * phi[:-1] ** 2)
    return int(np.searchsorted(c, share * c[-1]))


def _first_level(h: Density, r0: float):
    """The first mesh level that both routes start from: the problem
    assembled on ``_initial_nodes`` and its smallest eigenpair by inverse
    iteration from 1 - (theta/r0)^2.  Its value is the Rayleigh quotient of
    a conforming function, an upper bound on lambda."""
    nodes = _initial_nodes(h, r0)
    prob = assemble_weighted_problem(h, r0, nodes)
    return (prob, *_smallest_eigenpair(prob, 1.0 - (nodes[:-1] / r0) ** 2))


def _matrix_solution(h: Density, r0: float, tol: float, share: float) -> EigenSolution:
    prob, lam, phi = _first_level(h, r0)
    nodes = prob.nodes
    history = [lam]
    cut = 0  # 1 once nodes[0] = 0 lies below the natural end a = nodes[1]
    if (j := _mass_cut(prob, phi, share)) > 1:  # a cut at nodes[1] would drop no node
        keep = np.r_[0, j:nodes.size]
        nodes, phi, cut = nodes[keep], phi[keep], 1
    ex_prev = stuck_flux = None
    for _ in range(_MAX_REFINEMENTS):
        fine = np.concatenate((nodes[:cut], _bisect_nodes(nodes[cut:])))
        start = np.interp(fine[:-1], nodes, phi)
        nodes = fine
        prob = assemble_weighted_problem(h, r0, nodes)
        lam, phi = _smallest_eigenpair(prob, start, cut)
        history.append(lam)
        ex = lam + (lam - history[-2]) / 3.0
        if ex_prev is not None and abs(ex - ex_prev) <= tol * abs(ex):
            sol = _eigen_solution(h, nodes, ex, phi, "matrix", history, first=cut)
            if sol.flux_residual <= 100.0 * tol:
                return sol
            stuck_flux = sol.flux_residual
        ex_prev = ex
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


# ------------------------------------------------------------------ Ritz route

# A model weight whose reach r0 sqrt(max(|K|, |kappa|)) lies below this bound
# takes the Ritz route.  For K < 0 the Ritz values settle by degree 64, within
# 2e-9 of the matrix route, for every N measured from 1.05 to 1000 at reach
# 10 and 12; at 15 they do not for N = 3 to 30, where roundoff or an
# indefinite mass matrix ends the doubling.  For K > 0 near the diameter the
# Ritz route fails only where the matrix route fails too.  sqrt|kappa| r0
# alone would admit K r0^2 = -225 at N = 10, which does not settle.
_SPECTRAL_REACH = 10.0
# Largest N of an uncut Ritz solve.  Where x^beta is tiny, near 0, the
# expansion in the q_k turns the eigenvector's roundoff into an error of
# phi: at K = 0 it is 1e-7 at N = 25, 2e-6 at N = 30 and 40, and 5e-4 at
# N = 50, against the matrix route's 1e-5.
_UNCUT_MAX_N = 30.0
# Bisections of the first grid of an uncut Ritz solve.  Its phi is a test
# function that the comparison integrates through the Hermite cubic, whose
# phi' has slope jumps of order w^2 at the nodes; on the first grid they
# fool the Gauss-Kronrod error estimate (model(-4, 3) against itself: gap
# 2e-10 at quadrature tol 1e-10, 6e-12 after two bisections).
_UNCUT_BISECTIONS = 2
# Degrees of the Ritz route: 16, 32, ... up to the cap; a Gauss-Jacobi rule
# of max(P, 32) + 40 nodes serves degree P, so 16 and 32 share one (with 20
# extra nodes instead of 40 the default KK curve at N = 5000 does not settle).
_FIRST_DEGREE = 16
_MAX_DEGREE = 256


def _spectral_reach(h: Density, r0: float) -> float:
    """r0 sqrt(max(|K|, |kappa|)) of a model weight, kappa = K/(N - 1): the
    scale-free curvature sqrt|K r0^2|, and sqrt|kappa| r0 for N < 2."""
    return r0 * math.sqrt(abs(h.K) * max(1.0, 1.0 / (h.N - 1.0)))


def _jacobi_matrix(beta: float, n: int):
    """Diagonal d and off-diagonal e of the Jacobi matrix of x^beta on [0, 1]:
    x q_k = e_k q_{k+1} + d_k q_k + e_{k-1} q_{k-1} for the polynomials q_k
    orthonormal under x^beta dx / int x^beta dx, q_0 = 1 (the Jacobi
    polynomials P_k^(0, beta)(2x - 1), scaled)."""
    k = np.arange(1.0, n)
    s = 2.0 * k + beta
    d = np.empty(n)
    d[0] = beta / (beta + 2.0)
    d[1:] = beta * beta / (s * (s + 2.0))
    return 0.5 * (1.0 + d), k * (k + beta) / (s * np.sqrt(s * s - 1.0))


def _derivative_values(beta: float, x: np.ndarray, V: np.ndarray) -> np.ndarray:
    """sqrt(omega_i) q_k'(x_i) from V = (sqrt(omega_i) q_k(x_i)), x inside (0, 1).

    With y = 2x - 1 and s = 2k + beta, the Jacobi polynomials P_k =
    P_k^(0, beta)(y) satisfy s (1 - y^2) P_k' = -k (beta + s y) P_k +
    2k (k + beta) P_{k-1}; in x, for q_k = g_k P_k, g_k = sqrt((s + 1) /
    (beta + 1)), that is one expression in the rows k and k - 1 of V."""
    k = np.arange(1.0, V.shape[0])[:, None]
    s = 2.0 * k + beta
    ratio = np.sqrt((s + 1.0) / (s - 1.0))  # g_k / g_{k-1}
    out = np.zeros_like(V)
    out[1:] = (2.0 * k * (k + beta) * ratio * V[:-1] - k * (beta + s * (2.0 * x - 1.0)) * V[1:]) \
        / (2.0 * s * x * (1.0 - x))
    return out


def _orthonormal_values(d, e, P: int, x: np.ndarray) -> np.ndarray:
    """q_0, ..., q_{P-1} at the points x, one row each, by the recurrence
    q_{k+1} = ((x - d_k) q_k - e_{k-1} q_{k-1}) / e_k."""
    ramp = np.outer(1.0 / e[:P - 1], x) - (d[:P - 1] / e[:P - 1])[:, None]
    back = e[:P - 2] / e[1:P - 1]
    q = np.empty((P, x.size))
    q[0] = 1.0
    q[1] = ramp[0]
    for k in range(1, P - 1):
        np.multiply(ramp[k], q[k], out=q[k + 1])
        q[k + 1] -= back[k - 1] * q[k - 1]
    return q


def _ritz_pair(beta, x, w, V, DV):
    """Smallest Ritz pair of the unit model problem over the polynomials of
    degree < P vanishing at x = 1, P = V.shape[0].

    Column i of V holds sqrt(omega_i) q_k(x_i), omega the Gauss-Jacobi
    weights, and DV the same for q_k'.  The polynomials vanishing at 1 are
    the orthonormal complement of r = (q_k(1)) = sqrt((2k + beta + 1) /
    (beta + 1)), spanned by all but the first column of the Householder
    reflector that maps r to a multiple of e_0.  Returns the Ritz value
    4 mu, mu the smallest eigenvalue of the pencil (int p'^2 x^(beta+1) w,
    int p^2 x^beta w), and its eigenvector's coefficients in the q_k; a
    pencil that lost definiteness to roundoff raises ``refinement``."""
    P = V.shape[0]
    v = np.sqrt((2.0 * np.arange(P) + beta + 1.0) / (beta + 1.0))
    v[0] += math.sqrt(float(v @ v))
    v *= math.sqrt(2.0) / math.sqrt(float(v @ v))  # H = I - v v^T

    def reflect(X):
        return (X - np.outer(v, v @ X))[1:]

    A, B = reflect(V), reflect(DV)
    try:
        mu, y = eigh((B * (x * w)) @ B.T, (A * w) @ A.T, subset_by_index=[0, 0],
                     check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NonconvergenceError(
            "refinement", f"the Ritz pencil of degree {P} lost definiteness: {exc}") from None
    coef = np.concatenate(([0.0], y[:, 0]))
    return 4.0 * float(mu[0]), coef - v * float(v @ coef)


def _spectral_solution(h: Density, r0: float, tol: float, share: float) -> EigenSolution:
    """The Ritz route of ``first_dirichlet_eigen`` for a model weight.

    It solves the unit problem, lambda_{K,N,r0} = lambda_{K r0^2,N,1} / r0^2,
    and scales its solution back to [0, r0]; the flux residual is blind to
    the scale.  In x = t^2 on [0, 1] the model weight is t^(N-1)
    (s_kappa(t)/t)^(N-1), so lambda = 4 min int p'^2 x^(beta+1) w / int p^2
    x^beta w over p with p(1) = 0, beta = N/2 - 1, w = ((s_kappa(t)/t) /
    s_kappa(1))^(N-1) taken in log space, w(1) = 1; the eigenfunction is
    analytic in x.  Gauss-Jacobi quadrature of x^beta by Golub-Welsch
    (``eigh_tridiagonal`` on the Jacobi matrix) gives V = (sqrt(omega_i)
    q_k(x_i)), orthogonal, so no quadrature weight is formed, and
    ``_derivative_values`` the same for the q_k'.
    The degree P doubles from ``_FIRST_DEGREE`` until two Ritz values agree
    to tol relatively (the last is returned), else ``refinement`` at
    ``_MAX_DEGREE``.

    phi = p(t^2) and phi' = 2 t p'(t^2) are sampled in closed form on
    ``_initial_nodes``, bisected ``_UNCUT_BISECTIONS`` times for an uncut
    solve (share 0).  When the rule's masses omega p^2 w put less than
    ``share`` of the total below a node, the grid is 0 and ``_BASE_NODES``
    uniform nodes on [a, 1], a the node before that one, with phi flat below
    a as in the matrix route; there the orthonormal expansion would lose all
    its digits at large N.  The grid is bisected until the flux-identity
    residual is at most 100*tol, else ``flux`` after ``_MAX_REFINEMENTS``
    bisections.
    """
    unit = Density.model(h.K * r0 * r0, h.N)
    beta = 0.5 * h.N - 1.0
    kap = unit.K / (h.N - 1.0)
    history = []
    P, rule_degree = _FIRST_DEGREE, 0
    while True:
        if max(P, 2 * _FIRST_DEGREE) != rule_degree:
            rule_degree = max(P, 2 * _FIRST_DEGREE)
            d, e = _jacobi_matrix(beta, rule_degree + 40)
            x, V = eigh_tridiagonal(d, e, check_finite=False)
            V *= np.sign(V[0])
            t = np.sqrt(x)
            w = np.exp((h.N - 1.0) * np.log(s_kappa(kap, t) / (t * s_kappa(kap, 1.0))))
            DV = _derivative_values(beta, x, V[:rule_degree])
        mu, coef = _ritz_pair(beta, x, w, V[:P], DV[:P])
        history.append(mu)
        if len(history) > 1 and abs(history[-1] - history[-2]) <= tol * history[-1]:
            break
        P *= 2
        if P > _MAX_DEGREE:
            raise NonconvergenceError(
                "refinement", f"Ritz values did not settle to rel tol {tol} by degree "
                              f"{_MAX_DEGREE} (history: {[lam / r0 / r0 for lam in history]})")

    u = coef @ V[:P]  # sqrt(omega) p at the rule's nodes
    if u.sum() < 0:
        coef, u = -coef, -u
    mass = np.cumsum(u * u * w)
    j = int(np.searchsorted(mass, share * mass[-1]))
    if j > 1:
        nodes = np.concatenate(([0.0], np.linspace(math.sqrt(x[j - 1]), 1.0, _BASE_NODES)))
        first = 1
    else:
        nodes, first = _initial_nodes(unit, 1.0), 0
        for _ in range(0 if share else _UNCUT_BISECTIONS):
            nodes = _bisect_nodes(nodes)
    slope = V[:P] @ (coef @ DV[:P])  # p' in the q_k, by the exact quadrature
    for _ in range(_MAX_REFINEMENTS + 1):
        t = nodes[first:]
        q = _orthonormal_values(d, e, P, t * t)
        phi = np.empty(nodes.size)
        dphi = np.zeros(nodes.size)
        phi[first:] = coef @ q
        phi[:first] = phi[first]
        phi[-1] = 0.0
        dphi[first:] = 2.0 * t * (slope @ q)
        sol = _eigen_solution(unit, nodes, history[-1], phi, "spectral", history, dphi)
        if sol.flux_residual <= 100.0 * tol:
            history = [lam / r0 / r0 for lam in history]
            if not math.isfinite(history[-1]):
                raise PreconditionError(
                    "domain", f"the eigenvalue of the model weight with K = {h.K}, N = {h.N} "
                              f"leaves double precision at r0 = {r0}")
            grid = r0 * nodes
            grid[-1] = r0
            return replace(sol, eigenvalue=history[-1], grid=grid, dphi=sol.dphi / r0,
                           refinement_history=history)
        nodes = np.concatenate((nodes[:first], _bisect_nodes(nodes[first:])))
    raise NonconvergenceError(
        "flux", f"flux-identity residual {sol.flux_residual:.3e} stayed above 100*tol "
                f"within {_MAX_REFINEMENTS} bisections of the Ritz route's grid")


# ------------------------------------------------------------------ shooting

def solve_ivp(fun, t_span, y0, *, t_eval, rtol, atol):
    """LSODA on y' = fun(t, y) from t_span[0] to t_span[1], never stepping
    past t_span[1], sampled at the increasing times ``t_eval``.

    ``scipy.integrate.odeint`` runs LSODA's step loop in compiled code and
    calls Python only for the right-hand side; it is imported on the first
    call, so that only shooting loads scipy.integrate.  The result has the
    fields of a ``scipy.integrate.solve_ivp`` result that shooting reads:
    ``y`` (one column per time of t_eval), ``nfev``, ``success`` and
    ``message``.  A failure is reported there, not as an ``ODEintWarning``.
    Shooting calls the integrator only through this module global.
    """
    from scipy.integrate import ODEintWarning, odeint

    t0, t1 = t_span
    t = np.array(t_eval, dtype=float)
    # odeint's first row is y(t0); it serves a t_eval point at t0 as well.
    times = np.concatenate(([t0], t[t > t0]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ODEintWarning)
        y, info = odeint(fun, y0, times, tfirst=True, rtol=rtol, atol=atol, tcrit=[t1],
                         mxstep=2**31 - 1, full_output=True)
    return SimpleNamespace(y=y[times.size - t.size:].T, nfev=int(info["nfe"][-1]),
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


# Integrations one Newton search may take before it raises ``shooting``.
_MAX_NEWTON_STEPS = 10


def _shooting_machinery(h: Density, r0: float, nodes: np.ndarray):
    """The shooting ODE's integrator for one solve.

    It starts at eps0 = 1e-6 r0 from phi(eps0) = 1 and the Frobenius term
    phi'(eps0) = -lambda eps0 / (1 + eps0 (log h)'(eps0)), the flux
    identity's -lambda eps0 / (1 + p) where h ~ theta^p; that needs no
    value of h, which underflows at large N.  ``integrate(lam)`` returns the
    state at the ``nodes`` from eps0 on."""
    eps0 = r0 * 1e-6
    dlog = _log_derivative(h)
    start = eps0 / (1.0 + eps0 * dlog(eps0))
    t_eval = nodes[nodes >= eps0]

    def integrate(lam):
        """Integrate (phi - 1, phi', d phi/d lambda, d phi'/d lambda) from
        eps0 to r0 in one LSODA call; the lambda-derivative solves the
        variational equation, the ODE differentiated in lambda, from the
        lambda-derivative of the start values.

        Near the singular end phi differs from 1 by O(lam theta^2).  LSODA
        weighs a switch from Adams to BDF only while its error estimate is
        above roundoff relative to |y|; carried in phi itself that change is
        not, and LSODA could keep the Adams step of its start-point
        stability limit (2e-8 at N = 19.6, r0 = 0.262) for millions of
        steps.  Carried as phi - 1, it switches to BDF within its first steps.
        """
        def rhs(t, y):
            d = dlog(t)
            phi = 1.0 + y[0]
            return (y[1], -lam * phi - d * y[1], y[3], -lam * y[2] - phi - d * y[3])

        ivp = solve_ivp(rhs, (eps0, r0), [0.0, -lam * start, 0.0, -start], t_eval=t_eval,
                        rtol=1e-11, atol=1e-13)
        if not ivp.success:
            raise NonconvergenceError(
                "stiffness", f"ODE integration at lambda = {lam!r} failed: {ivp.message}")
        # A NaN right-hand side does not stop LSODA; it ends "successfully".
        if not np.all(np.isfinite(ivp.y)):
            raise NonconvergenceError(
                "stiffness", f"ODE integration at lambda = {lam!r} ended at a non-finite "
                f"(phi, phi') = ({1.0 + ivp.y[0, -1]}, {ivp.y[1, -1]})")
        return ivp.y

    return integrate


def shoot_eigen(h: Density, r0: float, tol: float) -> EigenSolution:
    """The shooting route of ``first_dirichlet_eigen``, which has validated
    its arguments: the root of lambda -> phi(r0) by Newton's method,
    certified as the first eigenvalue.

    phi'' + (log h)' phi' + lambda phi = 0 is integrated from eps0 = 1e-6 r0
    to r0 by LSODA (Adams/BDF, rtol 1e-11, atol 1e-13, through
    ``scipy.integrate.odeint``, never stepping past r0), starting from
    phi(eps0) = 1 and the Frobenius term phi'(eps0) = -lambda eps0 / (1 +
    eps0 (log h)'(eps0)), and sampled at the nodes of the matrix route's
    first mesh.  The same integration carries d phi/d lambda, so each trial
    lambda costs one integration and gives both phi(r0) and the Newton step
    -phi(r0) / (d phi/d lambda)(r0).  Newton starts at the first level's
    value (``_first_level``, an upper bound on lambda) and stops at the
    first step no longer than tol * lambda, which it applies.  phi and phi'
    at the nodes come from the last integration, moved to the root to first
    order by their lambda-derivatives.

    Raises ``bracket`` when an iterate leaves (1 - 1e-3, 1 + 1e-3) times the
    first level's value, ``stiffness`` when LSODA fails or ends at a
    non-finite state, ``shooting`` when the last integrated |phi(r0)|
    exceeds 100*tol, when no step is that short within ``_MAX_NEWTON_STEPS``
    integrations, or when phi is not positive at every interior node (by
    Sturm's oscillation theorem only the first eigenfunction has no zero in
    (0, r0)), and ``flux`` when the flux-identity residual exceeds 100*tol.
    """
    prob, est, _ = _first_level(h, r0)
    nodes = prob.nodes
    integrate = _shooting_machinery(h, r0, nodes)
    lo, hi = (1.0 - 1e-3) * est, (1.0 + 1e-3) * est
    lam = 0.5 * (lo + hi)
    history = []
    for _ in range(_MAX_NEWTON_STEPS):
        y = integrate(lam)
        history.append(lam)
        miss, slope = 1.0 + float(y[0, -1]), float(y[2, -1])
        step = -miss / slope if slope else math.inf
        if not lo <= lam + step <= hi:
            raise PreconditionError(
                "bracket", f"Newton's step from lambda = {lam!r} leaves the bracket "
                           f"({lo}, {hi}): phi(r0) = {miss:.3e}")
        if abs(step) <= tol * lam:
            break
        lam += step
    else:
        raise NonconvergenceError(
            "shooting", f"Newton's method did not settle to rel tol {tol} within "
                        f"{_MAX_NEWTON_STEPS} integrations (last lambda = {lam!r})")
    if abs(miss) > 100.0 * tol:
        raise NonconvergenceError(
            "shooting", f"|phi(r0)| = {abs(miss):.3e} did not fall below tolerance")

    # phi and phi' at the root, to first order in root - lam from the last run;
    # below the start point phi is flat to O(eps^2).  Pin the Dirichlet end.
    root = lam + step
    below = nodes.size - y.shape[1]
    phi = np.ones_like(nodes)
    dphi = np.zeros_like(nodes)
    phi[below:] = 1.0 + y[0] + (root - lam) * y[2]
    dphi[below:] = y[1] + (root - lam) * y[3]
    phi[-1] = 0.0
    # Sturm: only the first eigenfunction keeps one sign on (0, r0).
    if not np.all(phi[:-1] > 0.0):
        raise NonconvergenceError(
            "shooting", f"phi is not positive at every interior node, so lambda = {root!r} "
                        "is not certified as the first eigenvalue")
    sol = _eigen_solution(h, nodes, root, phi, "shooting", history + [root], dphi)
    if sol.flux_residual > 100.0 * tol:
        raise NonconvergenceError(
            "flux", f"flux-identity residual {sol.flux_residual:.3e} exceeds 100*tol"
        )
    return sol
