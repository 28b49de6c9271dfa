"""Closed-form eigenvalue bounds and first Bessel zeros.

The Bessel zeros need only ``math``; numpy comes with ``modelspace``, on the
first bound that needs the model geometry.  The first zero j_{nu,1} lies in
(max(nu, 0), sqrt(2(nu+1)(nu+3))) and is found by Halley iteration.  Each
step takes r = J_nu/J_{nu-1} from Gauss's continued fraction (Watson,
*A Treatise on the Theory of Bessel Functions*, 1944, section 5.6) by the
modified Lentz method (Thompson and Barnett, J. Comput. Phys. 64, 1986),
to a relative error near 1e-8; then J_nu/J_nu' = r/(1 - nu r/x), from
J_nu' = J_{nu-1} - (nu/x) J_nu, and J_nu''/J_nu' follows from Bessel's
equation.  An error in r only rescales the step, which vanishes at the
zero.  The start is a cubic fit below nu = 1 and an Airy-type expansion
from there, within 1.4e-3 of the zero at every order and 1.2e-7 from
nu = 300; the iteration stops after the first step shorter than 1e-6 of
the zero.  Halley converges cubically: a step of relative length s leaves
a relative error of order nu^(4/3) s^3, so the second step (the first one
from nu = 300) is the last, and the 1e-8 in r adds at most 1e-14.  The
result is checked against the bracket.  Where e = nu + 1 is below 1e-4,
the zero is its small-order expansion instead, with no J at all.  Orders
past ``_MAX_ORDER`` are a ``domain`` error.
``bessel_first_zeros`` maps ``bessel_first_zero`` over an array of orders.

Each closed form is written once: ``closed_form_bound`` evaluates it at a
point, ``closed_form_values`` over arrays of K and N, as in an N-scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache

from .errors import NonconvergenceError, PreconditionError, require_finite

# First-zero expansion in powers of nu^(-1/3); classical large-order result,
# already accurate to ~1e-4 relative at nu = 10.
_AIRY_COEFFS = (1.8557571, 1.033150, -0.00397, -0.0908, 0.043)


@cache
def _modelspace():
    """``cdeigen.modelspace``, imported on first use: it loads numpy, which
    the Bessel zeros and the essential-spectrum threshold do not need.  The
    cache keeps an import statement off each closed-form bound."""
    from . import modelspace

    return modelspace


# Below this e = nu + 1 the first zero is 2 sqrt(e) (1 + e/4 - 7 e^2/96 +
# 49 e^3/1152 - ...): e Gamma(nu + 1) (x/2)^(-nu) J_nu(x) is the series
# e - z + z^2/(2(1 + e)) - z^3/(6(1 + e)(2 + e)) + ... in z = x^2/4, whose
# smallest root is z = e + e^2/2 - e^3/12 + ....  Cut after the e^2 term,
# the expansion errs by under 49/1152 e^3 < 4.3e-14 relative.
_SMALL_ORDER = 1e-4


def _small_order_zero(e: float) -> float:
    """j_{nu,1} for e = nu + 1 in (0, _SMALL_ORDER), by its expansion."""
    return 2.0 * math.sqrt(e) * (1.0 + e * (0.25 - 7.0 / 96.0 * e))


# j_{nu,1}/(2 sqrt(e)) on -1 < nu < 1 as a cubic in e = nu + 1, coefficients
# from e^0 up: the least-maximum relative error fit to the zeros, rounded.
_LOW_ORDER_START = (1.0003, 0.24319, -0.048643, 0.007878)


def _halley_start(nu: float) -> float:
    """Starting point of the Halley iteration for j_{nu,1}.  Below nu = 1 it
    is the cubic ``_LOW_ORDER_START`` (within 3.2e-4 relative of the zero),
    from nu = 1 the Airy-type expansion (within 1.4e-3 at nu = 1, 1.1e-4 at
    nu = 10 and 1.2e-7 from nu = 300)."""
    if nu < 1.0:
        e = nu + 1.0
        a = _LOW_ORDER_START
        return 2.0 * math.sqrt(e) * (a[0] + e * (a[1] + e * (a[2] + e * a[3])))
    c = nu ** (1.0 / 3.0)
    t = _AIRY_COEFFS
    return nu + t[0] * c + t[1] / c + t[2] / nu + t[3] / (nu * c) + t[4] / (nu * nu / c)


# Terms of the continued fraction before ``_jv_ratio`` gives up.  Its
# convergents settle only past the index where 2(nu + k)/x passes 2, about
# 1.86 nu^(1/3) terms in; at the 1e-8 stop the fraction takes some
# 8 nu^(1/3) terms in all, 62 000 at nu = 5e11, and from about nu = 1.9e12
# it runs past this budget.
_CF_TERMS = 100_000
# Largest order ``bessel_first_zero`` accepts.  Below it the fraction ends
# within ``_CF_TERMS``, and the 1e-8 stop cannot fire before the index
# above: the convergents oscillate there, with factors at least
# 2.7 nu^(-2/3) from 1 (4.3e-8 at this order).  From about nu = 4.5e12 that
# gap is under 1e-8, and a stop there gives an r wrong in its first digits.
_MAX_ORDER = 5e11
_TINY = 1e-300


def _jv_ratio(nu: float, x: float) -> float:
    """J_nu(x)/J_{nu-1}(x) = 1/(2nu/x - 1/(2(nu+1)/x - ...)), by the modified
    Lentz method on the denominator.  It stops at the first term whose
    factor is within 1e-8 of 1, and is NaN at a NaN term or past
    ``_CF_TERMS`` terms."""
    h = 0.5 * x
    f = nu / h or _TINY
    c, d = f, 0.0
    for k in range(1, _CF_TERMS):
        b = (nu + k) / h
        d = 1.0 / ((b - d) or _TINY)
        c = (b - 1.0 / c) or _TINY
        delta = c * d
        f *= delta
        if not abs(delta - 1.0) >= 1e-8:
            return 1.0 / f
    return math.nan


@lru_cache(maxsize=16384)
def bessel_first_zero(nu: float) -> float:
    """Smallest positive zero j_{nu,1} of J_nu, to 1e-12 relative accuracy,
    for -1 < nu <= ``_MAX_ORDER``; any other order is a ``domain`` error."""
    nu = float(nu)
    if not -1.0 < nu <= _MAX_ORDER:
        raise PreconditionError(
            "domain", f"Bessel order must lie in (-1, {_MAX_ORDER:g}], got {nu}")
    if nu + 1.0 < _SMALL_ORDER:
        return _small_order_zero(nu + 1.0)
    x = _halley_start(nu)
    for _ in range(8):  # a NaN step never passes the test: it stalls
        r = _jv_ratio(nu, x)
        u = r / (1.0 - nu * r / x)  # J_nu/J_nu'
        dx = u / (1.0 + 0.5 * u * (1.0 / x + (1.0 - (nu / x) ** 2) * u))
        x -= dx
        if abs(dx) <= 1e-6 * x:
            break
    else:
        raise NonconvergenceError("newton", f"first-zero Halley iteration stalled at nu={nu}")
    # As nu -> -1 the zero approaches the upper end of its bracket to within
    # rounding, so that end has a 1e-12 margin.
    if not max(nu, 0.0) < x < math.sqrt(2.0 * (nu + 1.0) * (nu + 3.0)) * (1.0 + 1e-12):
        raise NonconvergenceError(
            "newton", f"first-zero Halley iteration left its bracket at nu={nu}")
    return x


def bessel_first_zeros(nu):
    """``bessel_first_zero`` over a 1-d array of orders in (-1,
    ``_MAX_ORDER``], with NaN where that raises ``newton``; an order outside
    raises its ``domain`` error.  Each zero comes through the module's
    ``bessel_first_zero`` binding, so it is the scalar zero bit for bit."""
    import numpy as np

    def zero(v):
        try:
            return bessel_first_zero(v)
        except NonconvergenceError:  # its one code is ``newton``
            return math.nan

    return np.array([zero(v) for v in np.asarray(nu, dtype=float).tolist()])


@dataclass(frozen=True)
class BoundValue:
    """A closed-form eigenvalue bound; exact only for the K=0 and N=3 cases."""

    value: float
    exact: bool
    formula_tag: str


# (formula_tag, exact) of each closed form, by its index from ``_case``.
_FORMULAS = (("bessel_k0", True), ("exact_n3", True),
             ("upper_n_lt_3", False), ("upper_n_gt_3", False))


def closed_form_bound(K: float, N: float, r0: float) -> BoundValue:
    """Closed-form value of (or upper bound on) the first Dirichlet eigenvalue.

    Dispatch: K=0 gives the exact Bessel identity j_{N/2-1,1}^2 / r0^2; N=3
    gives the exact -K/2 + pi^2/r0^2; otherwise the N<3 or N>3 upper bound.
    A radius whose ball does not fit inside the model (``ball_fits``) is a
    ``domain`` error.
    """
    if not (r0 > 0 and math.isfinite(r0)):
        raise PreconditionError("domain", f"r0 must be positive and finite, got {r0}")
    ms = _modelspace()
    if not ms.ball_fits(K, N, r0):
        raise PreconditionError("domain", f"r0 = {r0} must stay below (1 - 1e-12) times "
                                          f"the diameter bound {ms.max_diameter(K, N)}")
    K, N = float(K), float(N)
    case = _case(K, N)
    # Every closed form has a term c / r0^2 with c >= (pi/2)^2: a radius
    # whose r0^2 underflows to 0, or whose bound overflows, gives no value.
    value = math.nan
    if r0 * r0 > 0.0:
        j = bessel_first_zero(N / 2.0 - 1.0) if case != 1 else math.nan
        value = _closed_form(case, K, N, r0, j)
    if not math.isfinite(value):
        raise PreconditionError(
            "domain", f"r0 = {r0} is too small: the bound leaves double precision")
    tag, exact = _FORMULAS[case]
    return BoundValue(value, exact, tag)


def closed_form_values(K, N, r0: float, zeros):
    """``closed_form_bound(K, N, r0).value`` over 1-d arrays K and N, bit for
    bit, at one radius r0 inside each model diameter.

    ``zeros`` holds j_{N/2-1,1} for each N; it is not read where N = 3 and
    K != 0.  A NaN zero gives a NaN value; where ``closed_form_bound`` says
    the radius is too small, the value is not finite.  Nothing warns.
    """
    import numpy as np

    K, N, j = (np.asarray(a, dtype=float) for a in (K, N, zeros))
    out = np.full(K.shape, np.nan)
    if not r0 * r0 > 0.0:
        return out
    case = _case(K, N)
    with np.errstate(over="ignore", invalid="ignore"):
        for c in range(len(_FORMULAS)):
            part = case == c
            if np.any(part):
                out[part] = _closed_form(c, K[part], N[part], r0, j[part])
    return out


def _case(K, N):
    """Index in ``_FORMULAS`` of the closed form at (K, N), for floats or
    arrays: K = 0 first, then N = 3, N < 3, N > 3."""
    if isinstance(K, float):
        return 0 if K == 0.0 else 1 if N == 3.0 else 2 if N < 3.0 else 3
    from numpy import select

    return select([K == 0.0, N == 3.0, N < 3.0], [0, 1, 2], 3)


def _closed_form(case: int, K, N, r0: float, j):
    """Closed form number ``case`` at r0, for floats K, N, j or for arrays of
    points that all take that form.  r0 is a float, so r0**2 is libm's pow,
    as for a float bound; numpy's square can differ from it in the last bit."""
    r2 = r0**2
    if case == 0:
        return j * j / r2
    if case == 1:
        return -K / 2.0 + math.pi**2 / r2
    if case == 2:
        return -N * K / 6.0 + j * j / r2
    extra = (N - 1.0) * (N - 3.0) / 4.0 * (_inv_s2(K / (N - 1.0), r0) - 1.0 / r2)
    return -(N - 1.0) * K / 4.0 + j * j / r2 + extra


def _inv_s2(kappa, r0: float):
    """1/s_kappa(r0)^2 for a float kappa or an array of them.

    Where sinh overflows (sqrt(-kappa) r0 > 710.47), r0^2/s^2 is below
    1e-300; where s**2 does (s > 1.3e154), 1/s^2 is below 1e-308.  Both take
    1/s^2 = 0.  Each s**2 is libm's pow, as for a float.
    """
    s_kappa = _modelspace().s_kappa
    if isinstance(kappa, float):
        s = s_kappa(kappa, r0) if kappa * r0 * r0 > -710.0**2 else math.inf
        return 1.0 / s**2 if s < 1e154 else 0.0
    import numpy as np

    near = kappa * r0 * r0 > -710.0**2
    s = np.full(kappa.shape, math.inf)
    s[near] = s_kappa(kappa[near], r0)
    return np.array([1.0 / w**2 if w < 1e154 else 0.0 for w in s.tolist()])


def mode_radius(diam: float, j: int) -> float:
    """Radius diam/(2j) of the model ball that bounds the j-th Neumann mode."""
    if not float(j).is_integer() or j < 1:
        raise PreconditionError("domain", f"mode index j must be a positive integer, got {j}")
    return diam / (2.0 * int(j))


def _model_eigenvalue(method: str):
    """lambda_{K,N,r0} by ``method`` as a function of (K, N, r0, solver_tol):
    ``closed_form_bound``, or the matrix solve of ``Density.model(K, N)``.
    An unknown method is rejected here, before any work."""
    if method == "closed_form":
        return lambda K, N, r0, tol: closed_form_bound(K, N, r0).value
    if method != "solver":
        raise PreconditionError("domain", f"unknown method {method!r}")
    from .eigensolve import first_dirichlet_eigen

    return lambda K, N, r0, tol: first_dirichlet_eigen(
        _modelspace().Density.model(K, N), r0, tol=tol).eigenvalue


def neumann_upper_bound(K: float, N: float, diam: float, j: int,
                        method: str = "closed_form", solver_tol: float = 1e-8) -> float:
    """Upper bound on the j-th Neumann eigenvalue of a space of diameter diam.

    Evaluates the first Dirichlet eigenvalue at radius diam/(2j), by the
    eigensolver or by the closed-form dispatch.
    """
    eigenvalue = _model_eigenvalue(method)
    if not (diam > 0 and math.isfinite(diam)):
        raise PreconditionError("hypothesis", f"diameter must be positive and finite, got {diam}")
    r0 = mode_radius(diam, j)
    d = _modelspace().max_diameter(K, N)
    if diam > d * (1.0 + 1e-12):
        raise PreconditionError(
            "hypothesis", f"diameter {diam} exceeds the bound {d} forced by K = {K} > 0")
    return eigenvalue(K, N, r0, solver_tol)


def essential_spectrum_threshold(K: float, N: float) -> float:
    """Right endpoint -(N-1)K/4 of the window meeting the essential spectrum.

    Only valid under the hypotheses K <= 0 and N >= 3; anything else raises.
    """
    require_finite(K=K, N=N)
    if K > 0:
        raise PreconditionError(
            "hypothesis", f"hypothesis K <= 0 violated: got K = {K}"
        )
    if N < 3:
        raise PreconditionError(
            "hypothesis", f"hypothesis N >= 3 violated: got N = {N}"
        )
    return -(N - 1.0) * K / 4.0 + 0.0  # + 0.0 turns -0.0 into 0.0 at K = 0
