"""Closed-form eigenvalue bounds and first Bessel zeros.

J_nu comes from ``scipy.special``, imported on the first cache miss, and
numpy only with ``modelspace``, on the first bound that needs the model
geometry.  The first zero j_{nu,1} lies in (max(nu, 0), sqrt(2(nu+1)(nu+3)))
and is found by Halley iteration, with J_nu' = J_{nu-1} - (nu/x) J_nu and
J_nu'' from Bessel's equation: two evaluations of J a step.  It starts from
an Airy-type expansion for nu > 10, otherwise at 0.42 of the way from the
lower bound sqrt((nu+1)(nu+5)) to the upper one.  At most four steps meet
the 1e-12 relative contract of ``bessel_first_zero`` for orders in
(-1, 1e5]; the result is checked against the bracket.
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


@lru_cache(maxsize=16384)
def bessel_first_zero(nu: float) -> float:
    """Smallest positive zero j_{nu,1} of J_nu, to 1e-12 relative accuracy."""
    nu = float(nu)
    if not nu > -1.0:
        raise PreconditionError("domain", f"order must exceed -1, got {nu}")
    from scipy.special import jv

    hi = math.sqrt(2.0 * (nu + 1.0) * (nu + 3.0))
    if nu > 10.0:
        c = nu ** (1.0 / 3.0)
        t = _AIRY_COEFFS
        x = nu + t[0] * c + t[1] / c + t[2] / nu + t[3] / (nu * c) + t[4] / (nu * nu / c)
    else:
        lo = math.sqrt((nu + 1.0) * (nu + 5.0))
        x = lo + 0.42 * (hi - lo)
    for _ in range(8):  # a NaN step never passes the test below: it stalls
        j = jv(nu, x)
        dj = jv(nu - 1.0, x) - nu / x * j
        d2j = -dj / x - (1.0 - (nu / x) ** 2) * j
        dx = j / dj / (1.0 - j * d2j / (2.0 * dj * dj))
        x -= dx
        if abs(dx) <= 1e-13 * x:
            # As nu -> -1 the zero approaches the upper bound to within rounding.
            if not max(nu, 0.0) < x < hi * (1.0 + 1e-12):
                raise NonconvergenceError(
                    "newton", f"first-zero Halley iteration left its bracket at nu={nu}")
            return float(x)
    raise NonconvergenceError("newton", f"first-zero Halley iteration stalled at nu={nu}")


@dataclass(frozen=True)
class BoundValue:
    """A closed-form eigenvalue bound; exact only for the K=0 and N=3 cases."""

    value: float
    exact: bool
    formula_tag: str


def closed_form_bound(K: float, N: float, r0: float) -> BoundValue:
    """Closed-form value of (or upper bound on) the first Dirichlet eigenvalue.

    Dispatch: K=0 gives the exact Bessel identity j_{N/2-1,1}^2 / r0^2; N=3
    gives the exact -K/2 + pi^2/r0^2; otherwise the N<3 or N>3 upper bound.
    """
    d = _modelspace().max_diameter(K, N)
    if not (r0 > 0 and math.isfinite(r0)):
        raise PreconditionError("domain", f"r0 must be positive and finite, got {r0}")
    if r0 >= d:
        raise PreconditionError("domain", f"r0 = {r0} reaches the diameter bound {d}")
    # Every closed form has a term c / r0^2 with c >= (pi/2)^2: a radius
    # whose r0^2 underflows to 0, or whose bound overflows, gives no value.
    bound = _closed_form(K, N, r0) if r0 * r0 > 0.0 else None
    if bound is None or not math.isfinite(bound.value):
        raise PreconditionError(
            "domain", f"r0 = {r0} is too small: the bound leaves double precision")
    return bound


def _closed_form(K: float, N: float, r0: float) -> BoundValue:
    if K == 0.0:
        j = bessel_first_zero(N / 2.0 - 1.0)
        return BoundValue(j * j / r0**2, True, "bessel_k0")
    if N == 3.0:
        return BoundValue(-K / 2.0 + math.pi**2 / r0**2, True, "exact_n3")
    j = bessel_first_zero(N / 2.0 - 1.0)
    if N < 3.0:
        return BoundValue(-N * K / 6.0 + j * j / r0**2, False, "upper_n_lt_3")
    # Where sinh overflows (sqrt(-kappa) r0 > 710.47), r0^2/s^2 is below 1e-300;
    # where s**2 does (s > 1.3e154), 1/s^2 is below 1e-308.  Both take 1/s^2 = 0.
    kappa = K / (N - 1.0)
    s = _modelspace().s_kappa(kappa, r0) if kappa * r0 * r0 > -710.0**2 else math.inf
    inv_s2 = 1.0 / s**2 if s < 1e154 else 0.0
    extra = (N - 1.0) * (N - 3.0) / 4.0 * (inv_s2 - 1.0 / r0**2)
    return BoundValue(-(N - 1.0) * K / 4.0 + j * j / r0**2 + extra, False, "upper_n_gt_3")


def mode_radius(diam: float, j: int) -> float:
    """Radius diam/(2j) of the model ball that bounds the j-th Neumann mode."""
    if not float(j).is_integer() or j < 1:
        raise PreconditionError("domain", f"mode index j must be a positive integer, got {j}")
    return diam / (2.0 * int(j))


def neumann_upper_bound(K: float, N: float, diam: float, j: int,
                        method: str = "closed_form", solver_tol: float = 1e-8) -> float:
    """Upper bound on the j-th Neumann eigenvalue of a space of diameter diam.

    Evaluates the first Dirichlet eigenvalue at radius diam/(2j), by the
    eigensolver or by the closed-form dispatch.
    """
    if not (diam > 0 and math.isfinite(diam)):
        raise PreconditionError("hypothesis", f"diameter must be positive and finite, got {diam}")
    r0 = mode_radius(diam, j)
    d = _modelspace().max_diameter(K, N)
    if diam > d * (1.0 + 1e-12):
        raise PreconditionError(
            "hypothesis", f"diameter {diam} exceeds the bound {d} forced by K = {K} > 0")
    if method == "closed_form":
        return closed_form_bound(K, N, r0).value
    if method == "solver":
        from .eigensolve import first_dirichlet_eigen
        from .modelspace import Density
        return first_dirichlet_eigen(Density.model(K, N), r0, tol=solver_tol).eigenvalue
    raise PreconditionError("domain", f"unknown method {method!r}")


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
