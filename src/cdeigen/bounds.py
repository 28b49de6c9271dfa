"""Closed-form eigenvalue bounds and first Bessel zeros.

J_nu and its derivative come from ``scipy.special``, imported on the first
cache miss, so a bound that needs no Bessel zero loads no scipy.  The first
zero j_{nu,1} lies in (max(nu, 0), sqrt(2(nu+1)(nu+3))).  For nu <= 10 it is
located by Brent root finding on that bracket; for larger orders by Newton
iteration from an Airy-type starting guess, with capped steps and a final
bracket check.  Both meet the 1e-12 relative-accuracy contract of
``bessel_first_zero``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonconvergenceError, PreconditionError
from .modelspace import max_diameter, require_finite, s_kappa

# First-zero expansion in powers of nu^(-1/3); classical large-order result,
# already accurate to ~1e-4 relative at nu = 10.
_AIRY_COEFFS = (1.8557571, 1.033150, -0.00397, -0.0908, 0.043)


def _zero_large_order(nu: float) -> float:
    from scipy.special import jv, jvp

    c = nu ** (1.0 / 3.0)
    t = _AIRY_COEFFS
    x = nu + t[0] * c + t[1] / c + t[2] / nu + t[3] / (nu * c) + t[4] / (nu * nu / c)
    cap = 2.0 * c
    for _ in range(60):
        dx = jv(nu, x) / jvp(nu, x)
        if not math.isfinite(dx):
            raise NonconvergenceError("newton", f"first-zero Newton broke down at nu={nu}")
        dx = max(-cap, min(cap, dx))
        x -= dx
        if abs(dx) <= 1e-13 * x:
            if not nu < x < math.sqrt(2.0 * (nu + 1.0) * (nu + 3.0)):
                raise NonconvergenceError(
                    "newton", f"first-zero Newton left its bracket at nu={nu}")
            return float(x)
    raise NonconvergenceError("newton", f"first-zero Newton iteration stalled at nu={nu}")


@lru_cache(maxsize=16384)
def bessel_first_zero(nu: float) -> float:
    """Smallest positive zero j_{nu,1} of J_nu, to 1e-12 relative accuracy."""
    nu = float(nu)
    if not nu > -1.0:
        raise PreconditionError("domain", f"order must exceed -1, got {nu}")
    if nu > 10.0:
        return _zero_large_order(nu)
    from scipy.optimize import brentq
    from scipy.special import jv

    hi = math.sqrt(2.0 * (nu + 1.0) * (nu + 3.0))
    lo = nu if nu >= 0.5 else 1e-3 * hi
    f = lambda x: jv(nu, x)
    f_hi = f(hi)
    tries = 0
    while f_hi > 0 and tries < 4:
        hi *= 1.25
        f_hi = f(hi)
        tries += 1
    if f_hi > 0:
        raise PreconditionError("bracket", f"no sign change of J_nu below {hi} for nu={nu}")
    # xtol scales with the bracket because j_{nu,1} -> 0 as nu -> -1.
    return float(brentq(f, lo, hi, xtol=1e-15 * hi, rtol=4.0 * np.finfo(float).eps))


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
    d = max_diameter(K, N)
    if not (r0 > 0 and math.isfinite(r0)):
        raise PreconditionError("domain", f"r0 must be positive and finite, got {r0}")
    if r0 >= d:
        raise PreconditionError("domain", f"r0 = {r0} reaches the diameter bound {d}")
    if K == 0.0:
        j = bessel_first_zero(N / 2.0 - 1.0)
        return BoundValue(j * j / r0**2, True, "bessel_k0")
    if N == 3.0:
        return BoundValue(-K / 2.0 + math.pi**2 / r0**2, True, "exact_n3")
    j = bessel_first_zero(N / 2.0 - 1.0)
    if N < 3.0:
        return BoundValue(-N * K / 6.0 + j * j / r0**2, False, "upper_n_lt_3")
    s = s_kappa(K / (N - 1.0), r0)
    extra = (N - 1.0) * (N - 3.0) / 4.0 * (1.0 / s**2 - 1.0 / r0**2)
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
    d = max_diameter(K, N)
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
