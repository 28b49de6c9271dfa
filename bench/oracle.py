"""Independent reference values for the benchmark's correctness checks.

Nothing here imports ``cdeigen``: Bessel zeros come from ``scipy.special.jv``
and a sign-stepping bracket, the model eigenfunctions are written out in
closed form (N = 3 and K = 0), and the closed-form bounds and the
Kaluza-Klein objective are transcribed from the paper's formulas.

scipy is imported inside the functions that need it, after the timed
region, so that the benchmark's own imports do not hide a change in the
import cost of ``cdeigen`` from the set-up time.
"""

from __future__ import annotations

import math

import numpy as np

_ZEROS: dict[float, float] = {}


def first_zero(nu: float) -> float:
    """First positive zero of J_nu, bracketed by stepping scipy's jv."""
    from scipy.optimize import brentq
    from scipy.special import jv

    nu = float(nu)
    if nu in _ZEROS:
        return _ZEROS[nu]
    x = max(nu, 0.5)
    step = max(0.5, 0.6 * x ** (1.0 / 3.0))
    f_prev = jv(nu, x)
    for _ in range(100000):
        x_next = x + step
        f_next = jv(nu, x_next)
        if f_prev * f_next < 0:
            root = brentq(lambda t: jv(nu, t), x, x_next, xtol=1e-14, rtol=8.9e-16)
            _ZEROS[nu] = root
            return root
        x, f_prev = x_next, f_next
    raise ArithmeticError(f"no sign change of J_{nu} found")


def diameter(K: float, N: float) -> float:
    return math.pi * math.sqrt((N - 1.0) / K) if K > 0 else math.inf


def s_kappa(kappa: float, x):
    x = np.asarray(x, dtype=float)
    if kappa > 0:
        return np.sin(math.sqrt(kappa) * x) / math.sqrt(kappa)
    if kappa < 0:
        return np.sinh(math.sqrt(-kappa) * x) / math.sqrt(-kappa)
    return x


def exact_eigenvalue(K: float, N: float, r0: float) -> float | None:
    """lambda_1 where it is known exactly: N = 3 or K = 0; else None."""
    if N == 3.0:
        return -K / 2.0 + math.pi ** 2 / r0 ** 2
    if K == 0.0:
        j = first_zero(N / 2.0 - 1.0)
        return j * j / r0 ** 2
    return None


def closed_form_upper(K: float, N: float, r0: float) -> float:
    """The paper's closed-form value, exact at K = 0 or N = 3, an upper
    bound on lambda_1 everywhere else."""
    exact = exact_eigenvalue(K, N, r0)
    if exact is not None:
        return exact
    j = first_zero(N / 2.0 - 1.0)
    if N < 3.0:
        return -N * K / 6.0 + j * j / r0 ** 2
    s = float(s_kappa(K / (N - 1.0), r0))
    extra = (N - 1.0) * (N - 3.0) / 4.0 * (1.0 / s ** 2 - 1.0 / r0 ** 2)
    return -(N - 1.0) * K / 4.0 + j * j / r0 ** 2 + extra


def kk_objective(D: int, d: int, Lambda: float, sigma: float, diam: float,
                 j: int, N: float) -> float:
    """Closed-form mass bound at one N; +inf where r0 passes the diameter."""
    n = D - d
    K = Lambda - (N + d - 2.0) * sigma ** 2 / ((D - 2.0) * (N - n))
    r0 = diam / (2.0 * j)
    if K > 0 and r0 >= diameter(K, N):
        return math.inf
    return closed_form_upper(K, N, r0)


def model_eigenfunction(K: float, N: float, r0: float):
    """(lambda, phi, dphi) in closed form for N = 3 or K = 0, unnormalized."""
    if N == 3.0:
        kap = K / 2.0
        w = math.pi / r0

        def phi(x):
            return np.sin(w * x) / s_kappa(kap, x)

        def dphi(x):
            s = s_kappa(kap, x)
            ds = np.cos(math.sqrt(kap) * x) if kap > 0 else (
                np.cosh(math.sqrt(-kap) * x) if kap < 0 else np.ones_like(x))
            return (w * np.cos(w * x) * s - np.sin(w * x) * ds) / s ** 2

        return -K / 2.0 + w * w, phi, dphi
    if K == 0.0:
        from scipy.special import jv

        nu = N / 2.0 - 1.0
        c = first_zero(nu) / r0

        def phi(x):
            z = c * x
            return z ** -nu * jv(nu, z)

        def dphi(x):
            z = c * x
            return -c * z ** -nu * jv(nu + 1.0, z)

        return c * c, phi, dphi
    raise ValueError("closed-form eigenfunction needs N = 3 or K = 0")


_GX, _GW = np.polynomial.legendre.leggauss(12)
_GX = 0.5 * (_GX + 1.0)
_GW = 0.5 * _GW


def sampled_weight(grid, values, interp_dim: float):
    """h between nodes: h^(1/(interp_dim-1)) interpolated linearly."""
    p = interp_dim - 1.0
    g = np.asarray(values, dtype=float) ** (1.0 / p)
    return lambda x: np.interp(x, grid, g) ** p


def comparison_gap(grid, values, interp_dim: float, K: float, N: float,
                   r0: float, theta: float) -> float:
    """Reference relative gap 1 - int_0^theta phi'^2 h / (lambda int phi^2 h).

    Composite 12-point Gauss-Legendre on every sample interval, where the
    interpolated weight is smooth.
    """
    lam, phi, dphi = model_eigenfunction(K, N, r0)
    h = sampled_weight(grid, values, interp_dim)
    nodes = np.asarray(grid, dtype=float)
    edges = np.concatenate(([0.0], nodes[(nodes > 0.0) & (nodes < theta)], [theta]))
    w = np.diff(edges)
    x = edges[:-1, None] + w[:, None] * _GX[None, :]
    hx = h(x)
    lhs = float(np.sum(w * ((dphi(x) ** 2 * hx) @ _GW)))
    rhs = lam * float(np.sum(w * ((phi(x) ** 2 * hx) @ _GW)))
    return 1.0 - lhs / rhs
