"""Brute-force lattice scan of the CD(K,N) density inequality.

A reference for the nodal test in ``cdeigen.modelspace.check_cd_density``.
For a weight h on an interval, CD(K,N) is the convexity-type inequality

    g(m) >= sigma^(1-t)(|t1-t0|) g(t0) + sigma^(t)(|t1-t0|) g(t1),
    g = h^(1/(N-1)),  m = (1-t) t0 + t t1,

with sigma taken at curvature K/(N-1), for all t0, t1 and t in [0, 1].
The scan evaluates it on a (t0, t1, t) lattice; the model weight attains
equality on every triple.
"""

import math

import numpy as np

from cdeigen.errors import PreconditionError
from cdeigen.modelspace import s_kappa


def sigma_coeff(kappa, t, theta):
    """Distortion coefficient sigma^(t)_kappa(theta) = s_kappa(t theta)/s_kappa(theta).

    Elementwise over broadcast t and theta, with the limit t at theta = 0;
    theta must stay below pi/sqrt(kappa) when kappa > 0.
    """
    t, theta = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(theta, dtype=float))
    if kappa > 0 and np.any(theta >= math.pi / math.sqrt(kappa)):
        raise PreconditionError(
            "domain", f"theta is outside [0, pi/sqrt(kappa)) for kappa = {kappa}")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.divide(s_kappa(kappa, t * theta), s_kappa(kappa, theta))
    out = np.where(theta > 0, ratio, t)
    return out[()]


def lattice_scan(h, K, N, resolution, interval):
    """Most negative slack of the CD(K,N) inequality for h on a lattice.

    ``resolution = (n_theta, n_t)``: n_theta interior points of ``interval``
    on each endpoint axis and n_t convex weights.  Returns the slack and its
    witness triple (theta0, theta1, t).
    """
    n_theta, n_t = resolution
    theta = np.linspace(interval[0], interval[1], n_theta + 2)[1:-1]
    t = np.linspace(0.0, 1.0, n_t)
    t0, t1, tw = theta[:, None, None], theta[None, :, None], t[None, None, :]
    dist = np.abs(t1 - t0)
    kap = K / (N - 1.0)
    p = 1.0 / (N - 1.0)
    g = h(theta) ** p
    slack = (h((1.0 - tw) * t0 + tw * t1) ** p
             - sigma_coeff(kap, 1.0 - tw, dist) * g[:, None, None]
             - sigma_coeff(kap, tw, dist) * g[None, :, None])
    i, j, k = np.unravel_index(int(np.argmin(slack)), slack.shape)
    return float(slack[i, j, k]), (float(theta[i]), float(theta[j]), float(t[k]))
