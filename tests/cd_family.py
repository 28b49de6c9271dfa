"""A family of CD(K,N) densities whose condition holds in closed form, for
test sweeps of the comparison and the CD test."""

import numpy as np

from cdeigen.errors import PreconditionError
from cdeigen.modelspace import Density, ball_fits


def cd_density_family(K: float, N: float, r0: float, count: int = 6,
                      spread: float = 2.0) -> list[Density]:
    """Closed-form-verifiable CD(K,N) densities on [0, r0].

    Members are model densities h_{K',N} with K' >= K (CD(K,N) holds by
    monotonicity of the sigma coefficients in the curvature parameter),
    capped so that r0 stays inside the K' diameter bound, plus constant
    densities when K <= 0.
    """
    if count < 1:
        raise PreconditionError("domain", f"count must be positive, got {count}")
    if not (r0 > 0 and ball_fits(K, N, r0)):
        raise PreconditionError("domain", f"r0 = {r0} infeasible for K={K}, N={N}")
    hi = K + spread
    cap = 0.9 * (N - 1.0) * (np.pi / r0) ** 2
    hi = min(hi, cap)
    if hi < K:
        hi = K
    members = [Density.model(kp, N) for kp in np.linspace(K, hi, count)]
    if K <= 0:
        flat_grid = np.linspace(0.0, r0, 3)
        for level in (1.0, 0.37):
            members.append(Density.sampled(flat_grid, np.full(3, level)))
    return members
