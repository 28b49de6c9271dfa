import math

import numpy as np
import pytest

from cdeigen.eigensolve import _log_derivative
from cdeigen.errors import PreconditionError
from cdeigen.modelspace import (
    CdCheckReport,
    Density,
    check_cd_density,
    max_diameter,
    model_density,
    s_kappa,
    s_kappa_prime,
    sigma_coeff,
    tau_coeff,
)


def test_s_kappa_branches():
    th = np.linspace(0.05, 2.5, 40)
    assert np.allclose(s_kappa(0.0, th), th, rtol=0, atol=0)
    assert np.allclose(s_kappa(1.0, th), np.sin(th), rtol=1e-15)
    assert np.allclose(s_kappa(-1.0, th), np.sinh(th), rtol=1e-15)
    assert np.allclose(s_kappa(4.0, th), np.sin(2 * th) / 2.0, rtol=1e-15)
    assert np.allclose(s_kappa(-0.25, th), 2.0 * np.sinh(th / 2.0), rtol=1e-15)


def test_s_kappa_series_switch_is_seamless():
    # straddle the small-argument switchover and compare against mpmath-free
    # high-precision forms evaluated in float: sin/sinh are already exact
    # enough at these magnitudes
    for kappa in (1.0, -1.0, 37.0, -37.0):
        for theta in (1e-5, 3e-5, 1e-4, 3e-4):
            direct = math.sin(math.sqrt(kappa) * theta) / math.sqrt(kappa) \
                if kappa > 0 else math.sinh(math.sqrt(-kappa) * theta) / math.sqrt(-kappa)
            assert s_kappa(kappa, theta) == pytest.approx(direct, rel=5e-15)


def test_s_kappa_prime_matches_difference_quotient():
    rng = np.random.default_rng(20240811)
    for _ in range(200):
        kappa = rng.uniform(-4, 4)
        theta = rng.uniform(0.05, 1.2)
        if kappa > 0:
            theta = min(theta, 0.9 * math.pi / math.sqrt(kappa))
        eps = 1e-6
        fd = (s_kappa(kappa, theta + eps) - s_kappa(kappa, theta - eps)) / (2 * eps)
        assert s_kappa_prime(kappa, theta) == pytest.approx(fd, rel=5e-9, abs=1e-9)


def test_sigma_coeff_limits_and_flat_case():
    assert sigma_coeff(0.0, 0.3, 1.7) == pytest.approx(0.3, rel=1e-15)
    assert sigma_coeff(2.0, 0.25, 0.0) == 0.25
    # positive curvature concentrates mass: sigma above the flat coefficient
    assert sigma_coeff(1.0, 0.5, 2.0) > 0.5
    assert sigma_coeff(-1.0, 0.5, 2.0) < 0.5


def test_sigma_coeff_monotone_in_curvature_within_first_period():
    """Larger curvature gives larger convexity coefficients, while the
    argument stays below the positive-curvature period."""
    rng = np.random.default_rng(7)
    for _ in range(300):
        theta = rng.uniform(0.05, 2.0)
        t = rng.uniform(0.0, 1.0)
        kaps = np.sort(rng.uniform(-3.0, (0.9 * math.pi / theta) ** 2, size=3))
        vals = [sigma_coeff(float(k), float(t), float(theta)) for k in kaps]
        assert vals[0] <= vals[1] + 1e-12
        assert vals[1] <= vals[2] + 1e-12


def test_sigma_coeff_domain_error_at_period():
    with pytest.raises(PreconditionError):
        sigma_coeff(1.0, 0.5, math.pi)


def test_max_diameter():
    assert max_diameter(1.0, 3.0) == pytest.approx(math.pi * math.sqrt(2.0), rel=1e-15)
    assert max_diameter(4.0, 2.0) == pytest.approx(math.pi / 2.0, rel=1e-15)
    assert math.isinf(max_diameter(0.0, 5.0))
    assert math.isinf(max_diameter(-2.0, 5.0))


def test_tau_definition_consistency():
    rng = np.random.default_rng(11)
    for _ in range(100):
        K = rng.uniform(-3, 3)
        N = rng.uniform(1.2, 9)
        theta = rng.uniform(0.05, 1.5)
        if K > 0:
            theta = min(theta, 0.9 * max_diameter(K, N))
        t = rng.uniform(0.01, 1.0)
        tau = tau_coeff(K, N, t, theta)
        sig = sigma_coeff(K / (N - 1), t, theta)
        assert tau ** N == pytest.approx(t * sig ** (N - 1), rel=1e-12)
    assert tau_coeff(-1.0, 4.0, 0.3, 0.0) == pytest.approx(0.3, rel=1e-15)


def test_model_density_endpoints():
    # vanishes at the origin for N > 1 and exactly at the diameter bound
    assert model_density(1.0, 3.0, 0.0) == 0.0
    d = max_diameter(1.0, 3.0)
    assert model_density(1.0, 3.0, d) == 0.0
    with pytest.raises(PreconditionError):
        model_density(1.0, 3.0, d * 1.001)
    th = np.linspace(0.1, 2.0, 17)
    assert np.allclose(model_density(0.0, 4.0, th), th ** 3, rtol=1e-15)
    assert np.allclose(model_density(-2.0, 3.0, th), np.sinh(th) ** 2, rtol=1e-14)


def test_density_model_matches_function():
    h = Density.model(-1.5, 2.5)
    th = np.linspace(0.0, 2.0, 33)
    assert np.array_equal(h(th), model_density(-1.5, 2.5, th))
    assert h(0.7) == model_density(-1.5, 2.5, 0.7)


def test_density_model_respects_diameter():
    with pytest.raises(PreconditionError):
        Density.model(2.0, 3.0, right=10.0)
    h = Density.model(2.0, 3.0)
    assert h.right == pytest.approx(math.pi)


def test_sampled_density_validation():
    with pytest.raises(PreconditionError):
        Density.sampled([0.0, 1.0], [1.0, 1.0])
    with pytest.raises(PreconditionError):
        Density.sampled([0.1, 0.5, 1.0], [1.0, 1.0, 1.0])
    with pytest.raises(PreconditionError):
        Density.sampled([0.0, 0.5, 0.4], [1.0, 1.0, 1.0])
    with pytest.raises(PreconditionError):
        Density.sampled([0.0, 0.5, 1.0], [1.0, -0.1, 1.0])
    with pytest.raises(PreconditionError):
        Density.sampled([0.0, 0.5, 1.0], [0.0, 0.0, 0.0])
    with pytest.raises(PreconditionError):
        Density.sampled([0.0, 0.5, 1.0], [0.0, 0.5, 1.0], interp_dim=1.0)


def test_sampled_density_interpolation():
    grid = np.linspace(0.0, 2.0, 500)
    vals = model_density(-1.0, 3.0, grid)
    h = Density.sampled(grid, vals, interp_dim=3.0)
    assert np.allclose(h(grid), vals, rtol=1e-14)
    mid = np.linspace(0.013, 1.99, 101)
    assert np.allclose(h(mid), model_density(-1.0, 3.0, mid), rtol=3e-5)
    with pytest.raises(PreconditionError):
        h(2.5)


def test_sampled_density_evaluation_outside_domain():
    h = Density.model(0.0, 3.0, right=1.0)
    with pytest.raises(PreconditionError):
        h(1.5)


def test_log_derivative():
    h = Density.model(-2.0, 4.0)
    theta = 0.8
    eps = 1e-6
    fd = (math.log(h(theta + eps)) - math.log(h(theta - eps))) / (2 * eps)
    assert _log_derivative(h)(theta) == pytest.approx(fd, rel=1e-8)

    grid = np.linspace(0.0, 2.0, 800)
    hs = Density.sampled(grid, model_density(-2.0, 4.0, grid), interp_dim=4.0)
    # the interpolant's slope is the segment average, accurate to O(step)
    assert _log_derivative(hs)(theta) == pytest.approx(fd, rel=1e-3)


def test_positive_on_interior():
    grid = np.array([0.0, 0.5, 1.0, 1.5])
    assert Density.sampled(grid, [0.0, 1.0, 1.0, 0.0]).positive_on_interior(1.5)
    assert not Density.sampled(grid, [0.0, 0.0, 1.0, 1.0]).positive_on_interior(1.5)
    assert Density.model(1.0, 3.0).positive_on_interior(2.0)


def test_cd_check_accepts_model_density():
    for K, N in [(-3.0, 2.0), (0.0, 3.5), (2.0, 4.0)]:
        h = Density.model(K, N)
        r = check_cd_density(h, K, N, interval=(0.0, min(h.right, 2.5) * 0.999))
        assert isinstance(r, CdCheckReport)
        assert r.satisfied, (K, N, r.worst_violation)
        assert r.worst_violation >= -r.tolerance


def test_cd_check_flags_lower_curvature_density():
    # h_{K-1,N} is not CD(K,N): the scan must find a genuine violation
    r = check_cd_density(Density.model(-2.0, 3.0, right=2.0), -1.0, 3.0)
    assert not r.satisfied
    assert r.worst_violation < -1e-4
    th0, th1, t = r.witness
    assert 0.0 < th0 < 2.0 and 0.0 < th1 < 2.0 and 0.0 <= t <= 1.0


def test_cd_check_curvature_family_property():
    """Model densities with curvature K' >= K pass the CD(K,N) scan."""
    rng = np.random.default_rng(4257)
    for _ in range(12):
        N = rng.uniform(1.6, 7.0)
        K = rng.uniform(-4.0, 1.0)
        bump = rng.uniform(0.0, 2.0)
        right = 1.5
        if K + bump > 0:
            right = min(right, 0.95 * max_diameter(K + bump, N))
        h = Density.model(K + bump, N, right=right)
        r = check_cd_density(h, K, N, resolution=(24, 9))
        assert r.satisfied, (K, N, bump, r.worst_violation)


def test_cd_check_sampled_floor_reports_effective_tolerance():
    grid = np.linspace(0.0, 1.0, 150)
    h = Density.sampled(grid, model_density(-1.0, 3.0, grid), interp_dim=3.0)
    r = check_cd_density(h, -1.0, 3.0, tolerance=1e-12)
    assert r.satisfied
    assert r.tolerance > 1e-12  # floored at the sample's interpolation defect


def test_cd_check_argument_validation():
    h = Density.model(0.0, 3.0, right=1.0)
    with pytest.raises(PreconditionError):
        check_cd_density(h, 0.0, 1.0)
    with pytest.raises(PreconditionError):
        check_cd_density(h, 0.0, 3.0, resolution=(1, 2))
    with pytest.raises(PreconditionError):
        check_cd_density(h, 0.0, 3.0, interval=(0.0, 2.0))
    with pytest.raises(PreconditionError):
        check_cd_density(Density.model(4.0, 3.0), 4.0, 3.0)
