import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cd_family import cd_density_family
from cdeigen.comparison import (
    ComparisonReport,
    RigidityVerdict,
    comparison_residual,
    composed_tolerance,
    rigidity_check,
)
from cdeigen.eigensolve import _cubic_hermite, first_dirichlet_eigen, weighted_integral
from cdeigen.errors import PreconditionError
from cdeigen.modelspace import Density, check_cd_density, model_density


def test_composed_tolerance_arithmetic():
    assert composed_tolerance() == pytest.approx(2e-8 + 1e-9, rel=1e-15)
    assert composed_tolerance(1e-6, 1e-8) == pytest.approx(2e-6 + 1e-7, rel=1e-15)
    with pytest.raises(PreconditionError):
        composed_tolerance(0.0, 1e-10)
    with pytest.raises(PreconditionError):
        composed_tolerance(1e-8, -1.0)


def test_model_density_attains_equality():
    # the defining density makes the inequality an identity at theta = r0
    for K, N, r0 in [(-2.0, 3.0, 1.0), (0.0, 2.5, 1.4), (1.0, 4.0, 2.0)]:
        h = Density.model(K, N)
        rep = comparison_residual(h, K, N, r0, r0)
        assert isinstance(rep, ComparisonReport)
        assert abs(rep.relative_gap) <= composed_tolerance(), (K, N, r0)
        assert rep.rhs > 0 and rep.lhs > 0


def test_gap_strictly_positive_inside_interval():
    # at theta < r0 the Dirichlet deficit makes the gap strictly positive
    h = Density.model(-1.0, 3.0)
    rep = comparison_residual(h, -1.0, 3.0, 1.0, 0.5)
    assert rep.gap > 1e-3
    assert rep.relative_gap > 1e-3
    assert rep.theta == 0.5


def test_gap_positive_for_higher_curvature_density():
    # h_{K+1,N} is CD(K,N) but not extremal: the gap opens up
    for bump in (1.0, 2.0):
        h = Density.model(-2.0 + bump, 3.0)
        rep = comparison_residual(h, -2.0, 3.0, 1.0, 1.0)
        assert rep.gap > 1e-4, bump


def test_gap_scale_invariance():
    # both sides scale linearly in h, so relative_gap ignores c * h
    grid = np.linspace(0.0, 1.2, 900)
    base = model_density(-1.5, 3.5, grid)
    r1 = comparison_residual(Density.sampled(grid, base, interp_dim=3.5),
                             -1.5, 3.5, 1.0, 0.8)
    r2 = comparison_residual(Density.sampled(grid, 10.0 * base, interp_dim=3.5),
                             -1.5, 3.5, 1.0, 0.8)
    assert r2.lhs == pytest.approx(10.0 * r1.lhs, rel=1e-10)
    assert r2.rhs == pytest.approx(10.0 * r1.rhs, rel=1e-10)
    assert r2.relative_gap == pytest.approx(r1.relative_gap, rel=1e-7, abs=1e-12)


def test_comparison_matches_cubic_spline_reference():
    # phi and phi' between the model solution's nodes come from its cubic
    # Hermite; an interpolating cubic spline of the same samples agrees
    from scipy.interpolate import CubicSpline

    K, N, r0 = -4.0, 3.0, 1.0
    grid = np.linspace(0.0, r0, 801)
    h = Density.sampled(grid, np.sinh(grid) ** 2, interp_dim=3.0)
    sol = first_dirichlet_eigen(Density.model(K, N, right=r0), r0)
    phi = CubicSpline(sol.grid, sol.phi)
    dphi = CubicSpline(sol.grid, sol.dphi)
    for theta in (0.5, r0):
        rep = comparison_residual(h, K, N, r0, theta)
        lhs = weighted_integral(lambda t: dphi(t) ** 2, h, 0.0, theta)
        rhs = sol.eigenvalue * weighted_integral(lambda t: phi(t) ** 2, h, 0.0, theta)
        assert rep.lhs == pytest.approx(lhs, rel=1e-10)
        assert rep.rhs == pytest.approx(rhs, rel=1e-10)


@pytest.mark.parametrize("quad_tol", [1e-10, 1e-7])
def test_one_pass_sides_are_the_separate_integrals(quad_tol):
    # both sides come from one adaptive pass, each row held to quad_tol;
    # two separate quadratures of the same interpolant agree within 10 quad_tol
    K, N, r0 = -1.5, 3.5, 1.0
    grid = np.linspace(0.0, r0, 201)
    h = Density.sampled(grid, 2.0 * model_density(-1.0, N, grid), interp_dim=N)
    sol = first_dirichlet_eigen(Density.model(K, N, right=r0), r0, cut=False)
    phi = _cubic_hermite(sol.grid, sol.phi, sol.dphi)
    for theta in (0.3, 0.75, r0):
        rep = comparison_residual(h, K, N, r0, theta, quad_tol=quad_tol)
        lhs = weighted_integral(lambda t: phi(t)[1] ** 2, h, 0.0, theta, rel_tol=quad_tol)
        rhs = sol.eigenvalue * weighted_integral(lambda t: phi(t)[0] ** 2, h, 0.0, theta,
                                                 rel_tol=quad_tol)
        assert rep.lhs == pytest.approx(lhs, rel=10.0 * quad_tol, abs=0.0)
        assert rep.rhs == pytest.approx(rhs, rel=10.0 * quad_tol, abs=0.0)


def test_cd_violation_is_rejected_then_waived():
    # a density of strictly lower curvature fails the CD test
    h = Density.model(-3.0, 3.0, right=1.5)
    with pytest.raises(PreconditionError) as exc:
        comparison_residual(h, -1.0, 3.0, 1.0, 1.0)
    assert exc.value.code == "cd-violation"
    rep = comparison_residual(h, -1.0, 3.0, 1.0, 1.0, check_density=False)
    assert rep.gap < 0  # and the inequality indeed fails for it


def test_comparison_argument_validation():
    h = Density.model(0.0, 3.0, right=1.0)
    with pytest.raises(PreconditionError):
        comparison_residual(h, 0.0, 3.0, 1.0, 0.0)  # theta must be positive
    with pytest.raises(PreconditionError):
        comparison_residual(h, 0.0, 3.0, 1.0, 1.5)  # theta beyond r0
    with pytest.raises(PreconditionError):
        comparison_residual(h, 0.0, 3.0, 2.0, 1.0)  # r0 beyond the sample
    with pytest.raises(PreconditionError):
        comparison_residual(h, 1.0, 3.0, math.pi * math.sqrt(2.0), 1.0)
    with pytest.raises(PreconditionError):
        comparison_residual(h, 0.0, 1.0, 1.0, 0.5)


def test_family_members_satisfy_cd_and_inequality():
    fam = cd_density_family(-1.0, 3.0, 1.0, count=4)
    assert len(fam) >= 4  # count model members plus flat extras for K <= 0
    tol = composed_tolerance()
    for h in fam:
        assert check_cd_density(h, -1.0, 3.0, interval=(0.0, 1.0)).satisfied
        for theta in (0.4, 1.0):
            rep = comparison_residual(h, -1.0, 3.0, 1.0, theta)
            assert rep.gap >= -tol * max(rep.rhs, 1.0)


def test_family_respects_positive_curvature_cap():
    fam = cd_density_family(1.0, 3.0, 2.0, count=5, spread=50.0)
    for h in fam:
        if h.kind == "model":
            assert h.right >= 2.0 * (1.0 - 1e-12)


def test_family_validation():
    with pytest.raises(PreconditionError):
        cd_density_family(0.0, 3.0, 1.0, count=0)
    with pytest.raises(PreconditionError):
        # r0 past the diameter bound pi of the K=2, N=3 model
        cd_density_family(2.0, 3.0, math.pi * math.sqrt(2.0))


def test_rigidity_accepts_scaled_model():
    grid = np.linspace(0.0, 1.0, 1500)
    h = Density.sampled(grid, 7.0 * model_density(-2.0, 3.0, grid), interp_dim=3.0)
    v = rigidity_check(h, -2.0, 3.0, 1.0, tol=1e-6)
    assert isinstance(v, RigidityVerdict)
    assert v.rigid
    assert v.fitted_c == pytest.approx(7.0, rel=1e-4)
    assert v.max_relative_density_deviation <= 1e-6
    assert abs(v.relative_gap) <= 1e-6


def test_rigidity_gap_of_the_model_against_itself():
    v = rigidity_check(Density.model(-4.0, 3.0), -4.0, 3.0, 1.0, tol=1e-6)
    assert v.rigid
    assert abs(v.relative_gap) <= 1e-10


def test_rigidity_rejects_perturbed_density():
    grid = np.linspace(0.0, 1.0, 1500)
    bump = 1.0 + 0.05 * np.exp(-((grid - 0.5) / 0.12) ** 2)
    vals = model_density(-2.0, 3.0, grid) * bump
    h = Density.sampled(grid, vals, interp_dim=3.0)
    v = rigidity_check(h, -2.0, 3.0, 1.0, tol=1e-6, check_density=False)
    assert not v.rigid
    assert v.max_relative_density_deviation > 1e-3


def test_rigidity_rejects_higher_curvature_model():
    # h_{K+1,N} satisfies CD(K,N) but is not a multiple of h_{K,N}
    h = Density.model(-1.0, 3.0)
    v = rigidity_check(h, -2.0, 3.0, 1.0, tol=1e-6)
    assert not v.rigid
    assert v.max_relative_density_deviation > 1e-3
    assert v.relative_gap > 1e-6


def test_rigidity_verdict_consistency():
    # rigid is exactly (deviation <= tol and |relative_gap| <= tol)
    grid = np.linspace(0.0, 1.0, 1200)
    for scale, wobble in [(1.0, 0.0), (3.0, 0.0), (1.0, 0.08)]:
        vals = model_density(-1.0, 4.0, grid) * scale * (1.0 + wobble * grid)
        h = Density.sampled(grid, vals, interp_dim=4.0)
        v = rigidity_check(h, -1.0, 4.0, 1.0, tol=1e-5, check_density=False)
        expected = (v.max_relative_density_deviation <= 1e-5
                    and abs(v.relative_gap) <= 1e-5)
        assert v.rigid == expected, (scale, wobble)


def test_property_random_family_gaps_nonnegative():
    """Seeded sweep: every generated CD density keeps the inequality,
    up to the composed numerical tolerance."""
    rng = np.random.default_rng(60601)
    tol = composed_tolerance()
    for _ in range(5):
        N = float(rng.uniform(2.0, 6.0))
        K = float(rng.uniform(-3.0, 0.5))
        r0 = float(rng.uniform(0.5, 1.2))
        fam = cd_density_family(K, N, r0, count=3)
        thetas = rng.uniform(0.3 * r0, r0, size=2)
        for h in fam:
            for theta in thetas:
                rep = comparison_residual(h, K, N, r0, float(theta),
                                          check_density=False)
                assert rep.gap >= -tol * max(abs(rep.rhs), 1.0), (K, N, r0, theta)


@settings(derandomize=True, max_examples=12, deadline=None)
@given(K=st.floats(-3.0, 1.0), N=st.floats(2.0, 6.0), r0=st.floats(0.4, 1.5),
       frac=st.floats(0.2, 1.0))
def test_family_gap_nonnegative_property(K, N, r0, frac):
    # every CD(K,N) family member passes the CD test and keeps the inequality
    tol = composed_tolerance()
    for h in cd_density_family(K, N, r0, count=3):
        rep = comparison_residual(h, K, N, r0, frac * r0)
        assert rep.gap >= -tol * rep.rhs, (K, N, r0, frac, h.kind, h.K)


@pytest.mark.parametrize("theta", [0.3, 1.0])
def test_comparison_uses_the_eigenfunction_on_all_of_the_interval(monkeypatch, theta):
    # at N = 30 the model eigenfunction holds all but 1e-16 of h_{0,30} phi^2
    # above about 0.2 r0, yet it falls by some 20 % below there; a constant
    # density weighs that stretch fully, so the solver's cut must not reach
    # the comparison's test function
    from cdeigen import comparison, eigensolve

    h = Density.sampled(np.linspace(0.0, 1.0, 11), np.ones(11), interp_dim=30.0)
    comparison._model_eigen_interpolant.cache_clear()
    rep = comparison_residual(h, 0.0, 30.0, 1.0, theta)
    monkeypatch.setattr(eigensolve, "_CUT_SHARE", 0.0)
    comparison._model_eigen_interpolant.cache_clear()
    ref = comparison_residual(h, 0.0, 30.0, 1.0, theta)
    comparison._model_eigen_interpolant.cache_clear()
    assert rep.rhs == pytest.approx(ref.rhs, rel=composed_tolerance())
    assert rep.lhs == pytest.approx(ref.lhs, rel=composed_tolerance())
    assert abs(rep.relative_gap - ref.relative_gap) <= composed_tolerance()
