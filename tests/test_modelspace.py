import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cd_family import cd_density_family
from cd_lattice import lattice_scan, sigma_coeff
from cdeigen.bounds import closed_form_bound
from cdeigen.comparison import comparison_residual
from cdeigen.eigensolve import _log_derivative, first_dirichlet_eigen
from cdeigen.errors import PreconditionError
from cdeigen.modelspace import (
    CdCheckReport,
    Density,
    ball_fits,
    check_cd_density,
    max_diameter,
    model_density,
    s_kappa,
)
from cdeigen.physics import CompactificationSpec, kk_mass_bound_at


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


def test_float_evaluation_is_the_array_evaluation_bit_for_bit():
    # A float skips numpy's array set-up; it must still give the value that
    # a one-point array gives, through the same numpy sin, sinh and power.
    rng = np.random.default_rng(1912)
    for _ in range(300):
        K = float(rng.choice([0.0, rng.uniform(-40.0, 4.0), rng.uniform(-1e-7, 1e-7)]))
        N = float(rng.uniform(1.05, 40.0))
        h = Density.model(K, N, right=min(3.0, max_diameter(K, N)))
        th = float(rng.uniform(0.0, h.right))
        assert s_kappa(K / (N - 1.0), th) == s_kappa(K / (N - 1.0), np.array([th]))[0]
        assert h(th) == model_density(K, N, th) == h(np.array([th]))[0]
        assert type(h(th)) is float and type(s_kappa(K, th)) is float
    # the diameter end, where the weight vanishes
    d = max_diameter(2.0, 3.0)
    assert model_density(2.0, 3.0, d) == model_density(2.0, 3.0, np.array([d]))[0] == 0.0


def _masked_s_kappa(kappa, th):
    """s_kappa as evaluated entry by entry on the masks of its two forms:
    the Taylor form where |kappa| theta^2 < 1e-8, sin or sinh elsewhere."""
    th = np.asarray(th, dtype=float)
    x2 = kappa * th * th
    out = np.empty(th.shape)
    small = np.abs(x2) < 1e-8
    out[small] = th[small] * (1.0 - x2[small] / 6.0 * (1.0 - x2[small] / 20.0
                                                         * (1.0 - x2[small] / 42.0)))
    if kappa != 0.0:
        rk = math.sqrt(abs(kappa))
        out[~small] = (np.sin if kappa > 0 else np.sinh)(rk * th[~small]) / rk
    return out


@st.composite
def _model_points(draw):
    K = draw(st.one_of(st.just(0.0), st.floats(-40.0, 4.0), st.floats(-1e-6, 1e-6)))
    N = draw(st.floats(1.05, 40.0))
    d = max_diameter(K, N)
    right = min(d, 3.0) if d > 10.0 else d
    # theta = 0, entries in the Taylor band |kappa| theta^2 < 1e-8, entries
    # anywhere, and for K > 0 the diameter and the last 1e-12 past it
    special = [0.0, 1e-9 * right, right]
    if right == d:
        special.append(d * (1.0 + 5e-13))
    thetas = draw(st.lists(st.one_of(st.sampled_from(special), st.floats(0.0, right),
                                     st.floats(0.0, 1e-4 * right)), min_size=1, max_size=40))
    return K, N, right, d, np.array(thetas)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_model_points())
def test_model_weight_is_the_masked_formula_bit_for_bit(point):
    # h(theta) = max(s_kappa(K/(N-1), min(theta, d)), 0)^(N-1) before the
    # diameter d and 0 at or past it, with np.power (the array's **) on
    # s_kappa evaluated on its masks; floats give a one-point array's value
    K, N, right, d, th = point
    kappa = K / (N - 1.0)
    want = np.maximum(_masked_s_kappa(kappa, np.minimum(th, d)), 0.0) ** (N - 1.0)
    want[th >= d] = 0.0
    h = Density.model(K, N, right=right)
    assert np.array_equal(s_kappa(kappa, th), _masked_s_kappa(kappa, th))
    assert np.array_equal(h(th), want)
    assert np.array_equal(model_density(K, N, th), want)
    for t, w in zip(th.tolist(), want.tolist()):
        assert h(t) == w and model_density(K, N, t) == w
        if t <= right:
            assert s_kappa(kappa, t) == _masked_s_kappa(kappa, [t])[0]


@pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf])
def test_float_evaluation_keeps_the_theta_check(bad):
    for call in (lambda: s_kappa(-1.0, bad), lambda: model_density(-1.0, 3.0, bad),
                 lambda: Density.model(-1.0, 3.0, right=1.0)(bad)):
        with pytest.raises(PreconditionError, match="theta must be finite") as exc:
            call()
        assert exc.value.code == "domain"


def test_s_kappa_takes_an_array_of_curvatures():
    kappas = np.array([-4.0, -1e-12, 0.0, 1e-12, 2.5])
    got = s_kappa(kappas, 0.6)
    assert got.shape == (5,)
    assert list(got) == [s_kappa(float(k), 0.6) for k in kappas]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_kappa_is_a_domain_error(bad):
    # no NaN and no RuntimeWarning: a coded error naming kappa
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kappa in (bad, np.array([1.0, bad, -1.0])):
            with pytest.raises(PreconditionError, match="^kappa must be finite") as exc:
                s_kappa(kappa, 1.0)
            assert exc.value.code == "domain"


def test_overflowing_model_kappa_is_a_domain_error():
    # K is finite but kappa = K/(N - 1) overflows to -inf: a coded error
    # naming K and N, not NaN values with a RuntimeWarning
    for theta in ([0.1, 0.2, 0.3], 0.2):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError) as exc:
                model_density(-1e306, 1.001, theta)
        assert exc.value.code == "domain"
        assert "K = -1e+306" in exc.value.message and "N = 1.001" in exc.value.message


def test_ball_fits_at_positive_curvature():
    # (K, N) = (2, 3): the diameter is pi, lambda = -1 + pi^2/r0^2 in closed form
    d = max_diameter(2.0, 3.0)
    inside, band = (1.0 - 1e-11) * d, (1.0 - 5e-13) * d
    assert ball_fits(2.0, 3.0, inside) and not ball_fits(2.0, 3.0, band)
    assert not ball_fits(2.0, 3.0, d) and not ball_fits(2.0, 3.0, math.nan)
    assert ball_fits(-1.0, 3.0, 1e300) and ball_fits(0.0, 3.0, 1e300)

    h = Density.model(2.0, 3.0)
    for call in (lambda: first_dirichlet_eigen(h, band),
                 lambda: closed_form_bound(2.0, 3.0, band),
                 lambda: comparison_residual(h, 2.0, 3.0, band, band)):
        with pytest.raises(PreconditionError) as exc:
            call()
        assert exc.value.code == "domain"

    # sigma = 0 keeps K(N) = Lambda = 2, and at j = 1 the radius is diam/2
    def spec(r0):
        return CompactificationSpec(D=4, d=2, Lambda=2.0, sigma_w=0.0, diam=2.0 * r0)

    for method in ("closed_form", "solver"):
        with pytest.raises(PreconditionError) as exc:
            kk_mass_bound_at(spec(band), 1, 3.0, method=method)
        assert exc.value.code == "infeasible"
    value = closed_form_bound(2.0, 3.0, inside).value
    assert value > 0
    assert kk_mass_bound_at(spec(inside), 1, 3.0, method="closed_form") == value


_NEAR_EDGE = st.sampled_from([-1e-13, 0.0, 2e-13, 5e-13, 1e-12, 1.5e-12, 1e-11, 0.5])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(1.01, 20.0), _NEAR_EDGE),
                min_size=1, max_size=12))
def test_ball_fits_array_form_is_the_scalar_rule(points):
    # radii at and around (1 - 1e-12) of each positive-curvature diameter
    K, N, f = (np.array(a) for a in zip(*points))
    r0 = float(np.min(np.where(K > 0, (1.0 - f) * max_diameter(K, N), 1.0)))
    assert list(ball_fits(K, N, r0)) == [ball_fits(float(k), float(n), r0)
                                         for k, n in zip(K, N)]


def test_max_diameter_elementwise():
    K = np.array([-1.0, 0.0, 2.0, 0.5])
    N = np.array([3.0, 4.0, 3.0, 7.5])
    assert list(max_diameter(K, N)) == [max_diameter(float(k), float(n)) for k, n in zip(K, N)]
    with pytest.raises(PreconditionError, match="must exceed 1") as exc:
        max_diameter(K, np.array([3.0, 1.0, 3.0, 3.0]))
    assert exc.value.code == "domain"
    with pytest.raises(PreconditionError, match="K must be finite"):
        max_diameter(np.array([-1.0, -math.inf]), 3.0)


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
    # NaN compares False, so a non-finite abscissa would slip past the
    # ordering test; it is rejected before np.diff can warn
    for grid in ([0.0, math.nan, 1.0], [0.0, 0.5, math.inf], [math.nan, 0.5, 1.0]):
        with pytest.raises(PreconditionError, match="finite") as exc:
            Density.sampled(grid, [1.0, 1.0, 1.0])
        assert exc.value.code == "schema", grid


@pytest.mark.parametrize("call, name", [
    (lambda bad: Density.sampled([0.0, 0.5, 1.0], [0.0, 0.5, 1.0], interp_dim=bad),
     "interp_dim"),
    (lambda bad: Density.model(-1.0, 3.0, right=bad), "right"),
    (lambda bad: check_cd_density(Density.model(-1.0, 3.0, right=1.0), -1.0, 3.0,
                                  tolerance=bad), "tolerance"),
], ids=["interp_dim", "right", "tolerance"])
def test_non_finite_parameter_is_a_domain_error(call, name):
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(PreconditionError, match=f"^{name} must be finite") as exc:
            call(bad)
        assert exc.value.code == "domain"


def test_out_of_range_parameter_is_a_domain_error():
    for call, name in [
        (lambda: Density.sampled([0.0, 0.5, 1.0], [0.0, 0.5, 1.0], interp_dim=0.5),
         "interp_dim"),
        (lambda: Density.model(-1.0, 3.0, right=0.0), "right endpoint"),
        (lambda: check_cd_density(Density.model(-1.0, 3.0, right=1.0), -1.0, 3.0,
                                  tolerance=-1e-9), "tolerance"),
    ]:
        with pytest.raises(PreconditionError, match=name) as exc:
            call()
        assert exc.value.code == "domain"
    assert check_cd_density(Density.model(-1.0, 3.0, right=1.0), -1.0, 3.0,
                            tolerance=0.0).satisfied


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


def _log_h_difference(h, theta, eps):
    return (math.log(h(theta + eps)) - math.log(h(theta - eps))) / (2 * eps)


def test_log_derivative():
    h = Density.model(-2.0, 4.0)
    theta = 0.8
    fd = _log_h_difference(h, theta, 1e-6)
    assert _log_derivative(h)(theta) == pytest.approx(fd, rel=1e-8)

    # K > 0 (tan), K = 0 (1/t), and both signs of K where sqrt|kappa| t
    # < 1e-4 selects the series 1/t - kappa t/3
    for K, N, t in [(2.0, 3.0, 1.3), (1.0, 5.0, 0.4), (0.0, 3.0, 0.8), (0.0, 1.5, 0.05),
                    (2.0, 3.0, 5e-5), (-2.0, 3.0, 5e-5)]:
        hk = Density.model(K, N)
        fdk = _log_h_difference(hk, t, 1e-3 * t)
        assert _log_derivative(hk)(t) == pytest.approx(fdk, rel=1e-6), (K, N, t)

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
    assert 0.0 < r.witness < 2.0


def test_cd_check_curvature_family_property():
    """Model densities with curvature K' >= K pass the CD(K,N) test, in
    closed form and sampled."""
    rng = np.random.default_rng(4257)
    for _ in range(12):
        N = rng.uniform(1.6, 7.0)
        K = rng.uniform(-4.0, 1.0)
        bump = rng.uniform(0.0, 2.0)
        right = 1.5
        if K + bump > 0:
            right = min(right, 0.95 * max_diameter(K + bump, N))
        h = Density.model(K + bump, N, right=right)
        r = check_cd_density(h, K, N)
        assert r.satisfied, (K, N, bump, r.worst_violation)
        grid = np.linspace(0.0, right, 401)
        r = check_cd_density(Density.sampled(grid, h(grid), interp_dim=N), K, N)
        assert r.satisfied, (K, N, bump, r.worst_violation)


def test_cd_check_rejects_dented_line_and_tent():
    # A 0.02 dent at node 80 breaks CD(0,2) (concavity) for both weights;
    # the lattice scan sees it too, on its lattice point 0.8.
    grid = np.linspace(0.0, 1.0, 101)
    for values in (grid.copy(), 1.0 - np.abs(grid - 0.5)):
        values[80] -= 0.02
        h = Density.sampled(grid, values)
        r = check_cd_density(h, 0.0, 2.0)
        assert not r.satisfied
        assert r.witness == pytest.approx(0.8, abs=1e-12)
        assert r.worst_violation == pytest.approx(-1.0, abs=1e-9)
        assert lattice_scan(h, 0.0, 2.0, (19, 5), (0.0, 1.0))[0] < -1e-3
        with pytest.raises(PreconditionError) as exc:
            comparison_residual(h, 0.0, 2.0, 1.0, 0.9)
        assert exc.value.code == "cd-violation"
        assert "0.8" in str(exc.value)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(K=st.floats(-3.0, 1.0), N=st.floats(2.0, 6.0), r0=st.floats(0.4, 1.5),
       member=st.integers(0, 4), q=st.integers(1, 12),
       dent=st.floats(1e-3, 0.05), sign=st.sampled_from((-1.0, 1.0)),
       m=st.integers(4, 60))
def test_cd_check_agrees_with_lattice_scan(K, N, r0, member, q, dent, sign, m):
    """Sampled family members pass the nodal test; with a dent, whenever the
    lattice scan finds a violation the nodal test rejects too.  The sample
    has 64q + 1 nodes, so every point of the (15, 5) lattice and every
    midpoint it evaluates is a node, and the scan carries no interpolation
    defect.  The dent goes on node qm, which the scan evaluates."""
    family = cd_density_family(K, N, r0, count=3)
    h = family[member % len(family)]
    grid = np.linspace(0.0, r0, 64 * q + 1)
    values = h(grid)
    assert check_cd_density(Density.sampled(grid, values, interp_dim=N), K, N).satisfied
    i = q * m
    values[i] *= 1.0 + sign * dent
    dented = Density.sampled(grid, values, interp_dim=N)
    slack, witness = lattice_scan(dented, K, N, (15, 5), (0.0, r0))
    if slack < -1e-9:
        r = check_cd_density(dented, K, N)
        assert not r.satisfied, (slack, witness, grid[i])


def test_cd_check_argument_validation():
    h = Density.model(0.0, 3.0, right=1.0)
    with pytest.raises(PreconditionError):
        check_cd_density(h, 0.0, 1.0)
    with pytest.raises(PreconditionError):
        check_cd_density(h, 0.0, 3.0, interval=(0.0, 2.0))
    with pytest.raises(PreconditionError):
        check_cd_density(Density.model(4.0, 3.0), 4.0, 3.0)
