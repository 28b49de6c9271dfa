import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import jv

from cdeigen import bounds, physics
from cdeigen.bounds import (
    BoundValue,
    bessel_first_zero,
    bessel_first_zeros,
    closed_form_bound,
    closed_form_values,
    essential_spectrum_threshold,
    neumann_upper_bound,
)
from cdeigen.eigensolve import first_dirichlet_eigen
from cdeigen.errors import NonconvergenceError, PreconditionError
from cdeigen.modelspace import Density, check_cd_density, max_diameter, s_kappa


def reference_first_zero(nu):
    """First positive zero of J_nu by sign-stepping scipy.special.jv."""
    x = max(nu, 0.5)
    step = max(0.5, 0.6 * x ** (1.0 / 3.0))
    f_prev = jv(nu, x)
    while f_prev == 0.0:
        x += 1e-9
        f_prev = jv(nu, x)
    for _ in range(10000):
        x_next = x + step
        f_next = jv(nu, x_next)
        if f_prev * f_next < 0:
            return brentq(lambda t: jv(nu, t), x, x_next, xtol=1e-14, rtol=8.9e-16)
        x, f_prev = x_next, f_next
    raise AssertionError(f"no sign change found for nu={nu}")


def test_first_zero_classical_values():
    assert bessel_first_zero(0.5) == pytest.approx(math.pi, abs=1e-12)
    assert bessel_first_zero(0.0) == pytest.approx(2.404825557695773, rel=1e-12)
    assert bessel_first_zero(1.0) == pytest.approx(3.8317059702075125, rel=1e-12)
    assert bessel_first_zero(-0.5) == pytest.approx(math.pi / 2.0, rel=1e-12)


def test_first_zero_against_scipy_brentq():
    grid = [-0.9, -0.3, 0.0, 0.25, 0.5, 1.0, 2.5, 5.0, 9.9, 10.0,
            10.5, 17.0, 42.3, 100.0, 317.2, 1000.0]
    for nu in grid:
        assert bessel_first_zero(nu) == pytest.approx(
            reference_first_zero(nu), rel=1e-12), nu


def test_first_zero_random_orders():
    rng = np.random.default_rng(5551)
    for nu in rng.uniform(-0.95, 250.0, size=40):
        nu = float(nu)
        assert bessel_first_zero(nu) == pytest.approx(
            reference_first_zero(nu), rel=1e-12), nu


def test_first_zero_on_every_default_kk_grid():
    # The orders nu = N/2 - 1 of the closed-form N-scans of kk-bound: the
    # default 160-point grid for each D - d = 1..6, nu up to 2999
    for n in range(1, 7):
        _, Ns, zeros = physics._scan_grid(n, 160)
        for N, j in zip(Ns.tolist(), zeros.tolist()):
            assert j == pytest.approx(reference_first_zero(N / 2.0 - 1.0), rel=1e-12), N


def test_first_zero_very_large_order_asymptotics():
    # j_{nu,1} = nu + 1.8557571 nu^(1/3) + 1.033150 nu^(-1/3) + O(1/nu)
    for nu in (1e4, 1e5):
        j1 = bessel_first_zero(nu)
        pred = nu + 1.8557571 * nu ** (1.0 / 3.0) + 1.033150 * nu ** (-1.0 / 3.0)
        assert j1 == pytest.approx(pred, abs=2e-3 / nu ** (1 / 3)), nu


def test_first_zero_bracket_and_interlacing():
    rng = np.random.default_rng(77)
    for nu in rng.uniform(-0.9, 400.0, size=60):
        j1 = bessel_first_zero(float(nu))
        assert j1 > max(nu, 0.0)
        assert j1 ** 2 < 2.0 * (nu + 1.0) * (nu + 3.0)


def test_first_zero_strictly_increasing_in_order():
    nus = np.linspace(-0.9, 30.0, 120)
    zeros = [bessel_first_zero(float(v)) for v in nus]
    assert np.all(np.diff(zeros) > 0.0)


def _small_order_reference(e):
    """j_{nu,1} for nu = -1 + e by a root of the power series of
    e Gamma(nu + 1) (x/2)^(-nu) J_nu(x) in z = x^2/4, summed to roundoff."""
    def series(z):
        total, term, k = e - z, -z, 1
        while abs(term) > 1e-20 * e:
            term *= -z / ((k + 1) * (e + k))
            total += term
            k += 1
        return total

    return 2.0 * math.sqrt(brentq(series, 0.5 * e, 2.0 * e, xtol=1e-18 * e, rtol=1e-15))


_SWITCH = bounds._SMALL_ORDER


@pytest.mark.parametrize("nu", [-1.0 + 2.0 ** -53, -1.0 + 1e-10, -1.0 + 1e-6,
                                -1.0 + _SWITCH * (1.0 - 1e-9), -1.0 + _SWITCH * (1.0 + 1e-9)],
                         ids=["2^-53", "1e-10", "1e-6", "below-switch", "above-switch"])
def test_first_zero_small_order(nu):
    # nu = -1 + e: the expansion below the switch e = 1e-4 and Halley above
    # it meet the 1e-12 contract, and the batch gives the scalar's bits
    j = bessel_first_zero(nu)
    assert j == pytest.approx(_small_order_reference(nu + 1.0), rel=1e-12)
    assert bessel_first_zeros(np.array([nu, 0.5]))[0] == j
    assert max(nu, 0.0) < j < math.sqrt(2.0 * (nu + 1.0) * (nu + 3.0)) * (1.0 + 1e-12)


def test_halley_start_accuracy():
    # Within 1.5e-3 of the zero below nu = 300, so two Halley steps reach
    # it, and within 1.2e-7 from there, so one does.  reference_first_zero
    # starts its search at x = 0.5, above the first zero for nu < -0.94;
    # below nu = -0.9 the reference is the series root.
    low = np.concatenate((-1.0 + np.geomspace(1e-4, 0.1, 25), np.linspace(-0.9, 1.0, 39),
                          np.geomspace(1.0, 300.0, 40, endpoint=False)))
    high = np.geomspace(300.0, 5e5, 30)
    for nus, tol in ((low, 1.5e-3), (high, 1.2e-7)):
        for nu in nus.tolist():
            ref = (_small_order_reference(nu + 1.0) if nu < -0.9
                   else reference_first_zero(nu))
            assert bounds._halley_start(nu) == pytest.approx(ref, rel=tol), nu


def test_first_zero_domain_error(monkeypatch):
    # Refused before any continued fraction runs: past the supported orders,
    # from nu near 1.9e12, the fraction would pass its term budget and the
    # iteration stall.
    monkeypatch.setattr(bounds, "_jv_ratio",
                        lambda nu, x: pytest.fail("a continued fraction ran"))
    for nu in (-1.0, -2.3, math.nextafter(bounds._MAX_ORDER, math.inf), 1e12, 1e30,
               math.inf, math.nan):
        with pytest.raises(PreconditionError) as exc:
            bessel_first_zero(nu)
        assert exc.value.code == "domain" and "(-1, 5e+11]" in exc.value.message, nu


@pytest.mark.parametrize("nu", [3e11, bounds._MAX_ORDER])
def test_first_zero_at_the_largest_supported_orders(nu):
    # j_{nu,1} = nu + a nu^(1/3) + (3/10) a^2 nu^(-1/3) + O(1/nu), a = 2^(-1/3)
    # times |a_1|, a_1 the first zero of Ai (DLMF 10.21.41); the O(1/nu)
    # term is -4e-3/nu
    a = 1.8557570814
    pred = nu + a * nu ** (1.0 / 3.0) + 0.3 * a * a * nu ** (-1.0 / 3.0)
    assert bessel_first_zero(nu) == pytest.approx(pred, rel=1e-12)


_ORDERS = st.floats(min_value=-1.0, max_value=5e5, exclude_min=True)
_ORDERS_TO_1E5 = st.floats(min_value=-1.0, max_value=1e5, exclude_min=True)


def test_first_zero_work_budget(monkeypatch):
    # Each golden-section step of a closed-form KK scan misses the cache:
    # each miss sums one continued fraction per Halley step, at most 2, and
    # exactly 1 from nu = 300, where the start is within 1.2e-7; none below
    # the small-order switch, where the expansion serves.
    ratio = bounds._jv_ratio
    fractions = 0

    def counted_ratio(nu, x):
        nonlocal fractions
        fractions += 1
        return ratio(nu, x)

    monkeypatch.setattr(bounds, "_jv_ratio", counted_ratio)
    nus = np.unique(np.concatenate((-1.0 + np.geomspace(1e-9, 1.0, 40),
                                    np.linspace(0.0, 12.0, 49), np.geomspace(10.0, 1e5, 60))))
    bessel_first_zero.cache_clear()
    scalar = []
    for nu in nus:
        before = fractions
        scalar.append(bessel_first_zero(float(nu)))
        if nu + 1.0 < bounds._SMALL_ORDER:
            assert fractions == before, nu
        elif nu < 300.0:
            assert 0 < fractions - before <= 2, (nu, fractions - before)
        else:
            assert fractions - before == 1, (nu, fractions - before)
    assert bessel_first_zero.cache_info().misses == nus.size

    # The batch, on a cold cache, gives the scalar zeros bit for bit.
    bessel_first_zero.cache_clear()
    assert list(bessel_first_zeros(nus)) == scalar


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.lists(_ORDERS_TO_1E5, min_size=1, max_size=24))
def test_batched_zeros_are_the_scalar_zeros(nus):
    # NaN where the scalar raises `newton`
    def scalar(nu):
        try:
            return bessel_first_zero(nu)
        except NonconvergenceError as exc:
            assert exc.code == "newton"
            return math.nan

    np.testing.assert_array_equal(bessel_first_zeros(nus), [scalar(nu) for nu in nus])


def test_batched_zeros_mark_a_failed_order_alone(monkeypatch):
    # J_nu/J_{nu-1} made NaN at one order: that order's zero is NaN, and no
    # other moves
    ratio = bounds._jv_ratio
    nus = np.array([-0.5, 0.25, 3.0, 40.0, 2500.0])
    monkeypatch.setattr(bounds, "_jv_ratio",
                        lambda nu, x: math.nan if nu == 3.0 else ratio(nu, x))
    bessel_first_zero.cache_clear()
    zeros = bessel_first_zeros(nus)
    assert np.isnan(zeros[2])
    assert list(np.delete(zeros, 2)) == [bessel_first_zero(nu) for nu in np.delete(nus, 2)]


@settings(max_examples=30, derandomize=True, deadline=None)
@given(_ORDERS, _ORDERS)
def test_first_zero_properties_over_full_order_range(a, b):
    for nu in (a, b):
        j = bessel_first_zero(nu)
        # As nu -> -1 the gap below the upper bound shrinks like
        # 0.04 (nu+1)^2 relative, under the 1e-12 contract for nu+1 < 5e-6,
        # so the upper bound is checked to within that contract.
        assert max(nu, 0.0) < j < math.sqrt(2.0 * (nu + 1.0) * (nu + 3.0)) * (1.0 + 1e-12), nu
        assert jv(nu, j * (1.0 - 1e-12)) * jv(nu, j * (1.0 + 1e-12)) < 0.0, nu
    lo, hi = sorted((a, b))
    # d j_{nu,1} / d nu > 1, so orders further apart than the contract
    # allows must give strictly increasing zeros.
    if hi - lo > 1e-9 * (1.0 + abs(hi)):
        assert bessel_first_zero(lo) < bessel_first_zero(hi), (lo, hi)


def test_closed_form_bound_dispatch():
    b = closed_form_bound(0.0, 5.0, 2.0)
    assert isinstance(b, BoundValue)
    assert b.exact and b.formula_tag == "bessel_k0"
    j = bessel_first_zero(5.0 / 2.0 - 1.0)
    assert b.value == pytest.approx(j * j / 4.0, rel=1e-13)

    b = closed_form_bound(-2.0, 3.0, 1.0)
    assert b.exact and b.formula_tag == "exact_n3"
    assert b.value == pytest.approx(1.0 + math.pi ** 2, rel=1e-13)

    b = closed_form_bound(0.0, 3.0, 2.0)
    assert b.exact
    assert b.value == pytest.approx(math.pi ** 2 / 4.0, rel=1e-12)

    b = closed_form_bound(-1.0, 2.0, 1.0)
    assert not b.exact and b.formula_tag == "upper_n_lt_3"
    j0 = bessel_first_zero(0.0)
    assert b.value == pytest.approx(2.0 / 6.0 + j0 * j0, rel=1e-12)

    b = closed_form_bound(-4.0, 5.0, 1.0)
    assert not b.exact and b.formula_tag == "upper_n_gt_3"
    j32 = bessel_first_zero(1.5)
    s = s_kappa(-1.0, 1.0)  # sinh(1)
    expect = 4.0 + j32 * j32 + 2.0 * (1.0 / s ** 2 - 1.0)
    assert b.value == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("r0", [1.0, 2.0])
def test_closed_form_bound_past_sinh_overflow(r0):
    # kappa = -1e6/3: s_kappa(r0) is 1e247 at r0 = 1 (s^2 overflows) and
    # sinh overflows at r0 = 2; 1/s^2 is 0 either way, with no warning
    b = closed_form_bound(-1e6, 4.0, r0)
    j = bessel_first_zero(1.0)
    assert b.formula_tag == "upper_n_gt_3"
    assert b.value == pytest.approx(750000.0 + j * j / r0**2 - 0.75 / r0**2, rel=1e-15)


def test_closed_form_bound_n3_seam_is_continuous():
    # N -> 3 from either side reproduces the exact N=3 formula
    k, r0 = -2.0, 1.3
    exact = closed_form_bound(k, 3.0, r0).value
    lo = closed_form_bound(k, 3.0 - 1e-9, r0).value
    hi = closed_form_bound(k, 3.0 + 1e-9, r0).value
    assert lo == pytest.approx(exact, rel=1e-6)
    assert hi == pytest.approx(exact, rel=1e-6)


# Points of every closed form: K = 0, N = 3, N < 3, N > 3, and K = -1e6,
# where sinh or s^2 overflows.
_K = st.one_of(st.just(0.0), st.just(-1e6), st.floats(-60.0, 6.0))
_N = st.one_of(st.just(3.0), st.floats(1.001, 3.0), st.floats(3.0, 60.0))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.lists(st.tuples(_K, _N), min_size=1, max_size=16), st.floats(0.05, 3.0))
def test_closed_form_values_are_the_scalar_bounds(points, r0):
    points = [(K, N) for K, N in points if r0 < max_diameter(K, N)]
    if not points:
        return
    K, N = np.array(points).T
    values = closed_form_values(K, N, r0, bessel_first_zeros(N / 2.0 - 1.0))
    assert list(values) == [closed_form_bound(k, n, r0).value for k, n in points]


def test_closed_form_values_mark_a_radius_too_small():
    # closed_form_bound raises domain here; the array form gives no finite
    # value, and no warning
    K, N = np.array([0.0, -1.0, -1.0, -1.0]), np.array([5.0, 3.0, 2.5, 7.0])
    zeros = bessel_first_zeros(N / 2.0 - 1.0)
    for r0 in (1e-200, 1e-160):
        with pytest.raises(PreconditionError, match="too small"):
            closed_form_bound(-1.0, 7.0, r0)
        assert not np.any(np.isfinite(closed_form_values(K, N, r0, zeros)))


def test_closed_form_bound_domain_errors():
    with pytest.raises(PreconditionError):
        closed_form_bound(1.0, 3.0, max_diameter(1.0, 3.0))
    with pytest.raises(PreconditionError):
        closed_form_bound(0.0, 1.0, 1.0)
    with pytest.raises(PreconditionError):
        closed_form_bound(0.0, 3.0, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call", [
    lambda K, N: max_diameter(K, N),
    lambda K, N: Density.model(K, N, right=1.0),
    lambda K, N: closed_form_bound(K, N, 1.0),
    lambda K, N: neumann_upper_bound(K, N, 1.0, 1),
    lambda K, N: essential_spectrum_threshold(K, N),
    lambda K, N: check_cd_density(Density.model(-1.0, 3.0, right=1.0), K, N),
], ids=["max_diameter", "Density.model", "closed_form_bound", "neumann_upper_bound",
        "essential_spectrum_threshold", "check_cd_density"])
def test_non_finite_K_or_N_is_a_domain_error(call, bad):
    for K, N, name in ((bad, 4.0, "K"), (-1.0, bad, "N")):
        with pytest.raises(PreconditionError, match=f"^{name} must be finite") as exc:
            call(K, N)
        assert exc.value.code == "domain"


def test_closed_form_dominates_solver():
    rng = np.random.default_rng(8080)
    for _ in range(6):
        K = rng.uniform(-4.0, 1.5)
        N = rng.uniform(1.5, 8.0)
        r0 = rng.uniform(0.4, 2.0)
        if K > 0:
            r0 = min(r0, 0.85 * max_diameter(K, N))
        lam = first_dirichlet_eigen(Density.model(K, N), r0).eigenvalue
        bound = closed_form_bound(K, N, r0).value
        assert lam <= bound * (1.0 + 1e-6), (K, N, r0, lam, bound)


def test_neumann_upper_bound_flat_oracle():
    # the uniform weight on [0, D] has Neumann eigenvalues (j pi / D)^2
    for N in (2.0, 3.0, 5.0):
        for j in (1, 2, 3):
            for D in (1.0, math.pi):
                b = neumann_upper_bound(0.0, N, D, j)
                assert (j * math.pi / D) ** 2 <= b * (1.0 + 1e-9), (N, j, D)


def test_neumann_upper_bound_n3_closed_form():
    # at K=0, N=3 the bound is exactly 4 j^2 pi^2 / D^2
    for j in (1, 2, 4):
        b = neumann_upper_bound(0.0, 3.0, 2.0, j)
        assert b == pytest.approx(4.0 * j * j * math.pi ** 2 / 4.0, rel=1e-12)


def test_neumann_upper_bound_methods_agree():
    a = neumann_upper_bound(-1.0, 3.0, 2.0, 2, method="closed_form")
    b = neumann_upper_bound(-1.0, 3.0, 2.0, 2, method="solver")
    assert a == pytest.approx(b, rel=1e-6)  # N=3 formula is exact


def test_neumann_upper_bound_grows_with_j():
    vals = [neumann_upper_bound(-2.0, 4.0, 3.0, j) for j in (1, 2, 3, 4)]
    assert np.all(np.diff(vals) > 0.0)


def test_neumann_upper_bound_validation():
    with pytest.raises(PreconditionError):
        neumann_upper_bound(0.0, 3.0, math.inf, 1)
    with pytest.raises(PreconditionError):
        neumann_upper_bound(0.0, 3.0, 2.0, 0)
    with pytest.raises(PreconditionError):
        neumann_upper_bound(0.0, 3.0, 2.0, 2, method="guess")
    with pytest.raises(PreconditionError):
        # r0 = diam/2 reaches the diameter bound pi*sqrt(2)
        neumann_upper_bound(1.0, 3.0, 2.0 * max_diameter(1.0, 3.0), 1)


def test_essential_spectrum_threshold():
    assert essential_spectrum_threshold(0.0, 4.0) == 0.0
    assert essential_spectrum_threshold(-4.0, 3.0) == pytest.approx(2.0, rel=1e-15)
    assert essential_spectrum_threshold(-1.0, 5.0) == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(PreconditionError) as exc:
        essential_spectrum_threshold(1.0, 3.0)
    assert exc.value.code == "hypothesis"
    with pytest.raises(PreconditionError) as exc:
        essential_spectrum_threshold(-1.0, 2.5)
    assert exc.value.code == "hypothesis"
