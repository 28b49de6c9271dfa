import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdeigen import bounds, eigensolve, physics
from cdeigen.bounds import (
    bessel_first_zero,
    bessel_first_zeros,
    closed_form_bound,
    neumann_upper_bound,
)
from cdeigen.cli import main
from cdeigen.errors import NonconvergenceError, PreconditionError
from cdeigen.modelspace import Density, ball_fits
from cdeigen.eigensolve import first_dirichlet_eigen
from cdeigen.physics import (
    CompactificationSpec,
    KkBoundResult,
    kk_curvature,
    kk_mass_bound_at,
    kk_mass_bound_optimal,
)


def spec_a():
    # hand-checked below: K(3) = 1 - (3+4-2)*4 / ((6-2)*(3-6+4)) = -4
    return CompactificationSpec(D=6, d=4, Lambda=1.0, sigma_w=2.0, diam=2.0)


def test_spec_validation():
    s = spec_a()
    assert s.n_internal == 2
    with pytest.raises(PreconditionError):
        CompactificationSpec(D=4, d=4, Lambda=0.0, sigma_w=0.0, diam=1.0)
    with pytest.raises(PreconditionError):
        CompactificationSpec(D=4, d=0, Lambda=0.0, sigma_w=0.0, diam=1.0)
    with pytest.raises(PreconditionError):
        CompactificationSpec(D=4.5, d=2, Lambda=0.0, sigma_w=0.0, diam=1.0)
    with pytest.raises(PreconditionError):
        CompactificationSpec(D=4, d=2, Lambda=0.0, sigma_w=0.0, diam=0.0)
    with pytest.raises(PreconditionError):
        CompactificationSpec(D=4, d=2, Lambda=0.0, sigma_w=-1.0, diam=1.0)
    with pytest.raises(PreconditionError):
        CompactificationSpec(D=4, d=2, Lambda=math.inf, sigma_w=0.0, diam=1.0)


def test_kk_curvature_hand_checked_values():
    assert kk_curvature(spec_a(), 3.0) == pytest.approx(-4.0, rel=1e-14)
    s = CompactificationSpec(D=10, d=4, Lambda=0.0, sigma_w=1.0, diam=1.0)
    # K(7) = -(7+4-2)*1 / (8*(7-10+4)) = -9/8
    assert kk_curvature(s, 7.0) == pytest.approx(-1.125, rel=1e-14)


def test_kk_curvature_no_warp_gives_lambda():
    s = CompactificationSpec(D=6, d=4, Lambda=-0.7, sigma_w=0.0, diam=2.0)
    for N in (2.5, 3.0, 17.0):
        assert kk_curvature(s, N) == -0.7


def test_kk_curvature_limits():
    s = spec_a()
    # N -> inf: K -> Lambda - sigma^2/(D-2) = 1 - 4/4 = 0
    assert kk_curvature(s, 1e9) == pytest.approx(0.0, abs=1e-7)
    # N -> (D-d)+: the warp term blows up negatively
    assert kk_curvature(s, 2.0 + 1e-9) < -1e8


def test_kk_curvature_domain_errors():
    with pytest.raises(PreconditionError):
        kk_curvature(spec_a(), 2.0)
    with pytest.raises(PreconditionError):
        kk_curvature(spec_a(), 1.5)
    with pytest.raises(PreconditionError):
        kk_curvature(CompactificationSpec(D=2, d=1, Lambda=0.0, sigma_w=1.0, diam=1.0), 1.5)


def test_mass_bound_at_n3_identity():
    # K=-4 at N=3 for spec_a; r0 = diam/(2j) = 1; lambda = -K/2 + pi^2/r0^2
    expect = 2.0 + math.pi ** 2
    assert kk_mass_bound_at(spec_a(), 1, 3.0, method="closed_form") == \
        pytest.approx(expect, rel=1e-12)
    assert kk_mass_bound_at(spec_a(), 1, 3.0, method="solver") == \
        pytest.approx(expect, rel=1e-6)


def test_mass_bound_at_closed_form_dominates_solver():
    s = spec_a()
    for N in (2.4, 3.7, 5.0):
        solver = kk_mass_bound_at(s, 1, N, method="solver")
        closed = kk_mass_bound_at(s, 1, N, method="closed_form")
        assert solver <= closed * (1.0 + 1e-6), N


def test_mass_bound_at_grows_with_mode_index():
    s = spec_a()
    b1 = kk_mass_bound_at(s, 1, 3.5, method="closed_form")
    b2 = kk_mass_bound_at(s, 2, 3.5, method="closed_form")
    b4 = kk_mass_bound_at(s, 4, 3.5, method="closed_form")
    assert b1 < b2 < b4


def test_mass_bound_at_infeasible_positive_curvature():
    s = CompactificationSpec(D=6, d=4, Lambda=50.0, sigma_w=0.0, diam=10.0)
    with pytest.raises(PreconditionError) as exc:
        kk_mass_bound_at(s, 1, 3.0)
    assert exc.value.code == "infeasible"


def test_mass_bound_at_validation():
    with pytest.raises(PreconditionError):
        kk_mass_bound_at(spec_a(), 0, 3.0)
    with pytest.raises(PreconditionError):
        kk_mass_bound_at(spec_a(), 1, 2.0)
    with pytest.raises(PreconditionError):
        kk_mass_bound_at(spec_a(), 1, 3.0, method="other")


def test_optimal_interior_minimum():
    res = kk_mass_bound_optimal(spec_a(), want_profile=True)
    assert isinstance(res, KkBoundResult)
    assert res.bracketed
    assert res.j == 1 and res.method == "closed_form"
    assert res.N_star > spec_a().n_internal
    assert res.K_star == pytest.approx(kk_curvature(spec_a(), res.N_star), rel=1e-12)
    assert res.bound == pytest.approx(
        kk_mass_bound_at(spec_a(), 1, res.N_star, method="closed_form"), rel=1e-12)
    # the golden refinement cannot sit above the best scanned grid value
    finite = [b for _, b in res.profile if b is not None]
    assert res.bound <= min(finite) * (1.0 + 1e-12)
    # and neighbors do not beat it in the scanned direction
    for fac in (0.98, 1.02):
        assert res.bound <= kk_mass_bound_at(
            spec_a(), 1, res.N_star * fac, method="closed_form") * (1.0 + 1e-9)


def test_optimal_profile_shape():
    res = kk_mass_bound_optimal(spec_a(), grid_points=24, want_profile=True)
    assert len(res.profile) == 24
    for N, b in res.profile:
        assert N > spec_a().n_internal
        assert b is None or math.isfinite(b)
    res2 = kk_mass_bound_optimal(spec_a(), grid_points=24)
    assert res2.profile is None
    assert res2.bound == pytest.approx(res.bound, rel=1e-12)


def test_optimal_boundary_minimum_without_warp():
    s = CompactificationSpec(D=6, d=4, Lambda=-1.0, sigma_w=0.0, diam=2.0)
    res = kk_mass_bound_optimal(s)
    assert not res.bracketed
    assert res.note is not None and "boundary" in res.note
    # monotone objective: the reported point hugs the feasible edge
    assert res.N_star <= s.n_internal + 0.01


def test_optimal_depends_only_on_internal_dimension_without_warp():
    a = CompactificationSpec(D=10, d=4, Lambda=-1.0, sigma_w=0.0, diam=3.0)
    b = CompactificationSpec(D=8, d=2, Lambda=-1.0, sigma_w=0.0, diam=3.0)
    ra = kk_mass_bound_optimal(a)
    rb = kk_mass_bound_optimal(b)
    assert ra.N_star == rb.N_star
    assert ra.bound == rb.bound


def test_optimal_all_infeasible_raises():
    s = CompactificationSpec(D=6, d=4, Lambda=80.0, sigma_w=0.0, diam=50.0)
    with pytest.raises(PreconditionError) as exc:
        kk_mass_bound_optimal(s)
    assert exc.value.code == "infeasible"


def test_optimal_validation():
    with pytest.raises(PreconditionError):
        kk_mass_bound_optimal(spec_a(), grid_points=2)
    with pytest.raises(PreconditionError):
        kk_mass_bound_optimal(spec_a(), golden_tol=0.0)
    with pytest.raises(PreconditionError):
        kk_mass_bound_optimal(spec_a(), j=-1)
    with pytest.raises(PreconditionError):
        kk_mass_bound_optimal(spec_a(), method="fancy")


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("name, call", [
    ("D", lambda: CompactificationSpec(D=NAN, d=2, Lambda=0.0, sigma_w=0.0, diam=1.0)),
    ("D", lambda: CompactificationSpec(D=INF, d=2, Lambda=0.0, sigma_w=0.0, diam=1.0)),
    ("D", lambda: CompactificationSpec(D=-INF, d=2, Lambda=0.0, sigma_w=0.0, diam=1.0)),
    ("d", lambda: CompactificationSpec(D=6, d=NAN, Lambda=0.0, sigma_w=0.0, diam=1.0)),
    ("d", lambda: CompactificationSpec(D=6, d=INF, Lambda=0.0, sigma_w=0.0, diam=1.0)),
    ("d", lambda: CompactificationSpec(D=6, d=-INF, Lambda=0.0, sigma_w=0.0, diam=1.0)),
    ("j", lambda: neumann_upper_bound(-1.0, 4.0, 2.0, j=NAN)),
    ("j", lambda: neumann_upper_bound(-1.0, 4.0, 2.0, j=INF)),
    ("j", lambda: kk_mass_bound_at(spec_a(), NAN, 3.0)),
    ("j", lambda: kk_mass_bound_at(spec_a(), INF, 3.0)),
    ("j", lambda: kk_mass_bound_optimal(spec_a(), j=NAN)),
    ("j", lambda: kk_mass_bound_optimal(spec_a(), j=INF)),
    ("grid_points", lambda: kk_mass_bound_optimal(spec_a(), grid_points=NAN)),
    ("grid_points", lambda: kk_mass_bound_optimal(spec_a(), grid_points=INF)),
])
def test_non_finite_integer_parameters_raise_domain(name, call):
    with pytest.raises(PreconditionError) as exc:
        call()
    assert exc.value.code == "domain"
    assert f"{name} must" in exc.value.message


def test_optimal_scan_failure_names_its_N(monkeypatch):
    bad_N = 2.0 + float(np.geomspace(1e-3, 1998.0, 8)[3])

    def fake_solver(h, r0, tol):
        if h.N == bad_N:
            raise NonconvergenceError("refinement", "budget exhausted")
        return SimpleNamespace(eigenvalue=closed_form_bound(h.K, h.N, r0).value)

    monkeypatch.setattr(eigensolve, "first_dirichlet_eigen", fake_solver)
    with pytest.raises(NonconvergenceError) as exc:
        kk_mass_bound_optimal(spec_a(), method="solver", grid_points=8)
    assert exc.value.code == "refinement"
    assert f"N={bad_N:.17g}" in exc.value.message
    assert f"K(N)={kk_curvature(spec_a(), bad_N):.17g}" in exc.value.message
    assert "budget exhausted" in exc.value.message


def _per_point_scan(spec, j, Ns, zeros):
    f = physics._objective(spec, j, "closed_form", 1e-8)
    return np.array([f(N) for N in Ns])


@pytest.mark.parametrize("spec, j", [
    (spec_a(), 1),
    (spec_a(), 2),
    (CompactificationSpec(D=7, d=3, Lambda=-0.5, sigma_w=0.0, diam=1.5), 1),
    # K(N) > 0 puts r0 = 5 beyond the model diameter for N below about 50
    (CompactificationSpec(D=6, d=4, Lambda=20.0, sigma_w=1.0, diam=10.0), 1),
], ids=["default", "j=2", "sigma=0", "infeasible"])
def test_optimal_scan_is_the_per_point_scan(monkeypatch, spec, j):
    res = kk_mass_bound_optimal(spec, j, want_profile=True)
    profile = [b for _, b in res.profile]
    if spec.Lambda == 20.0:
        assert math.inf in profile and any(math.isfinite(b) for b in profile)
    monkeypatch.setattr(physics, "_closed_form_scan", _per_point_scan)
    ref = kk_mass_bound_optimal(spec, j, want_profile=True)
    assert (res.bound, res.N_star, res.K_star) == (ref.bound, ref.N_star, ref.K_star)
    assert (res.bracketed, res.note) == (ref.bracketed, ref.note)
    assert res.profile == ref.profile
    assert res.bound == kk_mass_bound_at(spec, j, res.N_star, method="closed_form")


_EDGE = st.sampled_from([-1e-13, 0.0, 2e-13, 5e-13, 1e-12, 1.5e-12, 1e-11])


@settings(derandomize=True, max_examples=40, deadline=None)
@given(Lambda=st.floats(0.1, 20.0), N0=st.floats(1.5, 12.0), f=_EDGE,
       Ns=st.lists(st.floats(1.01, 40.0), min_size=1, max_size=24), j=st.integers(1, 3))
def test_scan_mask_is_the_scalar_rule(Lambda, N0, f, Ns, j):
    # sigma = 0 keeps K(N) = Lambda > 0; r0 = diam/(2j) sits at (1 - f) times
    # the diameter at N0, which is one of the scanned N
    d0 = math.pi * math.sqrt((N0 - 1.0) / Lambda)
    spec = CompactificationSpec(D=3, d=2, Lambda=Lambda, sigma_w=0.0,
                                diam=2.0 * j * (1.0 - f) * d0)
    Ns = np.array(Ns + [N0])
    r0 = spec.diam / (2.0 * j)
    vals = physics._closed_form_scan(spec, j, Ns, bessel_first_zeros(Ns / 2.0 - 1.0))
    rule = [ball_fits(kk_curvature(spec, float(N)), float(N), r0) for N in Ns]
    assert list(~np.isposinf(vals)) == rule


@pytest.fixture
def cold_zero_caches():
    """Empty Bessel-zero caches before and after: the test patches J_nu/J_{nu-1}."""
    bessel_first_zero.cache_clear()
    physics._scan_grid.cache_clear()
    yield
    bessel_first_zero.cache_clear()
    physics._scan_grid.cache_clear()


def test_optimal_array_pass_failure_names_its_N(monkeypatch, cold_zero_caches):
    bad_N = 2.0 + float(np.geomspace(1e-3, 1998.0, 8)[3])
    ratio = bounds._jv_ratio
    monkeypatch.setattr(bounds, "_jv_ratio",
                        lambda nu, x: math.nan if nu == bad_N / 2.0 - 1.0 else ratio(nu, x))
    with pytest.raises(NonconvergenceError) as exc:
        kk_mass_bound_optimal(spec_a(), grid_points=8)
    assert exc.value.code == "newton"
    assert f"N={bad_N:.17g}" in exc.value.message
    assert f"K(N)={kk_curvature(spec_a(), bad_N):.17g}" in exc.value.message


@pytest.mark.parametrize("points, text", [
    (9.99, "grid_points must be an integer"),
    (7, "grid_points must lie in [8, "),
    (physics._MAX_GRID_POINTS + 1, "grid_points must lie in [8, "),
    (1e12, "grid_points must lie in [8, "),
])
def test_optimal_grid_points_validation(points, text):
    with pytest.raises(PreconditionError) as exc:
        kk_mass_bound_optimal(spec_a(), grid_points=points)
    assert exc.value.code == "domain" and text in exc.value.message


def test_optimal_takes_an_integral_float_grid_size():
    assert kk_mass_bound_optimal(spec_a(), grid_points=24.0) == \
        kk_mass_bound_optimal(spec_a(), grid_points=24)


def test_cli_grid_points_beyond_the_cap_exits_two(capsys):
    rc = main(["kk-bound", "--D", "6", "--d", "4", "--Lambda", "1", "--sigma", "2",
               "--diam", "2", "--grid-points", "1000000000000"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "domain" and "grid_points" in error["message"]


def test_solver_scan_completes_through_n_3000():
    # D - d = 3 scans up to N = 3000, where the matrix route needs the
    # factorization-certified shift; the solver's bound lies at or below
    # the closed form's, which is an upper bound at every N
    spec = CompactificationSpec(D=7, d=4, Lambda=1.0, sigma_w=2.0, diam=2.0)
    solved = kk_mass_bound_optimal(spec, j=1, method="solver")
    closed = kk_mass_bound_optimal(spec, j=1, method="closed_form")
    assert solved.bracketed
    assert solved.bound <= closed.bound


def test_default_kk_scan_solver_range(capsys):
    # the (K(N), N) curve of the default kk-bound scan, r0 = diam/2 = 1,
    # from the near-singular end N -> 2+ out to N = 20 000
    s = spec_a()
    for u in np.geomspace(1e-3, 19998.0, 14):
        N = 2.0 + float(u)
        K = kk_curvature(s, N)
        assert K == pytest.approx(1.0 - (N + 2.0) / (N - 2.0), rel=1e-12)
        h = Density.model(K, N)
        lam = first_dirichlet_eigen(h, 1.0).eigenvalue
        assert lam <= closed_form_bound(K, N, 1.0).value * (1.0 + 1e-8), N
        if 2.01 <= N <= 30.0:
            shot = first_dirichlet_eigen(h, 1.0, method="shooting").eigenvalue
            assert shot == pytest.approx(lam, rel=1e-6), N
    rc = main(["kk-bound", "--D", "6", "--d", "4", "--Lambda", "1", "--sigma", "2",
               "--diam", "2", "--method", "solver", "--grid-points", "16"])
    out, err = capsys.readouterr()
    assert rc == 0, err
