import math
import re
import sys
import threading

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cdeigen import eigensolve
from cdeigen.bounds import bessel_first_zero, closed_form_bound
from cdeigen.eigensolve import (
    EigenSolution,
    assemble_weighted_problem,
    first_dirichlet_eigen,
    flux_identity_residual,
    weighted_integral,
)
from cdeigen.errors import NonconvergenceError, PreconditionError
from cdeigen.modelspace import Density, max_diameter

# first positive zeros of the Bessel functions J_0, J_1 (classical values)
J0_ZERO = 2.404825557695773
J1_ZERO = 3.8317059702075125


def test_weighted_integral_power_moments():
    # with the flat-case weight theta^(N-1), moments have the closed form 1/(k+N)
    for N in (1.5, 2.0, 3.0, 4.5):
        h = Density.model(0.0, N, right=1.0)
        for k in (0, 1, 2, 5):
            val = weighted_integral(lambda th, k=k: th ** k, h, 0.0, 1.0)
            assert val == pytest.approx(1.0 / (k + N), rel=1e-11), (N, k)


def test_weighted_integral_trig_weight():
    # K=2, N=3 gives h = sin(theta)^2; int_0^b sin^2 = b/2 - sin(2b)/4
    h = Density.model(2.0, 3.0)
    for b in (0.7, 1.5, 2.9):
        exact = b / 2.0 - math.sin(2.0 * b) / 4.0
        assert weighted_integral(1.0, h, 0.0, b) == pytest.approx(exact, rel=1e-11)


def test_weighted_integral_constant_and_callable_agree():
    h = Density.model(-1.0, 2.5, right=2.0)
    a = weighted_integral(2.0, h, 0.25, 1.75)
    b = weighted_integral(lambda th: np.full(np.shape(th), 2.0), h, 0.25, 1.75)
    assert a == pytest.approx(b, rel=1e-12)


def test_weighted_integral_additive_over_subintervals():
    h = Density.model(1.0, 4.0)
    whole = weighted_integral(lambda th: np.cos(th), h, 0.0, 2.0)
    parts = (weighted_integral(lambda th: np.cos(th), h, 0.0, 0.8)
             + weighted_integral(lambda th: np.cos(th), h, 0.8, 2.0))
    assert whole == pytest.approx(parts, rel=1e-11)


def test_weighted_integral_sampled_matches_segment_closed_form():
    """Sampled weights interpolate h^(1/(d-1)) linearly, so each segment
    integrates to a closed-form power expression; compare against it."""
    grid = np.array([0.0, 0.4, 1.0, 1.7, 2.0])
    vals = np.array([0.0, 0.9, 2.0, 1.3, 1.1])
    dim = 3.0
    h = Density.sampled(grid, vals, interp_dim=dim)
    exact = _sampled_mass_closed_form(grid, vals, dim)
    assert weighted_integral(1.0, h, 0.0, 2.0) == pytest.approx(exact, rel=1e-11)


def _sampled_mass_closed_form(grid, vals, dim):
    """int h over the whole grid, summed from the per-segment power formula."""
    p = dim - 1.0
    g = vals ** (1.0 / p)
    exact = 0.0
    for i in range(grid.size - 1):
        w = grid[i + 1] - grid[i]
        s = (g[i + 1] - g[i]) / w
        if s == 0.0:
            exact += g[i] ** p * w
        else:
            exact += (g[i + 1] ** (p + 1) - g[i] ** (p + 1)) / (s * (p + 1))
    return exact


def test_weighted_integral_batches_panels(monkeypatch):
    # the whole initial partition of a 3201-node density is one _gk_panel
    # call, and each refinement round adds at most one more
    calls = []
    gk_panel = eigensolve._gk_panel

    def counting(fh, a, b):
        calls.append(np.size(a))
        return gk_panel(fh, a, b)

    monkeypatch.setattr(eigensolve, "_gk_panel", counting)
    grid = np.linspace(0.0, 2.0, 3201)
    vals = (grid * (1.5 + np.sin(5.0 * grid))) ** 2
    h = Density.sampled(grid, vals, interp_dim=3.0)
    exact = _sampled_mass_closed_form(grid, vals, 3.0)
    assert weighted_integral(1.0, h, 0.0, 2.0) == pytest.approx(exact, rel=1e-11)
    assert 1 <= len(calls) <= 4
    assert calls[0] >= 3200

    # an oscillatory integrand needs refinement: int_0^1 theta cos(30 theta)
    calls.clear()
    val = weighted_integral(lambda th: np.cos(30.0 * th), Density.model(0.0, 2.0, right=1.0),
                            0.0, 1.0)
    exact = (math.cos(30.0) - 1.0) / 900.0 + math.sin(30.0) / 30.0
    assert val == pytest.approx(exact, rel=1e-11)
    assert 1 < len(calls) <= 4

    # a callable with one row per integrand gives every integral from one
    # pass: each matches its own one-row integral
    h = Density.model(-1.0, 3.5, right=1.2)
    both = weighted_integral(lambda th: np.stack((np.cos(th), th * th)), h, 0.1, 1.2)
    assert both.shape == (2,)
    assert both[0] == pytest.approx(weighted_integral(np.cos, h, 0.1, 1.2), rel=1e-10)
    assert both[1] == pytest.approx(weighted_integral(lambda th: th * th, h, 0.1, 1.2),
                                    rel=1e-10)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(widths=st.lists(st.floats(0.05, 0.5), min_size=2, max_size=11),
       vals=st.lists(st.floats(0.1, 2.0), min_size=12, max_size=12),
       dim=st.floats(1.5, 5.0),
       coef=st.lists(st.floats(-0.3, 0.3), min_size=3, max_size=3),
       frac=st.floats(0.3, 1.0))
def test_weighted_integral_matches_scipy_quad(widths, vals, dim, coef, frac):
    # random sampled weight times a positive cubic, against QUADPACK
    grid = np.concatenate(([0.0], np.cumsum(widths)))
    h = Density.sampled(grid, vals[:grid.size], interp_dim=dim)
    b = frac * h.right
    poly = np.concatenate(([1.0], coef))

    def f(th):
        return np.polynomial.polynomial.polyval(th / h.right, poly)

    inside = [t for t in grid if 0.0 < t < b]
    ref, _ = quad(lambda t: f(t) * h(t), 0.0, b, points=inside or None,
                  epsabs=0.0, epsrel=1e-12, limit=200)
    assert weighted_integral(f, h, 0.0, b) == pytest.approx(ref, rel=1e-9)


def test_weighted_integral_argument_validation():
    h = Density.model(0.0, 3.0, right=1.0)
    with pytest.raises(PreconditionError):
        weighted_integral(1.0, h, 0.5, 0.5)
    with pytest.raises(PreconditionError):
        weighted_integral(1.0, h, -0.1, 0.5)
    with pytest.raises(PreconditionError):
        weighted_integral(1.0, h, 0.0, 1.5)
    with pytest.raises(PreconditionError):
        weighted_integral(1.0, h, 0.0, 1.0, rel_tol=0.0)
    with pytest.raises(PreconditionError):
        weighted_integral(1.0, "not a density", 0.0, 1.0)


def test_weighted_integral_starvation_raises():
    # roundoff floors the error estimate well above 1e-18 for an
    # oscillatory integrand, so the panel budget must run out
    h = Density.model(0.0, 2.0, right=1.0)
    with pytest.raises(NonconvergenceError) as exc:
        weighted_integral(lambda th: np.cos(50.0 * th), h, 0.0, 1.0, rel_tol=1e-18)
    assert exc.value.code == "quadrature"


def test_weighted_integral_tolerance_below_roundoff_raises():
    # the integrand is a polynomial, so Kronrod and Gauss agree to roundoff;
    # a tolerance under double precision must still exhaust the budget
    with pytest.raises(NonconvergenceError) as exc:
        weighted_integral(1.0, Density.model(0.0, 3.0), 0.0, 0.7, rel_tol=1e-18)
    assert exc.value.code == "quadrature"


def test_weighted_integral_split_stays_within_panel_budget(monkeypatch):
    # a round that flags every panel must still stop at the panel budget
    monkeypatch.setattr(eigensolve, "_MAX_PANELS", 64)
    h = Density.model(0.0, 2.0, right=1.0)
    with pytest.raises(NonconvergenceError) as exc:
        weighted_integral(lambda th: np.cos(50.0 * th), h, 0.0, 1.0, rel_tol=1e-18)
    assert exc.value.code == "quadrature"
    panels = int(re.search(r"stalled at (\d+) panels", exc.value.message).group(1))
    assert panels <= 64


def test_gridspec_uniform_and_geometric(monkeypatch):
    # the initial mesh is _BASE_NODES uniform nodes on [0, r0], joined with
    # the decades 1e-6 ... 1e-1 of r0 when the weight vanishes at 0
    monkeypatch.setattr(eigensolve, "_BASE_NODES", 33)
    u = eigensolve._initial_nodes(Density.sampled([0.0, 2.0, 3.0], [1.0, 1.0, 1.0]), 2.0)
    assert u.size == 33 and u[0] == 0.0 and u[-1] == 2.0
    assert np.allclose(np.diff(u), 2.0 / 32)
    g = eigensolve._initial_nodes(Density.model(0.0, 3.0), 2.0)
    decades = 2.0 * np.logspace(-6.0, -1.0, 6)
    assert g.tolist() == np.union1d(u, decades).tolist()


def test_gridspec_include_points(monkeypatch):
    # a sampled density's nodes join inside (0, r0) only, and a sample node
    # within 1e-14 r0 of a uniform node is not doubled
    monkeypatch.setattr(eigensolve, "_BASE_NODES", 16)
    h = Density.sampled([0.0, 0.2 + 1e-16, 0.33, 0.5, 0.77, 1.0, 1.2, 1.5],
                        [1.0, 1.0, 1.5, 2.0, 1.5, 1.0, 1.0, 1.0])
    n = eigensolve._initial_nodes(h, 1.0)
    assert n[0] == 0.0 and n[-1] == 1.0
    assert 0.33 in n and 0.77 in n and 0.5 in n
    assert 1.2 not in n and 1.5 not in n
    assert np.all(np.diff(n) > 0)
    assert n.size == 16 + 3
    # the quadrature's first partition breaks at the same points
    assert eigensolve._breaks(h, 0.0, 1.0).tolist() == [0.2 + 1e-16, 0.33, 0.5, 0.77]


def test_assembly_matches_hat_function_quadrature():
    """Entries of the pencil are int phi_i' phi_j' h and int phi_i phi_j h;
    reproduce a small mesh with scipy.integrate.quad element by element."""
    from scipy.integrate import quad

    h = Density.model(-1.0, 3.0, right=1.5)  # integer N keeps h smooth at 0
    nodes = np.linspace(0.0, 1.5, 8)
    prob = assemble_weighted_problem(h, 1.5, nodes)

    def hat(i, x):
        x = np.asarray(x)
        left = nodes[i - 1] if i > 0 else nodes[0]
        right = nodes[i + 1] if i < nodes.size - 1 else nodes[-1]
        up = np.where((x >= left) & (x <= nodes[i]),
                      (x - left) / (nodes[i] - left) if i > 0 else 1.0, 0.0)
        down = np.where((x > nodes[i]) & (x <= right),
                        (right - x) / (right - nodes[i]), 0.0)
        return up + down

    def dhat(i, x):
        x = np.asarray(x)
        left = nodes[i - 1] if i > 0 else nodes[0]
        right = nodes[i + 1] if i < nodes.size - 1 else nodes[-1]
        up = np.where((x >= left) & (x <= nodes[i]),
                      1.0 / (nodes[i] - left) if i > 0 else 0.0, 0.0)
        down = np.where((x > nodes[i]) & (x <= right),
                        -1.0 / (right - nodes[i]), 0.0)
        return up + down

    kw = dict(points=nodes, limit=200, epsabs=1e-13, epsrel=1e-12)
    m = prob.stiff_diag.size
    for i in range(m):
        s_ii = quad(lambda x: dhat(i, x) ** 2 * h(x), 0.0, 1.5, **kw)[0]
        m_ii = quad(lambda x: hat(i, x) ** 2 * h(x), 0.0, 1.5, **kw)[0]
        assert prob.stiff_diag[i] == pytest.approx(s_ii, rel=1e-9, abs=1e-13)
        assert prob.mass_diag[i] == pytest.approx(m_ii, rel=1e-9, abs=1e-13)
    for i in range(m - 1):
        s_io = quad(lambda x: dhat(i, x) * dhat(i + 1, x) * h(x), 0.0, 1.5, **kw)[0]
        m_io = quad(lambda x: hat(i, x) * hat(i + 1, x) * h(x), 0.0, 1.5, **kw)[0]
        assert prob.stiff_off[i] == pytest.approx(s_io, rel=1e-9, abs=1e-13)
        assert prob.mass_off[i] == pytest.approx(m_io, rel=1e-9, abs=1e-13)


def test_explicit_grid_validation():
    h = Density.model(0.0, 3.0, right=1.0)
    with pytest.raises(PreconditionError):
        assemble_weighted_problem(h, 1.0, np.array([0.1, 0.5, 1.0]))
    with pytest.raises(PreconditionError):
        assemble_weighted_problem(h, 1.0, np.array([0.0, 0.5, 0.9]))
    with pytest.raises(PreconditionError):
        assemble_weighted_problem(h, 1.0, np.array([0.0, 0.6, 0.4, 1.0]))
    with pytest.raises(PreconditionError):
        assemble_weighted_problem(h, 1.0, np.array([0.0, 1.0]))


def _dense_smallest_eigenvalue(prob):
    A = np.diag(prob.stiff_diag) + np.diag(prob.stiff_off, 1) + np.diag(prob.stiff_off, -1)
    B = np.diag(prob.mass_diag) + np.diag(prob.mass_off, 1) + np.diag(prob.mass_off, -1)
    # the full divide-and-conquer solve: on graded meshes the mass diagonal
    # spans ten decades or more, and the subset driver gvx loses up to 1e-4
    return scipy.linalg.eigh(A, B, eigvals_only=True, driver="gvd")[0]


def test_inverse_iteration_matches_dense_eigh(monkeypatch):
    monkeypatch.setattr(eigensolve, "_BASE_NODES", 64)
    rng = np.random.default_rng(99)
    grid = np.linspace(0.0, 1.0, 40)
    vals = 0.5 + rng.random(40)
    vals[0] = 0.0
    h = Density.sampled(grid, vals)
    sol = first_dirichlet_eigen(h, 1.0, tol=1e-6)
    nodes = eigensolve._initial_nodes(h, 1.0)
    assert sol.grid[::2 ** (len(sol.refinement_history) - 1)].tolist() == nodes.tolist()
    lam_dense = _dense_smallest_eigenvalue(assemble_weighted_problem(h, 1.0, nodes))
    assert sol.refinement_history[0] == pytest.approx(lam_dense, rel=1e-10)


def test_inverse_iteration_stops_at_roundoff_on_kk_scan_end(monkeypatch):
    # The default kk-bound curve K(N) = 1 - (N+2)/(N-2) at N = 2.001, r0 = 1.
    # lambda_1/lambda_2 is 0.973 on the first level, so an unshifted level
    # would stop short of its eigenvalue; with the certified shift every
    # level converges, and stops once the Rayleigh quotient no longer
    # decreases instead of jittering at roundoff.
    calls = []
    dpttrs = eigensolve.lapack.dpttrs

    def counted(*args):
        calls.append(1)
        return dpttrs(*args)

    monkeypatch.setattr(eigensolve.lapack, "dpttrs", counted)
    monkeypatch.setattr(eigensolve, "_SPECTRAL_REACH", 0.0)  # the mesh route
    N = 2.001
    h = Density.model(1.0 - (N + 2.0) / (N - 2.0), N)
    sol = first_dirichlet_eigen(h, 1.0)
    assert len(calls) <= 30
    coarse = eigensolve._initial_nodes(h, 1.0)
    for level, nodes in enumerate((coarse, eigensolve._bisect_nodes(coarse))):
        dense = _dense_smallest_eigenvalue(assemble_weighted_problem(h, 1.0, nodes))
        assert sol.refinement_history[level] == pytest.approx(dense, rel=1e-10), level
    ref = first_dirichlet_eigen(h, 1.0, tol=1e-11).eigenvalue
    assert sol.eigenvalue == pytest.approx(ref, rel=1e-8)


def test_inverse_iteration_raises_at_its_step_cap(monkeypatch):
    # Each solve is perturbed by a constant vector that decays by 3 % per
    # solve, so the Rayleigh quotient keeps falling well above roundoff and
    # never stagnates: the first level must raise at its 200-step cap.
    calls = []
    dpttrs = eigensolve.lapack.dpttrs

    def perturbed(*args):
        calls.append(1)
        y, info = dpttrs(*args)
        return y + 0.97 ** len(calls) * np.max(np.abs(y)), info

    monkeypatch.setattr(eigensolve.lapack, "dpttrs", perturbed)
    monkeypatch.setattr(eigensolve, "_SPECTRAL_REACH", 0.0)  # the mesh route
    with pytest.raises(NonconvergenceError) as exc:
        first_dirichlet_eigen(Density.model(-4.0, 3.0), 1.0)
    assert exc.value.code == "eigen-iteration"
    assert len(calls) == 200


def test_certified_shift_factors_and_sits_within_its_margin(monkeypatch):
    # Each level's shift sigma is certified by the factorization of
    # A - sigma B itself: it must factor (so sigma < lambda by Sylvester's
    # law of inertia) and sit within 2e-3 of that level's eigenvalue, on
    # every level
    shifts, levels = [], []
    factor_below, smallest = eigensolve._factor_below, eigensolve._smallest_eigenpair

    def recorded_shift(ad, ao, bd, bo, mu):
        sigma, d, e = factor_below(ad, ao, bd, bo, mu)
        info = eigensolve.lapack.dpttrf(ad - sigma * bd, ao - sigma * bo)[2]
        shifts.append((sigma, info))
        return sigma, d, e

    def recorded_level(*args, **kwargs):
        lam, phi = smallest(*args, **kwargs)
        levels.append(lam)
        return lam, phi

    monkeypatch.setattr(eigensolve, "_factor_below", recorded_shift)
    monkeypatch.setattr(eigensolve, "_smallest_eigenpair", recorded_level)
    monkeypatch.setattr(eigensolve, "_SPECTRAL_REACH", 0.0)  # the mesh route
    # r0 = 1 on two models and on the default kk-bound curve K = 1 - (N+2)/(N-2)
    densities = [Density.model(-4.0, 3.0), Density.model(0.0, 1.05)]
    densities += [Density.model(1.0 - (N + 2.0) / (N - 2.0), N)
                  for N in (2.001, 30.0, 300.0, 2000.0)]
    for h in densities:
        shifts.clear()
        levels.clear()
        first_dirichlet_eigen(h, 1.0)
        assert len(levels) == len(shifts) >= 3
        for level, ((sigma, info), lam) in enumerate(zip(shifts, levels)):
            assert info == 0, (h.K, h.N, level)
            assert (1.0 - 2e-3) * lam <= sigma < lam, (h.K, h.N, level, sigma, lam)


def _small_pencil(n=8):
    # A = tridiag(-1, 2, -1) on unit masses B = I: lambda_1 = 2 - 2 cos(pi/(n+1))
    return np.full(n, 2.0), np.full(n - 1, -1.0), np.ones(n), np.zeros(n - 1)


def test_factor_below_falls_back_to_a_itself():
    # mu far above lambda_1: no sigma in 64 halvings of (1 - 2e-3) mu
    # factors, so the shift is 0 and the factors are those of A
    ad, ao, bd, bo = _small_pencil()
    sigma, d, e = eigensolve._factor_below(ad, ao, bd, bo, 1e30)
    assert sigma == 0.0
    d_a, e_a, info = scipy.linalg.lapack.dpttrf(ad, ao)
    assert info == 0
    assert d.tolist() == d_a.tolist() and e.tolist() == e_a.tolist()


def test_factor_below_raises_factorization_when_a_is_not_definite():
    ad, ao, bd, bo = _small_pencil()
    ad[3] = -5.0
    with pytest.raises(NonconvergenceError, match="factorization failed") as exc:
        eigensolve._factor_below(ad, ao, bd, bo, 1.0)
    assert exc.value.code == "factorization"


def test_flat_weight_quarter_wave():
    # constant weight: natural condition at 0, Dirichlet at r0, so the
    # fundamental mode is cos(pi theta / (2 r0)) with eigenvalue (pi/2r0)^2
    for r0 in (1.0, 2.5):
        h = Density.sampled([0.0, 0.5 * r0, r0], [1.0, 1.0, 1.0])
        sol = first_dirichlet_eigen(h, r0)
        assert sol.eigenvalue == pytest.approx((math.pi / (2 * r0)) ** 2, rel=1e-8)
        ref = np.cos(math.pi * sol.grid / (2 * r0))
        assert np.max(np.abs(sol.phi - ref)) < 1e-5


def test_flat_model_bessel_eigenvalues():
    # K = 0 model: eigenvalue j^2 / r0^2 with j the first zero of J_(N/2-1)
    cases = [(2.0, J0_ZERO), (4.0, J1_ZERO), (3.0, math.pi)]
    for N, j in cases:
        sol = first_dirichlet_eigen(Density.model(0.0, N, right=1.3), 1.3)
        assert sol.eigenvalue == pytest.approx((j / 1.3) ** 2, rel=2e-7), N


def test_solution_shape_and_normalization(monkeypatch):
    monkeypatch.setattr(eigensolve, "_SPECTRAL_REACH", 0.0)  # the mesh route
    sol = first_dirichlet_eigen(Density.model(-2.0, 3.0, right=1.0), 1.0)
    assert isinstance(sol, EigenSolution)
    assert sol.method == "matrix"
    assert sol.grid.shape == sol.phi.shape == sol.dphi.shape
    assert sol.phi[-1] == 0.0
    assert np.max(sol.phi) == pytest.approx(1.0)
    assert np.all(sol.phi >= 0.0)
    assert sol.dphi[-1] < 0.0  # outgoing slope at the Dirichlet end
    assert math.isfinite(sol.flux_residual)
    assert sol.flux_residual <= 100.0 * 1e-8


def test_eigenfunction_monotone_decreasing():
    # the fundamental mode decreases from the natural end to the Dirichlet
    # end; its derivative is negative past a small neighborhood of 0
    for K, N, r0 in [(0.0, 3.0, 1.0), (-2.0, 5.0, 1.5), (1.0, 2.0, 1.2)]:
        sol = first_dirichlet_eigen(Density.model(K, N), r0)
        assert np.all(np.diff(sol.phi) <= 1e-12)
        inner = (sol.grid > 0.02 * r0) & (sol.grid < r0)
        assert np.all(sol.dphi[inner] < 0.0), (K, N)


def test_refinement_history_is_monotone_upper_bounds(monkeypatch):
    monkeypatch.setattr(eigensolve, "_BASE_NODES", 32)
    monkeypatch.setattr(eigensolve, "_SPECTRAL_REACH", 0.0)  # the mesh route
    sol = first_dirichlet_eigen(Density.model(1.0, 3.0, right=2.0), 2.0)
    hist = np.asarray(sol.refinement_history)
    assert hist.size >= 2
    assert np.all(np.diff(hist) <= 0.0)  # conforming upper bounds decrease
    assert sol.eigenvalue <= hist[-1]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(K=st.floats(-5.0, 2.0), N=st.floats(1.05, 30.0), u=st.floats(0.05, 1.0))
def test_raw_levels_never_rise(K, N, u):
    # nested conforming meshes give non-increasing Rayleigh quotients; near
    # N = 1 that holds only once the first mesh is graded toward the
    # theta^(N-1) end, where the elements' Gauss rules would miss it
    r0 = u * min(2.5, 0.9 * max_diameter(K, N))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eigensolve, "_SPECTRAL_REACH", 0.0)  # the mesh route
        hist = np.asarray(first_dirichlet_eigen(Density.model(K, N), r0).refinement_history)
    assert np.all(np.diff(hist) <= 1e-13 * hist[1:]), (K, N, r0, hist)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(K=st.one_of(st.just(0.0), st.floats(-5.0, 2.0)),
       N=st.one_of(st.just(3.0), st.floats(1.05, 30.0)), u=st.floats(0.05, 1.0))
def test_ritz_route_agrees_with_the_closed_form_and_the_mesh(K, N, u):
    # the Ritz route's region inside the box the shooting test also covers
    r0 = u * min(2.5, 0.9 * max_diameter(K, N))
    h = Density.model(K, N)
    assume(eigensolve._spectral_reach(h, r0) < eigensolve._SPECTRAL_REACH)
    sol = first_dirichlet_eigen(h, r0)
    assert sol.method == "spectral"
    assert sol.flux_residual <= 100.0 * 1e-8
    bound = closed_form_bound(K, N, r0)
    if bound.exact:
        assert sol.eigenvalue == pytest.approx(bound.value, rel=1e-9), (K, N, r0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eigensolve, "_SPECTRAL_REACH", 0.0)
        mesh = first_dirichlet_eigen(h, r0)
    assert mesh.method == "matrix"
    assert sol.eigenvalue == pytest.approx(mesh.eigenvalue, rel=1e-8), (K, N, r0)


def test_ritz_history_holds_one_value_per_degree(monkeypatch):
    # degrees 16 and 32 agree on (-4, 3); a cap of 16 leaves one value and
    # raises `refinement`
    sol = first_dirichlet_eigen(Density.model(-4.0, 3.0), 1.0)
    assert len(sol.refinement_history) == 2
    assert sol.eigenvalue == sol.refinement_history[-1]
    assert sol.refinement_history[0] == pytest.approx(2.0 + math.pi ** 2, rel=1e-10)
    monkeypatch.setattr(eigensolve, "_MAX_DEGREE", 16)
    with pytest.raises(NonconvergenceError, match="by degree 16") as exc:
        first_dirichlet_eigen(Density.model(-4.0, 3.0), 1.0)
    assert exc.value.code == "refinement"


def test_ritz_route_flux_gate_rejects(monkeypatch):
    # every bisection of the sampling grid is checked, then `flux`
    checks = []
    monkeypatch.setattr(eigensolve, "flux_identity_residual",
                        lambda sol, h: checks.append(sol.grid.size) or 1.0)
    with pytest.raises(NonconvergenceError, match="residual 1.000e[+]00") as exc:
        first_dirichlet_eigen(Density.model(-1.0, 3.0), 1.0, tol=1e-6)
    assert exc.value.code == "flux"
    assert len(checks) == eigensolve._MAX_REFINEMENTS + 1
    assert checks[1] == 2 * checks[0] - 1


def test_uncut_ritz_eigenfunction_is_the_exact_one():
    # N = 3, K = 0 on [0, 2]: phi = sin(u)/u with u = pi t / 2, on all of
    # [0, r0]; past N = 30 an uncut solve takes the mesh route
    sol = first_dirichlet_eigen(Density.model(0.0, 3.0), 2.0, cut=False)
    assert sol.method == "spectral" and sol.grid[0] == 0.0 and sol.grid[-1] == 2.0
    u = 0.5 * math.pi * sol.grid
    with np.errstate(invalid="ignore", divide="ignore"):
        phi = np.where(u > 0, np.sin(u) / u, 1.0)
        dphi = np.where(u > 0, 0.5 * math.pi * (np.cos(u) - np.sin(u) / u) / u, 0.0)
    assert np.max(np.abs(sol.phi - phi)) <= 1e-9
    assert np.max(np.abs(sol.dphi - dphi)) <= 1e-8
    assert first_dirichlet_eigen(Density.model(0.0, 40.0), 1.0, cut=False).method == "matrix"
    assert first_dirichlet_eigen(Density.model(0.0, 40.0), 1.0).method == "spectral"


def test_ritz_route_solves_where_the_weight_overflows():
    # r0^999 overflows, which the mesh routes report as `domain` (see
    # test_overflowing_model_weight_is_a_domain_error); the Ritz route
    # solves the unit problem and scales lambda by 1/r0^2
    K, N, r0 = 0.0, 1000.0, 10.0
    sol = first_dirichlet_eigen(Density.model(K, N), r0)
    assert sol.method == "spectral"
    assert sol.eigenvalue == pytest.approx(closed_form_bound(K, N, r0).value, rel=1e-9)
    with pytest.raises(PreconditionError) as exc:
        first_dirichlet_eigen(Density.model(K, N), r0, method="shooting")
    assert exc.value.code == "domain"


def _kk_curve(N):
    # the default kk-bound curve K(N) = 1 - (N+2)/(N-2), solved at r0 = 1
    return Density.model(1.0 - (N + 2.0) / (N - 2.0), N)


@pytest.mark.parametrize("N", [55.0, 70.0])
def test_shooting_starts_where_the_weight_underflows(N):
    # h(1e-6 r0) underflows to 0 here; the Frobenius start slope
    # -lambda eps / (1 + eps (log h)'(eps)) needs only (log h)'
    h = _kk_curve(N)
    assert h(1e-6) == 0.0
    shot = first_dirichlet_eigen(h, 1.0, method="shooting")
    assert shot.flux_residual <= 100.0 * 1e-8
    assert shot.eigenvalue == pytest.approx(first_dirichlet_eigen(h, 1.0).eigenvalue, rel=1e-6)


@pytest.mark.parametrize("N", [2300.0, 3000.0])
def test_matrix_route_solves_the_large_n_end_of_the_kk_curve(monkeypatch, N):
    # The factorization-certified shift keeps inverse iteration short where
    # a lumped-mass shift sat far below lambda.  The closed form is nearly
    # exact this far out.  N = 6000 still raises `refinement`: the first
    # mesh is not fitted to an eigenfunction so concentrated near r0.
    K = 1.0 - (N + 2.0) / (N - 2.0)
    monkeypatch.setattr(eigensolve, "_SPECTRAL_REACH", 0.0)  # the mesh route
    sol = first_dirichlet_eigen(_kk_curve(N), 1.0)
    assert sol.flux_residual <= 100.0 * 1e-8
    assert sol.eigenvalue == pytest.approx(closed_form_bound(K, N, 1.0).value, rel=1e-9)


@pytest.mark.parametrize("N", [5000.0, 6000.0])
def test_ritz_route_solves_the_large_n_end_of_the_kk_curve(N):
    # the mesh route raises `refinement` here; the closed form is nearly
    # exact this far out
    K = 1.0 - (N + 2.0) / (N - 2.0)
    sol = first_dirichlet_eigen(_kk_curve(N), 1.0)
    assert sol.method == "spectral"
    assert sol.flux_residual <= 100.0 * 1e-8
    assert sol.eigenvalue == pytest.approx(closed_form_bound(K, N, 1.0).value, rel=1e-9)


@pytest.mark.parametrize("N", [100.0, 300.0, 1000.0, 2000.0])
def test_cut_below_the_mass_keeps_the_eigenvalue(monkeypatch, N):
    # at large N all but 1e-16 of h phi^2 lies near r0: after the first
    # level only [a, r0] is refined, with a natural end at a
    monkeypatch.setattr(eigensolve, "_SPECTRAL_REACH", 0.0)  # the mesh route
    sol = first_dirichlet_eigen(_kk_curve(N), 1.0)
    hist = np.asarray(sol.refinement_history)
    assert sol.grid[1] > 0.4
    assert np.all(np.diff(hist) <= 1e-13 * hist[1:]), hist
    assert sol.flux_residual <= 100.0 * 1e-8
    monkeypatch.setattr(eigensolve, "_CUT_SHARE", 0.0)
    uncut = first_dirichlet_eigen(_kk_curve(N), 1.0)
    assert uncut.grid[1] < 1e-5
    assert sol.eigenvalue == pytest.approx(uncut.eigenvalue, rel=1e-9)
    assert len(sol.refinement_history) == len(uncut.refinement_history)
    # the first level only estimates the share below a; the converged
    # eigenfunction's share stays within a small factor of the target
    a, phi = sol.grid[1], eigensolve._cubic_hermite(uncut.grid, uncut.phi, uncut.dphi)
    share = (weighted_integral(lambda t: phi(t)[0] ** 2, _kk_curve(N), 0.0, a)
             / weighted_integral(lambda t: phi(t)[0] ** 2, _kk_curve(N), 0.0, 1.0))
    assert share < 1e-15
    # a node count, not a timing: the uncut mesh reaches 66 177 nodes at N = 2000
    assert N != 2000.0 or sol.grid.size <= 8500


def test_a_cut_that_removes_no_node_changes_nothing(monkeypatch):
    monkeypatch.setattr(eigensolve, "_SPECTRAL_REACH", 0.0)  # the mesh route
    sol = first_dirichlet_eigen(Density.model(-4.0, 3.0), 1.0)
    monkeypatch.setattr(eigensolve, "_CUT_SHARE", 0.0)
    ref = first_dirichlet_eigen(Density.model(-4.0, 3.0), 1.0)
    assert sol.grid.tolist() == ref.grid.tolist()
    assert sol.refinement_history == ref.refinement_history
    assert (sol.eigenvalue, sol.flux_residual) == (ref.eigenvalue, ref.flux_residual)
    assert sol.dphi.tolist() == ref.dphi.tolist()


@pytest.mark.parametrize("dim", [2.0, 3.5])
def test_cut_keeps_the_sample_nodes_above_it_as_breaks(dim):
    # h is 1e-30 up to the sample node 0.35, so the cut lands there; slopes
    # are recovered on [a, r0] alone, one-sided at every sample node above a
    grid = np.linspace(0.0, 1.0, 21)
    h = Density.sampled(grid, np.where(grid < 0.4, 1e-30, 1.0 + grid), interp_dim=dim)
    sol = first_dirichlet_eigen(h, 1.0)
    a = sol.grid[1]
    assert a == grid[7]
    assert np.isin(grid[grid > a], sol.grid).all()
    breaks = grid[(grid > a) & (grid < 1.0)]
    slopes = eigensolve._poly_derivative(sol.grid[1:], sol.phi[1:], breaks)
    assert sol.dphi[0] == 0.0 and sol.dphi[1:].tolist() == slopes.tolist()
    assert sol.flux_residual <= 100.0 * 1e-8


def test_model_near_N_1_is_an_upper_bound_within_five_levels(monkeypatch):
    # h = theta^0.05: every raw level is the Rayleigh quotient of a
    # conforming function, so it lies above j_{N/2-1,1}^2
    monkeypatch.setattr(eigensolve, "_SPECTRAL_REACH", 0.0)  # the mesh route
    sol = first_dirichlet_eigen(Density.model(0.0, 1.05), 1.0)
    exact = bessel_first_zero(1.05 / 2.0 - 1.0) ** 2
    assert len(sol.refinement_history) <= 5
    assert min(sol.refinement_history) >= exact
    assert sol.eigenvalue == pytest.approx(exact, rel=1e-8)


@settings(derandomize=True, max_examples=12, deadline=None)
@given(K=st.floats(-4.0, 2.0), N=st.floats(1.5, 8.0),
       frac=st.floats(0.1, 0.9), stretch=st.floats(1.05, 1.5))
def test_eigenvalue_decreases_in_r0(K, N, frac, stretch):
    # Dirichlet monotonicity: a longer interval admits more test functions
    h = Density.model(K, N)
    r_big = frac * min(2.0, 0.9 * h.right)
    r_small = r_big / stretch
    big = first_dirichlet_eigen(h, r_big).eigenvalue
    small = first_dirichlet_eigen(h, r_small).eigenvalue
    assert big < small * (1.0 + 1e-8), (K, N, r_small, r_big)


@settings(derandomize=True, max_examples=15, deadline=None)
@given(K=st.floats(-5.0, 2.0), N=st.floats(1.05, 30.0), u=st.floats(0.05, 1.0))
def test_matrix_and_shooting_agree(K, N, u):
    # the shooting region the README documents
    r0 = u * min(2.5, 0.9 * max_diameter(K, N))
    h = Density.model(K, N)
    a = first_dirichlet_eigen(h, r0, method="matrix").eigenvalue
    b = first_dirichlet_eigen(h, r0, method="shooting").eigenvalue
    assert a == pytest.approx(b, rel=1e-6), (K, N, r0)
    assert a <= closed_form_bound(K, N, r0).value * (1.0 + 1e-8), (K, N, r0)


@pytest.mark.parametrize("K, N, r0", [
    (-0.0475, 1.0847, 1.32), (-2.185, 1.0766, 1.123), (0.0, 1.2, 1.0), (0.0, 1.3, 1.0),
] + [(0.0, N, r0) for N in (1.05, 1.08, 1.1, 1.15) for r0 in (0.125, 1.0)])
def test_shooting_passes_its_flux_check_near_N_1(K, N, r0):
    # h ~ theta^(N-1) is nearly singular in slope at 0; the cumulative
    # integral in the flux check needs graded nodes at every decade there
    sol = first_dirichlet_eigen(Density.model(K, N), r0, method="shooting")
    assert sol.flux_residual <= 1e-7
    matrix = first_dirichlet_eigen(Density.model(K, N), r0).eigenvalue
    assert sol.eigenvalue == pytest.approx(matrix, rel=1e-7)


@pytest.mark.parametrize("K, N, r0, max_integrations, max_nfev", [
    pytest.param(-4.28841, 8.403, 1.56601, 3, 1770, id="-4.28841-8.403-1.56601"),
    # integrated in phi rather than phi - 1, LSODA held a stale
    # stability-limited step of 2e-8 here for millions of steps
    pytest.param(-4.3923, 19.592, 0.262, 3, 2000, id="-4.3923-19.592-0.262"),
    # K > 0 near the diameter: (log h)' stays finite past r0, so only the
    # integrator's stop at r0 keeps t inside the interval
    pytest.param(2.0, 3.0, 0.9 * max_diameter(2.0, 3.0), 3, 1375, id="2.0-3.0-0.9diam"),
])
def test_shooting_ode_work(monkeypatch, K, N, r0, max_integrations, max_nfev):
    # rhs evaluations are counted as they happen, so a stuck integrator
    # fails the test at once instead of running on
    count = {"integrations": 0, "nfev": 0}
    solve_ivp = eigensolve.solve_ivp

    def counted(fun, *args, **kwargs):
        def rhs(t, y):
            count["nfev"] += 1
            assert count["nfev"] <= max_nfev, "ODE right-hand side evaluations over budget"
            assert t <= r0, f"right-hand side evaluated at t = {t} beyond r0 = {r0}"
            return fun(t, y)

        count["integrations"] += 1
        return solve_ivp(rhs, *args, **kwargs)

    monkeypatch.setattr(eigensolve, "solve_ivp", counted)
    first_dirichlet_eigen(Density.model(K, N), r0, method="shooting")
    # shooting must integrate through the module's solve_ivp, or the
    # budgets above check nothing
    assert 1 <= count["integrations"] <= max_integrations


def test_solve_ivp_matches_scipy_lsoda():
    # the odeint-backed integrator takes LSODA's steps exactly as scipy's
    # solve_ivp(method="LSODA") does (test-only reference)
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    h, r0, lam = Density.model(-4.28841, 8.403), 1.56601, 20.0
    dlog = eigensolve._log_derivative(h)

    def rhs(t, y):
        return (y[1], -lam * (1.0 + y[0]) - dlog(t) * y[1])

    eps0, y0 = 1e-6 * r0, [0.0, -lam * 1e-6 * r0 / h.N]
    ours = eigensolve.solve_ivp(rhs, (eps0, r0), y0, t_eval=[r0], rtol=1e-11, atol=1e-13)
    ref = scipy_solve_ivp(rhs, (eps0, r0), y0, method="LSODA", rtol=1e-11, atol=1e-13)
    assert ours.success and ref.success
    assert ours.y.shape == (2, 1)
    assert 1.0 + ours.y[0, -1] == pytest.approx(1.0 + ref.y[0, -1], rel=1e-12)
    assert ours.nfev == ref.nfev
    # the first output time sets LSODA's first step, so sampling at t_eval
    # moves the end state within the tolerance only; a start point is y0
    at = eigensolve.solve_ivp(rhs, (eps0, r0), y0, t_eval=np.linspace(eps0, r0, 9),
                              rtol=1e-11, atol=1e-13)
    assert at.success and at.y.shape == (2, 9)
    assert at.y[:, 0].tolist() == y0
    assert 1.0 + at.y[0, -1] == pytest.approx(1.0 + ours.y[0, -1], rel=1e-9)


@pytest.mark.filterwarnings("error")
def test_shooting_raises_stiffness_on_a_nan_right_hand_side(monkeypatch):
    # LSODA integrates a NaN right-hand side "successfully"; the NaN end
    # state must not reach the Newton step as a NaN
    dlog = eigensolve._log_derivative

    def poisoned(h):
        inner = dlog(h)
        return lambda t: math.nan if t > 0.5 else inner(t)

    monkeypatch.setattr(eigensolve, "_log_derivative", poisoned)
    h = Density.model(-2.0, 4.0)
    with pytest.raises(NonconvergenceError, match="lambda = ") as exc:
        first_dirichlet_eigen(h, 1.0, method="shooting")
    assert exc.value.code == "stiffness"


@pytest.mark.filterwarnings("error")
def test_shooting_raises_stiffness_when_lsoda_fails(monkeypatch):
    # an illegal tolerance makes odeint itself fail; the failure is coded
    # and no ODEintWarning escapes
    solve_ivp = eigensolve.solve_ivp

    def illegal(fun, t_span, y0, **kwargs):
        return solve_ivp(fun, t_span, y0, **{**kwargs, "rtol": -1.0})

    monkeypatch.setattr(eigensolve, "solve_ivp", illegal)
    with pytest.raises(NonconvergenceError, match="failed") as exc:
        first_dirichlet_eigen(Density.model(-2.0, 4.0), 1.0, method="shooting")
    assert exc.value.code == "stiffness"


def test_shooting_start_cache_under_threads(monkeypatch):
    # interleaved solves of densities with different start masses must each
    # start from their own phi'(eps0) / lambda = -m([0, eps0]) / h(eps0)
    cases = [Density.model(0.0, N) for N in (2.5, 4.0, 6.0, 9.0)]
    matrix = [first_dirichlet_eigen(h, 1.0).eigenvalue for h in cases]
    expected = []
    for h in cases:
        expected.append(-weighted_integral(1.0, h, 0.0, 1e-6) / float(h(1e-6)))
    local = threading.local()
    slopes = [[] for _ in cases]
    results = [[] for _ in cases]
    solve_ivp = eigensolve.solve_ivp

    def recorded(fun, t_span, y0, **kwargs):
        # the state is (phi - 1, phi', d phi/d lambda, d phi'/d lambda)
        lam = -fun(t_span[0], [0.0, 0.0, 0.0, 0.0])[1]
        slopes[local.case] += [y0[1] / lam, y0[3]]
        return solve_ivp(fun, t_span, y0, **kwargs)

    def work(i):
        local.case = i
        for _ in range(3):
            results[i].append(first_dirichlet_eigen(cases[i], 1.0, method="shooting").eigenvalue)

    monkeypatch.setattr(eigensolve, "solve_ivp", recorded)
    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(cases))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for lams, ref, ratios, want in zip(results, matrix, slopes, expected):
        assert len(lams) == 3 and len(set(lams)) == 1
        assert lams[0] == pytest.approx(ref, rel=1e-7)
        assert ratios and all(r == pytest.approx(want, rel=1e-12) for r in ratios)


def test_shoot_eigen_bracket_behavior(monkeypatch):
    # flat weight: lambda = (pi/2)^2.  Newton may not leave (1 -/+ 1e-3)
    # times the first level's value, so a start at 4 lambda raises bracket
    h = Density.sampled([0.0, 0.5, 1.0], [1.0, 1.0, 1.0])
    lam = (math.pi / 2.0) ** 2
    out = first_dirichlet_eigen(h, 1.0, method="shooting").eigenvalue
    assert out == pytest.approx(lam, rel=1e-9)
    first_level = eigensolve._first_level

    def fourfold(h, r0):
        prob, est, phi = first_level(h, r0)
        return prob, 4.0 * est, phi

    monkeypatch.setattr(eigensolve, "_first_level", fourfold)
    with pytest.raises(PreconditionError, match="leaves the bracket") as exc:
        first_dirichlet_eigen(h, 1.0, method="shooting")
    assert exc.value.code == "bracket"


def test_shooting_rejects_a_root_above_the_first_eigenvalue(monkeypatch):
    # on the flat weight lambda_2 = 9 lambda_1.  Started there, Newton finds
    # lambda_2, whose eigenfunction cos(3 pi theta / 2) changes sign at 1/3;
    # by Sturm's oscillation theorem only lambda_1's keeps one sign
    h = Density.sampled([0.0, 0.5, 1.0], [1.0, 1.0, 1.0])
    first_level = eigensolve._first_level

    def ninefold(h, r0):
        prob, lam, phi = first_level(h, r0)
        return prob, 9.0 * lam, phi

    monkeypatch.setattr(eigensolve, "_first_level", ninefold)
    with pytest.raises(NonconvergenceError, match="not certified as the first eigenvalue") as exc:
        first_dirichlet_eigen(h, 1.0, method="shooting")
    assert exc.value.code == "shooting"


def test_shooting_a_sampled_density_takes_few_integrations(monkeypatch):
    # (log h)' jumps at each of the 799 interior sample nodes, and LSODA
    # shortens its step at every jump, so each integration is costly: count
    # them (not their time) through the module's solve_ivp
    grid = np.linspace(0.0, 1.0, 801)
    h = Density.sampled(grid, np.sinh(grid) ** 2, interp_dim=3.0)
    count = [0]
    solve_ivp = eigensolve.solve_ivp

    def counted(*args, **kwargs):
        count[0] += 1
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr(eigensolve, "solve_ivp", counted)
    sol = first_dirichlet_eigen(h, 1.0, method="shooting")
    assert 1 <= count[0] <= 3
    assert sol.flux_residual <= 100.0 * 1e-8
    assert sol.eigenvalue == pytest.approx(first_dirichlet_eigen(h, 1.0).eigenvalue, rel=1e-6)


def test_eigenvalue_scaling_law():
    # lambda(flat-case, r0) = lambda(flat-case, 1) / r0^2
    base = first_dirichlet_eigen(Density.model(0.0, 2.5, right=1.0), 1.0).eigenvalue
    scaled = first_dirichlet_eigen(Density.model(0.0, 2.5, right=3.0), 3.0).eigenvalue
    assert scaled == pytest.approx(base / 9.0, rel=1e-7)


def test_sampled_density_with_kink():
    # matrix and shooting must agree on a genuinely piecewise weight
    grid = np.array([0.0, 0.3, 0.31, 1.0, 1.5])
    vals = np.array([0.2, 0.9, 2.5, 2.0, 1.4])
    h = Density.sampled(grid, vals, interp_dim=2.0)
    a = first_dirichlet_eigen(h, 1.5, method="matrix").eigenvalue
    b = first_dirichlet_eigen(h, 1.5, method="shooting").eigenvalue
    assert a == pytest.approx(b, rel=1e-6)


def test_smooth_sampled_density_passes_the_flux_gate():
    # phi' kinks at every sample node where the interpolated weight changes
    # slope, however little; slope recovery must break at all of them
    grid = np.linspace(0.0, 2.0, 201)
    h = Density.sampled(grid, (grid * (1.5 + np.sin(3.0 * grid))) ** 2, interp_dim=3.0)
    sol = first_dirichlet_eigen(h, 1.5)
    assert sol.flux_residual <= 100.0 * 1e-8


def _graded_nodes():
    return eigensolve._initial_nodes(Density.model(0.0, 3.0), 1.0)


def _stencil_rounding(x, y):
    """sum_k |l_k'(x_i) y_k| over each node's window, l_k the Lagrange basis
    of the window: how much the stencil amplifies the rounding of y."""
    n = x.size
    win = min(5, n)
    out = np.empty(n)
    for i in range(n):
        s = min(max(i - win // 2, 0), n - win)
        X, Y, m = x[s:s + win], y[s:s + win], i - s
        w = [sum(1.0 / (X[m] - X[j]) for j in range(win) if j != m) if k == m else
             np.prod([X[m] - X[j] for j in range(win) if j not in (k, m)])
             / np.prod([X[k] - X[j] for j in range(win) if j != k]) for k in range(win)]
        out[i] = np.sum(np.abs(np.asarray(w) * Y))
    return out


@pytest.mark.parametrize("mesh", ["uniform", "graded", "random"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, None])
def test_poly_derivative_is_exact_on_polynomials(mesh, n):
    # the slopes come from the interpolant of degree <= 4 through each
    # node's window, so they reproduce any polynomial of degree <= n - 1
    # (n = None takes the whole mesh: interior and end windows).  The
    # error allowed is 1e-10 of the slope scale plus the rounding of the
    # samples through the stencil, which only matters on the first graded
    # nodes (0, 1e-6, 1e-5, ...): there a slope of an O(1) function is a
    # difference over 1e-6, whatever computes it.
    rng = np.random.default_rng(7)
    x = {"uniform": np.linspace(0.0, 1.0, 41),
         "graded": _graded_nodes(),
         "random": np.sort(rng.uniform(-1.0, 2.0, 60))}[mesh]
    x = x[:n]
    deg = min(4, x.size - 1)
    for _ in range(5):
        p = np.polynomial.Polynomial(rng.uniform(-3.0, 3.0, deg + 1))
        y = p(x)
        big = float(np.max(np.abs(x)))
        dscale = sum(k * abs(c) * big ** (k - 1) for k, c in enumerate(p.coef) if k)
        err = np.abs(eigensolve._poly_derivative(x, y, []) - p.deriv()(x))
        allowed = 1e-10 * dscale + 8.0 * np.finfo(float).eps * _stencil_rounding(x, y)
        assert np.all(err <= allowed), (mesh, x.size, np.max(err / allowed))


def test_piecewise_derivative_is_one_sided_at_a_break():
    # y has slope 2 left of the node 0.5 and -3 from it on; the windows
    # stop at the break, and the shared node takes the right-hand slope
    x = np.linspace(0.0, 1.0, 11)
    y = np.where(x < 0.5, 2.0 * x, 1.0 - 3.0 * (x - 0.5))
    dy = eigensolve._poly_derivative(x, y, [0.5])
    expect = np.where(x < 0.5, 2.0, -3.0)
    assert np.max(np.abs(dy - expect)) <= 1e-12


@pytest.mark.parametrize("cuts", [[], [3], [2, 9], [2, 4, 5, 12, 14, 16], [7, 8, 9]])
def test_poly_derivative_matches_its_stretches(cuts):
    # one pass over all nodes gives, bit for bit, the slopes of each stretch
    # between breaks taken alone (short stretches included): each node on a
    # break takes its right-hand stretch
    rng = np.random.default_rng(3)
    x = np.sort(rng.uniform(0.0, 2.0, 19))
    y = np.cos(3.0 * x) + x ** 3
    dy = eigensolve._poly_derivative(x, y, x[cuts])
    edges = [0] + cuts + [x.size - 1]
    for a, b in zip(edges[:-1], edges[1:]):
        alone = eigensolve._poly_derivative(x[a:b + 1], y[a:b + 1], [])
        stop = b + 1 if b == x.size - 1 else b
        assert dy[a:stop].tolist() == alone[:stop - a].tolist(), (a, b)


def test_solves_recover_slopes_without_a_dense_linear_solve(monkeypatch):
    # slope recovery uses divided differences; a batched LU fit must not
    # come back into any route
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg.solve called")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    h = Density.model(-4.0, 3.0)
    assert first_dirichlet_eigen(h, 1.0).flux_residual <= 1e-6
    assert first_dirichlet_eigen(h, 1.0, method="shooting").flux_residual <= 1e-6
    kinked = Density.sampled([0.0, 0.3, 0.31, 1.0, 1.5], [0.2, 0.9, 2.5, 2.0, 1.4],
                             interp_dim=2.0)
    # every interior sample node is a break of the slope recovery
    assert eigensolve._breaks(kinked, 0.0, 1.5).tolist() == [0.3, 0.31, 1.0]
    assert first_dirichlet_eigen(kinked, 1.5).flux_residual <= 1e-6


def test_solver_argument_validation():
    h = Density.model(0.0, 3.0, right=1.0)
    with pytest.raises(PreconditionError):
        first_dirichlet_eigen(h, 1.0, tol=1e-2)
    with pytest.raises(PreconditionError):
        first_dirichlet_eigen(h, 1.0, tol=1e-13)
    with pytest.raises(PreconditionError):
        first_dirichlet_eigen(h, 1.0, method="magic")
    with pytest.raises(PreconditionError):
        first_dirichlet_eigen(h, 2.0)
    with pytest.raises(PreconditionError):
        first_dirichlet_eigen(Density.model(2.0, 3.0), math.pi)
    zero_inside = Density.sampled([0.0, 0.5, 1.0], [1.0, 0.0, 1.0])
    with pytest.raises(PreconditionError):
        first_dirichlet_eigen(zero_inside, 1.0)


@pytest.mark.parametrize("K, N, r0", [
    (-1001.0, 1.001, 1.0),  # sinh(1000) overflows, though h = s^0.001 would not
    (-1e6, 4.0, 1.0),       # sinh is finite, s^3 overflows
    (0.0, 1000.0, 10.0),    # r0^999 overflows
])
@pytest.mark.parametrize("method", ["matrix", "shooting"])
def test_overflowing_model_weight_is_a_domain_error(monkeypatch, K, N, r0, method):
    # RuntimeWarnings are errors in this suite: none may escape either
    monkeypatch.setattr(eigensolve, "_SPECTRAL_REACH", 0.0)  # the mesh route
    with pytest.raises(PreconditionError) as exc:
        first_dirichlet_eigen(Density.model(K, N), r0, method=method)
    assert exc.value.code == "domain"
    for text in (f"K = {K}", f"N = {N}", f"r0 = {r0}"):
        assert text in exc.value.message


def test_refinement_budget_exhaustion(monkeypatch):
    # three levels are the fewest that can stop; 16 nodes are too coarse
    # for two extrapolated values to agree to 1e-11
    monkeypatch.setattr(eigensolve, "_BASE_NODES", 16)
    monkeypatch.setattr(eigensolve, "_MAX_REFINEMENTS", 2)
    monkeypatch.setattr(eigensolve, "_SPECTRAL_REACH", 0.0)  # the mesh route
    h = Density.model(-1.0, 2.0, right=1.0)
    with pytest.raises(NonconvergenceError) as exc:
        first_dirichlet_eigen(h, 1.0, tol=1e-11)
    assert exc.value.code == "refinement"
    assert "within 2 refinements" in str(exc.value)


@pytest.mark.parametrize("method", ["matrix", "shooting"])
def test_flux_gate_rejects(monkeypatch, method):
    # a settled eigenvalue whose eigenfunction fails the flux identity is
    # rejected by either route; a small mesh and budget keep the matrix
    # route, which keeps refining while the residual stays high, fast
    monkeypatch.setattr(eigensolve, "_BASE_NODES", 16)
    monkeypatch.setattr(eigensolve, "_MAX_REFINEMENTS", 4)
    monkeypatch.setattr(eigensolve, "_SPECTRAL_REACH", 0.0)  # the mesh route
    monkeypatch.setattr(eigensolve, "flux_identity_residual", lambda sol, h: 1.0)
    with pytest.raises(NonconvergenceError, match="residual 1.000e[+]00") as exc:
        first_dirichlet_eigen(Density.model(-1.0, 3.0), 1.0, tol=1e-6, method=method)
    assert exc.value.code == "flux"


@settings(derandomize=True, max_examples=40, deadline=None)
@given(x0=st.floats(-2.0, 2.0),
       widths=st.lists(st.floats(0.01, 0.5), min_size=1, max_size=15),
       coef=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
       fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
def test_cubic_hermite_reproduces_cubics(x0, widths, coef, fracs):
    # a cubic with its exact nodal slopes is its own C^1 Hermite interpolant
    x = x0 + np.concatenate(([0.0], np.cumsum(widths)))
    p = np.polynomial.Polynomial(coef)
    dp = p.deriv()
    f = eigensolve._cubic_hermite(x, p(x), dp(x))
    t = np.concatenate((x, x[0] + np.asarray(fracs) * (x[-1] - x[0])))
    big = float(np.max(np.abs(x)))
    scale = sum(abs(c) * big ** k for k, c in enumerate(coef))
    dscale = sum(k * abs(c) * big ** (k - 1) for k, c in enumerate(coef) if k)
    value, slope = f(t)
    assert np.max(np.abs(value - p(t))) <= 1e-12 * max(scale, 1.0)
    assert np.max(np.abs(slope - dp(t))) <= 1e-12 * max(dscale, 1.0)


def test_flux_identity_residual_detects_wrong_eigenvalue():
    h = Density.model(0.0, 3.0, right=1.0)
    sol = first_dirichlet_eigen(h, 1.0)
    good = flux_identity_residual(sol, h)
    assert good < 1e-6
    bad = EigenSolution(
        eigenvalue=sol.eigenvalue * 1.05,
        grid=sol.grid, phi=sol.phi, dphi=sol.dphi,
        method=sol.method, refinement_history=sol.refinement_history,
        flux_residual=math.nan,
    )
    assert flux_identity_residual(bad, h) > 100 * good
