"""Acceptance gate: one test per shipped guarantee, at the stated tolerance.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion; each test also prints a ``criterion N PASS`` summary visible
under ``-s`` or in captured output.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import jv

from cdeigen.bounds import (
    bessel_first_zero,
    closed_form_bound,
    essential_spectrum_threshold,
    neumann_upper_bound,
)
from cdeigen.cli import load_density_csv, main
from cd_family import cd_density_family
from density_csv import write_density_csv
from cdeigen.comparison import (
    comparison_residual,
    composed_tolerance,
    rigidity_check,
)
from cdeigen.eigensolve import first_dirichlet_eigen
from cdeigen.errors import PreconditionError
from cdeigen.modelspace import Density, max_diameter, model_density, s_kappa
from cdeigen.physics import CompactificationSpec, kk_mass_bound_at, kk_mass_bound_optimal


def model_eigenvalue(K, N, r0, **kw):
    return first_dirichlet_eigen(Density.model(K, N), r0, **kw).eigenvalue


def reference_first_zero(nu):
    """First positive zero of J_nu found by sign-stepping scipy.special.jv."""
    x = max(nu, 0.5)
    step = max(0.5, 0.6 * x ** (1.0 / 3.0))
    f_prev = jv(nu, x)
    while f_prev == 0.0:
        x += 1e-9
        f_prev = jv(nu, x)
    for _ in range(100000):
        x_next = x + step
        f_next = jv(nu, x_next)
        if f_prev * f_next < 0:
            return brentq(lambda t: jv(nu, t), x, x_next, xtol=1e-14, rtol=8.9e-16)
        x, f_prev = x_next, f_next
    raise AssertionError(f"no sign change found for nu={nu}")


def test_criterion_01_n3_exact_identity():
    t0 = time.perf_counter()
    worst = 0.0
    cases = [(K, r0) for K in (-4.0, -1.0, 0.0, 1.0) for r0 in (0.5, 1.0, 2.0)]
    cases.append((1.0, 0.9 * max_diameter(1.0, 3.0)))
    for K, r0 in cases:
        lam = model_eigenvalue(K, 3.0, r0)
        exact = -K / 2.0 + math.pi ** 2 / r0 ** 2
        rel = abs(lam - exact) / abs(exact)
        worst = max(worst, rel)
        assert rel <= 1e-6, (K, r0, rel)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"grid took {elapsed:.1f}s"
    print(f"criterion 1 PASS: N=3 identity on {len(cases)} configs, "
          f"worst rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_k0_bessel_identity():
    assert abs(bessel_first_zero(0.5) - math.pi) <= 1e-12
    worst = 0.0
    for N in (1.5, 2.0, 2.5, 3.0, 4.0, 5.5, 8.0):
        lam = model_eigenvalue(0.0, N, 1.0)
        j = bessel_first_zero(N / 2.0 - 1.0)
        rel = abs(lam - j * j) / (j * j)
        worst = max(worst, rel)
        assert rel <= 1e-6, (N, rel)
    print(f"criterion 2 PASS: K=0 Bessel identity on 7 dimensions, "
          f"worst rel err {worst:.2e}; j_(1/2,1) = pi to 1e-12")


def test_criterion_03_bessel_zero_inequality():
    rng = np.random.default_rng(30303)
    Ns = 1.0 + 19.0 * rng.random(50)
    for N in Ns:
        j = bessel_first_zero(N / 2.0 - 1.0)
        assert j * j < N * (2.0 + N / 2.0), N
    print(f"criterion 3 PASS: j^2 < N(2+N/2) on 50 sampled N in (1, 20]")


def test_criterion_04_closed_form_dominates_solver():
    rng = np.random.default_rng(40404)
    checked = 0
    while checked < 30:
        K = float(rng.uniform(-5.0, 2.0))
        N = float(rng.uniform(1.05, 10.0))
        cap = 2.5 if K <= 0 else min(2.5, 0.9 * max_diameter(K, N))
        r0 = float(rng.uniform(0.3, cap)) if cap > 0.3 else 0.5 * cap
        lam = model_eigenvalue(K, N, r0)
        bound = closed_form_bound(K, N, r0).value
        assert bound >= lam * (1.0 - 1e-6), (K, N, r0, lam, bound)
        checked += 1
    print("criterion 4 PASS: closed-form bound dominates solver on 30 random configs")


def test_criterion_05_two_solver_agreement():
    rng = np.random.default_rng(50505)
    worst = 0.0
    for _ in range(20):
        K = float(rng.uniform(-3.0, 1.5))
        N = float(rng.uniform(1.6, 7.0))
        cap = 2.0 if K <= 0 else min(2.0, 0.85 * max_diameter(K, N))
        r0 = float(rng.uniform(0.4, cap))
        a = model_eigenvalue(K, N, r0, method="matrix")
        b = model_eigenvalue(K, N, r0, method="shooting")
        rel = abs(a - b) / abs(a)
        worst = max(worst, rel)
        assert rel <= 1e-5, (K, N, r0, rel)
    print(f"criterion 5 PASS: matrix vs shooting on 20 configs, worst {worst:.2e}")


def test_criterion_06_comparison_and_rigidity():
    rng = np.random.default_rng(60606)
    tol = composed_tolerance()
    densities = 0
    worst_gap = math.inf
    while densities < 100:
        K = float(rng.uniform(-3.0, 0.5))
        N = float(rng.uniform(2.0, 6.0))
        r0 = float(rng.uniform(0.5, 1.3))
        for h in cd_density_family(K, N, r0):
            thetas = np.linspace(0.2 * r0, r0, 8)
            for theta in thetas:
                rep = comparison_residual(h, K, N, r0, float(theta),
                                          check_density=False)
                norm_gap = rep.gap / max(abs(rep.rhs), 1.0)
                worst_gap = min(worst_gap, norm_gap)
                assert norm_gap >= -tol, (K, N, r0, theta, norm_gap)
            densities += 1

    # rigidity: equality holds exactly for (multiples of) the model density
    eq_cases = [(-2.0, 3.0, 1.0), (0.0, 2.5, 1.2), (1.0, 4.0, 1.5)]
    for K, N, r0 in eq_cases:
        rep = comparison_residual(Density.model(K, N), K, N, r0, r0)
        assert abs(rep.relative_gap) <= 1e-6, (K, N, r0, rep.relative_gap)
    grid = np.linspace(0.0, 1.0, 1500)
    scaled = Density.sampled(grid, 7.0 * model_density(-2.0, 3.0, grid),
                             interp_dim=3.0)
    v = rigidity_check(scaled, -2.0, 3.0, 1.0, tol=1e-6)
    assert v.rigid and abs(v.relative_gap) <= 1e-6

    # and fails by a detectable margin for perturbed family members
    for K, N, r0, bump in [(-2.0, 3.0, 1.0, 1.0), (-1.0, 4.0, 1.2, 2.0),
                           (0.0, 2.5, 1.0, 1.5)]:
        rep = comparison_residual(Density.model(K + bump, N), K, N, r0, r0,
                                  check_density=False)
        assert rep.relative_gap > 1e-3, (K, N, r0, bump, rep.relative_gap)
    print(f"criterion 6 PASS: {densities} family densities x 8 thetas, "
          f"worst normalized gap {worst_gap:+.2e};"
          " rigidity separates exact from perturbed")


def test_criterion_07_radius_monotonicity():
    pairs = [(-4.0, 2.0), (-1.0, 3.0), (0.0, 4.5), (1.0, 3.0), (2.0, 6.0)]
    for K, N in pairs:
        hi = 2.4 if K <= 0 else 0.9 * max_diameter(K, N)
        radii = np.linspace(0.3, hi, 10)
        lams = [model_eigenvalue(K, N, float(r), tol=1e-7) for r in radii]
        assert np.all(np.diff(lams) < 0.0), (K, N, lams)
    print("criterion 7 PASS: eigenvalue strictly decreasing over 10 radii "
          "for 5 (K, N) pairs")


def test_criterion_08_flat_interval_neumann_oracle():
    for N in (2.0, 3.0, 5.0):
        for j in (1, 2, 3):
            for D in (1.0, math.pi):
                flat = (j * math.pi / D) ** 2
                bound = neumann_upper_bound(0.0, N, D, j)
                assert flat <= bound * (1.0 + 1e-9), (N, j, D)
    print("criterion 8 PASS: flat-interval Neumann eigenvalues below the "
          "bound on 18 configs")


def oracle_kk_objective(spec, j, N):
    """Independent route to the scanned objective: direct arithmetic plus
    scipy-rooted Bessel zeros; shares no code with the package formulas."""
    n = spec.D - spec.d
    denom = (spec.D - 2) * (N - spec.D + spec.d)
    K = spec.Lambda - (N + spec.d - 2) * spec.sigma_w ** 2 / denom
    r0 = spec.diam / (2 * j)
    if K > 0 and r0 >= math.pi * math.sqrt((N - 1) / K):
        return math.inf
    if N == 3.0:
        return -K / 2.0 + math.pi ** 2 / r0 ** 2
    jz = reference_first_zero(N / 2.0 - 1.0)
    if K == 0.0:
        return jz * jz / r0 ** 2
    if N < 3.0:
        return -N * K / 6.0 + jz * jz / r0 ** 2
    kap = K / (N - 1.0)
    if kap > 0:
        s = math.sin(math.sqrt(kap) * r0) / math.sqrt(kap)
    elif kap < 0:
        s = math.sinh(math.sqrt(-kap) * r0) / math.sqrt(-kap)
    else:
        s = r0
    extra = (N - 1.0) * (N - 3.0) / 4.0 * (1.0 / s ** 2 - 1.0 / r0 ** 2)
    return -(N - 1.0) * K / 4.0 + jz * jz / r0 ** 2 + extra


KK_SPECS = [
    CompactificationSpec(D=6, d=4, Lambda=1.0, sigma_w=2.0, diam=2.0),
    CompactificationSpec(D=7, d=3, Lambda=0.0, sigma_w=1.5, diam=3.0),
    CompactificationSpec(D=10, d=4, Lambda=-1.0, sigma_w=1.0, diam=2.5),
    CompactificationSpec(D=5, d=3, Lambda=0.5, sigma_w=1.0, diam=4.0),
    CompactificationSpec(D=8, d=2, Lambda=-0.5, sigma_w=2.5, diam=1.5),
]


def test_criterion_09_kk_optimizer():
    worst = 0.0
    for spec in KK_SPECS:
        res = kk_mass_bound_optimal(spec)
        n = spec.n_internal
        # endpoint divergence relative to the interior minimum
        left = kk_mass_bound_at(spec, 1, n * (1.0 + 1e-4), method="closed_form")
        right = kk_mass_bound_at(spec, 1, 1e6, method="closed_form")
        assert left >= 10.0 * res.bound, (spec, left, res.bound)
        assert right >= 10.0 * res.bound, (spec, right, res.bound)
        # dense-grid oracle over the same feasible range
        u = np.geomspace(1e-3, 1000.0 * n - n, 10000)
        vals = [oracle_kk_objective(spec, 1, n + du) for du in u]
        oracle = min(vals)
        rel = abs(res.bound - oracle) / abs(oracle)
        worst = max(worst, rel)
        assert rel <= 1e-4, (spec, res.bound, oracle, rel)
        assert res.bound <= oracle * (1.0 + 1e-12)  # golden refines below the grid
    print(f"criterion 9 PASS: optimizer vs 10^4-point oracle on 5 specs, "
          f"worst rel diff {worst:.2e}; endpoints diverge >= 10x")


def test_criterion_10_essential_spectrum_threshold():
    rng = np.random.default_rng(101010)
    for _ in range(10):
        K = float(-rng.uniform(0.0, 6.0))
        N = float(rng.uniform(3.0, 9.0))
        expect = -(N - 1.0) * K / 4.0
        assert essential_spectrum_threshold(K, N) == pytest.approx(expect, rel=1e-14)
    for K, N in [(0.5, 3.0), (2.0, 5.0)]:
        with pytest.raises(PreconditionError) as exc:
            essential_spectrum_threshold(K, N)
        assert exc.value.code == "hypothesis"
    for K, N in [(-1.0, 2.9), (0.0, 1.5)]:
        with pytest.raises(PreconditionError) as exc:
            essential_spectrum_threshold(K, N)
        assert exc.value.code == "hypothesis"
    print("criterion 10 PASS: threshold arithmetic on 10 pairs; hypothesis "
          "errors on 4 violations")


def test_criterion_11_cli_determinism(capsys, tmp_path):
    grid = np.linspace(0.0, 1.0, 257)
    h = Density.sampled(grid, model_density(-1.0, 3.0, grid), interp_dim=3.0)
    dens = tmp_path / "dens.csv"
    write_density_csv(h, str(dens))
    back = load_density_csv(str(dens), interp_dim=3.0)
    assert np.array_equal(back.grid, h.grid)
    assert np.array_equal(back.values, h.values)

    commands = [
        ["model-eigen", "--K", "-1", "--N", "3", "--r0", "1"],
        ["compare", "--csv", str(dens), "--interp-dim", "3", "--K", "-1",
         "--N", "3", "--r0", "1", "--theta", "0.6"],
        ["check-density", "--csv", str(dens), "--K", "-1", "--N", "3",
         "--interp-dim", "3"],
        ["compare", "--K", "-1", "--N", "3", "--r0", "1", "--theta", "0.6",
         "--model-K", "0"],
        ["rigidity", "--csv", str(dens), "--K", "-1", "--N", "3", "--r0", "1",
         "--interp-dim", "3"],
        ["neumann-bound", "--K", "-1", "--N", "4", "--diam", "2"],
        ["ess-spectrum", "--K", "-4", "--N", "3"],
        ["kk-bound", "--D", "6", "--d", "4", "--Lambda", "1", "--sigma", "2",
         "--diam", "2"],
        ["sweep", "ess-spectrum", "--over", "K", "--start", "-3", "--stop", "0",
         "--count", "4", "--N", "3", "--workers", "2"],
    ]
    for fmt in ("json", "csv", "human"):
        for argv in commands:
            full = argv + ["--format", fmt] if argv[0] != "sweep" else argv
            rc1 = main(full)
            out1 = capsys.readouterr()
            rc2 = main(full)
            out2 = capsys.readouterr()
            assert rc1 == rc2 == 0, (full, out1.err)
            assert out1.out == out2.out and out1.err == out2.err, full
    print("criterion 11 PASS: byte-identical outputs for every subcommand "
          "in all three formats; CSV density round-trip exact")
