"""The rows of ROADMAP's baseline table, measured in one fresh process.

    PYTHONPATH=src python3 bench/baseline_rows.py      (from the checkout root)

Prints one JSON list.  In-process rows give the first (cold) call and the
median of five further calls, plus the work counts of one traced call;
command-line rows give the median wall time of cold processes.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

import numpy as np

import spans

REPEATS = 5


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return 1e3 * (time.perf_counter() - t0)


def in_process(name: str, fn) -> dict:
    cold = timed(fn)
    warm = statistics.median(timed(fn) for _ in range(REPEATS))
    return {"name": name, "cold_ms": cold, "warm_ms": warm, "counts": {}}


def cli_wall(argv: list[str], repeats: int = REPEATS) -> tuple[float, int]:
    walls, code = [], 0
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "cdeigen.cli"] + argv,
                              capture_output=True, timeout=170)
        walls.append(1e3 * (time.perf_counter() - t0))
        code = proc.returncode
    return statistics.median(walls), code


def main() -> int:
    from cdeigen.bounds import bessel_first_zero
    from cdeigen.comparison import comparison_residual
    from cdeigen.eigensolve import first_dirichlet_eigen
    from cdeigen.modelspace import Density
    from cdeigen.physics import CompactificationSpec, kk_mass_bound_optimal

    model = Density.model(-4.0, 3.0)
    grid = np.linspace(0.0, 1.0, 801)
    sampled = Density.sampled(grid, np.sinh(grid) ** 2, interp_dim=3.0)
    spec = CompactificationSpec(D=6, d=4, Lambda=1.0, sigma_w=2.0, diam=2.0)

    rows = []
    rows.append(in_process("first_dirichlet_eigen(model(-4, 3), r0=1)",
                           lambda: first_dirichlet_eigen(model, 1.0)))
    rows.append(in_process("comparison_residual, 801-node sampled density, theta=0.7",
                           lambda: comparison_residual(sampled, -4.0, 3.0, 1.0, 0.7)))
    before = bessel_first_zero.cache_info().misses
    rows.append(in_process("kk_mass_bound_optimal(D=6 d=4 Lambda=1 sigma=2 diam=2), closed form",
                           lambda: kk_mass_bound_optimal(spec)))
    rows[-1]["counts"]["bessel_zero.misses_cold"] = bessel_first_zero.cache_info().misses - before

    # Work counts from one traced call each (the eigenpair and Bessel zeros
    # are cached by now, so the traced calls show the warm path).
    rec = spans.Recorder()
    state = spans.install(rec)
    from cdeigen.comparison import comparison_residual as traced_residual
    from cdeigen.eigensolve import first_dirichlet_eigen as traced_solve
    from cdeigen.physics import kk_mass_bound_optimal as traced_kk

    keys = ("eigensolve.assemble.calls", "eigensolve.final_nodes",
            "eigensolve.inverse_iterations", "eigensolve.quadrature.panels",
            "modelspace.density_eval.calls", "modelspace.cd_scan.triples",
            "physics.objective.calls", "bounds.bessel_zero.calls")
    for row, call in zip(rows, (lambda: traced_solve(model, 1.0),
                                lambda: traced_residual(sampled, -4.0, 3.0, 1.0, 0.7),
                                lambda: traced_kk(spec))):
        rec.spans.clear()
        rec.counters.clear()
        call()
        layers = spans.layer_metrics(rec, state)
        row["counts"].update({k: layers[k] for k in keys if layers[k]})

    wall, _ = cli_wall(["ess-spectrum", "--K", "-4", "--N", "3"])
    bare = statistics.median(
        timed(lambda: subprocess.run([sys.executable, "-c", "pass"], check=True))
        for _ in range(REPEATS))
    imp = statistics.median(
        timed(lambda: subprocess.run([sys.executable, "-c", "import cdeigen.cli"], check=True))
        for _ in range(REPEATS))
    rows.append({"name": "CLI ess-spectrum --K -4 --N 3, wall", "wall_ms": wall,
                 "counts": {"interpreter_ms": bare, "import_cdeigen_cli_ms": imp - bare}})
    sweep = ["sweep", "model-eigen", "--over", "r0", "--start", "0.5", "--stop", "2",
             "--count", "8", "--K", "-4", "--N", "3"]
    for workers in (1, 2):
        wall, _ = cli_wall(sweep + ["--workers", str(workers)], repeats=3)
        rows.append({"name": f"CLI sweep model-eigen --count 8 --workers {workers}, wall",
                     "wall_ms": wall, "counts": {}})
    wall, code = cli_wall(["kk-bound", "--D", "6", "--d", "4", "--Lambda", "1", "--sigma", "2",
                           "--diam", "2", "--method", "solver"], repeats=1)
    rows.append({"name": "CLI kk-bound --method solver (D=6 d=4 Lambda=1 sigma=2 diam=2)",
                 "wall_ms": wall, "counts": {"exit_status": code}})
    print(json.dumps(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
