"""The four benchmark workloads: inputs from a seed, the operation, the
untimed warm-up and the reference check of each operation.

Inputs are a Latin hypercube with a fixed layout: which strata of each
parameter go together, the order of the operations and every discrete
choice come from a generator with a constant seed (``DESIGN_SEED``); the
benchmark's ``--seed`` places each draw in the middle fifth of its stratum.
Two seeds thus give different inputs that cover the parameter region
alike.  The solvers' cost jumps by about 2x wherever one more mesh level is
needed, so draws anywhere in a stratum would move the median and tail
times between seeds by more than the machine's own noise.

The library receives only numbers and CSV files; nothing here calls
``cdeigen`` outside ``run`` and ``warm_up``.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time

import numpy as np

import oracle

DESIGN_SEED = 20250731
JITTER = 0.2  # share of its stratum over which the seed moves a draw


def _kk_default_curvature(N: float) -> float:
    """K(N) along the N-scan of the default `kk-bound` compactification
    (D=6, d=4, Lambda=1, sigma=2, diam=2, j=1, so r0 = 1)."""
    return 1.0 - (N + 2.0) / (N - 2.0)


def _lhs(design, rng, n: int, lo: float, hi: float) -> np.ndarray:
    """n draws from [lo, hi], one per equal-width stratum; ``design`` orders
    the strata, ``rng`` places each draw in the middle of its stratum."""
    offset = 0.5 + JITTER * (rng.uniform(size=n) - 0.5)
    return lo + (hi - lo) * (design.permutation(n) + offset) / n


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


class Workload:
    """One set of inputs and its operations.  ``ops`` is a list of dicts;
    ``run`` executes one of them and ``check`` returns None when its outcome
    is right, or the failure code to record."""

    name = ""

    def __init__(self, seed: int, workdir: str):
        self.rng = np.random.default_rng(seed)
        self.design = np.random.default_rng(DESIGN_SEED)
        self.workdir = workdir
        self.ops: list[dict] = []

    def warm_up(self) -> None:
        pass

    def run(self, op: dict):
        raise NotImplementedError

    def check(self, op: dict, result, error: str | None) -> str | None:
        expect = op.get("expect")
        if expect is not None:
            if error == expect:
                return None
            return error if error is not None else f"missing-{expect}"
        if error is not None:
            return error
        return None if self.verify(op, result) else "reference"

    def verify(self, op: dict, result) -> bool:
        raise NotImplementedError

    def coverage(self, layers: dict) -> list[str]:
        """Span counts that must equal the operations issued."""
        return []


# ---------------------------------------------------------------- solve_sweep

class SolveSweep(Workload):
    name = "solve_sweep"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng, design = self.rng, self.design
        regular = []
        # 7 exact N = 3 draws, 7 exact K = 0 draws, 14 general draws.
        for K, f in zip(_lhs(design, rng, 7, -5.0, 2.0), _lhs(design, rng, 7, 0.05, 1.0)):
            regular.append((float(K), 3.0, f))
        for N, f in zip(_lhs(design, rng, 7, 1.05, 10.0), _lhs(design, rng, 7, 0.05, 1.0)):
            regular.append((0.0, float(N), f))
        for K, N, f in zip(_lhs(design, rng, 14, -5.0, 2.0), _lhs(design, rng, 14, 1.05, 10.0),
                           _lhs(design, rng, 14, 0.05, 1.0)):
            regular.append((float(K), float(N), f))
        order = design.permutation(len(regular))
        ops = []
        for i, k in enumerate(order):
            K, N, f = regular[k]
            r0 = float(f * min(2.5, 0.9 * oracle.diameter(K, N)))
            ops.append({"K": K, "N": N, "r0": r0,
                        "method": "shooting" if i % 4 == 3 else "matrix"})
        # One draw in eight from the two ends of the default kk-bound scan.
        # At the seed commit the first window ends in `refinement`, the
        # second in `flux`, and N >= 70 in `refinement`.
        stress_N = [2.0 + rng.uniform(0.00105, 0.00125), 2.0 + rng.uniform(0.00165, 0.00195),
                    math.exp(rng.uniform(math.log(70.0), math.log(300.0))),
                    math.exp(rng.uniform(math.log(300.0), math.log(1000.0)))]
        for i, N in enumerate(stress_N):
            ops.insert(8 * i + 7, {"K": _kk_default_curvature(N), "N": float(N), "r0": 1.0,
                                   "method": "matrix"})
        self.ops = ops
        for op in ops:
            op["label"] = f"solve K={op['K']:.6g} N={op['N']:.6g} r0={op['r0']:.6g} {op['method']}"

    def warm_up(self):
        from cdeigen.eigensolve import first_dirichlet_eigen
        from cdeigen.modelspace import Density
        first_dirichlet_eigen(Density.model(-1.0, 2.5), 0.5, tol=1e-6)
        first_dirichlet_eigen(Density.model(-1.0, 2.5), 0.5, tol=1e-6, method="shooting")

    def run(self, op):
        from cdeigen.eigensolve import first_dirichlet_eigen
        from cdeigen.modelspace import Density
        return first_dirichlet_eigen(Density.model(op["K"], op["N"]), op["r0"],
                                     method=op["method"]).eigenvalue

    def verify(self, op, lam):
        K, N, r0 = op["K"], op["N"], op["r0"]
        if not (lam > 0 and math.isfinite(lam)):
            return False
        exact = oracle.exact_eigenvalue(K, N, r0)
        if exact is not None:
            return _rel(lam, exact) <= 1e-6
        return lam <= oracle.closed_form_upper(K, N, r0) * (1.0 + 1e-6)

    def coverage(self, layers):
        bad = []
        if layers["eigensolve.solve.calls"] != len(self.ops):
            bad.append(f"solve spans {layers['eigensolve.solve.calls']} != ops {len(self.ops)}")
        shooting = sum(op["method"] == "shooting" for op in self.ops)
        if layers["eigensolve.shooting.calls"] != shooting:
            bad.append(f"shooting spans {layers['eigensolve.shooting.calls']} != {shooting}")
        return bad


# ------------------------------------------------------------ compare_sampled

GRID_SIZES = (201, 401, 801, 1601, 3201)


def _family(K: float, N: float, r0: float, count: int = 3):
    """Curvatures of the cd_density_family members (K' from K up to K + 2,
    capped so r0 stays inside the K' diameter) and the constant levels."""
    cap = 0.9 * (N - 1.0) * (math.pi / r0) ** 2
    hi = max(min(K + 2.0, cap), K)
    levels = (1.0, 0.37) if K <= 0 else ()
    return [float(k) for k in np.linspace(K, hi, count)], levels


class CompareSampled(Workload):
    name = "compare_sampled"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng, design = self.rng, self.design
        # Four comparison models with a closed-form eigenpair: two N = 3,
        # two K = 0.
        models = [(float(K), 3.0) for K in _lhs(design, rng, 2, -4.0, 0.0)]
        models += [(0.0, float(N)) for N in _lhs(design, rng, 2, 2.0, 6.0)]
        radii = _lhs(design, rng, 4, 0.6, 1.3)
        densities = []
        size_turn = 0
        for (K, N), r0 in zip(models, radii):
            r0 = float(r0)
            curvatures, levels = _family(K, N, r0)
            members = [("model", kp, 1.0) for kp in curvatures]
            members += [("flat", 0.0, lv) for lv in levels]
            members.append(("scaled", K, float(rng.uniform(0.5, 5.0))))
            for kind, kp, c in members:
                n = GRID_SIZES[size_turn % len(GRID_SIZES)]
                size_turn += 1
                grid = np.linspace(0.0, r0, n)
                if kind == "flat":
                    values, interp = np.full(n, c), 2.0
                else:
                    values = c * np.maximum(oracle.s_kappa(kp / (N - 1.0), grid), 0.0) ** (N - 1.0)
                    interp = N
                densities.append({"kind": kind, "K": K, "N": N, "r0": r0, "grid": grid,
                                  "values": values, "interp": interp, "c": c})
        ops = []
        for dens in densities:
            thetas = dens["r0"] * _lhs(design, rng, 3, 0.2, 1.0)
            for theta in thetas:
                ops.append({"op": "residual", "dens": dens, "theta": float(theta)})
            if dens["kind"] == "scaled":
                ops.append({"op": "rigidity", "dens": dens})
        # The dented line and tent of the unsound CD floor: K=0, N=2 on 101
        # nodes with a 0.02 dent at node 80.  They must be rejected.
        grid = np.linspace(0.0, 1.0, 101)
        for kind, values in (("line", grid.copy()), ("tent", 1.0 - np.abs(grid - 0.5))):
            values[80] -= 0.02
            dens = {"kind": kind, "K": 0.0, "N": 2.0, "r0": 1.0, "grid": grid,
                    "values": values, "interp": 2.0, "c": 1.0}
            ops.append({"op": "residual", "dens": dens,
                        "theta": float(rng.uniform(0.85, 1.0)), "expect": "cd-violation"})
        order = design.permutation(len(ops))
        self.ops = [ops[i] for i in order]
        for op in self.ops:
            d = op["dens"]
            what = f"{op['op']} {d['kind']} n={d['grid'].size} K={d['K']:.6g} N={d['N']:.6g}"
            op["label"] = what + (f" theta={op['theta']:.6g}" if "theta" in op else "")

    def warm_up(self):
        from cdeigen.comparison import comparison_residual
        from cdeigen.modelspace import Density
        grid = np.linspace(0.0, 0.5, 64)
        h = Density.sampled(grid, np.full(grid.size, 1.0))
        # (K, N, r0) = (-0.5, 2.5, 0.5) is outside every drawn model, so the
        # eigenpair cache keeps no entry the timed operations could use.
        comparison_residual(h, -0.5, 2.5, 0.5, 0.4)

    def run(self, op):
        from cdeigen.comparison import comparison_residual, rigidity_check
        from cdeigen.modelspace import Density
        d = op["dens"]
        h = Density.sampled(d["grid"], d["values"], interp_dim=d["interp"])
        if op["op"] == "rigidity":
            v = rigidity_check(h, d["K"], d["N"], d["r0"], 1e-6)
            return {"rigid": v.rigid, "c": v.fitted_c, "gap": v.relative_gap}
        rep = comparison_residual(h, d["K"], d["N"], d["r0"], op["theta"])
        return {"gap": rep.relative_gap}

    def verify(self, op, res):
        d = op["dens"]
        theta = op.get("theta", d["r0"])
        ref = oracle.comparison_gap(d["grid"], d["values"], d["interp"], d["K"], d["N"],
                                    d["r0"], theta)
        if not (abs(res["gap"] - ref) <= 1e-5 and res["gap"] >= -1e-6):
            return False
        if op["op"] == "rigidity":
            return res["rigid"] and res["c"] is not None and _rel(res["c"], d["c"]) <= 1e-9
        return True

    def coverage(self, layers):
        bad = []
        residual_ops = sum(op["op"] == "residual" for op in self.ops)
        rigidity_ops = len(self.ops) - residual_ops
        if layers["comparison.rigidity.calls"] != rigidity_ops:
            bad.append(f"rigidity spans {layers['comparison.rigidity.calls']} != {rigidity_ops}")
        if layers["comparison.residual.calls"] != residual_ops + rigidity_ops:
            bad.append(f"residual spans {layers['comparison.residual.calls']} "
                       f"!= {residual_ops + rigidity_ops}")
        if layers["eigensolve.solve.calls"] != layers["comparison.model_solves"]:
            bad.append("eigensolve spans outside comparison_residual")
        models = {(op["dens"]["K"], op["dens"]["N"], op["dens"]["r0"]) for op in self.ops}
        if layers["comparison.model_solves"] != len(models):
            bad.append(f"model solves {layers['comparison.model_solves']} "
                       f"!= distinct models {len(models)}")
        return bad


# ---------------------------------------------------------------- kk_optimize

class KkOptimize(Workload):
    name = "kk_optimize"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng, design = self.rng, self.design
        # D - d covers 1..6 twice, so about half of the Bessel zeros are
        # cache hits across specs whatever the seed.
        internal = design.permutation(np.repeat(np.arange(1, 7), 2))
        lams = _lhs(design, rng, 12, -1.0, 1.0)
        sigmas = _lhs(design, rng, 12, 0.5, 2.5)
        diams = _lhs(design, rng, 12, 1.5, 4.0)
        ops = []
        for n, lam, sig, diam in zip(internal, lams, sigmas, diams):
            d = int(design.integers(2, 5))
            spec = {"D": d + int(n), "d": d, "Lambda": float(lam), "sigma": float(sig),
                    "diam": float(diam)}
            for j in (1, 2):
                ops.append({"spec": spec, "j": j,
                            "label": "kk D={D} d={d} Lambda={Lambda:.6g} sigma={sigma:.6g} "
                                     "diam={diam:.6g}".format(**spec) + f" j={j}"})
        self.ops = ops

    def warm_up(self):
        from cdeigen.bounds import closed_form_bound
        from cdeigen.physics import CompactificationSpec, kk_curvature
        # N = 3 takes the exact branch, which needs no Bessel zero, so the
        # zero cache stays empty.
        closed_form_bound(-1.0, 3.0, 1.0)
        kk_curvature(CompactificationSpec(D=6, d=4, Lambda=1.0, sigma_w=2.0, diam=2.0), 3.0)

    def run(self, op):
        from cdeigen.physics import CompactificationSpec, kk_mass_bound_optimal
        s = op["spec"]
        spec = CompactificationSpec(D=s["D"], d=s["d"], Lambda=s["Lambda"],
                                    sigma_w=s["sigma"], diam=s["diam"])
        res = kk_mass_bound_optimal(spec, op["j"])
        return {"bound": res.bound, "N_star": res.N_star}

    def verify(self, op, res):
        s = op["spec"]
        n = s["D"] - s["d"]

        def f(N):
            return oracle.kk_objective(s["D"], s["d"], s["Lambda"], s["sigma"], s["diam"],
                                       op["j"], N)

        at_star = f(res["N_star"])
        if not (math.isfinite(at_star) and _rel(res["bound"], at_star) <= 1e-9):
            return False
        scan = [f(n + u) for u in np.geomspace(1e-3, 1000.0 * n - n, 48)]
        return res["bound"] <= min(scan) * (1.0 + 1e-9)

    def coverage(self, layers):
        bad = []
        if layers["physics.optimal.calls"] != len(self.ops):
            bad.append(f"optimizer spans {layers['physics.optimal.calls']} != {len(self.ops)}")
        feasible = layers["physics.objective.calls"] - layers["physics.objective.infeasible"]
        if layers["bounds.closed_form.calls"] != feasible:
            bad.append(f"closed-form spans {layers['bounds.closed_form.calls']} "
                       f"!= feasible objective calls {feasible}")
        return bad


# ------------------------------------------------------------------- cli_cold

class CliCold(Workload):
    name = "cli_cold"

    def __init__(self, seed, workdir, workers: int = 2):
        super().__init__(seed, workdir)
        rng, design = self.rng, self.design
        self.trace_dir = None
        ops = []
        for K, N in zip(_lhs(design, rng, 12, -5.0, 0.0), _lhs(design, rng, 12, 3.0, 10.0)):
            ops.append({"argv": ["ess-spectrum", "--K", repr(float(K)), "--N", repr(float(N))],
                        "kind": "ess", "K": float(K), "N": float(N)})
        for K, N, diam, j in zip(_lhs(design, rng, 4, -2.0, 0.5), _lhs(design, rng, 4, 2.0, 8.0),
                                 _lhs(design, rng, 4, 1.0, 3.0), (1, 2, 1, 2)):
            ops.append({"argv": ["neumann-bound", "--K", repr(float(K)), "--N", repr(float(N)),
                                 "--diam", repr(float(diam)), "--j", str(j)],
                        "kind": "neumann", "K": float(K), "N": float(N),
                        "r0": float(diam) / (2.0 * j)})
        ops.append({"argv": ["model-eigen", "--K", "-4", "--N", "3", "--r0", "1"],
                    "kind": "eigen", "K": -4.0, "N": 3.0, "r0": 1.0})
        # A sampled N = 3 model density with K' >= K is CD(K, 3).
        K = float(rng.uniform(-4.0, -1.0))
        kp = K + float(rng.uniform(0.0, 1.0))
        grid = np.linspace(0.0, 1.0, 401)
        values = oracle.s_kappa(kp / 2.0, grid) ** 2
        self.csv_path = os.path.join(workdir, "density.csv")
        self.density = (grid, values)
        for theta in _lhs(design, rng, 3, 0.3, 1.0):
            ops.append({"argv": ["compare", "--csv", self.csv_path, "--interp-dim", "3",
                                 "--K", repr(K), "--N", "3", "--r0", "1",
                                 "--theta", repr(float(theta))],
                        "kind": "compare", "K": K, "theta": float(theta)})
        ops.append({"argv": ["kk-bound", "--D", "6", "--d", "4", "--Lambda", "1",
                             "--sigma", "2", "--diam", "2"], "kind": "kk"})
        ops.append({"argv": ["sweep", "model-eigen", "--over", "r0", "--start", "0.5",
                             "--stop", "2", "--count", "8", "--K", "-4", "--N", "3",
                             "--workers", str(workers), "--format", "json"],
                    "kind": "sweep"})
        order = design.permutation(len(ops))
        self.ops = [ops[i] for i in order]
        for op in self.ops:
            op["label"] = "cli " + " ".join(a for a in op["argv"] if not a.endswith(".csv"))
        self.setup_runs: list[float] = []

    def write_inputs(self):
        grid, values = self.density
        with open(self.csv_path, "w") as handle:
            handle.write("theta,h\n")
            for th, hv in zip(grid, values):
                handle.write(f"{th:.17g},{hv:.17g}\n")

    def command(self, argv):
        if self.trace_dir is None:
            return [sys.executable, "-m", "cdeigen.cli"] + argv
        shim = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_trace.py")
        return [sys.executable, shim] + argv

    def warm_up(self):
        # Each warm-up is a full cold start of the CLI; their median wall
        # time is this workload's set-up time.
        for _ in range(3):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-m", "cdeigen.cli", "--version"],
                           stdout=subprocess.DEVNULL, check=True, timeout=120)
            self.setup_runs.append(time.perf_counter() - t0)

    def run(self, op):
        # The pass inherits src/ on PYTHONPATH from bench/run.py.
        env = None
        if self.trace_dir is not None:
            spans_file = os.path.join(self.trace_dir, f"{len(os.listdir(self.trace_dir))}.json")
            env = dict(os.environ, BENCH_SPANS=spans_file)
        proc = subprocess.run(self.command(op["argv"]), env=env, capture_output=True,
                              text=True, timeout=170)
        if proc.returncode != 0:
            try:
                code = json.loads(proc.stderr.strip().splitlines()[-1])["error"]["code"]
            except (ValueError, KeyError, IndexError):
                code = f"exit-{proc.returncode}"
            raise CliError(code)
        return json.loads(proc.stdout)["result"]

    def verify(self, op, res):
        kind = op["kind"]
        if kind == "ess":
            return _rel(res["threshold"], -(op["N"] - 1.0) * op["K"] / 4.0) <= 1e-12
        if kind == "neumann":
            return _rel(res["bound"], oracle.closed_form_upper(op["K"], op["N"], op["r0"])) <= 1e-10
        if kind == "eigen":
            return _rel(res["lambda"], oracle.exact_eigenvalue(-4.0, 3.0, 1.0)) <= 1e-6
        if kind == "compare":
            grid, values = self.density
            ref = oracle.comparison_gap(grid, values, 3.0, op["K"], 3.0, 1.0, op["theta"])
            return abs(res["relative_gap"] - ref) <= 1e-5
        if kind == "kk":
            ref = oracle.kk_objective(6, 4, 1.0, 2.0, 2.0, 1, res["N_star"])
            return _rel(res["bound"], ref) <= 1e-9
        rows = res["rows"]
        return len(rows) == 8 and all(
            not row["error"] and _rel(row["lambda"], oracle.exact_eigenvalue(-4.0, 3.0, row["r0"]))
            <= 1e-6 for row in rows)

    def coverage(self, layers):
        bad = []
        mains = layers.get("cli.main.calls", 0)
        if mains != len(self.ops):
            bad.append(f"cli main spans {mains} != ops {len(self.ops)}")
        compares = sum(op["kind"] == "compare" for op in self.ops)
        solves = 1 + 8 + compares
        if layers["eigensolve.solve.calls"] != solves:
            bad.append(f"solve spans {layers['eigensolve.solve.calls']} != {solves}")
        return bad


class CliError(Exception):
    def __init__(self, code: str):
        super().__init__(code)
        self.code = code


WORKLOADS = {w.name: w for w in (SolveSweep, CompareSampled, KkOptimize, CliCold)}
