"""cdeigen benchmark.

One run of one workload:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs from the root of a source checkout.  It starts fresh Python processes
(``bench/child.py``), one pass of the workload each, until the next pass
would end after S seconds; every pass of a run uses the same seeded inputs,
so caches start cold in each pass as they do for a command-line user.  The
last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``).

``bench/suite.py`` runs every workload and writes the results, the
baseline table and the environment to ``bench/baseline.json``.

End-to-end metrics (per workload):

    wall_s       s      median over passes of the timed region's wall time
    op_ms_p50    ms     median over operations of each operation's median time
    op_ms_tail   ms     the highest percentile with at least 10 operations
                        above it; the percentile and count are printed
    ok_share     ratio  operations that succeeded and passed their reference
                        check, over operations attempted (1 - fail_share)
    setup_s      s      median set-up time: process start to the first timed
                        operation (cdeigen import, inputs, warm-up); for
                        cli_cold the wall time of a cold `cdeigen --version`
    peak_rss_mb  MB     median peak resident memory of a pass (cli_cold: the
                        largest CLI child process)

A traced run (``--trace 1``) makes one untraced pass and two traced passes.
It reports the per-layer metrics of the first traced pass (self times are
the mean of both), the tracing overhead, the count metrics that differ
between the two traced passes (``trace.count_drift``), and the span counts
that do not match the operations issued (``trace.coverage_errors``).

``correct`` is false when the harness cannot vouch for the figures: a pass
crashed or timed out, a reference check could not be computed, or two passes
of the same inputs disagree on which operations failed.  An operation that
raises, returns a result that fails its reference check, or does not raise a
rejection it should raise counts in ``failed``, with its code.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"wall_s": "s", "op_ms_p50": "ms", "op_ms_tail": "ms", "ok_share": "ratio",
              "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = (spans.COUNT_METRICS + spans.TIME_METRICS + spans.RATIO_METRICS
             + spans.CLI_METRICS + spans.TRACE_METRICS)
SETUP_SAMPLES = 5
RUN_LIMIT = 170  # seconds; a run must end within 180
# One thread per process for BLAS and OpenMP; `sweep` adds its own workers.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class HarnessError(Exception):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def sweep_workers() -> int:
    return min(2, nproc())


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_pass(workload: str, seed: int, trace: int, workdir: str, deadline: float,
             setup_only=False) -> dict:
    """One pass in a fresh process, killed if it runs past ``deadline``
    (a ``time.perf_counter()`` value)."""
    os.makedirs(workdir, exist_ok=True)
    cmd = [sys.executable, os.path.join(BENCH, "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--workdir", workdir,
           "--workers", str(sweep_workers())]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.time_ns()
    # The pass runs in its own session so that a timeout also stops the
    # command-line processes it started.
    proc = subprocess.Popen(cmd + ["--t0-ns", str(t0)], env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise HarnessError(f"{workload} did not finish within {RUN_LIMIT} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise HarnessError(f"{workload} pass exited {proc.returncode}: {err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def tail_index(n: int) -> int:
    """Index into n sorted samples of the highest percentile that keeps at
    least 10 samples above it.  Every workload has at least 20 operations."""
    if n < 20:
        raise HarnessError(f"{n} operations are too few for a tail percentile")
    return n - 11


def summarize(passes: list[dict], setups: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics and run facts from the untraced passes."""
    n_ops = len(passes[0]["ops"])
    per_op = [statistics.median(p["ops"][i]["ms"] for p in passes) for i in range(n_ops)]
    ordered = sorted(per_op)
    k = tail_index(n_ops)
    attempted = n_ops * len(passes)
    failed = sum(op["code"] is not None for p in passes for op in p["ops"])
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "op_ms_p50": statistics.median(per_op),
        "op_ms_tail": ordered[k],
        "ok_share": 1.0 - failed / attempted,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }
    facts = {
        "passes": len(passes), "operations": n_ops, "attempted": attempted, "failed": failed,
        "fail_share": failed / attempted,
        "tail_percentile": math.floor(100 * (k + 1) / n_ops),
        "failures": sorted({f"{op['code']}: {op['label']}" for p in passes for op in p["ops"]
                            if op["code"] is not None}),
    }
    return metrics, facts


def consistent(passes: list[dict]) -> list[str]:
    """Problems that make a run's figures untrustworthy."""
    problems = [e for p in passes for e in p["harness_errors"]]
    codes = [[op["code"] for op in p["ops"]] for p in passes]
    if any(c != codes[0] for c in codes[1:]):
        problems.append("passes of the same inputs disagree on which operations failed")
    return problems


def run_workload(workload: str, seed: int, seconds: float, trace: int, workdir: str) -> dict:
    """One run; returns the driver's result object plus the facts behind it."""
    start = time.perf_counter()
    deadline = start + RUN_LIMIT
    if trace:
        passes = [run_pass(workload, seed, t, os.path.join(workdir, str(i)), deadline)
                  for i, t in enumerate((0, 1, 1))]
    else:
        passes = []
        while True:
            t0 = time.perf_counter()
            passes.append(run_pass(workload, seed, 0, os.path.join(workdir, str(len(passes))),
                                   deadline))
            last = time.perf_counter() - t0
            if time.perf_counter() - start + last > seconds:
                break
    setups = [t for p in passes for t in p["setup_samples"]]
    while not trace and len(setups) < SETUP_SAMPLES:
        setups += run_pass(workload, seed, 0, os.path.join(workdir, "setup"), deadline,
                           setup_only=True)["setup_samples"]
    problems = consistent(passes)
    e2e, facts = summarize(passes[:1] if trace else passes, setups)
    facts["run_s"] = time.perf_counter() - start
    facts["problems"] = problems
    if not trace:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
        facts["end_to_end"] = e2e
    else:
        untraced, first, second = passes
        layers = {name: 0.0 for name in PER_LAYER}
        layers.update({k: v for k, v in first["layers"].items() if k in layers})
        for name in spans.TIME_METRICS + ("cli.main.self_ms",):
            layers[name] = 0.5 * (first["layers"].get(name, 0.0) + second["layers"].get(name, 0.0))
        drift = [n for n in spans.COUNT_METRICS + ("cli.main.calls",)
                 if first["layers"].get(n, 0) != second["layers"].get(n, 0)]
        layers["trace.count_drift"] = len(drift)
        coverage = sorted(set(first["coverage"]) | set(second["coverage"]))
        layers["trace.coverage_errors"] = len(coverage)
        layers["trace.overhead_ms"] = 1e3 * (
            0.5 * (first["wall_s"] + second["wall_s"]) - untraced["wall_s"])
        metrics = {name: {"value": float(layers[name]), "unit": layer_unit(name)}
                   for name in PER_LAYER}
        facts["count_drift"] = drift
        facts["coverage"] = coverage
        facts["untraced_wall_s"] = untraced["wall_s"]
    return {"correct": not problems, "attempted": facts["attempted"], "failed": facts["failed"],
            "metrics": metrics, "facts": facts}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("ratio", "parallelism")):
        return "ratio"
    return "count"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    sha = "unknown"  # a checkout without .git, as the benchmark usually runs in
    if os.path.isdir(".git"):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                 timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    blas = "unknown"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError, AttributeError):
        pass
    return {"nproc": nproc(), "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_sha": sha, "seed": seed, "blas": blas,
            "blas_threads": THREAD_ENV, "sweep_workers": sweep_workers(),
            "machine": platform.machine()}


def checkout_ok() -> bool:
    if not os.path.isfile(os.path.join("src", "cdeigen", "__init__.py")):
        print("run from the root of a cdeigen checkout: src/cdeigen is missing", file=sys.stderr)
        return False
    return True


def work_dir() -> str:
    """Scratch space inside the checkout, one directory per benchmark process."""
    return os.path.join(BENCH, ".work", str(os.getpid()))


def print_run(workload: str, result: dict) -> None:
    facts = result["facts"]
    print(f"workload {workload}: {facts['passes']} pass(es), {facts['operations']} operations "
          f"each, {facts['attempted']} attempted, {facts['failed']} failed "
          f"(fail_share {facts['fail_share']:.4f}), run {facts['run_s']:.1f} s")
    for name, m in result["metrics"].items():
        note = ""
        if name == "op_ms_tail":
            note = f"  (p{facts['tail_percentile']} of {facts['operations']} operations)"
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}{note}")
    for line in facts["failures"]:
        print(f"  failed: {line}")
    for line in facts["problems"] + facts.get("coverage", []) + facts.get("count_drift", []):
        print(f"  problem: {line}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not checkout_ok():
        return 2
    workdir = work_dir()
    try:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace, workdir)
    except HarnessError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print_run(args.workload, result)
    print("environment: " + json.dumps(environment(args.seed)))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
