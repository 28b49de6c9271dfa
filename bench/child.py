"""One pass of one workload in a fresh Python process.

    python3 bench/child.py --workload NAME --seed N --trace 0|1 --t0-ns T --workdir DIR

The process generates its inputs, runs an untimed warm-up, then the timed
operations one after another, then the reference checks (untimed).  It
prints one JSON object on its last line of output.  ``--t0-ns`` is the
parent's ``time.time_ns()`` just before it started this process, so the
set-up time covers interpreter start, the ``cdeigen`` import, input
generation and the warm-up.  ``--setup-only`` stops before the first
timed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

from workloads import WORKLOADS, CliCold

import spans


def _cli_layers(workdir: str, wl: CliCold) -> dict:
    """Merge the per-process span files of the traced CLI runs."""
    parts, imports = [], []
    sweep_solve_ms = sweep_main_ms = 0.0
    for name in sorted(os.listdir(wl.trace_dir), key=lambda f: int(f.split(".")[0])):
        with open(os.path.join(wl.trace_dir, name)) as handle:
            part = json.load(handle)
        imports.append(part.pop("cli.import_ms"))
        sweep_solve_ms += part.pop("cli.sweep.solve_ms", 0.0)
        sweep_main_ms += part.pop("cli.sweep.main_ms", 0.0)
        parts.append(part)
    layers = spans.merge(parts)
    layers["cli.import_ms"] = statistics.median(imports) if imports else 0.0
    layers["cli.sweep.parallelism"] = sweep_solve_ms / sweep_main_ms if sweep_main_ms else 0.0
    bare = []
    for _ in range(3):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        bare.append(1e3 * (time.perf_counter() - t0))
    layers["cli.interpreter_ms"] = statistics.median(bare)
    return layers


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0-ns", dest="t0_ns", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--workers", type=int, default=2)
    ap.add_argument("--setup-only", dest="setup_only", action="store_true")
    args = ap.parse_args()

    cls = WORKLOADS[args.workload]
    cli = cls is CliCold
    if not cli:
        import cdeigen  # noqa: F401  (the import is part of set-up)
        wl = cls(args.seed, args.workdir)
    else:
        wl = cls(args.seed, args.workdir, workers=args.workers)
        wl.write_inputs()
    wl.warm_up()

    rec = state = None
    if args.trace and cli:
        wl.trace_dir = os.path.join(args.workdir, "spans")
        os.makedirs(wl.trace_dir, exist_ok=True)
    elif args.trace:
        rec = spans.Recorder()
        state = spans.install(rec)

    # cli_cold: each cold `--version` run of the warm-up is one set-up sample.
    setup = wl.setup_runs if cli else [(time.time_ns() - args.t0_ns) / 1e9]
    if args.setup_only:
        print(json.dumps({"setup_samples": setup}))
        return 0

    times, results, errors = [], [], []
    start = time.perf_counter()
    for op in wl.ops:
        t0 = time.perf_counter()
        try:
            results.append(wl.run(op))
            errors.append(None)
        except Exception as exc:  # every error is an outcome to record
            results.append(None)
            errors.append(getattr(exc, "code", type(exc).__name__))
        times.append(time.perf_counter() - t0)
    wall_s = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF)
    rss_mb = usage.ru_maxrss / 1024.0

    # Everything below is outside the timed region.
    layers = coverage = None
    if args.trace:
        layers = _cli_layers(args.workdir, wl) if cli else spans.layer_metrics(rec, state)
        coverage = wl.coverage(layers)
        if state is not None:
            coverage += [f"unwrapped binding {b}" for b in spans.unwrapped_bindings(state)]
    codes, harness = [], []
    for op, res, err in zip(wl.ops, results, errors):
        try:
            codes.append(wl.check(op, res, err))
        except Exception:
            codes.append("check-error")
            harness.append(f"{op['label']}: {traceback.format_exc(limit=2)}")

    print(json.dumps({
        "setup_samples": setup,
        "wall_s": wall_s,
        "rss_mb": rss_mb,
        "ops": [{"label": op["label"], "ms": 1e3 * t, "code": c}
                for op, t, c in zip(wl.ops, times, codes)],
        "layers": layers,
        "coverage": coverage,
        "harness_errors": harness,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
