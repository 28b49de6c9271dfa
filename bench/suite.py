"""Run every workload and write the results with the baseline table.

    python3 bench/suite.py [--seed N] [--seconds S] [--out bench/baseline.json]

For each workload: one untraced run (end-to-end metrics, printed with their
units) and two traced runs (per-layer metrics).  The per-layer counts of the
two traced runs must agree exactly; any that differ are listed under
``count_drift``.  The output also holds the environment and the rows of
ROADMAP's baseline table (``bench/baseline_rows.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

import run
import spans
from workloads import WORKLOADS


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--out", default=os.path.join(run.BENCH, "baseline.json"))
    args = ap.parse_args(argv)
    if not run.checkout_ok():
        return 2
    workdir = run.work_dir()
    with open("BENCHMARK.json") as handle:
        whys = {w["name"]: w["why"] for w in json.load(handle)["workloads"]}
    report = {"command": f"python3 bench/suite.py --seed {args.seed} --seconds {args.seconds:g}",
              "environment": run.environment(args.seed), "workloads": {}}
    try:
        for name in WORKLOADS:
            plain = run.run_workload(name, args.seed, args.seconds, 0, workdir)
            run.print_run(name, plain)
            traced = [run.run_workload(name, args.seed, args.seconds, 1, workdir)
                      for _ in range(2)]
            run.print_run(name, traced[0])
            first, second = (t["metrics"] for t in traced)
            drift = [m for m in spans.COUNT_METRICS if first[m] != second[m]]
            facts = plain["facts"]
            report["workloads"][name] = {
                "why": whys[name],
                "correct": plain["correct"] and all(t["correct"] for t in traced),
                "passes": facts["passes"],
                "operations": facts["operations"],
                "attempted": facts["attempted"],
                "failed": facts["failed"],
                "fail_share": facts["fail_share"],
                "failures": facts["failures"],
                "op_ms_tail_percentile": facts["tail_percentile"],
                "end_to_end": plain["metrics"],
                "per_layer": first,
                "trace_overhead_ms": first["trace.overhead_ms"]["value"],
                "determinism": {"traced_runs": 2, "count_drift": drift},
            }
            print(f"  determinism over two traced runs: "
                  f"{'counts identical' if not drift else 'DRIFT in ' + ', '.join(drift)}")
        rows = subprocess.run([sys.executable, os.path.join(run.BENCH, "baseline_rows.py")],
                              env=run.child_env(), capture_output=True, text=True,
                              timeout=600, check=True)
        report["baseline_table"] = json.loads(rows.stdout.strip().splitlines()[-1])
    except run.HarnessError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for row in report["baseline_table"]:
        value = f"{row['wall_ms']:.1f} ms wall" if "wall_ms" in row else \
            f"{row['cold_ms']:.1f} ms cold, {row['warm_ms']:.1f} ms warm"
        print(f"{row['name']}: {value} {row['counts']}")
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
