"""Run the cdeigen command line with spans recorded.

    BENCH_SPANS=out.json python3 bench/cli_trace.py <cdeigen arguments>

Behaves like ``python -m cdeigen.cli`` (same output and exit status) and
writes this process's per-layer metrics to the file named by BENCH_SPANS,
including the time taken by ``import cdeigen.cli``.
"""

import json
import os
import sys
import time

start = time.perf_counter()
import cdeigen.cli  # noqa: E402

import_ms = 1e3 * (time.perf_counter() - start)

import spans  # noqa: E402


def main() -> int:
    rec = spans.Recorder()
    state = spans.install(rec)
    argv = sys.argv[1:]
    code = rec.wrap("cli.main", cdeigen.cli.main)(argv)
    layers = spans.layer_metrics(rec, state)
    main_span = next(s for s in rec.spans if s[0] == "cli.main")
    layers["cli.main.calls"] = 1
    layers["cli.main.self_ms"] = 1e3 * main_span[4]
    layers["cli.import_ms"] = import_ms
    if argv and argv[0] == "sweep":
        layers["cli.sweep.main_ms"] = 1e3 * (main_span[3] - main_span[2])
        layers["cli.sweep.solve_ms"] = 1e3 * sum(
            s[3] - s[2] for s in rec.spans if s[0] == spans.SOLVE)
    with open(os.environ["BENCH_SPANS"], "w") as handle:
        json.dump(layers, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
