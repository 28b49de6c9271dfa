"""Command-line front end.

Subcommands wrap the library operations one-to-one; reports are emitted as
JSON (default), CSV, or a plain human-readable listing.  Exit status is 0 on
success, 2 on a precondition violation, 3 on numerical nonconvergence.

Float formatting is deterministic: JSON uses the shortest round-trip
representation, CSV uses 17 significant digits.  ``NO_COLOR`` disables the
(minimal) styling of the human format.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .errors import CdeigenError, NonconvergenceError, PreconditionError

if TYPE_CHECKING:
    from .modelspace import Density


# ------------------------------------------------------------- density files

def load_density_csv(path: str, interp_dim: float = 2.0) -> Density:
    """Read a sampled density from a ``theta,h`` CSV file.

    Malformed content is reported with the offending line number; theta and
    h must be finite, theta must start at 0 and increase strictly, h must be
    nonnegative.
    """
    from .modelspace import Density

    try:
        handle = open(path, "r", newline="")
    except OSError as exc:
        raise PreconditionError("io", f"cannot read density file {path}: {exc}")
    with handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise PreconditionError("schema", f"{path}: empty file, expected header 'theta,h'")
        if [c.strip() for c in header] != ["theta", "h"]:
            raise PreconditionError(
                "schema",
                f"{path}: line 1: expected header 'theta,h', got {','.join(header)!r}",
            )
        thetas: list[float] = []
        values: list[float] = []
        for ln, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 2:
                raise PreconditionError(
                    "schema", f"{path}: line {ln}: expected 2 columns, got {len(row)}"
                )
            try:
                th, hv = float(row[0]), float(row[1])
            except ValueError:
                th = hv = math.nan
            if not (math.isfinite(th) and math.isfinite(hv)):
                raise PreconditionError(
                    "schema", f"{path}: line {ln}: expected two finite numbers, "
                    f"got {','.join(row)!r}"
                )
            if not thetas and th != 0.0:
                raise PreconditionError(
                    "monotonicity", f"{path}: line {ln}: theta must start at 0, got {th}"
                )
            if thetas and th <= thetas[-1]:
                raise PreconditionError(
                    "monotonicity",
                    f"{path}: line {ln}: theta {th} does not increase over {thetas[-1]}",
                )
            if hv < 0:
                raise PreconditionError(
                    "negative-value", f"{path}: line {ln}: negative density value {hv}"
                )
            thetas.append(th)
            values.append(hv)
    if len(thetas) < 3:
        raise PreconditionError(
            "schema", f"{path}: need at least 3 data rows, got {len(thetas)}"
        )
    return Density.sampled(thetas, values, interp_dim=interp_dim)


def write_density_csv(h: Density, path: str) -> None:
    """Write a sampled density as ``theta,h`` rows, 17 significant digits."""
    if h.kind != "sampled":
        raise PreconditionError("domain", "only sampled densities can be written to CSV")
    with open(path, "w", newline="") as handle:
        handle.write("theta,h\n")
        for th, hv in zip(h.grid, h.values):
            handle.write(f"{th:.17g},{hv:.17g}\n")


# ------------------------------------------------------------- computations
# Each compute function takes the parameter namespace and returns
# (result, diagnostics) as plain dicts with deterministic key order.  It
# imports the library functions it calls when it runs, so a command loads
# only the modules (and scipy subpackages) it needs.

def _density_from_params(p, fallback_N: float) -> Density:
    from .modelspace import Density

    has_csv = getattr(p, "csv", None) is not None
    has_model = getattr(p, "model_K", None) is not None
    if has_csv == has_model:
        raise PreconditionError(
            "domain", "provide exactly one density source: --csv PATH or --model-K FLOAT"
        )
    if has_csv:
        return load_density_csv(p.csv, interp_dim=p.interp_dim)
    model_N = p.model_N if p.model_N is not None else fallback_N
    return Density.model(p.model_K, model_N)


def _compute_model_eigen(p):
    from .bounds import closed_form_bound
    from .eigensolve import first_dirichlet_eigen
    from .modelspace import Density

    sol = first_dirichlet_eigen(Density.model(p.K, p.N), p.r0, tol=p.tol, method=p.method)
    bound = closed_form_bound(p.K, p.N, p.r0)
    exact = bound.value if bound.exact else None
    result = {
        "lambda": sol.eigenvalue,
        "exact_reference": exact,
        "upper_bound": bound.value,
        "upper_bound_exact": bound.exact,
    }
    diagnostics = {
        "method": sol.method,
        "tol": p.tol,
        "refinement_history": [float(v) for v in sol.refinement_history],
        "flux_residual": sol.flux_residual,
    }
    return result, diagnostics


def _compute_check_density(p):
    from .modelspace import check_cd_density

    h = load_density_csv(p.csv, interp_dim=p.interp_dim)
    interval = _parse_float_pair(p.interval, "interval") if p.interval else None
    rep = check_cd_density(h, p.K, p.N, tolerance=p.tol, interval=interval)
    result = {
        "satisfied": rep.satisfied,
        "worst_violation": rep.worst_violation,
        "witness_theta": rep.witness,
    }
    diagnostics = {
        "triples_checked": rep.triples_checked,
        "tolerance": rep.tolerance,
        "nodes": int(h.grid.size),
    }
    return result, diagnostics


def _compute_compare(p):
    from .comparison import comparison_residual, composed_tolerance

    h = _density_from_params(p, p.N)
    rep = comparison_residual(
        h, p.K, p.N, p.r0, p.theta,
        solver_tol=p.solver_tol, quad_tol=p.quad_tol,
        check_density=not p.no_density_check,
    )
    result = {
        "theta": rep.theta,
        "lhs": rep.lhs,
        "rhs": rep.rhs,
        "gap": rep.gap,
        "relative_gap": rep.relative_gap,
    }
    diagnostics = {
        "composed_tolerance": composed_tolerance(p.solver_tol, p.quad_tol),
        "solver_tol": p.solver_tol,
        "quad_tol": p.quad_tol,
        "density_checked": not p.no_density_check,
    }
    return result, diagnostics


def _compute_rigidity(p):
    from .comparison import rigidity_check

    h = _density_from_params(p, p.N)
    verdict = rigidity_check(
        h, p.K, p.N, p.r0, p.tol,
        solver_tol=p.solver_tol, quad_tol=p.quad_tol,
        check_density=not p.no_density_check,
    )
    result = {
        "rigid": verdict.rigid,
        "fitted_c": verdict.fitted_c,
        "max_relative_density_deviation": verdict.max_relative_density_deviation,
        "relative_gap": verdict.relative_gap,
    }
    diagnostics = {
        "tol": p.tol,
        "solver_tol": p.solver_tol,
        "quad_tol": p.quad_tol,
    }
    return result, diagnostics


def _compute_neumann_bound(p):
    from .bounds import mode_radius, neumann_upper_bound

    value = neumann_upper_bound(p.K, p.N, p.diam, p.j, method=p.method, solver_tol=p.tol)
    result = {
        "bound": value,
        "j": p.j,
        "r0": mode_radius(p.diam, p.j),
    }
    diagnostics = {"method": p.method, "tol": p.tol}
    return result, diagnostics


def _compute_ess_spectrum(p):
    from .bounds import essential_spectrum_threshold

    return {"threshold": essential_spectrum_threshold(p.K, p.N)}, {}


def _compute_kk_bound(p):
    from .physics import CompactificationSpec, kk_mass_bound_optimal

    spec = CompactificationSpec(D=p.D, d=p.d, Lambda=p.Lambda, sigma_w=p.sigma, diam=p.diam)
    res = kk_mass_bound_optimal(
        spec, p.j, method=p.method, grid_points=p.grid_points,
        golden_tol=p.golden_tol, want_profile=p.profile, solver_tol=p.tol,
    )
    result = {
        "j": res.j,
        "N_star": res.N_star,
        "K_star": res.K_star,
        "bound": res.bound,
        "bracketed": res.bracketed,
        "note": res.note,
    }
    if res.profile is not None:
        result["profile"] = [
            [n_val, b if math.isfinite(b) else None] for n_val, b in res.profile
        ]
    diagnostics = {
        "method": res.method,
        "grid_points": p.grid_points,
        "golden_tol": p.golden_tol,
    }
    return result, diagnostics


# ------------------------------------------------------------------ parsers

def _parse_float_pair(text: str, name: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise PreconditionError("domain", f"--{name} expects 'a,b', got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise PreconditionError("domain", f"--{name} expects numbers, got {text!r}")


def _add_common(p: argparse.ArgumentParser, default_format: str = "json") -> None:
    p.add_argument("--format", choices=("json", "csv", "human"), default=default_format,
                   help="report format (default: %(default)s)")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the report to PATH instead of standard output")
    p.add_argument("--config", default=None, metavar="PATH",
                   help="flat key=value file supplying defaults; flags override")


def _add_density_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--csv", default=None, metavar="PATH",
                   help="sampled density file with header theta,h")
    p.add_argument("--model-K", dest="model_K", type=float, default=None,
                   help="use the model density with this curvature instead of a file")
    p.add_argument("--model-N", dest="model_N", type=float, default=None,
                   help="dimension for --model-K (defaults to --N)")
    p.add_argument("--interp-dim", dest="interp_dim", type=float, default=2.0,
                   help="interpolation exponent parameter for sampled densities")


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The ``cdeigen`` parser and its subcommand parsers by name.

    Each command that computes a report carries its compute function as the
    parser default ``compute``; ``sweep`` has none.
    """
    top = argparse.ArgumentParser(
        prog="cdeigen",
        description="Eigenvalue comparison on weighted intervals: model "
                    "eigenvalues, CD(K,N) density checks, closed-form bounds, "
                    "and Kaluza-Klein mass bounds.",
    )
    top.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = top.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def command(name: str, compute, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(compute=compute)
        return p

    p = command("model-eigen", _compute_model_eigen,
                "first Dirichlet eigenvalue of the (K, N) model weight")
    p.add_argument("--K", type=float, required=True, help="curvature parameter")
    p.add_argument("--N", type=float, required=True, help="dimension parameter, > 1")
    p.add_argument("--r0", type=float, required=True, help="Dirichlet radius")
    p.add_argument("--tol", type=float, default=1e-8, help="solver relative tolerance")
    p.add_argument("--method", choices=("matrix", "shooting"), default="matrix")

    p = command("check-density", _compute_check_density,
                "scan a sampled density for CD(K,N) violations")
    p.add_argument("--csv", required=True, metavar="PATH")
    p.add_argument("--K", type=float, required=True)
    p.add_argument("--N", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-9,
                   help="relative violation tolerance per node")
    p.add_argument("--interval", default=None, help="test subinterval a,b")
    p.add_argument("--interp-dim", dest="interp_dim", type=float, default=2.0)

    p = command("compare", _compute_compare,
                "eigenvalue comparison integrals for a density at one point")
    _add_density_source(p)
    p.add_argument("--K", type=float, required=True)
    p.add_argument("--N", type=float, required=True)
    p.add_argument("--r0", type=float, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--solver-tol", dest="solver_tol", type=float, default=1e-8)
    p.add_argument("--quad-tol", dest="quad_tol", type=float, default=1e-10)
    p.add_argument("--no-density-check", dest="no_density_check", action="store_true",
                   help="skip the nodal CD test of the input density")

    p = command("rigidity", _compute_rigidity,
                "test whether a density is a multiple of the model weight")
    _add_density_source(p)
    p.add_argument("--K", type=float, required=True)
    p.add_argument("--N", type=float, required=True)
    p.add_argument("--r0", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-6, help="rigidity tolerance")
    p.add_argument("--solver-tol", dest="solver_tol", type=float, default=1e-8)
    p.add_argument("--quad-tol", dest="quad_tol", type=float, default=1e-10)
    p.add_argument("--no-density-check", dest="no_density_check", action="store_true")

    p = command("neumann-bound", _compute_neumann_bound,
                "upper bound for the j-th Neumann eigenvalue")
    p.add_argument("--K", type=float, required=True)
    p.add_argument("--N", type=float, required=True)
    p.add_argument("--diam", type=float, required=True, help="diameter of the space")
    p.add_argument("--j", type=int, default=1, help="Neumann mode index")
    p.add_argument("--method", choices=("closed_form", "solver"), default="closed_form")
    p.add_argument("--tol", type=float, default=1e-8, help="solver tolerance")

    p = command("ess-spectrum", _compute_ess_spectrum,
                "essential spectrum threshold for K <= 0, N >= 3")
    p.add_argument("--K", type=float, required=True, help="curvature, must be <= 0")
    p.add_argument("--N", type=float, required=True, help="dimension, must be >= 3")

    p = command("kk-bound", _compute_kk_bound,
                "Kaluza-Klein mass bound, optionally optimized over N")
    p.add_argument("--D", type=int, required=True, help="total dimension")
    p.add_argument("--d", type=int, required=True, help="spacetime dimension")
    p.add_argument("--Lambda", type=float, required=True, help="cosmological constant")
    p.add_argument("--sigma", type=float, required=True, help="warp gradient bound")
    p.add_argument("--diam", type=float, required=True, help="internal diameter")
    p.add_argument("--j", type=int, default=1, help="KK mode index")
    p.add_argument("--method", choices=("closed_form", "solver"), default="closed_form")
    p.add_argument("--grid-points", dest="grid_points", type=int, default=160)
    p.add_argument("--golden-tol", dest="golden_tol", type=float, default=1e-6)
    p.add_argument("--profile", action="store_true", help="include the scanned profile")
    p.add_argument("--tol", type=float, default=1e-8, help="solver tolerance")

    for p in sub.choices.values():
        _add_common(p)

    p = sub.add_parser("sweep", help="run one command over a parameter range")
    p.add_argument("target", help="command to sweep")
    p.add_argument("--over", required=True, metavar="NAME",
                   help="name of the numeric flag to vary")
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--workers", type=int, default=4)
    _add_common(p, default_format="csv")
    return top, sub.choices


# ------------------------------------------------------------- config files

def _extract_config(args: list[str]) -> tuple[str | None, list[str]]:
    path = None
    rest: list[str] = []
    i = 0
    while i < len(args):
        item = args[i]
        if item == "--config":
            if i + 1 >= len(args):
                raise PreconditionError("config", "--config requires a path")
            path = args[i + 1]
            i += 2
        elif item.startswith("--config="):
            path = item.split("=", 1)[1]
            i += 1
        else:
            rest.append(item)
            i += 1
    return path, rest


def _read_config_pairs(path: str) -> list[tuple[str, str]]:
    try:
        with open(path, "r") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise PreconditionError("io", f"cannot read config file {path}: {exc}")
    pairs = []
    for ln, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise PreconditionError(
                "config", f"{path}: line {ln}: expected key=value, got {raw!r}"
            )
        key, _, value = text.partition("=")
        pairs.append((key.strip(), value.strip()))
    return pairs


def _find_action(parser: argparse.ArgumentParser, key: str):
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue  # -h/--help is neither a config key nor a sweep parameter
        if key == action.dest or f"--{key}" in action.option_strings:
            return action
    return None


def _config_flags(parser: argparse.ArgumentParser, path: str | None) -> list[str]:
    """The flags of config file ``path`` for ``parser``, to go before the
    command line's own so that explicit flags override them."""
    if path is None:
        return []
    flags: list[str] = []
    for key, value in _read_config_pairs(path):
        action = _find_action(parser, key)
        if action is None:
            raise PreconditionError("config", f"{path}: unknown config key {key!r}")
        option = action.option_strings[-1]
        if action.nargs == 0:
            low = value.lower()
            if low in ("true", "1", "yes", "on"):
                flags.append(option)
            elif low in ("false", "0", "no", "off"):
                pass
            else:
                raise PreconditionError(
                    "config", f"{path}: key {key!r} expects a boolean, got {value!r}"
                )
        else:
            flags.extend([option, value])
    return flags


# ---------------------------------------------------------------- rendering

def _jsonsafe(obj):
    """JSON-safe copy: numpy scalars become Python ones, non-finite floats None."""
    if isinstance(obj, dict):
        return {k: _jsonsafe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonsafe(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _scalar_items(d: dict):
    for k, v in d.items():
        if isinstance(v, (bool, int, float, str)) or v is None:
            yield k, v


def _styler():
    if os.environ.get("NO_COLOR") is not None or not sys.stdout.isatty():
        return lambda s: s
    return lambda s: f"\x1b[1m{s}\x1b[0m"


def _render_envelope(envelope: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(_jsonsafe(envelope), indent=2, allow_nan=False) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        items = list(_scalar_items(envelope["result"]))
        writer.writerow([k for k, _ in items])
        writer.writerow([_csv_cell(v) for _, v in items])
        return buf.getvalue()
    bold = _styler()
    lines = [f"{bold('command')}: {envelope['command']}"]
    for section in ("inputs", "result", "diagnostics"):
        body = envelope.get(section)
        if not body:
            continue
        lines.append(bold(section))
        for k, v in body.items():
            if isinstance(v, float):
                lines.append(f"  {k} = {v!r}")
            else:
                lines.append(f"  {k} = {v}")
    lines.append(f"{bold('version')}: {envelope['version']}")
    return "\n".join(lines) + "\n"


def _render_rows(envelope: dict, columns: list[str], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(_jsonsafe(envelope), indent=2, allow_nan=False) + "\n"
    rows = envelope["result"]["rows"]
    header = [envelope["inputs"]["over"]] + columns + ["error"]
    if fmt == "csv":
        if not rows:
            return ""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(row.get(k)) for k in header])
        return buf.getvalue()
    bold = _styler()
    if not rows:
        return bold("(empty sweep)") + "\n"
    widths = {k: max(len(k), max(len(_csv_cell(r.get(k))) for r in rows)) for k in header}
    lines = ["  ".join(bold(k.ljust(widths[k])) for k in header)]
    for row in rows:
        lines.append("  ".join(_csv_cell(row.get(k)).ljust(widths[k]) for k in header))
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as handle:
            handle.write(text)
    except OSError as exc:
        raise PreconditionError("io", f"cannot write report file {out}: {exc}")


def _print_error(exc: CdeigenError) -> None:
    payload = {"error": {"code": exc.code, "message": str(exc)}}
    sys.stderr.write(json.dumps(payload) + "\n")


# ---------------------------------------------------------------- execution

def _run_single(ns: argparse.Namespace) -> int:
    inputs = {k: v for k, v in vars(ns).items()
              if k not in ("command", "compute", "format", "out", "config")}
    result, diagnostics = ns.compute(ns)
    envelope = {
        "command": ns.command,
        "inputs": _jsonsafe(inputs),
        "result": result,
        "diagnostics": diagnostics,
        "version": __version__,
    }
    _emit(_render_envelope(envelope, ns.format), ns.out)
    return 0


def _sweep_row(ns: argparse.Namespace) -> tuple[dict, str]:
    try:
        return ns.compute(ns)[0], ""
    except CdeigenError as exc:
        return {}, f"{exc.code}: {exc}"


def _run_sweep(ns: argparse.Namespace, passthrough: list[str],
               commands: dict[str, argparse.ArgumentParser]) -> int:
    targets = {name: p for name, p in commands.items() if p.get_default("compute")}
    if ns.target not in targets:
        raise PreconditionError(
            "domain", f"cannot sweep {ns.target!r}; choose one of {sorted(targets)}"
        )
    tparser = targets[ns.target]
    passthrough = _config_flags(tparser, ns.config) + passthrough

    action = _find_action(tparser, ns.over)
    if action is None:
        raise PreconditionError("domain", f"{ns.target} has no flag --{ns.over}")
    if action.type not in (float, int):
        raise PreconditionError("domain", f"--{ns.over} is not a numeric flag")
    if ns.count < 0:
        raise PreconditionError("domain", f"count must be nonnegative, got {ns.count}")
    if ns.workers < 1:
        raise PreconditionError("domain", f"workers must be at least 1, got {ns.workers}")
    option = action.option_strings[-1]

    # An infinite end leaves no finite points between; a NaN end reaches
    # the target, which reports it, except as an integer.
    ends = np.array([ns.start, ns.stop])
    if np.isinf(ends).any() or (action.type is int and np.isnan(ends).any()):
        raise PreconditionError(
            "domain", f"--{ns.over} needs finite ends, got start {ns.start}, stop {ns.stop}"
        )
    grid = np.linspace(ns.start, ns.stop, ns.count)
    grid[:1] = ns.start  # a NaN stop would swallow the start
    values = [int(v) if action.type is int else float(v) for v in grid]
    # "--K=-1e-05": a separate "-1e-05" would read as an option.
    row_args = [tparser.parse_args(passthrough + [f"{option}={v!r}"]) for v in values]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=min(ns.workers, len(values)) or 1) as pool:
        outcomes = list(pool.map(_sweep_row, row_args))
    rows: list[dict] = []
    columns: list[str] = []
    for v, (result, err) in zip(values, outcomes):
        row = {ns.over: v}
        for k, val in _scalar_items(result):
            if k == ns.over:
                continue
            row[k] = val
            if k not in columns:
                columns.append(k)
        row["error"] = err
        rows.append(row)

    envelope = {
        "command": "sweep",
        "inputs": {
            "target": ns.target,
            "over": ns.over,
            "start": ns.start,
            "stop": ns.stop,
            "count": ns.count,
            "args": passthrough,
        },
        "diagnostics": {"workers": ns.workers},
        "result": {"rows": rows},
        "version": __version__,
    }
    _emit(_render_rows(envelope, columns, ns.format), ns.out)
    return 0


def main(argv=None) -> int:
    """Entry point; returns the process exit status instead of raising."""
    args = list(sys.argv[1:] if argv is None else argv)
    try:
        top, commands = _build_parser()
        if args and args[0] == "sweep":
            return _run_sweep(*top.parse_known_args(args), commands)
        if args and args[0] in commands:
            path, rest = _extract_config(args[1:])
            args = args[:1] + _config_flags(commands[args[0]], path) + rest
        return _run_single(top.parse_args(args))
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    except PreconditionError as exc:
        _print_error(exc)
        return 2
    except NonconvergenceError as exc:
        _print_error(exc)
        return 3


def console_main() -> None:
    sys.exit(main(None))


if __name__ == "__main__":
    console_main()
