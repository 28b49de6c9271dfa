import ast
import json
import os
import pathlib
import re
import subprocess
import sys
import textwrap

import cdeigen


def test_all_names_resolve():
    for name in cdeigen.__all__:
        getattr(cdeigen, name)


def test_lazy_exports_are_the_submodule_objects():
    namespace = {}
    exec("from cdeigen import *", namespace)
    assert set(cdeigen.__all__) <= set(namespace)
    for name in cdeigen.__all__[1:]:
        value = getattr(cdeigen, name)
        assert namespace[name] is value, name
        assert value.__module__.startswith("cdeigen."), name
        assert getattr(sys.modules[value.__module__], name) is value, name
    assert not hasattr(cdeigen, "no_such_name")
    from cdeigen import bounds, physics
    assert bounds is sys.modules["cdeigen.bounds"]
    assert physics is sys.modules["cdeigen.physics"]


def _fresh_interpreter_report(body: str) -> dict:
    # A fresh interpreter, so that no other test has imported scipy yet.
    # ``body`` fills the dict ``report``, which is printed as JSON.
    code = textwrap.dedent("""
        import contextlib, io, json, sys

        def loaded(prefix):
            return sorted(m for m in sys.modules if m.split(".")[0] == prefix)

        def run(*argv):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(list(argv)) == 0, argv

        report = {}
    """) + textwrap.dedent(body) + "\nprint(json.dumps(report))\n"
    src = os.path.dirname(os.path.dirname(cdeigen.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    return json.loads(out.stdout)


UNUSED_BY_MATRIX = ("scipy.integrate", "scipy.interpolate", "scipy.optimize", "scipy.special")


def test_cold_cli_loads_only_the_scipy_it_needs():
    report = _fresh_interpreter_report("""
        import cdeigen
        import cdeigen.cli
        from cdeigen.cli import main
        report["import"] = loaded("scipy") + loaded("numpy")
        run("--version")
        report["version"] = loaded("numpy")
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(["ess-spectrum", "--K"]) == 2
        report["usage-error"] = loaded("numpy")
        run("ess-spectrum", "--K", "-1", "--N", "4")
        report["ess"] = loaded("scipy") + loaded("numpy")
        run("sweep", "ess-spectrum", "--over", "K", "--start", "-1", "--stop", "0",
            "--count", "3", "--N", "4")
        report["sweep"] = loaded("numpy")
        run("neumann-bound", "--K", "-1", "--N", "4", "--diam", "2")
        report["neumann"] = loaded("scipy")
        run("model-eigen", "--K", "-4", "--N", "3", "--r0", "1")
        report["model-eigen"] = loaded("scipy")
        # the closed-form reference at N = 4.5 needs a Bessel zero
        run("model-eigen", "--K", "-1", "--N", "4.5", "--r0", "1")
        report["model-eigen-zero"] = loaded("scipy")
        run("compare", "--model-K", "-4", "--K", "-4", "--N", "3", "--r0", "1",
            "--theta", "0.5")
        report["compare"] = loaded("scipy")
        report["mpmath"] = "mpmath" in sys.modules
    """)
    for step in ("import", "version", "usage-error", "ess", "sweep"):
        assert report[step] == [], step
    assert report["neumann"] == []
    for command in ("model-eigen", "model-eigen-zero", "compare"):
        assert "scipy.linalg" in report[command], command
        for module in UNUSED_BY_MATRIX:
            assert module not in report[command], (command, module)
    assert report["mpmath"] is False


def test_cold_ritz_route_loads_neither_special_nor_integrate():
    # the Ritz route takes eigh_tridiagonal and eigh from scipy.linalg only
    report = _fresh_interpreter_report("""
        from cdeigen.cli import main
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(["model-eigen", "--K", "-0.000666888962987663", "--N", "6000",
                         "--r0", "1"]) == 0
        report["method"] = json.loads(buf.getvalue())["diagnostics"]["method"]
        report["model-eigen"] = loaded("scipy")
    """)
    assert report["method"] == "spectral"
    assert "scipy.linalg" in report["model-eigen"]
    for module in ("scipy.special", "scipy.integrate"):
        assert module not in report["model-eigen"], module


def test_cold_kk_bound_loads_no_scipy():
    report = _fresh_interpreter_report("""
        from cdeigen.cli import main
        run("kk-bound", "--D", "6", "--d", "4", "--Lambda", "1", "--sigma", "2",
            "--diam", "2", "--grid-points", "16")
        report["kk"] = loaded("scipy")
    """)
    assert report["kk"] == []


def test_physics_loads_no_scipy_and_shooting_loads_its_solvers():
    report = _fresh_interpreter_report("""
        import cdeigen.physics
        from cdeigen.cli import main
        report["physics"] = loaded("scipy")
        run("model-eigen", "--K", "-4", "--N", "3", "--r0", "1", "--method", "shooting")
        report["shooting"] = loaded("scipy")
    """)
    assert report["physics"] == []
    assert "scipy.integrate" in report["shooting"]
    assert "scipy.optimize" in report["shooting"]


def _raised_codes(error_class: str) -> set:
    # Every string literal passed as the code of ``error_class`` in src/.
    codes = set()
    for path in pathlib.Path(cdeigen.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == error_class and node.args
                    and isinstance(node.args[0], ast.Constant)):
                codes.add(node.args[0].value)
    return codes


def test_readme_exit_code_table_lists_every_error_code():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    rows = {}
    for line in readme.read_text().splitlines():
        cells = [c.strip() for c in line.split("|")]
        if len(cells) == 4 and cells[1] in ("2", "3"):
            rows[int(cells[1])] = set(re.findall(r"`([^`]+)`", cells[2]))
    assert rows[2] == _raised_codes("PreconditionError")
    assert rows[3] == _raised_codes("NonconvergenceError")
