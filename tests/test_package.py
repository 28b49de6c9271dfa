import json
import os
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


def test_cold_cli_loads_only_the_scipy_it_needs():
    # A fresh interpreter, so that no other test has imported scipy yet.
    code = textwrap.dedent("""
        import contextlib, io, json, sys

        def loaded(prefix):
            return sorted(m for m in sys.modules if m.split(".")[0] == prefix)

        def run(*argv):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(list(argv)) == 0, argv

        import cdeigen
        import cdeigen.cli
        from cdeigen.cli import main
        report = {"import": loaded("scipy")}
        run("--version")
        run("ess-spectrum", "--K", "-1", "--N", "4")
        report["ess"] = loaded("scipy")
        run("neumann-bound", "--K", "-1", "--N", "4", "--diam", "2")
        report["neumann"] = loaded("scipy")
        report["mpmath"] = "mpmath" in sys.modules
        print(json.dumps(report))
    """)
    src = os.path.dirname(os.path.dirname(cdeigen.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    report = json.loads(out.stdout)
    assert report["import"] == []
    assert report["ess"] == []
    assert "scipy.special" in report["neumann"]
    assert "scipy.integrate" not in report["neumann"]
    assert "scipy.interpolate" not in report["neumann"]
    assert report["mpmath"] is False
