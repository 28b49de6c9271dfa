import os
import subprocess
import sys

import cdeigen


def test_all_names_resolve():
    for name in cdeigen.__all__:
        getattr(cdeigen, name)


def test_cli_import_does_not_load_mpmath():
    code = "import sys, cdeigen.cli; print('mpmath' in sys.modules)"
    src = os.path.dirname(os.path.dirname(cdeigen.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"
