import json
import math
import os
import re

import numpy as np
import pytest

import cdeigen
from cdeigen.cli import _sweep_grid, load_density_csv, main
from cdeigen.errors import PreconditionError
from cdeigen.modelspace import Density, model_density
from density_csv import write_density_csv


def write_model_csv(path, K, N, scale=1.0, nodes=400, right=1.0):
    grid = np.linspace(0.0, right, nodes)
    h = Density.sampled(grid, scale * model_density(K, N, grid), interp_dim=N)
    write_density_csv(h, str(path))
    return path


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------- csv i/o

def test_density_csv_round_trip(tmp_path):
    grid = np.linspace(0.0, 2.0, 57)
    vals = model_density(-1.5, 2.5, grid)
    h = Density.sampled(grid, vals, interp_dim=2.5)
    path = tmp_path / "d.csv"
    write_density_csv(h, str(path))
    back = load_density_csv(str(path), interp_dim=2.5)
    # 17 significant digits reproduce doubles exactly
    assert np.array_equal(back.grid, h.grid)
    assert np.array_equal(back.values, h.values)


def test_load_density_csv_errors(tmp_path):
    cases = [
        ("", "schema"),
        ("x,y\n0,1\n1,1\n2,1\n", "schema"),
        ("theta,h\n0,1\n1\n2,1\n", "schema"),
        ("theta,h\n0,1\n1,abc\n2,1\n", "schema"),
        ("theta,h\n0.5,1\n1,1\n2,1\n", "monotonicity"),
        ("theta,h\n0,1\n1,1\n0.5,1\n", "monotonicity"),
        ("theta,h\n0,1\n1,-2\n2,1\n", "negative-value"),
        ("theta,h\n0,1\n1,1\n", "schema"),
        ("theta,h\n0,1\nnan,1\n2,1\n", "schema"),
        ("theta,h\n0,1\n1,1\ninf,1\n", "schema"),
        ("theta,h\n0,1\n1,nan\n2,1\n", "schema"),
        ("theta,h\n0,1\n1,inf\n2,1\n", "schema"),
    ]
    for i, (content, code) in enumerate(cases):
        p = tmp_path / f"bad{i}.csv"
        p.write_text(content)
        with pytest.raises(PreconditionError) as exc:
            load_density_csv(str(p))
        assert exc.value.code == code, content

    with pytest.raises(PreconditionError) as exc:
        load_density_csv(str(tmp_path / "missing.csv"))
    assert exc.value.code == "io"


def test_load_density_csv_reports_line_numbers(tmp_path):
    p = tmp_path / "bad.csv"
    for content in ("theta,h\n0,1\n1,1\n0.5,1\n", "theta,h\n0,1\n1,1\nnan,1\n"):
        p.write_text(content)
        with pytest.raises(PreconditionError) as exc:
            load_density_csv(str(p))
        assert "line 4" in str(exc.value), content


def test_load_density_csv_skips_blank_lines(tmp_path):
    p = tmp_path / "gaps.csv"
    p.write_text("theta,h\n0,0\n\n0.5,1\n\n1,2\n")
    h = load_density_csv(str(p))
    assert h.grid.size == 3


# ---------------------------------------------------------------- envelopes

def test_model_eigen_json_envelope(capsys):
    rc, out, err = run_cli(capsys, "model-eigen", "--K", "0", "--N", "3", "--r0", "1")
    assert rc == 0 and err == ""
    doc = json.loads(out)
    assert list(doc) == ["command", "inputs", "result", "diagnostics", "version"]
    assert doc["command"] == "model-eigen"
    assert doc["version"] == cdeigen.__version__
    assert doc["inputs"]["K"] == 0.0 and doc["inputs"]["r0"] == 1.0
    lam = doc["result"]["lambda"]
    assert lam == pytest.approx(math.pi ** 2, rel=1e-7)
    assert doc["result"]["exact_reference"] == pytest.approx(math.pi ** 2, rel=1e-12)
    assert doc["result"]["upper_bound_exact"] is True
    assert doc["diagnostics"]["flux_residual"] < 1e-6
    assert isinstance(doc["diagnostics"]["refinement_history"], list)


def test_every_command_is_deterministic(capsys, tmp_path):
    dens = write_model_csv(tmp_path / "d.csv", -1.0, 3.0)
    dens7 = write_model_csv(tmp_path / "d7.csv", -1.0, 3.0, scale=7.0)
    commands = [
        ["model-eigen", "--K", "-1", "--N", "3", "--r0", "1"],
        ["model-eigen", "--K", "0.5", "--N", "2.5", "--r0", "1.2",
         "--method", "shooting", "--format", "human"],
        ["check-density", "--csv", str(dens), "--K", "-1", "--N", "3",
         "--interp-dim", "3"],
        ["compare", "--K", "-1", "--N", "3", "--r0", "1", "--theta", "0.7",
         "--model-K", "0", "--format", "csv"],
        ["rigidity", "--csv", str(dens7), "--K", "-1", "--N", "3", "--r0", "1",
         "--interp-dim", "3"],
        ["neumann-bound", "--K", "0", "--N", "3", "--diam", "2", "--j", "2"],
        ["ess-spectrum", "--K", "-4", "--N", "3", "--format", "csv"],
        ["kk-bound", "--D", "6", "--d", "4", "--Lambda", "1", "--sigma", "2",
         "--diam", "2", "--profile"],
        ["sweep", "ess-spectrum", "--over", "K", "--start", "-4", "--stop", "0",
         "--count", "5", "--N", "4", "--workers", "3"],
    ]
    for argv in commands:
        rc1, out1, err1 = run_cli(capsys, *argv)
        rc2, out2, err2 = run_cli(capsys, *argv)
        assert rc1 == rc2 == 0, argv
        assert out1 == out2, argv
        assert err1 == err2 == "", argv
        assert out1  # something was printed


def test_csv_format_single_run(capsys):
    rc, out, _ = run_cli(capsys, "ess-spectrum", "--K", "-4", "--N", "3",
                         "--format", "csv")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "threshold"
    assert lines[1] == "2"


def test_human_format_plain_text(capsys, monkeypatch):
    monkeypatch.setenv("NO_COLOR", "1")
    rc, out, _ = run_cli(capsys, "ess-spectrum", "--K", "-4", "--N", "3",
                         "--format", "human")
    assert rc == 0
    assert "\x1b[" not in out
    assert "command: ess-spectrum" in out
    assert "threshold = 2" in out


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "result.json"
    rc, out, err = run_cli(capsys, "ess-spectrum", "--K", "-2", "--N", "4",
                           "--out", str(target))
    assert rc == 0
    assert out == "" and err == ""
    doc = json.loads(target.read_text())
    assert doc["result"]["threshold"] == pytest.approx(1.5)


@pytest.mark.parametrize("argv", [
    ["ess-spectrum", "--K", "-1", "--N", "3"],
    ["sweep", "ess-spectrum", "--over", "K", "--start", "-1", "--stop", "0",
     "--count", "2", "--N", "3"],
])
def test_unwritable_out_is_an_io_error(capsys, tmp_path, argv):
    target = str(tmp_path / "missing" / "x.json")
    rc, out, err = run_cli(capsys, *argv, "--out", target)
    assert rc == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "io" and target in error["message"]


def test_check_density_flags_violation(capsys, tmp_path):
    dens = write_model_csv(tmp_path / "low.csv", -3.0, 3.0, right=1.5)
    rc, out, _ = run_cli(capsys, "check-density", "--csv", str(dens),
                         "--K", "-1", "--N", "3", "--interp-dim", "3")
    assert rc == 0
    doc = json.loads(out)
    assert doc["result"]["satisfied"] is False
    assert doc["result"]["worst_violation"] < -1e-4
    assert 0 < doc["result"]["witness_theta"] < 1.5


def test_check_density_interval(capsys, tmp_path):
    dens = write_model_csv(tmp_path / "m.csv", -1.0, 3.0, right=1.5)
    argv = ["check-density", "--csv", str(dens), "--K", "-1", "--N", "3", "--interp-dim", "3"]
    rc, out, _ = run_cli(capsys, *argv)
    whole = json.loads(out)["diagnostics"]["triples_checked"]
    rc, out, _ = run_cli(capsys, *argv, "--interval", "0.5,1.0")
    assert rc == 0
    doc = json.loads(out)
    assert doc["result"]["satisfied"] is True
    # only the nodes inside (0.5, 1.0), a third of the 398 interior ones
    assert 0 < doc["diagnostics"]["triples_checked"] < whole / 2
    for text, message in (("0.5", "expects 'a,b'"), ("0.5,1,2", "expects 'a,b'"),
                          ("a,b", "expects numbers"), ("0.5,", "expects numbers")):
        rc, out, err = run_cli(capsys, *argv, f"--interval={text}")
        assert (rc, out) == (2, ""), text
        error = json.loads(err)["error"]
        assert error["code"] == "domain" and message in error["message"], text


def test_kk_bound_profile_rows(capsys):
    rc, out, _ = run_cli(capsys, "kk-bound", "--D", "6", "--d", "4",
                         "--Lambda", "1", "--sigma", "2", "--diam", "2",
                         "--grid-points", "16", "--profile")
    assert rc == 0
    doc = json.loads(out)
    assert doc["result"]["bracketed"] is True
    prof = doc["result"]["profile"]
    assert len(prof) == 16
    assert all(len(row) == 2 for row in prof)
    assert doc["result"]["bound"] <= min(b for _, b in prof if b is not None)


def test_version_flag(capsys):
    # argparse raises SystemExit(0); main converts it to a return code
    assert main(["--version"]) == 0
    assert cdeigen.__version__ in capsys.readouterr().out


# ---------------------------------------------------------------- exit codes

@pytest.mark.parametrize("argv,code", [
    (["ess-spectrum", "--K", "-4", "--N", "3"], 0),
    (["ess-spectrum", "--K", "1", "--N", "3"], 2),       # hypothesis violation
    (["model-eigen", "--K", "1", "--N", "3", "--r0", "10"], 2),  # past diameter
    (["model-eigen", "--K", "0", "--N", "3", "--r0", "1", "--tol", "1"], 2),
    (["compare", "--K", "0", "--N", "3", "--r0", "1", "--theta", "0.5",
      "--model-K", "0", "--quad-tol", "1e-18"], 3),      # quadrature starves
    (["kk-bound", "--D", "6", "--d", "4", "--Lambda", "80", "--sigma", "0",
      "--diam", "50"], 2),                               # infeasible everywhere
])
def test_exit_codes(capsys, argv, code):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == code, (argv, out, err)
    if code == 0:
        assert err == ""
    else:
        doc = json.loads(err)
        assert set(doc["error"]) == {"code", "message"}


@pytest.mark.parametrize("argv,name", [
    (["ess-spectrum", "--K", "nan", "--N", "3"], "K"),
    (["ess-spectrum", "--K", "-1", "--N", "inf"], "N"),
    (["neumann-bound", "--K", "nan", "--N", "3", "--diam", "1"], "K"),
    (["neumann-bound", "--K", "-1", "--N=-inf", "--diam", "1"], "N"),
    (["model-eigen", "--K", "nan", "--N", "3", "--r0", "1"], "K"),
    (["model-eigen", "--K", "-1", "--N", "nan", "--r0", "1"], "N"),
    (["compare", "--model-K", "nan", "--K", "-1", "--N", "3", "--r0", "1",
      "--theta", "0.5"], "K"),
    (["compare", "--model-K", "-1", "--K", "nan", "--N", "3", "--r0", "1",
      "--theta", "0.5"], "K"),
    (["check-density", "--csv", "{csv}", "--K", "nan", "--N", "3"], "K"),
    (["check-density", "--csv", "{csv}", "--K", "-1", "--N", "inf"], "N"),
])
def test_non_finite_K_or_N_is_a_domain_error(capsys, tmp_path, argv, name):
    csv_path = str(write_model_csv(tmp_path / "h.csv", -1.0, 3.0))
    rc, out, err = run_cli(capsys, *(a.replace("{csv}", csv_path) for a in argv))
    assert rc == 2 and out == "", (argv, out, err)
    error = json.loads(err)["error"]
    assert error["code"] == "domain"
    assert error["message"].startswith(f"{name} must be finite")


@pytest.mark.parametrize("argv, rows, code, text", [
    (["check-density", "--K", "-1", "--N", "3"], "nan,1", "schema", "line 5"),
    (["compare", "--K", "-1", "--N", "3", "--r0", "1", "--theta", "0.5"], "nan,1",
     "schema", "line 5"),
    (["compare", "--K", "-1", "--N", "3", "--r0", "1", "--theta", "0.5"], "inf,1",
     "schema", "line 5"),
    (["compare", "--K", "-1", "--N", "3", "--r0", "1", "--theta", "0.5",
      "--interp-dim", "nan"], "", "domain", "interp_dim must be finite"),
    (["compare", "--K", "-1", "--N", "3", "--r0", "1", "--theta", "0.5",
      "--interp-dim", "inf"], "", "domain", "interp_dim must be finite"),
    (["check-density", "--K", "-1", "--N", "3", "--tol", "nan"], "", "domain",
     "tolerance must be finite"),
    (["check-density", "--K", "-1", "--N", "3", "--tol=-1e-9"], "", "domain",
     "tolerance must be nonnegative"),
])
def test_bad_density_input_exits_two(capsys, tmp_path, argv, rows, code, text):
    # a CSV of theta = 0, 1, 2, with an optional bad last row on line 5
    path = tmp_path / "h.csv"
    lines = ["theta,h", "0,0", "1,1", "2,4", rows]
    path.write_text("\n".join(line for line in lines if line) + "\n")
    rc, out, err = run_cli(capsys, *argv, "--csv", str(path))
    assert rc == 2 and out == "", (argv, out, err)
    error = json.loads(err)["error"]
    assert error["code"] == code and text in error["message"], error


def test_argparse_failures_exit_two(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    assert main(["model-eigen", "--K", "0", "--N", "3"]) == 2  # missing --r0
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------- config files

def test_config_file_supplies_defaults(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# stored parameters\nK = -4\nN = 3\n")
    rc, out, _ = run_cli(capsys, "ess-spectrum", "--config", str(cfg))
    assert rc == 0
    assert json.loads(out)["result"]["threshold"] == pytest.approx(2.0)


def test_config_flag_override_wins(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("K = -4\nN = 3\n")
    rc, out, _ = run_cli(capsys, "ess-spectrum", "--config", str(cfg), "--K", "0")
    assert rc == 0
    assert json.loads(out)["result"]["threshold"] == 0.0


def test_config_boolean_and_equals_form(capsys, tmp_path):
    cfg = tmp_path / "kk.cfg"
    cfg.write_text("D=6\nd=4\nLambda=1\nsigma=2\ndiam=2\nprofile=true\n"
                   "grid-points=12\n")
    rc, out, _ = run_cli(capsys, "kk-bound", f"--config={cfg}")
    assert rc == 0
    assert len(json.loads(out)["result"]["profile"]) == 12


def test_config_unknown_key_rejected(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("K=-4\nNN=3\n")
    rc, _, err = run_cli(capsys, "ess-spectrum", "--config", str(cfg))
    assert rc == 2
    doc = json.loads(err)
    assert doc["error"]["code"] == "config"
    assert "NN" in doc["error"]["message"]
    # -h/--help is an option of every command, but no config key
    cfg.write_text("K=-4\nN=3\nhelp = true\n")
    rc, out, err = run_cli(capsys, "ess-spectrum", "--config", str(cfg))
    assert rc == 2 and out == ""
    assert json.loads(err)["error"]["code"] == "config"


def test_config_malformed_line_rejected(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("K=-4\njust some words\n")
    rc, _, err = run_cli(capsys, "ess-spectrum", "--config", str(cfg))
    assert rc == 2
    assert "line 2" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("spelling", ["--conf PATH", "--conf=PATH", "--config=PATH"])
def test_config_path_in_any_spelling_the_parser_accepts(capsys, tmp_path, spelling):
    # the file supplies the required --K; -4 makes lambda = 2 + pi^2 at N = 3, r0 = 1
    cfg = tmp_path / "model.cfg"
    cfg.write_text("K = -4\n")
    flag = spelling.replace("PATH", str(cfg)).split(" ")
    rc, out, err = run_cli(capsys, "model-eigen", *flag, "--N", "3", "--r0", "1")
    assert rc == 0, err
    doc = json.loads(out)
    assert doc["inputs"]["K"] == -4.0
    assert doc["result"]["lambda"] == pytest.approx(2.0 + math.pi ** 2, rel=1e-8)
    # a flag on the command line still overrides the file
    rc, out, _ = run_cli(capsys, "model-eigen", *flag, "--K", "0", "--N", "3", "--r0", "1")
    assert json.loads(out)["inputs"]["K"] == 0.0
    rc, out, err = run_cli(capsys, "sweep", "model-eigen", "--over", "r0", "--start", "1",
                           "--stop", "2", "--count", "2", "--N", "3", *flag)
    assert rc == 0, err
    lam = [float(line.split(",")[1]) for line in out.strip().split("\n")[1:]]
    assert lam == pytest.approx([2.0 + math.pi ** 2, 2.0 + math.pi ** 2 / 4.0], rel=1e-8)


# ---------------------------------------------------------------- sweep

def test_sweep_values_and_order(capsys):
    rc, out, _ = run_cli(capsys, "sweep", "ess-spectrum", "--over", "K",
                         "--start", "-4", "--stop", "0", "--count", "5",
                         "--N", "4")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "K,threshold,error"
    ks = []
    for line in lines[1:]:
        k, thr, err = line.split(",")
        assert err == ""
        assert float(thr) == pytest.approx(-0.75 * float(k), abs=1e-12)
        ks.append(float(k))
    assert ks == sorted(ks)
    assert ks[0] == -4.0 and ks[-1] == 0.0


def test_sweep_rows_with_errors_keep_exit_zero(capsys):
    rc, out, _ = run_cli(capsys, "sweep", "ess-spectrum", "--over", "K",
                         "--start", "-1", "--stop", "1", "--count", "3",
                         "--N", "3")
    assert rc == 0
    lines = out.strip().split("\n")
    assert len(lines) == 4
    good = lines[1].split(",")
    assert good[2] == ""
    bad = lines[3].split(",", maxsplit=2)
    assert bad[1] == ""  # no value for the infeasible row
    assert bad[2].startswith("hypothesis")


def test_sweep_eigenvalue_rows(capsys):
    rc, out, _ = run_cli(capsys, "sweep", "model-eigen", "--over", "r0",
                         "--start", "0.5", "--stop", "1.5", "--count", "3",
                         "--K", "0", "--N", "3")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("r0,lambda,")
    assert lines[0].endswith(",error")
    for line in lines[1:]:
        parts = line.split(",")
        r0, lam = float(parts[0]), float(parts[1])
        assert lam == pytest.approx(math.pi ** 2 / r0 ** 2, rel=1e-6)


def test_sweep_validation(capsys):
    assert main(["sweep", "ess-spectrum", "--over", "bogus", "--start", "0",
                 "--stop", "1", "--count", "2", "--N", "3"]) == 2
    capsys.readouterr()
    assert main(["sweep", "nonexistent", "--over", "K", "--start", "0",
                 "--stop", "1", "--count", "2"]) == 2
    capsys.readouterr()
    # --format is not a numeric parameter, cannot sweep over it
    assert main(["sweep", "ess-spectrum", "--over", "format", "--start", "0",
                 "--stop", "1", "--count", "2", "--N", "3"]) == 2
    capsys.readouterr()
    base = ["--start", "0", "--stop", "1", "--count", "2"]
    for argv in (["ess-spectrum", "--over", "help", *base, "--N", "3"],
                 ["sweep", "--over", "K", *base],
                 ["ess-spectrum", "--over", "K", *base, "--N", "3", "--workers", "0"],
                 ["ess-spectrum", "--over", "K", *base, "--N", "3", "--workers", "-3"],
                 ["neumann-bound", "--over", "j", "--start", "nan", "--stop", "2",
                  "--count", "2", "--K", "0", "--N", "3", "--diam", "1"]):
        rc, out, err = run_cli(capsys, "sweep", *argv)
        assert rc == 2 and out == "", argv
        assert json.loads(err)["error"]["code"] == "domain", argv


def test_sweep_json_reports_non_finite_inputs_as_null(capsys):
    rc, out, err = run_cli(capsys, "sweep", "ess-spectrum", "--over", "K",
                           "--start", "nan", "--stop", "0", "--count", "2",
                           "--N", "3", "--format", "json")
    assert rc == 0 and err == ""
    doc = json.loads(out)
    assert doc["inputs"]["start"] is None
    first, second = doc["result"]["rows"]
    assert first["K"] is None and first["error"].startswith("domain")
    assert second == {"K": 0.0, "threshold": 0.0, "error": ""}


def test_command_table(capsys, monkeypatch):
    # long command names put their help on the next line; a narrow terminal
    # would wrap the help text itself
    monkeypatch.setenv("COLUMNS", "200")
    assert main(["--help"]) == 0
    listed = dict(re.findall(r"^    (\S+)\s+(.+)$", capsys.readouterr().out, re.M))
    assert listed == {
        "model-eigen": "first Dirichlet eigenvalue of the (K, N) model weight",
        "check-density": "scan a sampled density for CD(K,N) violations",
        "compare": "eigenvalue comparison integrals for a density at one point",
        "rigidity": "test whether a density is a multiple of the model weight",
        "neumann-bound": "upper bound for the j-th Neumann eigenvalue",
        "ess-spectrum": "essential spectrum threshold for K <= 0, N >= 3",
        "kk-bound": "Kaluza-Klein mass bound, optionally optimized over N",
        "sweep": "run one command over a parameter range",
    }
    # every command but sweep itself is a sweep target
    over = {"model-eigen": "r0", "check-density": "K", "compare": "theta",
            "rigidity": "r0", "neumann-bound": "diam", "ess-spectrum": "K",
            "kk-bound": "diam"}
    assert set(over) == set(listed) - {"sweep"}
    for target, name in over.items():
        rc, out, err = run_cli(capsys, "sweep", target, "--over", name, "--start", "0",
                               "--stop", "1", "--count", "0")
        assert (rc, out, err) == (0, "", ""), target


def test_sweep_count_edge_cases(capsys):
    # zero points is an empty but well-formed sweep; negative is an error
    rc, out, err = run_cli(capsys, "sweep", "ess-spectrum", "--over", "K",
                           "--start", "0", "--stop", "1", "--count", "0",
                           "--N", "3")
    assert rc == 0
    assert out == ""  # no rows, so no columns to name
    rc, _, err = run_cli(capsys, "sweep", "ess-spectrum", "--over", "K",
                         "--start", "0", "--stop", "1", "--count", "-2",
                         "--N", "3")
    assert rc == 2
    assert json.loads(err)["error"]["code"] == "domain"


def test_sweep_human_table(capsys, monkeypatch):
    monkeypatch.setenv("NO_COLOR", "1")
    argv = ["sweep", "ess-spectrum", "--over", "K", "--start", "-4", "--stop", "1",
            "--count", "3", "--N", "3", "--format", "human"]
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, err) == (0, "")
    error = "hypothesis: hypothesis K <= 0 violated: got K = 1.0"
    assert [line.rstrip() for line in out.split("\n")] == [
        "K     threshold  error",
        "-4    2",
        "-1.5  0.75",
        "1" + " " * 16 + error,
        "",
    ]
    argv[argv.index("--count") + 1] = "0"
    rc, out, _ = run_cli(capsys, *argv)
    assert (rc, out) == (0, "(empty sweep)\n")


def test_sweep_reaches_a_negative_start_in_exponent_form(capsys):
    # repr(-1e-05) is "-1e-05", which argparse would read as an option
    rc, out, err = run_cli(capsys, "sweep", "ess-spectrum", "--over", "K",
                           "--start=-0.00001", "--stop", "0", "--count", "2", "--N", "4")
    assert (rc, err) == (0, "")
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert [float(r[0]) for r in rows] == [-1e-05, 0.0]
    assert all(r[2] == "" for r in rows)


def test_negative_values_in_exponent_form(capsys):
    # argparse before Python 3.13 reads "-2.5e-3" as an option, not a value
    rc, out, err = run_cli(capsys, "ess-spectrum", "--K", "-2.5e-3", "--N", "4")
    assert (rc, err) == (0, "")
    assert json.loads(out)["result"]["threshold"] == 3.0 * 2.5e-3 / 4.0
    rc, out, err = run_cli(capsys, "neumann-bound", "--K", "-1E-2", "--N", "4", "--diam", "1",
                           "--format", "csv")
    assert (rc, err) == (0, "")
    rc, out, err = run_cli(capsys, "sweep", "ess-spectrum", "--over", "K", "--start", "-1e-05",
                           "--stop", "-2e-05", "--count", "2", "--N", "4")
    assert (rc, err) == (0, "")
    assert [float(line.split(",")[0]) for line in out.strip().split("\n")[1:]] == [-1e-05, -2e-05]
    rc, out, err = run_cli(capsys, "sweep", "ess-spectrum", "--over", "N", "--start", "3",
                           "--stop", "4", "--count", "2", "--K", "-2.5e-3", "--format", "json")
    assert (rc, err) == (0, "")
    assert json.loads(out)["result"]["rows"][1]["threshold"] == 3.0 * 2.5e-3 / 4.0
    rc, out, err = run_cli(capsys, "ess-spectrum", "--K", "-inf", "--N", "4")
    assert rc == 2 and json.loads(err)["error"]["message"] == "K must be finite, got -inf"


@pytest.mark.parametrize("argv", [
    ["model-eigen", "--K", "-1001", "--N", "1.001", "--r0", "1"],
    ["model-eigen", "--K", "-1e6", "--N", "4", "--r0", "1"],
    ["model-eigen", "--K", "-1e6", "--N", "4", "--r0", "1", "--method", "shooting"],
])
def test_overflowing_model_weight_exits_two(capsys, argv):
    # The name records that the weight at the scale of r0 overflows on each
    # of these; solved on [0, 1] the first exits 0 and the other two end in
    # their route's coded nonconvergence error, exit 3
    rc, out, err = run_cli(capsys, *argv)
    if argv[2] == "-1001":
        assert (rc, err) == (0, "")
        assert json.loads(out)["result"]["lambda"] == pytest.approx(3.6237530852, rel=1e-8)
        return
    assert rc == 3 and out == ""
    error = json.loads(err)["error"]  # the one line on stderr
    assert error["code"] == ("shooting" if "shooting" in argv else "refinement")


@pytest.mark.parametrize("argv, radius, kind", [
    # lambda = pi^2 / r0^2 is about 1e320 and 1e400: past double precision
    (["model-eigen", "--K", "0", "--N", "3", "--r0", "1e-160"], "1e-160", "leaves double"),
    (["model-eigen", "--K", "0", "--N", "3", "--r0", "1e-200"], "1e-200", "leaves double"),
    # shooting solves the same unit problem
    (["model-eigen", "--K", "0", "--N", "3", "--r0", "1e-160", "--method", "shooting"], "1e-160",
     "leaves double"),
    (["neumann-bound", "--K", "-1", "--N", "4", "--diam", "1e-170"], "5e-171", "too small"),
])
def test_tiny_radius_is_a_domain_error(capsys, argv, radius, kind):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "domain" and f"r0 = {radius}" in error["message"]
    assert kind in error["message"]


@pytest.mark.parametrize("radius", ["1e-90", "1e-150"])
def test_tiny_radius_solves_to_the_exact_eigenvalue(capsys, radius):
    # the Ritz route solves the unit problem, lambda(K, N, r0) =
    # lambda(K r0^2, N, 1) / r0^2, so no value of h at r0 scale is needed
    rc, out, err = run_cli(capsys, "model-eigen", "--K", "0", "--N", "3", "--r0", radius)
    assert (rc, err) == (0, "")
    doc = json.loads(out)
    assert doc["diagnostics"]["method"] == "spectral"
    assert doc["result"]["lambda"] == pytest.approx(math.pi ** 2 / float(radius) ** 2, rel=1e-9)


def test_bessel_order_past_the_supported_range_is_a_domain_error(capsys):
    # N = 1e30 needs the first zero of J_{5e29}; past the supported orders
    # that is a domain error (exit 2), not a stalled iteration (exit 3)
    rc, out, err = run_cli(capsys, "neumann-bound", "--K", "0", "--N", "1e30", "--diam", "2")
    assert rc == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "domain" and "5e+29" in error["message"]


def test_bessel_order_error_of_a_kk_scan_names_its_n_and_spec(capsys):
    # D - d = 2e9 puts the scan's last orders N/2 - 1 past the supported
    # range; the error names the first such N and the compactification
    rc, out, err = run_cli(capsys, "kk-bound", "--D", "2000000001", "--d", "1", "--Lambda", "1",
                           "--sigma", "0", "--diam", "2")
    assert rc == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "domain"
    N = float(re.search(r"at N=([0-9.e+]+):", error["message"]).group(1))
    order = float(re.search(r"got ([0-9.e+]+)", error["message"]).group(1))
    assert N / 2.0 - 1.0 == pytest.approx(order, rel=1e-15)
    assert "D=2000000001, d=1" in error["message"]


def test_model_eigen_solves_the_large_n_end_of_the_kk_curve(capsys):
    # N = 6000 on the default kk-bound curve K = 1 - (N+2)/(N-2), r0 = 1
    rc, out, err = run_cli(capsys, "model-eigen", "--K", repr(1.0 - 6002.0 / 5998.0), "--N", "6000",
                           "--r0", "1")
    assert (rc, err) == (0, "")
    doc = json.loads(out)
    assert doc["diagnostics"]["method"] == "spectral"
    assert doc["result"]["lambda"] == pytest.approx(doc["result"]["upper_bound"], rel=1e-9)


def test_closed_form_past_sinh_overflow_is_quiet(capsys):
    rc, out, err = run_cli(capsys, "neumann-bound", "--K", "-1e6", "--N", "4", "--diam", "4")
    assert (rc, err) == (0, "")
    assert json.loads(out)["result"]["bound"] > 750000.0


def test_sweep_header_names_the_swept_key_once(capsys):
    rc, out, _ = run_cli(capsys, "sweep", "neumann-bound", "--over", "j", "--start", "1",
                         "--stop", "2", "--count", "2", "--K", "0", "--N", "3", "--diam", "1")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "j,bound,r0,error"
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "2"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("over, ends", [("K", ("-1", "inf")), ("K", ("-inf", "0")),
                                        ("diam", ("1", "inf"))])
def test_sweep_rejects_an_infinite_end(capsys, over, ends):
    # linspace toward an infinite end gives nan, inf, inf: no finite value
    # would be reached, so the sweep is a domain error before any row runs
    target = "ess-spectrum" if over == "K" else "neumann-bound"
    rest = ["--N", "3"] if over == "K" else ["--K", "0", "--N", "3"]
    rc, out, err = run_cli(capsys, "sweep", target, "--over", over, f"--start={ends[0]}",
                           "--stop", ends[1], "--count", "3", *rest)
    assert rc == 2 and out == ""
    assert json.loads(err)["error"]["code"] == "domain"


def test_sweep_reaches_the_start_before_a_nan_stop(capsys):
    rc, out, err = run_cli(capsys, "sweep", "ess-spectrum", "--over", "K", "--start", "-4",
                           "--stop", "nan", "--count", "2", "--N", "4", "--format", "json")
    assert (rc, err) == (0, "")
    first, second = json.loads(out)["result"]["rows"]
    assert first == {"K": -4.0, "threshold": 3.0, "error": ""}
    assert second["K"] is None and second["error"].startswith("domain")


@pytest.mark.parametrize("start, stop, count", [
    (0.0, 1.0, 0), (0.0, 1.0, 1), (0.0, 1.0, 2), (-1.0, 0.0, 7), (2.5, 2.5, 4),
    (3.0, -0.1, 11), (-4.0, math.nan, 3), (0.0, 5e-324, 3), (-1e-05, 0.3, 101),
])
def test_sweep_grid_is_numpy_linspace_bit_for_bit(start, stop, count):
    ref = np.linspace(start, stop, count)
    ref[:1] = start  # the sweep reaches its start even before a NaN stop
    assert np.array(_sweep_grid(start, stop, count), dtype=float).tobytes() == ref.tobytes()
