import dataclasses
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from hbvm import cli
from hbvm.integrator import SolverConfig, integrate, trajectory_to_csv
from hbvm.problems import get_problem
from hbvm.tableau import HbvmSpec, hbvm_tableau, tableau_to_json


def run_cli(*args, cwd=None):
    env = dict(os.environ, HBVM_NO_COLOR="1")
    return subprocess.run([sys.executable, "-m", "hbvm", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


SCIPY_PROBE = """
import sys
from hbvm import cli
if sys.argv[1:]:
    assert cli.main(sys.argv[1:]) == 0
print(any(m.split(".")[0] == "scipy" for m in sys.modules),
      "scipy.linalg" in sys.modules)
"""


@pytest.mark.parametrize("args", [
    (),
    ("verify", "--smax", "2", "--kmax", "4"),
    ("tableau", "--k", "4", "--s", "2"),
    ("integrate", "--problem", "kepler", "--k", "4", "--s", "2",
     "--h", "0.1", "--steps", "5"),
    ("integrate", "--problem", "kepler", "--k", "4", "--s", "2",
     "--h", "0.1", "--steps", "5", "--solver", "newton"),
], ids=["import", "verify", "tableau", "fixed-point", "newton"])
def test_scipy_is_never_loaded(tmp_path, args):
    if args:
        args += ("--out", str(tmp_path / "out"))
    res = subprocess.run([sys.executable, "-c", SCIPY_PROBE, *args],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "False False"


class TestTableauCommand:
    def test_output_is_byte_identical_to_library(self, tmp_path):
        out = tmp_path / "tab.json"
        res = run_cli("tableau", "--k", "4", "--s", "2", "--family", "gauss",
                      "--out", str(out))
        assert res.returncode == 0
        assert out.read_text() == tableau_to_json(hbvm_tableau(HbvmSpec(4, 2)))

    def test_midpoint_values(self, tmp_path):
        out = tmp_path / "t.json"
        assert run_cli("tableau", "--k", "1", "--s", "1",
                       "--out", str(out)).returncode == 0
        obj = json.loads(out.read_text())
        assert obj["A"] == [[0.5]] and obj["b"] == [1.0] and obj["c"] == [0.5]

    def test_gauss2_values(self, tmp_path):
        out = tmp_path / "t.json"
        run_cli("tableau", "--k", "2", "--s", "2", "--out", str(out))
        A = np.array(json.loads(out.read_text())["A"])
        r3 = np.sqrt(3)
        expect = np.array([[0.25, 0.25 - r3 / 6], [0.25 + r3 / 6, 0.25]])
        assert np.max(np.abs(A - expect)) <= 1e-13

    def test_weak_custom_quadrature_exits_2_without_file(self, tmp_path):
        out = tmp_path / "never.json"
        res = run_cli("tableau", "--k", "3", "--s", "2", "--family", "custom",
                      "--nodes", "0.2,0.5,0.8", "--out", str(out))
        assert res.returncode == 2
        assert "quadrature too weak" in res.stderr
        assert not out.exists()

    def test_nan_custom_node_exits_2_naming_the_cause(self, tmp_path):
        out = tmp_path / "never.json"
        res = run_cli("tableau", "--k", "3", "--s", "1", "--family", "custom",
                      "--nodes", "0.2,nan,0.9", "--out", str(out))
        assert res.returncode == 2
        assert "finite" in res.stderr
        assert not out.exists()

    def test_bad_flag_combination_exits_2(self, tmp_path):
        out = tmp_path / "never.json"
        res = run_cli("tableau", "--k", "3", "--s", "2", "--nodes", "0.1,0.5,0.9",
                      "--out", str(out))
        assert res.returncode == 2
        assert not out.exists()


class TestVerifyCommand:
    def test_small_sweep_passes(self, tmp_path):
        out = tmp_path / "report.json"
        res = run_cli("verify", "--smax", "2", "--kmax", "5", "--tol", "1e-10",
                      "--out", str(out))
        assert res.returncode == 0
        entries = json.loads(out.read_text())
        assert all(e["passed"] for e in entries)
        keys = [(e["spec"]["s"], e["spec"]["k"], e["spec"]["family"]) for e in entries]
        assert keys == sorted(keys)

    def test_trivial_single_entry(self, tmp_path):
        out = tmp_path / "report.json"
        res = run_cli("verify", "--smax", "1", "--kmax", "1", "--out", str(out))
        assert res.returncode == 0
        entries = json.loads(out.read_text())
        assert len(entries) == 1
        assert entries[0]["spec"] == {"k": 1, "s": 1, "family": "gauss",
                                      "seed": None}

    def test_tampered_tableau_fails(self, tmp_path):
        tab_file = tmp_path / "tab.json"
        run_cli("tableau", "--k", "6", "--s", "2", "--out", str(tab_file))
        obj = json.loads(tab_file.read_text())
        obj["A"][0][0] += 1e-6
        bad_file = tmp_path / "bad.json"
        bad_file.write_text(json.dumps(obj))
        out = tmp_path / "report.json"
        res = run_cli("verify", "--smax", "1", "--kmax", "1",
                      "--tableau-file", str(bad_file), "--out", str(out))
        assert res.returncode == 1
        entries = json.loads(out.read_text())  # report still written
        assert any(not e["passed"] for e in entries)

    def test_non_finite_tableau_exits_2_naming_the_entry(self, tmp_path):
        tab_file = tmp_path / "tab.json"
        run_cli("tableau", "--k", "6", "--s", "2", "--out", str(tab_file))
        obj = json.loads(tab_file.read_text())
        obj["A"][3][4] = float("nan")
        tab_file.write_text(json.dumps(obj))
        res = run_cli("verify", "--smax", "1", "--kmax", "1",
                      "--tableau-file", str(tab_file), "--out",
                      str(tmp_path / "r.json"))
        assert res.returncode == 2
        assert "tableau entries must be finite: A[3, 4] = nan" in res.stderr

    @pytest.mark.parametrize("text,named", [
        ("[1, 2]", "must be an object"),
        ('{"k": 1, "s": "x", "c": [0.5], "A": [[0.5]], "b": [1.0]}',
         "'s' must be int"),
        ('{"k": 1, "s": 1, "c": {"a": 1}, "A": [[0.5]], "b": [1.0]}',
         "'c' must be list"),
        ('{"k": 1, "s": 1, "c": [0.5], "A": [[0.5]]}', "'b' must be list"),
        ('{"k": 1, "s": 1, "c": [{"a": 1}], "A": [[0.5]], "b": [1.0]}',
         "'c' must hold numbers"),
        ('{"k": 1, "s": 1, "c": [0.5], "A": [["x"]], "b": [1.0]}',
         "'A' must hold numbers"),
        ('{"k": 1, "s": 1, "c": [true], "A": [[0.5]], "b": [1.0]}',
         "'c' must hold numbers"),
    ])
    def test_malformed_tableau_exits_2_naming_the_field(self, tmp_path,
                                                        capsys, text, named):
        tab_file = tmp_path / "tab.json"
        tab_file.write_text(text)
        out = tmp_path / "never.json"
        assert cli.main(["verify", "--smax", "1", "--kmax", "1",
                         "--tableau-file", str(tab_file),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert not out.exists()

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        assert cli.main(["verify", "--smax", "1", "--kmax", "1",
                         "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err

    def test_real_fields_parse_as_floats(self, tmp_path):
        out = tmp_path / "report.json"
        assert cli.main(["verify", "--smax", "2", "--kmax", "4",
                         "--out", str(out)]) == 0
        for e in json.loads(out.read_text()):
            reals = [e["max_match_distance"], e["subspace_residual"],
                     e["filter_residual"], e["a_stability_max_deviation"]]
            reals += e["wtransform_residuals"] or []
            assert all(type(v) is float for v in reals), e

    def test_untampered_tableau_passes(self, tmp_path):
        tab_file = tmp_path / "tab.json"
        run_cli("tableau", "--k", "6", "--s", "2", "--out", str(tab_file))
        res = run_cli("verify", "--smax", "1", "--kmax", "1",
                      "--tableau-file", str(tab_file), "--out",
                      str(tmp_path / "r.json"))
        assert res.returncode == 0


class TestIntegrateCommand:
    def test_csv_is_byte_identical_to_library(self, tmp_path):
        out = tmp_path / "traj.csv"
        res = run_cli("integrate", "--problem", "sextic", "--k", "6", "--s", "2",
                      "--h", "0.1", "--steps", "25", "--out", str(out))
        assert res.returncode == 0
        prob = get_problem("sextic")
        traj = integrate(HbvmSpec(6, 2), prob.system, prob.default_y0,
                         0.1, 25, SolverConfig())
        assert out.read_text() == trajectory_to_csv(traj)

    def test_gamma_mode_long_run_conserves_energy(self, tmp_path):
        out = tmp_path / "traj.csv"
        res = run_cli("integrate", "--problem", "sextic", "--k", "6", "--s", "2",
                      "--h", "0.1", "--steps", "1000", "--mode", "gamma",
                      "--out", str(out))
        assert res.returncode == 0
        rows = out.read_text().strip().split("\n")[1:]
        H = np.array([float(r.split(",")[-2]) for r in rows])
        assert len(H) == 1001
        assert np.max(np.abs(H - H[0])) / abs(H[0]) <= 1e-11

    @pytest.mark.parametrize("mode", ["rk", "gamma"])
    def test_weak_custom_quadrature_exits_2_in_both_modes(self, tmp_path,
                                                          mode):
        out = tmp_path / "never.csv"
        res = run_cli("integrate", "--problem", "harmonic", "--k", "3",
                      "--s", "2", "--family", "custom", "--nodes",
                      "0.2,0.5,0.9", "--h", "0.1", "--steps", "5",
                      "--mode", mode, "--out", str(out))
        assert res.returncode == 2
        assert "quadrature too weak" in res.stderr
        assert not out.exists()

    def test_unknown_problem_exits_2(self, tmp_path):
        out = tmp_path / "never.csv"
        res = run_cli("integrate", "--problem", "lorenz", "--k", "2", "--s", "2",
                      "--h", "0.1", "--steps", "5", "--out", str(out))
        assert res.returncode == 2
        assert not out.exists()

    def test_nonconvergent_solver_exits_1(self, tmp_path):
        res = run_cli("integrate", "--problem", "kepler", "--k", "6", "--s", "2",
                      "--h", "1.0", "--steps", "3",
                      "--out", str(tmp_path / "t.csv"))
        assert res.returncode == 1

    def test_non_finite_stages_exit_1_naming_the_cause(self, tmp_path):
        out = tmp_path / "never.csv"
        res = run_cli("integrate", "--problem", "sextic", "--k", "6", "--s", "2",
                      "--h", "2", "--steps", "20", "--solver", "newton",
                      "--out", str(out))
        assert res.returncode == 1
        assert re.search(r"integration failed: step \d+ failed: .*non-finite",
                         res.stderr)
        assert not out.exists()

    def test_non_finite_jacobian_exits_1_naming_the_cause(self, monkeypatch,
                                                          capsys, tmp_path):
        kepler = get_problem("kepler")
        at_origin = dataclasses.replace(kepler, default_y0=[0.0, 0.0, 0.0, 1.0])
        monkeypatch.setattr(cli, "get_problem", lambda name: at_origin)
        out = tmp_path / "never.csv"
        assert cli.main(["integrate", "--problem", "kepler", "--k", "4",
                         "--s", "2", "--h", "0.05", "--steps", "3",
                         "--solver", "newton", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == ("integration failed: step 1 failed: Jacobian of f is "
                       "non-finite at the step's initial state\n")
        assert not out.exists()

    @pytest.mark.parametrize("solver", ["fixed-point", "newton"])
    def test_overflowing_stages_print_only_the_failure(self, tmp_path, solver):
        res = run_cli("integrate", "--problem", "sextic", "--k", "6", "--s", "2",
                      "--h", "2", "--steps", "20", "--solver", solver,
                      "--out", str(tmp_path / "never.csv"))
        assert res.returncode == 1
        assert "RuntimeWarning" not in res.stderr
        assert res.stderr.startswith("integration failed:")
        assert res.stderr.count("\n") == 1

    @pytest.mark.parametrize("h", ["nan", "inf"])
    def test_non_finite_step_size_exits_2(self, tmp_path, h):
        out = tmp_path / "never.csv"
        res = run_cli("integrate", "--problem", "harmonic", "--k", "2", "--s", "1",
                      "--h", h, "--steps", "3", "--out", str(out))
        assert res.returncode == 2
        assert "step size" in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_exits_2(self, tmp_path, tol):
        out = tmp_path / "never.csv"
        res = run_cli("integrate", "--problem", "harmonic", "--k", "2", "--s", "1",
                      "--h", "0.1", "--steps", "3", "--tol", tol, "--out", str(out))
        assert res.returncode == 2
        assert "tol" in res.stderr
        assert not out.exists()


class TestOrderCommand:
    def test_kepler_slope_in_band(self, tmp_path):
        out = tmp_path / "order.json"
        res = run_cli("order", "--problem", "kepler", "--k", "4", "--s", "2",
                      "--solver", "newton", "--out", str(out))
        assert res.returncode == 0
        payload = json.loads(out.read_text())
        assert 3.8 <= payload["slope"] <= 4.2
        assert "measured slope" in res.stdout

    def test_harmonic_text_only(self):
        res = run_cli("order", "--problem", "harmonic", "--k", "2", "--s", "1",
                      "--hmax", "0.2")
        assert res.returncode == 0
        assert "expected 2" in res.stdout


class TestSpectrumCommand:
    def test_passes_and_reports(self, tmp_path):
        out = tmp_path / "spec.json"
        res = run_cli("spectrum", "--k", "6", "--s", "2", "--out", str(out))
        assert res.returncode == 0
        payload = json.loads(out.read_text())
        assert payload["zero_count"] == 4
        assert payload["passed"] is True
        assert len(payload["eigenvalues"]) == 6


class TestStabilityCommand:
    def test_midpoint(self, tmp_path):
        out = tmp_path / "stab.json"
        res = run_cli("stability", "--k", "1", "--s", "1", "--out", str(out))
        assert res.returncode == 0
        payload = json.loads(out.read_text())
        assert payload["imag_axis_max_deviation"] <= 1e-12
        assert payload["lhp_max_modulus"] <= 1.0 + 1e-12

    def test_lobatto(self):
        res = run_cli("stability", "--k", "6", "--s", "3",
                      "--family", "lobatto")
        assert res.returncode == 0
        assert "PASS" in res.stdout


def test_no_color_env_strips_ansi():
    res = run_cli("stability", "--k", "1", "--s", "1")
    assert "\x1b[" not in res.stdout


def test_missing_subcommand_exits_2():
    res = run_cli()
    assert res.returncode == 2
