import contextlib
import csv
import dataclasses
import importlib.util
import io
import json
import os
import re
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import hbvm
from hbvm import cli
from hbvm.integrator import SolverConfig, integrate, trajectory_to_csv
from hbvm.problems import get_problem
from hbvm.spectral import verification_sweep
from hbvm.tableau import (HbvmSpec, _dump_json, hbvm_tableau,
                         tableau_to_json)


def run_cli(*args):
    """`hbvm *args` run in this process, reported as a finished process.

    Every warning is an error here: in a child process it would print to
    stderr, but pytest captures it in-process, where an assertion on stderr
    could not see it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = cli.main(list(args))
        except SystemExit as exc:  # argparse's exits
            code = exc.code
    return subprocess.CompletedProcess(args, code, out.getvalue(),
                                       err.getvalue())


def run_python(*argv, preexec_fn=None, **env):
    """`python *argv` in a fresh interpreter that imports the same hbvm as
    this one, with env added to its environment.  For the tests whose
    subject is the process itself."""
    root = str(Path(hbvm.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, preexec_fn=preexec_fn,
                          env=dict(os.environ, **env, PYTHONPATH=path))


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
    res = run_python("-c", SCIPY_PROBE, *args)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "False False"


@pytest.mark.parametrize("argv,code", [
    (("tableau", "--k", "4", "--s", "2"), 0),
    (("spectrum", "--k", "6", "--s", "2", "--tol", "1e-300"), 1),
    (("integrate", "--problem", "kepler", "--k", "2", "--s", "1", "--h", "0.3",
      "--steps", "10", "--solver", "newton"), 1),
    (("tableau", "--k", "2", "--s", "1", "--family", "custom", "--nodes",
      "a,b"), 2),
    ((), 2),
], ids=["tableau", "failed-check", "diverging-newton", "argparse", "no-args"])
def test_run_cli_reports_what_a_process_reports(monkeypatch, argv, code):
    # argparse wraps its usage lines to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    res = run_cli(*argv)
    child = run_python("-m", "hbvm", *argv, COLUMNS="80")
    assert res.returncode == code
    assert ((res.returncode, res.stdout, res.stderr)
            == (child.returncode, child.stdout, child.stderr))


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

    @pytest.mark.parametrize("args,message", [
        (("--nodes", "0.1,0.5,0.9"),
         "nodes are only accepted for the custom family"),
        (("--family", "custom"), "custom family requires exactly k nodes"),
        (("--family", "custom", "--nodes", ""),
         "custom family requires exactly k nodes"),
    ], ids=["nodes-without-custom", "custom-without-nodes", "empty-nodes"])
    def test_node_rules_are_the_specs(self, tmp_path, args, message):
        out = tmp_path / "never.json"
        res = run_cli("tableau", "--k", "3", "--s", "2", *args,
                      "--out", str(out))
        assert res.returncode == 2
        assert res.stderr == f"error: {message}\n"
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

    def test_defaults_are_the_sweeps(self):
        # --smax, --kmax, --seed and --tol default to verification_sweep's
        res = run_cli("verify")
        assert res.returncode == 0
        assert res.stdout == _dump_json(verification_sweep())

    def test_trivial_single_entry(self, tmp_path):
        out = tmp_path / "report.json"
        res = run_cli("verify", "--smax", "1", "--kmax", "1", "--out", str(out))
        assert res.returncode == 0
        entries = json.loads(out.read_text())
        assert len(entries) == 1
        assert entries[0]["spec"] == {"k": 1, "s": 1, "family": "gauss",
                                      "seed": None}

    @pytest.mark.parametrize("flag", ["--smax", "--kmax"])
    def test_empty_spec_matrix_exits_2(self, tmp_path, flag):
        out = tmp_path / "never.json"
        res = run_cli("verify", flag, "0", "--out", str(out))
        assert res.returncode == 2
        assert res.stderr == ("error: need smax >= 1 and kmax >= 1, got "
                              + ("smax=0, kmax=10\n" if flag == "--smax"
                                 else "smax=4, kmax=0\n"))
        assert not out.exists()

    @pytest.mark.parametrize("kmax", ["1", "2"])
    def test_negative_seed_exits_2_naming_it(self, tmp_path, kmax):
        out = tmp_path / "never.json"
        res = run_cli("verify", "--smax", "1", "--kmax", kmax, "--seed", "-1",
                      "--out", str(out))
        assert res.returncode == 2
        assert res.stderr == ("error: seed must be a non-negative integer, "
                              "got -1\n")
        assert not out.exists()

    def test_kmax_below_smax_still_runs(self, tmp_path):
        out = tmp_path / "report.json"
        res = run_cli("verify", "--smax", "3", "--kmax", "2", "--out", str(out))
        assert res.returncode == 0
        assert len(json.loads(out.read_text())) == 7

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
        ('{"k": 1, "s": 0, "c": [0.5], "A": [[0.5]], "b": [1.0]}',
         "'s' must satisfy 1 <= s <= k"),
        ('{"k": 2, "s": 3, "c": [0.25, 0.75], "A": [[0.25, 0.0], '
         '[0.5, 0.25]], "b": [0.5, 0.5]}', "'s' must satisfy 1 <= s <= k"),
        ('{"k": 1, "s": 1500, "c": [0.5], "A": [[0.5]], "b": [1.0]}',
         "'s' must satisfy 1 <= s <= k"),
        ('{"k": 2, "s": 1, "c": [0.2, 0.8], "A": [[0.1, 0.2], [0.3]], '
         '"b": [0.5, 0.5]}', "'A' must have rows of length len(c) = 2"),
        ('{"k": 2, "s": 1, "c": [0.2, 0.8], "A": [[0.1, 0.2]], '
         '"b": [0.5, 0.5]}', "A has shape (1, 2), not (k, k) = (2, 2)"),
        ('{"k": 2, "s": 1, "c": [0.2, 0.8], "A": [[0.1, 0.2], [0.3, 0.4]], '
         '"b": [0.5]}', "b has size 1, not k = 2"),
        pytest.param('{"k": 1, "s": 1, "c": [0.5], "A": [[0.5]], "b": [%s]}'
                     % ("9" * 400),
                     "'b' holds an integer too large for float64",
                     id="huge-int-b"),
        pytest.param('{"k": 1, "s": 1, "c": [0.5], "A": [[0.5]], "b": [%s]}'
                     % ("9" * 5000),
                     "'b' holds an integer too large for float64",
                     id="long-int-b"),
        pytest.param('{"k": %s, "s": 1, "c": [0.5], "A": [[0.5]], "b": [1.0]}'
                     % ("9" * 5000),
                     "'k' holds an integer too large to read",
                     id="long-int-k"),
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

    def test_tableau_file_without_s_exits_2(self, tmp_path, capsys):
        obj = json.loads(tableau_to_json(hbvm_tableau(HbvmSpec(4, 2))))
        obj["s"] = None
        tab_file = tmp_path / "tab.json"
        tab_file.write_text(json.dumps(obj))
        out = tmp_path / "never.json"
        assert cli.main(["verify", "--smax", "1", "--kmax", "1",
                         "--tableau-file", str(tab_file),
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("error: tableau file does not "
                                           "declare s\n")
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

    def test_tampered_tableau_line_names_the_zero_count(self, tmp_path,
                                                        capsys):
        tab_file = tmp_path / "tab.json"
        assert cli.main(["tableau", "--k", "6", "--s", "2",
                         "--out", str(tab_file)]) == 0
        obj = json.loads(tab_file.read_text())
        obj["A"][0][0] += 1e-6
        tab_file.write_text(json.dumps(obj))
        assert cli.main(["verify", "--smax", "1", "--kmax", "1",
                         "--tableau-file", str(tab_file),
                         "--out", str(tmp_path / "r.json")]) == 1
        (line,) = [ln for ln in capsys.readouterr().err.splitlines()
                   if "FAIL (" in ln]
        assert line.endswith("FAIL (zero_count 3, expected_zero_count 4, "
                             "max_match_distance inf)")

    def test_failing_sweep_line_shows_every_residual(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert cli.main(["verify", "--smax", "1", "--kmax", "1",
                         "--tol", "1e-300", "--out", str(out)]) == 1
        (e,) = json.loads(out.read_text())
        line = capsys.readouterr().err.splitlines()[0]
        assert line.startswith(f"  {e['spec']}: FAIL (zero_count 0, "
                               "expected_zero_count 0, max_match_distance ")
        for key in list(e)[3:-1]:
            assert f" {key} " in line
        assert re.search(r"wtransform_residuals \[\S+e[-+]\d\d \S+\]", line)

    def test_tableau_record_has_the_sweep_keys_in_order(self, tmp_path):
        tab_file = tmp_path / "tab.json"
        assert cli.main(["tableau", "--k", "6", "--s", "2",
                         "--out", str(tab_file)]) == 0
        out = tmp_path / "r.json"
        assert cli.main(["verify", "--smax", "1", "--kmax", "1",
                         "--tableau-file", str(tab_file),
                         "--out", str(out)]) == 0
        swept, checked = json.loads(out.read_text())
        assert list(checked) == list(swept)
        assert checked["spec"] == {"k": 6, "s": 2,
                                   "family": f"file:{tab_file}", "seed": None}

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

    def test_unknown_problem_is_named_without_quotes(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        assert cli.main(["integrate", "--problem", "foo", "--k", "2",
                         "--s", "1", "--h", "0.1", "--steps", "2",
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: unknown problem 'foo'; known: harmonic, quartic, sextic, "
            "pendulum, henon-heiles, kepler\n")
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

    @staticmethod
    def _newton_at_origin(monkeypatch, tmp_path, system=None):
        """Exit code of a Newton run of kepler from q = 0, where its
        gradient divides by zero, with another system if one is given."""
        kepler = get_problem("kepler")
        at_origin = dataclasses.replace(kepler, default_y0=[0.0, 0.0, 0.0, 1.0],
                                        system=system or kepler.system)
        monkeypatch.setattr(cli, "get_problem", lambda name: at_origin)
        out = tmp_path / "never.csv"
        code = cli.main(["integrate", "--problem", "kepler", "--k", "4",
                         "--s", "2", "--h", "0.05", "--steps", "3",
                         "--solver", "newton", "--out", str(out)])
        assert not out.exists()
        return code

    def test_non_finite_jacobian_exits_1_naming_the_cause(self, monkeypatch,
                                                          capsys, tmp_path):
        # without grad_V, Newton differences f
        system = dataclasses.replace(get_problem("kepler").system, grad_V=None)
        assert self._newton_at_origin(monkeypatch, tmp_path, system) == 1
        err = capsys.readouterr().err
        assert err == ("integration failed: step 1 failed: Jacobian of f is "
                       "non-finite at the step's initial state\n")

    def test_non_finite_hessian_exits_1_naming_the_cause(self, monkeypatch,
                                                         capsys, tmp_path):
        # the catalog's kepler carries grad_V: Newton differences grad V
        assert self._newton_at_origin(monkeypatch, tmp_path) == 1
        err = capsys.readouterr().err
        assert err == ("integration failed: step 1 failed: Jacobian of grad V "
                       "is non-finite at the step's initial state\n")

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

    def test_overflowing_time_axis_exits_2_naming_h(self, tmp_path):
        out = tmp_path / "never.csv"
        res = run_cli("integrate", "--problem", "harmonic", "--k", "2", "--s", "1",
                      "--h", "1e308", "--steps", "3", "--out", str(out))
        assert res.returncode == 2
        assert res.stderr == ("error: step size h=1e+308 times n_steps=3 "
                              "overflows the time axis\n")
        assert not out.exists()

    @pytest.mark.parametrize("steps", [str(10 ** 15), str(10 ** 400)],
                             ids=["unallocatable", "past-float-range"])
    def test_step_count_the_machine_cannot_hold_exits_2(self, tmp_path,
                                                        steps):
        out = tmp_path / "never.csv"
        res = run_cli("integrate", "--problem", "harmonic", "--k", "2",
                      "--s", "1", "--h", "0.1", "--steps", steps,
                      "--out", str(out))
        assert res.returncode == 2
        assert res.stderr.startswith("error: ")
        assert f"n_steps={steps} " in res.stderr
        assert res.stderr.count("\n") == 1
        assert not out.exists()

    def test_diverging_newton_exits_1_naming_it(self, tmp_path):
        out = tmp_path / "never.csv"
        res = run_cli("integrate", "--problem", "kepler", "--k", "2", "--s",
                      "1", "--h", "0.3", "--steps", "10", "--solver",
                      "newton", "--out", str(out))
        assert res.returncode == 1
        assert res.stderr == ("integration failed: step 1 failed: Newton "
                              "iteration diverging (residual grew over 5 "
                              "consecutive iterations); try a smaller h\n")
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
        assert "measured slope" in res.stderr

    def test_harmonic_text_only(self):
        res = run_cli("order", "--problem", "harmonic", "--k", "2", "--s", "1",
                      "--hmax", "0.2")
        assert res.returncode == 0
        assert "expected 2" in res.stderr

    @pytest.mark.parametrize("flag,value,named", [
        ("--hmax", "0", "got h=0.0"),
        ("--hmax", "nan", "got h=nan"),
        ("--hmax", "inf", "got h=inf"),
        ("--hmax", "-0.1", "got h=-0.1"),
        ("--t-end", "0", "got t_end=0.0"),
        ("--t-end", "-3", "got t_end=-3.0"),
    ])
    def test_bad_step_size_or_horizon_exits_2(self, tmp_path, flag, value,
                                              named):
        out = tmp_path / "never.json"
        res = run_cli("order", "--problem", "harmonic", "--k", "2", "--s", "1",
                      "--levels", "3", flag, value, "--out", str(out))
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.startswith("error: ")
        assert named in res.stderr
        assert res.stderr.count("\n") == 1
        assert not out.exists()


    def test_diverging_newton_exits_1_naming_it(self, tmp_path, capsys):
        out = tmp_path / "never.json"
        assert cli.main(["order", "--problem", "kepler", "--k", "2",
                         "--s", "1", "--hmax", "0.3", "--levels", "3",
                         "--solver", "newton", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "order run failed: step 1 failed: Newton iteration diverging "
            "(residual grew over 5 consecutive iterations); try a smaller h\n")
        assert not out.exists()

    def test_underflowing_step_size_exits_2_naming_it(self, tmp_path):
        # 0.1 * 2**-1099 underflows to 0.0
        out = tmp_path / "never.json"
        res = run_cli("order", "--problem", "harmonic", "--k", "2", "--s", "1",
                      "--levels", "1100", "--out", str(out))
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == ("error: step sizes must be finite and "
                              "positive, got h=0.0\n")
        assert not out.exists()

    @pytest.mark.parametrize("hmax", ["0.1", "1.7976931348623157e308"])
    def test_huge_level_count_exits_2_like_the_first_zero_level(self,
                                                                tmp_path,
                                                                hmax):
        def cap_memory():  # a step list that grows with --levels fails here
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        out = tmp_path / "never.json"
        res = run_python("-m", "hbvm", "order", "--problem", "harmonic",
                         "--k", "2", "--s", "1", "--levels", "1000000000",
                         "--hmax", hmax, "--out", str(out),
                         preexec_fn=cap_memory)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == ("error: step sizes must be finite and "
                              "positive, got h=0.0\n")
        assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("args", [
    ("verify", "--smax", "1", "--kmax", "1"),
    ("spectrum", "--k", "6", "--s", "2"),
    ("stability", "--k", "4", "--s", "2"),
], ids=["verify", "spectrum", "stability"])
def test_bad_check_tol_exits_2_without_output(tmp_path, capsys, args, tol):
    out = tmp_path / "never.json"
    assert cli.main([*args, f"--tol={tol}", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: tol must be finite and positive, got "
                            f"tol={float(tol)}\n")
    assert not out.exists()


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
        assert "PASS" in res.stderr


OUTPUT_CASES = {
    "tableau": (("tableau", "--k", "4", "--s", "2"), None),
    "spectrum": (("spectrum", "--k", "4", "--s", "2"),
                 "spectrum k=4 s=2 gauss: 2 zero eigenvalues"),
    "verify": (("verify", "--smax", "1", "--kmax", "2"),
               "verify: 6 specs, 6 passed, 0 failed PASS"),
    "integrate": (("integrate", "--problem", "kepler", "--k", "4", "--s", "2",
                   "--h", "0.1", "--steps", "3"),
                  "integrate kepler k=4 s=2 mode=rk: 3 steps"),
    "order": (("order", "--problem", "harmonic", "--k", "2", "--s", "1",
               "--hmax", "0.2", "--levels", "3"), "measured slope"),
    "stability": (("stability", "--k", "2", "--s", "1"),
                  "stability k=2 s=1 gauss:"),
}


@pytest.mark.parametrize("args,summary", OUTPUT_CASES.values(),
                         ids=OUTPUT_CASES.keys())
def test_default_stdout_is_the_out_file_and_summaries_go_to_stderr(
        tmp_path, args, summary):
    res = run_cli(*args)
    assert res.returncode == 0, res.stderr
    if args[0] == "integrate":
        header, *rows = csv.reader(io.StringIO(res.stdout))
        dim = len(get_problem("kepler").default_y0)
        assert len(header) == dim + 3 and len(rows) == 3 + 1
        assert all(len(row) == dim + 3 for row in rows)
        np.array(rows, dtype=float)
    else:
        json.loads(res.stdout)
    out = tmp_path / "out"
    assert cli.main([*args, "--out", str(out)]) == 0
    assert out.read_bytes() == res.stdout.encode()
    if summary is None:
        assert res.stderr == ""
    else:
        assert summary in res.stderr


def test_summary_on_a_non_terminal_stderr_has_no_ansi():
    res = run_cli("stability", "--k", "1", "--s", "1")
    assert "PASS" in res.stderr
    assert "\x1b[" not in res.stderr + res.stdout


def test_colour_follows_stderr_alone():
    class Terminal(io.StringIO):
        def isatty(self):
            return True

    out, err = io.StringIO(), Terminal()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert cli.main(["stability", "--k", "1", "--s", "1"]) == 0
    assert "\x1b[32mPASS\x1b[0m" in err.getvalue()
    json.loads(out.getvalue())


def test_missing_subcommand_exits_2():
    res = run_cli()
    assert res.returncode == 2


@pytest.mark.parametrize("k,nodes", [("2", "a,b"), ("3", "0.2,,0.8"),
                                     ("2", "0.2,x")])
def test_non_numeric_nodes_exit_2_naming_the_flag(tmp_path, k, nodes):
    out = tmp_path / "never.json"
    res = run_cli("tableau", "--k", k, "--s", "1", "--family", "custom",
                  "--nodes", nodes, "--out", str(out))
    assert res.returncode == 2
    assert "argument --nodes: " in res.stderr
    assert repr(nodes) in res.stderr
    assert not out.exists()


def _workloads(monkeypatch):
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


SPEC = {"k": 4, "s": 2, "family": "gauss", "nodes": None}
RUN = {"mode": "rk", "solver": "fixed-point", "tol": 1e-13, "max_iter": 100,
       "out": "-"}
PARSED = {
    "tableau": (["tableau", "--k", "4", "--s", "2"],
                {"command": "tableau", **SPEC, "out": "-",
                 "func": cli.cmd_tableau}),
    "tableau-custom": (
        ["tableau", "--k", "4", "--s", "2", "--family", "custom", "--nodes",
         "0.9,0.1,0.6,0.4", "--out", "t.json"],
        {"command": "tableau", **SPEC, "family": "custom",
         "nodes": (0.9, 0.1, 0.6, 0.4), "out": "t.json",
         "func": cli.cmd_tableau}),
    "tableau-empty-nodes": (
        ["tableau", "--k", "3", "--s", "2", "--nodes", ""],
        {"command": "tableau", **SPEC, "k": 3, "out": "-",
         "func": cli.cmd_tableau}),
    "spectrum": (["spectrum", "--k", "4", "--s", "2", "--tol", "1e-8"],
                 {"command": "spectrum", **SPEC, "tol": 1e-8, "out": "-",
                  "func": cli.cmd_spectrum}),
    "stability": (["stability", "--k", "6", "--s", "3", "--family",
                   "lobatto"],
                  {"command": "stability", **SPEC, "k": 6, "s": 3,
                   "family": "lobatto", "tol": 1e-10, "out": "-",
                   "func": cli.cmd_stability}),
    "verify": (["verify"],
               {"command": "verify", "smax": 4, "kmax": 10, "tol": 1e-10,
                "seed": 42, "tableau_file": None, "out": "-",
                "func": cli.cmd_verify}),
    "verify-file": (["verify", "--seed", "7", "--tableau-file", "t.json",
                     "--tol", "1e-9", "--smax", "2", "--kmax", "5"],
                    {"command": "verify", "smax": 2, "kmax": 5, "tol": 1e-9,
                     "seed": 7, "tableau_file": "t.json", "out": "-",
                     "func": cli.cmd_verify}),
    "integrate": (["integrate", "--problem", "kepler", "--k", "4", "--s",
                   "2", "--h", "0.1", "--steps", "5"],
                  {"command": "integrate", "problem": "kepler", **SPEC,
                   "h": 0.1, "steps": 5, **RUN, "func": cli.cmd_integrate,
                   "failure": "integration failed"}),
    "order": (["order", "--problem", "harmonic", "--k", "4", "--s", "2"],
              {"command": "order", "problem": "harmonic", **SPEC,
               "hmax": 0.1, "levels": 4, "t_end": 2.0 * np.pi, **RUN,
               "func": cli.cmd_order, "failure": "order run failed"}),
    "order-every-flag": (
        ["order", "--problem", "kepler", "--k", "4", "--s", "2", "--hmax",
         "0.3", "--levels", "3", "--t-end", "1", "--mode", "gamma",
         "--solver", "newton", "--tol", "1e-12", "--max-iter", "50",
         "--out", "o.json"],
        {"command": "order", "problem": "kepler", **SPEC, "hmax": 0.3,
         "levels": 3, "t_end": 1.0, "mode": "gamma", "solver": "newton",
         "tol": 1e-12, "max_iter": 50, "out": "o.json",
         "func": cli.cmd_order, "failure": "order run failed"}),
}


@pytest.mark.parametrize("argv,expected", PARSED.values(), ids=PARSED.keys())
def test_parsed_namespace(argv, expected):
    assert vars(cli.build_parser().parse_args(argv)) == expected


@pytest.mark.parametrize("name", ["sextic-fixed", "kepler-gamma",
                                  "verify-sweep"])
def test_parsed_benchmark_argv(tmp_path, monkeypatch, name):
    # the benchmark parses its own argv with build_parser and reads
    # problem, k, s and mode (integrate) or smax, kmax and seed (verify)
    argv = _workloads(monkeypatch).make(name, 1, tmp_path).argv
    expected = {
        "sextic-fixed": {
            "command": "integrate", "problem": "sextic", **SPEC, "k": 6,
            "h": 0.1, "steps": 1000, **RUN, "tol": 1e-15,
            "func": cli.cmd_integrate, "failure": "integration failed"},
        "kepler-gamma": {
            "command": "integrate", "problem": "kepler", **SPEC, "k": 12,
            "s": 4, "h": 0.05, "steps": 500, **RUN, "mode": "gamma",
            "solver": "newton", "func": cli.cmd_integrate,
            "failure": "integration failed"},
        "verify-sweep": {
            "command": "verify", "smax": 4, "kmax": 10, "tol": 1e-10,
            "seed": 1, "tableau_file": None, "func": cli.cmd_verify},
    }[name]
    expected["out"] = argv[argv.index("--out") + 1]
    assert vars(cli.build_parser().parse_args(argv)) == expected


@pytest.mark.parametrize("mode,solver", [("gamma", "newton"),
                                         ("rk", "newton"),
                                         ("gamma", "fixed-point")])
def test_default_solver_settings_are_solver_configs(tmp_path, mode, solver):
    out = tmp_path / "traj.csv"
    assert cli.main(["integrate", "--problem", "kepler", "--k", "6", "--s",
                     "3", "--h", "0.1", "--steps", "20", "--mode", mode,
                     "--solver", solver, "--out", str(out)]) == 0
    prob = get_problem("kepler")
    traj = integrate(HbvmSpec(6, 3), prob.system, prob.default_y0, 0.1, 20,
                     SolverConfig(mode=solver.replace("-", "_")), mode=mode)
    assert out.read_text() == trajectory_to_csv(traj)


@pytest.mark.parametrize("cmd", ["tableau", "spectrum", "verify", "integrate",
                                 "order", "stability"])
def test_every_subcommand_prints_its_help(cmd, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([cmd, "--help"])
    assert exc.value.code == 0
    assert "--out OUT" in capsys.readouterr().out
