"""Command-line interface: exit codes, config echo, file outputs."""

import csv
import json
import os
import resource
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from dcboost import cli, harness
from dcboost import (ExperimentSpec, ProblemSource, SolverConfig, builtin_problem,
                     generate_network, save_network, solve, write_trace_csv)
from dcboost.analysis import AUDIT_TOL_BASE
from dcboost.cli import main
from dcboost.solver import read_trace_csv

pytestmark = pytest.mark.filterwarnings("ignore::dcboost.TheoryWarning")
SRC = Path(__file__).resolve().parents[1] / "src"


def strict_json(line):
    """json.loads refusing the NaN and Infinity tokens strict parsers refuse."""
    def refuse(token):
        raise ValueError(f"not JSON: {token}")
    return json.loads(line, parse_constant=refuse)


def first_line_json(capsys):
    out = capsys.readouterr().out
    return strict_json(out.splitlines()[0]), out


class TestSolve:
    def test_builtin_success(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        code = main(["solve", "--builtin", "quartic", "--variant", "bdca-b",
                     "--lambda-bar", "2", "--lambda-max", "8",
                     "--x0", "0.216", "--trace-out", str(trace)])
        assert code == 0
        config, out = first_line_json(capsys)
        assert config["problem"] == {"builtin": "quartic"}
        assert config["variant"] == "bdca-b"
        assert config["x0"] == [0.216]
        assert "status: StationaryPoint" in out
        assert trace.is_file()
        with open(trace, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert float(rows[0]["norm_d"]) == pytest.approx(0.384, abs=1e-7)

    def test_model_solve_with_default_rho(self, capsys, tmp_path):
        model = tmp_path / "net.json"
        assert main(["generate", "--m", "6", "--n", "9", "--seed", "5",
                     "--out", str(model)]) == 0
        capsys.readouterr()
        code = main(["solve", "--model", str(model), "--max-iters", "40",
                     "--x0-seed", "1"])
        assert code == 0
        config, _ = first_line_json(capsys)
        assert config["rho"] == 100.0
        assert config["m"] == 6

    def test_library_warning_is_one_line_on_stderr(self):
        # run as a program, so Python's own warning filters and output apply
        done = subprocess.run(
            [sys.executable, "-m", "dcboost", "solve", "--builtin", "quartic", "--x0", "0.5"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
        assert done.returncode == 0
        assert done.stderr == ("warning: problem 'quartic' has sigma_g + rho = 0; "
                               "subproblems are strictly but not strongly convex\n")
        assert done.stdout.splitlines()[1] == "status: StationaryPoint"

    def test_negative_start_seed_is_refused(self, capsys):
        assert main(["solve", "--builtin", "quartic", "--x0-seed", "-1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --x0-seed must be an integer of at least 0, got -1\n"

    def test_failure_exit_code(self, capsys):
        code = main(["solve", "--builtin", "expsys", "--x0", "800"])
        assert code == 1
        assert "NumericalFailure" in capsys.readouterr().out

    @pytest.mark.parametrize("variant", ["dca", "bdca-b", "bdca-qi", "fm"])
    def test_quartic_overflow_exit_1(self, capsys, variant):
        # the quartic's x^4 overflows from 1.158e77 on: a status, not a traceback
        assert main(["solve", "--builtin", "quartic", "--variant", variant,
                     "--x0", "1e100"]) == 1
        config, out = first_line_json(capsys)
        assert config["x0"] == [1e100]
        assert "status: NumericalFailure" in out
        assert "detail: |x| 1e+100 exceeds overflow guard 1.16e+77" in out

    def test_nan_start_echoes_null(self, capsys):
        assert main(["solve", "--builtin", "quartic", "--x0", "nan"]) == 1
        config, out = first_line_json(capsys)
        assert config["x0"] == [None]
        assert "status: NumericalFailure" in out

    def test_usage_errors(self, capsys):
        assert main(["solve", "--builtin", "quartic", "--x0", "1,2"]) == 2
        assert main(["solve", "--builtin", "quartic", "--x0", "abc"]) == 2
        assert main(["solve", "--builtin", "nope"]) == 2
        assert main(["solve"]) == 2
        assert main(["solve", "--builtin", "quartic", "--beta", "1.5"]) == 2
        assert main(["solve", "--builtin", "quartic", "--tol", "-1"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("flag, field", [
        ("--alpha", "alpha"), ("--lambda-bar", "lambda_bar"), ("--lambda-max", "lambda_max"),
        ("--tol", "tol"), ("--inner-tol", "inner_tol"), ("--rho", "rho"),
    ])
    def test_nan_setting_exit_2(self, capsys, flag, field):
        # a NaN passes no comparison, so each check must fail on it
        assert main(["solve", "--builtin", "quartic", "--x0", "0.5", flag, "nan"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")
        assert field in captured.err and "must" in captured.err

    @pytest.mark.parametrize("flag, field", [
        ("--alpha", "alpha"), ("--lambda-max", "lambda_max"), ("--tol", "tol"),
        ("--inner-tol", "inner_tol"), ("--rho", "rho"),
    ])
    def test_infinite_setting_exit_2(self, capsys, flag, field):
        # `--tol inf` used to echo "tol": null, which reads as the default
        assert main(["solve", "--builtin", "quartic", "--x0", "0.5", flag, "inf"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")
        assert field in captured.err and "finite" in captured.err

    def test_negative_rho_exit_2(self, capsys):
        assert main(["solve", "--builtin", "quartic", "--rho", "-1",
                     "--x0", "0.5"]) == 2
        assert "rho" in capsys.readouterr().err

    def test_unreadable_model_exit_1(self, capsys, tmp_path):
        assert main(["solve", "--model", str(tmp_path / "missing.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unwritable_trace_exit_1(self, capsys, tmp_path):
        assert main(["solve", "--builtin", "quartic", "--x0", "0.216",
                     "--trace-out", str(tmp_path / "absent" / "trace.csv")]) == 1
        assert "error:" in capsys.readouterr().err


# 4 species, 2 reactions; with masses l, reaction 0's imbalance is
# -2 l0 + 2 l1 - l2 + l3 and reaction 1's l0 - l1 + l2 - l3
HEAVY_MODEL = {
    "name": "heavy", "m": 4, "n": 2,
    "F": [[0, 0, 2], [2, 0, 1], [1, 1, 1], [3, 1, 1]],
    "R": [[1, 0, 2], [3, 0, 1], [0, 1, 1], [2, 1, 1]],
    "w": [0.0, 0.0, 0.0, 0.0],
}


class TestGenerateValidate:
    def test_generate_then_validate(self, capsys, tmp_path):
        model = tmp_path / "net.json"
        assert main(["generate", "--m", "8", "--n", "12", "--seed", "7",
                     "--out", str(model)]) == 0
        out = capsys.readouterr().out
        assert "conservation residual: 0" in out
        assert main(["validate", str(model)]) == 0
        capsys.readouterr()

    def test_schema_error_exit_1(self, capsys, tmp_path):
        model = tmp_path / "net.json"
        assert main(["generate", "--m", "6", "--n", "9", "--seed", "8",
                     "--out", str(model)]) == 0
        data = json.loads(model.read_text())
        del data["F"]
        model.write_text(json.dumps(data))
        assert main(["validate", str(model)]) == 1
        assert "schema error" in capsys.readouterr().err

    def test_conservation_warning_exit_2(self, capsys, tmp_path):
        model = tmp_path / "net.json"
        assert main(["generate", "--m", "6", "--n", "9", "--seed", "9",
                     "--out", str(model)]) == 0
        data = json.loads(model.read_text())
        data["F"][0][2] += 1  # unbalance one coefficient
        model.write_text(json.dumps(data))
        assert main(["validate", str(model)]) == 2
        assert "conservation warning" in capsys.readouterr().out

    def test_validate_with_mass_file(self, capsys, tmp_path):
        model = tmp_path / "net.json"
        masses = tmp_path / "l.json"
        assert main(["generate", "--m", "6", "--n", "9", "--seed", "10",
                     "--out", str(model)]) == 0
        masses.write_text(json.dumps([1.0] * 6))
        assert main(["validate", str(model), "--l-file", str(masses)]) == 0
        masses.write_text(json.dumps([1.0] * 3))
        assert main(["validate", str(model), "--l-file", str(masses)]) == 1
        capsys.readouterr()

    def test_mass_file_of_non_numbers_exit_1(self, capsys, tmp_path):
        model, masses = tmp_path / "net.json", tmp_path / "l.json"
        assert main(["generate", "--m", "6", "--n", "9", "--seed", "10",
                     "--out", str(model)]) == 0
        masses.write_text('[1, "a"]')
        assert main(["validate", str(model), "--l-file", str(masses)]) == 1
        assert "must be a JSON list of numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("masses,residual,code", [
        ([1e308, 0.95e308, 1, 1], "1e+307", 2),
        ([1e308, 1e308, 1, 1], "0", 0),
        ([1, 0.95, 1, 1], "0.1", 2),
    ])
    def test_masses_whose_terms_overflow(self, capsys, tmp_path, masses, residual, code):
        # a column summed -inf and +inf: "residual: nan" and exit 0
        model, l_file = tmp_path / "heavy.json", tmp_path / "l.json"
        model.write_text(json.dumps(HEAVY_MODEL))
        l_file.write_text(json.dumps(masses))
        assert main(["validate", str(model), "--l-file", str(l_file)]) == code
        assert f"conservation residual: {residual}\n" in capsys.readouterr().out

    @pytest.mark.parametrize("target,field", [("F", "F"), ("m", "m"), ("l", "l-file")])
    def test_integers_past_their_type_exit_1(self, capsys, tmp_path, target, field):
        # each escaped as an OverflowError traceback
        model, l_file = tmp_path / "net.json", tmp_path / "l.json"
        assert main(["generate", "--m", "6", "--n", "9", "--seed", "10",
                     "--out", str(model)]) == 0
        data = json.loads(model.read_text())
        masses = [1] * 6
        if target == "F":
            data["F"][0][2] = 10 ** 30
        elif target == "m":
            data["m"] = 10 ** 30
        else:
            masses[0] = 10 ** 400
        model.write_text(json.dumps(data))
        l_file.write_text(json.dumps(masses))
        capsys.readouterr()
        assert main(["validate", str(model), "--l-file", str(l_file)]) == 1
        assert f"schema error: {field}: " in capsys.readouterr().err

    def test_validate_unreadable_exit_1(self, capsys, tmp_path):
        assert main(["validate", str(tmp_path / "missing.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_out_of_memory_exit_1(self, capsys, monkeypatch, tmp_path):
        def exhausted(path):
            raise MemoryError("Unable to allocate 745. GiB")

        monkeypatch.setattr(cli, "load_network", exhausted)
        assert main(["validate", str(tmp_path / "net.json")]) == 1
        err = capsys.readouterr().err
        assert err == "error: Unable to allocate 745. GiB\n"

    def test_huge_species_count_exit_1(self, tmp_path):
        # F's indptr would take 745 GiB; the address space is capped at
        # 4 GiB, so the allocation fails whatever the host's memory
        model = tmp_path / "huge.json"
        model.write_text(json.dumps({"m": 100000000000, "n": 1, "F": [], "R": [],
                                     "w": [0.0, 0.0]}))

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

        done = subprocess.run(
            [sys.executable, "-m", "dcboost", "validate", str(model)], preexec_fn=cap,
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"})
        assert done.returncode == 1, done.stderr
        assert done.stderr.startswith("error: ") and "allocate" in done.stderr
        assert "Traceback" not in done.stderr

    def test_generate_unwritable_exit_1(self, capsys, tmp_path):
        assert main(["generate", "--m", "6", "--n", "9", "--seed", "5",
                     "--out", str(tmp_path / "absent" / "x.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_generate_bad_sizes(self, capsys, tmp_path):
        # sizes the generator refuses are a validation error, as the README says
        assert main(["generate", "--m", "1", "--n", "4", "--seed", "0",
                     "--out", str(tmp_path / "x.json")]) == 2
        assert capsys.readouterr().err.startswith("error: need at least two species")


class TestRate:
    def test_linear_series(self, capsys, tmp_path):
        path = tmp_path / "series.csv"
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["k", "err"])
            for k in range(50):
                writer.writerow([k, 0.9 ** k])
        assert main(["rate", str(path), "--column", "err"]) == 0
        out = capsys.readouterr().out
        report = json.loads(out.splitlines()[-1])
        assert report["regime"] == "Linear"
        assert 0.88 <= report["rate"] <= 0.92

    def test_solver_trace_column(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        assert main(["solve", "--builtin", "expsys", "--variant", "dca",
                     "--x0", "1.5", "--trace-out", str(trace)]) == 0
        capsys.readouterr()
        assert main(["rate", str(trace)]) == 0
        report = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert report["regime"] in ("Linear", "Finite")

    def test_missing_column(self, capsys, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("a,b\n1,2\n")
        assert main(["rate", str(path), "--column", "zzz"]) == 1
        assert main(["rate", str(tmp_path / "absent.csv")]) == 1
        capsys.readouterr()

    def test_infinite_atol_exit_2(self, capsys, tmp_path):
        # it used to echo "atol": null, which reads as the default atol
        path = tmp_path / "series.csv"
        path.write_text("k,norm_d\n0,1\n1,0.5\n")
        assert main(["rate", str(path), "--atol=inf"]) == 2
        assert "error: --atol must be nonnegative and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("atol", ["nan", "-1"])
    def test_nan_or_negative_atol_exit_2(self, capsys, tmp_path, atol):
        path = tmp_path / "series.csv"
        path.write_text("k,norm_d\n0,1\n1,0.5\n2,0.25\n3,0\n")
        assert main(["rate", str(path), f"--atol={atol}"]) == 2
        captured = capsys.readouterr()
        assert "error: --atol must be nonnegative" in captured.err
        # the echo is strict JSON: a NaN setting reads null
        echoed = strict_json(captured.out.splitlines()[0])
        assert echoed["atol"] == (None if atol == "nan" else -1.0)

    def test_subtract_final_leaves_out_the_last_row(self, capsys, tmp_path):
        # the last row's own gap, 0, is at most any atol, so every series
        # read Finite
        model, trace = tmp_path / "net.json", tmp_path / "trace.csv"
        assert main(["generate", "--m", "8", "--n", "12", "--seed", "3",
                     "--out", str(model)]) == 0
        assert main(["solve", "--model", str(model), "--variant", "dca",
                     "--max-iters", "60", "--trace-out", str(trace)]) == 0
        capsys.readouterr()
        assert main(["rate", str(trace), "--column", "phi_x", "--subtract-final"]) == 0
        report = strict_json(capsys.readouterr().out.splitlines()[-1])
        assert report["regime"] == "Sublinear"

    def test_subtract_final_on_one_row(self, capsys, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("k,norm_d\n0,0.5\n")
        assert main(["rate", str(path), "--subtract-final"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("schema error:") and "empty sequence" in err

    @pytest.mark.parametrize("subtract_final", [False, True])
    def test_empty_trace(self, capsys, tmp_path, subtract_final):
        path = tmp_path / "trace.csv"
        path.write_text("k,norm_d\n")
        flags = ["--subtract-final"] if subtract_final else []
        assert main(["rate", str(path), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("schema error:") and "empty sequence" in err


class TestAudit:
    def make_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        assert main(["solve", "--builtin", "quartic", "--variant", "dca",
                     "--x0", "2.0", "--trace-out", str(trace)]) == 0
        capsys.readouterr()
        return trace

    def test_honest_trace_passes(self, capsys, tmp_path):
        trace = self.make_trace(tmp_path, capsys)
        code = main(["audit", str(trace), "--sigma-h", "1", "--variant", "dca"])
        assert code == 0
        report = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert report["passed"] is True

    def test_corrupted_trace_fails(self, capsys, tmp_path):
        trace = self.make_trace(tmp_path, capsys)
        with open(trace, newline="") as handle:
            rows = list(csv.reader(handle))
        rows[4][1] = str(float(rows[4][1]) + 1.0)  # bump phi_x at k=3
        with open(trace, "w", newline="") as handle:
            csv.writer(handle).writerows(rows)
        code = main(["audit", str(trace), "--sigma-h", "1", "--variant", "dca"])
        assert code == 1
        report = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert report["passed"] is False
        assert any(v["iteration"] == 3 for v in report["violations"])

    def test_unreadable_trace(self, capsys, tmp_path):
        assert main(["audit", str(tmp_path / "missing.csv")]) == 1
        capsys.readouterr()

    def test_trace_without_slopes_is_refused(self, capsys, tmp_path):
        # it used to pass the audit with prop4_slope silently skipped
        trace = self.make_trace(tmp_path, capsys)
        with open(trace, newline="") as handle:
            rows = list(csv.reader(handle))
        with open(trace, "w", newline="") as handle:
            csv.writer(handle).writerows(row[:-1] for row in rows)
        assert main(["audit", str(trace), "--sigma-h", "1", "--variant", "dca"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("schema error:") and "lacks columns: ['slope']" in err

    def rewrite(self, trace, cells):
        with open(trace, newline="") as handle:
            rows = list(csv.reader(handle))
        for (row, column), value in cells.items():
            rows[row][column] = value
        with open(trace, "w", newline="") as handle:
            csv.writer(handle).writerows(rows)

    def test_nan_cells_fail(self, capsys, tmp_path):
        trace = self.make_trace(tmp_path, capsys)
        self.rewrite(trace, {(3, 1): "nan", (5, 2): "nan"})  # phi_x at k=2, phi_y at k=4
        assert main(["audit", str(trace), "--sigma-h", "1", "--variant", "dca"]) == 1
        report = strict_json(capsys.readouterr().out.splitlines()[-1])
        assert report["passed"] is False
        # a violation's NaN side is printed as null, not as NaN
        assert any(None in (v["lhs"], v["rhs"]) for v in report["violations"])

    @pytest.mark.parametrize("flag", ["--tol-base", "--rho", "--sigma-g", "--sigma-h"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_bad_modulus_or_tol_base_exit_2(self, capsys, tmp_path, flag, value):
        # with phi raised to 1e9 at k=2 the audit fails, unless a NaN made
        # every comparison false
        trace = self.make_trace(tmp_path, capsys)
        self.rewrite(trace, {(3, 1): "1e9"})
        assert main(["audit", str(trace), f"{flag}={value}"]) == 2
        captured = capsys.readouterr()
        assert "must be finite and nonnegative" in captured.err
        echoed = strict_json(captured.out.splitlines()[0])
        key = flag[2:].replace("-", "_")
        assert echoed[key] == {"nan": None, "inf": None, "-1": -1.0}[value]


class TestCompare:
    @pytest.fixture
    def solves(self, monkeypatch):
        """The starts of the matched trials that compare runs."""
        starts, run = [], harness.run_matched_target

        def recorded(problem, x0, *args, **kwargs):
            starts.append(x0)
            return run(problem, x0, *args, **kwargs)

        monkeypatch.setattr(harness, "run_matched_target", recorded)
        return starts

    def test_unwritable_out_fails_before_any_solve(self, capsys, tmp_path, solves):
        # --out below a regular file cannot be made; that is found before
        # the first trial, not after the whole experiment has run
        (tmp_path / "file").write_text("")
        assert main(["compare", "--builtin", "quartic", "--trials", "1", "--bdca-iters",
                     "3", "--out", str(tmp_path / "file" / "x")]) == 1
        assert solves == []
        assert capsys.readouterr().err.startswith("error:")

    def test_unloadable_source_fails_before_any_solve(self, capsys, tmp_path, solves):
        assert main(["compare", "--builtin", "quartic", "--model",
                     str(tmp_path / "missing.json"), "--trials", "1",
                     "--bdca-iters", "3", "--out", str(tmp_path / "exp")]) == 1
        assert solves == []
        assert capsys.readouterr().err.startswith("error:")
        assert (tmp_path / "exp" / "traces").is_dir()

    def test_negative_generator_seed_is_refused_before_the_echo(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"problems": [{"generate": {"m": 4, "n": 6,
                                                               "seed": -1}}]}))
        for args in (["--generate", "4:6:-1"], ["--spec-file", str(spec)]):
            assert main(["compare", *args, "--trials", "1", "--bdca-iters", "3"]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == ("error: generate source seed must be an integer of at "
                           "least 0, got -1\n")

    def test_flags_run_and_echo_reproduces(self, capsys, tmp_path):
        args = ["compare", "--builtin", "quartic", "--trials", "2",
                "--bdca-iters", "30", "--variant", "bdca-b",
                "--lambda-bar", "2", "--lambda-max", "8",
                "--out", str(tmp_path / "exp")]
        assert main(args) == 0
        config, out = first_line_json(capsys)
        assert "quartic" in out
        assert (tmp_path / "exp" / "rows.csv").is_file()

        # the echoed first line is a complete spec file
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(config))
        assert main(["compare", "--spec-file", str(spec_path)]) == 0
        config2, _ = first_line_json(capsys)
        assert config2 == config

    def test_echo_parses_as_spec(self, capsys):
        assert main(["compare", "--builtin", "quartic", "--trials", "1",
                     "--bdca-iters", "20", "--variant", "bdca-b",
                     "--lambda-bar", "2", "--lambda-max", "8"]) == 0
        config, _ = first_line_json(capsys)
        spec = ExperimentSpec.from_json(config)
        assert spec.trials == 1
        assert spec.bdca_iters == 20

    @pytest.mark.parametrize("box", ['"x0_low": -Infinity',
                                     '"x0_low": -1e308, "x0_high": 1e308'])
    def test_start_box_of_infinite_width_exit_2(self, capsys, tmp_path, box):
        # rng.uniform raised OverflowError on these boxes, a traceback and exit 1
        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{"problems": [{"builtin": "quartic"}], "trials": 1, '
                             f'"bdca_iters": 20, {box}}}')
        assert main(["compare", "--spec-file", str(spec_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite width" in err

    def test_bad_spec_exit_2(self, capsys, tmp_path):
        quartic = [{"builtin": "quartic"}]
        solver = {"variant": "bdca-b", "lambda_bar": 2.0, "lambda_max": 8.0}
        cases = [
            (quartic, {**solver, "beta": 1.5}, "beta"),
            (quartic, {**solver, "proximal_c": 1.0}, "proximal_c"),
            ([{"generate": {"m": 3}}], solver, "integer m, n and seed"),
            ([{"generate": {"m": "3", "n": 4, "seed": 0}}], solver, "integer m, n and seed"),
            ([{"builtin": "nope"}], solver, "'nope'"),
            ([{"builtin": "quartic", "rhoo": 2.0}], solver, "'rhoo'"),
            ([{"generate": {"m": 3, "n": 6, "seed": 0, "mm": 4}}], solver, "'mm'"),
            ([{"builtin": "quartic", "rho": -1}], solver, "rho"),
        ]
        spec_path = tmp_path / "spec.json"
        for problems, solver_json, named in cases:
            spec_path.write_text(json.dumps({
                "problems": problems, "trials": 2, "solver": solver_json,
            }))
            assert main(["compare", "--spec-file", str(spec_path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and named in err

    @pytest.mark.parametrize("top, solver_extra, named", [
        ({"trials": 2.5}, {}, "trials"),
        ({"trials": True}, {}, "trials"),
        ({"seed": 1.5}, {}, "seed"),
        ({"bdca_iters": 2.5}, {}, "bdca_iters"),
        ({"dca_cap": 2.5}, {}, "dca_cap"),
        ({}, {"max_outer_iters": 3.5}, "max_outer_iters"),
    ])
    def test_non_integer_count_exit_2(self, capsys, tmp_path, top, solver_extra, named):
        # unchecked, each would reach range() or the start generator's seeding
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "problems": [{"builtin": "quartic"}], "trials": 1, "bdca_iters": 20, **top,
            "solver": {"variant": "bdca-b", "lambda_bar": 2.0, "lambda_max": 8.0,
                       **solver_extra},
        }))
        assert main(["compare", "--spec-file", str(spec_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{named} must be an integer" in err
        assert "Traceback" not in err

    def test_null_proximal_spec_loads(self, capsys, tmp_path):
        # spec files from before the proximal term was removed carry a null
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "problems": [{"builtin": "quartic"}], "trials": 1, "bdca_iters": 20,
            "solver": {"variant": "bdca-b", "lambda_bar": 2.0, "lambda_max": 8.0,
                       "proximal_c": None},
        }))
        assert main(["compare", "--spec-file", str(spec_path)]) == 0
        config, _ = first_line_json(capsys)
        assert "proximal_c" not in config["solver"]

    # a compare echo as printed before the stop tolerances merged and the
    # budgets and the damping floor became constants
    OLD_ECHO = (
        '{"problems": [{"builtin": "quartic"}], "trials": 1, "seed": 0, "x0_low": -2.0, '
        '"x0_high": 2.0, "bdca_iters": 20, "dca_cap": 2000, "rho": 100.0, "solver": '
        '{"variant": "bdca-b", "alpha": 0.4, "beta": 0.5, "lambda_bar": 2.0, '
        '"lambda_max": 8.0, "max_outer_iters": 1000, "max_backtracks": 60, '
        '"tol_d": null, "tol_x": null, "inner": {"tol_grad": 1e-08, "max_iters": 200, '
        '"damping_floor": 1e-10}, "target_phi": null}}')

    def test_old_echo_loads_and_runs_as_the_defaults_do(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(self.OLD_ECHO)
        assert main(["compare", "--spec-file", str(spec_path), "--out",
                     str(tmp_path / "old")]) == 0
        config, _ = first_line_json(capsys)
        assert config["solver"] == SolverConfig(variant="bdca-b", lambda_bar=2.0,
                                                lambda_max=8.0).to_json()
        assert main(["compare", "--builtin", "quartic", "--trials", "1",
                     "--bdca-iters", "20", "--variant", "bdca-b", "--lambda-bar", "2",
                     "--lambda-max", "8", "--out", str(tmp_path / "new")]) == 0
        assert first_line_json(capsys)[0] == config
        for name in ("quartic_0_bdca-b.csv", "quartic_0_dca.csv"):
            old, new = (read_trace_csv(tmp_path / side / "traces" / name)
                        for side in ("old", "new"))
            assert [replace(r, elapsed_ms=0.0) for r in old] == \
                [replace(r, elapsed_ms=0.0) for r in new]

    @pytest.mark.parametrize("field, value", [
        ("max_backtracks", 2.5), ("max_backtracks", 61), ("tol_d", 1e-6), ("tol_x", 0.0),
        ("inner.max_iters", 2.5), ("inner.max_iters", 2000), ("inner.damping_floor", 1e-8),
    ])
    def test_removed_field_at_another_value_exit_2(self, capsys, tmp_path, field, value):
        spec = json.loads(self.OLD_ECHO)
        outer, _, name = field.rpartition(".")
        (spec["solver"][outer] if outer else spec["solver"])[name] = value
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["compare", "--spec-file", str(spec_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: solver field {field} was removed")
        assert "Traceback" not in err

    def test_nan_rho_exit_2(self, capsys):
        assert main(["compare", "--generate", "4:6:1", "--trials", "1",
                     "--bdca-iters", "5", "--rho", "nan"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "rho must be nonnegative" in captured.err

    @pytest.mark.parametrize("flags", [
        ["--builtin", "quartic", "--lambda-max", "inf"],
        ["--generate", "6:9:5", "--rho", "inf"],
    ])
    def test_infinite_setting_exit_2(self, capsys, flags):
        # both used to run: the first echoed "lambda_max": null, which the
        # spec file could not replay, and the second failed every trial
        assert main(["compare", "--trials", "1", "--bdca-iters", "5", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")
        assert "finite" in captured.err

    @pytest.mark.parametrize("fields", [
        {"solver": {"lambda_max": float("inf")}},
        {"rho": float("inf")},
        {"problems": [{"builtin": "quartic", "rho": float("inf")}]},
    ])
    def test_infinite_setting_in_spec_file_exit_2(self, capsys, tmp_path, fields):
        spec = {"problems": [{"builtin": "quartic"}], "trials": 1, "bdca_iters": 5, **fields}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))  # an infinity is written as Infinity
        assert main(["compare", "--spec-file", str(spec_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite" in err and "Traceback" not in err

    @pytest.mark.parametrize("solver, named", [
        ([["alpha", 0.3]], "solver must be an object"),
        ({"inner": [["tol_grad", 1e-6]]}, "solver.inner must be an object"),
        ({"alpha": "x"}, "alpha must be a number"),
        ({"alhpa": 0.3}, "unknown solver fields: ['alhpa']"),
    ])
    def test_solver_of_another_json_type_exit_2(self, capsys, tmp_path, solver, named):
        # a list of pairs used to run as the object it spells, with alpha 0.3
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"problems": [{"builtin": "quartic"}], "trials": 1,
                                         "bdca_iters": 5, "solver": solver}))
        assert main(["compare", "--spec-file", str(spec_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {named}")
        assert "Traceback" not in captured.err

    def test_no_problems_exit_2(self, capsys):
        assert main(["compare"]) == 2
        assert main(["compare", "--generate", "banana"]) == 2
        capsys.readouterr()


class TestLibraryDefaults:
    """A flag left out takes the library's default, and each echo shows it."""

    def test_solve_echo(self, capsys):
        assert main(["solve", "--builtin", "quartic", "--x0", "0.5"]) == 0
        config, _ = first_line_json(capsys)
        assert {k: config[k] for k in SolverConfig().to_json()} == SolverConfig().to_json()

    def test_compare_echo(self, capsys):
        assert main(["compare", "--builtin", "quartic"]) == 0
        config, _ = first_line_json(capsys)
        source = ProblemSource(kind="builtin", name="quartic")
        assert config == ExperimentSpec(problems=[source]).to_json()

    def test_audit_echo(self, capsys, tmp_path):
        trace = TestAudit().make_trace(tmp_path, capsys)
        main(["audit", str(trace)])
        config, _ = first_line_json(capsys)
        assert config["alpha"] == SolverConfig().alpha
        assert config["variant"] == SolverConfig().variant.value
        assert config["tol_base"] == AUDIT_TOL_BASE


class TestMisc:
    def test_no_command_usage(self, capsys):
        assert main([]) == 2
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_deterministic_x0_seed(self, capsys):
        assert main(["solve", "--builtin", "quartic", "--variant", "dca",
                     "--x0-seed", "3"]) == 0
        first = capsys.readouterr().out
        assert main(["solve", "--builtin", "quartic", "--variant", "dca",
                     "--x0-seed", "3"]) == 0
        second = capsys.readouterr().out

        def strip_timing(text):
            return [line for line in text.splitlines()
                    if not line.startswith("trace:")]

        assert strip_timing(first) == strip_timing(second)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A directory of good and malformed input files for every subcommand."""
    d = tmp_path_factory.mktemp("inputs")
    save_network(generate_network(6, 9, 5), d / "net.json")
    model = json.loads((d / "net.json").read_text())
    (d / "bad.json").write_text(json.dumps({k: v for k, v in model.items() if k != "F"}))
    (d / "misspelt.json").write_text(json.dumps({**model, "nmae": "typo"}))
    model["F"][0][2] += 1  # unbalance one coefficient
    (d / "unbalanced.json").write_text(json.dumps(model))
    (d / "masses.json").write_text(json.dumps([1.0] * 3))
    (d / "list_solver.json").write_text(json.dumps({
        "problems": [{"builtin": "quartic"}], "trials": 1, "bdca_iters": 5,
        "solver": [["alpha", 0.3]]}))
    result = solve(builtin_problem("quartic"), [2.0], SolverConfig(variant="dca"))
    write_trace_csv(result.trace, d / "trace.csv")
    rows = list(csv.reader((d / "trace.csv").read_text().splitlines()))
    with open(d / "noslope.csv", "w", newline="") as handle:
        csv.writer(handle).writerows(row[:-1] for row in rows)
    rows[4][1] = str(float(rows[4][1]) + 1.0)  # bump phi_x at k=3
    with open(d / "corrupted.csv", "w", newline="") as handle:
        csv.writer(handle).writerows(rows)
    (d / "short.csv").write_text("k,norm_d\n0,1\n1\n2,0.25\n")
    return d


# The README's exit codes, one row per case: 0 success; 1 a runtime failure
# (a failed solve or audit, a file that cannot be read or written, or a
# malformed input file, printed as "schema error:"); 2 a usage or
# validation error.  "{d}" is the inputs directory.  An empty prefix means
# nothing on stderr, as this module filters out TheoryWarning.
EXIT_CODES = [
    ("solve --builtin quartic --x0 0.5", 0, ""),
    ("solve --builtin expsys --x0 800", 1, ""),
    ("solve --model {d}/missing.json", 1, "error:"),
    ("solve --model {d}/bad.json", 1, "schema error: F: missing"),
    ("solve --builtin quartic --x0 1,2", 2, "error: --x0 has 2 entries"),
    ("compare --builtin quartic --trials 1 --bdca-iters 5", 0, ""),
    ("compare --spec-file {d}/missing.json", 1, "error:"),
    ("compare --model {d}/bad.json --trials 1 --bdca-iters 5", 1, "schema error: F: missing"),
    ("compare --spec-file {d}/list_solver.json", 2, "error: solver must be an object"),
    ("compare", 2, "error: no problems given"),
    ("generate --m 6 --n 9 --seed 5 --out {d}/out.json", 0, ""),
    ("generate --m 6 --n 9 --seed 5 --out {d}/absent/x.json", 1, "error:"),
    ("generate --m 20 --n 2 --seed 0 --out {d}/x.json", 1, "error: could not cover"),
    ("generate --m 1 --n 4 --seed 0 --out {d}/x.json", 2, "error: need at least two"),
    ("validate {d}/net.json", 0, ""),
    ("validate {d}/missing.json", 1, "error:"),
    ("validate {d}/bad.json", 1, "schema error: F: missing"),
    ("validate {d}/net.json --l-file {d}/masses.json", 1, "schema error: l-file: l must"),
    ("validate {d}/unbalanced.json", 2, ""),
    ("validate", 2, "usage:"),
    ("rate {d}/trace.csv", 0, ""),
    ("rate {d}/missing.csv", 1, "error:"),
    ("rate {d}/short.csv", 1, "schema error:"),
    ("rate {d}/trace.csv --column zzz", 1, "schema error:"),
    ("rate {d}/trace.csv --atol=-1", 2, "error: --atol must be"),
    ("audit {d}/trace.csv --sigma-h 1 --variant dca", 0, ""),
    ("audit {d}/corrupted.csv --sigma-h 1 --variant dca", 1, ""),
    ("audit {d}/missing.csv", 1, "error:"),
    ("audit {d}/noslope.csv", 1, "schema error:"),
    ("audit {d}/trace.csv --rho=-1", 2, "error: rho must be"),
    ("solve --builtin quartic --x0-seed -1", 2, "error: --x0-seed must be"),
    ("compare --generate 4:6:-1 --trials 1 --bdca-iters 3", 2,
     "error: generate source seed must be"),
    ("validate {d}/misspelt.json", 1, "schema error: nmae: unknown field"),
]


@pytest.mark.parametrize("command, code, prefix", EXIT_CODES,
                         ids=[f"{cmd.split()[0]}-{c}-{i}" for i, (cmd, c, _) in
                              enumerate(EXIT_CODES)])
def test_exit_code_table(capsys, inputs, command, code, prefix):
    assert main([part.format(d=inputs) for part in command.split()]) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix) if prefix else err == ""
    assert "Traceback" not in err
