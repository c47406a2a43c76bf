"""Command-line interface: exit codes, config echo, file outputs."""

import csv
import json

import numpy as np
import pytest

from dcboost import ExperimentSpec
from dcboost.cli import main

pytestmark = pytest.mark.filterwarnings("ignore::dcboost.TheoryWarning")


def first_line_json(capsys):
    out = capsys.readouterr().out
    return json.loads(out.splitlines()[0]), out


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

    def test_failure_exit_code(self, capsys):
        code = main(["solve", "--builtin", "expsys", "--x0", "800"])
        assert code == 1
        assert "NumericalFailure" in capsys.readouterr().out

    def test_usage_errors(self, capsys):
        assert main(["solve", "--builtin", "quartic", "--x0", "1,2"]) == 2
        assert main(["solve", "--builtin", "quartic", "--x0", "abc"]) == 2
        assert main(["solve", "--builtin", "nope"]) == 2
        assert main(["solve"]) == 2
        assert main(["solve", "--builtin", "quartic", "--beta", "1.5"]) == 2
        assert main(["solve", "--builtin", "quartic", "--tol", "-1"]) == 2
        capsys.readouterr()

    def test_unreadable_model_exit_1(self, capsys, tmp_path):
        assert main(["solve", "--model", str(tmp_path / "missing.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unwritable_trace_exit_1(self, capsys, tmp_path):
        assert main(["solve", "--builtin", "quartic", "--x0", "0.216",
                     "--trace-out", str(tmp_path / "absent" / "trace.csv")]) == 1
        assert "error:" in capsys.readouterr().err


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

    def test_validate_unreadable_exit_1(self, capsys, tmp_path):
        assert main(["validate", str(tmp_path / "missing.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_generate_unwritable_exit_1(self, capsys, tmp_path):
        assert main(["generate", "--m", "6", "--n", "9", "--seed", "5",
                     "--out", str(tmp_path / "absent" / "x.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_generate_bad_sizes(self, capsys, tmp_path):
        assert main(["generate", "--m", "1", "--n", "4", "--seed", "0",
                     "--out", str(tmp_path / "x.json")]) == 1
        capsys.readouterr()


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

    @pytest.mark.parametrize("subtract_final", [False, True])
    def test_empty_trace(self, capsys, tmp_path, subtract_final):
        path = tmp_path / "trace.csv"
        path.write_text("k,norm_d\n")
        flags = ["--subtract-final"] if subtract_final else []
        assert main(["rate", str(path), *flags]) == 1
        assert "error: empty sequence" in capsys.readouterr().err


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


class TestCompare:
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

    def test_bad_spec_exit_2(self, capsys, tmp_path):
        quartic = [{"builtin": "quartic"}]
        solver = {"variant": "bdca-b", "lambda_bar": 2.0, "lambda_max": 8.0}
        cases = [
            (quartic, {**solver, "beta": 1.5}, "beta"),
            (quartic, {**solver, "proximal_c": 1.0}, "proximal_c"),
            ([{"generate": {"m": 3}}], solver, "integer m, n and seed"),
            ([{"generate": {"m": "3", "n": 4, "seed": 0}}], solver, "integer m, n and seed"),
            ([{"builtin": "nope"}], solver, "'nope'"),
        ]
        spec_path = tmp_path / "spec.json"
        for problems, solver_json, named in cases:
            spec_path.write_text(json.dumps({
                "problems": problems, "trials": 2, "solver": solver_json,
            }))
            assert main(["compare", "--spec-file", str(spec_path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and named in err

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

    def test_no_problems_exit_2(self, capsys):
        assert main(["compare"]) == 2
        assert main(["compare", "--generate", "banana"]) == 2
        capsys.readouterr()


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
