"""Matched-target protocol, experiment aggregation, and table round-trips."""

import json

import numpy as np
import pytest

from dcboost import (
    ExperimentSpec,
    ProblemSource,
    SolverConfig,
    Status,
    export_table,
    generate_network,
    make_quartic_problem,
    read_table,
    run_experiment,
    run_matched_target,
    save_network,
)

pytestmark = pytest.mark.filterwarnings("ignore::dcboost.TheoryWarning")


def quartic_solver():
    return SolverConfig(variant="bdca-b", lambda_bar=2.0, lambda_max=8.0)


class TestMatchedTarget:
    def test_quartic_protocol(self):
        prob = make_quartic_problem()
        matched = run_matched_target(prob, np.array([1.9]), quartic_solver(),
                                     bdca_iters=50)
        assert matched.bdca.status in (Status.STATIONARY_POINT, Status.MAX_ITERS)
        assert matched.dca_reached
        assert matched.target == matched.bdca.phi_final
        slack = 1e-9 * (1.0 + abs(matched.target))
        assert matched.dca.phi_final <= matched.target + slack
        assert matched.dca.iterations >= matched.bdca.iterations

    def test_boosted_side_cannot_be_plain(self):
        prob = make_quartic_problem()
        with pytest.raises(ValueError):
            run_matched_target(prob, np.array([1.0]),
                               SolverConfig(variant="dca"), bdca_iters=20)

    def test_stationary_start_trivial(self):
        prob = make_quartic_problem()
        matched = run_matched_target(prob, np.array([1.0]), quartic_solver(),
                                     bdca_iters=20)
        assert matched.bdca.iterations == 0
        assert matched.dca.iterations == 0
        assert matched.dca_reached


class TestProblemSource:
    def test_builtin_round_trip(self):
        src = ProblemSource(kind="builtin", name="quartic")
        assert ProblemSource.from_json(src.to_json()) == src
        label, prob, n = src.resolve(default_rho=100.0)
        assert label == "quartic"
        assert prob.rho == 0.0  # builtins keep their registered rho
        assert n == 0

    def test_builtin_rho_override(self):
        src = ProblemSource(kind="builtin", name="quartic", rho=2.0)
        _, prob, _ = src.resolve(default_rho=100.0)
        assert prob.rho == 2.0

    def test_generate_uses_default_rho(self):
        src = ProblemSource(kind="generate", m=6, n=9, seed=1)
        label, prob, n = src.resolve(default_rho=100.0)
        assert prob.rho == 100.0
        assert label.startswith("synthetic")
        assert prob.m == 6 and n == 9

    def test_model_source(self, tmp_path):
        net = generate_network(6, 9, seed=2)
        path = tmp_path / "model.json"
        save_network(net, path)
        src = ProblemSource(kind="model", path=str(path))
        label, prob, n = src.resolve(default_rho=50.0)
        assert label == net.name and n == net.n
        assert prob.rho == 50.0
        assert ProblemSource.from_json(src.to_json()) == src

    def test_validation(self):
        with pytest.raises(ValueError):
            ProblemSource(kind="builtin")
        with pytest.raises(ValueError):
            ProblemSource(kind="model")
        with pytest.raises(ValueError):
            ProblemSource(kind="generate", m=5)
        with pytest.raises(ValueError):
            ProblemSource(kind="magic", name="x")
        with pytest.raises(ValueError):
            ProblemSource.from_json({"builtin": "a", "model": "b"})


class TestExperimentSpec:
    def make_spec(self):
        return ExperimentSpec(
            problems=[ProblemSource(kind="builtin", name="quartic")],
            trials=2,
            seed=7,
            bdca_iters=30,
            solver=quartic_solver(),
        )

    def test_json_round_trip(self):
        spec = self.make_spec()
        clone = ExperimentSpec.from_json(spec.to_json())
        assert clone.trials == spec.trials
        assert clone.seed == spec.seed
        assert clone.bdca_iters == spec.bdca_iters
        assert clone.solver.variant is spec.solver.variant
        assert clone.solver.lambda_bar == spec.solver.lambda_bar
        assert clone.problems == spec.problems

    def test_unknown_fields_rejected(self):
        payload = self.make_spec().to_json()
        payload["bogus"] = 1
        with pytest.raises(ValueError, match="bogus"):
            ExperimentSpec.from_json(payload)

    def test_boosted_side_checked(self):
        with pytest.raises(ValueError):
            ExperimentSpec(
                problems=[ProblemSource(kind="builtin", name="quartic")],
                solver=SolverConfig(variant="dca"),
            )

    def test_cap_default(self):
        spec = self.make_spec()
        assert spec.resolved_dca_cap() == 100 * spec.bdca_iters
        spec.dca_cap = 500
        assert spec.resolved_dca_cap() == 500

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentSpec(problems=[])
        with pytest.raises(ValueError):
            ExperimentSpec(
                problems=[ProblemSource(kind="builtin", name="quartic")],
                trials=0,
            )

    def test_nan_rho_raises(self):
        source = ProblemSource(kind="builtin", name="quartic")
        with pytest.raises(ValueError, match="rho must be nonnegative, got nan"):
            ExperimentSpec(problems=[source], rho=float("nan"))

    @pytest.mark.parametrize("value", [float("inf"), float("-inf")])
    def test_infinite_rho_raises(self, value):
        source = ProblemSource(kind="builtin", name="quartic")
        with pytest.raises(ValueError, match="rho must be nonnegative, got -?inf; "
                                             "it must also be finite"):
            ExperimentSpec(problems=[source], rho=value)
        with pytest.raises(ValueError, match="rho must be nonnegative"):
            ExperimentSpec.from_json({"problems": [source.to_json()], "rho": value})
        with pytest.raises(ValueError, match="source rho must be a nonnegative finite number"):
            ProblemSource(kind="builtin", name="quartic", rho=value)
        with pytest.raises(ValueError, match="source rho"):
            ProblemSource.from_json({"generate": {"m": 4, "n": 6, "seed": 1}, "rho": value})

    @pytest.mark.parametrize("field", ["trials", "seed", "bdca_iters", "dca_cap"])
    @pytest.mark.parametrize("value", [2.5, True, "3"])
    def test_counts_must_be_integers(self, field, value):
        source = ProblemSource(kind="builtin", name="quartic")
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ExperimentSpec(problems=[source], **{field: value})

    @pytest.mark.parametrize("low, high", [(-np.inf, 2.0), (-2.0, np.inf),
                                           (-1e308, 1e308)])
    def test_start_box_needs_a_finite_width(self, low, high):
        # rng.uniform would raise OverflowError on such a box
        source = ProblemSource(kind="builtin", name="quartic")
        with pytest.raises(ValueError, match="must have a finite width"):
            ExperimentSpec(problems=[source], x0_low=low, x0_high=high)
        assert ExperimentSpec(problems=[source], x0_low=-1e307, x0_high=1e307)

    @staticmethod
    def paths(obj, prefix=()):
        """The path to every value inside a JSON value, its own path first."""
        yield prefix
        if isinstance(obj, dict):
            items = obj.items()
        elif isinstance(obj, list):
            items = enumerate(obj)
        else:
            return
        for key, value in items:
            yield from TestExperimentSpec.paths(value, prefix + (key,))

    def test_a_value_of_another_json_type_is_a_value_error(self):
        # a spec file is data: a value of the wrong JSON type anywhere in it is
        # refused with ValueError, where a comparison in a check, or dict() on
        # a list of pairs, used to raise TypeError or accept it
        spec = ExperimentSpec(
            problems=[ProblemSource(kind="builtin", name="quartic", rho=2.0),
                      ProblemSource(kind="model", path="net.json"),
                      ProblemSource(kind="generate", m=4, n=6, seed=1)],
            dca_cap=50, solver=quartic_solver()).to_json()
        spec["solver"]["inner"] = {"max_iters": 200}  # a removed field at its kept value
        kind = {bool: "bool", int: "number", float: "number", str: "str",
                list: "list", dict: "dict", type(None): "null"}
        checked = 0
        for path in self.paths(spec):
            if not path:
                continue
            for value in ("x", [1.0], {"a": 1}, True, None):
                edited = json.loads(json.dumps(spec))
                *parents, last = path
                node = edited
                for key in parents:
                    node = node[key]
                if kind[type(value)] == kind[type(node[last])]:
                    continue
                node[last] = value
                try:
                    ExperimentSpec.from_json(edited)
                except ValueError:
                    checked += 1
                else:
                    # only an optional setting may be null
                    assert value is None, (path, value)
        assert checked > 100

    def test_seed_may_be_zero_but_not_negative(self):
        source = ProblemSource(kind="builtin", name="quartic")
        assert ExperimentSpec(problems=[source], seed=np.int64(0)).seed == 0
        with pytest.raises(ValueError, match="seed must be an integer of at least 0"):
            ExperimentSpec(problems=[source], seed=-1)


class TestRunExperiment:
    def small_spec(self):
        return ExperimentSpec(
            problems=[
                ProblemSource(kind="builtin", name="quartic"),
                ProblemSource(kind="generate", m=6, n=9, seed=42),
            ],
            trials=2,
            seed=3,
            bdca_iters=40,
            rho=100.0,
            solver=SolverConfig(variant="bdca-qi", lambda_bar=2.0, lambda_max=8.0),
        )

    def test_rows_and_outputs(self, tmp_path):
        out = tmp_path / "exp"
        result = run_experiment(self.small_spec(), out_dir=out)
        assert len(result.rows) == 2
        quartic_row = result.rows[0]
        assert quartic_row.name == "quartic"
        assert quartic_row.m == 1 and quartic_row.n == 0
        assert quartic_row.trials == 2
        net_row = result.rows[1]
        assert net_row.m == 6 and net_row.n == 9

        assert (out / "rows.csv").is_file()
        assert (out / "spec.json").is_file()
        traces = sorted(p.name for p in (out / "traces").iterdir())
        assert "quartic_0_bdca-qi.csv" in traces
        assert "quartic_0_dca.csv" in traces
        assert len(traces) == 8

        # spec.json reloads into an equivalent spec
        reloaded = ExperimentSpec.from_json(
            json.loads((out / "spec.json").read_text()))
        assert reloaded.seed == 3

    def test_single_trial_stats_degenerate(self):
        spec = self.small_spec()
        spec.trials = 1
        spec.problems = spec.problems[:1]
        row = run_experiment(spec).rows[0]
        assert row.bdca_iters_min == row.bdca_iters_max
        assert row.bdca_iters_avg == pytest.approx(row.bdca_iters_min)
        assert row.dca_iters_min == row.dca_iters_max

    def test_deterministic_iteration_counts(self):
        a = run_experiment(self.small_spec())
        b = run_experiment(self.small_spec())
        for ra, rb in zip(a.rows, b.rows):
            assert ra.bdca_iters_min == rb.bdca_iters_min
            assert ra.bdca_iters_max == rb.bdca_iters_max
            assert ra.bdca_iters_avg == rb.bdca_iters_avg
            assert ra.dca_iters_min == rb.dca_iters_min
            assert ra.dca_iters_max == rb.dca_iters_max
            assert ra.dca_iters_avg == rb.dca_iters_avg
            assert ra.avg_phi0 == rb.avg_phi0
            assert ra.avg_phi_end == rb.avg_phi_end

    def test_reaction_count_survives_wrapped_evaluator(self, monkeypatch):
        # a profiler or tracer may wrap eval_f1; the row's n must not
        # depend on what the problem's callables look like
        resolve = ProblemSource.resolve

        def resolve_wrapped(source, default_rho):
            resolved = resolve(source, default_rho)
            problem = resolved[1]
            eval_f1 = problem.eval_f1
            problem.eval_f1 = lambda x: eval_f1(x)
            return resolved

        monkeypatch.setattr(ProblemSource, "resolve", resolve_wrapped)
        spec = self.small_spec()
        spec.trials = 1
        rows = run_experiment(spec).rows
        assert [row.n for row in rows] == [0, 9]

    def test_per_trial_results_kept(self):
        result = run_experiment(self.small_spec())
        assert set(result.trials) == {"quartic", "synthetic_m6_n9_s42"}
        for trials in result.trials.values():
            assert len(trials) == 2
            for t in trials:
                assert np.all(np.abs(t.x0) <= 2.0)
                assert t.matched.dca.iterations >= 0


class TestTableCsv:
    def test_round_trip(self, tmp_path):
        spec = ExperimentSpec(
            problems=[ProblemSource(kind="builtin", name="quartic")],
            trials=2,
            bdca_iters=30,
            solver=quartic_solver(),
        )
        rows = run_experiment(spec).rows
        path = tmp_path / "rows.csv"
        export_table(rows, path)
        loaded = read_table(path)
        assert loaded == rows

    def test_bad_columns_rejected(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("name,m\nquartic,1\n")
        with pytest.raises(ValueError):
            read_table(path)
