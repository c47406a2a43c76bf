"""The benchmark hooks into names of this package.

``perfbench/tracer.py`` wraps the ``DcProblem`` fields in
``PROBLEM_FIELDS`` and the module attributes in ``MODULE_PATCHES``, and
raises when one is missing.  ``perfbench/run.py``'s timing probe wraps
``dcboost.solver.descent_slope`` and ``dcboost.harness.solve`` and stops
a run when their call counts do not line up with the iterations.  The
suite never runs the benchmark, so these checks keep a change to the
package from breaking it unseen.  The tracer is loaded by path and only
read.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from dcboost import (NetworkObjective, SolverConfig, Status, Variant, generate_network,
                     harness, solver)

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_problem_fields_are_callable(tracer):
    problem = NetworkObjective(generate_network(6, 9, 5)).as_dc_problem(rho=100.0)
    for field, _ in tracer.PROBLEM_FIELDS:
        assert callable(getattr(problem, field, None)), field


def test_module_patches_resolve(tracer):
    for module_name, attr, _, _ in tracer.MODULE_PATCHES:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_probe_call_counts(monkeypatch):
    # the probe times one calibration call per descent_slope call, so solve
    # must make one in every iteration it records, and at most one more in
    # an iteration that then fails; a matched trial must be two solves
    slopes, results = [], []   # per solve call: descent_slope calls, result
    descent_slope, solve = solver.descent_slope, solver.solve

    def counted_slope(*args, **kwargs):
        slopes[-1] += 1
        return descent_slope(*args, **kwargs)

    def counted_solve(*args, **kwargs):
        slopes.append(0)
        results.append(solve(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(solver, "descent_slope", counted_slope)
    monkeypatch.setattr(harness, "solve", counted_solve)
    problem = NetworkObjective(generate_network(20, 30, 101)).as_dc_problem(rho=100.0)
    x0 = np.random.default_rng(26).uniform(-2.0, 2.0, size=problem.m)
    for variant in Variant:
        counted_solve(problem, x0, SolverConfig(variant=variant, max_outer_iters=30))
    harness.run_matched_target(problem, x0, SolverConfig(), bdca_iters=30)
    assert len(results) == len(Variant) + 2
    failing = NetworkObjective(generate_network(3, 6, 700454)).as_dc_problem(rho=100.0)
    result = counted_solve(failing, np.array([1.55, 6.68, 3.03]), SolverConfig(variant="dca"))
    assert result.status is Status.NUMERICAL_FAILURE
    for count, result in zip(slopes, results):
        extra = count - len(result.trace)
        assert extra == 0 or (extra == 1 and result.status.is_failure), result.status


def test_traced_spans_count_the_calls(tracer):
    # a traced run must see every call of the fields and functions it
    # wraps: a solver that went round a wrapped name would read as fewer
    # calls here; eval_g is wrapped but the solvers never call it.  The
    # chase's predicted starts took its Newton steps (eval_f1 = spd_solve)
    # from 317 to 297 and its Armijo trials (f1_value) from 317 to 298; its
    # chord steps then took the Hessians to 268 and, being more steps, the
    # trials to 423; chord steps in every variant, each factor kept only by
    # a step that cuts ||grad F|| tenfold, took them to 138 and 462.  Full
    # steps then kept their trial's value and gradient, one g_value_grad
    # call, which leaves f1_value the 14 halved trials; and the chase took
    # its slopes from grad F(y) and grad h(y), the next linear term, which
    # took phi_value_grad from 81 to 60 (the boosted runs' 20 + 20 + 20) and
    # grad_h, one per iteration and one at x0, from 81 to 82
    problem = NetworkObjective(generate_network(20, 30, 101)).as_dc_problem(rho=100.0)
    x0 = np.random.default_rng(26).uniform(-2.0, 2.0, size=problem.m)
    recorder = tracer.SpanRecorder()
    with tracer.traced(recorder, problem) as calls:
        calls.run_matched_target(problem, x0, SolverConfig(), bdca_iters=20)
        for variant in ("bdca-b", "fm"):
            calls.solve(problem, x0, SolverConfig(variant=variant, max_outer_iters=20))
    counts = {}
    for span in recorder.spans:
        counts[span[tracer.NAME]] = counts.get(span[tracer.NAME], 0) + 1
    assert counts == {
        "biochem.eval_f1": 138, "inner.spd_solve": 138, "biochem.f1_value": 14,
        "biochem.phi_value": 327,
        "biochem.eval_f2": 82, "problem.grad_h": 82, "inner.minimize_subproblem": 81,
        "solver.descent_slope": 81, "biochem.phi_value_grad": 60,
        "solver.backtrack": 40, "solver.bdca_qi_select": 20, "solver.fm_step": 20,
        "solver.solve": 4, "harness.run_matched_target": 1,
    }
