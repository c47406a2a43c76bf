"""The line trace of ``tools/traffic.py`` on a two-iteration quartic solve.

The tool runs in a subprocess, so its tracer stays out of the test
process.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dcboost import builtin_problem

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "traffic.py"
SCRIPT = """\
import sys
import warnings

from dcboost import SolverConfig, builtin_problem, solve

warnings.simplefilter("ignore")  # the quartic's TheoryWarning
result = solve(builtin_problem("quartic"), [2.0],
               SolverConfig(variant="dca", max_outer_iters=2))
assert result.iterations == 2 and sys.argv[1:] == ["one", "two"]
sys.exit(3)
"""


def run_tool(*args):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          capture_output=True, text=True, cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})


def code_lines(func):
    return {line for _, _, line in func.__code__.co_lines() if line}


def missed_in_problem(hits):
    """The line numbers --report lists as unreached in problem.py."""
    done = run_tool(hits, "--report")
    assert done.returncode == 0, done.stderr
    assert re.search(r"^total: \d+ of \d+ executable lines recorded$", done.stdout, re.M)
    module = done.stdout.split("problem.py:", 1)[1].split("solver.py:", 1)[0]
    return {int(n) for n in re.findall(r"^ +(\d+)  ", module, flags=re.M)}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("traffic")
    script, hits = tmp / "quartic_two_steps.py", tmp / "hits.json"
    script.write_text(SCRIPT)
    done = run_tool(hits, "--", script, "one", "two")
    # the script's own exit status, after its hits were merged
    assert done.returncode == 3, done.stderr
    return hits


def test_reached_lines_are_recorded(traced):
    recorded = json.loads(traced.read_text())
    assert code_lines(builtin_problem("quartic").eval_f1) <= set(recorded["problem.py"])


def test_report_lists_unreached_lines(traced):
    missed = missed_in_problem(traced)
    assert code_lines(builtin_problem("expsys").phi_value) <= missed
    assert not code_lines(builtin_problem("quartic").eval_f1) & missed


def test_runs_merge(traced, tmp_path):
    # a second run adds its lines to the record: expsys's phi_value is
    # then reached
    script = tmp_path / "expsys_phi.py"
    script.write_text("from dcboost import builtin_problem\n"
                      "builtin_problem('expsys').phi_value(0.5)\n")
    merged = tmp_path / "hits.json"
    merged.write_text(traced.read_text())
    assert run_tool(merged, "--", script).returncode == 0
    assert not code_lines(builtin_problem("expsys").phi_value) & missed_in_problem(merged)


def test_needs_a_script_or_report(tmp_path):
    assert run_tool(tmp_path / "hits.json").returncode == 2
    assert run_tool(tmp_path / "hits.json", "--report", "--", "x.py").returncode == 2
