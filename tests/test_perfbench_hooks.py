"""The benchmark's traced run hooks into names of this package.

``perfbench/tracer.py`` wraps the ``DcProblem`` fields in
``PROBLEM_FIELDS`` and the module attributes in ``MODULE_PATCHES``, and
raises when one is missing.  The suite never runs a traced benchmark, so
these checks keep a change to the package's surface from breaking it
unseen.  The tracer is loaded by path and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from dcboost import NetworkObjective, generate_network

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
