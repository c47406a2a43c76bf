"""Span recording around dcboost's public functions, installed from outside.

The traced run replaces a problem's evaluation fields and patches a few
module-level names with wrappers that record one span per call: name,
start, end, the index of the enclosing span, and an optional value taken
from the result (the damping of ``spd_solve``, the Newton count of
``minimize_subproblem``, ...).  Nothing under ``src/`` changes; the
originals come back when the ``traced`` context exits.

Span names are ``<module>.<function>``, so the module names are the layers.
"""

import csv
import importlib
import time
from contextlib import contextmanager
from typing import Callable, NamedTuple

# DcProblem instance fields (and its two derived methods) -> span name.
# The evaluation callables come from NetworkObjective, so they are
# attributed to biochem; grad_h and eval_g are DcProblem's own code.
PROBLEM_FIELDS = (
    ("eval_f1", "biochem.eval_f1"),
    ("eval_f2", "biochem.eval_f2"),
    ("f1_value", "biochem.f1_value"),
    ("phi_value", "biochem.phi_value"),
    ("phi_value_grad", "biochem.phi_value_grad"),
    ("grad_h", "problem.grad_h"),
    ("eval_g", "problem.eval_g"),
)


def _second(result):
    return result[1]


def _whole(result):
    return result


# (module, attribute, span name, value kept from the result).  Each name is
# patched in the namespace its caller looks it up in: minimize_subproblem
# and the line searches are called from dcboost.solver, spd_solve from
# dcboost.inner, and solve from dcboost.harness.
MODULE_PATCHES = (
    ("dcboost.inner", "spd_solve", "inner.spd_solve", _second),
    ("dcboost.solver", "minimize_subproblem", "inner.minimize_subproblem", _second),
    ("dcboost.solver", "backtrack", "solver.backtrack", _whole),
    ("dcboost.solver", "bdca_qi_select", "solver.bdca_qi_select", None),
    ("dcboost.solver", "fm_step", "solver.fm_step", _second),
    ("dcboost.solver", "descent_slope", "solver.descent_slope", None),
    ("dcboost.harness", "solve", "solver.solve", None),
)

NAME, START, END, PARENT, INFO = range(5)


class SpanRecorder:
    """Keeps spans in memory as ``[name, start, end, parent, info]`` lists."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn, info=None):
        spans, open_spans, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1, None]
            open_spans.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                open_spans.pop()
            if info is not None:
                span[INFO] = info(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self):
        """Duration of each span minus the durations of its direct children."""
        own = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    def write_csv(self, path):
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(("index", "name", "start_s", "end_s", "parent", "info"))
            for idx, span in enumerate(self.spans):
                info = span[INFO]
                writer.writerow((idx, span[NAME], repr(span[START]), repr(span[END]),
                                 span[PARENT], "" if info is None else repr(info)))


class Calls(NamedTuple):
    """The two entry points the benchmark calls: plain or wrapped."""

    run_matched_target: Callable
    solve: Callable


@contextmanager
def patched(replacements):
    """Set ``(owner, attribute, value)`` triples; restore the originals on exit.

    An attribute the owner did not hold itself (a method found on an
    instance's class) is deleted again rather than set back.
    """
    saved = []
    try:
        for owner, attr, value in replacements:
            own = vars(owner)
            saved.append((owner, attr, attr in own, own.get(attr)))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, had_own, original in reversed(saved):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


@contextmanager
def traced(recorder, problem):
    """Install span wrappers on ``problem`` and the patched modules.

    Yields the wrapped ``run_matched_target`` and ``solve`` the benchmark
    calls directly.  A field or function that is missing raises, so a
    change to the package's structure fails the traced run instead of
    reading as zero calls.
    """
    replacements = []
    for field, name in PROBLEM_FIELDS:
        fn = getattr(problem, field)
        if not callable(fn):
            raise TypeError(f"DcProblem.{field} is {fn!r}, not a function to trace")
        replacements.append((problem, field, recorder.wrap(name, fn)))
    for module_name, attr, name, info in MODULE_PATCHES:
        module = importlib.import_module(module_name)
        replacements.append((module, attr, recorder.wrap(name, getattr(module, attr), info)))
    harness = importlib.import_module("dcboost.harness")
    with patched(replacements):
        yield Calls(
            run_matched_target=recorder.wrap("harness.run_matched_target",
                                             harness.run_matched_target),
            solve=harness.solve,
        )
