"""DC solvers: plain subproblem iteration plus boosted line-search variants.

All variants share the same inner step: minimize the strongly convex
model g(x) - <grad_h(x_k), x> to get y_k.  They differ in how x_{k+1}
is chosen from x_k and y_k:

* ``dca``      takes x_{k+1} = y_k.
* ``bdca-b``   searches forward along d_k = y_k - x_k from y_k, halving
               an initial step until a sufficient-decrease test holds.
* ``bdca-qi``  first refines the initial step with a quadratic
               interpolation of lambda -> phi(y_k + lambda * d_k).
* ``fm``       searches backward from x_k along d_k (the classical
               baseline; steps never pass y_k).
"""

import csv
import enum
import json
import math
import time
import warnings
from dataclasses import asdict, dataclass, fields
from operator import attrgetter, itemgetter
from typing import List, Optional

import numpy as np
from scipy.linalg.blas import ddot

from .exceptions import LineSearchError, NumericalError, SchemaError, TheoryWarning
from .inner import (_DAMPING_FLOOR, _MAX_NEWTON_STEPS, SubproblemState, check_count,
                    check_numbers, minimize_subproblem, sufficient_decrease, value_or_inf)

__all__ = (
    "Variant",
    "Status",
    "SolverConfig",
    "TraceRecord",
    "SolveResult",
    "dca_step",
    "descent_slope",
    "backtrack",
    "quad_interp_lambda",
    "bdca_qi_select",
    "fm_step",
    "solve",
    "write_trace_csv",
    "read_trace_csv",
    "read_column",
    "TRACE_COLUMNS",
)

# halvings (backward reductions for fm) a line search may take
_MAX_BACKTRACKS = 60
# fields of older spec files, each with the one value it may still hold
_REMOVED_FIELDS = {"proximal_c": None, "max_backtracks": _MAX_BACKTRACKS,
                   "tol_d": None, "tol_x": None,
                   "inner.max_iters": _MAX_NEWTON_STEPS,
                   "inner.damping_floor": _DAMPING_FLOOR}


def _reject_unknown(obj, known, what):
    unknown = set(obj) - known
    if unknown:
        raise ValueError(f"unknown {what} fields: {sorted(unknown)}")


class Variant(str, enum.Enum):
    DCA = "dca"
    BDCA_B = "bdca-b"
    BDCA_QI = "bdca-qi"
    FM = "fm"


class Status(str, enum.Enum):
    STATIONARY_POINT = "StationaryPoint"
    MAX_ITERS = "MaxIters"
    TARGET_REACHED = "TargetReached"
    LINE_SEARCH_FAILURE = "LineSearchFailure"
    NUMERICAL_FAILURE = "NumericalFailure"

    @property
    def is_failure(self):
        return self in (Status.LINE_SEARCH_FAILURE, Status.NUMERICAL_FAILURE)


@dataclass
class SolverConfig:
    """Outer-loop controls shared by all variants.

    ``tol`` stops a run once the direction or the step is no longer than
    it; left None it is 1e-8 * sqrt(m).  ``inner_tol`` is the subproblem
    solver's gradient tolerance (see ``minimize_subproblem``).
    ``target_phi`` stops a run as soon as the objective is at or below
    the given value (used by the matched-target comparison protocol).
    """

    variant: Variant = Variant.BDCA_QI
    alpha: float = 0.4
    beta: float = 0.5
    lambda_bar: float = 50.0
    lambda_max: float = 200.0
    max_outer_iters: int = 1000
    tol: Optional[float] = None
    inner_tol: float = 1e-8
    target_phi: Optional[float] = None

    def __post_init__(self):
        self.variant = Variant(self.variant)
        check_numbers(self)
        # each test is written so that a NaN or an infinity fails it
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must lie in (0, 1), got {self.beta}")
        if not 0 < self.lambda_bar < math.inf:
            raise ValueError(f"lambda_bar must be positive and finite, got {self.lambda_bar}")
        if not self.lambda_bar < self.lambda_max < math.inf:
            raise ValueError(f"lambda_max ({self.lambda_max}) must be finite and "
                             f"exceed lambda_bar ({self.lambda_bar})")
        check_count("max_outer_iters", self.max_outer_iters)
        if self.tol is not None and not 0 <= self.tol < math.inf:
            raise ValueError(f"tol must be nonnegative and finite, got {self.tol}")
        if not 0 < self.inner_tol < math.inf:
            raise ValueError(f"inner_tol must be positive and finite, got {self.inner_tol}")
        if self.target_phi is not None and math.isnan(self.target_phi):
            raise ValueError("target_phi must not be NaN")

    def resolved_tol(self, m):
        return float(self.tol if self.tol is not None else 1e-8 * np.sqrt(m))

    def to_json(self):
        """Every field under its own name."""
        out = asdict(self)
        out["variant"] = self.variant.value
        return out

    @classmethod
    def from_json(cls, obj):
        """Inverse of to_json; omitted fields take their defaults.

        Spec files written before a setting became a constant still load:
        a removed field may hold only the value the solver now fixes, and
        the inner solver's ``tol_grad`` is read as ``inner_tol``.
        """
        if not isinstance(obj, dict):
            raise ValueError(f"solver must be an object, got {obj!r}")
        obj = dict(obj)
        inner = obj.pop("inner", {})
        if not isinstance(inner, dict):
            raise ValueError(f"solver.inner must be an object, got {inner!r}")
        obj.update({f"inner.{k}": v for k, v in inner.items()})
        if "inner.tol_grad" in obj:
            obj["inner_tol"] = obj.pop("inner.tol_grad")
        for name, kept in _REMOVED_FIELDS.items():
            if name in obj:
                value = obj.pop(name)
                if type(value) is not type(kept) or value != kept:
                    raise ValueError(f"solver field {name} was removed; it may only "
                                     f"hold {json.dumps(kept)}, got {json.dumps(value)}")
        _reject_unknown(obj, {f.name for f in fields(cls)}, "solver")
        return cls(**obj)


@dataclass
class TraceRecord:
    """Per-iteration log entry.

    ``lambda_k`` is the accepted boost step (0 for plain iterations; for
    the backward-searching baseline it holds beta^l - 1 <= 0 so that
    x_{k+1} = y_k + lambda_k * d_k uniformly).  ``slope`` keeps the
    directional derivative <grad_phi(y_k), d_k> for decrease audits.
    """

    k: int
    phi_x: float
    phi_y: float
    norm_d: float
    lambda_k: float
    backtracks: int
    inner_iters: int
    elapsed_ms: float
    slope: float


@dataclass
class SolveResult:
    x_final: np.ndarray
    phi_final: float
    status: Status
    trace: List[TraceRecord]
    iterations: int
    message: str = ""


# -- individual steps ----------------------------------------------------


def dca_step(problem, x, config=None, state=None):
    """Solve the convex subproblem at x; returns (y, inner_iterations).

    ``state``, the solve's SubproblemState, is passed on to
    ``minimize_subproblem``.
    """
    cfg = config if config is not None else SolverConfig()
    return minimize_subproblem(problem, problem.grad_h(x), x, cfg.inner_tol, state)


def descent_slope(problem, y, d):
    """Directional derivative <grad_phi(y), d> of the boost search."""
    d = np.asarray(d, dtype=float)
    _, grad = problem.phi_value_grad(y)
    return ddot(grad, d)


def backtrack(problem, y, d, lambda_init, config=None, *, phi_y):
    """Halve lambda from lambda_init until the sufficient-decrease test

        phi(y + lambda d) <= phi(y) - alpha * lambda * ||d||^2

    holds, with ``phi_y`` = phi(y).  Returns (lambda, halvings); raises
    LineSearchError after 60 halvings.
    """
    cfg = config if config is not None else SolverConfig()
    y = np.asarray(y, dtype=float)
    d = np.asarray(d, dtype=float)
    lam = float(lambda_init)
    if lam <= 0:
        raise ValueError(f"lambda_init must be positive, got {lambda_init}")
    found = sufficient_decrease(problem.phi_value, y, d, phi_y, -ddot(d, d), cfg.alpha,
                                lam, cfg.beta, _MAX_BACKTRACKS + 1)
    if found is None:
        raise LineSearchError(
            f"no acceptable step after {_MAX_BACKTRACKS} halvings from {lambda_init:g}"
        )
    return found[:2]


def quad_interp_lambda(phi0, dphi0, phi_at_lambda_bar, lambda_bar):
    """Minimizer of the quadratic fitting (0, phi0), slope dphi0, and
    (lambda_bar, phi_at_lambda_bar).

    Returns None when the fitted curvature is not positive (no interior
    minimizer).  The returned value can be nonpositive when dphi0 >= 0;
    callers decide whether such a candidate is usable.
    """
    lambda_bar = float(lambda_bar)
    if lambda_bar <= 0:
        raise ValueError(f"lambda_bar must be positive, got {lambda_bar}")
    gap = phi_at_lambda_bar - phi0 - dphi0 * lambda_bar
    if not np.isfinite(gap) or gap <= 0.0:
        return None
    return float(-dphi0 * lambda_bar ** 2 / (2.0 * gap))


def bdca_qi_select(problem, y, d, config=None, *, phi_y, slope):
    """Initial boost step for the interpolating variant, given phi(y) and
    the slope <grad_phi(y), d> (``descent_slope``).

    Falls back to lambda_bar when the interpolation is invalid, suggests
    a nonpositive step, or does not actually improve on the lambda_bar
    trial point; otherwise returns min(candidate, lambda_max).
    """
    cfg = config if config is not None else SolverConfig()
    y = np.asarray(y, dtype=float)
    d = np.asarray(d, dtype=float)
    phi_bar = value_or_inf(problem.phi_value, y + cfg.lambda_bar * d)
    candidate = quad_interp_lambda(phi_y, slope, phi_bar, cfg.lambda_bar)
    if candidate is not None and candidate > 0.0:
        if value_or_inf(problem.phi_value, y + candidate * d) < phi_bar:
            return min(candidate, cfg.lambda_max)
    return cfg.lambda_bar


def fm_step(problem, x, y, config=None, *, phi_x):
    """Backward search of the classical baseline.

    Finds the smallest l >= 0 with

        phi(x + beta^l d) <= phi(x) - alpha * beta^l * ||d||^2,

    d = y - x and ``phi_x`` = phi(x), and returns (x_next, l).  Raises
    LineSearchError when l would exceed 60.
    """
    cfg = config if config is not None else SolverConfig()
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = y - x
    found = sufficient_decrease(problem.phi_value, x, d, phi_x, -ddot(d, d), cfg.alpha,
                                1.0, cfg.beta, _MAX_BACKTRACKS + 1)
    if found is None:
        raise LineSearchError(
            f"no acceptable backward step after {_MAX_BACKTRACKS} reductions"
        )
    _, level, x_next = found
    return x_next, level


# -- outer loop ----------------------------------------------------------


def solve(problem, x0, config=None):
    """Run the configured variant from x0 and return a SolveResult.

    The trace records one row per completed iteration; when the
    direction norm drops to the tolerance a final row with lambda = 0 is
    written and the current iterate is returned unchanged.  Failures keep the
    partial trace and report the reason in ``message``.
    """
    cfg = config if config is not None else SolverConfig()
    x = np.asarray(x0, dtype=float).reshape(-1).copy()
    if x.size != problem.m:
        raise ValueError(f"x0 has size {x.size}, problem expects {problem.m}")
    tol = cfg.resolved_tol(problem.m)
    problem.subproblem_modulus()  # warns once when subproblems are not strongly convex

    boosted = cfg.variant in (Variant.BDCA_B, Variant.BDCA_QI, Variant.FM)
    if boosted and cfg.alpha >= problem.sigma_h + problem.rho:
        warnings.warn(
            f"alpha={cfg.alpha:g} is not below sigma_h + rho = "
            f"{problem.sigma_h + problem.rho:g}; line-search acceptance is no "
            "longer guaranteed by the decrease theory",
            TheoryWarning,
            stacklevel=2,
        )

    trace: List[TraceRecord] = []
    # every variant's subproblems reuse a factor; only plain dca's start at a
    # predicted y_k, the others at x_k
    state = SubproblemState(predicts=cfg.variant is Variant.DCA)
    iterations = 0
    status = Status.MAX_ITERS
    message = ""
    # Near EXP_GUARD a gradient or a Hessian can overflow to inf or nan;
    # the checks on accepted points turn that into NumericalFailure, so
    # NumPy's warnings about it would only repeat the status.
    with np.errstate(over="ignore", invalid="ignore"):
        phi_x = value_or_inf(problem.phi_value, x)

        for k in range(cfg.max_outer_iters):
            if cfg.target_phi is not None and phi_x <= cfg.target_phi:
                status = Status.TARGET_REACHED
                break
            started = time.perf_counter()
            try:
                y, inner_iters = dca_step(problem, x, cfg, state)
                d = y - x
                norm_d = math.sqrt(ddot(d, d))
                phi_y = value_or_inf(problem.phi_value, y)
                if not np.isfinite(phi_y):
                    raise NumericalError("objective is not finite at the subproblem solution")
                slope = descent_slope(problem, y, d)

                lam, halvings, x_next, phi_next = 0.0, 0, y, phi_y
                stationary = norm_d <= tol
                if stationary or cfg.variant is Variant.DCA:
                    pass
                elif cfg.variant is Variant.FM:
                    x_next, halvings = fm_step(problem, x, y, cfg, phi_x=phi_x)
                    lam = cfg.beta ** halvings - 1.0
                    phi_next = value_or_inf(problem.phi_value, x_next)
                elif not slope >= 0.0:
                    # a boost direction that is numerically not a descent
                    # direction (slope >= 0) keeps the plain update
                    lam_init = (bdca_qi_select(problem, y, d, cfg, phi_y=phi_y, slope=slope)
                                if cfg.variant is Variant.BDCA_QI else cfg.lambda_bar)
                    lam, halvings = backtrack(problem, y, d, lam_init, cfg, phi_y=phi_y)
                    x_next = y + lam * d
                    phi_next = value_or_inf(problem.phi_value, x_next)
            except LineSearchError as exc:
                status = Status.LINE_SEARCH_FAILURE
                message = str(exc)
                break
            except NumericalError as exc:
                status = Status.NUMERICAL_FAILURE
                message = str(exc)
                break

            trace.append(TraceRecord(
                k=k, phi_x=phi_x, phi_y=phi_y, norm_d=norm_d, lambda_k=lam,
                backtracks=halvings, inner_iters=inner_iters,
                elapsed_ms=(time.perf_counter() - started) * 1e3, slope=slope,
            ))
            if stationary:
                status = Status.STATIONARY_POINT
                break
            step = d if x_next is y else x_next - x
            step_norm = math.sqrt(ddot(step, step))
            x = np.asarray(x_next, dtype=float)
            phi_x = phi_next
            iterations += 1
            if step_norm <= tol:
                status = Status.STATIONARY_POINT
                break

    if (status is Status.MAX_ITERS and cfg.target_phi is not None
            and phi_x <= cfg.target_phi):
        status = Status.TARGET_REACHED

    return SolveResult(x_final=x, phi_final=phi_x, status=status, trace=trace,
                       iterations=iterations, message=message)


# -- record files --------------------------------------------------------

TRACE_COLUMNS = ("k", "phi_x", "phi_y", "norm_d", "lambda", "backtracks",
                 "inner_iters", "elapsed_ms", "slope")


def _write_records(records, path, cls, columns):
    """Write dataclass records as CSV under the header ``columns``, one per
    field of ``cls`` in order.  A cell converts by its field's type: int and
    str as such, anything else as a float written with 17 significant
    digits, which read back with every bit."""
    records = list(records)  # each column below iterates over them once
    cells = [map(f.type if f.type in (int, str) else "%.17g".__mod__,
                 map(attrgetter(f.name), records)) for f in fields(cls)]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        writer.writerows(zip(*cells))


def _read_columns(path, columns, kinds):
    """Lists of the cells of the named columns of a CSV file with a header,
    each converted by its kind.  Columns are found by name; a file that
    lacks one, has a row whose cells do not match its header, or has a cell
    that does not parse is refused with SchemaError naming the file."""
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, [])
            rows = [row for row in reader if row]
        missing = sorted(set(columns) - set(header))
        if missing:
            raise ValueError(f"lacks columns: {missing}")
        if any(len(row) != len(header) for row in rows):
            raise ValueError("has a row of another length than its header")
        return [list(map(kind, map(itemgetter(header.index(col)), rows)))
                for col, kind in zip(columns, kinds)]
    except (csv.Error, ValueError) as exc:
        raise SchemaError(str(path), str(exc)) from exc


def _read_records(path, cls, columns):
    """Records of ``cls`` from a file of _write_records, as _read_columns
    reads it."""
    kinds = [f.type if f.type in (int, str) else float for f in fields(cls)]
    return list(map(cls, *_read_columns(path, columns, kinds)))


def write_trace_csv(trace, path):
    """Write trace rows with full float round-trip precision."""
    _write_records(trace, path, TraceRecord, TRACE_COLUMNS)


def read_trace_csv(path):
    """Read a trace written by write_trace_csv back into records.  Every
    column, ``slope`` included, is required."""
    return _read_records(path, TraceRecord, TRACE_COLUMNS)


def read_column(path, name):
    """The column ``name`` of a trace, a table or any CSV file with a
    header, as floats; a malformed file is refused as _read_columns does."""
    [column] = _read_columns(path, (name,), (float,))
    return column
