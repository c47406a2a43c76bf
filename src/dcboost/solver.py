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
import time
import warnings
from dataclasses import asdict, dataclass, field
from typing import List, Optional

import numpy as np

from .exceptions import (EvaluationOverflow, LineSearchError, NumericalError,
                         TheoryWarning)
from .inner import (InnerConfig, SubproblemSpec, minimize_subproblem,
                    sufficient_decrease, value_or_inf)

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
    "TRACE_COLUMNS",
)


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

    ``tol_d`` and ``tol_x`` default to 1e-8 * sqrt(m) when left None.
    ``target_phi`` stops a run as soon as the objective is at or below
    the given value (used by the matched-target comparison protocol).
    """

    variant: Variant = Variant.BDCA_QI
    alpha: float = 0.4
    beta: float = 0.5
    lambda_bar: float = 50.0
    lambda_max: float = 200.0
    max_outer_iters: int = 1000
    max_backtracks: int = 60
    tol_d: Optional[float] = None
    tol_x: Optional[float] = None
    inner: InnerConfig = field(default_factory=InnerConfig)
    target_phi: Optional[float] = None

    def __post_init__(self):
        self.variant = Variant(self.variant)
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must lie in (0, 1), got {self.beta}")
        if self.lambda_bar <= 0:
            raise ValueError(f"lambda_bar must be positive, got {self.lambda_bar}")
        if self.lambda_max <= self.lambda_bar:
            raise ValueError(
                f"lambda_max ({self.lambda_max}) must exceed lambda_bar ({self.lambda_bar})"
            )
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be at least 1")
        if self.max_backtracks < 1:
            raise ValueError("max_backtracks must be at least 1")
        for name in ("tol_d", "tol_x"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be nonnegative, got {value}")

    def resolved_tols(self, m):
        tol_d = self.tol_d if self.tol_d is not None else 1e-8 * np.sqrt(m)
        tol_x = self.tol_x if self.tol_x is not None else 1e-8 * np.sqrt(m)
        return float(tol_d), float(tol_x)

    def to_json(self):
        """Every field under its own name; ``inner`` as a nested object."""
        out = asdict(self)
        out["variant"] = self.variant.value
        return out

    @classmethod
    def from_json(cls, obj):
        """Inverse of to_json; omitted fields take their defaults."""
        obj = dict(obj)
        # older spec files carry "proximal_c": null for a removed field
        if "proximal_c" in obj and obj.pop("proximal_c") is not None:
            raise ValueError("solver field proximal_c was removed; "
                             "subproblems have no proximal term")
        return cls(inner=InnerConfig(**obj.pop("inner", {})), **obj)


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
    slope: Optional[float] = None


@dataclass
class SolveResult:
    x_final: np.ndarray
    phi_final: float
    status: Status
    trace: List[TraceRecord]
    iterations: int
    message: str = ""


# -- individual steps ----------------------------------------------------


def dca_step(problem, x, config=None):
    """Solve the convex subproblem at x; returns (y, inner_iterations)."""
    cfg = config if config is not None else SolverConfig()
    x = np.asarray(x, dtype=float)
    spec = SubproblemSpec(
        eval_g=problem.eval_g,
        linear_term=problem.grad_h(x),
        value_g=problem.g_value,
    )
    return minimize_subproblem(spec, x, cfg.inner)


def descent_slope(problem, y, d):
    """Directional derivative <grad_phi(y), d> of the boost search."""
    d = np.asarray(d, dtype=float)
    _, grad = problem.phi_with_grad(y)
    return float(grad @ d)


def backtrack(problem, y, d, lambda_init, config=None, phi_y=None):
    """Halve lambda from lambda_init until the sufficient-decrease test

        phi(y + lambda d) <= phi(y) - alpha * lambda * ||d||^2

    holds.  Returns (lambda, halvings); raises LineSearchError when the
    halving budget runs out.
    """
    cfg = config if config is not None else SolverConfig()
    y = np.asarray(y, dtype=float)
    d = np.asarray(d, dtype=float)
    lam = float(lambda_init)
    if lam <= 0:
        raise ValueError(f"lambda_init must be positive, got {lambda_init}")
    if phi_y is None:
        phi_y = problem.phi(y)
    found = sufficient_decrease(problem.phi, y, d, phi_y, -float(d @ d), cfg.alpha,
                                lam, cfg.beta, cfg.max_backtracks + 1)
    if found is None:
        raise LineSearchError(
            f"no acceptable step after {cfg.max_backtracks} halvings from {lambda_init:g}"
        )
    return found


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


def bdca_qi_select(problem, y, d, config=None, phi_y=None, slope=None):
    """Initial boost step for the interpolating variant.

    Falls back to lambda_bar when the interpolation is invalid, suggests
    a nonpositive step, or does not actually improve on the lambda_bar
    trial point; otherwise returns min(candidate, lambda_max).
    """
    cfg = config if config is not None else SolverConfig()
    y = np.asarray(y, dtype=float)
    d = np.asarray(d, dtype=float)
    if phi_y is None:
        phi_y = problem.phi(y)
    if slope is None:
        slope = descent_slope(problem, y, d)
    phi_bar = value_or_inf(problem.phi, y + cfg.lambda_bar * d)
    candidate = quad_interp_lambda(phi_y, slope, phi_bar, cfg.lambda_bar)
    if candidate is not None and candidate > 0.0:
        if value_or_inf(problem.phi, y + candidate * d) < phi_bar:
            return min(candidate, cfg.lambda_max)
    return cfg.lambda_bar


def fm_step(problem, x, y, config=None, phi_x=None):
    """Backward search of the classical baseline.

    Finds the smallest l >= 0 with

        phi(x + beta^l d) <= phi(x) - alpha * beta^l * ||d||^2,

    d = y - x, and returns (x_next, l).  Raises LineSearchError when l
    exceeds the backtracking budget.
    """
    cfg = config if config is not None else SolverConfig()
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = y - x
    if phi_x is None:
        phi_x = problem.phi(x)
    found = sufficient_decrease(problem.phi, x, d, phi_x, -float(d @ d), cfg.alpha,
                                1.0, cfg.beta, cfg.max_backtracks + 1)
    if found is None:
        raise LineSearchError(
            f"no acceptable backward step after {cfg.max_backtracks} reductions"
        )
    step, level = found
    return x + step * d, level


# -- outer loop ----------------------------------------------------------


def solve(problem, x0, config=None):
    """Run the configured variant from x0 and return a SolveResult.

    The trace records one row per completed iteration; when the
    direction norm drops to tol_d a final row with lambda = 0 is written
    and the current iterate is returned unchanged.  Failures keep the
    partial trace and report the reason in ``message``.
    """
    cfg = config if config is not None else SolverConfig()
    x = np.asarray(x0, dtype=float).reshape(-1).copy()
    if x.size != problem.m:
        raise ValueError(f"x0 has size {x.size}, problem expects {problem.m}")
    tol_d, tol_x = cfg.resolved_tols(problem.m)
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
    iterations = 0
    status = Status.MAX_ITERS
    message = ""
    phi_x = value_or_inf(problem.phi, x)

    for k in range(cfg.max_outer_iters):
        if cfg.target_phi is not None and phi_x <= cfg.target_phi:
            status = Status.TARGET_REACHED
            break
        started = time.perf_counter()
        try:
            y, inner_iters = dca_step(problem, x, cfg)
            d = y - x
            norm_d = float(np.linalg.norm(d))
            phi_y = value_or_inf(problem.phi, y)
            if not np.isfinite(phi_y):
                raise NumericalError("objective is not finite at the subproblem solution")
            slope = descent_slope(problem, y, d)

            if norm_d <= tol_d:
                trace.append(TraceRecord(
                    k=k, phi_x=phi_x, phi_y=phi_y, norm_d=norm_d, lambda_k=0.0,
                    backtracks=0, inner_iters=inner_iters,
                    elapsed_ms=(time.perf_counter() - started) * 1e3, slope=slope,
                ))
                status = Status.STATIONARY_POINT
                break

            if cfg.variant is Variant.DCA:
                lam, halvings, x_next, phi_next = 0.0, 0, y, phi_y
            elif cfg.variant is Variant.FM:
                x_next, level = fm_step(problem, x, y, cfg, phi_x=phi_x)
                lam = cfg.beta ** level - 1.0
                halvings = level
                phi_next = value_or_inf(problem.phi, x_next)
            else:
                if slope >= 0.0:
                    # the boost direction is numerically not a descent
                    # direction; fall back to the plain update
                    lam, halvings, x_next, phi_next = 0.0, 0, y, phi_y
                else:
                    if cfg.variant is Variant.BDCA_QI:
                        lam_init = bdca_qi_select(problem, y, d, cfg,
                                                  phi_y=phi_y, slope=slope)
                    else:
                        lam_init = cfg.lambda_bar
                    lam, halvings = backtrack(problem, y, d, lam_init, cfg,
                                              phi_y=phi_y)
                    x_next = y + lam * d
                    phi_next = value_or_inf(problem.phi, x_next)
        except LineSearchError as exc:
            status = Status.LINE_SEARCH_FAILURE
            message = str(exc)
            break
        except (NumericalError, EvaluationOverflow) as exc:
            status = Status.NUMERICAL_FAILURE
            message = str(exc)
            break

        trace.append(TraceRecord(
            k=k, phi_x=phi_x, phi_y=phi_y, norm_d=norm_d, lambda_k=lam,
            backtracks=halvings, inner_iters=inner_iters,
            elapsed_ms=(time.perf_counter() - started) * 1e3, slope=slope,
        ))
        step_norm = float(np.linalg.norm(x_next - x))
        x = np.asarray(x_next, dtype=float)
        phi_x = phi_next
        iterations += 1
        if step_norm <= tol_x:
            status = Status.STATIONARY_POINT
            break

    if (status is Status.MAX_ITERS and cfg.target_phi is not None
            and phi_x <= cfg.target_phi):
        status = Status.TARGET_REACHED

    return SolveResult(x_final=x, phi_final=phi_x, status=status, trace=trace,
                       iterations=iterations, message=message)


# -- trace serialization -------------------------------------------------

TRACE_COLUMNS = ("k", "phi_x", "phi_y", "norm_d", "lambda", "backtracks",
                 "inner_iters", "elapsed_ms", "slope")


def _fmt(value):
    return format(float(value), ".17g")


def write_trace_csv(trace, path):
    """Write trace rows with full float round-trip precision."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(TRACE_COLUMNS)
        for rec in trace:
            writer.writerow([
                rec.k, _fmt(rec.phi_x), _fmt(rec.phi_y), _fmt(rec.norm_d),
                _fmt(rec.lambda_k), rec.backtracks, rec.inner_iters,
                _fmt(rec.elapsed_ms), "" if rec.slope is None else _fmt(rec.slope),
            ])


def read_trace_csv(path):
    """Read a trace written by write_trace_csv back into records.

    ``slope`` is optional: files without the column (or with an empty
    cell) read as slope = None.
    """
    records = []
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        missing = set(TRACE_COLUMNS[:-1]) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"trace file {path} lacks columns: {sorted(missing)}")
        for row in reader:
            records.append(TraceRecord(
                k=int(row["k"]),
                phi_x=float(row["phi_x"]),
                phi_y=float(row["phi_y"]),
                norm_d=float(row["norm_d"]),
                lambda_k=float(row["lambda"]),
                backtracks=int(row["backtracks"]),
                inner_iters=int(row["inner_iters"]),
                elapsed_ms=float(row["elapsed_ms"]),
                slope=float(row["slope"]) if row.get("slope") else None,
            ))
    return records
