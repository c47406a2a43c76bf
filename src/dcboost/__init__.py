"""Difference-of-convex solvers with boosted line searches.

The package splits an objective phi = f1 - f2 (both smooth convex) and
iterates the classical convex-subproblem scheme, optionally boosting each
iterate by a line search along the subproblem displacement.  It ships a
sparse exponential-flux objective family over reaction networks, a
damped-Newton inner solver, convergence-rate and inequality-audit tools,
and a matched-target benchmark harness; ``dcboost`` on the command line
fronts all of it.
"""

from .analysis import (AuditReport, RateReport, Regime, Violation,
                       audit_trace, classify_rate, effective_modulus,
                       verify_rate_inequality)
from .biochem import (NetworkObjective, ReactionNetwork,
                      check_mass_conservation, generate_network,
                      load_network, save_network)
from .exceptions import (DcError, EvaluationOverflow, GenerationError,
                         LineSearchError, NumericalError, SchemaError,
                         SchemaWarning, TheoryWarning)
from .harness import (ComparisonRow, ExperimentResult, ExperimentSpec,
                      MatchedTargetResult, ProblemSource, TrialResult,
                      export_table, read_table, run_experiment,
                      run_matched_target)
from .inner import minimize_subproblem, spd_solve
from .problem import (BUILTIN_PROBLEMS, EXP_GUARD, DcProblem, builtin_problem,
                      make_expsys_problem, make_quartic_problem)
from .solver import (TRACE_COLUMNS, SolveResult, SolverConfig, Status,
                     TraceRecord, Variant, backtrack, bdca_qi_select,
                     descent_slope, fm_step, quad_interp_lambda, read_column,
                     read_trace_csv, solve, write_trace_csv)

__version__ = "0.1.0"

__all__ = (
    "AuditReport", "RateReport", "Regime", "Violation", "audit_trace",
    "classify_rate", "effective_modulus", "verify_rate_inequality",
    "NetworkObjective", "ReactionNetwork",
    "check_mass_conservation", "generate_network", "load_network",
    "save_network",
    "DcError", "EvaluationOverflow", "GenerationError", "LineSearchError",
    "NumericalError", "SchemaError", "SchemaWarning", "TheoryWarning",
    "ComparisonRow", "ExperimentResult", "ExperimentSpec",
    "MatchedTargetResult", "ProblemSource", "TrialResult", "export_table",
    "read_table", "run_experiment", "run_matched_target",
    "minimize_subproblem", "spd_solve",
    "BUILTIN_PROBLEMS", "EXP_GUARD", "DcProblem", "builtin_problem",
    "make_expsys_problem", "make_quartic_problem",
    "TRACE_COLUMNS", "SolveResult", "SolverConfig", "Status", "TraceRecord",
    "Variant", "backtrack", "bdca_qi_select", "descent_slope",
    "fm_step", "quad_interp_lambda", "read_column", "read_trace_csv", "solve",
    "write_trace_csv",
    "__version__",
)
