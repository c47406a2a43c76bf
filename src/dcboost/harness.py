"""Matched-target benchmark: boosted runs set a target, plain runs chase it.

For each problem and trial start, the configured boosted variant runs a
fixed number of iterations (or to stationarity); the plain variant then
runs until it matches the boosted final objective value, up to a cap.
Rows aggregate iteration and time statistics per problem; ratios are
computed from the averages.
"""

import dataclasses
import json
import math
import numbers
import re
from dataclasses import dataclass, field, replace
from operator import attrgetter
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from .biochem import NetworkObjective, generate_network, load_network
from .inner import check_count, check_numbers, value_or_inf
from .problem import BUILTIN_PROBLEMS, builtin_problem
from .solver import (SolverConfig, SolveResult, Variant, _read_records, _reject_unknown,
                     _write_records, solve, write_trace_csv)

__all__ = (
    "ProblemSource",
    "ExperimentSpec",
    "TrialResult",
    "MatchedTargetResult",
    "ComparisonRow",
    "ExperimentResult",
    "run_matched_target",
    "run_experiment",
    "export_table",
    "read_table",
)

# relative slack on the chase target so floating-point value matching
# can terminate; ratios are insensitive at this scale
REACH_RTOL = 1e-9


def _plain_cap(bdca_iters, dca_cap):
    """The plain run's iteration cap: ``dca_cap``, else 100x the boosted budget."""
    return dca_cap if dca_cap is not None else 100 * bdca_iters


@dataclass
class ProblemSource:
    """One problem reference: a builtin name, a model file, or generator
    parameters.  ``rho`` overrides the experiment-level regularization
    for this source only."""

    kind: str
    name: Optional[str] = None
    path: Optional[str] = None
    m: Optional[int] = None
    n: Optional[int] = None
    seed: Optional[int] = None
    rho: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("builtin", "model", "generate"):
            raise ValueError(f"unknown problem source kind {self.kind!r}")
        if self.kind == "builtin" and not (isinstance(self.name, str)
                                           and self.name in BUILTIN_PROBLEMS):
            raise ValueError(f"builtin source needs one of {sorted(BUILTIN_PROBLEMS)}, "
                             f"got {self.name!r}")
        if self.kind == "model" and not (isinstance(self.path, str) and self.path):
            raise ValueError(f"model source needs a path, got {self.path!r}")
        if self.kind == "generate" and not all(
                isinstance(v, numbers.Integral) and not isinstance(v, bool)
                for v in (self.m, self.n, self.seed)):
            raise ValueError("generate source needs integer m, n and seed, got "
                             f"{self.m!r}, {self.n!r}, {self.seed!r}")
        if self.kind == "generate":
            check_count("generate source seed", self.seed, low=0)
        if self.rho is not None and not (isinstance(self.rho, numbers.Real)
                                         and not isinstance(self.rho, bool)
                                         and 0 <= self.rho < math.inf):
            raise ValueError(f"source rho must be a nonnegative finite number, "
                             f"got {self.rho!r}")

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict) or len(set(obj) & {"builtin", "model", "generate"}) != 1:
            raise ValueError(
                f"problem source must carry exactly one of builtin/model/generate: {obj!r}"
            )
        _reject_unknown(obj, {"builtin", "model", "generate", "rho"}, "problem source")
        rho = obj.get("rho")
        if "builtin" in obj:
            return cls(kind="builtin", name=obj["builtin"], rho=rho)
        if "model" in obj:
            return cls(kind="model", path=obj["model"], rho=rho)
        params = obj["generate"]
        if not isinstance(params, dict):
            raise ValueError(f"generate source needs an object of m, n and seed, got {params!r}")
        _reject_unknown(params, {"m", "n", "seed"}, "generate source")
        return cls(kind="generate", m=params.get("m"), n=params.get("n"),
                   seed=params.get("seed"), rho=rho)

    def to_json(self):
        if self.kind == "builtin":
            out = {"builtin": self.name}
        elif self.kind == "model":
            out = {"model": self.path}
        else:
            out = {"generate": {"m": self.m, "n": self.n, "seed": self.seed}}
        if self.rho is not None:
            out["rho"] = self.rho
        return out

    def resolve(self, default_rho):
        """Build the problem; returns (label, DcProblem, reaction count).

        Builtins keep their registered rho unless this source overrides
        it and count 0 reactions; networks take the override or the
        experiment default.
        """
        if self.kind == "builtin":
            return self.name, builtin_problem(self.name, rho=self.rho), 0
        rho = self.rho if self.rho is not None else default_rho
        if self.kind == "model":
            network = load_network(self.path)
            label = network.name or Path(self.path).stem
        else:
            network = generate_network(self.m, self.n, self.seed)
            label = network.name
        return label, NetworkObjective(network).as_dc_problem(rho=rho), network.n


@dataclass
class ExperimentSpec:
    problems: List[ProblemSource]
    trials: int = 10
    seed: int = 0
    x0_low: float = -2.0
    x0_high: float = 2.0
    bdca_iters: int = 1000
    dca_cap: Optional[int] = None
    rho: float = 100.0
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if not self.problems:
            raise ValueError("experiment needs at least one problem source")
        check_numbers(self)
        check_count("trials", self.trials)
        check_count("seed", self.seed, low=0)
        check_count("bdca_iters", self.bdca_iters)
        if self.dca_cap is not None:
            check_count("dca_cap", self.dca_cap)
        if not self.x0_high > self.x0_low:
            raise ValueError("x0_high must exceed x0_low")
        if not math.isfinite(self.x0_high - self.x0_low):
            raise ValueError(f"the start box [{self.x0_low}, {self.x0_high}] "
                             "must have a finite width")
        if not 0 <= self.rho < math.inf:
            raise ValueError(f"rho must be nonnegative, got {self.rho}; it must also be finite")
        if self.solver.variant is Variant.DCA:
            raise ValueError("the boosted side of the comparison cannot be dca")

    def resolved_dca_cap(self):
        return _plain_cap(self.bdca_iters, self.dca_cap)

    def to_json(self):
        """Every field under its own name; ``dca_cap`` is the resolved cap."""
        out = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        out.update(problems=[p.to_json() for p in self.problems],
                   dca_cap=self.resolved_dca_cap(), solver=self.solver.to_json())
        return out

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict):
            raise ValueError("experiment spec must be an object")
        solver = SolverConfig.from_json(obj.get("solver", {}))
        _reject_unknown(obj, {f.name for f in dataclasses.fields(cls)}, "experiment spec")
        problems = obj.get("problems", [])
        if not isinstance(problems, list):
            raise ValueError(f"problems must be a list, got {problems!r}")
        return cls(**dict(obj, problems=[ProblemSource.from_json(p) for p in problems],
                          solver=solver))


@dataclass
class MatchedTargetResult:
    bdca: SolveResult
    dca: SolveResult
    target: float
    dca_reached: bool


@dataclass
class TrialResult:
    trial: int
    x0: np.ndarray
    phi0: float
    matched: MatchedTargetResult


def run_matched_target(problem, x0, solver_config=None, *, bdca_iters,
                       dca_cap=None):
    """One boosted run of exactly ``bdca_iters`` iterations (or to
    stationarity), then a plain run chasing the boosted final value."""
    cfg = solver_config if solver_config is not None else SolverConfig()
    if cfg.variant is Variant.DCA:
        raise ValueError("the boosted side of the comparison cannot be dca")
    boosted_cfg = replace(cfg, max_outer_iters=bdca_iters, target_phi=None)
    boosted = solve(problem, x0, boosted_cfg)
    target = boosted.phi_final

    chase_target = target + REACH_RTOL * (1.0 + abs(target))
    plain_cfg = replace(cfg, variant=Variant.DCA,
                        max_outer_iters=_plain_cap(bdca_iters, dca_cap),
                        target_phi=chase_target)
    plain = solve(problem, x0, plain_cfg)
    reached = plain.phi_final <= chase_target
    return MatchedTargetResult(bdca=boosted, dca=plain, target=target,
                               dca_reached=reached)


# -- aggregation ---------------------------------------------------------

@dataclass
class ComparisonRow:
    name: str
    m: int
    n: int
    trials: int
    avg_phi0: float
    avg_phi_end: float
    bdca_iters_min: int
    bdca_iters_max: int
    bdca_iters_avg: float
    bdca_time_min: float
    bdca_time_max: float
    bdca_time_avg: float
    dca_iters_min: int
    dca_iters_max: int
    dca_iters_avg: float
    dca_time_min: float
    dca_time_max: float
    dca_time_avg: float
    ratio_iters: float
    ratio_time: float
    avg_phi_end_dca: float
    dca_capped: int
    failures: int


ROW_COLUMNS = tuple(f.name for f in dataclasses.fields(ComparisonRow))


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    rows: List[ComparisonRow]
    trials: Dict[str, List[TrialResult]]


def _solve_seconds(result):
    return sum(rec.elapsed_ms for rec in result.trace) / 1e3


def _mean(values):
    return float(np.mean(values)) if values else math.nan


def _aggregate(label, problem, trial_results, n_reactions):
    ok = [t for t in trial_results
          if not (t.matched.bdca.status.is_failure or t.matched.dca.status.is_failure)]
    columns = {}
    # each quantity's columns {side}_{quantity}_{min,max,avg} and ratio_{quantity}
    # from its measure of one solve; with no trials, min and max are 0 for a
    # count, whose int column holds no NaN
    for quantity, measure, empty in (("iters", attrgetter("iterations"), 0),
                                     ("time", _solve_seconds, math.nan)):
        avg = {}
        for side in ("bdca", "dca"):
            values = [measure(getattr(t.matched, side)) for t in ok]
            columns[f"{side}_{quantity}_min"] = min(values, default=empty)
            columns[f"{side}_{quantity}_max"] = max(values, default=empty)
            columns[f"{side}_{quantity}_avg"] = avg[side] = _mean(values)
        columns[f"ratio_{quantity}"] = avg["dca"] / avg["bdca"] if avg["bdca"] else math.nan
    return ComparisonRow(
        name=label, m=problem.m, n=n_reactions, trials=len(trial_results),
        avg_phi0=_mean([t.phi0 for t in ok]),
        avg_phi_end=_mean([t.matched.target for t in ok]),
        avg_phi_end_dca=_mean([t.matched.dca.phi_final for t in ok]),
        dca_capped=sum(1 for t in ok if not t.matched.dca_reached),
        failures=len(trial_results) - len(ok), **columns)


def _safe_label(label):
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", label) or "problem"


def run_experiment(spec, out_dir=None):
    """Run every (problem, trial) pair sequentially and aggregate rows.

    Trials are independent; each draws its start from a generator seeded
    by (spec.seed, problem index, trial index), so reruns of the same
    spec reproduce iteration counts exactly.  A source's label that an
    earlier source holds takes its source index, ``_<index>``, until it
    is free.  With ``out_dir`` set, writes rows.csv, spec.json and
    traces/<label>_<trial>_<variant>.csv.
    The output directory is made and every source is loaded before the
    first trial, so neither can fail after trials have run.
    """
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "traces").mkdir(exist_ok=True)
    resolved = [source.resolve(spec.rho) for source in spec.problems]
    dca_cap = spec.resolved_dca_cap()
    rows = []
    all_trials: Dict[str, List[TrialResult]] = {}

    for p_idx, (label, problem, n_reactions) in enumerate(resolved):
        label = _safe_label(label)
        while label in all_trials:
            label = f"{label}_{p_idx}"

        trial_results = []
        for trial in range(spec.trials):
            rng = np.random.default_rng([spec.seed, p_idx, trial])
            x0 = rng.uniform(spec.x0_low, spec.x0_high, size=problem.m)
            matched = run_matched_target(problem, x0, spec.solver,
                                         bdca_iters=spec.bdca_iters, dca_cap=dca_cap)
            phi0 = value_or_inf(problem.phi_value, x0)
            trial_results.append(TrialResult(trial=trial, x0=x0, phi0=phi0,
                                             matched=matched))
        rows.append(_aggregate(label, problem, trial_results, n_reactions))
        all_trials[label] = trial_results

    result = ExperimentResult(spec=spec, rows=rows, trials=all_trials)
    if out_dir is not None:
        _write_outputs(result, out_dir)
    return result


def _write_outputs(result, out_dir):
    export_table(result.rows, out_dir / "rows.csv")
    with open(out_dir / "spec.json", "w") as handle:
        json.dump(result.spec.to_json(), handle, indent=2)
        handle.write("\n")
    trace_dir = out_dir / "traces"
    alg = result.spec.solver.variant.value
    for label, trial_results in result.trials.items():
        for t in trial_results:
            write_trace_csv(t.matched.bdca.trace,
                            trace_dir / f"{label}_{t.trial}_{alg}.csv")
            write_trace_csv(t.matched.dca.trace,
                            trace_dir / f"{label}_{t.trial}_dca.csv")


# -- rows serialization --------------------------------------------------


def export_table(rows, path):
    _write_records(rows, path, ComparisonRow, ROW_COLUMNS)


def read_table(path):
    return _read_records(path, ComparisonRow, ROW_COLUMNS)
