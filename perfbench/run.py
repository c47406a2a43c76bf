"""dcboost benchmark: matched-target time to value and a wide-start workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload matched_m20 --seed 0 --seconds 20 --trace 0

Workloads (one process, one BLAS thread each):

* ``matched_m20`` -- the C6 protocol on ``synthetic_m20_n30_s101``: bdca-qi
  with rho = 100 runs 200 iterations, then plain dca chases that value
  (``run_matched_target``, cap 100x).  Starts are uniform in [-2, 2].  The
  smallest C6 network, where the fixed per-call cost of sparse assembly in
  ``eval_f1`` sets the evaluation cost.
* ``matched_m80`` -- the same protocol on ``synthetic_m80_n120_s105``, the
  largest C6 network, where arithmetic and ``spd_solve`` weigh more.
* ``wide_start`` -- bdca-b, bdca-qi and fm, 300 iterations each with no
  chase, on ``synthetic_m40_n60_s103`` from starts uniform in [-8, 8].  Far
  from steady state the Hessians are ill-conditioned, so it exercises the
  damping, line-search and failure paths the matched workloads bypass.

Trial ``t`` starts from ``default_rng([seed % 11, network index, t])``, the
draw the C6 test makes with its experiment seed, so seed 0 reproduces the
C6 starts.  ``reference.json`` holds the outcome of every start seeds 0-10
draw, and the wrap keeps every seed among them.  A run makes
``round(seconds / trial_seconds)`` trials, so it measures for about
``--seconds`` seconds on a 2-core x86 box and does the same work on every
commit.

Times are reported at a reference machine speed.  On a machine shared with
other work the same solve can take 1.7 times longer from one second to the
next, far more than any change worth measuring.  So every outer iteration
also times one call of a fixed calibration kernel (sparse and dense linear
algebra of the same kind as the solver's, on operands that do not depend
on dcboost), made from a wrapper around ``descent_slope``, which ``solve``
calls once in every iteration it records.  The kernel's time is taken out
of the iteration's ``TraceRecord.elapsed_ms``, and the rest is scaled by
CALIBRATION_MS over the median kernel time of the neighbouring
iterations.  Set-up samples are scaled the same way by a kernel call made
right after each.  The unscaled figures are printed as ``raw_*`` lines.

With ``--trace 0`` the run prints the end-to-end metrics named in
``BENCHMARK.json``: the median set-up time, the median time of one Newton
step over every outer iteration, and the time to value of each boosted
solve and of each whole trial, divided by the Newton steps the reference
run of the same start took (see ``timing_metrics``).  Time per solve, per
iteration, the plain/boosted ratios and the failure share are printed as
well, but they follow the starts a seed draws too closely to carry a
bound.  With ``--trace 1`` it then solves the first trial
once more with span wrappers installed from outside the package
(``tracer.py``), checks that the traced solve reproduces the untraced one
bit for bit, and prints the per-layer metrics of that traced solve.
Outside the timed region every solve's trace is audited with
``audit_trace``, round-tripped through ``write_trace_csv`` /
``read_trace_csv`` and audited again, and its iteration count, status,
``phi_final`` and Newton steps are compared with ``reference.json``; drift from the
reference is reported, not treated as an error, and shows in the time to
value because its divisor stays the reference's.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

import os

# BLAS threads must be pinned before NumPy is imported.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _variable in THREAD_VARIABLES:
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import List, Optional, Tuple  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "dcboost" / "__init__.py").is_file():
    sys.stderr.write(f"perfbench: no dcboost sources under {SRC}\n")
    sys.exit(2)
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg  # noqa: E402
import scipy.sparse as sp  # noqa: E402

import dcboost  # noqa: E402
import dcboost.solver  # noqa: E402
from dcboost import (NetworkObjective, SolverConfig, Variant,  # noqa: E402
                     audit_trace, classify_rate, generate_network,
                     read_trace_csv, write_trace_csv)
from dcboost import harness  # noqa: E402

from tracer import (END, INFO, NAME, PARENT, START, Calls, SpanRecorder,  # noqa: E402
                    patched, traced)

# The five C6 networks as (m, n, seed); a workload names one by index.
C6_NETWORKS = ((20, 30, 101), (30, 45, 102), (40, 60, 103),
               (60, 90, 104), (80, 120, 105))
RHO = 100.0
SETUP_REPEATS = 5           # set-up samples at the start and after every trial
CALIBRATION_MS = 0.4        # least time of one kernel call on an unloaded 2-core x86 box
CALIBRATION_WINDOW = 9      # iterations whose kernel times give an iteration's speed
SMALL_LAMBDA = 0.1
LINE_SEARCHES = ("solver.backtrack", "solver.bdca_qi_select", "solver.fm_step")
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
REFERENCE_SEEDS = 11        # reference.json covers the starts of seeds 0..10


@dataclass(frozen=True)
class Workload:
    network: int            # index into C6_NETWORKS
    half_width: float       # starts are uniform in [-half_width, half_width]
    variants: Tuple[str, ...]
    iterations: int         # boosted iterations per solve
    matched: bool           # plain dca chases the boosted value
    trial_seconds: float    # wall time of one trial on a 2-core x86 box


WORKLOADS = {
    "matched_m20": Workload(0, 2.0, ("bdca-qi",), 200, True, 6.5),
    "matched_m80": Workload(4, 2.0, ("bdca-qi",), 200, True, 7.0),
    "wide_start": Workload(2, 8.0, ("bdca-b", "bdca-qi", "fm"), 300, False, 6.5),
}

# Printed by every run but not in BENCHMARK.json: they depend on the starts
# a seed draws (or exist only for matched workloads), so three starts per
# run leave their spread across seeds wider than any bound the benchmark
# may fix -- up to a third on wide_start.
REPORT_ONLY = {
    "boosted_s_p50": ("s", "lower"),
    "iters_per_s": ("1/s", "higher"),
    "iter_ms_p50": ("ms", "lower"),
    "iter_ms_p99": ("ms", "lower"),
    "wall_s": ("s", "lower"),
    "trial_s_p50": ("s", "lower"),
    "plain_s_p50": ("s", "lower"),
    "time_ratio": ("ratio", "higher"),
    "iter_ratio": ("ratio", "higher"),
    "phi_end_log10": ("log10", "lower"),
    "failed_frac": ("ratio", "lower"),
}


# -- machine speed ---------------------------------------------------------


class Calibration:
    """A fixed kernel of the same kind of work as an outer iteration:
    products with a row-scaled sparse operator, a dense Gram matrix and
    its Cholesky solve, on operands that do not depend on dcboost."""

    def __init__(self):
        rng = np.random.default_rng(20150727)
        self.B = (sp.random(120, 40, density=0.05, random_state=rng, format="csr")
                  + sp.eye(120, 40, format="csr"))
        self.M = self.B.T.tocsr()
        self.e = rng.uniform(0.5, 2.0, 120)
        self.rhs = rng.uniform(-1.0, 1.0, 40)

    def call_ms(self):
        started = time.perf_counter()
        J = self.M @ self.B.multiply(self.e[:, None]).tocsr()
        H = (J.T @ J).toarray() + np.eye(40)
        scipy.linalg.cho_solve(scipy.linalg.cho_factor(H), self.rhs)
        return (time.perf_counter() - started) * 1e3


class Probe:
    """Times one calibration call in every outer iteration of every solve."""

    def __init__(self, calibration):
        self.calibration = calibration
        self.solves = []    # kernel times in ms, one list per solve call

    @contextmanager
    def installed(self):
        slope, solve = dcboost.solver.descent_slope, dcboost.solver.solve

        def probed_slope(*args, **kwargs):
            self.solves[-1].append(self.calibration.call_ms())
            return slope(*args, **kwargs)

        def counted_solve(*args, **kwargs):
            self.solves.append([])
            return solve(*args, **kwargs)

        with patched([(dcboost.solver, "descent_slope", probed_slope),
                      (harness, "solve", counted_solve)]):
            yield Calls(harness.run_matched_target, counted_solve)


def rolling_median(values, window):
    if values.size == 0:
        return values
    half = window // 2
    padded = np.pad(values, half, mode="edge")
    return np.median(np.lib.stride_tricks.sliding_window_view(padded, window), axis=1)


# -- running trials --------------------------------------------------------


@dataclass
class Solve:
    label: str              # variant name; "dca" for the chase
    config: SolverConfig    # the configuration the audit replays
    result: object          # SolveResult
    raw_ms: np.ndarray = None     # per-iteration wall time, kernel call taken out
    scaled_ms: np.ndarray = None  # the same at the reference speed

    @property
    def steps(self):
        """Newton steps plus one, per outer iteration."""
        return np.array([rec.inner_iters + 1 for rec in self.result.trace], dtype=float)

    @property
    def newton_steps(self):
        """Newton steps plus one, summed over the solve: its amount of work."""
        return int(self.steps.sum())

    def time(self, kernel_ms):
        """Take the kernel calls out of the iteration times and scale them.

        ``solve`` calls ``descent_slope`` once in every iteration it
        records, and once more in an iteration that then fails.  Any other
        count means the solver's structure changed and the kernel times no
        longer line up with the iterations, so the run stops.
        """
        elapsed = np.array([rec.elapsed_ms for rec in self.result.trace])
        extra = len(kernel_ms) - elapsed.size
        if not (extra == 0 or (extra == 1 and self.result.status.is_failure)):
            sys.exit(f"perfbench: {self.label} made {len(kernel_ms)} descent_slope calls "
                     f"in {elapsed.size} recorded iterations ({self.result.status.value}); "
                     "its iterations cannot be timed")
        kernel = np.asarray(kernel_ms[:elapsed.size], dtype=float)
        self.raw_ms = elapsed - kernel
        self.scaled_ms = self.raw_ms * CALIBRATION_MS / rolling_median(kernel, CALIBRATION_WINDOW)


@dataclass
class Trial:
    index: int
    wall_s: float = 0.0
    kernel_s: float = 0.0   # part of wall_s spent in kernel calls
    boosted: List[Solve] = field(default_factory=list)
    plain: Optional[Solve] = None
    reached: bool = True
    error: str = ""
    # (solve label, or None for the whole trial; what went wrong)
    problems: List[Tuple[Optional[str], str]] = field(default_factory=list)

    @property
    def solves(self):
        return self.boosted + ([self.plain] if self.plain is not None else [])


def build_problem(workload):
    m, n, seed = C6_NETWORKS[workload.network]
    network = generate_network(m, n, seed)
    return network, NetworkObjective(network).as_dc_problem(rho=RHO)


def sample_setup(workload, calibration, raw, scaled):
    """Time SETUP_REPEATS builds; return the last one."""
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        network, problem = build_problem(workload)
        seconds = time.perf_counter() - started
        raw.append(seconds)
        scaled.append(seconds * CALIBRATION_MS / calibration.call_ms())
    return network, problem


def start_point(workload, seed, index, m):
    rng = np.random.default_rng([seed % REFERENCE_SEEDS, workload.network, index])
    return rng.uniform(-workload.half_width, workload.half_width, size=m)


def run_trial(workload, problem, index, x0, calls):
    trial = Trial(index=index)
    started = time.perf_counter()
    try:
        if workload.matched:
            config = SolverConfig(variant=workload.variants[0])
            matched = calls.run_matched_target(problem, x0, config,
                                               bdca_iters=workload.iterations)
            trial.wall_s = time.perf_counter() - started
            trial.boosted.append(Solve(config.variant.value, config, matched.bdca))
            trial.plain = Solve("dca", SolverConfig(variant=Variant.DCA), matched.dca)
            trial.reached = matched.dca_reached
        else:
            for variant in workload.variants:
                config = SolverConfig(variant=variant,
                                      max_outer_iters=workload.iterations)
                trial.boosted.append(Solve(variant, config,
                                           calls.solve(problem, x0, config)))
            trial.wall_s = time.perf_counter() - started
    except Exception:  # an escaped exception fails the trial, not the run
        trial.wall_s = time.perf_counter() - started
        trial.error = traceback.format_exc()
        sys.stderr.write(trial.error)
    return trial


def run_timed(workload, problem, seed, count, probe, between):
    """The timed trials, each iteration timed against the calibration kernel."""
    trials = []
    with probe.installed() as calls:
        for index in range(count):
            probe.solves = []
            trial = run_trial(workload, problem, index,
                              start_point(workload, seed, index, problem.m), calls)
            trial.kernel_s = sum(map(sum, probe.solves)) / 1e3
            if not trial.error:
                if len(probe.solves) != len(trial.solves):
                    sys.exit(f"perfbench: trial {index} made {len(probe.solves)} solve calls "
                             f"for {len(trial.solves)} solves; they cannot be timed")
                for solve, kernel_ms in zip(trial.solves, probe.solves):
                    solve.time(kernel_ms)
            trials.append(trial)
            between()
    return trials


def outcome(trial):
    """What a trial computed, bit for bit: per solve the iteration count,
    status, phi_final and trace length, and whether the chase arrived."""
    return ([(s.label, s.result.iterations, s.result.status.value,
              float(s.result.phi_final).hex(), len(s.result.trace)) for s in trial.solves],
            trial.reached, bool(trial.error))


def warm_up(problem, x0):
    # first calls pay for lazy imports inside scipy; keep them untimed
    dcboost.solve(problem, x0, SolverConfig(variant=Variant.DCA, max_outer_iters=2))


# -- output checks ---------------------------------------------------------


@dataclass
class CheckTimes:
    audit_s: float = 0.0
    audit_rows: int = 0
    write_s: float = 0.0
    read_s: float = 0.0
    csv_rows: int = 0
    classify_s: float = 0.0
    classify_calls: int = 0


def _row(rec):
    return (rec.k, rec.phi_x, rec.phi_y, rec.norm_d, rec.lambda_k, rec.backtracks,
            rec.inner_iters, rec.elapsed_ms)


def _audit(trace, problem, solve, times):
    started = time.perf_counter()
    report = audit_trace(trace, problem, solve.config, phi_final=solve.result.phi_final)
    times.audit_s += time.perf_counter() - started
    times.audit_rows += len(trace)
    return report


def check_solve(solve, problem, scratch, times):
    """Problems found in one solve's outputs; an empty list means it passed."""
    problems = []
    trace = solve.result.trace
    report = _audit(trace, problem, solve, times)
    if not report.passed:
        problems.append((solve.label, f"audit found {len(report.violations)} "
                                      f"violations, first {report.violations[0]}"))

    path = scratch / f"{solve.label}.csv"
    started = time.perf_counter()
    write_trace_csv(trace, path)
    times.write_s += time.perf_counter() - started
    started = time.perf_counter()
    replayed = read_trace_csv(path)
    times.read_s += time.perf_counter() - started
    times.csv_rows += len(trace)
    if [_row(r) for r in replayed] != [_row(r) for r in trace]:
        problems.append((solve.label, "trace changed in the CSV round trip"))
    report = _audit(replayed, problem, solve, times)
    if not report.passed:
        problems.append((solve.label, f"audit of the CSV trace found {len(report.violations)} "
                                      f"violations, first {report.violations[0]}"))

    gaps = [rec.phi_x - solve.result.phi_final for rec in trace]
    if gaps and all(math.isfinite(g) for g in gaps):
        started = time.perf_counter()
        classify_rate(np.maximum(gaps, 0.0))
        times.classify_s += time.perf_counter() - started
        times.classify_calls += 1
    return problems


def check_trials(trials, problem, times):
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        for trial in trials:
            if trial.error:
                trial.problems.append((None, "an exception escaped the solver"))
                continue
            for solve in trial.solves:
                trial.problems += check_solve(solve, problem, Path(scratch), times)


def units(workload, trial):
    """(attempted, failed, failed its checks) units of one trial.

    A matched trial is one unit: it fails if either side ends in a failure
    status, the chase hits its cap, or its outputs fail a check.  A
    wide-start trial is one unit per solve, so failed_frac is the share of
    failed solves.
    """
    labels = {label for label, _ in trial.problems}
    if workload.matched:
        checked = bool(labels)
        failed = (checked or not trial.reached
                  or any(s.result.status.is_failure for s in trial.solves))
        return 1, int(failed), int(checked)
    if None in labels:
        n = len(workload.variants)
        return n, n, n
    checked = sum(s.label in labels for s in trial.boosted)
    failed = sum(s.label in labels or s.result.status.is_failure for s in trial.boosted)
    return len(trial.boosted), failed, checked


def unit_totals(workload, trials):
    totals = np.zeros(3, dtype=int)
    for trial in trials:
        totals += units(workload, trial)
    return [int(v) for v in totals]


# -- reference -------------------------------------------------------------


def reference_entry(trial):
    return {"trial": trial.index,
            "solves": [{"variant": s.label, "iterations": s.result.iterations,
                        "status": s.result.status.value,
                        "phi_final": format(float(s.result.phi_final), ".17g"),
                        "newton_steps": s.newton_steps}
                       for s in trial.solves]}


def load_reference(workload_name, seed):
    """The stored solves of the start seed ``seed`` draws, by trial index."""
    try:
        stored = json.loads(REFERENCE.read_text())[workload_name][str(seed % REFERENCE_SEEDS)]
    except (OSError, KeyError) as exc:
        sys.exit(f"perfbench: {REFERENCE.name} has no {workload_name} seed "
                 f"{seed % REFERENCE_SEEDS} ({exc!r}); run perfbench/make_reference.py")
    return {entry["trial"]: entry["solves"] for entry in stored}


def reference_steps(stored, trial):
    """Newton steps per solve the reference took for ``trial``, or None if
    it stores no such trial (a run longer than BENCHMARK.json's)."""
    solves = stored.get(trial.index)
    if solves is None:
        return None
    if [s["variant"] for s in solves] != [s.label for s in trial.solves]:
        sys.exit(f"perfbench: {REFERENCE.name} stores solves "
                 f"{[s['variant'] for s in solves]} for trial {trial.index}, the workload "
                 f"runs {[s.label for s in trial.solves]}; run perfbench/make_reference.py")
    return [s["newton_steps"] for s in solves]


def drift_lines(stored, trials):
    """Per-trial comparison with the stored reference, as report lines."""
    lines, drifted = [], 0
    for trial in trials:
        old_solves = stored.get(trial.index)
        if old_solves is None:
            lines.append(f"reference trial {trial.index}: none stored")
            continue
        new_solves = reference_entry(trial)["solves"]
        diffs = []
        if [s["variant"] for s in old_solves] != [s["variant"] for s in new_solves]:
            diffs.append(f"solves {[s['variant'] for s in old_solves]} stored, "
                         f"{[s['variant'] for s in new_solves]} run")
        else:
            for old, new in zip(old_solves, new_solves):
                for key in ("iterations", "status", "phi_final", "newton_steps"):
                    if old[key] != new[key]:
                        delta = ("" if key in ("status", "phi_final")
                                 else f" ({new[key] - old[key]:+d})")
                        diffs.append(f"{new['variant']} {key} {old[key]} -> {new[key]}{delta}")
        drifted += bool(diffs)
        lines.append(f"reference trial {trial.index}: "
                     + ("drift: " + "; ".join(diffs) if diffs else "match"))
    lines.append(f"reference drift: {drifted} of {len(trials)} trials")
    return lines


# -- metrics ---------------------------------------------------------------


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def timing_metrics(trials, setup, times_of, stored):
    """The timings, from per-iteration times ``times_of(solve)`` in ms.

    A Newton step is one inner Newton iteration; an outer iteration that
    takes k of them does k + 1 subproblem evaluations, so its time per
    step is its time over k + 1.  The start a seed draws decides how many
    steps each iteration needs, so time per step stays put across seeds
    where time per iteration or per solve does not.

    ``step_ms_p50`` divides by the run's own steps: it is the cost of one
    Newton step.  The two ``*_per_ref_step`` metrics are time to value:
    the time of a boosted solve, and of a trial (the boosted run plus the
    plain chase), each divided by the steps the reference run of the same
    start took.  The divisor does not follow the code under test, so a
    change that makes the solver do more work to reach the same value,
    such as more plain-DCA iterations, raises them.  A wide-start trial
    counts as one trial per solve here, as it does in ``units``: its three
    solves start far apart in conditioning, and a median over three
    trials would follow the starts a seed draws.
    """
    ok = [t for t in trials if not t.error]
    referenced = [(t, steps) for t in ok
                  for steps in [reference_steps(stored, t)] if steps is not None]
    work = []       # (solve, reference steps) pairs of each trial
    for t, steps in referenced:
        pairs = list(zip(t.solves, steps))
        work += [pairs] if t.plain is not None else [[pair] for pair in pairs]
    solves = [s for t in ok for s in t.solves]
    samples = np.concatenate([times_of(s) for s in solves] or [np.zeros(0)])
    steps = np.concatenate([s.steps for s in solves] or [np.ones(0)])
    solve_s = float(samples.sum()) / 1e3
    iterations = sum(s.result.iterations for s in solves)
    metrics = {
        "setup_s": _median(setup),
        "step_ms_p50": float(np.median(samples / steps)) if samples.size else 0.0,
        "boosted_ms_per_ref_step": _median([float(times_of(s).sum()) / ref
                                            for t, steps in referenced
                                            for s, ref in zip(t.boosted, steps) if ref]),
        "trial_ms_per_ref_step": _median([sum(float(times_of(s).sum()) for s, _ in pairs) / total
                                          for pairs in work
                                          for total in [sum(ref for _, ref in pairs)] if total]),
        "boosted_s_p50": _median([float(times_of(s).sum()) / 1e3 for t in ok for s in t.boosted]),
        "iters_per_s": iterations / solve_s if solve_s else 0.0,
        "iter_ms_p50": float(np.percentile(samples, 50)) if samples.size else 0.0,
        "iter_ms_p99": float(np.percentile(samples, 99)) if samples.size else 0.0,
        "trial_s_p50": _median([sum(float(times_of(s).sum()) for s in t.solves) / 1e3
                                for t in ok]),
    }
    plain = [t for t in ok if t.plain is not None]
    if plain:
        plain_s = [float(times_of(t.plain).sum()) / 1e3 for t in plain]
        boosted_s = float(sum(times_of(t.boosted[0]).sum() for t in plain)) / 1e3
        metrics["plain_s_p50"] = _median(plain_s)
        metrics["time_ratio"] = sum(plain_s) / boosted_s if boosted_s else 0.0
    return metrics, samples.size


def end_to_end(workload, trials, scaled_setup, stored):
    metrics, samples = timing_metrics(trials, scaled_setup, lambda s: s.scaled_ms, stored)
    ok = [t for t in trials if not t.error]
    boosted = [s for t in ok for s in t.boosted]
    attempted, failed, _ = unit_totals(workload, trials)
    metrics["wall_s"] = sum(t.wall_s - t.kernel_s for t in trials)
    metrics["phi_end_log10"] = (float(np.mean([math.log10(max(s.result.phi_final, 1e-300))
                                               for s in boosted])) if boosted else 0.0)
    metrics["failed_frac"] = failed / attempted
    if workload.matched and ok:
        metrics["iter_ratio"] = _median([t.plain.result.iterations
                                         / max(t.boosted[0].result.iterations, 1) for t in ok])
    return metrics, samples


def per_layer(recorder, traced_wall, plain_wall, times, e2e):
    own = recorder.self_times()
    calls, durations, self_s, info = {}, {}, {}, {}
    trials_in_search = 0
    for span, own_s in zip(recorder.spans, own):
        name = span[NAME]
        calls[name] = calls.get(name, 0) + 1
        durations.setdefault(name, []).append(span[END] - span[START])
        self_s[name] = self_s.get(name, 0.0) + own_s
        if span[INFO] is not None:
            info.setdefault(name, []).append(span[INFO])
        if (name == "biochem.phi_value" and span[PARENT] >= 0
                and recorder.spans[span[PARENT]][NAME] in LINE_SEARCHES):
            trials_in_search += 1

    metrics = {}
    for name in ("biochem.eval_f1", "biochem.eval_f2", "biochem.phi_value",
                 "biochem.f1_value", "biochem.phi_value_grad",
                 "inner.minimize_subproblem", "inner.spd_solve"):
        metrics[f"{name}.calls"] = calls.get(name, 0)
        metrics[f"{name}.us_p50"] = _median(durations.get(name, [])) * 1e6
        metrics[f"{name}.self_s"] = self_s.get(name, 0.0)
    metrics["biochem.eval_f1.self_share"] = (self_s.get("biochem.eval_f1", 0.0) / traced_wall
                                             if traced_wall else 0.0)

    hessians = calls.get("biochem.eval_f1", 0) + calls.get("biochem.eval_f2", 0)
    metrics["problem.hess_built"] = hessians
    metrics["problem.hess_use_ratio"] = (calls.get("inner.spd_solve", 0) / hessians
                                         if hessians else 0.0)
    metrics["problem.grad_h.self_s"] = self_s.get("problem.grad_h", 0.0)
    metrics["problem.eval_g.self_s"] = self_s.get("problem.eval_g", 0.0)

    newton = info.get("inner.minimize_subproblem", [])
    metrics["inner.newton_iters_mean"] = float(np.mean(newton)) if newton else 0.0
    damping = info.get("inner.spd_solve", [])
    metrics["inner.spd_solve.damped_frac"] = (sum(mu > 0 for mu in damping) / len(damping)
                                              if damping else 0.0)
    metrics["inner.spd_solve.mu_max"] = float(max(damping, default=0.0))

    metrics["solver.solve.self_s"] = self_s.get("solver.solve", 0.0)
    forward = info.get("solver.backtrack", [])   # (lambda, halvings) per accepted step
    backward = info.get("solver.fm_step", [])    # reductions per accepted step
    accepted = len(forward) + len(backward)
    metrics["solver.linesearch.calls"] = (calls.get("solver.backtrack", 0)
                                          + calls.get("solver.fm_step", 0))
    metrics["solver.linesearch.self_s"] = sum(self_s.get(n, 0.0) for n in LINE_SEARCHES)
    metrics["solver.linesearch.trials"] = trials_in_search
    metrics["solver.linesearch.accept_ratio"] = (accepted / trials_in_search
                                                 if trials_in_search else 0.0)
    metrics["solver.halvings_per_iter"] = ((sum(h for _, h in forward) + sum(backward))
                                           / accepted if accepted else 0.0)
    metrics["solver.lambda_small_frac"] = (sum(lam < SMALL_LAMBDA for lam, _ in forward)
                                           / len(forward) if forward else 0.0)
    krows = times.csv_rows / 1e3
    metrics["solver.trace_csv.write_ms_per_krow"] = times.write_s * 1e3 / krows if krows else 0.0
    metrics["solver.trace_csv.read_ms_per_krow"] = times.read_s * 1e3 / krows if krows else 0.0
    # these two cover every trial of the run, the rest the traced first trial
    metrics["solver.phi_end_log10"] = e2e["phi_end_log10"]
    metrics["solver.failed_frac"] = e2e["failed_frac"]

    krows = times.audit_rows / 1e3
    metrics["analysis.audit_trace.ms_per_krow"] = times.audit_s * 1e3 / krows if krows else 0.0
    metrics["analysis.classify_rate.ms"] = (times.classify_s * 1e3 / times.classify_calls
                                            if times.classify_calls else 0.0)
    metrics["harness.run_matched_target.self_s"] = self_s.get("harness.run_matched_target", 0.0)
    metrics["bench.trace_overhead_s"] = traced_wall - plain_wall
    return metrics, calls, self_s


# -- environment -----------------------------------------------------------


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment_lines(seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})"
    except (KeyError, TypeError):
        blas = "unknown"
    threads = " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARIABLES)
    src_lines = sum(len(p.read_text().splitlines()) for p in (SRC / "dcboost").glob("*.py"))
    return [
        f"env python {platform.python_version()} numpy {np.__version__} "
        f"scipy {scipy.__version__} dcboost {dcboost.__version__}",
        f"env blas {blas}",
        f"env {threads} nproc {os.cpu_count()} usable {len(os.sched_getaffinity(0))}",
        f"env seed {seed} (starts of reference seed {seed % REFERENCE_SEEDS}) "
        f"commit {git_commit()}",
        f"env src_lines {src_lines} (informational; not a benchmark metric)",
    ]


# -- main ------------------------------------------------------------------


def trial_count(workload, seconds):
    return max(1, round(seconds / workload.trial_seconds))


def metric_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m for m in spec["end_to_end"]},
            {m["name"]: m for m in spec["per_layer"]})


def trial_lines(trials):
    lines = []
    for trial in trials:
        parts = [f"{s.label} {s.result.iterations} it {s.result.status.value} "
                 f"phi {s.result.phi_final:.6g}" for s in trial.solves]
        if not trial.reached:
            parts.append("chase hit its cap")
        parts += [f"{label or 'trial'}: {message}" for label, message in trial.problems]
        lines.append(f"trial {trial.index} ({trial.wall_s:.3f} s wall, "
                     f"{trial.kernel_s:.3f} s in kernel calls): " + " | ".join(parts))
    return lines


def metric_line(name, value, unit, better):
    return f"metric {name} = {value!r} {unit} ({better} is better)"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    e2e_spec, layer_spec = metric_spec()
    stored = load_reference(args.workload, args.seed)
    calibration = Calibration()
    raw_setup, scaled_setup = [], []
    network, problem = sample_setup(workload, calibration, raw_setup, scaled_setup)
    count = trial_count(workload, args.seconds)
    for line in environment_lines(args.seed):
        print(line)
    print(f"workload {args.workload}: {network.name} (m={network.m}, n={network.n}), "
          f"{count} trials, starts uniform in [-{workload.half_width:g}, "
          f"{workload.half_width:g}], variants {', '.join(workload.variants)}"
          + (" then a dca chase" if workload.matched else ""))

    warm_up(problem, start_point(workload, args.seed, 0, problem.m))
    trials = run_timed(workload, problem, args.seed, count, Probe(calibration),
                       between=lambda: sample_setup(workload, calibration,
                                                    raw_setup, scaled_setup))
    times = CheckTimes()
    check_trials(trials, problem, times)
    for line in trial_lines(trials) + drift_lines(stored, trials):
        print(line)

    e2e, samples = end_to_end(workload, trials, scaled_setup, stored)
    raw, _ = timing_metrics(trials, raw_setup, lambda s: s.raw_ms, stored)
    attempted, _, failed = unit_totals(workload, trials)
    print(f"setup samples {len(scaled_setup)}; iteration samples {samples} "
          f"({int(samples * 0.01)} beyond p99)")
    for name, m in e2e_spec.items():
        print(metric_line(name, e2e[name], m["unit"], m["better"]))
    for name, (unit, better) in REPORT_ONLY.items():
        if name in e2e:
            print(metric_line(name, e2e[name], unit, better))
    for name, value in raw.items():
        print(f"raw_{name} = {value!r} (unscaled)")

    if args.trace:
        first = trials[0]
        recorder = SpanRecorder()
        with traced(recorder, problem) as calls:
            traced_first = run_trial(workload, problem, 0,
                                     start_point(workload, args.seed, 0, problem.m), calls)
        if outcome(traced_first) != outcome(first):
            print("tracing changed the outcome of trial 0")
            failed = attempted
        else:
            print("tracing reproduced trial 0's iteration counts, statuses and "
                  "phi_final bit for bit")
        plain_wall = first.wall_s - first.kernel_s
        layers, calls_by_name, self_by_name = per_layer(recorder, traced_first.wall_s,
                                                        plain_wall, times, e2e)
        print(f"span self time of trial 0 over {traced_first.wall_s:.3f} s traced "
              f"({plain_wall:.3f} s untraced):")
        for name in sorted(self_by_name, key=self_by_name.get, reverse=True):
            print(f"  {name:30s} {calls_by_name[name]:8d} calls {self_by_name[name]:9.3f} s "
                  f"{100 * self_by_name[name] / traced_first.wall_s:5.1f}%")
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans_{args.workload}_seed{args.seed}.csv"
        recorder.write_csv(spans_path)
        print(f"spans written to {spans_path.relative_to(ROOT)}")
        for name, m in layer_spec.items():
            print(metric_line(name, layers[name], m["unit"], m["better"]))
        chosen, values = layer_spec, layers
    else:
        chosen, values = e2e_spec, e2e

    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": m["unit"]}
                    for name, m in chosen.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
