"""Command-line front end.

Subcommands: solve, compare, generate, validate, rate, audit.  Every
command echoes its resolved configuration as a single JSON line before
doing any work; for ``compare`` that line is a complete experiment spec
that reproduces the run via --spec-file.  Subcommands raise; ``main``
alone turns an exception into an error line and an exit code.
"""

import argparse
import json
import math
import sys
import warnings

import numpy as np

from .analysis import AUDIT_TOL_BASE, _finite_json, audit_trace, classify_rate
from .biochem import (check_mass_conservation, generate_network, load_network,
                      save_network)
from .exceptions import DcError, SchemaError
from .harness import ExperimentSpec, ProblemSource, run_experiment
from .inner import check_count
from .problem import BUILTIN_PROBLEMS
from .solver import (SolverConfig, Variant, read_column, read_trace_csv, solve,
                     write_trace_csv)

__all__ = ("main",)


def _print_json(obj):
    """Print obj as one line of strict JSON, a non-finite number as null."""
    print(json.dumps(_finite_json(obj), allow_nan=False))


def _given(args, *names):
    # a flag left out takes the library's default
    return {name: getattr(args, name) for name in names
            if getattr(args, name) is not None}


def _solver_flags(parser):
    parser.add_argument("--variant", choices=[v.value for v in Variant])
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--beta", type=float)
    parser.add_argument("--lambda-bar", type=float)
    parser.add_argument("--lambda-max", type=float)
    parser.add_argument("--inner-tol", type=float)


def _solver_config(args, **fields):
    return SolverConfig(**_given(args, "variant", "alpha", "beta", "lambda_bar",
                                 "lambda_max", "inner_tol"), **fields)


# -- solve ---------------------------------------------------------------


def cmd_solve(args):
    check_count("--x0-seed", args.x0_seed, low=0)
    # a single solve is one problem source under the experiment defaults
    source = ProblemSource(kind="model" if args.builtin is None else "builtin",
                           name=args.builtin, path=args.model, rho=args.rho)
    spec = ExperimentSpec(problems=[source])
    _, problem, _ = source.resolve(spec.rho)

    if args.x0 is not None:
        try:
            x0 = np.array([float(v) for v in args.x0.split(",")])
        except ValueError:
            raise ValueError(f"cannot parse --x0 {args.x0!r}") from None
        if x0.size != problem.m:
            raise ValueError(f"--x0 has {x0.size} entries, problem needs {problem.m}")
        start = {"x0": x0.tolist()}
    else:
        rng = np.random.default_rng(args.x0_seed)
        x0 = rng.uniform(spec.x0_low, spec.x0_high, size=problem.m)
        start = {"x0_seed": args.x0_seed}

    cfg = _solver_config(args, **_given(args, "max_outer_iters"), tol=args.tol)
    _print_json({"command": "solve", "problem": source.to_json(), "m": problem.m,
                 "rho": problem.rho, **cfg.to_json(), **start})

    result = solve(problem, x0, cfg)

    if args.trace_out:
        write_trace_csv(result.trace, args.trace_out)
        print(f"trace: {args.trace_out} ({len(result.trace)} rows)")
    final_d = result.trace[-1].norm_d if result.trace else float("nan")
    print(f"status: {result.status.value}")
    print(f"phi: {result.phi_final:.12g}")
    print(f"iterations: {result.iterations}")
    print(f"norm_d: {final_d:.6g}")
    if result.message:
        print(f"detail: {result.message}")
    return 1 if result.status.is_failure else 0


# -- compare -------------------------------------------------------------


def _parse_generate(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"--generate wants m:n:seed, got {text!r}")
    m, n, seed = (int(p) for p in parts)
    return ProblemSource(kind="generate", m=m, n=n, seed=seed)


def cmd_compare(args):
    if args.spec_file is not None:
        with open(args.spec_file) as handle:
            spec = ExperimentSpec.from_json(json.load(handle))
    else:
        problems = [ProblemSource(kind="builtin", name=name)
                    for name in args.builtin or ()]
        problems += [ProblemSource(kind="model", path=path)
                     for path in args.model or ()]
        problems += [_parse_generate(text) for text in args.generate or ()]
        if not problems:
            raise ValueError("no problems given (use --builtin/--model/--generate "
                             "or --spec-file)")
        spec = ExperimentSpec(
            problems=problems, solver=_solver_config(args),
            **_given(args, "trials", "seed", "bdca_iters", "dca_cap", "rho"))

    _print_json(spec.to_json())
    result = run_experiment(spec, out_dir=args.out)

    header = (f"{'name':<24}{'m':>5}{'n':>5}{'phi0':>12}{'phi_end':>12}"
              f"{'b_it':>8}{'b_t(s)':>9}{'d_it':>9}{'d_t(s)':>9}"
              f"{'r_it':>7}{'r_t':>7}")
    print(header)
    for row in result.rows:
        print(f"{row.name:<24}{row.m:>5}{row.n:>5}"
              f"{row.avg_phi0:>12.4g}{row.avg_phi_end:>12.4g}"
              f"{row.bdca_iters_avg:>8.1f}{row.bdca_time_avg:>9.3f}"
              f"{row.dca_iters_avg:>9.1f}{row.dca_time_avg:>9.3f}"
              f"{row.ratio_iters:>7.2f}{row.ratio_time:>7.2f}")
        if row.failures or row.dca_capped:
            print(f"  note: {row.failures} failed trials, "
                  f"{row.dca_capped} hit the plain-variant cap")
    if args.out:
        print(f"wrote {args.out}/rows.csv and per-trial traces")
    return 0


# -- generate / validate -------------------------------------------------


def cmd_generate(args):
    _print_json({"command": "generate", "m": args.m, "n": args.n, "seed": args.seed,
                 "out": args.out})
    network = generate_network(args.m, args.n, args.seed)
    save_network(network, args.out)
    residual, _ = check_mass_conservation(network)
    print(f"name: {network.name}")
    print(f"species: {network.m}, reactions: {network.n}")
    print(f"conservation residual: {residual:g}")
    return 0


def cmd_validate(args):
    _print_json({"command": "validate", "model": args.model, "l_file": args.l_file})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        network = load_network(args.model)
    for warning in caught:
        print(f"warning: {warning.message}")

    masses = None
    try:
        if args.l_file is not None:
            with open(args.l_file) as handle:
                masses = json.load(handle)
            if not (isinstance(masses, list) and all(type(v) in (int, float) for v in masses)):
                raise ValueError("must be a JSON list of numbers")
        residual, _ = check_mass_conservation(network, masses)
    except ValueError as exc:
        raise SchemaError("l-file", str(exc)) from exc

    print(f"name: {network.name or '(unnamed)'}")
    print(f"species: {network.m}, reactions: {network.n}")
    print(f"conservation residual: {residual:g}")
    if residual > 0:
        print("conservation warning: columns are not mass balanced")
        return 2
    return 0


# -- rate / audit --------------------------------------------------------


def cmd_rate(args):
    _print_json({"command": "rate", "trace": args.trace, "column": args.column,
                 "subtract_final": args.subtract_final, "atol": args.atol})
    if args.atol is not None and not 0 <= args.atol < math.inf:
        raise ValueError(f"--atol must be nonnegative and finite, got {args.atol}")
    series = np.asarray(read_column(args.trace, args.column), dtype=float)
    if args.subtract_final and series.size:
        series = series - series[-1]
    try:
        report = classify_rate(np.abs(series), atol=args.atol)
    except ValueError as exc:  # the series is the file's content
        raise SchemaError(args.trace, str(exc)) from exc
    _print_json(report.to_json())
    return 0


def cmd_audit(args):
    cfg = SolverConfig(**_given(args, "variant", "alpha"))
    _print_json({"command": "audit", "trace": args.trace, "sigma_g": args.sigma_g,
                 "sigma_h": args.sigma_h, "rho": args.rho, "alpha": cfg.alpha,
                 "variant": cfg.variant.value, "tol_base": args.tol_base})
    trace = read_trace_csv(args.trace)
    report = audit_trace(trace, (args.sigma_g, args.sigma_h, args.rho), cfg,
                         tol_base=args.tol_base)
    _print_json(report.to_json())
    return 0 if report.passed else 1


# -- parser --------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dcboost",
        description="DC solvers with boosted line searches, plus network "
                    "tooling and trace analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run one solver on a problem")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--builtin", choices=sorted(BUILTIN_PROBLEMS))
    src.add_argument("--model", help="model JSON file")
    _solver_flags(p)
    p.add_argument("--rho", type=float,
                   help="regularization (default: builtin's own, compare's "
                        "default for models)")
    p.add_argument("--max-iters", type=int, dest="max_outer_iters")
    p.add_argument("--tol", type=float,
                   help="stop once the direction or the step is no longer than this")
    p.add_argument("--x0", help="comma-separated start point")
    p.add_argument("--x0-seed", type=int, default=0,
                   help="seed for a uniform start in compare's start box")
    p.add_argument("--trace-out", help="write the iteration trace CSV here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("compare", help="matched-target comparison runs")
    p.add_argument("--spec-file", help="experiment spec JSON (as echoed)")
    p.add_argument("--builtin", action="append", choices=sorted(BUILTIN_PROBLEMS))
    p.add_argument("--model", action="append")
    p.add_argument("--generate", action="append", metavar="M:N:SEED")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--bdca-iters", type=int)
    p.add_argument("--dca-cap", type=int)
    p.add_argument("--rho", type=float)
    _solver_flags(p)
    p.add_argument("--out", help="directory for rows.csv, spec.json, traces/")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("generate", help="make a synthetic conservative network")
    p.add_argument("--m", type=int, required=True, help="species count")
    p.add_argument("--n", type=int, required=True, help="reaction count")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="model JSON destination")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("validate", help="check a model file")
    p.add_argument("model")
    p.add_argument("--l-file", help="JSON list of positive species masses")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("rate", help="classify a trace column's convergence")
    p.add_argument("trace")
    p.add_argument("--column", default="norm_d")
    p.add_argument("--subtract-final", action="store_true",
                   help="classify |s_k - s_last| instead of s_k")
    p.add_argument("--atol", type=float, default=None)
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("audit", help="replay decrease inequalities on a trace")
    p.add_argument("trace")
    p.add_argument("--sigma-g", type=float, default=0.0)
    p.add_argument("--sigma-h", type=float, default=0.0)
    p.add_argument("--rho", type=float, default=0.0)
    p.add_argument("--alpha", type=float)
    p.add_argument("--variant", choices=[v.value for v in Variant])
    p.add_argument("--tol-base", type=float, default=AUDIT_TOL_BASE)
    p.set_defaults(func=cmd_audit)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None):
    # a library warning is about the run, not about the line that raised it
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # the one place an exception becomes an exit code; a TypeError is a
    # bug and is left to show its traceback
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return args.func(args)
    except SchemaError as exc:  # a malformed input file
        print(f"schema error: {exc}", file=sys.stderr)
        return 1
    except (OSError, DcError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
