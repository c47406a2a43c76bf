"""End-to-end acceptance suite.

Nine criteria, one per test, each printing a single ``[C#] PASS/FAIL``
line with the measured quantities before asserting at the stated
tolerance.  Ordered roughly by runtime; the benchmark comparison (C6)
dominates at a few minutes.
"""

import dataclasses

import numpy as np
import pytest
from numpy.random import default_rng

from dcboost import (ExperimentSpec, NetworkObjective, ProblemSource, Regime,
                     SolverConfig, Variant, audit_trace, backtrack,
                     classify_rate, dca_step, descent_slope,
                     export_table, generate_network, load_network,
                     make_expsys_problem, make_quartic_problem,
                     quad_interp_lambda, read_table, run_experiment,
                     save_network, solve, verify_rate_inequality)
from derivatives import derivative_report

pytestmark = pytest.mark.filterwarnings("ignore::dcboost.TheoryWarning")

NETWORK_SIZES = ((20, 30, 101), (30, 45, 102), (40, 60, 103),
                 (60, 90, 104), (80, 120, 105))


def report(label, ok, detail):
    print(f"[{label}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def networks():
    return [generate_network(m, n, seed=seed) for m, n, seed in NETWORK_SIZES]


@pytest.fixture(scope="module")
def all_problems(networks):
    """(problem, start-scale) pairs covering builtins and networks."""
    entries = [make_quartic_problem(), make_expsys_problem()]
    entries += [NetworkObjective(net).as_dc_problem(rho=100.0)
                for net in networks]
    return entries


def test_c1_quartic_exact_first_step():
    problem = make_quartic_problem()
    config = SolverConfig(variant=Variant.BDCA_B, lambda_bar=2.0,
                          lambda_max=8.0)
    x0 = np.array([27.0 / 125.0])
    y, _ = dca_step(problem, x0, config)
    err_y = abs(y[0] - 3.0 / 5.0)

    # Exact ray oracle: along x(t) = y + t*d the objective t**4/4 - t**2/2
    # is stationary where x**3 - x = 0; the descending branch from y = 3/5
    # with d > 0 bottoms out at x = 1, i.e. at step (1 - y)/d.
    d = y - x0
    lam_oracle = (1.0 - y[0]) / d[0]
    err_lam = abs(lam_oracle - 25.0 / 24.0)
    landed = y + lam_oracle * d
    err_land = abs(landed[0] - 1.0)

    ok = err_y <= 1e-8 and err_lam <= 1e-6 and err_land <= 1e-8
    report("C1", ok,
           f"|y-3/5|={err_y:.2e}, |lam-25/24|={err_lam:.2e}, "
           f"|x1-1|={err_land:.2e}")


def test_c2_descent_audit_suite(all_problems):
    variants = (Variant.DCA, Variant.BDCA_B, Variant.BDCA_QI)
    runs = 0
    violations = 0
    failures = []
    for p_idx, problem in enumerate(all_problems):
        for v_idx, variant in enumerate(variants):
            config = SolverConfig(variant=variant, max_outer_iters=40)
            for start in range(3):
                rng = default_rng([11, p_idx, v_idx, start])
                x0 = rng.uniform(-2.0, 2.0, problem.m)
                result = solve(problem, x0, config)
                if result.status.is_failure:
                    failures.append((problem.name, variant.value, start,
                                     result.status.value))
                    continue
                audit = audit_trace(result.trace, problem, config,
                                    phi_final=result.phi_final)
                violations += len(audit.violations)
                runs += 1
    ok = runs >= 50 and violations == 0 and not failures
    report("C2", ok,
           f"{runs} audited runs, {violations} inequality violations, "
           f"{len(failures)} solver failures")


def test_c3_derivative_correctness(all_problems):
    worst = {"grad": 0.0, "hess": 0.0, "asym": 0.0}
    for p_idx, problem in enumerate(all_problems):
        rng = default_rng([13, p_idx])
        for _ in range(20):
            x = rng.uniform(-1.0, 1.0, problem.m)
            rep = derivative_report(problem, x)
            worst["grad"] = max(worst["grad"], rep["grad_f1"], rep["grad_f2"])
            worst["hess"] = max(worst["hess"], rep["hess_f1"])
            worst["asym"] = max(worst["asym"], rep["asym_f1"])
    ok = (worst["grad"] <= 1e-5 and worst["hess"] <= 1e-4
          and worst["asym"] <= 1e-10)
    report("C3", ok,
           f"max rel err: grad {worst['grad']:.2e}, hess {worst['hess']:.2e}, "
           f"asym {worst['asym']:.2e} over {20 * len(all_problems)} points")


def test_c4_rate_inequality_regimes():
    checks = []

    # geometric decay: s^1 = 2*(s_k - s_{k+1}) exactly, so the bound holds
    # at beta = 2 and first fails just below
    s_geo = 0.5 ** np.arange(40, dtype=float)
    checks.append(verify_rate_inequality(s_geo, 1.0, 2.0) is True)
    checks.append(verify_rate_inequality(s_geo, 1.0, 1.9) is False)

    # affine countdown reaching zero in finitely many steps
    s_affine = np.array([3.0, 2.0, 1.0, 0.0, 0.0])
    checks.append(verify_rate_inequality(s_affine, 0.0, 1.0) is True)

    # power tail s_k = 1/(k+1): s^2 / (s_k - s_{k+1}) = (k+2)/(k+1) <= 2
    s_pow = 1.0 / (np.arange(60, dtype=float) + 1.0)
    checks.append(verify_rate_inequality(s_pow, 2.0, 2.0) is True)
    checks.append(verify_rate_inequality(s_pow, 2.0, 1.4) is False)

    # once the bound holds at some beta it holds at every larger beta
    sweeps_ok = True
    rng = default_rng(17)
    s_rand = np.sort(rng.uniform(0.0, 1.0, 30))[::-1].copy()
    for s in (s_geo, s_pow, s_rand):
        outcomes = [verify_rate_inequality(s, 1.0, b)
                    for b in np.linspace(0.1, 6.0, 60)]
        first_true = outcomes.index(True) if True in outcomes else len(outcomes)
        sweeps_ok = sweeps_ok and all(outcomes[first_true:])
    checks.append(sweeps_ok)

    # classification of known synthetic sequences
    s_finite = np.where(np.arange(12) >= 5, 0.0, 0.5 ** np.arange(12))
    checks.append(classify_rate(s_finite).regime is Regime.FINITE)
    rep_lin = classify_rate(0.9 ** np.arange(60, dtype=float))
    checks.append(rep_lin.regime is Regime.LINEAR
                  and 0.88 <= rep_lin.rate <= 0.92)
    rep_sub = classify_rate(np.arange(1.0, 61.0) ** -2.0)
    checks.append(rep_sub.regime is Regime.SUBLINEAR
                  and 1.8 <= rep_sub.exponent <= 2.2)

    report("C4", all(checks),
           f"{sum(checks)}/{len(checks)} regime and monotonicity checks, "
           f"linear rate {rep_lin.rate:.3f}, power exponent "
           f"{rep_sub.exponent:.2f}")


def test_c5_asymptotic_rates():
    # plain iteration on the quartic: error |x_k - 1| contracts by the
    # cube-root derivative 1/3 once near the optimum
    problem = make_quartic_problem()
    config = SolverConfig()
    x = np.array([27.0 / 125.0])
    errors = [abs(x[0] - 1.0)]
    for _ in range(80):
        y, _ = dca_step(problem, x, config)
        if np.linalg.norm(y - x) <= config.resolved_tol(1):
            break
        x = y
        errors.append(abs(x[0] - 1.0))
    rep_q = classify_rate(np.array(errors))
    ok_q = rep_q.regime is Regime.LINEAR and 0.28 <= rep_q.rate <= 0.38

    # boosted iteration on the 1-D exponential system: the distance to the
    # root also settles into a steady geometric contraction
    problem = make_expsys_problem()
    config = SolverConfig(variant=Variant.BDCA_B, lambda_bar=1.0,
                          lambda_max=4.0)
    x = np.array([1.5])
    errors = [abs(x[0])]
    for _ in range(200):
        y, _ = dca_step(problem, x, config)
        d = y - x
        if np.linalg.norm(d) < 1e-15:
            break
        if descent_slope(problem, y, d) < 0:
            lam, _ = backtrack(problem, y, d, config.lambda_bar, config,
                               phi_y=problem.phi_value(y))
            x = y + lam * d
        else:
            x = y
        errors.append(abs(x[0]))
        if errors[-1] < 1e-12:
            break
    rep_e = classify_rate(np.array(errors))
    ok_e = rep_e.regime is Regime.LINEAR

    report("C5", ok_q and ok_e,
           f"plain quartic: {rep_q.regime.value} rate={rep_q.rate:.4f} "
           f"({rep_q.samples_used} samples); boosted exp system: "
           f"{rep_e.regime.value} rate={rep_e.rate:.4f} "
           f"({rep_e.samples_used} samples)")


def test_c6_benchmark_speedup():
    spec = ExperimentSpec(
        problems=[ProblemSource(kind="generate", m=m, n=n, seed=seed)
                  for m, n, seed in NETWORK_SIZES],
        trials=10,
        seed=0,
        bdca_iters=200,
        rho=100.0,
        solver=SolverConfig(variant=Variant.BDCA_QI),
    )
    result = run_experiment(spec)
    ratios, time_ratios = [], []
    for trials in result.trials.values():
        for trial in trials:
            matched = trial.matched
            ratios.append(matched.dca.iterations
                          / max(matched.bdca.iterations, 1))
            time_ratios.append(solve_ms(matched.dca) / max(solve_ms(matched.bdca), 1e-9))
    ratios = np.array(ratios)
    frac_above_one = float(np.mean(ratios > 1.0))
    median_ratio = float(np.median(ratios))
    ok = frac_above_one >= 0.9 and median_ratio >= 1.5
    # the time ratio is printed only: on a shared machine a gate on it
    # would fail with the load, not with the code
    report("C6", ok,
           f"{ratios.size} trials on {len(NETWORK_SIZES)} networks: "
           f"ratio>1 in {frac_above_one:.0%}, median ratio "
           f"{median_ratio:.2f}, range [{ratios.min():.2f}, "
           f"{ratios.max():.2f}]; median time ratio "
           f"{float(np.median(time_ratios)):.2f} (not gated)")


def solve_ms(result):
    return sum(rec.elapsed_ms for rec in result.trace)


def test_c7_interpolation_step_optimality():
    rng = default_rng(2024)
    grid = np.arange(0.0, 21.0, 1e-4)
    worst = 0.0
    for _ in range(100):
        phi0 = rng.uniform(-1.0, 1.0)
        dphi0 = rng.uniform(-2.0, -0.05)
        curvature = rng.uniform(0.05, 4.0)
        lam_bar = rng.uniform(0.5, 3.0)
        phi_bar = phi0 + dphi0 * lam_bar + curvature * lam_bar ** 2
        lam = quad_interp_lambda(phi0, dphi0, phi_bar, lam_bar)
        values = phi0 + dphi0 * grid + curvature * grid ** 2
        lam_grid = grid[np.argmin(values)]
        worst = max(worst, abs(lam - lam_grid))
    ok = worst <= 2e-4
    report("C7", ok, f"max |interp - grid argmin| = {worst:.2e} "
                     f"over 100 random parabolic states")


def test_c8_conservation_kernel(networks):
    worst_struct = 0.0
    worst_rel = 0.0
    points = 0
    for net, (m, n, seed) in zip(networks, NETWORK_SIZES):
        F = net.F.toarray().astype(float)
        R = net.R.toarray().astype(float)
        ones = np.ones(m)
        worst_struct = max(worst_struct,
                           float(np.abs((R - F).T @ ones).max()))
        stack = np.hstack([F, R])
        swapped = np.hstack([R, F])
        net_coeffs = stack - swapped
        exponents_matrix = np.vstack([F.T, R.T])
        rng = default_rng(seed)
        for _ in range(5):
            x = rng.uniform(-1.0, 1.0, m)
            e = np.exp(net.w + exponents_matrix @ x)
            jac = net_coeffs @ (e[:, None] * exponents_matrix)
            rel = (np.linalg.norm(jac.T @ ones)
                   / max(np.linalg.norm(jac), 1e-300))
            worst_rel = max(worst_rel, rel)
            points += 1
    ok = worst_struct == 0.0 and worst_rel <= 1e-8
    report("C8", ok,
           f"stoichiometric column-sum max {worst_struct:.1f} (exact), "
           f"worst rel mass-kernel residual {worst_rel:.2e} over "
           f"{points} points")


def test_c9_determinism_and_roundtrips(tmp_path, networks):
    spec = ExperimentSpec(
        problems=[ProblemSource(kind="builtin", name="quartic"),
                  ProblemSource(kind="generate", m=20, n=30, seed=101)],
        trials=2,
        seed=5,
        bdca_iters=30,
        rho=100.0,
        solver=SolverConfig(variant=Variant.BDCA_QI, lambda_bar=2.0,
                            lambda_max=8.0),
    )
    first = run_experiment(spec)
    second = run_experiment(spec)
    # every column except wall-clock timings must repeat exactly
    stable_fields = [f.name for f in dataclasses.fields(first.rows[0])
                     if "time" not in f.name]
    same_counts = all(
        getattr(a, field) == getattr(b, field)
        for a, b in zip(first.rows, second.rows)
        for field in stable_fields)

    model_path = tmp_path / "net.json"
    save_network(networks[0], model_path)
    reloaded = load_network(model_path)
    model_ok = (reloaded == networks[0]
                and np.array_equal(reloaded.w, networks[0].w))

    table_path = tmp_path / "rows.csv"
    export_table(first.rows, table_path)
    table_ok = read_table(table_path) == first.rows

    ok = same_counts and model_ok and table_ok
    report("C9", ok,
           f"repeat run identical on {len(stable_fields)} per-row fields; "
           f"model JSON lossless: {model_ok}; comparison CSV lossless: "
           f"{table_ok}")
