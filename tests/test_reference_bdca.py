"""dcboost's solver against the dense reference in reference_bdca.py, one
step at a time from dcboost's own iterates, so that errors do not
compound: each subproblem point y_k and each recorded boost step."""

import numpy as np
import pytest

import dcboost.solver
from dcboost import (NetworkObjective, SolverConfig, Variant, generate_network,
                     make_expsys_problem, make_quartic_problem, minimize_subproblem, solve)
from reference_bdca import boost, network_pieces, subproblem

EPS = np.finfo(float).eps
# the rounding each side's value, gradient or slope may carry, relative to
# the sizes of the terms it sums: both compute phi without f1 - f2's
# cancellation, and every sum has at most a few dozen terms; the test
# checks this bound on every phi_x, phi_y and slope the trace records
ROUNDING = 16.0 * EPS
# the reference solves each subproblem to this relative gradient tolerance
REFERENCE_RTOL = 1e-11


def quartic_pieces(x):
    t = x[0]
    return (t ** 4 / 4.0, np.array([t ** 3]), np.array([[3.0 * t * t]]), t * t / 2.0,
            np.array([t]), t ** 4 / 4.0 - t * t / 2.0, np.array([t ** 3 - t]))


def expsys_pieces(x):
    p = np.exp(x[0])
    return (2.0 * (p * p + 1.0), np.array([4.0 * p * p]), np.array([[8.0 * p * p]]),
            (p + 1.0) ** 2, np.array([2.0 * p * (p + 1.0)]), (p - 1.0) ** 2,
            np.array([2.0 * p * (p - 1.0)]))


def case(name):
    """(problem, pieces, x0, settings, modulus): modulus(y, z) is g's
    strong-convexity modulus on the segment from y to z."""
    if name == "quartic":
        # the paper's exact first step: y_0 = 3/5 from 27/125; g = x^4/4 has
        # g'' = 3 t^2, at least 3 min(y^2, z^2) between two points of one sign
        return (make_quartic_problem(), quartic_pieces, np.array([27.0 / 125.0]),
                dict(lambda_bar=2.0, lambda_max=8.0),
                lambda y, z: 3.0 * min(y[0] ** 2, z[0] ** 2) if y[0] * z[0] > 0.0 else 0.0)
    if name == "expsys":
        problem = make_expsys_problem()
        return problem, expsys_pieces, np.array([1.5]), {}, lambda y, z: problem.rho
    m, seed = {"m4": (4, 1000), "m8": (8, 1002), "m20": (20, 101)}[name]
    network = generate_network(m, 3 * m // 2, seed)
    pieces = network_pieces(network.F.toarray(), network.R.toarray(), network.w)
    # f1 is convex, so g = f1 + (rho/2)||x||^2 has modulus rho everywhere
    return (NetworkObjective(network).as_dc_problem(rho=100.0), pieces,
            np.random.default_rng([seed, m]).uniform(-2.0, 2.0, m), {},
            lambda y, z: 100.0)


def value_rounding(pieces, x):
    f1, _, _, f2, *_ = pieces(x)
    return ROUNDING * (f1 + f2)


def check_each_step(monkeypatch, name, variant, **overrides):
    """Check every row of a 12-iteration solve of case ``name`` against the
    reference; returns the settings and, per row, (row, y_k, d_k, the
    reference's ``boost`` result)."""
    problem, pieces, x0, settings, modulus = case(name)
    cfg = SolverConfig(variant=variant, max_outer_iters=12, **{**settings, **overrides})
    calls = []

    def recording(problem, linear_term, x_init, tol_grad=1e-8, state=None):
        y, inner_iters = minimize_subproblem(problem, linear_term, x_init, tol_grad, state)
        calls.append((x_init.copy(), y.copy()))
        return y, inner_iters

    monkeypatch.setattr(dcboost.solver, "minimize_subproblem", recording)
    result = solve(problem, x0, cfg)
    assert not result.status.is_failure and len(result.trace) >= 4
    rho, tol = problem.rho, cfg.resolved_tol(problem.m)
    steps = []
    for row, (x, y), (x_next, _) in zip(result.trace, calls, calls[1:] + [(None, None)]):
        where = f"row {row.k}"
        d = y - x
        *_, phi_x, grad_phi_x = pieces(x)
        _, grad_f1, _, _, grad_f2, phi_y, grad_phi_y = pieces(y)
        assert abs(row.phi_x - phi_x) <= value_rounding(pieces, x), where
        assert abs(row.phi_y - phi_y) <= value_rounding(pieces, y), where
        assert row.norm_d == np.sqrt(d @ d), where

        # y_k: ||y - y*|| <= ||grad F(y)|| / modulus for each side's y, where
        # dcboost stops at 1e-8 max(1, ||grad F(x_k)||) (grad F(x_k) is grad
        # phi(x_k)) and the reference at REFERENCE_RTOL times the same, each
        # up to the rounding of its own grad F = grad g - b
        y_ref, b, tol_ref = subproblem(pieces, rho, x, REFERENCE_RTOL)
        tol_dc = cfg.inner_tol * max(1.0, np.linalg.norm(grad_phi_x))
        grad_g = grad_f1 + rho * y
        rounding = 2.0 * ROUNDING * (np.linalg.norm(grad_g) + np.linalg.norm(b))
        assert np.linalg.norm(y - y_ref) <= (tol_dc + tol_ref + rounding) / modulus(y, y_ref), where

        # the step: the reference's search on dcboost's own y_k and d_k
        grad_h = grad_f2 + rho * y
        slope_rounding = ROUNDING * (np.abs(grad_g) + np.abs(grad_h)) @ np.abs(d)
        assert abs(row.slope - grad_phi_y @ d) <= slope_rounding, where
        reference = boost(pieces, x, y, variant, cfg, tol)
        steps.append((row, y, d, reference))
        lam, halvings, taken, trials, fit = reference
        if halvings != row.backtracks:
            # only a trial at the Armijo boundary may read the other way:
            # the first trial on which the two searches differ
            value, threshold, point = trials[min(halvings, row.backtracks)]
            base = x if variant == "fm" else y
            bound = value_rounding(pieces, point) + value_rounding(pieces, base)
            assert abs(value - threshold) <= bound, where
            base, t = (x, row.lambda_k + 1.0) if variant == "fm" else (y, row.lambda_k)
            lam, taken = row.lambda_k, base + t * d
        elif variant == "bdca-qi" and fit is not None and lam != cfg.lambda_bar:
            # the fitted start -s lambda_bar^2 / (2 gap) moves by at most
            # |ds|/|s| + |d gap|/gap relatively, to first order, with
            # |ds| <= the slope's rounding and |d gap| <= the two values' plus
            # lambda_bar |ds|; twice that bounds it, and halving keeps it
            _, gap, fitted_slope = fit
            values = value_rounding(pieces, y) + value_rounding(pieces, y + cfg.lambda_bar * d)
            relative = (slope_rounding / abs(fitted_slope)
                        + (values + cfg.lambda_bar * slope_rounding) / gap)
            assert abs(row.lambda_k - lam) <= 2.0 * relative * lam, where
        else:
            assert row.lambda_k == lam, where
        # x_{k+1}, where the next subproblem starts, is the point the search
        # took, y + lambda d (fm's x + beta^l d), up to bdca-qi's lambda gap
        if x_next is not None:
            slack = abs(row.lambda_k - lam) * np.abs(d) + 2.0 * EPS * np.abs(taken)
            assert np.all(np.abs(x_next - taken) <= slack), where
    return cfg, steps


@pytest.mark.filterwarnings("ignore::dcboost.TheoryWarning")
@pytest.mark.parametrize("variant", [v.value for v in Variant])
@pytest.mark.parametrize("name", ["quartic", "expsys", "m4", "m8", "m20"])
def test_each_step_matches_the_reference(monkeypatch, name, variant):
    check_each_step(monkeypatch, name, variant)


def test_a_fitted_start_past_lambda_max_is_capped(monkeypatch):
    # from 1.5 with lambda_bar = 2, expsys's fitted starts reach 3.2-3.5, so
    # the cap at lambda_max = 3 binds; a solver without it starts further
    cfg, steps = check_each_step(monkeypatch, "expsys", "bdca-qi",
                                 lambda_bar=2.0, lambda_max=3.0)
    capped = [row.k for row, y, d, (_, _, _, trials, fit) in steps
              if fit is not None and fit[0] > cfg.lambda_max
              and (trials[0][2] == y + cfg.lambda_max * d).all()]
    assert capped


@pytest.mark.filterwarnings("ignore::dcboost.TheoryWarning")
def test_a_trial_between_half_alpha_and_alpha_is_refused(monkeypatch):
    # from 27/125 with lambda_bar = 5, some of the quartic's bdca-b trials
    # decrease phi by between alpha/2 and alpha times t ||d||^2, so a search
    # that tested alpha/2 would accept a trial the reference refuses;
    # alpha = 0.4 stays below sigma_h + rho = 1
    cfg, steps = check_each_step(monkeypatch, "quartic", "bdca-b",
                                 lambda_bar=5.0, lambda_max=20.0)
    ratios = [(row.phi_y - value) / (cfg.lambda_bar * cfg.beta ** i * (d @ d))
              for row, y, d, (_, _, _, trials, _) in steps
              for i, (value, _, _) in enumerate(trials)]
    assert any(cfg.alpha / 2.0 <= ratio < cfg.alpha for ratio in ratios)
