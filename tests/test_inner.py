"""Damped-Newton inner solver on quadratic and subproblem oracles."""

import signal
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg.blas import ddot

import dcboost.inner
from dcboost import (
    DcProblem,
    EvaluationOverflow,
    EXP_GUARD,
    NetworkObjective,
    NumericalError,
    SolverConfig,
    Variant,
    generate_network,
    builtin_problem,
    make_quartic_problem,
    minimize_subproblem,
    solve,
    spd_solve,
)
from dcboost.biochem import _HessianOperator
from dcboost.inner import _POTRF, SubproblemState, _all_finite, _norm


def zero_f2(x):
    return 0.0, np.zeros(x.size)


def quadratic_problem(hess):
    """g(x) = 0.5 x'Hx (f1 = g, f2 = 0), so F = g - <b, x> is minimized
    at H^{-1} b."""
    hess = np.asarray(hess, dtype=float)
    return DcProblem(m=hess.shape[0], eval_f2=zero_f2,
                     eval_f1=lambda x: (0.5 * float(x @ hess @ x), hess @ x, hess))


def f_value(problem, linear, x):
    return problem.g_value(x) - float(np.dot(linear, x))


def constant_problem(value, f1_value):
    """g with value ``value``, gradient 1 and Hessian 1 everywhere, whose
    line-search trials read ``f1_value``: the Newton direction is -1."""
    return DcProblem(m=1, eval_f2=zero_f2, f1_value=f1_value,
                     eval_f1=lambda x: (value, np.ones(1), np.eye(1)),
                     f1_value_grad=lambda x: (value, np.ones(1)))


@contextmanager
def within_5_s():
    """Turn a call that never returns into a failure instead of a hang."""
    def stuck(signum, frame):
        raise TimeoutError("spd_solve did not return within 5 s")

    previous = signal.signal(signal.SIGALRM, stuck)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def test_ddot_has_the_bits_of_numpy_matmul():
    # every vector dot product on the solver's path calls BLAS's ddot
    # directly, which costs a fifth of numpy's @ on these sizes; the
    # iterates keep their bits only while both sum in the same order
    rng = np.random.default_rng(26)
    for size in (1, 2, 5, 6, 20, 30, 40, 60, 80, 120, 240):
        for _ in range(200):
            x, y = rng.standard_normal((2, size)) * 10.0 ** rng.uniform(-150, 150, (2, 1))
            assert ddot(x, y) == float(x @ y)
            assert ddot(x, x) == float(x @ x)
    # an overflowing sum saturates to inf without a NumPy warning
    assert ddot(np.array([1e200, 1.0]), np.array([1e200, 1.0])) == np.inf


class TestSpdSolve:
    def test_identity(self):
        b = np.array([1.0, -2.0, 0.5])
        d, mu = spd_solve(np.eye(3), b)
        np.testing.assert_allclose(d, b, atol=1e-14)
        assert mu == 0.0

    def test_diagonal(self):
        d, mu = spd_solve(np.diag([2.0, 3.0]), np.array([4.0, 9.0]))
        np.testing.assert_allclose(d, [2.0, 3.0], atol=1e-14)
        assert mu == 0.0

    def test_zero_rhs(self):
        d, mu = spd_solve(np.diag([2.0, 3.0]), np.zeros(2))
        assert np.all(d == 0.0)
        assert mu == 0.0

    def test_rhs_whose_square_underflows_is_solved(self):
        # ||rhs||^2 = 2e-340 underflows to 0, which read as a zero rhs
        d, mu = spd_solve(np.eye(2), np.full(2, 1e-170))
        assert d.tolist() == [1e-170, 1e-170] and mu == 0.0

    def test_near_singular_gets_damped(self):
        # symmetric matrix with a slightly negative eigenvalue
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        hess = q @ np.diag([2.0, 1.0, 0.5, -1e-12]) @ q.T
        hess = 0.5 * (hess + hess.T)
        rhs = rng.standard_normal(4)
        d, mu = spd_solve(hess, rhs)
        assert mu > 0.0
        shifted = hess + mu * np.eye(4)
        resid = np.linalg.norm(rhs - shifted @ d)
        assert resid <= 1e-10 * np.linalg.norm(rhs)

    def test_residual_contract(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((6, 6))
        hess = a @ a.T + 0.1 * np.eye(6)
        rhs = rng.standard_normal(6)
        d, _ = spd_solve(hess, rhs)
        assert np.linalg.norm(rhs - hess @ d) <= 1e-10 * np.linalg.norm(rhs)

    @pytest.mark.parametrize("damped", [False, True])
    def test_inputs_untouched(self, damped):
        # the LAPACK calls must copy: a Hessian handed in may be shared
        rng = np.random.default_rng(7)
        a = rng.standard_normal((5, 5))
        hess = a @ a.T - (2.0 * np.linalg.eigvalsh(a @ a.T)[-1] if damped else 0.0) * np.eye(5)
        hess = np.asfortranarray(hess)  # the layout LAPACK could overwrite in place
        rhs = rng.standard_normal(5)
        hess_before, rhs_before = hess.copy(), rhs.copy()
        _, mu = spd_solve(hess, rhs)
        assert (mu > 0.0) == damped
        assert np.array_equal(hess, hess_before)
        assert np.array_equal(rhs, rhs_before)

    def test_damping_cap(self, monkeypatch):
        # -I is cured by any mu just above 1, far below the cap of
        # 1e6 * max(||H||_inf, 1); a floor above the cap exceeds it at once
        _, mu = spd_solve(-np.eye(3), np.ones(3))
        assert 1.0 < mu < 4.0
        monkeypatch.setattr(dcboost.inner, "_DAMPING_FLOOR", 2e6)
        with pytest.raises(NumericalError, match=r"damping exceeded 1e\+06"):
            spd_solve(-np.eye(3), np.ones(3))

    def test_non_finite_cap_or_shift_raises(self):
        # ||H||_inf overflows, and the system scaled by 1e308 needs a mu
        # above 2, so above 2e308 in the original scale: it must raise,
        # not loop
        with within_5_s():
            with pytest.raises(NumericalError, match="not finite"):
                spd_solve(np.array([[-1e308, 1e308], [1e308, -1e308]]), np.ones(2))

    def test_finite_hessian_whose_norm_overflows_is_solved_scaled(self):
        # just inside safe_exponent() g's Hessian has finite entries up to
        # 7.6e306, but ||H||_inf = 1.5e307 makes the cap 1e6 ||H||_inf inf;
        # divided by its largest entry, the system solves at mu = 1e-10
        obj = NetworkObjective(generate_network(8, 15, 819745))
        problem = obj.as_dc_problem(rho=100.0)
        d = np.array([453, 887, 763, 23, 881, 953, 941, -839]) / 1000.0
        slopes = obj.B @ d
        rising = slopes > 0.0
        top = obj.safe_exponent() - 0.01
        x0 = float(np.min((top - obj.network.w[rising]) / slopes[rising])) * d
        hess = problem.g_hessian(x0)
        rhs = problem.grad_h(x0) - problem.g_value_grad(x0)[1]
        scale = float(np.abs(hess).max())
        assert np.isfinite(hess).all() and 7e306 < scale < 8e306
        norm = float(np.abs(hess).sum(axis=1).max())
        assert 1.5e307 < norm < 1.6e307 and 1e6 * norm == np.inf
        step, mu = spd_solve(hess, rhs)
        assert mu == 1e-10 * scale
        shifted = hess / scale + (mu / scale) * np.eye(obj.m)
        resid = np.linalg.norm(shifted @ step - rhs / scale)
        assert resid <= 1e-9 * np.linalg.norm(rhs / scale)

    def test_rejects_non_finite(self):
        with pytest.raises(NumericalError):
            spd_solve(np.array([[np.nan]]), np.array([1.0]))
        with pytest.raises(NumericalError):
            spd_solve(np.eye(1), np.array([np.inf]))


class TestMinimize:
    def test_quadratic_single_step(self):
        hess, linear = np.array([[2.0, 0.3], [0.3, 1.5]]), np.array([1.0, -1.0])
        x, iters = minimize_subproblem(quadratic_problem(hess), linear, np.zeros(2))
        np.testing.assert_allclose(x, np.linalg.solve(hess, linear), atol=1e-10)
        assert iters == 1

    def test_warm_start_hit(self):
        x, iters = minimize_subproblem(quadratic_problem(np.eye(2)), np.array([1.0, 2.0]),
                                       np.array([1.0, 2.0]))
        assert iters == 0
        np.testing.assert_allclose(x, [1.0, 2.0])

    def test_quartic_subproblem_cube_root(self):
        # minimizing y^4/4 - <x, y> solves y^3 = x; from x = 27/125 the
        # solution is exactly 3/5
        prob = make_quartic_problem()
        y, iters = minimize_subproblem(prob, np.array([27.0 / 125.0]),
                                       np.array([27.0 / 125.0]))
        assert abs(y[0] - 0.6) <= 1e-8
        assert iters >= 1

    def test_value_never_increases(self):
        prob, linear = quadratic_problem([[4.0, 1.0], [1.0, 3.0]]), np.array([2.0, -5.0])
        start = np.array([10.0, -10.0])
        x, _ = minimize_subproblem(prob, linear, start)
        assert f_value(prob, linear, x) <= f_value(prob, linear, start) + 1e-12

    def test_iteration_budget(self, monkeypatch):
        prob = make_quartic_problem()
        monkeypatch.setattr(dcboost.inner, "_MAX_NEWTON_STEPS", 1)
        with pytest.raises(NumericalError, match="gradient tolerance .* in 1 iterations"):
            minimize_subproblem(prob, np.array([27.0 / 125.0]), np.array([5.0]))

    def test_stalled_at_value_floor(self):
        # a predicted decrease of 1 sits below the rounding floor of 1e20,
        # and the full step doubles the value
        prob = constant_problem(1e20, lambda x: 2e20)
        with pytest.raises(NumericalError, match="stalled at the value resolution floor"):
            minimize_subproblem(prob, np.zeros(1), np.zeros(1))

    def test_vanished_below_resolution(self):
        # x + d == x at x = 1e20, d = -1: under the value floor, and as an
        # Armijo step that a value path reading below F accepts
        x = np.array([1e20])
        with pytest.raises(NumericalError, match="vanished below machine resolution"):
            minimize_subproblem(constant_problem(1e20, lambda x: 1e20), np.zeros(1), x)
        with pytest.raises(NumericalError, match="vanished below machine resolution"):
            minimize_subproblem(constant_problem(1.0, lambda x: 0.0), np.zeros(1), x)

    def test_line_search_exhausted(self):
        # every trial value sits above F's own, so no halving is accepted
        prob = constant_problem(0.0, lambda x: 1.0)
        with pytest.raises(NumericalError, match="exhausted its halvings"):
            minimize_subproblem(prob, np.zeros(1), np.zeros(1))

    def test_overflowing_gradient_norm_is_not_converged(self):
        # F = 5e9 ||x||^2 at x = (1e145, 1e145) is 1e300, but its gradient's
        # squared norm 2e310 overflows: read as inf, the norm would make the
        # tolerance inf and the start count as converged; one Newton step
        # lands next to the minimizer 0
        prob = quadratic_problem(1e10 * np.eye(2))
        x, iters = minimize_subproblem(prob, np.zeros(2), np.full(2, 1e145))
        assert iters == 1
        assert np.abs(x).max() <= 1e-10 * 1e145


class TestChord:
    """Steps that reuse a cached Cholesky factor instead of a new Hessian."""

    HESS, LINEAR = np.array([[2.0, 0.3], [0.3, 1.5]]), np.array([1.0, -1.0])

    @staticmethod
    def cached(matrix, predicts=False):
        state = SubproblemState(predicts)
        state.factor = _POTRF(np.asarray(matrix, dtype=float), lower=False)[0]
        return state

    def test_spd_solve_keeps_only_an_undamped_factor(self):
        state = SubproblemState()
        spd_solve(4.0 * np.eye(2), np.ones(2), state)
        assert np.array_equal(np.triu(state.factor), 2.0 * np.eye(2))
        state = SubproblemState()
        _, mu = spd_solve(np.diag([1.0, -1e-3]), np.ones(2), state)
        assert mu > 0.0 and state.factor is None

    def test_newton_step_cutting_the_gradient_less_than_tenfold_keeps_no_factor(self):
        # F = x^4 / 4: each Newton step takes x to 2x/3 and so cuts F' = x^3
        # by 8/27 only, so no step keeps the factor spd_solve stored: every
        # step asks for a Hessian, no chord step is taken, and the run is
        # the run without a state, bit for bit
        hessians = []

        def eval_f1(x):
            hessians.append(None)
            return x[0] ** 4 / 4.0, x ** 3, np.array([[3.0 * x[0] ** 2]])

        problem = DcProblem(m=1, eval_f1=eval_f1, eval_f2=zero_f2,
                            f1_value=lambda x: x[0] ** 4 / 4.0,
                            f1_value_grad=lambda x: (x[0] ** 4 / 4.0, x ** 3))
        plain = minimize_subproblem(problem, np.zeros(1), np.ones(1))
        del hessians[:]
        state = SubproblemState()
        x, steps = minimize_subproblem(problem, np.zeros(1), np.ones(1), state=state)
        assert (x.tobytes(), steps) == (plain[0].tobytes(), plain[1])
        assert len(hessians) == steps > 1 and state.factor is None

    def test_wrong_factor_gives_way_to_a_newton_step(self):
        # the factor of 1e6 I gives a descent direction a millionth of the
        # Newton step's; the gradient falls far less than tenfold, so the
        # factor is dropped, one Newton step solves the quadratic, and its
        # undamped factor is kept
        problem = quadratic_problem(self.HESS)
        state = self.cached(1e6 * np.eye(2))
        x, steps = minimize_subproblem(problem, self.LINEAR, np.zeros(2), state=state)
        np.testing.assert_allclose(x, np.linalg.solve(self.HESS, self.LINEAR), atol=1e-10)
        assert steps == 2
        assert np.allclose(np.triu(state.factor), np.linalg.cholesky(self.HESS).T)

    def test_failing_chord_direction_is_replaced_from_the_same_point(self):
        # from (1, 1) the factor of 1e200 I gives a step of about 1e-200,
        # which vanishes below the resolution of x; the Newton step that
        # replaces it starts from the same point, so the run is the run
        # without a factor, one step long
        problem = quadratic_problem(self.HESS)
        plain = minimize_subproblem(problem, self.LINEAR, np.ones(2))
        state = self.cached(1e200 * np.eye(2))
        x, steps = minimize_subproblem(problem, self.LINEAR, np.ones(2), state=state)
        assert (x.tolist(), steps) == (plain[0].tolist(), plain[1]) == (plain[0].tolist(), 1)
        assert np.allclose(np.triu(state.factor), np.linalg.cholesky(self.HESS).T)

    @staticmethod
    def nan_past_the_chord_step():
        """F = x^2 - 2x, whose Newton step from any x lands on 1, while a
        chord step with the factor of 1.5 lands in (1.3, 1.4) from x_init
        0 and from 0.05, where the gradient is not finite."""
        def f1_value_grad(x):
            grad = np.full(1, np.nan) if 1.3 < x[0] < 1.4 else 2.0 * x
            return float(x @ x), grad

        return DcProblem(m=1, eval_f2=zero_f2, f1_value_grad=f1_value_grad,
                         eval_f1=lambda x: (float(x @ x), 2.0 * x, 2.0 * np.eye(1)))

    def test_a_run_failing_after_a_chord_step_is_repeated_without_it(self):
        # from 0 the chord step is accepted at 4/3; the run is repeated
        # without the factor and solves
        problem, linear = self.nan_past_the_chord_step(), np.array([2.0])
        plain = minimize_subproblem(problem, linear, np.zeros(1))
        state = self.cached([[1.5]])
        x, _ = minimize_subproblem(problem, linear, np.zeros(1), state=state)
        assert x.tolist() == plain[0].tolist() and x[0] == pytest.approx(1.0, abs=1e-15)
        assert state.factor is None

    def test_a_failed_run_is_followed_by_one_run_without_the_state(self, monkeypatch):
        # the run from the guess 0.05 with the factor fails at 1.3167; so
        # would one from x_init with it, but the one more run made is from
        # x_init without the factor: the run without a state, bit for bit
        problem, linear, start = self.nan_past_the_chord_step(), np.array([2.0]), np.zeros(1)
        plain = minimize_subproblem(problem, linear, start)
        runs, newton = [], dcboost.inner._newton

        def counted(problem, b, run_start, tol, state=None):
            runs.append((run_start[0].copy(), state, newton(problem, b, run_start, tol, state)))
            return runs[-1][2]

        monkeypatch.setattr(dcboost.inner, "_newton", counted)
        state = self.cached([[1.5]], predicts=True)
        state.steps = (np.array([0.05]),)
        x, steps = minimize_subproblem(problem, linear, start, state=state)
        assert len(runs) == 2
        (guess, first_state, first), (again, second_state, second) = runs
        assert guess.tolist() == [0.05] and first_state is state
        assert isinstance(first[2], NumericalError) and first[1] == 0
        assert again.tolist() == start.tolist() and second_state is None
        assert second[2] is None and second[0].tobytes() == plain[0].tobytes()
        assert (x.tobytes(), steps) == (plain[0].tobytes(), first[1] + plain[1])
        assert state.factor is None and state.steps[0].tobytes() == plain[0].tobytes()

    def test_a_factor_never_outlives_its_solve(self):
        # each plain dca solve starts without a factor, so a solve gives the
        # bits it gives alone whichever solve ran before it
        problems = [NetworkObjective(generate_network(20, 30, seed)).as_dc_problem(rho=100.0)
                    for seed in (101, 102)]
        x0 = np.random.default_rng(25).uniform(-2.0, 2.0, size=20)
        cfg = SolverConfig(variant="dca", max_outer_iters=60)

        def outcome(problem):
            result = solve(problem, x0, cfg)
            return (result.iterations, result.phi_final.hex(), result.x_final.tolist(),
                    [rec.inner_iters for rec in result.trace])

        first, second = outcome(problems[1]), outcome(problems[0])
        assert [outcome(problems[0]), outcome(problems[1])] == [second, first]
        assert outcome(problems[1]) == first


def guessing(guess, start):
    """A state whose guess at ``start`` is ``guess``, up to rounding."""
    state = SubproblemState(predicts=True)
    state.steps = (np.asarray(guess, dtype=float) - start,)
    return state


class TestGuess:
    """A predicted solution starts the Newton loop only where F is no higher."""

    def test_higher_guess_changes_no_bit(self):
        prob, linear, start = make_quartic_problem(), np.array([0.3]), np.array([0.2])
        assert f_value(prob, linear, np.array([5.0])) > f_value(prob, linear, start)
        x, iters = minimize_subproblem(prob, linear, start, state=SubproblemState(predicts=True))
        x_guessed, iters_guessed = minimize_subproblem(prob, linear, start,
                                                       state=guessing([5.0], start))
        assert x_guessed.tobytes() == x.tobytes() and iters_guessed == iters > 0

    def test_guess_past_the_guard_is_ignored(self):
        prob, start = builtin_problem("expsys"), np.array([1.5])
        linear = prob.grad_h(start)
        x, iters = minimize_subproblem(prob, linear, start, state=SubproblemState(predicts=True))
        x_guessed, iters_guessed = minimize_subproblem(
            prob, linear, start, state=guessing([EXP_GUARD + 1.0], start))
        assert x_guessed.tobytes() == x.tobytes() and iters_guessed == iters > 0

    def test_tolerance_is_taken_at_x_init(self):
        # F = (x1^4 + 1e8 x2^4) / 4: the guess has the lower F but a 97
        # times larger gradient, and each Newton step shrinks the gradient
        # only by 8/27, so a tolerance taken at the guess stops earlier
        c = np.array([1.0, 1e8])
        prob = DcProblem(m=2, eval_f2=zero_f2,
                         eval_f1=lambda x: (float(c @ x ** 4) / 4.0, c * x ** 3,
                                            np.diag(3.0 * c * x ** 2)))
        start, linear = np.array([1.0, 1e-3]), np.zeros(2)
        state = guessing([1e-2, 9.9e-3], start)
        guess = state.guess(start)
        assert f_value(prob, linear, guess) < f_value(prob, linear, start)
        tol = 1e-8 * np.linalg.norm(prob.g_value_grad(start)[1])
        x, iters = minimize_subproblem(prob, linear, start, state=state)
        assert np.linalg.norm(prob.g_value_grad(x)[1]) <= tol and iters > 0
        x_at_guess, _ = minimize_subproblem(prob, linear, guess)
        assert np.linalg.norm(prob.g_value_grad(x_at_guess)[1]) > tol

    def test_failed_run_from_the_guess_falls_back_to_x_init(self):
        # F = x^4/4 - x; the second Hessian asked for is NaN.  The run from
        # the guess 1.5 takes one Newton step, which cuts F' from 2.375 to
        # 0.51, less than tenfold, so it keeps no factor; its second step is
        # a Newton step too, which fails, and the run from x_init that
        # follows is the solve without a state, plus that one step
        def quartic(nan_call):
            calls = []

            def eval_f1(x):
                calls.append(None)
                curvature = np.nan if len(calls) == nan_call else 3.0 * x[0] ** 2
                return x[0] ** 4 / 4.0, x ** 3, np.array([[curvature]])

            return DcProblem(m=1, eval_f1=eval_f1, eval_f2=zero_f2,
                             f1_value=lambda x: x[0] ** 4 / 4.0,
                             f1_value_grad=lambda x: (x[0] ** 4 / 4.0, x ** 3))

        linear, start = np.ones(1), np.array([3.0])
        x, iters = minimize_subproblem(quartic(None), linear, start)
        x_guessed, iters_guessed = minimize_subproblem(quartic(2), linear, start,
                                                       state=guessing([1.5], start))
        assert x_guessed.tobytes() == x.tobytes() and iters_guessed == iters + 1
        with pytest.raises(NumericalError, match="non-finite Hessian"):
            minimize_subproblem(quartic(2), linear, start)

    def test_guess_at_the_minimizer_takes_no_newton_step(self):
        prob = quadratic_problem(2.0 * np.eye(2))
        x, iters = minimize_subproblem(prob, np.array([2.0, 4.0]), np.zeros(2),
                                       state=guessing([1.0, 2.0], np.zeros(2)))
        assert iters == 0
        assert np.array_equal(x, [1.0, 2.0])


_ENTRIES = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                     st.sampled_from([1e200, -1e200, 1e155, np.inf, -np.inf, np.nan]))


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.integers(1, 40), elements=_ENTRIES),
       arrays(np.float64, st.tuples(*[st.shared(st.integers(1, 12))] * 2), elements=_ENTRIES))
def test_all_finite_is_numpys_test(vector, hessian):
    assert _all_finite(vector) == np.isfinite(vector).all()
    for layout in (hessian, np.asfortranarray(hessian)):
        assert _all_finite(layout.ravel("K")) == np.isfinite(hessian).all()


@pytest.mark.parametrize("vector, finite", [
    ([1e200, 1e200], True), ([1e200, -1e200, 1.0], True), ([np.inf], False),
    ([-np.inf, 1.0], False), ([np.nan], False), ([1e200, np.nan], False),
    ([1e200, np.inf], False)])
def test_all_finite_where_the_dot_overflows(vector, finite):
    assert _all_finite(np.array(vector)) == finite


@pytest.mark.parametrize("vector, norm", [
    (np.full(3, 1e-160), np.sqrt(3.0) * 1e-160), (np.array([3e-170, -4e-170]), 5e-170),
    (np.array([0.0, 5e-324]), 5e-324), (np.full(2, 1e200), np.sqrt(2.0) * 1e200)])
def test_norm_outside_the_normal_range_of_its_square(vector, norm):
    # v . v is subnormal, 0 or inf here, and sqrt(v . v) would lose digits
    # or read 0 or inf; the norm scaled by the largest entry keeps them
    assert _norm(vector) == pytest.approx(norm, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("vector", [np.zeros(3), np.array([1e-154, 2.0]),
                                    np.array([1.5e-154, 0.0]), np.full(3, 1e150)])
def test_norm_is_the_square_root_of_the_dot_elsewhere(vector):
    assert _norm(vector) == np.sqrt(ddot(vector, vector))


class TestLazyHessian:
    """The Newton loop asks for a Hessian only where a direction follows."""

    @pytest.mark.parametrize("variant", [v.value for v in Variant])
    def test_one_hessian_per_newton_step(self, monkeypatch, variant):
        # no Hessian at a subproblem's final point: each one assembled
        # serves one spd_solve, and every variant's chord steps reuse an
        # earlier Hessian's factor, so each assembles fewer than it steps
        assembled, solved = [], []
        assemble, spd_solve = _HessianOperator.assemble, dcboost.inner.spd_solve

        def counted(self, e, et):
            assembled.append(None)
            return assemble(self, e, et)

        def counted_solve(*args):
            solved.append(None)
            return spd_solve(*args)

        monkeypatch.setattr(_HessianOperator, "assemble", counted)
        monkeypatch.setattr(dcboost.inner, "spd_solve", counted_solve)
        problem = NetworkObjective(generate_network(20, 30, 101)).as_dc_problem(rho=100.0)
        x0 = np.random.default_rng(24).uniform(-2.0, 2.0, size=problem.m)
        result = solve(problem, x0, SolverConfig(variant=variant, max_outer_iters=40))
        steps = sum(rec.inner_iters for rec in result.trace)
        assert not result.status.is_failure
        assert len(assembled) == len(solved) > 0
        assert len(assembled) < steps

    def test_converged_start_asks_for_no_hessian(self):
        def no_hessian(x):
            raise AssertionError("eval_f1 was called")

        prob = DcProblem(m=2, eval_f1=no_hessian, eval_f2=zero_f2,
                         f1_value=lambda x: 0.5 * float(x @ x),
                         f1_value_grad=lambda x: (0.5 * float(x @ x), x.copy()))
        x, iters = minimize_subproblem(prob, np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        assert iters == 0
        assert np.array_equal(x, [1.0, 2.0])

    def test_bad_hessian_where_a_step_is_needed(self):
        # a NaN Hessian fails in spd_solve; an overflowing Hessian request
        # fails as an overflowing value or gradient does, with its own
        # EvaluationOverflow, which is a NumericalError
        def overflowing(x):
            raise EvaluationOverflow(400.0, 354.9)

        assert issubclass(EvaluationOverflow, NumericalError)
        for eval_f1, message in ((lambda x: (0.0, np.ones(1), np.full((1, 1), np.nan)),
                                  "non-finite Hessian"),
                                 (overflowing, "exponent 400 exceeds overflow guard 355")):
            prob = DcProblem(m=1, eval_f1=eval_f1, eval_f2=zero_f2, f1_value=lambda x: 0.0,
                             f1_value_grad=lambda x: (0.0, np.ones(1)))
            with pytest.raises(NumericalError, match=message):
                minimize_subproblem(prob, np.zeros(1), np.zeros(1))


class TestSpecValidation:
    def test_config_validation(self):
        # the subproblem's gradient tolerance is still a setting; its Newton
        # budget and damping floor are fixed, and a spec file asking for
        # another value of either is refused
        for tol in (0.0, -1e-8, float("nan")):
            with pytest.raises(ValueError, match="inner_tol"):
                SolverConfig(inner_tol=tol)
        for field, value in (("max_iters", 0), ("damping_floor", 0.0)):
            with pytest.raises(ValueError, match=f"solver field inner.{field} was removed"):
                SolverConfig.from_json({"inner": {field: value}})
