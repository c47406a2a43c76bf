"""Damped-Newton inner solver on quadratic and subproblem oracles."""

import signal
from contextlib import contextmanager

import numpy as np
import pytest

from dcboost import (
    InnerConfig,
    NumericalError,
    SubproblemSpec,
    make_quartic_problem,
    minimize_subproblem,
    spd_solve,
)


def quadratic_spec(hess, linear):
    """F(x) = 0.5 x'Hx - <b, x>, minimized at H^{-1} b."""
    hess = np.asarray(hess, dtype=float)

    def eval_g(x):
        return 0.5 * float(x @ hess @ x), hess @ x, hess

    return SubproblemSpec(eval_g=eval_g, linear_term=np.asarray(linear, dtype=float),
                          value_g=lambda x: eval_g(x)[0])


def constant_spec(value, value_g):
    """F with value ``value``, gradient 1 and Hessian 1 everywhere, whose
    line-search trials read ``value_g``: the Newton direction is -1."""
    return SubproblemSpec(eval_g=lambda x: (value, np.ones(1), np.eye(1)),
                          linear_term=np.zeros(1), value_g=value_g)


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

    def test_damping_cap(self):
        # -I is cured by any mu just above 1, far below the cap of
        # 1e6 * max(||H||_inf, 1); a floor above the cap exceeds it at once
        _, mu = spd_solve(-np.eye(3), np.ones(3))
        assert 1.0 < mu < 4.0
        with pytest.raises(NumericalError, match=r"damping exceeded 1e\+06"):
            spd_solve(-np.eye(3), np.ones(3), damping_floor=2e6)

    def test_non_finite_cap_or_shift_raises(self):
        # ||H||_inf overflows to an infinite cap that no mu exceeds, and a
        # NaN floor makes every shift NaN; both must raise, not loop
        with within_5_s():
            with pytest.raises(NumericalError, match="not finite"):
                spd_solve(np.array([[-1e308, 1e308], [1e308, -1e308]]), np.ones(2))
            with pytest.raises(NumericalError, match="not finite"):
                spd_solve(-np.eye(2), np.ones(2), damping_floor=np.nan)

    @pytest.mark.parametrize("floor", [0.0, -1e-10])
    def test_nonpositive_floor_raises(self, floor):
        # a floor of zero or less never grows the damping: -I would retry
        # its failing factorization forever
        with within_5_s():
            with pytest.raises(ValueError, match="damping_floor must be positive"):
                spd_solve(-np.eye(2), np.ones(2), damping_floor=floor)

    def test_rejects_non_finite(self):
        with pytest.raises(NumericalError):
            spd_solve(np.array([[np.nan]]), np.array([1.0]))
        with pytest.raises(NumericalError):
            spd_solve(np.eye(1), np.array([np.inf]))


class TestMinimize:
    def test_quadratic_single_step(self):
        spec = quadratic_spec([[2.0, 0.3], [0.3, 1.5]], [1.0, -1.0])
        x, iters = minimize_subproblem(spec, np.zeros(2))
        expected = np.linalg.solve(spec.eval_g(np.zeros(2))[2], spec.linear_term)
        np.testing.assert_allclose(x, expected, atol=1e-10)
        assert iters == 1

    def test_warm_start_hit(self):
        spec = quadratic_spec(np.eye(2), [1.0, 2.0])
        x, iters = minimize_subproblem(spec, np.array([1.0, 2.0]))
        assert iters == 0
        np.testing.assert_allclose(x, [1.0, 2.0])

    def test_quartic_subproblem_cube_root(self):
        # minimizing y^4/4 - <x, y> solves y^3 = x; from x = 27/125 the
        # solution is exactly 3/5
        prob = make_quartic_problem()
        spec = SubproblemSpec(
            eval_g=prob.eval_g,
            linear_term=np.array([27.0 / 125.0]),
            value_g=prob.g_value,
        )
        y, iters = minimize_subproblem(spec, np.array([27.0 / 125.0]))
        assert abs(y[0] - 0.6) <= 1e-8
        assert iters >= 1

    def test_value_never_increases(self):
        spec = quadratic_spec([[4.0, 1.0], [1.0, 3.0]], [2.0, -5.0])
        start = np.array([10.0, -10.0])
        x, _ = minimize_subproblem(spec, start)
        assert spec.value(x) <= spec.value(start) + 1e-12

    def test_iteration_budget(self):
        prob = make_quartic_problem()
        spec = SubproblemSpec(eval_g=prob.eval_g, linear_term=np.array([27.0 / 125.0]),
                              value_g=prob.g_value)
        with pytest.raises(NumericalError, match="gradient tolerance"):
            minimize_subproblem(spec, np.array([5.0]), InnerConfig(max_iters=1))

    def test_stalled_at_value_floor(self):
        # a predicted decrease of 1 sits below the rounding floor of 1e20,
        # and the full step doubles the value
        spec = constant_spec(1e20, lambda x: 2e20)
        with pytest.raises(NumericalError, match="stalled at the value resolution floor"):
            minimize_subproblem(spec, np.zeros(1))

    def test_vanished_below_resolution(self):
        # x + d == x at x = 1e20, d = -1: under the value floor, and as an
        # Armijo step that a value path reading below F accepts
        x = np.array([1e20])
        with pytest.raises(NumericalError, match="vanished below machine resolution"):
            minimize_subproblem(constant_spec(1e20, lambda x: 1e20), x)
        with pytest.raises(NumericalError, match="vanished below machine resolution"):
            minimize_subproblem(constant_spec(1.0, lambda x: 0.0), x)

    def test_line_search_exhausted(self):
        # every trial value sits above F's own, so no halving is accepted
        spec = constant_spec(0.0, lambda x: 1.0)
        with pytest.raises(NumericalError, match="exhausted its halvings"):
            minimize_subproblem(spec, np.zeros(1))


class TestSpecValidation:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            InnerConfig(tol_grad=0.0)
        with pytest.raises(ValueError):
            InnerConfig(max_iters=0)
        with pytest.raises(ValueError):
            InnerConfig(damping_floor=0.0)
