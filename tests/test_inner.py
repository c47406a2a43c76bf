"""Damped-Newton inner solver on quadratic and subproblem oracles."""

import signal

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

    return SubproblemSpec(eval_g=eval_g, linear_term=np.asarray(linear, dtype=float))


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
        # NaN floor makes every shift NaN; both must raise, not loop.  The
        # alarm turns a regression into a failure instead of a hang.
        def stuck(signum, frame):
            raise TimeoutError("spd_solve did not return within 5 s")

        previous = signal.signal(signal.SIGALRM, stuck)
        signal.setitimer(signal.ITIMER_REAL, 5.0)
        try:
            with pytest.raises(NumericalError, match="not finite"):
                spd_solve(np.array([[-1e308, 1e308], [1e308, -1e308]]), np.ones(2))
            with pytest.raises(NumericalError, match="not finite"):
                spd_solve(-np.eye(2), np.ones(2), damping_floor=np.nan)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

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
        spec = SubproblemSpec(eval_g=prob.eval_g, linear_term=np.array([27.0 / 125.0]))
        with pytest.raises(NumericalError, match="gradient tolerance"):
            minimize_subproblem(spec, np.array([5.0]), InnerConfig(max_iters=1))

    def test_proximal_term(self):
        prob = make_quartic_problem()
        center = np.array([0.216])
        spec = SubproblemSpec(
            eval_g=prob.eval_g,
            linear_term=prob.grad_h(center),
            proximal_center=center,
            proximal_c=1.0,
        )
        y, _ = minimize_subproblem(spec, center)
        # first-order condition: y^3 + (y - x)/c = x
        resid = y[0] ** 3 + (y[0] - 0.216) - 0.216
        assert abs(resid) <= 1e-7

    def test_proximal_value(self):
        spec = SubproblemSpec(
            eval_g=lambda x: (0.5 * float(x @ x), x.astype(float), np.eye(2)),
            linear_term=np.zeros(2),
            proximal_center=np.array([1.0, 1.0]),
            proximal_c=2.0,
        )
        x = np.array([2.0, 0.0])
        # 0.5*||x||^2 + (1/(2c))*||x - center||^2 = 2 + (1 + 1)/4
        assert spec.value(x) == pytest.approx(2.0 + 0.5, abs=1e-14)
        v, grad, hess = spec.objective(x)
        assert v == pytest.approx(2.5, abs=1e-14)
        np.testing.assert_allclose(grad, [2.0 + 0.5, 0.0 - 0.5], atol=1e-14)
        np.testing.assert_allclose(hess, np.eye(2) * 1.5, atol=1e-14)


class TestSpecValidation:
    def test_proximal_fields_paired(self):
        ev = lambda x: (0.0, np.zeros(1), np.eye(1))
        with pytest.raises(ValueError):
            SubproblemSpec(eval_g=ev, linear_term=np.zeros(1),
                           proximal_center=np.zeros(1))
        with pytest.raises(ValueError):
            SubproblemSpec(eval_g=ev, linear_term=np.zeros(1), proximal_c=-1.0,
                           proximal_center=np.zeros(1))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            InnerConfig(tol_grad=0.0)
        with pytest.raises(ValueError):
            InnerConfig(max_iters=0)
        with pytest.raises(ValueError):
            InnerConfig(damping_floor=0.0)
