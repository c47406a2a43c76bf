"""Problem container, builtins, and finite-difference hooks.

Frozen expected values for the quartic come from exact rational
arithmetic: phi(3/5) = (3/5)^4/4 - (3/5)^2/2 = -369/2500 and
phi'(3/5) = (3/5)^3 - 3/5 = -48/125.
"""

import numpy as np
import pytest

from dcboost import (
    BUILTIN_PROBLEMS,
    DcProblem,
    EvaluationOverflow,
    TheoryWarning,
    builtin_problem,
    derivative_report,
    finite_difference_gradient,
    finite_difference_jacobian,
    make_quartic_problem,
    make_system_problem,
)

QUARTIC_PHI_AT_35 = -369.0 / 2500.0   # = -0.1476
QUARTIC_GRAD_AT_35 = -48.0 / 125.0    # = -0.384


class TestQuartic:
    def setup_method(self):
        self.prob = make_quartic_problem()

    def test_minimizer_value(self):
        assert self.prob.phi(np.array([1.0])) == pytest.approx(-0.25, abs=1e-15)
        assert self.prob.phi(np.array([-1.0])) == pytest.approx(-0.25, abs=1e-15)

    def test_frozen_point_values(self):
        x = np.array([0.6])
        assert self.prob.phi(x) == pytest.approx(QUARTIC_PHI_AT_35, abs=1e-15)
        phi, grad = self.prob.phi_with_grad(x)
        assert phi == pytest.approx(QUARTIC_PHI_AT_35, abs=1e-15)
        assert grad[0] == pytest.approx(QUARTIC_GRAD_AT_35, abs=1e-12)
        assert self.prob.grad_phi(x)[0] == pytest.approx(QUARTIC_GRAD_AT_35, abs=1e-12)

    def test_dc_identity(self):
        rng = np.random.default_rng(0)
        for x in rng.uniform(-2, 2, size=(10, 1)):
            direct = self.prob.f1_value(x) - self.prob.eval_f2(x)[0]
            assert self.prob.phi(x) == pytest.approx(direct, abs=1e-12)

    def test_split_pieces(self):
        x = np.array([0.6])
        v1, g1, h1 = self.prob.eval_f1(x)
        v2, g2 = self.prob.eval_f2(x)
        assert v1 == pytest.approx(81.0 / 2500.0, abs=1e-15)
        assert v2 == pytest.approx(9.0 / 50.0, abs=1e-15)
        assert g1[0] == pytest.approx(27.0 / 125.0, abs=1e-15)
        assert g2[0] == pytest.approx(0.6, abs=1e-15)
        assert h1[0, 0] == pytest.approx(3.0 * 0.36, abs=1e-12)

    def test_regularized_split(self):
        prob = make_quartic_problem()
        prob.rho = 2.0
        x = np.array([0.5])
        v, g, h = prob.eval_g(x)
        assert v == pytest.approx(0.5 ** 4 / 4 + 0.25, abs=1e-15)
        assert g[0] == pytest.approx(0.125 + 1.0, abs=1e-15)
        assert h[0, 0] == pytest.approx(0.75 + 2.0, abs=1e-15)
        assert prob.grad_h(x)[0] == pytest.approx(0.5 + 1.0, abs=1e-15)
        assert prob.g_value(x) == pytest.approx(v, abs=1e-15)

    def test_modulus_warns_when_zero(self):
        with pytest.warns(TheoryWarning):
            assert self.prob.subproblem_modulus() == 0.0
        prob = make_quartic_problem()
        prob.rho = 1.0
        assert prob.subproblem_modulus() == 1.0

    def test_derivative_report(self):
        rng = np.random.default_rng(1)
        for x in rng.uniform(-2, 2, size=(5, 1)):
            rep = derivative_report(self.prob, x)
            assert set(rep) == {"grad_f1", "grad_f2", "hess_f1", "asym_f1"}
            assert rep["grad_f1"] < 1e-7
            assert rep["grad_f2"] < 1e-7
            assert rep["hess_f1"] < 1e-6
            assert rep["asym_f1"] == 0.0


class TestExpsys:
    def setup_method(self):
        self.prob = builtin_problem("expsys")

    def test_zero_at_origin(self):
        assert self.prob.phi(np.array([0.0])) == 0.0

    def test_value_formula(self):
        # phi(x) = (e^x - 1)^2, checked against a direct computation
        for t in (-1.5, -0.3, 0.4, 1.2):
            expected = (np.exp(t) - 1.0) ** 2
            assert self.prob.phi(np.array([t])) == pytest.approx(expected, rel=1e-12)

    def test_split_identity(self):
        rng = np.random.default_rng(2)
        for x in rng.uniform(-2, 2, size=(10, 1)):
            f1 = self.prob.f1_value(x)
            f2 = self.prob.eval_f2(x)[0]
            phi = self.prob.phi(x)
            assert f1 - f2 == pytest.approx(phi, rel=1e-10, abs=1e-12)
            t = float(x[0])
            assert f1 == pytest.approx(2.0 * (np.exp(2 * t) + 1.0), rel=1e-12)
            assert f2 == pytest.approx((np.exp(t) + 1.0) ** 2, rel=1e-12)

    def test_gradient_against_fd(self):
        x = np.array([0.7])
        fd = finite_difference_gradient(self.prob.phi, x)
        assert self.prob.grad_phi(x)[0] == pytest.approx(fd[0], rel=1e-6)

    def test_default_rho(self):
        assert self.prob.rho == 1.0
        assert builtin_problem("expsys", rho=3.5).rho == 3.5

    def test_overflow_guard(self):
        with pytest.raises(EvaluationOverflow):
            self.prob.phi(np.array([800.0]))

    def test_derivative_report(self):
        rng = np.random.default_rng(3)
        for x in rng.uniform(-2, 2, size=(5, 1)):
            rep = derivative_report(self.prob, x)
            assert rep["grad_f1"] < 1e-6
            assert rep["grad_f2"] < 1e-6
            assert rep["hess_f1"] < 1e-5
            assert rep["asym_f1"] < 1e-12


class TestSystemProblem:
    def test_two_dimensional_instance(self):
        # p(x) = (e^{x1}, e^{x2}), c(x) = (e^{x2}, 1): phi has a zero at x1 = x2 = 0
        def p_eval(x):
            e = np.exp(x)
            jac = np.diag(e)
            hess = np.zeros((2, 2, 2))
            hess[0, 0, 0] = e[0]
            hess[1, 1, 1] = e[1]
            return e, jac, hess

        def c_eval(x):
            e2 = np.exp(x[1])
            val = np.array([e2, 1.0])
            jac = np.zeros((2, 2))
            jac[0, 1] = e2
            hess = np.zeros((2, 2, 2))
            hess[0, 1, 1] = e2
            return val, jac, hess

        prob = make_system_problem(p_eval, c_eval, m=2, rho=1.0, name="toy")
        x = np.array([0.3, -0.2])
        p = np.exp(x)
        c = np.array([np.exp(x[1]), 1.0])
        expected = float((p - c) @ (p - c))
        assert prob.phi(x) == pytest.approx(expected, rel=1e-12)
        assert prob.f1_value(x) - prob.eval_f2(x)[0] == pytest.approx(expected, rel=1e-9)

        rep = derivative_report(prob, x)
        assert rep["grad_f1"] < 1e-7
        assert rep["grad_f2"] < 1e-7
        assert rep["hess_f1"] < 1e-6
        assert rep["asym_f1"] < 1e-12

        phi, grad = prob.phi_with_grad(x)
        fd = finite_difference_gradient(prob.phi, x)
        assert phi == pytest.approx(expected, rel=1e-12)
        np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-9)


class TestF2Contract:
    """f2 is only linearized: eval_f2 returns its value and gradient."""

    @pytest.mark.parametrize("name", sorted(BUILTIN_PROBLEMS))
    def test_eval_f2_returns_value_and_gradient(self, name):
        prob = builtin_problem(name)
        result = prob.eval_f2(np.array([0.4]))
        assert len(result) == 2
        value, grad = result
        assert np.ndim(value) == 0
        assert np.shape(grad) == (1,)

    def test_no_f2_value_path(self):
        ev = lambda x: (0.0, np.zeros(1), np.zeros((1, 1)))
        with pytest.raises(TypeError):
            DcProblem(m=1, eval_f1=ev, eval_f2=ev, f2_value=lambda x: 0.0)


def bits(parts):
    return tuple(np.asarray(part, dtype=float).tobytes() for part in parts)


class TestValueGradPaths:
    """The Hessian-free paths of f1 and g."""

    @pytest.mark.parametrize("name", sorted(BUILTIN_PROBLEMS))
    def test_match_full_evaluations(self, name):
        prob = builtin_problem(name)
        for t in (-1.3, -0.0, 0.4, 2.0):
            x = np.array([t])
            assert bits(prob.f1_value_grad(x)) == bits(prob.eval_f1(x)[:2])
            assert bits(prob.g_value_grad(x)) == bits(prob.eval_g(x)[:2])

    def test_phi_with_grad_builds_no_hessian(self):
        def no_hessian(x):
            raise AssertionError("eval_f1 was called")

        prob = DcProblem(m=1, eval_f1=no_hessian, eval_f2=lambda x: (0.0, np.zeros(1)),
                         f1_value_grad=lambda x: (float(x @ x), 2.0 * x))
        value, grad = prob.phi_with_grad(np.array([3.0]))
        assert value == 9.0
        assert np.array_equal(grad, [6.0])
        assert prob.g_value_grad(np.array([3.0]))[0] == 9.0


class TestValidation:
    def test_registry(self):
        assert set(BUILTIN_PROBLEMS) == {"quartic", "expsys"}
        with pytest.raises(KeyError, match="unknown builtin"):
            builtin_problem("nope")

    def test_builtin_rho_validated(self):
        # the override goes through the same check as a constructed problem
        with pytest.raises(ValueError, match="rho must be nonnegative"):
            builtin_problem("quartic", rho=-1)
        prob = builtin_problem("quartic", rho=2.0)
        assert prob.rho == 2.0
        assert prob.g_value(np.array([1.0])) == 0.25 + 1.0

    def test_bad_parameters(self):
        ev = lambda x: (0.0, np.zeros(1), np.zeros((1, 1)))
        with pytest.raises(ValueError):
            DcProblem(m=0, eval_f1=ev, eval_f2=ev)
        with pytest.raises(ValueError):
            DcProblem(m=1, eval_f1=ev, eval_f2=ev, rho=-1.0)
        with pytest.raises(ValueError):
            DcProblem(m=1, eval_f1=ev, eval_f2=ev, sigma_h=-0.5)

    def test_fd_jacobian(self):
        fun = lambda x: np.array([x[0] ** 2, x[0] * x[1], np.sin(x[1])])
        x = np.array([0.4, 1.1])
        jac = finite_difference_jacobian(fun, x, step=1e-6)
        expected = np.array([
            [2 * 0.4, 0.0],
            [1.1, 0.4],
            [0.0, np.cos(1.1)],
        ])
        np.testing.assert_allclose(jac, expected, atol=1e-7)
