"""Problem container, builtins, and finite-difference hooks.

Frozen expected values for the quartic come from exact rational
arithmetic: phi(3/5) = (3/5)^4/4 - (3/5)^2/2 = -369/2500 and
phi'(3/5) = (3/5)^3 - 3/5 = -48/125.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from dcboost import (
    BUILTIN_PROBLEMS,
    EXP_GUARD,
    DcProblem,
    EvaluationOverflow,
    builtin_problem,
    make_expsys_problem,
    make_quartic_problem,
)
from derivatives import derivative_report, finite_difference_jacobian

QUARTIC_PHI_AT_35 = -369.0 / 2500.0   # = -0.1476
QUARTIC_GRAD_AT_35 = -48.0 / 125.0    # = -0.384


class TestQuartic:
    def setup_method(self):
        self.prob = make_quartic_problem()

    def test_minimizer_value(self):
        assert self.prob.phi_value(np.array([1.0])) == pytest.approx(-0.25, abs=1e-15)
        assert self.prob.phi_value(np.array([-1.0])) == pytest.approx(-0.25, abs=1e-15)

    def test_frozen_point_values(self):
        x = np.array([0.6])
        assert self.prob.phi_value(x) == pytest.approx(QUARTIC_PHI_AT_35, abs=1e-15)
        phi, grad = self.prob.phi_value_grad(x)
        assert phi == pytest.approx(QUARTIC_PHI_AT_35, abs=1e-15)
        assert grad[0] == pytest.approx(QUARTIC_GRAD_AT_35, abs=1e-12)
        assert self.prob.phi_value_grad(x)[1][0] == pytest.approx(QUARTIC_GRAD_AT_35, abs=1e-12)

    def test_dc_identity(self):
        rng = np.random.default_rng(0)
        for x in rng.uniform(-2, 2, size=(10, 1)):
            direct = self.prob.f1_value(x) - self.prob.eval_f2(x)[0]
            assert self.prob.phi_value(x) == pytest.approx(direct, abs=1e-12)

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

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_overflow_guard(self, sign):
        # x^4 overflows from max float^(1/4) on, so every evaluation raises
        # there and is finite just below it
        guard = sign * 1.157920892373162e77
        below = np.array([np.nextafter(guard, 0.0)])
        assert math.isfinite(self.prob.phi_value(below))
        assert np.isfinite(self.prob.eval_f1(below)[2]).all()
        for x in (guard, 1e100 * sign, math.inf * sign):
            for evaluate in (self.prob.eval_f1, self.prob.eval_f2, self.prob.phi_value,
                             self.prob.phi_value_grad, self.prob.g_value):
                with pytest.raises(EvaluationOverflow, match="exceeds overflow guard 1.16e"):
                    evaluate(np.array([x]))

    def test_derivative_report(self):
        rng = np.random.default_rng(1)
        for x in rng.uniform(-2, 2, size=(5, 1)):
            rep = derivative_report(self.prob, x)
            assert set(rep) == {"grad_f1", "grad_f2", "hess_f1", "asym_f1"}
            assert rep["grad_f1"] < 1e-7
            assert rep["grad_f2"] < 1e-7
            assert rep["hess_f1"] < 1e-6
            assert rep["asym_f1"] == 0.0


# (x, phi, phi') as hex from the quartic's f1-minus-f2 fallbacks,
# recorded before they became the phi_value and phi_value_grad fields;
# -0.0 and +0.0 both give +0.0, and 1e77 sits next to t^4's overflow
QUARTIC_FALLBACK_BITS = (
    (-0.0, "0x0.0p+0", "0x0.0p+0"),
    (0.0, "0x0.0p+0", "0x0.0p+0"),
    (-1e-200, "0x0.0p+0", "0x1.87e92154ef7acp-665"),
    (1e-200, "0x0.0p+0", "-0x1.87e92154ef7acp-665"),
    (-0.3, "-0x1.600d1b71758e2p-5", "0x1.178d4fdf3b646p-2"),
    (0.7, "-0x1.7ad42c3c9eecbp-3", "-0x1.6d916872b020dp-2"),
    (-1.0, "-0x1.0000000000000p-2", "0x0.0p+0"),
    (1.0, "-0x1.0000000000000p-2", "0x0.0p+0"),
    (1.5, "0x1.2000000000000p-3", "0x1.e000000000000p+0"),
    (-3.5, "0x1.f640000000000p+4", "-0x1.3b00000000000p+5"),
    (2.5, "0x1.a900000000000p+2", "0x1.a400000000000p+3"),
    (1e+77, "0x1.1ccf385ebc8a0p+1021", "0x1.49c96cd6d16cbp+767"),
)


@pytest.mark.parametrize("t, phi_hex, grad_hex", QUARTIC_FALLBACK_BITS,
                         ids=[repr(t) for t, _, _ in QUARTIC_FALLBACK_BITS])
def test_quartic_fallbacks_have_the_recorded_bits(t, phi_hex, grad_hex):
    prob = make_quartic_problem()
    x = np.array([t])
    value, grad = prob.phi_value_grad(x)
    assert type(prob.phi_value(x)) is type(value) is float
    assert grad.dtype == float and grad.shape == (1,)
    assert (prob.phi_value(x).hex(), value.hex(), grad[0].hex()) == (phi_hex, phi_hex, grad_hex)


class TestExpsys:
    def setup_method(self):
        self.prob = builtin_problem("expsys")

    def test_zero_at_origin(self):
        assert self.prob.phi_value(np.array([0.0])) == 0.0

    def test_value_formula(self):
        # phi(x) = (e^x - 1)^2, checked against a direct computation
        for t in (-1.5, -0.3, 0.4, 1.2):
            expected = (np.exp(t) - 1.0) ** 2
            assert self.prob.phi_value(np.array([t])) == pytest.approx(expected, rel=1e-12)

    def test_split_identity(self):
        rng = np.random.default_rng(2)
        for x in rng.uniform(-2, 2, size=(10, 1)):
            f1 = self.prob.f1_value(x)
            f2 = self.prob.eval_f2(x)[0]
            phi = self.prob.phi_value(x)
            assert f1 - f2 == pytest.approx(phi, rel=1e-10, abs=1e-12)
            t = float(x[0])
            assert f1 == pytest.approx(2.0 * (np.exp(2 * t) + 1.0), rel=1e-12)
            assert f2 == pytest.approx((np.exp(t) + 1.0) ** 2, rel=1e-12)

    def test_gradient_against_fd(self):
        x = np.array([0.7])
        fd = finite_difference_jacobian(self.prob.phi_value, x)
        assert self.prob.phi_value_grad(x)[1][0] == pytest.approx(fd[0], rel=1e-6)

    def test_default_rho(self):
        assert self.prob.rho == 1.0
        assert builtin_problem("expsys", rho=3.5).rho == 3.5

    def test_overflow_guard(self):
        with pytest.raises(EvaluationOverflow):
            self.prob.phi_value(np.array([800.0]))

    def test_derivative_report(self):
        rng = np.random.default_rng(3)
        for x in rng.uniform(-2, 2, size=(5, 1)):
            rep = derivative_report(self.prob, x)
            assert rep["grad_f1"] < 1e-6
            assert rep["grad_f2"] < 1e-6
            assert rep["hess_f1"] < 1e-5
            assert rep["asym_f1"] < 1e-12


# expsys's outputs at rho = 1, recorded as float.hex() from the generic
# p/c system factory it was first written with (p = e^x, c = 1, stacked
# component Hessians), in the order of expsys_outputs below.
EXPSYS_BITS = [
    (-800.0, (
        "0x1.0000000000000p+1", "0x0.0p+0", "0x0.0p+0",
        "0x1.0000000000000p+0", "0x0.0p+0", "0x1.0000000000000p+1",
        "0x1.0000000000000p+1", "0x0.0p+0", "0x1.0000000000000p+0",
        "0x1.0000000000000p+0", "0x0.0p+0", "0x1.0000000000000p+0",
        "0x1.0000000000000p+0", "0x0.0p+0", "0x1.3880800000000p+18",
        "0x1.3880800000000p+18", "-0x1.9000000000000p+9", "0x1.0000000000000p+0",
        "-0x1.9000000000000p+9", "0x1.3880800000000p+18", "-0x1.9000000000000p+9",
        "0x1.0000000000000p+0",
    )),
    (-360.0, (
        "0x1.0000000000000p+1", "0x0.000264ed37254p-1022", "0x0.0004c9da6e4a8p-1022",
        "0x1.0000000000000p+0", "0x1.8c1e2031afd5fp-519", "0x1.0000000000000p+1",
        "0x1.0000000000000p+1", "0x0.000264ed37254p-1022", "0x1.0000000000000p+0",
        "0x1.0000000000000p+0", "-0x1.8c1e2031afd5fp-519", "0x1.0000000000000p+0",
        "0x1.0000000000000p+0", "-0x1.8c1e2031afd5fp-519", "0x1.fa44000000000p+15",
        "0x1.fa44000000000p+15", "-0x1.6800000000000p+8", "0x1.0000000000000p+0",
        "-0x1.6800000000000p+8", "0x1.fa44000000000p+15", "-0x1.6800000000000p+8",
        "0x1.0000000000000p+0",
    )),
    (-40.0, (
        "0x1.0000000000000p+1", "0x1.7fd974d372e44p-114", "0x1.7fd974d372e44p-113",
        "0x1.0000000000000p+0", "0x1.39792499b1a24p-57", "0x1.0000000000000p+1",
        "0x1.0000000000000p+1", "0x1.7fd974d372e44p-114", "0x1.0000000000000p+0",
        "0x1.0000000000000p+0", "-0x1.39792499b1a24p-57", "0x1.0000000000000p+0",
        "0x1.0000000000000p+0", "-0x1.39792499b1a24p-57", "0x1.9100000000000p+9",
        "0x1.9100000000000p+9", "-0x1.4000000000000p+5", "0x1.0000000000000p+0",
        "-0x1.4000000000000p+5", "0x1.9100000000000p+9", "-0x1.4000000000000p+5",
        "0x1.0000000000000p+0",
    )),
    (-1.3, (
        "0x1.130397dd6330bp+1", "0x1.30397dd6330b7p-2", "0x1.30397dd6330b7p-1",
        "0x1.9e8ce161ca44bp+0", "0x1.6320f27e5aeaep-1", "0x1.130397dd6330bp+1",
        "0x1.130397dd6330bp+1", "0x1.30397dd6330b7p-2", "0x1.0ef49cb1f8397p-1",
        "0x1.0ef49cb1f8397p-1", "-0x1.9608672682ca7p-2", "0x1.0ef49cb1f8397p-1",
        "0x1.0ef49cb1f8397p-1", "-0x1.9608672682ca7p-2", "0x1.7f2c8d9ff28cep+1",
        "0x1.7f2c8d9ff28cep+1", "-0x1.00be6d574009fp+0", "0x1.981cbeeb1985cp+0",
        "-0x1.3678a71b3eaecp-1", "0x1.7f2c8d9ff28cep+1", "-0x1.00be6d574009fp+0",
        "0x1.981cbeeb1985cp+0",
    )),
    (-0.0, (
        "0x1.0000000000000p+2", "0x1.0000000000000p+2", "0x1.0000000000000p+3",
        "0x1.0000000000000p+2", "0x1.0000000000000p+2", "0x1.0000000000000p+2",
        "0x1.0000000000000p+2", "0x1.0000000000000p+2", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+2",
        "0x1.0000000000000p+2", "0x1.0000000000000p+2", "0x1.2000000000000p+3",
        "0x1.0000000000000p+2", "0x1.0000000000000p+2", "0x1.0000000000000p+2",
        "0x1.2000000000000p+3",
    )),
    (0.0, (
        "0x1.0000000000000p+2", "0x1.0000000000000p+2", "0x1.0000000000000p+3",
        "0x1.0000000000000p+2", "0x1.0000000000000p+2", "0x1.0000000000000p+2",
        "0x1.0000000000000p+2", "0x1.0000000000000p+2", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+2",
        "0x1.0000000000000p+2", "0x1.0000000000000p+2", "0x1.2000000000000p+3",
        "0x1.0000000000000p+2", "0x1.0000000000000p+2", "0x1.0000000000000p+2",
        "0x1.2000000000000p+3",
    )),
    (0.4, (
        "0x1.9cde866fe46e9p+2", "0x1.1cde866fe46e9p+3", "0x1.1cde866fe46e9p+4",
        "0x1.8d635fcfd0364p+2", "0x1.dbd2a307c26d9p+2", "0x1.9cde866fe46e9p+2",
        "0x1.9cde866fe46e9p+2", "0x1.1cde866fe46e9p+3", "0x1.ef64d40287089p-3",
        "0x1.ef64d40287089p-3", "0x1.77a9a76019be2p+0", "0x1.ef64d40287089p-3",
        "0x1.ef64d40287089p-3", "0x1.77a9a76019be2p+0", "0x1.a1fd3ec1cff3bp+2",
        "0x1.a1fd3ec1cff3bp+2", "0x1.29ab533cb13b6p+3", "0x1.2cde866fe46e9p+4",
        "0x1.f56c3ca15c073p+2", "0x1.a1fd3ec1cff3bp+2", "0x1.29ab533cb13b6p+3",
        "0x1.2cde866fe46e9p+4",
    )),
    (1.5, (
        "0x1.515e5bf6fb105p+5", "0x1.415e5bf6fb105p+6", "0x1.415e5bf6fb105p+7",
        "0x1.e0c85b29793a6p+4", "0x1.89135b903a255p+5", "0x1.515e5bf6fb105p+5",
        "0x1.515e5bf6fb105p+5", "0x1.415e5bf6fb105p+6", "0x1.83e8b988f9cc9p+3",
        "0x1.83e8b988f9cc9p+3", "0x1.f352b8bb77f6ap+4", "0x1.83e8b988f9cc9p+3",
        "0x1.83e8b988f9cc9p+3", "0x1.f352b8bb77f6ap+4", "0x1.5a5e5bf6fb105p+5",
        "0x1.5a5e5bf6fb105p+5", "0x1.475e5bf6fb105p+6", "0x1.435e5bf6fb105p+7",
        "0x1.95135b903a255p+5", "0x1.5a5e5bf6fb105p+5", "0x1.475e5bf6fb105p+6",
        "0x1.435e5bf6fb105p+7",
    )),
    (40.0, (
        "0x1.55779b984f3eap+116", "0x1.55779b984f3eap+117", "0x1.55779b984f3eap+118",
        "0x1.55779b984f3eap+115", "0x1.55779b984f3eap+116", "0x1.55779b984f3eap+116",
        "0x1.55779b984f3eap+116", "0x1.55779b984f3eap+117", "0x1.55779b984f3eap+115",
        "0x1.55779b984f3eap+115", "0x1.55779b984f3eap+116", "0x1.55779b984f3eap+115",
        "0x1.55779b984f3eap+115", "0x1.55779b984f3eap+116", "0x1.55779b984f3eap+116",
        "0x1.55779b984f3eap+116", "0x1.55779b984f3eap+117", "0x1.55779b984f3eap+118",
        "0x1.55779b984f3eap+116", "0x1.55779b984f3eap+116", "0x1.55779b984f3eap+117",
        "0x1.55779b984f3eap+118",
    )),
    (354.8, (
        "inf", "inf", "inf",
        "0x1.aa7fee3e4b2b7p+1023", "inf", "inf",
        "inf", "inf", "0x1.aa7fee3e4b2b7p+1023",
        "0x1.aa7fee3e4b2b7p+1023", "inf", "0x1.aa7fee3e4b2b7p+1023",
        "0x1.aa7fee3e4b2b7p+1023", "inf", "inf",
        "inf", "inf", "inf",
        "inf", "inf", "inf",
        "inf",
    )),
    (EXP_GUARD, (
        "inf", "inf", "inf",
        "0x1.fffffffffff2ap+1023", "inf", "inf",
        "inf", "inf", "0x1.fffffffffff2ap+1023",
        "0x1.fffffffffff2ap+1023", "inf", "0x1.fffffffffff2ap+1023",
        "0x1.fffffffffff2ap+1023", "inf", "inf",
        "inf", "inf", "inf",
        "inf", "inf", "inf",
        "inf",
    )),

]


def expsys_outputs(prob, x):
    """Every evaluator's and derived method's result at x, flattened.
    phi's two paths are listed twice, which keeps the recorded tuples'
    layout and checks that a repeated call returns the same bits."""
    parts = [*prob.eval_f1(x), *prob.eval_f2(x), prob.f1_value(x), *prob.f1_value_grad(x),
             prob.phi_value(x), *prob.phi_value_grad(x), prob.phi_value(x), *prob.phi_value_grad(x),
             prob.g_value(x), *prob.g_value_grad(x), prob.g_hessian(x), prob.grad_h(x),
             *prob.eval_g(x)]
    return tuple(float(v).hex() for part in parts for v in np.ravel(part))


class TestExpsysBits:
    """The direct expsys keeps the system factory's bits: at -0.0, where
    exp underflows to 0 (phi's gradient is +0.0 there), where e^2 is
    subnormal, and where f1 and f2 overflow just below the guard."""

    @pytest.mark.parametrize("t, expected", EXPSYS_BITS, ids=[repr(t) for t, _ in EXPSYS_BITS])
    def test_outputs_have_the_recorded_bits(self, t, expected):
        assert expsys_outputs(make_expsys_problem(), np.array([t])) == expected

    def test_raises_past_the_guard(self):
        prob = make_expsys_problem()
        past = np.array([np.nextafter(EXP_GUARD, np.inf)])
        for evaluate in (prob.eval_f1, prob.eval_f2, prob.f1_value, prob.f1_value_grad,
                         prob.phi_value, prob.phi_value_grad,
                         prob.g_value, prob.g_value_grad, prob.g_hessian, prob.grad_h,
                         prob.eval_g):
            with pytest.raises(EvaluationOverflow):
                evaluate(past)


class TestReplace:
    """dataclasses.replace() gives a problem whose fallbacks call its own pieces."""

    def test_fallbacks_follow_the_replaced_f1(self):
        def constant_f1(value):
            return lambda x: (value, np.zeros(1), np.full((1, 1), value))

        zero_f2 = lambda x: (0.0, np.zeros(1))
        old = DcProblem(m=1, eval_f1=constant_f1(1.0), eval_f2=zero_f2)
        new = replace(old, eval_f1=constant_f1(5.0))
        x = np.array([0.3])
        assert new.eval_f1(x)[0] == 5.0
        assert new.g_hessian(x)[0, 0] == 5.0
        assert new.f1_value(x) == new.g_value(x) == new.phi_value(x) == 5.0
        assert new.f1_value_grad(x)[0] == new.g_value_grad(x)[0] == 5.0
        assert old.f1_value(x) == old.phi_value(x) == 1.0

    def test_supplied_paths_survive(self):
        supplied = lambda x: 7.0
        prob = replace(DcProblem(m=1, eval_f1=lambda x: (1.0, np.zeros(1), np.ones((1, 1))),
                                 eval_f2=lambda x: (0.0, np.zeros(1)), f1_value=supplied),
                       rho=2.0)
        assert prob.f1_value is supplied
        expsys = builtin_problem("expsys", rho=3.5)
        assert expsys.f1_value.__self__ is expsys
        assert expsys.f1_value_grad.__self__ is expsys

    def test_phi_fallbacks_follow_the_replaced_f2(self):
        quartic = make_quartic_problem()
        new = replace(quartic, eval_f2=lambda x: (2.0, np.full(1, 3.0)))
        x = np.array([0.6])
        assert new.phi_value(x) == quartic.f1_value(x) - 2.0
        value, grad = new.phi_value_grad(x)
        assert value == new.phi_value(x)
        assert grad[0] == quartic.f1_value_grad(x)[1][0] - 3.0
        assert new.phi_value.__self__ is new and new.phi_value_grad.__self__ is new
        assert quartic.phi_value(x) == pytest.approx(QUARTIC_PHI_AT_35, abs=1e-15)

    def test_supplied_phi_paths_survive(self):
        expsys = make_expsys_problem()
        new = replace(expsys, rho=3.5)
        assert new.phi_value is expsys.phi_value
        assert new.phi_value_grad is expsys.phi_value_grad
        assert not hasattr(new.phi_value, "__self__")

    def test_instance_wrappers_are_seen(self):
        # a wrapper set on the instance, as a tracer sets one, is what the
        # fallbacks call
        prob = make_expsys_problem()
        calls = []
        inner = prob.eval_f1
        prob.eval_f1 = lambda x: calls.append(x) or inner(x)
        prob.f1_value(np.array([0.1]))
        prob.f1_value_grad(np.array([0.2]))
        assert len(calls) == 2


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

    def test_phi_value_grad_builds_no_hessian(self):
        def no_hessian(x):
            raise AssertionError("eval_f1 was called")

        prob = DcProblem(m=1, eval_f1=no_hessian, eval_f2=lambda x: (0.0, np.zeros(1)),
                         f1_value_grad=lambda x: (float(x @ x), 2.0 * x))
        value, grad = prob.phi_value_grad(np.array([3.0]))
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

    @pytest.mark.parametrize("field", ["rho", "sigma_g", "sigma_h"])
    def test_nan_parameters_raise(self, field):
        ev = lambda x: (0.0, np.zeros(1), np.zeros((1, 1)))
        with pytest.raises(ValueError, match="must be nonnegative"):
            DcProblem(m=1, eval_f1=ev, eval_f2=ev, **{field: float("nan")})

    @pytest.mark.parametrize("value", [float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["rho", "sigma_g", "sigma_h"])
    def test_infinite_parameters_raise(self, field, value):
        ev = lambda x: (0.0, np.zeros(1), np.zeros((1, 1)))
        with pytest.raises(ValueError, match="must be nonnegative and finite"):
            DcProblem(m=1, eval_f1=ev, eval_f2=ev, **{field: value})
        if field == "rho":
            with pytest.raises(ValueError, match="rho must be nonnegative and finite"):
                builtin_problem("quartic", rho=value)

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
