"""Reaction networks: evaluation oracles, generator contract, JSON schema.

The reference implementation in this file recomputes everything with
dense numpy arrays straight from the matrix definitions: exponent
matrix stacks the transposed stoichiometries, production collects
[F, R], consumption [R, F], and the residual is their difference.
"""

import hashlib
import json
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.optimize import least_squares
from scipy.sparse._sparsetools import csc_matvec, csr_matvec
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dcboost import (
    EvaluationOverflow,
    GenerationError,
    NetworkObjective,
    ReactionNetwork,
    SchemaError,
    SchemaWarning,
    SolverConfig,
    check_mass_conservation,
    generate_network,
    load_network,
    save_network,
    solve,
)
from dcboost import biochem
from dcboost.biochem import INT64_MAX, _Operator, _operator
from dcboost.problem import EXP_GUARD
from derivatives import derivative_report


def dense_reference(network, x):
    """Rates and both DC pieces computed independently from the dense
    matrix definitions.

    With Jq the Jacobian of q(x) = Q e(x), the Hessian of ||q||^2 is
    2 (Jq^T Jq + sum_i q_i Hess(q_i)), and sum_i q_i Hess(q_i) is
    B^T diag(e * Q^T q) B because Hess(q_i) = B^T diag(Q[i] * e) B.
    """
    F = network.F.toarray().astype(float)
    R = network.R.toarray().astype(float)
    B = np.vstack([F.T, R.T])
    e = np.exp(network.w + B @ x)
    M = np.hstack([F, R])
    N = np.hstack([R, F])
    p = M @ e
    c = N @ e
    s = p + c
    Jp = M @ (e[:, None] * B)
    Jc = N @ (e[:, None] * B)
    Js = Jp + Jc

    def curvature(Q, q):
        return B.T @ ((e * (Q.T @ q))[:, None] * B)

    return dict(
        p=p, c=c, f=p - c,
        f1=2.0 * (p @ p + c @ c),
        grad_f1=4.0 * (Jp.T @ p + Jc.T @ c),
        hess_f1=4.0 * (Jp.T @ Jp + Jc.T @ Jc + curvature(M, p) + curvature(N, c)),
        f2=s @ s,
        grad_f2=2.0 * Js.T @ s,
    )


def tiny_network(w=None):
    # one reaction, one species: coefficient 1 forward, 2 reverse
    F = sp.csr_matrix(np.array([[1]]))
    R = sp.csr_matrix(np.array([[2]]))
    if w is None:
        w = np.zeros(2)
    with pytest.warns(SchemaWarning):
        # the lone reaction moves a single species
        return ReactionNetwork(m=1, n=1, F=F, R=R, w=np.asarray(w, dtype=float))


class TestEvaluation:
    def test_tiny_frozen_values(self):
        obj = NetworkObjective(tiny_network())
        x = np.zeros(1)
        p, c, f = obj.rates(x)
        # e = (1, 1); p = F*1 + R*1 = 3; c = R*1 + F*1 = 3
        assert p[0] == pytest.approx(3.0, abs=1e-15)
        assert c[0] == pytest.approx(3.0, abs=1e-15)
        assert f[0] == pytest.approx(0.0, abs=1e-15)
        f1, f2 = obj.eval_f1(x), obj.eval_f2(x)
        assert f1[0] == pytest.approx(36.0, abs=1e-12)
        assert f2[0] == pytest.approx(36.0, abs=1e-12)

    def test_rates_match_dense_reference(self):
        rng = np.random.default_rng(11)
        net = generate_network(6, 9, seed=3)
        for _ in range(5):
            x = rng.uniform(-1.5, 1.5, size=net.m)
            p, c, f = NetworkObjective(net).rates(x)
            ref = dense_reference(net, x)
            np.testing.assert_allclose(p, ref["p"], rtol=1e-12)
            np.testing.assert_allclose(c, ref["c"], rtol=1e-12)
            np.testing.assert_allclose(f, ref["f"], rtol=1e-11, atol=1e-12)
            assert np.all(p > 0) and np.all(c > 0)

    @pytest.mark.parametrize("shape", [None, (6, 9, 3), (20, 30, 101), (80, 120, 105)])
    def test_pieces_match_dense_reference(self, shape):
        net = tiny_network(w=[0.3, -0.2]) if shape is None else generate_network(*shape)
        obj = NetworkObjective(net)
        rng = np.random.default_rng(17)
        for _ in range(4):
            x = rng.uniform(-1.5, 1.5, size=net.m)
            ref = dense_reference(net, x)
            value, grad, hess = obj.eval_f1(x)
            assert value == pytest.approx(ref["f1"], rel=1e-12)
            np.testing.assert_allclose(grad, ref["grad_f1"], rtol=1e-12)
            np.testing.assert_allclose(hess, ref["hess_f1"], rtol=1e-12)
            assert np.array_equal(hess, hess.T)
            value, grad = obj.eval_f2(x)
            assert value == pytest.approx(ref["f2"], rel=1e-12)
            np.testing.assert_allclose(grad, ref["grad_f2"], rtol=1e-12)

    def test_dc_identity(self):
        rng = np.random.default_rng(12)
        net = generate_network(8, 12, seed=4)
        prob = NetworkObjective(net).as_dc_problem(rho=0.0)
        for _ in range(10):
            x = rng.uniform(-1.0, 1.0, size=net.m)
            phi = prob.phi_value(x)
            split = prob.f1_value(x) - prob.eval_f2(x)[0]
            assert split == pytest.approx(phi, rel=1e-10, abs=1e-10)
            _, _, f = NetworkObjective(net).rates(x)
            assert phi == pytest.approx(float(f @ f), rel=1e-12)

    @pytest.mark.parametrize("shape", [(20, 30, 101), (40, 60, 103), (80, 120, 105)])
    def test_phi_keeps_its_accuracy_at_a_steady_state(self, shape):
        # a planted steady state: J in the null space of S = F - R gives
        # fluxes v_fwd - v_rev = J, so the net rate S J vanishes at the x*
        # with e(x*) = v.  phi is ||f||^2 read without forming f1 - f2,
        # whose cancellation would leave an error of order eps f1
        net = generate_network(*shape)
        S = (net.F - net.R).toarray().astype(float)
        rng = np.random.default_rng(27)
        kernel = scipy.linalg.null_space(S)  # n - m columns or more
        J = kernel @ rng.standard_normal(kernel.shape[1])
        v = np.concatenate([1.0 + np.maximum(J, 0.0), 1.0 + np.maximum(-J, 0.0)])
        x_star = rng.uniform(-1.0, 1.0, size=net.m)
        B = sp.vstack([net.F.T, net.R.T]).toarray().astype(float)
        planted = ReactionNetwork(m=net.m, n=net.n, F=net.F, R=net.R,
                                  w=np.log(v) - B @ x_star)
        obj = NetworkObjective(planted)
        p, c, f = obj.rates(x_star)
        scale = np.linalg.norm(p + c)
        assert np.linalg.norm(f) < 1e-14 * scale
        assert obj.phi_value(x_star) <= (1e-14 * scale) ** 2
        assert NetworkObjective(planted).phi_value_grad(x_star)[0] <= (1e-14 * scale) ** 2

    def test_gradients_and_hessians(self):
        net = generate_network(6, 8, seed=5)
        prob = NetworkObjective(net).as_dc_problem(rho=0.0)
        rng = np.random.default_rng(13)
        for _ in range(4):
            x = rng.uniform(-0.8, 0.8, size=net.m)
            rep = derivative_report(prob, x)
            assert rep["grad_f1"] < 1e-6
            assert rep["grad_f2"] < 1e-6
            assert rep["hess_f1"] < 1e-5
            assert rep["asym_f1"] < 1e-10

    def test_phi_gradient_fast_path(self):
        net = generate_network(6, 8, seed=6)
        obj = NetworkObjective(net)
        prob = obj.as_dc_problem()
        rng = np.random.default_rng(14)
        x = rng.uniform(-1.0, 1.0, size=net.m)
        phi, grad = prob.phi_value_grad(x)
        _, g1, _ = prob.eval_f1(x)
        _, g2 = prob.eval_f2(x)
        np.testing.assert_allclose(grad, g1 - g2, rtol=1e-8, atol=1e-8)
        assert phi == pytest.approx(prob.phi_value(x), rel=1e-12)

    def test_hessians_positive_semidefinite(self):
        net = generate_network(7, 10, seed=7)
        prob = NetworkObjective(net).as_dc_problem()
        rng = np.random.default_rng(15)
        for _ in range(3):
            x = rng.uniform(-0.8, 0.8, size=net.m)
            _, _, hess = prob.eval_f1(x)
            low = np.linalg.eigvalsh(hess)[0]
            assert low >= -1e-8 * max(1.0, np.linalg.norm(hess))

    def test_f2_gradient_monotone(self):
        # f2 is convex iff its gradient is monotone:
        # (grad f2(x) - grad f2(y)) . (x - y) >= 0
        net = generate_network(7, 10, seed=7)
        obj = NetworkObjective(net)
        rng = np.random.default_rng(15)
        for _ in range(50):
            x, y = rng.uniform(-0.8, 0.8, size=(2, net.m))
            gx, gy = obj.eval_f2(x)[1], obj.eval_f2(y)[1]
            scale = max(1.0, np.linalg.norm(gx) + np.linalg.norm(gy)) * np.linalg.norm(x - y)
            assert (gx - gy) @ (x - y) >= -1e-12 * scale

    def test_eval_f2_builds_no_hessian(self):
        # f2 is a value-and-gradient piece: neither it nor the other
        # gradient paths build the Hessian operator
        net = generate_network(6, 9, seed=5)
        obj = NetworkObjective(net)
        prob = obj.as_dc_problem(rho=100.0)
        x = np.random.default_rng(18).uniform(-1.0, 1.0, size=net.m)
        assert len(obj.eval_f2(x)) == 2
        obj.phi_value_grad(x)
        obj.f1_value_grad(x)
        prob.grad_h(x)
        prob.phi_value_grad(x)
        prob.g_value_grad(x)
        assert "_hessian_op" not in vars(obj)
        obj.eval_f1(x)
        assert "_hessian_op" in vars(obj)

    def test_value_grad_paths_match_full_evaluations(self):
        # the Hessian-free paths have the bits of eval_f1's and eval_g's
        # first two outputs, whichever is asked for first at a point
        net = generate_network(20, 30, seed=101)
        rng = np.random.default_rng(25)
        for first in ("value_grad", "full"):
            obj = NetworkObjective(net)
            prob = obj.as_dc_problem(rho=100.0)
            for x in rng.uniform(-2.0, 2.0, size=(20, net.m)):
                if first == "value_grad":
                    pair, g_pair = obj.f1_value_grad(x), prob.g_value_grad(x)
                    full, g_full = obj.eval_f1(x), prob.eval_g(x)
                else:
                    full, g_full = obj.eval_f1(x), prob.eval_g(x)
                    pair, g_pair = obj.f1_value_grad(x), prob.g_value_grad(x)
                assert bits(pair) == bits(full[:2])
                assert bits(g_pair) == bits(g_full[:2])
                assert bits(pair) == bits(NetworkObjective(net).eval_f1(x)[:2])

    def test_phi_value_grad_value_is_phi_value(self):
        net = generate_network(20, 30, seed=101)
        prob = NetworkObjective(net).as_dc_problem(rho=100.0)
        rng = np.random.default_rng(19)
        for x in rng.uniform(-2.0, 2.0, size=(1000, net.m)):
            assert prob.phi_value_grad(x)[0] == prob.phi_value(x)

    def test_overflow_guard(self):
        net = generate_network(6, 9, seed=8)
        obj = NetworkObjective(net)
        with pytest.raises(EvaluationOverflow):
            obj.phi_value(np.full(net.m, 500.0))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_exponent_raises_without_warning(self):
        # B x itself overflows: the guard reports it, numpy does not warn
        obj = NetworkObjective(generate_network(6, 9, seed=8))
        with pytest.raises(EvaluationOverflow):
            obj.phi_value(np.full(6, 1e308))

    @pytest.mark.filterwarnings("error")
    def test_nan_coordinate_does_not_hide_an_overflow(self):
        # exponents up to about 2,000 beside NaN ones must raise before
        # np.exp, which would overflow with a RuntimeWarning
        obj = NetworkObjective(generate_network(6, 9, seed=8))
        with pytest.raises(EvaluationOverflow):
            obj.phi_value([np.nan, 500.0, 500.0, 500.0, 500.0, 500.0])

    def test_overflow_guard_at_squared_limit(self):
        # phi is quadratic in e = exp(z), so it overflows from z of about
        # 355; a top exponent near 400 must raise, not saturate to inf
        net = generate_network(6, 9, seed=8)
        obj = NetworkObjective(net)
        # the exponent matrix is B = [F, R]^T: its row sums are F's and
        # R's column sums
        row_sums = np.concatenate([np.asarray(net.F.sum(axis=0)).ravel(),
                                   np.asarray(net.R.sum(axis=0)).ravel()])
        x = np.full(net.m, 400.0 / float(row_sums.max()))
        top = float((obj.w + obj.B.apply(x)).max())
        assert 399.0 < top < 401.0
        with pytest.raises(EvaluationOverflow):
            obj.phi_value(x)


def guarded_flux(z):
    """The exponent guard and flux as the largest entry that is not NaN
    decides them: raise past the guard, else exp(z).  A z of NaNs alone
    never raises."""
    top = float(np.fmax.reduce(z))
    if top > EXP_GUARD:
        raise EvaluationOverflow(top, EXP_GUARD)
    return np.exp(z)


def flux_outcome(flux, z):
    try:
        return flux(z).tobytes()
    except EvaluationOverflow as exc:
        return str(exc)


def identity_flux(z):
    """NetworkObjective._flux on a stand-in exponent map w + B x with w = 0
    and B = I, so that its exponents are z's entries (a -0.0 as +0.0)."""
    obj = NetworkObjective(generate_network(3, 4, seed=1))
    obj.w = np.zeros(z.size)
    eye = sp.identity(z.size, format="csr")
    obj.B = _Operator(eye.indptr, eye.indices, eye.data, eye.shape)
    return obj._flux(z)


GUARD_UP, GUARD_DOWN = np.nextafter(EXP_GUARD, np.inf), np.nextafter(EXP_GUARD, -np.inf)
# the guard, one ulp either side of it and of its negative, NaN, infinities,
# exponents whose flux underflows to 0, and ordinary ones
EXPONENTS = (EXP_GUARD, GUARD_UP, GUARD_DOWN, -EXP_GUARD, -GUARD_UP, np.nan, np.inf, -np.inf,
             -1e300, -800.0, -0.0, 0.0, 1.5, 400.0)


class TestFluxGuard:
    """The guard is decided by one ddot, and by one idamax where the sum of
    squares passes the guard's square; the largest entry that is not NaN
    is taken only where the largest |z_j| is past the guard or z holds a
    NaN."""

    @pytest.mark.parametrize("z,raises", [
        ([EXP_GUARD], False),
        ([GUARD_UP], True),
        ([GUARD_DOWN, -1.0], False),
        # the largest |z_j| is past the guard but z's maximum is not
        ([-2.0 * EXP_GUARD, EXP_GUARD], False),
        ([-GUARD_UP, 0.0], False),
        ([-2.0 * EXP_GUARD, GUARD_UP], True),
        # a NaN hides no exponent past the guard, wherever it sits
        ([np.nan, 400.0], True),
        ([400.0, np.nan], True),
        ([1.0, np.nan, -1.0], False),
        ([np.inf], True),
        ([-np.inf, 1.0], False),
        ([-1e300, -800.0], False),
        ([np.nan, np.nan], False),
    ])
    def test_raises_exactly_past_the_guard(self, z, raises):
        z = np.array(z)
        expected = flux_outcome(guarded_flux, z)
        assert flux_outcome(identity_flux, z) == expected
        assert isinstance(expected, str) == raises

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.sampled_from(EXPONENTS) | st.floats(), min_size=1, max_size=9))
    def test_matches_the_maximum_test(self, entries):
        z = np.array(entries)
        assert flux_outcome(identity_flux, z) == flux_outcome(guarded_flux, z)

    def test_network_flux_at_the_guard(self):
        # B = [1, 2]^T: x = EXP_GUARD / 2 puts the top exponent 2 x at the
        # guard exactly; one ulp of x more puts it two ulps past
        obj = NetworkObjective(tiny_network())
        x = np.array([EXP_GUARD / 2.0])
        assert obj.phi_value(x) > 0.0
        with pytest.raises(EvaluationOverflow) as exc:
            obj.phi_value(np.nextafter(x, np.inf))
        assert str(exc.value) == str(EvaluationOverflow(2.0 * np.nextafter(x[0], np.inf),
                                                        EXP_GUARD))


def along(obj, d, level):
    """t d for the smallest t > 0 at which an exponent rising along d
    reaches ``level``: no other exponent then lies above it."""
    slopes = obj.B.apply(d)
    rising = slopes > 0.0
    return float(np.min((level - obj.w[rising]) / slopes[rising])) * d


def evaluations(problem, x):
    """Every value, gradient and Hessian a network problem computes at x."""
    return [*problem.eval_f1(x), *problem.eval_f2(x), problem.f1_value(x),
            *problem.f1_value_grad(x), problem.phi_value(x), *problem.phi_value_grad(x),
            problem.g_value(x), *problem.g_value_grad(x), problem.g_hessian(x),
            problem.grad_h(x)]


@st.composite
def safe_edge_points(draw):
    m = draw(st.integers(2, 12))
    net = generate_network(m, draw(st.integers(m, 2 * m)), seed=draw(st.integers(0, 10 ** 6)))
    d = np.array(draw(st.lists(st.integers(-1000, 1000), min_size=m, max_size=m))) / 1000.0
    slopes = NetworkObjective(net).B.apply(d)
    if slopes.max() <= 0.0:
        d = -d
    assume(np.abs(slopes).max() > 0.0)
    return net, d, draw(st.sampled_from([0.0, 0.0, 1e-3, 0.5]))


class TestSafeExponent:
    """NetworkObjective.safe_exponent(): below it every evaluation is
    finite; between it and EXP_GUARD one can overflow."""

    @settings(max_examples=60, deadline=None)
    @given(safe_edge_points())
    def test_everything_finite_up_to_the_bound(self, case):
        # under the suite's warnings-as-errors filter an overflow would
        # also raise here, not only show as inf
        net, d, gap = case
        obj = NetworkObjective(net)
        bound = obj.safe_exponent()
        assert bound < EXP_GUARD
        x = along(obj, d, bound - gap)
        top = float((obj.w + obj.B.apply(x)).max())
        assert top == pytest.approx(bound - gap, abs=1e-9)
        for value in evaluations(obj.as_dc_problem(rho=100.0), x):
            assert np.isfinite(value).all()

    def test_guard_alone_is_not_the_finite_domain(self):
        net = generate_network(6, 9, seed=8)
        obj = NetworkObjective(net)
        problem = obj.as_dc_problem(rho=100.0)
        d = np.ones(net.m)
        # 3.5 below the guard, 1.9 above the bound, f1's Hessian overflows
        # (at 4 below, its largest entry, about 1.09e308, is finite: only
        # a symmetrizing sum h + h^T would overflow there)
        with np.errstate(over="ignore", invalid="ignore"):
            below_guard = evaluations(problem, along(obj, d, EXP_GUARD - 3.5))
        assert not all(np.isfinite(value).all() for value in below_guard)
        assert all(np.isfinite(value).all()
                   for value in evaluations(problem, along(obj, d, obj.safe_exponent())))
        assert EXP_GUARD - obj.safe_exponent() == pytest.approx(5.36, abs=0.01)

    @pytest.mark.parametrize("factor", [1, 2 ** 40, 2 ** 52 + 1, 2 ** 60],
                             ids=["unscaled", "2^40", "2^52+1", "2^60"])
    def test_matches_scipys_algebra(self, tmp_path, factor):
        # the objective takes K from its own operators; scipy's sparse
        # products on matrices built from F and R give the same bits, on
        # coefficients whose products and sums are exact and on ones scaled
        # past 2^53, where rounding could tell two summation orders apart
        path = tmp_path / "cancelling.json"
        path.write_text(json.dumps(CANCELLING_MODEL))
        networks = [generate_network(m, n, seed) for m in range(2, 31)
                    for n, seed in ((m, 0), (2 * m, 1), (m + m // 2 + 1, 2))]
        networks += [generate_network(80, 120, 105), generate_network(200, 300, 107),
                     load_network(path)]
        for net in networks:
            net = ReactionNetwork(m=net.m, n=net.n, F=net.F * factor, R=net.R * factor,
                                  w=net.w, name=net.name)
            got = NetworkObjective(net).safe_exponent()
            assert got.hex() == scipy_safe_exponent(net).hex(), net.name


def scipy_safe_exponent(net):
    """safe_exponent() by scipy's sparse algebra on scipy_operators(net), an
    independent reference: K is the largest of f1's value 2<u, t>, the
    weights 4 W for W = G1 + diag(t), the gradient 4 M t, the Hessian
    (doubled) 8 M W M^T, and f2's q and 2 M q, at e = u = 1."""
    ops = scipy_operators(net)
    M, MpN, G1 = ops["M"], ops["MpN"], ops["G1"]
    u = np.ones(M.shape[1])
    t, q = G1 @ u, MpN.T @ (MpN @ u)
    W = G1 + sp.diags(t)
    K = max(2.0 * (u @ t), 4.0 * W.max(), 4.0 * (M @ t).max(),
            8.0 * (M @ W @ M.T).max(), q.max(), 2.0 * (M @ q).max())
    return EXP_GUARD - 0.5 * float(np.log(2.0 * K))


def scipy_operators(net):
    """The ten matrices a NetworkObjective applies, as scipy CSR
    matrices built the way the objective builds them."""
    F, R = net.F.astype(float), net.R.astype(float)
    M = sp.hstack([F, R]).tocsr()
    N = sp.hstack([R, F]).tocsr()
    A = (M - N).tocsr()
    MpN = (M + N).tocsr()
    MN = sp.vstack([M, N], format="csr")
    return dict(M=M, N=N, A=A, MpN=MpN, B=M.T.tocsr(), AT=A.T.tocsr(), MpNT=MpN.T.tocsr(),
                G1=(MN.T @ MN).tocsr(), M4=4.0 * M, M2=2.0 * M)


def kron_hessian_operator(net):
    """f1's Hessian operator built independently, from scipy's kron, as the
    reference for the direct build, array for array.  W's pattern is G1's
    upper triangle plus the diagonal in CSR order, with 4 G1's values on
    it.  kron(M, M) = kron(B^T, B^T) holds B[k, a] * B[l, b] in row a*m + b
    of its column k*size + l, so P's column for (k, l) is the sum of kron's
    columns (k, l) and (l, k) for k < l and kron's column (k, k) alone, on
    the rows a*m + b with a <= b; P in CSC form, as the operator stores it."""
    ops = scipy_operators(net)
    G1, m = ops["G1"], net.m
    size = G1.shape[0]  # W is indexed by the 2n directed reactions
    pattern = (sp.triu(G1) + sp.identity(size)).tocsr().tocoo()
    rows, cols = pattern.row.astype(np.intp), pattern.col.astype(np.intp)
    kron = sp.kron(ops["M"], ops["M"], format="csc")
    cross = sp.diags((rows != cols).astype(float))
    P = kron[:, rows * size + cols] + kron[:, cols * size + rows] @ cross
    a, b = np.divmod(np.arange(m * m), m)
    P = (sp.diags((a <= b).astype(float)) @ P).tocsc()
    P.eliminate_zeros()
    P.sort_indices()
    return dict(rows=rows, cols=cols, g=4.0 * np.asarray(G1[rows, cols]).ravel(),
                diag=np.flatnonzero(rows == cols), P=P)


def long_double_hessian(net, x):
    """f1's Hessian at x from dense M and W, summed in np.longdouble, on the
    e and 4 e t that the objective forms at x (scipy's products have the
    objective's bits)."""
    ops = scipy_operators(net)
    e = np.exp(net.w + ops["B"] @ x)
    et = 4.0 * (e * (ops["G1"] @ e))
    M, E = ops["M"].toarray().astype(np.longdouble), e.astype(np.longdouble)
    W = 4.0 * ops["G1"].toarray().astype(np.longdouble) * E[:, None] * E[None, :]
    W[np.diag_indices_from(W)] += et
    return M @ W @ M.T


def scipy_matrix(op):
    """An operator's entries, on copies of its arrays, as the scipy matrix
    that reads those arrays the way its kernel does: CSR for csr_matvec,
    CSC for csc_matvec."""
    kind = sp.csr_matrix if op.kernel is csr_matvec else sp.csc_matrix
    return kind((op.data.copy(), op.indices.copy(), op.indptr.copy()), shape=op.shape)


def csr_arrays(op):
    """An operator's or a scipy CSR matrix's arrays as (dtype, bytes)
    pairs, with its shape: equal only when every array is."""
    return [op.shape] + [(a.dtype, a.tobytes()) for a in (op.indptr, op.indices, op.data)]


def scipy_arrays(net):
    """csr_arrays of each of scipy_operators(net), by name."""
    return {name: csr_arrays(mat) for name, mat in scipy_operators(net).items()}


# each transpose and the operator whose arrays it reads by columns
TRANSPOSES = {"B": "M", "AT": "A", "MpNT": "MpN"}


def assert_scipy_layout(obj, arrays):
    """Every operator of obj holds scipy's CSR arrays ``arrays`` and applies
    csr_matvec, bar the transposes: each holds its source's very arrays,
    its shape swapped, and applies csc_matvec, and its entries in CSR form
    are scipy's .T.tocsr()."""
    for name, want in arrays.items():
        op = getattr(obj, name)
        if name not in TRANSPOSES:
            assert op.kernel is csr_matvec and csr_arrays(op) == want, name
            continue
        source = getattr(obj, TRANSPOSES[name])
        assert op.kernel is csc_matvec and op.shape == source.shape[::-1], name
        assert all(getattr(op, a) is getattr(source, a) for a in ("indptr", "indices", "data"))
        assert csr_arrays(scipy_matrix(op).tocsr()) == want, name


# the canonical twins of non_canonical_network()'s F and R
CANONICAL_F = [[2, 0], [0, 1], [2, 0]]
CANONICAL_R = [[0, 1], [2, 1], [0, 1]]


def non_canonical_network():
    """F stores entry (0, 0) twice; R's row 0 holds an explicit zero and
    its row 1 lists column 1 before column 0."""
    F = sp.csr_matrix(([1, 1, 1, 2], [0, 0, 1, 0], [0, 2, 3, 4]), shape=(3, 2))
    R = sp.csr_matrix(([1, 0, 1, 2, 1], [1, 0, 1, 0, 1], [0, 2, 4, 5]), shape=(3, 2))
    return ReactionNetwork(m=3, n=2, F=F, R=R, w=np.zeros(4))


# reaction 0 holds species 0 on both sides with coefficient 1, so its
# entries cancel in A = M - N, and scipy drops them
CANCELLING_MODEL = {
    "name": "cancelling", "m": 3, "n": 3,
    "F": [[0, 0, 1], [1, 0, 1], [2, 1, 1], [1, 2, 2]],
    "R": [[0, 0, 1], [2, 0, 1], [1, 1, 1], [0, 2, 2]],
    "w": [0.1, -0.2, 0.3, 0.0, 0.5, -0.4],
}

# signed zeros, infinities and finite magnitudes from 1e-300 to 1e300
VECTOR_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, np.inf, -np.inf]),
                           st.floats(1e-300, 1e300), st.floats(-1e300, -1e-300))


@st.composite
def operator_cases(draw):
    m = draw(st.integers(3, 40))
    # None stands for the cancelling network
    shape = draw(st.none() | st.tuples(st.just(m), st.integers(m, 2 * m),
                                       st.integers(0, 10 ** 6)))
    # a small pool of entries, spread over each vector by a seeded draw,
    # keeps the examples short at m = 40
    pool = np.array(draw(st.lists(VECTOR_ENTRIES, min_size=1, max_size=12)))
    return shape, pool, draw(st.integers(0, 2 ** 32 - 1))


class TestOperators:
    @pytest.fixture(scope="class")
    def cancelling_network(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("models") / "cancelling.json"
        path.write_text(json.dumps(CANCELLING_MODEL))
        net = load_network(path)
        # A = [F - R, R - F] would hold F's and R's union twice without it
        assert scipy_operators(net)["A"].nnz < 2 * (net.F + net.R).nnz
        return net

    @settings(max_examples=60, deadline=None)
    @given(operator_cases())
    def test_products_match_scipy_bit_for_bit(self, cancelling_network, case):
        shape, pool, seed = case
        net = cancelling_network if shape is None else generate_network(*shape)
        obj = NetworkObjective(net)
        rng = np.random.default_rng(seed)
        for name, mat in scipy_operators(net).items():
            v = pool[rng.integers(pool.size, size=mat.shape[1])]
            with np.errstate(invalid="ignore", over="ignore"):
                assert getattr(obj, name).apply(v).tobytes() == (mat @ v).tobytes(), name
        # the Hessian operator P against its own entries in a scipy CSR matrix
        P = obj._hessian_op.P
        w = pool[rng.integers(pool.size, size=P.shape[1])]
        with np.errstate(invalid="ignore", over="ignore"):
            assert P.apply(w).tobytes() == (scipy_matrix(P).tocsr() @ w).tobytes(), "P"

    @settings(max_examples=60, deadline=None)
    @given(operator_cases(), st.floats(0.05, 0.5))
    def test_products_with_nan_match_scipy_bar_its_sign(self, cancelling_network, case, share):
        """With NaN entries in the input, every product, P's included, has
        NaN exactly where scipy's CSR product has one, and the same bytes
        everywhere else.  A NaN's sign bit may differ: where an addition
        meets two NaNs, an input's (positive) and one that inf - inf or
        0 * inf made (negative on x86), which it returns depends on the
        compiled kernel's operand order, and csc_matvec's is not
        csr_matvec's."""
        shape, pool, seed = case
        net = cancelling_network if shape is None else generate_network(*shape)
        obj = NetworkObjective(net)
        rng = np.random.default_rng(seed)
        P = obj._hessian_op.P
        pairs = [(getattr(obj, name), mat) for name, mat in scipy_operators(net).items()]
        for op, mat in pairs + [(P, scipy_matrix(P).tocsr())]:
            v = pool[rng.integers(pool.size, size=mat.shape[1])]
            v[rng.random(v.size) < share] = np.nan
            with np.errstate(invalid="ignore", over="ignore"):
                got, want = op.apply(v), mat @ v
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(got), nan)
            assert got[~nan].tobytes() == want[~nan].tobytes()

    @settings(max_examples=60, deadline=None)
    @given(operator_cases())
    def test_arrays_match_scipy(self, cancelling_network, case):
        # each operator is built straight from F's and R's arrays into the
        # arrays, dtypes and entry order that scipy's sparse algebra gives
        shape = case[0]
        net = cancelling_network if shape is None else generate_network(*shape)
        assert_scipy_layout(NetworkObjective(net), scipy_arrays(net))

    def test_non_canonical_input_builds_its_twins_operators(self):
        net = non_canonical_network()
        twin = ReactionNetwork(m=3, n=2, F=sp.csr_matrix(CANONICAL_F),
                               R=sp.csr_matrix(CANONICAL_R), w=np.zeros(4))
        obj, twin_obj = NetworkObjective(net), NetworkObjective(twin)
        arrays = scipy_arrays(net)
        assert_scipy_layout(obj, arrays)
        assert_scipy_layout(twin_obj, arrays)
        assert csr_arrays(obj._hessian_op.P) == csr_arrays(twin_obj._hessian_op.P)

    def test_one_union_per_network(self, monkeypatch):
        # the network lists F's and R's positions once, for its cardinality
        # check, and the objective reads that list
        calls = []
        union = biochem._union

        def counted(*args):
            calls.append(args)
            return union(*args)

        monkeypatch.setattr(biochem, "_union", counted)
        NetworkObjective(generate_network(20, 30, 101))
        assert len(calls) == 1

    @pytest.mark.parametrize("shape", [(6, 9, 5), (20, 30, 101), (80, 120, 105), None,
                                       (200, 300, 107)])
    def test_hessian_operator_matches_kron_build(self, cancelling_network, shape):
        net = cancelling_network if shape is None else generate_network(*shape)
        op = NetworkObjective(net)._hessian_op
        reference = kron_hessian_operator(net)
        for name in ("rows", "cols", "g", "diag"):
            got, want = getattr(op, name), reference[name]
            assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes()), name
        assert csr_arrays(op.P) == csr_arrays(reference["P"])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 12).flatmap(lambda m: st.tuples(
        st.just(m), st.integers(m, 2 * m), st.integers(0, 10 ** 6))), st.integers(0, 2 ** 32 - 1))
    def test_folded_gradients_keep_their_bits(self, shape, seed):
        # f1's and f2's gradients apply 4M and 2M: the bits of scaling M's
        # product by the power of two
        net = generate_network(*shape)
        ops = scipy_operators(net)
        obj = NetworkObjective(net)
        for x in np.random.default_rng(seed).uniform(-8.0, 8.0, size=(4, net.m)):
            e = np.exp(net.w + ops["B"] @ x)
            t = ops["G1"] @ e
            q = ops["MpNT"] @ (ops["MpN"] @ e)
            assert obj.f1_value_grad(x)[1].tobytes() == (4.0 * (ops["M"] @ (e * t))).tobytes()
            assert obj.eval_f2(x)[1].tobytes() == (2.0 * (ops["M"] @ (e * q))).tobytes()

    @pytest.mark.parametrize("shape,nnz", [(None, 3), ((6, 9, 5), 320),
                                           ((20, 30, 101), 1400), ((80, 120, 105), 6478)],
                             ids=["m1", "m6", "m20", "m80"])
    def test_hessian_is_symmetric_and_within_its_rounding_bound(self, shape, nnz):
        # Every term of an entry (a, b) is positive.  The objective's entry
        # sums N products P[ab, q] w_q, N the stored entries of P's row for
        # (min(a, b), max(a, b)).  P's entries are exact integers, and each
        # w_q meets at most 3 roundings (e_k e_l, the times g, the + et on
        # the diagonal), its product a 4th: c = 4 before the sum, whose N - 1
        # additions of positive terms make its relative error at most
        # gamma(N + 3), gamma(k) = k u / (1 - k u) and u = eps / 2, against
        # the exact sum S on the same e and et.  The reference's terms meet
        # at most 3 roundings in W, 2 in the products and 2 size - 2 in its
        # two dense sums, all in long double: at most gamma_L(2 size + 3),
        # u_L = eps_L / 2.  So |h - r| is at most (N + 3) u + (2 size + 3) u_L
        # times S, to first order; the bound below, (N + 4) eps + (2 size + 4)
        # eps_L times r, is more than twice that, which covers the
        # second-order terms and S against r.  The mirror copies, so the
        # Hessian is symmetric bit for bit.
        net = tiny_network(w=[0.3, -0.2]) if shape is None else generate_network(*shape)
        obj = NetworkObjective(net)
        counts = np.bincount(kron_hessian_operator(net)["P"].indices, minlength=net.m ** 2)
        counts = counts.reshape(net.m, net.m)
        N = np.maximum(counts, counts.T)
        size = 2 * net.n
        rtol = (N + 4) * np.finfo(float).eps + (2 * size + 4) * np.finfo(np.longdouble).eps
        rng = np.random.default_rng(21)
        for box in (2.0, 8.0):
            for x in rng.uniform(-box, box, size=(20, net.m)):
                hess = obj.eval_f1(x)[2]
                assert hess.flags.c_contiguous
                assert hess.tobytes() == np.ascontiguousarray(hess.T).tobytes()
                reference = long_double_hessian(net, x)
                error = np.abs(hess.astype(np.longdouble) - reference)
                assert np.all(error <= rtol * reference)
        assert obj._hessian_op.P.data.size == nnz

    @settings(max_examples=200, deadline=None)
    @given(st.tuples(st.integers(1, 12), st.integers(1, 12)).flatmap(lambda shape: st.tuples(
        st.just(shape), st.lists(st.integers(0, shape[0] * shape[1] - 1), unique=True),
        st.sampled_from([np.int32, np.int64]))), st.integers(0, 2 ** 32 - 1))
    def test_operator_is_scipys_canonical_csr(self, case, seed):
        # distinct positions in any order give scipy's COO-to-CSR arrays
        shape, keys, dtype = case
        rows, cols = np.divmod(np.array(keys, dtype=np.intp), shape[1])
        data = np.random.default_rng(seed).standard_normal(rows.size)
        want = sp.coo_matrix((data, (rows, cols)), shape).tocsr()
        op = _operator(rows.astype(np.int32), cols, data, shape, dtype)
        assert op.shape == want.shape
        assert op.indptr.dtype == op.indices.dtype == dtype
        assert op.indptr.tolist() == want.indptr.tolist()
        assert op.indices.tolist() == want.indices.tolist()
        assert op.data.tobytes() == want.data.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.tuples(st.integers(1, 8), st.integers(1, 8)).flatmap(lambda shape: st.tuples(
        st.just(shape), st.lists(st.integers(0, shape[0] * shape[1] - 1), max_size=40),
        st.sampled_from([csr_matvec, csc_matvec]))), st.integers(0, 2 ** 32 - 1))
    def test_summed_sums_in_listing_order(self, case, seed):
        # repeated flat keys in any order: scipy's canonical arrays, each
        # entry the sum of its key's values in the order they are listed
        shape, keys, kernel = case
        keys = np.array(keys, dtype=np.intp)
        values = np.random.default_rng(seed).standard_normal(keys.size)
        op = biochem._summed(keys, values, shape, np.int32, kernel)
        n_major, width = shape if kernel is csr_matvec else shape[::-1]
        want = sp.coo_matrix((np.ones(keys.size), np.divmod(keys, width)), (n_major, width))
        want = want.tocsr()
        assert (op.shape, op.kernel) == (shape, kernel)
        assert op.indptr.dtype == op.indices.dtype == np.int32
        assert op.indptr.tolist() == want.indptr.tolist()
        assert op.indices.tolist() == want.indices.tolist()
        sums = {}
        for key, value in zip(keys.tolist(), values.tolist()):
            sums[key] = sums.get(key, 0.0) + value
        assert op.data.tobytes() == np.array([sums[k] for k in sorted(sums)]).tobytes()

    def test_operator_keys_pass_int32(self):
        # row 2**20's flat keys pass 2**31: int32 rows would wrap and sort
        # that row's entries first
        shape = (2 ** 20 + 1, 2 ** 12)
        op = _operator(np.array([2 ** 20, 0], dtype=np.int32), np.array([5, 7]),
                       np.array([1.0, 2.0]), shape, np.int64)
        assert op.indptr[[0, 1, -2, -1]].tolist() == [0, 1, 1, 2]
        assert op.indices.tolist() == [7, 5]
        assert op.data.tolist() == [2.0, 1.0]

    def test_no_product_goes_through_scipy(self, monkeypatch):
        # scipy's dispatch costs more than a network product's arithmetic:
        # no objective's build, no safe_exponent() (which builds P) and no
        # evaluator calls a scipy matrix's @
        net = generate_network(20, 30, seed=101)
        callers = []

        def counted(matmul):
            def call(self, other):
                callers.append(self)
                return matmul(self, other)
            return call

        for kind in (sp.csr_matrix, sp.csc_matrix):
            monkeypatch.setattr(kind, "__matmul__", counted(kind.__matmul__))
        NetworkObjective(net).safe_exponent()
        obj = NetworkObjective(net)
        prob = obj.as_dc_problem(rho=100.0)
        rng = np.random.default_rng(22)
        obj.eval_f1(rng.uniform(-2.0, 2.0, size=net.m))  # builds P
        for x in rng.uniform(-2.0, 2.0, size=(10, net.m)):
            for evaluate in (obj.f1_value, obj.f1_value_grad, obj.phi_value,
                             obj.phi_value_grad, obj.eval_f2, prob.grad_h, obj.eval_f1,
                             obj.eval_f1, prob.eval_g, prob.g_value_grad):
                evaluate(x)
        assert callers == []


MEMO_NET = generate_network(5, 7, seed=23)
MEMO_METHODS = ("rates", "f1_value", "f1_value_grad", "phi_value", "phi_value_grad",
                "eval_f1", "eval_f2")
# three finite points, the last two differing in one entry only, and
# one whose top exponent lies beyond EXP_GUARD
MEMO_POOL = (
    np.linspace(-1.0, 1.0, 5),
    np.array([0.4, -0.3, 0.2, 0.0, -0.5]),
    np.array([0.4, -0.3, 0.2, 0.0, -0.25]),
    np.full(5, 2.0 * EXP_GUARD),
)


def bits(result):
    """A result as bytes, so equal bits compare equal (and -0.0 != 0.0)."""
    parts = result if isinstance(result, tuple) else (result,)
    return tuple(np.asarray(part, dtype=float).tobytes() for part in parts)


def fresh_result(method, index):
    try:
        return bits(getattr(NetworkObjective(MEMO_NET), method)(MEMO_POOL[index].copy()))
    except EvaluationOverflow:
        return EvaluationOverflow


FRESH = {(method, index): fresh_result(method, index)
         for method in MEMO_METHODS for index in range(len(MEMO_POOL))}


class TestPointMemo:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(MEMO_METHODS),
                              st.integers(0, len(MEMO_POOL) - 1),
                              st.booleans()),
                    min_size=1, max_size=25))
    def test_interleaved_calls_match_fresh_objective(self, calls):
        # one caller-owned buffer, rewritten in place when `in_place`;
        # the memo must follow x's values, not the array's identity
        obj = NetworkObjective(MEMO_NET)
        buffer = MEMO_POOL[0].copy()
        for method, index, in_place in calls:
            if in_place:
                buffer[:] = MEMO_POOL[index]
                x = buffer
            else:
                x = MEMO_POOL[index].copy()
            expected = FRESH[method, index]
            if expected is EvaluationOverflow:
                with pytest.raises(EvaluationOverflow):
                    getattr(obj, method)(x)
            else:
                assert bits(getattr(obj, method)(x)) == expected
            assert np.array_equal(x, MEMO_POOL[index])

    def test_returned_arrays_are_read_only(self):
        # f1's gradient is shared by the point, so it is read-only; rates()
        # forms p and c anew per call, so writing into them changes no
        # later result
        obj = NetworkObjective(MEMO_NET)
        x = MEMO_POOL[1].copy()
        _, grad, _ = obj.eval_f1(x)
        with pytest.raises(ValueError):
            grad[0] = 0.0
        for part in obj.rates(x):
            part[:] = -1.0
        assert bits(obj.rates(x)) == FRESH["rates", 1]
        for method in MEMO_METHODS:
            assert bits(getattr(obj, method)(x)) == FRESH[method, 1], method

    def test_each_value_computed_once_per_flux(self, monkeypatch):
        # f1's record and phi's value are each computed at most once per
        # flux: a Newton step's full trial and its accepted point share f1's
        # record; y's phi and its slope, and a line search's accepted trial
        # and the next iterate, share phi's value
        fluxes, computed = Counter(), {"f1": Counter(), "phi": Counter()}
        flux = NetworkObjective._flux
        f1_record, phi_value = NetworkObjective._f1, NetworkObjective._phi_value

        def counted_flux(self, x):
            fluxes[x.tobytes()] += 1
            return flux(self, x)

        def counted_f1_record(self, point):
            computed["f1"][point.key] += point.f1 is None
            return f1_record(self, point)

        def counted_phi(self, point):
            computed["phi"][point.key] += point.phi is None
            return phi_value(self, point)

        monkeypatch.setattr(NetworkObjective, "_flux", counted_flux)
        monkeypatch.setattr(NetworkObjective, "_f1", counted_f1_record)
        monkeypatch.setattr(NetworkObjective, "_phi_value", counted_phi)
        problem = NetworkObjective(generate_network(20, 30, 101)).as_dc_problem(rho=100.0)
        x0 = np.random.default_rng(24).uniform(-2.0, 2.0, size=problem.m)
        result = solve(problem, x0, SolverConfig(variant="bdca-qi", max_outer_iters=40))
        assert not result.status.is_failure
        for name, counts in computed.items():
            assert counts, name
            assert all(counts[key] <= fluxes[key] for key in counts), name

    def test_value_only_ask_computes_only_the_value(self):
        # a halved inner trial asks for f1's value alone: it gets the bits
        # the record would hold, and no record is built for it
        obj = NetworkObjective(MEMO_NET)
        x = MEMO_POOL[1].copy()
        assert bits(obj.f1_value(x)) == FRESH["f1_value", 1]
        assert obj._point.f1 is None
        assert bits(obj.f1_value(x)) == bits(obj.eval_f1(x)[0]) == FRESH["f1_value", 1]
        assert obj._point.f1 is not None

    def test_overflow_keeps_last_point(self):
        obj = NetworkObjective(MEMO_NET)
        finite = MEMO_POOL[2]
        assert bits(obj.eval_f1(finite)) == FRESH["eval_f1", 2]
        for method in MEMO_METHODS:
            with pytest.raises(EvaluationOverflow):
                getattr(obj, method)(MEMO_POOL[3])
        for method in MEMO_METHODS:
            assert bits(getattr(obj, method)(finite)) == FRESH[method, 2]

    def test_edits_to_the_callers_w_change_no_value(self):
        # the network copies w as it copies F and R, and the objective owns
        # the w it evaluates, so no edit elsewhere can leave the memo stale
        source = generate_network(6, 9, 5)
        w = source.w.copy()
        network = ReactionNetwork(6, 9, source.F, source.R, w)
        obj, x, elsewhere = NetworkObjective(network), np.zeros(6), np.ones(6)
        expected = bits(NetworkObjective(source).phi_value(x))
        assert bits(obj.phi_value(x)) == expected
        w += 1.0
        network.w += 1.0
        assert bits(obj.phi_value(x)) == expected
        obj.phi_value(elsewhere)
        assert bits(obj.phi_value(x)) == expected
        assert np.array_equal(network.w, source.w + 1.0)

    @pytest.mark.parametrize("shape", [(4,), (6,), (5, 1), ()])
    def test_point_of_another_shape_is_refused(self, shape):
        # the products after _at run unchecked, so x's shape is checked
        # there, before any of them can read past a vector
        obj = NetworkObjective(MEMO_NET)
        for method in MEMO_METHODS:
            with pytest.raises(ValueError, match="network expects"):
                getattr(obj, method)(np.zeros(shape))
        assert obj._point is None


# 4 species, 2 reactions; with masses l, reaction 0's imbalance is
# -2 l0 + 2 l1 - l2 + l3 and reaction 1's l0 - l1 + l2 - l3
HEAVY_MODEL = {
    "name": "heavy", "m": 4, "n": 2,
    "F": [[0, 0, 2], [2, 0, 1], [1, 1, 1], [3, 1, 1]],
    "R": [[1, 0, 2], [3, 0, 1], [0, 1, 1], [2, 1, 1]],
    "w": [0.0, 0.0, 0.0, 0.0],
}


def heavy_network(tmp_path):
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps(HEAVY_MODEL))
    return load_network(path)


class TestConservation:
    def test_generated_networks_exact(self):
        for seed in range(5):
            net = generate_network(10, 15, seed=seed)
            residual, l = check_mass_conservation(net)
            assert residual == 0.0
            assert np.all(l == 1.0)
            # column sums of F and R agree exactly in integer arithmetic
            delta = (net.R - net.F).T @ np.ones(net.m)
            assert np.all(delta == 0)

    def test_unbalanced_detected(self):
        net = tiny_network()
        residual, _ = check_mass_conservation(net)
        assert residual == 1.0

    def test_custom_masses(self):
        net = generate_network(8, 10, seed=9)
        residual, l = check_mass_conservation(net, 2.0 * np.ones(net.m))
        assert residual == 0.0
        assert np.all(l == 2.0)
        with pytest.raises(ValueError):
            check_mass_conservation(net, np.zeros(net.m))
        with pytest.raises(ValueError):
            check_mass_conservation(net, -np.ones(net.m))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_mass_raises(self, bad):
        # a NaN mass made the residual NaN, which no "residual > 0" test sees
        net = generate_network(8, 10, seed=9)
        masses = np.ones(net.m)
        masses[3] = bad
        with pytest.raises(ValueError, match="positive and finite"):
            check_mass_conservation(net, masses)

    @pytest.mark.parametrize("masses,residual", [
        # each column's terms overflow on their way to cancelling: the
        # residual was NaN, which no "residual > 0" test sees
        ([1e308, 1e308, 1.0, 1.0], 0.0),
        ([1e308, 0.95e308, 1.0, 1.0],
         pytest.approx(float(2 * (Fraction(1e308) - Fraction(0.95e308))), rel=1e-15)),
        # an imbalance past the largest float
        ([1.7e308, 1.0, 1.0, 1.0], np.inf),
    ])
    def test_overflowing_terms_still_sum(self, tmp_path, masses, residual):
        net = heavy_network(tmp_path)
        assert check_mass_conservation(net, masses)[0] == residual

    @pytest.mark.parametrize("masses", [[1.0, 0.95, 1.0, 1.0], [1e307, 0.95e307, 1.0, 1.0],
                                        [3.0, 1e-300, 2.0, 5.0]])
    def test_finite_residuals_keep_their_bits(self, tmp_path, masses):
        net = heavy_network(tmp_path)
        plain = float(np.abs((net.R - net.F).T @ np.array(masses)).max())
        assert np.isfinite(plain)
        assert check_mass_conservation(net, masses)[0] == plain

    def test_mass_past_the_largest_float_raises(self):
        # an integer past the largest float escaped as OverflowError
        net = generate_network(3, 4, seed=1)
        with pytest.raises(ValueError, match="positive and finite"):
            check_mass_conservation(net, [10 ** 400, 1, 1])

    def test_net_rate_jacobian_left_kernel(self):
        # mass conservation makes the summed component gradients of the
        # net rate vanish identically
        rng = np.random.default_rng(16)
        net = generate_network(9, 14, seed=10)
        F = net.F.toarray().astype(float)
        R = net.R.toarray().astype(float)
        B = np.vstack([F.T, R.T])
        A = np.hstack([F, R]) - np.hstack([R, F])
        for _ in range(5):
            x = rng.uniform(-1.0, 1.0, size=net.m)
            e = np.exp(net.w + B @ x)
            jac = A @ (e[:, None] * B)
            kernel = jac.T @ np.ones(net.m)
            assert np.linalg.norm(kernel) <= 1e-8 * np.linalg.norm(jac)


# -- the generator as it was, with a set and a sort per reaction, kept as
# the reference that generate_network must match bit for bit

REFERENCE_COEFFS = np.array((1, 2, 3), dtype=np.int64)


def reference_generate(m, n, seed):
    if m < 2:
        raise ValueError("need at least two species")
    if n < 1:
        raise ValueError("need at least one reaction")
    rng = np.random.default_rng(seed)
    for _ in range(50):
        built = reference_generate_once(m, n, rng)
        if built is None:
            continue
        F, R = built
        w = rng.uniform(-1.0, 1.0, size=2 * n)
        return ReactionNetwork(m=m, n=n, F=F, R=R, w=w, name=f"synthetic_m{m}_n{n}_s{seed}")
    raise GenerationError(
        f"could not cover all {m} species on both sides with {n} reactions in 50 attempts")


def reference_generate_once(m, n, rng):
    rows_f, cols_f, vals_f = [], [], []
    rows_r, cols_r, vals_r = [], [], []
    need_f = set(range(m))
    need_r = set(range(m))
    for j in range(n):
        f_side, r_side = reference_draw_reaction(m, rng, need_f, need_r)
        for i, v in f_side:
            rows_f.append(i); cols_f.append(j); vals_f.append(v)
            need_f.discard(i)
        for i, v in r_side:
            rows_r.append(i); cols_r.append(j); vals_r.append(v)
            need_r.discard(i)
    if need_f or need_r:
        return None
    F = sp.coo_matrix((vals_f, (rows_f, cols_f)), shape=(m, n), dtype=np.int64).tocsr()
    R = sp.coo_matrix((vals_r, (rows_r, cols_r)), shape=(m, n), dtype=np.int64).tocsr()
    return F, R


def reference_pick(rng, preferred, fallback, count):
    preferred = sorted(preferred)
    chosen = [preferred[i] for i in rng.choice(len(preferred), min(count, len(preferred)),
                                               replace=False)] if preferred else []
    if len(chosen) < count:
        rest = sorted(set(fallback) - set(chosen))
        chosen += [rest[i] for i in rng.choice(len(rest), count - len(chosen), replace=False)]
    return chosen


def reference_draw_reaction(m, rng, need_f, need_r):
    top = int(REFERENCE_COEFFS.max())
    kf_max = min(2, m - 1)
    kf = int(rng.integers(1, kf_max + 1))
    if len(need_f) >= 2:
        kf = kf_max
    f_species = reference_pick(rng, need_f, range(m), kf)
    pool = sorted(set(range(m)) - set(f_species))
    kr_max = min(2, len(pool))
    for _ in range(8):
        f_coeffs = REFERENCE_COEFFS[rng.integers(0, REFERENCE_COEFFS.size, size=kf)]
        total = int(f_coeffs.sum())
        lo = -(-total // top)
        hi = min(kr_max, total)
        if lo <= hi:
            break
    else:
        f_coeffs = np.ones(kf, dtype=np.int64)
        total = kf
        lo, hi = 1, min(kr_max, total)
    want_two = len(need_r - set(f_species)) >= 2 and lo <= 2 <= hi
    kr = 2 if want_two else int(rng.integers(lo, hi + 1))
    r_species = reference_pick(rng, need_r - set(f_species), pool, kr)
    if kr == 1:
        r_coeffs = [total]
    else:
        first = int(rng.integers(max(1, total - top), min(top, total - 1) + 1))
        r_coeffs = [first, total - first]
    return (list(zip(f_species, (int(v) for v in f_coeffs))),
            list(zip(r_species, (int(v) for v in r_coeffs))))


def generated(generate, m, n, seed):
    """Every array of the network, with its dtype, and its name; or the
    type and message of what generation raised."""
    try:
        net = generate(m, n, seed)
    except (GenerationError, ValueError) as exc:
        return type(exc), str(exc)
    arrays = [(a.dtype.str, a.tobytes()) for mat in (net.F, net.R)
              for a in (mat.indptr, mat.indices, mat.data)]
    return arrays, net.w.dtype.str, net.w.tobytes(), net.name


def digest_of(networks):
    digest = hashlib.sha256()
    for net in networks:
        for part in (net.F.toarray().astype(np.int64), net.R.toarray().astype(np.int64), net.w):
            digest.update(np.ascontiguousarray(part).tobytes())
    return digest.hexdigest()


# A driven ring A <-> B <-> C <-> A: reaction j turns species j into species
# j + 1 (mod 3) at rate K_FWD[j] c_j and back at K_REV[j] c_{j+1}.  The
# product of the forward constants is not the reverse one's, so the steady
# state carries a net flux around the cycle: it is not an equilibrium.
RING_K_FWD, RING_K_REV = np.array([2.0, 3.0, 5.0]), np.ones(3)


def ring_network():
    j = np.arange(3)
    ones = np.ones(3, dtype=np.int64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no SchemaWarning may fire
        return ReactionNetwork(m=3, n=3, F=sp.csr_matrix((ones, (j, j)), shape=(3, 3)),
                               R=sp.csr_matrix((ones, ((j + 1) % 3, j)), shape=(3, 3)),
                               w=np.log(np.concatenate([RING_K_FWD, RING_K_REV])),
                               name="driven_ring")


def ring_kinetics():
    """The ring's linear kinetics dc/dt = K c, written from the reactions
    above with no dcboost code."""
    K = np.zeros((3, 3))
    for j in range(3):
        a, b = j, (j + 1) % 3
        K[[a, b], a] += [-RING_K_FWD[j], RING_K_FWD[j]]
        K[[a, b], b] += [RING_K_REV[j], -RING_K_REV[j]]
    return K


class TestDrivenRing:
    """A textbook network whose steady state is known without dcboost: the
    kinetics are linear, so the steady concentrations span K's null space,
    which an SVD gives."""

    @pytest.mark.parametrize("variant", ["dca", "bdca-b", "bdca-qi", "fm"])
    def test_every_variant_reaches_the_null_space(self, variant):
        _, sigma, vt = np.linalg.svd(ring_kinetics())
        oracle = np.abs(vt[2]) / np.abs(vt[2]).sum()  # c* / sum(c*), positive
        flux = RING_K_FWD * oracle - RING_K_REV * np.roll(oracle, -1)
        assert flux == pytest.approx(0.659, abs=5e-4)  # J*, the same on every reaction
        obj = NetworkObjective(ring_network())
        x0 = np.random.default_rng([0, 3]).uniform(-2.0, 2.0, 3)
        result = solve(obj.as_dc_problem(rho=100.0), x0,
                       SolverConfig(variant=variant, max_outer_iters=2000))
        print(f"driven ring {variant}: {result.status.value} in {result.iterations} iterations")
        assert not result.status.is_failure, result.message
        p, c, f = obj.rates(result.x_final)
        assert np.linalg.norm(f) <= 1e-6 * np.linalg.norm(p + c)
        # f = -K conc for conc = exp(x), up to rounding: f_i adds four rates
        # exp(log k + x_j), each with a rounded exponent below 10 in size for
        # |x| < 8, so 16 eps ||p + c|| covers it.  Split conc into s c* along
        # the null space and r across it: ||K r|| = ||K conc|| and ||K r|| >=
        # sigma_2 ||r||, K's smallest nonzero singular value.  conc / sum(conc)
        # - c* / sum(c*) = (r sum(c*) - c* sum(r)) / (sum(c*) sum(conc)), and
        # |sum(r)| <= sqrt(3) ||r||, c*_i <= sum(c*): each entry is within
        # (1 + sqrt(3)) ||r|| / sum(conc).
        assert np.abs(result.x_final).max() < 8.0
        conc = np.exp(result.x_final)
        kinetics = np.linalg.norm(f) + 16.0 * np.finfo(float).eps * np.linalg.norm(p + c)
        bound = (1.0 + np.sqrt(3.0)) * kinetics / (sigma[1] * conc.sum())
        share = conc / conc.sum()
        assert np.abs(share - oracle).max() <= bound
        # the net flux of each reaction per unit of total concentration: within
        # (k_fwd + k_rev) bound of J*, so away from 0
        net_flux = RING_K_FWD * share - RING_K_REV * np.roll(share, -1)
        assert np.all(np.abs(net_flux - flux) <= (RING_K_FWD + RING_K_REV) * bound)
        assert net_flux.min() > 0.5


# A driven enzyme cycle E + S <-> ES <-> E + P, P <-> S: the product of the
# forward constants over the reverse ones is 1600, not 1, so its steady
# states carry a net flux S -> ES -> P -> S.  Two totals are conserved,
# E + ES and S + ES + P, so each conservation class has its own steady state.
CYCLE_K_FWD, CYCLE_K_REV = np.array([10.0, 4.0, 2.0]), np.array([1.0, 0.5, 0.1])
CYCLE_E, CYCLE_S, CYCLE_ES, CYCLE_P = range(4)
CYCLE_REACTANTS = ((CYCLE_E, CYCLE_S), (CYCLE_ES,), (CYCLE_P,))
CYCLE_PRODUCTS = ((CYCLE_ES,), (CYCLE_E, CYCLE_P), (CYCLE_S,))
CYCLE_CONSERVED = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 1.0, 1.0]])  # E + ES, S + ES + P


def cycle_network():
    def side(sides):
        rows = [i for species in sides for i in species]
        cols = [j for j, species in enumerate(sides) for _ in species]
        return sp.csr_matrix((np.ones(len(rows), dtype=np.int64), (rows, cols)), shape=(4, 3))

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no SchemaWarning may fire
        return ReactionNetwork(m=4, n=3, F=side(CYCLE_REACTANTS), R=side(CYCLE_PRODUCTS),
                               w=np.log(np.concatenate([CYCLE_K_FWD, CYCLE_K_REV])),
                               name="enzyme_cycle")


def cycle_rates(conc):
    """Each reaction's forward and reverse mass-action rate, written from
    the reactions above with no dcboost code."""
    fwd = CYCLE_K_FWD * np.array([conc[list(s)].prod() for s in CYCLE_REACTANTS])
    rev = CYCLE_K_REV * np.array([conc[list(s)].prod() for s in CYCLE_PRODUCTS])
    return fwd, rev


def cycle_model(totals):
    """The residual and Jacobian, in log-concentrations y, of the dense
    steady-state system in the class with the given conserved totals: dc/dt
    for the four species, then E + ES and S + ES + P less their totals."""
    def residual(y):
        conc = np.exp(y)
        fwd, rev = cycle_rates(conc)
        dc = np.zeros(4)
        for j in range(3):
            dc[list(CYCLE_REACTANTS[j])] -= fwd[j] - rev[j]
            dc[list(CYCLE_PRODUCTS[j])] += fwd[j] - rev[j]
        return np.concatenate([dc, CYCLE_CONSERVED @ conc - totals])

    def jacobian(y):
        conc = np.exp(y)
        fwd, rev = cycle_rates(conc)
        jac = np.zeros((6, 4))
        for j in range(3):
            dv = np.zeros(4)  # the net rate's gradient in y
            dv[list(CYCLE_REACTANTS[j])] += fwd[j]
            dv[list(CYCLE_PRODUCTS[j])] -= rev[j]
            jac[list(CYCLE_REACTANTS[j])] -= dv
            jac[list(CYCLE_PRODUCTS[j])] += dv
        jac[4:] = CYCLE_CONSERVED * conc
        return jac

    return residual, jacobian


class TestDrivenEnzymeCycle:
    """A driven enzyme cycle, checked against SciPy's least_squares on the
    dense mass-action model within the end point's conservation class."""

    @pytest.mark.parametrize("variant", ["dca", "bdca-b", "bdca-qi", "fm"])
    def test_every_variant_reaches_the_steady_state(self, variant):
        obj = NetworkObjective(cycle_network())
        x0 = np.random.default_rng([0, 4]).uniform(-2.0, 2.0, 4)
        result = solve(obj.as_dc_problem(rho=100.0), x0,
                       SolverConfig(variant=variant, max_outer_iters=2000))
        print(f"enzyme cycle {variant}: {result.status.value} in {result.iterations} iterations")
        assert not result.status.is_failure, result.message
        p, c, f = obj.rates(result.x_final)
        assert np.linalg.norm(f) <= 1e-6 * np.linalg.norm(p + c)

        x = result.x_final
        residual, jacobian = cycle_model(CYCLE_CONSERVED @ np.exp(x))
        oracle = least_squares(residual, np.zeros(4), jac=jacobian, method="lm",
                               xtol=1e-15, ftol=1e-15, gtol=1e-15)
        assert oracle.success, oracle.message
        y = oracle.x
        # residual(x) - residual(y) = Jbar (x - y), Jbar the mean Jacobian on
        # the segment, so |x - y| <= (|residual(x)| + |residual(y)|) / sigma_min(Jbar).
        # sigma_min(Jbar) >= sigma_min(J(y)) / 2 while J moves by less than
        # half of sigma_min(J(y)) on the segment, which the second assert below
        # checks at x; each rate's rounding, 16 eps of the rates' sum, is added.
        sigma = np.linalg.svd(jacobian(y), compute_uv=False)[-1]
        fwd, rev = cycle_rates(np.exp(x))
        rounding = 16.0 * np.finfo(float).eps * (fwd + rev).sum()
        bound = 2.0 * (np.linalg.norm(residual(x)) + np.linalg.norm(residual(y))
                       + rounding) / sigma
        assert np.abs(x - y).max() <= bound
        assert np.linalg.norm(jacobian(x) - jacobian(y), 2) <= sigma / 2.0
        # each reaction's net rate is within (fwd + rev) (e^(2 bound) - 1) of the
        # oracle's, at most two species on a side, and all three carry the cycle
        # flux J*, far from 0
        fwd_y, rev_y = cycle_rates(np.exp(y))
        flux = fwd_y - rev_y
        assert flux == pytest.approx(np.full(3, flux.mean()), rel=1e-9)
        assert np.all(np.abs((fwd - rev) - flux) <= (fwd_y + rev_y) * np.expm1(2.0 * bound))
        assert (fwd - rev).min() > flux.mean() / 2.0 > 0.0


class TestGenerator:
    def test_deterministic(self):
        a = generate_network(12, 18, seed=21)
        b = generate_network(12, 18, seed=21)
        assert a == b
        assert np.array_equal(a.w, b.w)
        c = generate_network(12, 18, seed=22)
        assert not (a == c and np.array_equal(a.w, c.w))

    def test_structure_contract(self):
        net = generate_network(10, 16, seed=23)
        F, R = net.F, net.R
        assert F.shape == (10, 16) and R.shape == (10, 16)
        # coefficients from the fixed palette
        assert set(F.data) <= {1, 2, 3}
        assert set(R.data) <= {1, 2, 3}
        # disjoint forward/reverse support per reaction
        assert (F.multiply(R)).nnz == 0
        # small arities
        fcol = np.diff(F.tocsc().indptr)
        rcol = np.diff(R.tocsc().indptr)
        assert np.all(fcol >= 1) and np.all(fcol <= 2)
        assert np.all(rcol >= 1)
        # weights inside the fixed box
        assert net.w.shape == (32,)
        assert np.all(net.w >= -1.0) and np.all(net.w <= 1.0)
        # every species plays both roles somewhere (no warnings fired)
        assert np.all(np.diff(F.tocsr().indptr) > 0)
        assert np.all(np.diff(R.tocsr().indptr) > 0)

    def test_impossible_request_raises(self):
        # with two species and one reaction, one side can never cover
        # both species
        with pytest.raises(GenerationError):
            generate_network(2, 1, seed=25)

    def test_pinned_digest(self):
        # perfbench/reference.json and the C6 test depend on these networks
        # keeping every bit: the five C6 sizes and the CLI tests' (6, 9, 5)
        digest = hashlib.sha256()
        for m, n, seed in ((20, 30, 101), (30, 45, 102), (40, 60, 103),
                           (60, 90, 104), (80, 120, 105), (6, 9, 5)):
            net = generate_network(m, n, seed)
            assert net.name == f"synthetic_m{m}_n{n}_s{seed}"
            for part in (net.F.toarray().astype(np.int64),
                         net.R.toarray().astype(np.int64), net.w):
                digest.update(np.ascontiguousarray(part).tobytes())
        assert digest.hexdigest() == (
            "c4410a67af18eb5d44190f7d3f2c80742959a4543f30fec47d2cd84d1135c4e5")

    def test_pinned_digest_of_small_networks(self):
        # small sizes, down to pools of one species: 526 of the 804 _pick
        # calls made here take its fallback branch
        digest = hashlib.sha256()
        for m in range(3, 9):
            for n in (m, 2 * m):
                for seed in range(4):
                    net = generate_network(m, n, seed)
                    for part in (net.F.toarray().astype(np.int64),
                                 net.R.toarray().astype(np.int64), net.w):
                        digest.update(np.ascontiguousarray(part).tobytes())
        assert digest.hexdigest() == (
            "5eea459ba49665a6d40bf0a32af9e89e1eb3683546c683338c343026e108fc91")

    @pytest.mark.parametrize("generate", [generate_network, reference_generate],
                             ids=["generator", "reference"])
    def test_pinned_digest_of_large_networks(self, generate):
        # recorded with the set-and-sort generator that reference_generate
        # keeps, so the reference cannot drift unseen either
        assert digest_of(generate(m, n, seed) for m, n, seed in
                         ((200, 300, 107), (400, 600, 109))) == (
            "9e6333ea55ff36ce5d98925e2a793c3713d1ed7f809a83ccb334a2bf66c24df9")

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 60).flatmap(lambda m: st.tuples(
        st.just(m), st.integers(1, 3 * m), st.integers(min_value=0))))
    @example((2, 1, 0))  # two species never cover both sides of one reaction
    @example((1, 4, 0))
    @example((5, 0, 0))
    def test_matches_the_reference(self, case):
        ours, reference = generated(generate_network, *case), generated(reference_generate, *case)
        m, n, _ = case
        if m >= 2 and n >= 1 and n * min(2, m - 1) < m:
            # refused before any draw, with a message of its own
            assert ours[0] is reference[0] is GenerationError
        else:
            assert ours == reference

    @pytest.mark.parametrize("count", [1, 2])
    def test_sample_makes_the_draws_of_choice(self, count):
        # the generator's picks rest on this: NumPy's choice without
        # replacement takes Floyd's branch for a count of at most 2 at every
        # pool size, its tail shuffle needing more than 10,000 items and a
        # count above size // 50; sizes run past that threshold to 20,000
        sizes = sorted({*range(count, 64), 9_999, 10_000, 10_001, 20_000,
                        *np.geomspace(64, 20_000, 40).astype(int).tolist()})
        for seed in range(100):
            ours, numpy_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for size in sizes:
                assert biochem._sample(ours, size, count) == (
                    numpy_rng.choice(size, count, replace=False).tolist()), (seed, size)
                assert ours.random() == numpy_rng.random()
            assert ours.bit_generator.state == numpy_rng.bit_generator.state

    def test_scalar_integers_make_the_draws_of_a_sized_call(self):
        # the forward coefficients are drawn one scalar integers(0, 3) at a
        # time, and must be the draws of one sized call
        for seed in range(40):
            ours, numpy_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for k in (1, 2, 3, 5, 8, 1, 2):
                assert [int(ours.integers(0, 3)) for _ in range(k)] == (
                    numpy_rng.integers(0, 3, size=k).tolist()), (seed, k)
                assert ours.random() == numpy_rng.random()
            assert ours.bit_generator.state == numpy_rng.bit_generator.state

    def test_infeasible_shape_raises_before_any_draw(self, monkeypatch):
        # three reactions of at most two species per side cannot cover seven
        def attempt(*args):
            raise AssertionError("an infeasible shape was drawn")

        monkeypatch.setattr(biochem, "_generate_once", attempt)
        with pytest.raises(GenerationError, match=r"needs n \* 2 >= 7"):
            generate_network(7, 3, seed=0)

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            generate_network(1, 4, seed=0)
        with pytest.raises(ValueError):
            generate_network(5, 0, seed=0)


def canonical(mat):
    """ReactionNetwork's coercion as it was, with a copy per step."""
    mat = sp.csr_matrix(mat, copy=True)
    mat.sum_duplicates()
    mat = mat.astype(np.int64)
    mat.eliminate_zeros()
    return mat


def reference_cardinality_warnings(F, R):
    """The warnings that the net matrix R - F gives on canonical F and R."""
    messages = []
    silent = np.flatnonzero((np.diff(F.indptr) == 0) | (np.diff(R.indptr) == 0))
    if silent.size:
        messages.append(f"species {silent.tolist()} lack a forward or reverse role")
    net = (R - F).tocsc()
    net.eliminate_zeros()
    thin = np.flatnonzero(np.diff(net.indptr) < 2)
    if thin.size:
        messages.append(f"reactions {thin.tolist()} move fewer than two species")
    return messages


@st.composite
def non_canonical_csr(draw, m, n):
    """A CSR matrix whose rows keep duplicates, explicit zeros and columns
    out of order; coefficients 0..2 make entries equal in F and R often."""
    entries = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1),
                                      st.integers(0, 2)), max_size=3 * m))
    entries.sort(key=lambda entry: entry[0])  # by row only: stable within a row
    rows = [i for i, _, _ in entries]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=m))]).astype(np.int32)
    return sp.csr_matrix(([v for _, _, v in entries], [j for _, j, _ in entries], indptr),
                         shape=(m, n))


@st.composite
def cardinality_cases(draw):
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    return m, n, draw(non_canonical_csr(m, n)), draw(non_canonical_csr(m, n))


class TestSchema:
    def test_round_trip(self, tmp_path):
        net = generate_network(9, 13, seed=31)
        path = tmp_path / "model.json"
        save_network(net, path)
        loaded = load_network(path)
        assert loaded == net
        assert np.array_equal(loaded.w, net.w)
        assert loaded.name == net.name

    def test_non_canonical_input_round_trips(self, tmp_path):
        # a duplicate kept in F would be saved as two triplets, which
        # load_network refuses as a duplicate entry
        net = non_canonical_network()
        assert net.F.has_canonical_format and net.R.has_canonical_format
        path = tmp_path / "model.json"
        save_network(net, path)
        assert json.loads(path.read_text())["F"] == [[0, 0, 2], [1, 1, 1], [2, 0, 2]]
        loaded = load_network(path)
        assert loaded == net
        assert loaded.F.toarray().tolist() == CANONICAL_F
        assert loaded.R.toarray().tolist() == CANONICAL_R

    def test_missing_field(self, tmp_path):
        net = generate_network(6, 8, seed=32)
        path = tmp_path / "model.json"
        save_network(net, path)
        data = json.loads(path.read_text())
        del data["w"]
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaError) as exc:
            load_network(path)
        assert exc.value.field == "w"

    def test_unknown_field_is_refused(self, tmp_path):
        # a misspelt "name" used to load as the default name, silently
        path = tmp_path / "model.json"
        save_network(generate_network(6, 9, 5), path)
        data = json.loads(path.read_text())
        data.update(nmae="typo", rho=5)
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaError, match="nmae: unknown field") as exc:
            load_network(path)
        assert exc.value.field == "nmae"

    def test_file_that_is_not_text(self, tmp_path):
        # a UnicodeDecodeError used to escape as a plain ValueError
        path = tmp_path / "model.json"
        path.write_bytes(b"\xff{")
        with pytest.raises(SchemaError, match="not valid JSON") as exc:
            load_network(path)
        assert exc.value.field == "file"

    def test_bad_triplets(self, tmp_path):
        net = generate_network(6, 8, seed=33)
        path = tmp_path / "model.json"

        def corrupt(mutate):
            save_network(net, path)
            data = json.loads(path.read_text())
            mutate(data)
            path.write_text(json.dumps(data))
            with pytest.raises(SchemaError):
                load_network(path)

        corrupt(lambda d: d["F"].append([99, 0, 1]))       # row out of range
        corrupt(lambda d: d["F"].append([0, 99, 1]))       # column out of range
        corrupt(lambda d: d["F"].__setitem__(0, d["F"][0][:2]))   # arity
        corrupt(lambda d: d["F"].append(list(d["F"][0])))  # duplicate entry
        corrupt(lambda d: d["F"].__setitem__(0, [d["F"][0][0], d["F"][0][1], 0]))
        corrupt(lambda d: d.__setitem__("w", d["w"][:-1]))  # wrong length
        corrupt(lambda d: d.__setitem__("m", -2))

    @pytest.mark.parametrize("field,value,message", [
        (None, [1, 2], "top level must be an object"),
        ("name", 7, "must be a string"),
        ("w", "a", "entries must be numbers"),
        ("w", float("nan"), "entries must be finite"),
        ("F", {"0": 1}, "must be a list of"),
        # true and "1.5" loaded as numbers, null as NaN, and an integer
        # past the largest float escaped as OverflowError
        ("w", True, "entries must be numbers"),
        ("w", "1.5", "entries must be numbers"),
        ("w", None, "entries must be numbers"),
        ("w", 10 ** 400, "entries must be finite"),
    ], ids=["top", "name", "w-string", "w-nan", "F", "w-true", "w-numeric-string", "w-null",
            "w-huge-int"])
    def test_malformed_fields(self, tmp_path, field, value, message):
        net = generate_network(6, 8, seed=33)
        path = tmp_path / "model.json"
        save_network(net, path)
        data = json.loads(path.read_text())
        if field is None:
            data = value
        elif field == "w":
            data["w"][0] = value
        else:
            data[field] = value
        path.write_text(json.dumps(data))  # a NaN as the token json.load accepts
        with pytest.raises(SchemaError, match=message) as exc:
            load_network(path)
        assert exc.value.field == (field or "file")

    @pytest.mark.parametrize("field,mutate,message", [
        ("F", lambda d: d["F"][0].__setitem__(2, 10 ** 30), "at most 9223372036854775807"),
        ("R", lambda d: d["R"][0].__setitem__(2, INT64_MAX + 1), "at most"),
        ("m", lambda d: d.__setitem__("m", 10 ** 30), "positive integer up to"),
        ("n", lambda d: d.__setitem__("n", INT64_MAX + 1), "positive integer up to"),
    ], ids=["F-huge", "R-past-int64", "m-huge", "n-past-int64"])
    def test_integers_past_int64_are_refused(self, tmp_path, field, mutate, message):
        # each escaped as OverflowError from the int64 conversion
        net = generate_network(6, 8, seed=33)
        path = tmp_path / "model.json"
        save_network(net, path)
        data = json.loads(path.read_text())
        mutate(data)
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaError, match=message) as exc:
            load_network(path)
        assert exc.value.field == field

    def test_largest_int64_coefficient_loads(self, tmp_path):
        net = generate_network(6, 8, seed=33)
        path = tmp_path / "model.json"
        save_network(net, path)
        data = json.loads(path.read_text())
        data["F"][0][2] = INT64_MAX
        path.write_text(json.dumps(data))
        assert load_network(path).F.max() == INT64_MAX

    def test_cardinality_warnings(self):
        # species 0 never appears reversed, species 1 never forward
        F = sp.csr_matrix(np.array([[2], [0]]))
        R = sp.csr_matrix(np.array([[0], [2]]))
        with pytest.warns(SchemaWarning):
            ReactionNetwork(m=2, n=1, F=F, R=R, w=np.zeros(2))

    def test_cardinality_warnings_point_at_the_caller(self):
        # both used to point at the __init__ the dataclass generates
        with pytest.warns(SchemaWarning) as rec:
            ReactionNetwork(m=2, n=1, F=[[1], [0]], R=[[0], [0]], w=np.zeros(2))
        assert len(rec) == 2
        assert [w.filename for w in rec] == [__file__, __file__]

    @settings(max_examples=300, deadline=None)
    @given(cardinality_cases())
    def test_cardinality_warnings_match_the_net_matrix_count(self, case):
        m, n, F, R = case
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            net = ReactionNetwork(m=m, n=n, F=F, R=R, w=np.zeros(2 * n))
        assert all(issubclass(w.category, SchemaWarning) for w in caught)
        canonical_F, canonical_R = canonical(F), canonical(R)
        assert [str(w.message) for w in caught] == reference_cardinality_warnings(
            canonical_F, canonical_R)
        assert csr_arrays(net.F) == csr_arrays(canonical_F)
        assert csr_arrays(net.R) == csr_arrays(canonical_R)

    @pytest.mark.parametrize("F", [
        sp.csr_matrix(np.array([[2 ** 64 - 1, 0], [0, 1]], dtype=np.uint64)),
        sp.csr_matrix([[1e20, 0.0], [0.0, 1.0]]),
        sp.csr_matrix([[2.0 ** 63, 0.0], [0.0, 1.0]]),
    ], ids=["uint64", "float", "float-2**63"])
    def test_coefficients_past_int64_are_refused(self, F):
        # each was cast to a negative int64 and evaluated
        R = sp.csr_matrix([[0, 1], [1, 0]])
        with pytest.raises(ValueError, match=f"F must have entries of at most {INT64_MAX}"):
            ReactionNetwork(m=2, n=2, F=F, R=R, w=np.zeros(4))

    def test_largest_float_coefficient_below_int64_loads(self):
        # 2**63 - 1024 is the largest float below 2**63, and INT64_MAX
        # rounds to 2**63 as a float
        F = sp.csr_matrix([[2.0 ** 63 - 1024, 0.0], [0.0, 1.0]])
        net = ReactionNetwork(m=2, n=2, F=F, R=sp.csr_matrix([[0, 1], [1, 0]]), w=np.zeros(4))
        assert net.F.data.tolist() == [2 ** 63 - 1024, 1]
        assert net.F.dtype == np.int64

    def test_rejects_negative_or_fractional(self):
        with pytest.raises(ValueError):
            ReactionNetwork(m=1, n=1, F=sp.csr_matrix(np.array([[-1]])),
                            R=sp.csr_matrix(np.array([[1]])), w=np.zeros(2))
        with pytest.raises(ValueError):
            ReactionNetwork(m=1, n=1, F=sp.csr_matrix(np.array([[0.5]])),
                            R=sp.csr_matrix(np.array([[1.0]])), w=np.zeros(2))

    def test_rounds_near_integer_stoichiometry(self):
        # truncation would store F's 2.9999999 as 2 and break the balance
        # with R's 3.0000001
        net = ReactionNetwork(m=2, n=2, F=sp.csr_matrix(np.array([[2.9999999, 0.0],
                                                                  [0.0, 3.0]])),
                              R=sp.csr_matrix(np.array([[0.0, 3.0],
                                                        [3.0000001, 0.0]])),
                              w=np.zeros(4))
        assert net.F.dtype == net.R.dtype == np.int64
        assert net.F.toarray().tolist() == [[3, 0], [0, 3]]
        assert net.R.toarray().tolist() == [[0, 3], [3, 0]]
        assert check_mass_conservation(net)[0] == 0.0
        # the tolerance does not grow with the coefficient: a relative one
        # stored 100000.4 as 100000 while it rejected 1000.4
        for fractional in (2.5, 1000.4, 100000.4, np.inf):
            with pytest.raises(ValueError, match="integer stoichiometry"):
                ReactionNetwork(m=1, n=1, F=sp.csr_matrix(np.array([[fractional]])),
                                R=sp.csr_matrix(np.array([[1.0]])), w=np.zeros(2))

    def test_rejects_bad_weights(self):
        F = sp.csr_matrix(np.array([[1]]))
        R = sp.csr_matrix(np.array([[2]]))
        with pytest.raises(ValueError):
            ReactionNetwork(m=1, n=1, F=F, R=R, w=np.zeros(3))
        with pytest.raises(ValueError):
            ReactionNetwork(m=1, n=1, F=F, R=R, w=np.array([np.nan, 0.0]))
