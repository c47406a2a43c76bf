"""Reaction networks: evaluation oracles, generator contract, JSON schema.

The reference implementation in this file recomputes everything with
dense numpy arrays straight from the matrix definitions: exponent
matrix stacks the transposed stoichiometries, production collects
[F, R], consumption [R, F], and the residual is their difference.
"""

import hashlib
import json
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
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
        top = float(obj.exponents(x).max())
        assert 399.0 < top < 401.0
        with pytest.raises(EvaluationOverflow):
            obj.phi_value(x)


def along(obj, d, level):
    """t d for the smallest t > 0 at which an exponent rising along d
    reaches ``level``: no other exponent then lies above it."""
    slopes = obj.B @ d
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
    slopes = NetworkObjective(net).B @ d
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
        top = float(obj.exponents(x).max())
        assert top == pytest.approx(bound - gap, abs=1e-9)
        for value in evaluations(obj.as_dc_problem(rho=100.0), x):
            assert np.isfinite(value).all()

    def test_guard_alone_is_not_the_finite_domain(self):
        net = generate_network(6, 9, seed=8)
        obj = NetworkObjective(net)
        problem = obj.as_dc_problem(rho=100.0)
        d = np.ones(net.m)
        # 4 below the guard, 1.4 above the bound, f1's Hessian overflows
        with np.errstate(over="ignore", invalid="ignore"):
            below_guard = evaluations(problem, along(obj, d, EXP_GUARD - 4.0))
        assert not all(np.isfinite(value).all() for value in below_guard)
        assert all(np.isfinite(value).all()
                   for value in evaluations(problem, along(obj, d, obj.safe_exponent())))
        assert EXP_GUARD - obj.safe_exponent() == pytest.approx(5.36, abs=0.01)


def scipy_operators(net):
    """The ten matrices a NetworkObjective applies, as scipy CSR
    matrices built the way the objective used to build them; the last
    two stack pairs of the first eight."""
    F, R = net.F.astype(float), net.R.astype(float)
    M = sp.hstack([F, R]).tocsr()
    N = sp.hstack([R, F]).tocsr()
    A = (M - N).tocsr()
    MpN = (M + N).tocsr()
    B, NT = M.T.tocsr(), N.T.tocsr()
    return dict(M=M, N=N, A=A, MpN=MpN, B=B, NT=NT, AT=A.T.tocsr(), MpNT=MpN.T.tocsr(),
                MN=sp.vstack([M, N], format="csr"),
                BNT=sp.block_diag([B, NT], format="csr"))


def full_pattern_hessian(net, x):
    """f1's Hessian assembled on W's unmasked pattern, G2's plus the
    diagonal in CSR order, and the nonzero count of that pattern's P."""
    ops = scipy_operators(net)
    M, N, MpN, B, NT, MpNT = (ops[k] for k in ("M", "N", "MpN", "B", "NT", "MpNT"))
    e = np.exp(net.w + B @ x)
    p, c = M @ e, N @ e
    et = 4.0 * (e * (B @ p + NT @ c))
    G1 = (B @ M + NT @ N).tocsr()
    G2 = (MpNT @ MpN).tocsr()
    size = G2.shape[0]  # W is indexed by the 2n directed reactions
    pattern = (G2 + sp.identity(size, format="csr")).tocoo()
    rows, cols = pattern.row.astype(np.intp), pattern.col.astype(np.intp)
    weights = 4.0 * np.asarray(G1[rows, cols]).ravel() * (e[rows] * e[cols])
    weights[rows == cols] += et
    P = sp.kron(M, M, format="csc")[:, rows * size + cols].tocsr()
    hess = (P @ weights).reshape(net.m, net.m)
    return 0.5 * (hess + hess.T), P.nnz


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
            op = getattr(obj, name)
            width = mat.shape[1]
            v = pool[rng.integers(pool.size, size=width)]
            with np.errstate(invalid="ignore", over="ignore"):
                assert (op @ v).tobytes() == (mat @ v).tobytes(), name
            for wrong in (width - 1, width + 1):
                with pytest.raises(ValueError):  # as scipy's @ raises
                    op @ np.ones(wrong)
        # the Hessian operator P against its own entries in a scipy matrix
        P = obj._hessian_op.P
        width = P.shape[1]
        w = pool[rng.integers(pool.size, size=width)]
        with np.errstate(invalid="ignore", over="ignore"):
            assert (P @ w).tobytes() == (P.tocsr() @ w).tobytes(), "P"
        for wrong in (width - 1, width + 1):
            with pytest.raises(ValueError):
                P @ np.ones(wrong)

    @pytest.mark.parametrize("shape,nnz", [(None, None), ((6, 9, 5), None),
                                           ((20, 30, 101), 2707), ((80, 120, 105), 12558)])
    def test_masked_hessian_matches_full_pattern(self, shape, nnz):
        # W's pattern keeps only G1's nonzeros and the diagonal, in G2's
        # order: every Hessian keeps the full pattern's bits
        net = tiny_network(w=[0.3, -0.2]) if shape is None else generate_network(*shape)
        obj = NetworkObjective(net)
        rng = np.random.default_rng(21)
        for box in (2.0, 8.0):
            for x in rng.uniform(-box, box, size=(20, net.m)):
                reference, full_nnz = full_pattern_hessian(net, x)
                assert obj.eval_f1(x)[2].tobytes() == reference.tobytes()
        assert obj._hessian_op.P.nnz <= full_nnz
        if nnz is not None:
            assert obj._hessian_op.P.nnz == nnz < full_nnz

    def test_no_product_goes_through_scipy(self, monkeypatch):
        # scipy's dispatch costs more than a network product's arithmetic:
        # once P is built, no evaluator calls a scipy matrix's @
        net = generate_network(20, 30, seed=101)
        obj = NetworkObjective(net)
        prob = obj.as_dc_problem(rho=100.0)
        rng = np.random.default_rng(22)
        obj.eval_f1(rng.uniform(-2.0, 2.0, size=net.m))  # builds P
        callers = []
        matmul = sp.csr_matrix.__matmul__

        def counted(self, other):
            callers.append(self)
            return matmul(self, other)

        monkeypatch.setattr(sp.csr_matrix, "__matmul__", counted)
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
        obj = NetworkObjective(MEMO_NET)
        x = MEMO_POOL[1].copy()
        _, grad, hess = obj.eval_f1(x)
        with pytest.raises(ValueError):
            grad[0] = 0.0
        with pytest.raises(ValueError):
            hess += 1.0
        p, c, _ = obj.rates(x)
        with pytest.raises(ValueError):
            p[0] = 0.0
        assert bits(obj.eval_f1(x)) == FRESH["eval_f1", 1]

    def test_each_value_computed_once_per_flux(self, monkeypatch):
        # a Newton step's line-search trial and its accepted point share
        # f1's value; y's phi and its slope, and a line search's accepted
        # trial and the next iterate, share phi's
        fluxes, computed = Counter(), {"f1": Counter(), "phi": Counter()}
        flux = NetworkObjective._flux

        def counted_flux(self, x):
            fluxes[x.tobytes()] += 1
            return flux(self, x)

        def counted(value_at, counts):
            def wrapper(point):
                counts[point.key] += 1
                return value_at(point)
            return wrapper

        monkeypatch.setattr(NetworkObjective, "_flux", counted_flux)
        monkeypatch.setattr(biochem, "_f1_value_at",
                            counted(biochem._f1_value_at, computed["f1"]))
        monkeypatch.setattr(biochem, "_phi_value_at",
                            counted(biochem._phi_value_at, computed["phi"]))
        problem = NetworkObjective(generate_network(20, 30, 101)).as_dc_problem(rho=100.0)
        x0 = np.random.default_rng(24).uniform(-2.0, 2.0, size=problem.m)
        result = solve(problem, x0, SolverConfig(variant="bdca-qi", max_outer_iters=40))
        assert not result.status.is_failure
        for name, counts in computed.items():
            assert counts, name
            assert all(counts[key] <= fluxes[key] for key in counts), name

    def test_overflow_keeps_last_point(self):
        obj = NetworkObjective(MEMO_NET)
        finite = MEMO_POOL[2]
        assert bits(obj.eval_f1(finite)) == FRESH["eval_f1", 2]
        for method in MEMO_METHODS:
            with pytest.raises(EvaluationOverflow):
                getattr(obj, method)(MEMO_POOL[3])
        for method in MEMO_METHODS:
            assert bits(getattr(obj, method)(finite)) == FRESH[method, 2]

    @pytest.mark.parametrize("shape", [(4,), (6,), (5, 1), ()])
    def test_point_of_another_shape_is_refused(self, shape):
        # the products after _at run unchecked, so x's shape is checked
        # there, before any of them can read past a vector
        obj = NetworkObjective(MEMO_NET)
        for method in MEMO_METHODS:
            with pytest.raises(ValueError, match="network expects"):
                getattr(obj, method)(np.zeros(shape))
        assert obj._point is None


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

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            generate_network(1, 4, seed=0)
        with pytest.raises(ValueError):
            generate_network(5, 0, seed=0)


class TestSchema:
    def test_round_trip(self, tmp_path):
        net = generate_network(9, 13, seed=31)
        path = tmp_path / "model.json"
        save_network(net, path)
        loaded = load_network(path)
        assert loaded == net
        assert np.array_equal(loaded.w, net.w)
        assert loaded.name == net.name

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

    def test_cardinality_warnings(self):
        # species 0 never appears reversed, species 1 never forward
        F = sp.csr_matrix(np.array([[2], [0]]))
        R = sp.csr_matrix(np.array([[0], [2]]))
        with pytest.warns(SchemaWarning):
            ReactionNetwork(m=2, n=1, F=F, R=R, w=np.zeros(2))

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
