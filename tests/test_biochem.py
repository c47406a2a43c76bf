"""Reaction networks: evaluation oracles, generator contract, JSON schema.

The reference implementation in this file recomputes everything with
dense numpy arrays straight from the matrix definitions: exponent
matrix stacks the transposed stoichiometries, production collects
[F, R], consumption [R, F], and the residual is their difference.
"""

import json

import numpy as np
import pytest
import scipy.sparse as sp

from dcboost import (
    EvaluationOverflow,
    GenerationError,
    GeneratorConfig,
    NetworkObjective,
    ReactionNetwork,
    SchemaError,
    SchemaWarning,
    check_mass_conservation,
    derivative_report,
    generate_network,
    load_network,
    save_network,
)


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
        hess_f2=2.0 * (Js.T @ Js + curvature(M + N, s)),
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
            for piece, ev in (("f1", obj.eval_f1), ("f2", obj.eval_f2)):
                value, grad, hess = ev(x)
                assert value == pytest.approx(ref[piece], rel=1e-12)
                np.testing.assert_allclose(grad, ref[f"grad_{piece}"], rtol=1e-12)
                np.testing.assert_allclose(hess, ref[f"hess_{piece}"], rtol=1e-12)
                assert np.array_equal(hess, hess.T)

    def test_dc_identity(self):
        rng = np.random.default_rng(12)
        net = generate_network(8, 12, seed=4)
        prob = NetworkObjective(net).as_dc_problem(rho=0.0)
        for _ in range(10):
            x = rng.uniform(-1.0, 1.0, size=net.m)
            phi = prob.phi(x)
            split = prob.f1_value(x) - prob.f2_value(x)
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
            assert rep["hess_f2"] < 1e-5
            assert rep["asym_f1"] < 1e-10
            assert rep["asym_f2"] < 1e-10

    def test_phi_gradient_fast_path(self):
        net = generate_network(6, 8, seed=6)
        obj = NetworkObjective(net)
        prob = obj.as_dc_problem()
        rng = np.random.default_rng(14)
        x = rng.uniform(-1.0, 1.0, size=net.m)
        phi, grad = prob.phi_with_grad(x)
        _, g1, _ = prob.eval_f1(x)
        _, g2, _ = prob.eval_f2(x)
        np.testing.assert_allclose(grad, g1 - g2, rtol=1e-8, atol=1e-8)
        assert phi == pytest.approx(prob.phi(x), rel=1e-12)

    def test_hessians_positive_semidefinite(self):
        net = generate_network(7, 10, seed=7)
        prob = NetworkObjective(net).as_dc_problem()
        rng = np.random.default_rng(15)
        for _ in range(3):
            x = rng.uniform(-0.8, 0.8, size=net.m)
            for ev in (prob.eval_f1, prob.eval_f2):
                _, _, hess = ev(x)
                low = np.linalg.eigvalsh(hess)[0]
                assert low >= -1e-8 * max(1.0, np.linalg.norm(hess))

    def test_overflow_guard(self):
        net = generate_network(6, 9, seed=8)
        obj = NetworkObjective(net)
        with pytest.raises(EvaluationOverflow):
            obj.phi_value(np.full(net.m, 500.0))

    def test_overflow_guard_at_squared_limit(self):
        # phi is quadratic in e = exp(z), so it overflows from z of about
        # 355; a top exponent near 400 must raise, not saturate to inf
        net = generate_network(6, 9, seed=8)
        obj = NetworkObjective(net)
        x = np.full(net.m, 400.0 / float(obj.B.sum(axis=1).max()))
        top = float(obj.exponents(x).max())
        assert 399.0 < top < 401.0
        with pytest.raises(EvaluationOverflow):
            obj.phi_value(x)


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
        # coefficients from the configured palette
        assert set(F.data) <= {1, 2, 3}
        assert set(R.data) <= {1, 2, 3}
        # disjoint forward/reverse support per reaction
        assert (F.multiply(R)).nnz == 0
        # small arities
        fcol = np.diff(F.tocsc().indptr)
        rcol = np.diff(R.tocsc().indptr)
        assert np.all(fcol >= 1) and np.all(fcol <= 2)
        assert np.all(rcol >= 1)
        # weights inside the configured box
        assert net.w.shape == (32,)
        assert np.all(net.w >= -1.0) and np.all(net.w <= 1.0)
        # every species plays both roles somewhere (no warnings fired)
        assert np.all(np.diff(F.tocsr().indptr) > 0)
        assert np.all(np.diff(R.tocsr().indptr) > 0)

    def test_custom_config(self):
        cfg = GeneratorConfig(coeffs=(1, 2), w_low=-0.5, w_high=0.5, name="custom")
        net = generate_network(8, 12, seed=24, config=cfg)
        assert net.name == "custom"
        assert set(net.F.data) <= {1, 2}
        assert np.all(net.w >= -0.5) and np.all(net.w <= 0.5)

    def test_impossible_request_raises(self):
        # with two species and one reaction, one side can never cover
        # both species
        with pytest.raises(GenerationError):
            generate_network(2, 1, seed=25, config=GeneratorConfig(max_attempts=3))

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

    def test_rejects_bad_weights(self):
        F = sp.csr_matrix(np.array([[1]]))
        R = sp.csr_matrix(np.array([[2]]))
        with pytest.raises(ValueError):
            ReactionNetwork(m=1, n=1, F=F, R=R, w=np.zeros(3))
        with pytest.raises(ValueError):
            ReactionNetwork(m=1, n=1, F=F, R=R, w=np.array([np.nan, 0.0]))
