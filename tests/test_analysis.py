"""Rate inequality, rate classification, and trace audits."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcboost import (
    Regime,
    SolverConfig,
    audit_trace,
    classify_rate,
    effective_modulus,
    make_quartic_problem,
    solve,
    verify_rate_inequality,
)


class TestVerifyRateInequality:
    def test_geometric_identity(self):
        # s_k = (1/2)^k satisfies s_k = 2 (s_k - s_{k+1}) with equality
        s = 0.5 ** np.arange(20)
        assert verify_rate_inequality(s, alpha=1.0, beta=2.0)

    def test_geometric_fails_below_critical_beta(self):
        s = 0.5 ** np.arange(20)
        assert not verify_rate_inequality(s, alpha=1.0, beta=1.9)

    def test_finite_drop_regime(self):
        assert verify_rate_inequality([3.0, 2.0, 1.0, 0.0, 0.0], alpha=0.0, beta=1.0)

    def test_zero_terms_skipped(self):
        # after termination the inequality holds vacuously
        assert verify_rate_inequality([1.0, 0.0, 0.0], alpha=0.5, beta=2.0)

    def test_from_index_skips_head(self):
        s = [3.0, 2.4, 1.2, 0.6]
        assert not verify_rate_inequality(s, alpha=1.0, beta=2.0)
        assert verify_rate_inequality(s, alpha=1.0, beta=2.0, from_index=1)

    def test_from_index_ignores_head_rise(self):
        s = [1.0, 5.0, 2.5, 1.25]
        with pytest.raises(ValueError):
            verify_rate_inequality(s, alpha=1.0, beta=2.0)
        assert verify_rate_inequality(s, alpha=1.0, beta=2.0, from_index=1)

    @pytest.mark.parametrize("alpha, beta", [(np.nan, 1.0), (1.0, np.nan)])
    def test_nan_alpha_or_beta_raises(self, alpha, beta):
        # a NaN beta made every comparison false, so the check passed
        with pytest.raises(ValueError, match="alpha must be|beta must be"):
            verify_rate_inequality([1.0, 0.9, 0.8], alpha, beta)

    def test_nan_term_raises(self):
        with pytest.raises(ValueError, match="nonnegative"):
            verify_rate_inequality([1.0, np.nan, 0.8], alpha=1.0, beta=0.01)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            verify_rate_inequality([1.0, 0.5], alpha=-1.0, beta=1.0)
        with pytest.raises(ValueError):
            verify_rate_inequality([1.0, 0.5], alpha=1.0, beta=0.0)
        with pytest.raises(ValueError):
            verify_rate_inequality([1.0], alpha=1.0, beta=1.0)
        with pytest.raises(ValueError):
            verify_rate_inequality([1.0, 2.0], alpha=1.0, beta=1.0)
        with pytest.raises(ValueError):
            verify_rate_inequality([1.0, -0.5], alpha=1.0, beta=1.0)
        with pytest.raises(ValueError):
            verify_rate_inequality([1.0, 0.5], alpha=1.0, beta=1.0, from_index=5)

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(st.floats(min_value=1e-6, max_value=1e3), min_size=2,
                        max_size=30),
        alpha=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
        beta=st.floats(min_value=0.1, max_value=50.0),
        bump=st.floats(min_value=0.1, max_value=10.0),
    )
    def test_monotone_in_beta(self, values, alpha, beta, bump):
        s = np.sort(np.asarray(values))[::-1].copy()
        if verify_rate_inequality(s, alpha, beta):
            assert verify_rate_inequality(s, alpha, beta + bump)


class TestClassifyRate:
    def test_finite(self):
        s = np.array([1.0, 0.7, 0.4, 0.2, 0.1, 0.0, 0.0, 0.0])
        report = classify_rate(s)
        assert report.regime is Regime.FINITE
        assert report.samples_used == 6
        assert report.fit_residual == 0.0

    def test_linear_geometric(self):
        s = 0.9 ** np.arange(60)
        report = classify_rate(s)
        assert report.regime is Regime.LINEAR
        assert 0.88 <= report.rate <= 0.92
        assert report.exponent is None
        assert 0.0 < report.rate < 1.0

    def test_sublinear_power(self):
        s = np.arange(1, 61, dtype=float) ** -2.0
        report = classify_rate(s)
        assert report.regime is Regime.SUBLINEAR
        assert 1.8 <= report.exponent <= 2.2
        assert report.rate is None
        assert report.exponent > 0.0

    def test_short_sequence_inconclusive(self):
        report = classify_rate(0.5 ** np.arange(9))
        assert report.regime is Regime.INCONCLUSIVE
        assert report.samples_used == 9

    def test_scale_invariance(self):
        s = 0.9 ** np.arange(50)
        a = classify_rate(s)
        b = classify_rate(1e6 * s)
        assert a.regime is b.regime is Regime.LINEAR
        assert abs(a.rate - b.rate) <= 1e-9

        p = np.arange(1, 51, dtype=float) ** -2.0
        assert classify_rate(p).regime is classify_rate(1e-3 * p).regime

    def test_atol_override(self):
        s = 0.5 ** np.arange(30)
        report = classify_rate(s, atol=1e-3)
        assert report.regime is Regime.FINITE
        assert report.samples_used == 11  # 0.5^10 < 1e-3 first

    @pytest.mark.parametrize("atol", [np.nan, -1e-3])
    def test_nan_or_negative_atol_raises(self, atol):
        # a NaN atol matched no term, so a sequence reaching 0 read Inconclusive
        with pytest.raises(ValueError, match="atol must be nonnegative"):
            classify_rate(np.array([1.0, 0.5, 0.25, 0.0]), atol=atol)

    def test_to_json(self):
        report = classify_rate(0.5 ** np.arange(5))
        payload = report.to_json()
        assert payload["regime"] == "Inconclusive"
        assert payload["fit_residual"] is None

    def test_input_validation(self):
        with pytest.raises(ValueError):
            classify_rate([])
        with pytest.raises(ValueError):
            classify_rate([1.0, -1.0])
        with pytest.raises(ValueError):
            classify_rate([1.0, np.inf])


class TestEffectiveModulus:
    def test_from_tuple_and_problem(self):
        assert effective_modulus((1.0, 2.0, 3.0)) == pytest.approx(4.5)
        prob = make_quartic_problem()
        assert effective_modulus(prob) == pytest.approx(0.5)


@pytest.mark.filterwarnings("ignore::dcboost.TheoryWarning")
class TestAuditTrace:
    def run_quartic(self, variant, x0=2.0, **kw):
        prob = make_quartic_problem()
        cfg = SolverConfig(variant=variant, lambda_bar=2.0, lambda_max=8.0,
                           max_outer_iters=100, **kw)
        return prob, cfg, solve(prob, np.array([x0]), cfg)

    def test_honest_traces_pass(self):
        for variant in ("dca", "bdca-b", "bdca-qi", "fm"):
            prob, cfg, result = self.run_quartic(variant)
            report = audit_trace(result.trace, prob, cfg,
                                 phi_final=result.phi_final)
            assert report.passed, (variant, report.violations)
            assert report.violations == []

    def test_corrupted_phi_flags_exactly_one_violation(self):
        prob, cfg, result = self.run_quartic("dca")
        trace = [replace(rec) for rec in result.trace]
        assert len(trace) > 5

        # margins of the two checks that the corruption can break: the
        # step-decrease margin at the k=2 -> k=3 transition, and the
        # prefix-sum margin at k=2; a bump between them breaks exactly
        # the first
        rho_eff = effective_modulus(prob)
        tol = lambda rec: 1e-6 * (1.0 + abs(rec.phi_x))
        drop = lambda rec: (cfg.alpha * rec.lambda_k + rho_eff) * rec.norm_d ** 2
        margin_decrease = (trace[2].phi_x - drop(trace[2]) + tol(trace[2])
                           - trace[3].phi_x)
        running = sum(rho_eff * trace[j].norm_d ** 2 for j in range(3))
        slack = sum(tol(trace[j]) for j in range(3))
        margin_prefix = trace[0].phi_x - trace[3].phi_x + slack - running
        assert margin_prefix > margin_decrease > 0

        bump = 0.5 * (margin_decrease + margin_prefix)
        trace[3] = replace(trace[3], phi_x=trace[3].phi_x + bump)
        report = audit_trace(trace, prob, cfg, phi_final=result.phi_final)
        assert not report.passed
        assert len(report.violations) == 1
        violation = report.violations[0]
        assert violation.iteration == 3
        assert violation.inequality == "phi_decreasing"

    @pytest.mark.parametrize("column", ["phi_x", "phi_y", "slope"])
    def test_nan_cell_fails_the_audit(self, column):
        # every inequality is written so that a NaN on either side fails it
        prob, cfg, result = self.run_quartic("dca")
        trace = list(result.trace)
        trace[2] = replace(trace[2], **{column: float("nan")})
        report = audit_trace(trace, prob, cfg, phi_final=result.phi_final)
        assert not report.passed
        assert all(v.iteration >= 1 for v in report.violations)

    @pytest.mark.parametrize("moduli, tol_base", [
        ((np.nan, 0.0, 0.0), 1e-6), ((0.0, 1.0, np.nan), 1e-6), ((0.0, -1.0, 0.0), 1e-6),
        ((np.inf, 0.0, 0.0), 1e-6), ((0.0, 1.0, 0.0), np.nan), ((0.0, 1.0, 0.0), -1e-6),
        ((0.0, 1.0, 0.0), np.inf)])
    def test_moduli_and_tol_base_must_be_finite_and_nonnegative(self, moduli, tol_base):
        prob, cfg, result = self.run_quartic("dca")
        with pytest.raises(ValueError, match="must be finite and nonnegative"):
            audit_trace(result.trace, moduli, cfg, tol_base=tol_base)

    def test_dca_rows_reduce_to_plain_decrease(self):
        prob, cfg, result = self.run_quartic("dca")
        assert all(rec.lambda_k == 0.0 for rec in result.trace)
        report = audit_trace(result.trace, prob, cfg, phi_final=result.phi_final)
        assert report.passed

    def test_moduli_as_tuple(self):
        prob, cfg, result = self.run_quartic("bdca-b")
        report = audit_trace(result.trace, (prob.sigma_g, prob.sigma_h, prob.rho),
                             cfg, phi_final=result.phi_final)
        assert report.passed

    def test_csv_trace_without_slopes(self, tmp_path):
        from dcboost import read_trace_csv, write_trace_csv

        prob, cfg, result = self.run_quartic("bdca-qi")
        path = tmp_path / "trace.csv"
        write_trace_csv(result.trace, path)
        loaded = read_trace_csv(path)
        report = audit_trace(loaded, prob, cfg, phi_final=result.phi_final)
        assert report.passed

    def test_report_json(self):
        prob, cfg, result = self.run_quartic("bdca-b")
        payload = audit_trace(result.trace, prob, cfg,
                              phi_final=result.phi_final).to_json()
        assert payload["passed"] is True
        assert payload["violations"] == []
        assert payload["audit_tol"] == 1e-6
