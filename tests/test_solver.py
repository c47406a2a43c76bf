"""Outer solvers and line searches on the quartic, plus trace round-trips.

Frozen oracle for the quartic from x0 = 27/125 (exact rationals):
the subproblem solves y^3 = x, so y0 = 3/5 and d0 = 48/125;
phi(y0 + lambda*d0) at lambda = 25/24 lands exactly on the minimizer 1.
The line-search slope is phi'(y0)*d0 = -(48/125)^2 = -0.147456.
With alpha = 0.4, lambda_bar = 2 the first trial is rejected
(phi(171/125) = -58745169/976562500 > phi(y0) - 0.8*||d||^2) and
lambda = 1 accepted (phi(123/125) = -0.24974807961601536...).
"""

import dataclasses
import json
import math
import re
import struct
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dcboost.solver
from dcboost import (
    EXP_GUARD,
    TRACE_COLUMNS,
    ComparisonRow,
    DcProblem,
    LineSearchError,
    NetworkObjective,
    SchemaError,
    SolverConfig,
    SolveResult,
    Status,
    TheoryWarning,
    TraceRecord,
    Variant,
    audit_trace,
    backtrack,
    bdca_qi_select,
    builtin_problem,
    dca_step,
    descent_slope,
    export_table,
    fm_step,
    generate_network,
    make_quartic_problem,
    minimize_subproblem,
    quad_interp_lambda,
    read_column,
    read_table,
    read_trace_csv,
    run_matched_target,
    solve,
    write_trace_csv,
)
from dcboost.inner import SubproblemState

X0 = 27.0 / 125.0
Y0 = 0.6
D0 = 48.0 / 125.0
SLOPE0 = -(48.0 / 125.0) ** 2          # = -0.147456


def quartic_phi_exact(t):
    t = Fraction(t)
    return t ** 4 / 4 - t ** 2 / 2


def quadratic_problem(center):
    """phi(x) = (x - center)^2 as a DC pair with f2 = 0."""

    def eval_f1(x):
        t = float(np.asarray(x).reshape(()))
        return (t - center) ** 2, np.array([2.0 * (t - center)]), np.array([[2.0]])

    def eval_f2(x):
        return 0.0, np.zeros(1)

    return DcProblem(m=1, eval_f1=eval_f1, eval_f2=eval_f2, name="shifted-square")


class TestSteps:
    def setup_method(self):
        self.prob = make_quartic_problem()
        self.phi_x0 = self.prob.phi_value(np.array([X0]))
        self.phi_y0 = self.prob.phi_value(np.array([Y0]))

    def test_dca_step_cube_root(self):
        y, inner_iters = dca_step(self.prob, np.array([X0]))
        assert abs(y[0] - Y0) <= 1e-8
        assert inner_iters >= 1

    def test_theory_warning_once_per_solve(self):
        # the quartic has sigma_g + rho = 0: one warning per solve, not
        # one per outer iteration
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = solve(self.prob, np.array([X0]), SolverConfig(variant="dca"))
        assert result.iterations > 1
        hits = [w for w in caught if "sigma_g + rho = 0" in str(w.message)]
        assert len(hits) == 1

    def test_descent_slope_frozen(self):
        slope = descent_slope(self.prob, np.array([Y0]), np.array([D0]))
        assert slope == pytest.approx(SLOPE0, abs=1e-12)

    def test_backtrack_accepts_exact_landing(self):
        # lambda = 25/24 puts the trial exactly on the minimizer x = 1
        cfg = SolverConfig(variant="bdca-b", lambda_bar=2.0, lambda_max=8.0)
        lam, halvings = backtrack(self.prob, np.array([Y0]), np.array([D0]),
                                  25.0 / 24.0, cfg, phi_y=self.phi_y0)
        assert lam == pytest.approx(25.0 / 24.0, abs=1e-15)
        assert halvings == 0

    def test_backtrack_one_halving(self):
        cfg = SolverConfig(variant="bdca-b", lambda_bar=2.0, lambda_max=8.0)
        lam, halvings = backtrack(self.prob, np.array([Y0]), np.array([D0]), 2.0, cfg,
                                  phi_y=self.phi_y0)
        assert lam == pytest.approx(1.0, abs=1e-15)
        assert halvings == 1
        # frozen rejection data: the lambda=2 trial value and its threshold
        phi_trial = float(quartic_phi_exact(Fraction(171, 125)))
        threshold = float(quartic_phi_exact(Fraction(3, 5))) - 0.4 * 2.0 * D0 ** 2
        assert phi_trial > threshold

    def test_backtrack_exhausts(self, monkeypatch):
        # at 60 halvings the step is so short that phi's rounding accepts it
        monkeypatch.setattr(dcboost.solver, "_MAX_BACKTRACKS", 10)
        cfg = SolverConfig(variant="bdca-b", alpha=50.0, lambda_bar=2.0, lambda_max=8.0)
        with pytest.raises(LineSearchError, match="after 10 halvings"):
            backtrack(self.prob, np.array([Y0]), np.array([D0]), 2.0, cfg,
                      phi_y=self.phi_y0)

    def test_backtrack_rejects_bad_init(self):
        with pytest.raises(ValueError):
            backtrack(self.prob, np.array([Y0]), np.array([D0]), 0.0, phi_y=self.phi_y0)

    def test_quad_interp_known_values(self):
        # quadratic through (0, 2) with slope -1 and (1, 2) has its
        # minimum at 0.5
        assert quad_interp_lambda(2.0, -1.0, 2.0, 1.0) == pytest.approx(0.5, abs=1e-15)
        # flat data along the tangent line: no curvature to exploit
        assert quad_interp_lambda(1.0, -1.0, 0.0, 1.0) is None
        assert quad_interp_lambda(1.0, -1.0, np.inf, 1.0) is None
        with pytest.raises(ValueError):
            quad_interp_lambda(1.0, -1.0, 0.5, 0.0)

    def test_qi_select_quartic_frozen(self):
        # exact-rational model data at the first quartic line search
        phi0 = quartic_phi_exact(Fraction(3, 5))
        dphi0 = -Fraction(48, 125) ** 2
        phi_bar = quartic_phi_exact(Fraction(3, 5) + 2 * Fraction(48, 125))
        gap = phi_bar - phi0 - dphi0 * 2
        lam_hat = -dphi0 * 4 / (2 * gap)
        assert gap > 0

        cfg = SolverConfig(variant="bdca-qi", lambda_bar=2.0, lambda_max=8.0)
        lam = bdca_qi_select(self.prob, np.array([Y0]), np.array([D0]), cfg,
                             phi_y=self.phi_y0, slope=SLOPE0)
        assert lam == pytest.approx(float(lam_hat), abs=1e-10)
        # the interpolated point must actually beat the lambda_bar trial
        phi_at = self.prob.phi_value(np.array([Y0 + lam * D0]))
        assert phi_at < self.prob.phi_value(np.array([Y0 + 2.0 * D0]))

    def test_qi_select_caps_at_lambda_max(self):
        # on a pure quadratic the interpolation is exact: phi(x) = (x-10)^2
        # from y = 0, d = 1 suggests lambda = 10, capped by lambda_max = 5
        prob = quadratic_problem(10.0)
        cfg = SolverConfig(variant="bdca-qi", lambda_bar=2.0, lambda_max=5.0)
        lam = bdca_qi_select(prob, np.array([0.0]), np.array([1.0]), cfg,
                             phi_y=prob.phi_value(np.array([0.0])),
                             slope=descent_slope(prob, np.array([0.0]), np.array([1.0])))
        assert lam == pytest.approx(5.0, abs=1e-12)

    def test_qi_select_falls_back_when_worse(self):
        # with the interpolated point past the valley and above the
        # lambda_bar trial, the initial step stays at lambda_bar
        cfg = SolverConfig(variant="bdca-qi", lambda_bar=2.0, lambda_max=300.0)
        lam = bdca_qi_select(self.prob, np.array([Y0]), np.array([0.01]), cfg,
                             phi_y=self.phi_y0,
                             slope=descent_slope(self.prob, np.array([Y0]), np.array([0.01])))
        assert lam == 2.0

    def test_fm_step_full_step(self):
        cfg = SolverConfig(variant="fm", lambda_bar=2.0)
        x_next, level = fm_step(self.prob, np.array([X0]), np.array([Y0]), cfg,
                                phi_x=self.phi_x0)
        assert level == 0
        assert abs(x_next[0] - Y0) <= 1e-15

    def test_fm_never_passes_y(self):
        cfg = SolverConfig(variant="fm", alpha=0.5, beta=0.5, lambda_bar=2.0)
        x = np.array([1.8])
        y, _ = dca_step(self.prob, x)
        x_next, level = fm_step(self.prob, x, y, cfg, phi_x=self.prob.phi_value(x))
        lo, hi = sorted((x[0], y[0]))
        assert lo - 1e-12 <= x_next[0] <= hi + 1e-12

    def test_fm_exhausts_when_alpha_too_steep(self, monkeypatch):
        # acceptance needs alpha below |phi'(x) d| / ||d||^2 in the
        # small-step limit; alpha = 10 exceeds it everywhere here, until
        # the step is so short that phi's rounding accepts it
        monkeypatch.setattr(dcboost.solver, "_MAX_BACKTRACKS", 15)
        cfg = SolverConfig(variant="fm", alpha=10.0, lambda_bar=2.0)
        with pytest.raises(LineSearchError, match="after 15 reductions"):
            fm_step(self.prob, np.array([X0]), np.array([Y0]), cfg, phi_x=self.phi_x0)


@pytest.mark.filterwarnings("ignore::dcboost.TheoryWarning")
class TestSolve:
    def setup_method(self):
        self.prob = make_quartic_problem()

    def test_dca_follows_cube_root_orbit(self):
        cfg = SolverConfig(variant="dca", max_outer_iters=100)
        result = solve(self.prob, np.array([X0]), cfg)
        assert result.status is Status.STATIONARY_POINT
        assert abs(result.x_final[0] - 1.0) <= 1e-7
        # phi(x_k) along the orbit x_{k+1} = x_k^(1/3)
        orbit = [X0]
        for _ in range(5):
            orbit.append(orbit[-1] ** (1.0 / 3.0))
        for rec, x in zip(result.trace[:6], orbit):
            assert rec.phi_x == pytest.approx(self.prob.phi_value(np.array([x])), abs=1e-7)
        assert all(rec.lambda_k == 0.0 for rec in result.trace)
        assert result.iterations == len(result.trace) - 1

    def test_bdca_converges_faster_than_dca(self):
        dca = solve(self.prob, np.array([X0]),
                    SolverConfig(variant="dca", max_outer_iters=100))
        bdca = solve(self.prob, np.array([X0]),
                     SolverConfig(variant="bdca-b", lambda_bar=2.0,
                                  lambda_max=8.0, max_outer_iters=100))
        assert bdca.status is Status.STATIONARY_POINT
        assert abs(bdca.x_final[0] - 1.0) <= 1e-7
        assert bdca.iterations < dca.iterations

    def test_bdca_exact_landing(self):
        cfg = SolverConfig(variant="bdca-b", lambda_bar=25.0 / 24.0,
                           lambda_max=4.0, max_outer_iters=50)
        result = solve(self.prob, np.array([X0]), cfg)
        first = result.trace[0]
        assert first.lambda_k == pytest.approx(25.0 / 24.0, abs=1e-15)
        assert first.backtracks == 0
        assert abs(result.x_final[0] - 1.0) <= 1e-7

    def test_stationary_start(self):
        result = solve(self.prob, np.array([1.0]), SolverConfig(variant="dca"))
        assert result.status is Status.STATIONARY_POINT
        assert result.iterations == 0
        assert len(result.trace) == 1
        assert result.trace[0].lambda_k == 0.0
        assert result.x_final[0] == 1.0

    def test_monotone_decrease(self):
        for variant in ("dca", "bdca-b", "bdca-qi", "fm"):
            cfg = SolverConfig(variant=variant, lambda_bar=2.0, lambda_max=8.0,
                               max_outer_iters=60)
            result = solve(self.prob, np.array([1.9]), cfg)
            values = [rec.phi_x for rec in result.trace] + [result.phi_final]
            assert all(b <= a + 1e-12 for a, b in zip(values, values[1:])), variant

    def test_target_reached(self):
        cfg = SolverConfig(variant="dca", max_outer_iters=100, target_phi=-0.2)
        result = solve(self.prob, np.array([2.0]), cfg)
        assert result.status is Status.TARGET_REACHED
        assert result.phi_final <= -0.2
        assert result.iterations < 100

    def test_line_search_failure_surfaces(self, monkeypatch):
        monkeypatch.setattr(dcboost.solver, "_MAX_BACKTRACKS", 8)
        cfg = SolverConfig(variant="bdca-b", alpha=50.0, lambda_bar=2.0, lambda_max=8.0)
        result = solve(self.prob, np.array([X0]), cfg)
        assert result.status is Status.LINE_SEARCH_FAILURE
        assert result.status.is_failure
        assert "halvings" in result.message

    def test_fm_matches_dca_iterates_here(self):
        # on the quartic the full backward step is always accepted, so
        # the baseline reproduces the plain orbit; plain dca's subproblems
        # take chord steps and fm's Newton steps, so the two meet the same
        # inner tolerance by different paths and agree only to within it
        fm = solve(self.prob, np.array([X0]),
                   SolverConfig(variant="fm", max_outer_iters=100))
        dca = solve(self.prob, np.array([X0]),
                    SolverConfig(variant="dca", max_outer_iters=100))
        assert fm.iterations == dca.iterations
        assert abs(fm.x_final[0] - dca.x_final[0]) <= SolverConfig().inner_tol
        assert all(rec.lambda_k == 0.0 for rec in fm.trace)

    def test_theory_warning_for_large_alpha(self):
        cfg = SolverConfig(variant="bdca-b", alpha=1.5, lambda_bar=2.0,
                           lambda_max=8.0, max_outer_iters=3)
        with pytest.warns(TheoryWarning, match="sigma_h"):
            solve(self.prob, np.array([X0]), cfg)

    @pytest.mark.parametrize("variant", [v.value for v in Variant])
    def test_quartic_overflow_is_a_status(self, variant):
        # x^4 overflows from |x| = 1.158e77 on: the start ends the solve as
        # NumericalFailure, while 1e77 still solves
        for start in (1e78, -1e100, 1e300):
            result = solve(self.prob, np.array([start]), SolverConfig(variant=variant))
            assert result.status is Status.NUMERICAL_FAILURE
            assert result.iterations == 0
            assert "exceeds overflow guard" in result.message
        result = solve(self.prob, np.array([1e77]), SolverConfig(variant=variant))
        assert result.status is Status.STATIONARY_POINT
        assert abs(abs(result.x_final[0]) - 1.0) <= 1e-7

    def test_x0_size_checked(self):
        with pytest.raises(ValueError):
            solve(self.prob, np.zeros(2), SolverConfig(variant="dca"))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(beta=1.5)
        with pytest.raises(ValueError):
            SolverConfig(alpha=0.0)
        with pytest.raises(ValueError):
            SolverConfig(lambda_bar=50.0, lambda_max=50.0)
        with pytest.raises(ValueError):
            SolverConfig(max_outer_iters=0)
        with pytest.raises(ValueError):
            SolverConfig(tol=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(inner_tol=0.0)

    @pytest.mark.parametrize("field", ["max_outer_iters"])
    @pytest.mark.parametrize("value", [3.5, 3.0, True])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SolverConfig(**{field: value})
        assert getattr(SolverConfig(**{field: np.int64(3)}), field) == 3

    @pytest.mark.parametrize("field", ["alpha", "lambda_bar", "lambda_max", "tol",
                                       "inner_tol", "target_phi"])
    def test_nan_settings_raise(self, field):
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: float("nan")})

    @pytest.mark.parametrize("value", [float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["alpha", "lambda_bar", "lambda_max", "tol", "inner_tol"])
    def test_infinite_settings_raise(self, field, value):
        # an infinite lambda_max or tol used to pass and echo as null, which
        # reads back as a missing value
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: value})
        with pytest.raises(ValueError, match=field):
            SolverConfig.from_json({field: value})

    @pytest.mark.parametrize("target", [None, float("-inf"), -1e300, 0.0, 2.5, float("inf")])
    def test_target_phi_takes_none_or_any_number(self, target):
        assert SolverConfig(target_phi=target).target_phi == target

    def test_nan_target_is_refused_not_ignored(self):
        # a NaN target is never reached, so the run below went on to its
        # stationary point as if no target had been set
        with pytest.raises(ValueError, match="target_phi must not be NaN"):
            solve(make_quartic_problem(), [2.0], SolverConfig(
                variant="dca", max_outer_iters=100, target_phi=float("nan")))
        with pytest.raises(ValueError, match="target_phi"):
            SolverConfig.from_json({"target_phi": float("nan")})

    @pytest.mark.parametrize("field, value", [
        ("max_backtracks", 3.5), ("max_backtracks", 3.0), ("max_backtracks", True),
        ("max_backtracks", 61), ("tol_d", 1e-6), ("tol_x", 0.0),
        ("inner.max_iters", 2.5), ("inner.max_iters", 2.0), ("inner.max_iters", "2"),
        ("inner.max_iters", False), ("inner.max_iters", 2000),
        ("inner.damping_floor", 0.0), ("inner.damping_floor", 1e-8),
        ("proximal_c", 1.0),
    ])
    def test_removed_field_at_another_value_raises(self, field, value):
        # a removed field loads only at the value the solver now fixes
        outer, _, inner = field.rpartition(".")
        obj = {"inner": {inner: value}} if outer else {field: value}
        with pytest.raises(ValueError, match=f"solver field {field} was removed"):
            SolverConfig.from_json(obj)

    @pytest.mark.parametrize("obj", [[["alpha", 0.3]], {"inner": [["tol_grad", 1e-6]]}])
    def test_solver_and_inner_must_be_objects(self, obj):
        # dict() read a list of pairs as the object it spells
        with pytest.raises(ValueError, match="must be an object"):
            SolverConfig.from_json(obj)

    def test_unknown_field_raises(self):
        with pytest.raises(ValueError, match=re.escape("unknown solver fields: ['alhpa']")):
            SolverConfig.from_json({"alhpa": 0.3})

    @pytest.mark.parametrize("field", ["alpha", "beta", "lambda_bar", "lambda_max", "tol",
                                       "inner_tol", "target_phi"])
    @pytest.mark.parametrize("value", ["0.5", True, [0.5]])
    def test_settings_must_be_numbers(self, field, value):
        # a string used to fail a comparison with TypeError, and True passed as 1
        with pytest.raises(ValueError, match=f"{field} must be a number"):
            SolverConfig(**{field: value})

    def test_removed_fields_at_their_fixed_values_load(self):
        old = {"variant": "fm", "max_backtracks": 60, "tol_d": None, "tol_x": None,
               "proximal_c": None,
               "inner": {"tol_grad": 1e-6, "max_iters": 200, "damping_floor": 1e-10}}
        assert SolverConfig.from_json(old) == SolverConfig(variant="fm", inner_tol=1e-6)

    def test_json_round_trip(self):
        cfg = SolverConfig(variant="bdca-b", tol=1e-7, inner_tol=1e-9, target_phi=2.0)
        assert SolverConfig.from_json(json.loads(json.dumps(cfg.to_json()))) == cfg
        assert len(cfg.to_json()) == 9

    def test_variant_coercion(self):
        assert SolverConfig(variant="fm").variant is Variant.FM
        with pytest.raises(ValueError):
            SolverConfig(variant="newton")

    def test_default_tolerances_scale(self):
        cfg = SolverConfig()
        assert cfg.resolved_tol(4) == pytest.approx(2e-8, rel=1e-12)
        assert SolverConfig(tol=1e-6).resolved_tol(4) == 1e-6


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        prob = make_quartic_problem()
        cfg = SolverConfig(variant="bdca-qi", lambda_bar=2.0, lambda_max=8.0,
                           max_outer_iters=50)
        with pytest.warns(TheoryWarning):
            result = solve(prob, np.array([1.7]), cfg)
        path = tmp_path / "trace.csv"
        write_trace_csv(result.trace, path)
        loaded = read_trace_csv(path)
        assert len(loaded) == len(result.trace)
        for a, b in zip(result.trace, loaded):
            assert a.k == b.k
            assert a.phi_x == b.phi_x
            assert a.phi_y == b.phi_y
            assert a.norm_d == b.norm_d
            assert a.lambda_k == b.lambda_k
            assert a.backtracks == b.backtracks
            assert a.inner_iters == b.inner_iters
            assert a.elapsed_ms == b.elapsed_ms
            assert a.slope == b.slope

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("k,phi_x\n0,1.0\n")
        with pytest.raises(ValueError, match="lacks columns"):
            read_trace_csv(path)

    @pytest.mark.parametrize("row", ["1,1.5,1.25,0.5,2,1,3,0.25",
                                     "1,1.5,1.25,0.5,2,1,3,0.25,-1,9"])
    def test_row_of_another_length_rejected(self, tmp_path, row):
        # a truncated last row used to escape as a TypeError
        path = tmp_path / "cut.csv"
        path.write_text("\n".join([",".join(TRACE_COLUMNS), "0,1.5,1.25,0.5,2,1,3,0.25,-1", row]))
        with pytest.raises(ValueError, match="another length than its header"):
            read_trace_csv(path)

    def test_cell_that_does_not_parse_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join([",".join(TRACE_COLUMNS), "0.5,1.5,1.25,0.5,2,1,3,0.25,-1"]))
        with pytest.raises(SchemaError, match="invalid literal for int"):
            read_trace_csv(path)

    @pytest.mark.parametrize("text, message", [
        (b"k,norm_d\n0,1\n1\n2,0.25\n", "another length than its header"),
        (b"k,norm_d\n0,1\n1,x\n", "could not convert string to float: 'x'"),
        (b"k\n0\n", re.escape("lacks columns: ['norm_d']")),
        (b"\xff\xfe", "codec can't decode"),
    ])
    def test_read_column_refuses_a_malformed_file_naming_it(self, tmp_path, text, message):
        # a short row used to reach float(None) in the command line's own reader
        path = tmp_path / "series.csv"
        path.write_bytes(text)
        with pytest.raises(SchemaError, match=message) as caught:
            read_column(path, "norm_d")
        assert caught.value.field == str(path)
        assert isinstance(caught.value, ValueError)

    def test_read_column(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("k,err\n0,1\n\n1,0.5e-3\n2,nan\n")
        assert read_column(path, "err")[:2] == [1.0, 0.0005]
        assert math.isnan(read_column(path, "err")[2])
        assert read_column(path, "k") == [0.0, 1.0, 2.0]

    def test_header_written(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_trace_csv([], path)
        header = path.read_text().strip()
        assert header == ("k,phi_x,phi_y,norm_d,lambda,backtracks,inner_iters,"
                          "elapsed_ms,slope")

    def test_eight_column_file_reads_without_slope(self, tmp_path):
        # files written before the slope column are refused: every replayed
        # row must carry the slope the audit checks against prop4
        path = tmp_path / "old.csv"
        path.write_text("k,phi_x,phi_y,norm_d,lambda,backtracks,inner_iters,elapsed_ms\n"
                        "0,1.5,1.25,0.5,2,1,3,0.25\n")
        with pytest.raises(ValueError, match=re.escape("lacks columns: ['slope']")):
            read_trace_csv(path)

    def test_record_fields(self):
        fields = dict(k=0, phi_x=1.0, phi_y=0.5, norm_d=0.1, lambda_k=2.0,
                      backtracks=1, inner_iters=3, elapsed_ms=0.7)
        with pytest.raises(TypeError, match="slope"):
            TraceRecord(**fields)
        assert TraceRecord(**fields, slope=-0.25).slope == -0.25


def same_bits(a, b):
    """Field by field: floats with identical bits (a NaN matching any NaN),
    other values equal and of the same type."""
    def same(x, y):
        if type(x) is not type(y):
            return False
        if type(x) is float and math.isnan(x):
            return math.isnan(y)
        if type(x) is float:
            return struct.pack("<d", x) == struct.pack("<d", y)
        return x == y
    return type(a) is type(b) and all(
        same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))


FLOATS = st.floats() | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.225073858507201e-308, 0.1])
# names with the characters CSV must quote; NUL is left out, which some
# Python versions' csv module refuses
NAMES = st.text(st.characters(exclude_categories=["Cs"], exclude_characters="\x00")
                | st.sampled_from(',"\n\r '))


def record_lists(cls):
    kinds = {int: st.integers(), float: FLOATS, str: NAMES}
    return st.lists(st.builds(cls, **{f.name: kinds[f.type] for f in dataclasses.fields(cls)}),
                    max_size=4)


def old_trace():
    return [TraceRecord(0, 2.5, 1.0000000000000002, 0.1, 0.0, 0, 3, 0.0123, -1e-300),
            TraceRecord(1, -0.0, math.nan, 5e-324, math.inf, 12, 7, 1.5, -math.inf)]


def old_table():
    floats = [0.1, -0.0, math.nan, math.inf, 5e-324, 1 / 3, 2.0 ** 1000]
    return [ComparisonRow(**{
        f.name: 'net "a", b\nc' if f.type is str else i if f.type is int else floats[i % 7]
        for i, f in enumerate(dataclasses.fields(ComparisonRow))})]


# old_trace() and old_table() as write_trace_csv and export_table wrote
# them before the two shared one codec
OLD_TRACE = (b"k,phi_x,phi_y,norm_d,lambda,backtracks,inner_iters,elapsed_ms,slope\r\n"
             b"0,2.5,1.0000000000000002,0.10000000000000001,0,0,3,0.0123,-1e-300\r\n"
             b"1,-0,nan,4.9406564584124654e-324,inf,12,7,1.5,-inf\r\n")
OLD_TABLE = (
    b"name,m,n,trials,avg_phi0,avg_phi_end,bdca_iters_min,bdca_iters_max,bdca_iters_avg,"
    b"bdca_time_min,bdca_time_max,bdca_time_avg,dca_iters_min,dca_iters_max,"
    b"dca_iters_avg,dca_time_min,dca_time_max,dca_time_avg,ratio_iters,ratio_time,"
    b"avg_phi_end_dca,dca_capped,failures\r\n"
    b'"net ""a"", b\nc",1,2,3,4.9406564584124654e-324,0.33333333333333331,6,7,-0,nan,inf,'
    b"4.9406564584124654e-324,12,13,0.10000000000000001,-0,nan,inf,"
    b"4.9406564584124654e-324,0.33333333333333331,1.0715086071862673e+301,21,22\r\n")
CODECS = {"trace": (TraceRecord, write_trace_csv, read_trace_csv),
          "table": (ComparisonRow, export_table, read_table)}


class TestRecordCodec:
    """Traces and comparison tables through their public writer and reader."""

    @pytest.mark.parametrize("kind", CODECS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_round_trip_keeps_every_bit(self, kind, data):
        cls, write, read = CODECS[kind]
        rows = data.draw(record_lists(cls))
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder) / "records.csv"
            write(rows, path)
            loaded = read(path)
        assert len(loaded) == len(rows)
        assert all(same_bits(a, b) for a, b in zip(rows, loaded))

    @pytest.mark.parametrize("kind, text, expected", [
        ("trace", OLD_TRACE, old_trace), ("table", OLD_TABLE, old_table)])
    def test_files_of_the_earlier_writers_read_back_unchanged(self, tmp_path, kind, text,
                                                               expected):
        _, write, read = CODECS[kind]
        rows = expected()
        (tmp_path / "old.csv").write_bytes(text)
        loaded = read(tmp_path / "old.csv")
        assert len(loaded) == len(rows)
        assert all(same_bits(a, b) for a, b in zip(rows, loaded))
        write(rows, tmp_path / "new.csv")
        assert (tmp_path / "new.csv").read_bytes() == text


# (problem, variant, iterations, status, phi_final.hex()): a change to the
# arithmetic of the line searches or the inner solver that moves any iterate
# by one bit shows up in at least one of these.  Chord steps in every
# variant, with a factor kept only by a step that cuts ||grad F|| tenfold,
# moved all but the quartic's dca and bdca-qi rows (quartic fm 16 -> 17
# iterations; every other status and count kept).
PINNED_OUTCOMES = (
    ("quartic", "dca", 17, "StationaryPoint", "-0x1.ffffffffffffep-3"),
    ("quartic", "bdca-b", 7, "StationaryPoint", "-0x1.0000000000000p-2"),
    ("quartic", "bdca-qi", 6, "StationaryPoint", "-0x1.0000000000000p-2"),
    ("quartic", "fm", 17, "StationaryPoint", "-0x1.ffffffffffffep-3"),
    ("expsys", "dca", 71, "StationaryPoint", "0x1.85e84b01bdde8p-50"),
    ("expsys", "bdca-b", 100, "MaxIters", "0x1.fffa265bbe3a9p-1"),
    ("expsys", "bdca-qi", 28, "StationaryPoint", "0x1.d554e40000000p-84"),
    ("expsys", "fm", 71, "StationaryPoint", "0x1.a405ad0e2f4c4p-50"),
    ("network", "dca", 100, "MaxIters", "0x1.0da5413d19265p+8"),
    ("network", "bdca-b", 100, "MaxIters", "0x1.60c4d4ba1248fp+3"),
    ("network", "bdca-qi", 100, "MaxIters", "0x1.691987862cdf7p-8"),
    ("network", "fm", 100, "MaxIters", "0x1.0da540ad25ea9p+8"),
)


def pinned_problem(name):
    if name == "network":
        net = generate_network(6, 9, seed=5)
        return NetworkObjective(net).as_dc_problem(rho=100.0), np.linspace(-1.5, 1.5, 6)
    start = {"quartic": [1.9], "expsys": [1.5]}[name]
    return builtin_problem(name), np.array(start)


@pytest.mark.filterwarnings("ignore::dcboost.TheoryWarning")
@pytest.mark.parametrize("name,variant,iterations,status,phi_hex", PINNED_OUTCOMES)
def test_iterates_pinned(name, variant, iterations, status, phi_hex):
    problem, x0 = pinned_problem(name)
    result = solve(problem, x0, SolverConfig(variant=variant, max_outer_iters=100))
    assert result.iterations == iterations
    assert result.status.value == status
    assert result.phi_final.hex() == phi_hex


@pytest.mark.parametrize("variant", [v.value for v in Variant])
def test_only_plain_dca_predicts_its_subproblem_solution(monkeypatch, variant):
    # dca's one state guesses that subproblem k starts at x_k plus the step of
    # the polynomial through its last iterates: d_{k-1} in iteration 1,
    # 2 d_{k-1} - d_{k-2} in iteration 2, 3 d_{k-1} - 3 d_{k-2} + d_{k-3} from
    # iteration 3 on; every other variant passes the solve's one state too,
    # for its factor, but that state guesses nothing, so those subproblems
    # start at x_k
    calls = []

    def recording(problem, linear_term, x_init, tol_grad=1e-8, state=None):
        calls.append((x_init, state, None if state is None else state.guess(x_init)))
        return minimize_subproblem(problem, linear_term, x_init, tol_grad, state)

    monkeypatch.setattr(dcboost.solver, "minimize_subproblem", recording)
    problem, x0 = pinned_problem("network")
    solve(problem, x0, SolverConfig(variant=variant, max_outer_iters=20))
    assert len(calls) == 20 and calls[0][2] is None
    xs = [x for x, _, _ in calls]
    assert isinstance(calls[0][1], SubproblemState)
    for k, (x, state, guess) in enumerate(calls[1:], start=1):
        assert state is calls[0][1]
        if variant != "dca":
            assert guess is None and state.steps == ()
            continue
        d = [xs[j] - xs[j - 1] for j in range(k, max(k - 3, 0), -1)]  # newest first
        if len(d) == 1:
            step = d[0]
        elif len(d) == 2:
            step = 2.0 * d[0] - d[1]
        else:
            step = 3.0 * (d[0] - d[1]) + d[2]
        assert np.array_equal(guess, x + step), k


def test_predicted_subproblem_solution_is_exact_on_a_cubic_path():
    # iterates that are a cubic in k, with small integers for coordinates
    # so that every difference is exact in floats: once the state holds
    # three steps its guess is the next iterate itself, and before that it
    # is not
    def path(k):
        k = float(k)
        return np.array([k ** 3 - 2.0 * k, 2.0 - k ** 2, 3.0 * k ** 3 + k ** 2 - 5.0])

    state = SubproblemState(predicts=True)
    assert state.guess(path(0)) is None
    for k in range(1, 8):
        state.steps = (path(k) - path(k - 1), *state.steps[:2])
        assert np.array_equal(state.guess(path(k)), path(k + 1)) == (k >= 3), k


def test_c6_scale_matched_trial_pinned():
    # the pins above stop at m = 6; this is C6's first trial at m = 20,
    # both the boosted run and the plain chase of its value, with their
    # Newton steps (the chase's predicted starts took 1,959 down to 912;
    # its chord steps, each far cheaper than a Newton step, make 1,419;
    # chord steps in every variant, each factor kept only by a step that
    # cuts ||grad F|| tenfold, make the boosted run's 464 steps 1,118 and
    # the chase's 1,410)
    problem = NetworkObjective(generate_network(20, 30, 101)).as_dc_problem(rho=100.0)
    x0 = np.random.default_rng([0, 0, 0]).uniform(-2.0, 2.0, 20)
    result = run_matched_target(problem, x0, SolverConfig(variant="bdca-qi"), bdca_iters=200)
    assert [(run.iterations, run.status.value, run.phi_final.hex(),
             sum(rec.inner_iters for rec in run.trace))
            for run in (result.bdca, result.dca)] == [
        (200, "MaxIters", "0x1.5c4eb62a885a6p+6", 1118),
        (861, "TargetReached", "0x1.5c46e0f922cc6p+6", 1410),
    ]


@st.composite
def network_starts(draw):
    m = draw(st.integers(3, 8))
    net = generate_network(m, draw(st.integers(m, 2 * m)), seed=draw(st.integers(0, 10 ** 6)))
    x0 = np.array(draw(st.lists(st.floats(-8.0, 8.0), min_size=m, max_size=m)))
    return net, x0


@settings(max_examples=40, deadline=None)
@given(network_starts())
def test_network_solves_hold_their_guarantees(tmp_path_factory, case):
    # Unit masses are conserved exactly, so l^T f(x) = 0 at every x; the
    # gradient of phi is not orthogonal to l (only l^T J = 0 holds).
    net, x0 = case
    obj = NetworkObjective(net)
    problem = obj.as_dc_problem(rho=100.0)
    path = tmp_path_factory.mktemp("trace") / "trace.csv"
    for variant in Variant:
        config = SolverConfig(variant=variant, max_outer_iters=60)
        result = solve(problem, x0, config)
        write_trace_csv(result.trace, path)
        for trace in (result.trace, read_trace_csv(path)):
            report = audit_trace(trace, problem, config, phi_final=result.phi_final)
            assert report.passed, (variant, report.violations)
        values = [rec.phi_x for rec in result.trace] + [result.phi_final]
        for before, after in zip(values, values[1:]):
            assert after <= before + 1e-6 * (1.0 + abs(before)), variant
        p, c, f = obj.rates(result.x_final)
        assert abs(float(np.sum(f))) <= 1e-14 * float(np.sum(p + c)), variant


@st.composite
def starts_at_top_exponent(draw, level):
    # x0 = t d with t chosen so that the top exponent max(w + t B d) is
    # level(draw, objective): at the smallest t where an exponent rising
    # along d reaches that level, no other exponent lies above it
    m = draw(st.integers(3, 8))
    net = generate_network(m, draw(st.integers(m, 2 * m)), seed=draw(st.integers(0, 10 ** 6)))
    obj = NetworkObjective(net)
    # steps of 1e-3 keep every nonzero slope far from a subnormal
    d = np.array(draw(st.lists(st.integers(-1000, 1000), min_size=m, max_size=m))) / 1000.0
    slopes = obj.B @ d
    if slopes.max() <= 0.0:
        d, slopes = -d, -slopes
    assume(slopes.max() > 0.0)
    top = level(draw, obj)
    rising = slopes > 0.0
    t = float(np.min((top - net.w[rising]) / slopes[rising]))
    return net, t * d


def near_guard_starts():
    return starts_at_top_exponent(lambda draw, obj: EXP_GUARD - draw(st.floats(0.0, 1.0)))


@settings(max_examples=40, deadline=None)
@given(near_guard_starts())
def test_solves_near_the_exponent_guard_end_in_a_status(case):
    # gradients and Hessians overflow here before values do; under the
    # suite's warnings-as-errors filter no NumPy warning may leave solve
    net, x0 = case
    problem = NetworkObjective(net).as_dc_problem(rho=100.0)
    for variant in Variant:
        config = SolverConfig(variant=variant, max_outer_iters=20)
        result = solve(problem, x0, config)
        assert isinstance(result.status, Status)
        assert result.message or not result.status.is_failure
        report = audit_trace(result.trace, problem, config, phi_final=result.phi_final)
        assert report.passed, (variant, report.violations)


@settings(max_examples=40, deadline=None)
@given(starts_at_top_exponent(lambda draw, obj: obj.safe_exponent() - 0.01))
def test_solves_inside_the_safe_domain_are_not_read_as_stationary(case):
    # every evaluation is finite here, but a gradient's squared norm can
    # overflow; read as an infinite norm, it would meet any tolerance and
    # stop the solve at x0 as StationaryPoint with no Newton step
    net, x0 = case
    problem = NetworkObjective(net).as_dc_problem(rho=100.0)
    for variant in Variant:
        config = SolverConfig(variant=variant, max_outer_iters=20)
        result = solve(problem, x0, config)
        assert isinstance(result.status, Status)
        report = audit_trace(result.trace, problem, config, phi_final=result.phi_final)
        assert report.passed, (variant, report.violations)
        if result.status is Status.STATIONARY_POINT:
            first = result.trace[0]
            assert first.inner_iters > 0 or first.norm_d > 0.0, variant


@pytest.mark.filterwarnings("ignore::dcboost.TheoryWarning")
@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["quartic", "expsys"]), st.floats())
def test_any_start_ends_in_a_status_with_a_message(name, start):
    # NaN and infinite starts included: no evaluation's overflow escapes
    # solve, and a failure says why
    problem = builtin_problem(name)
    for variant in Variant:
        result = solve(problem, np.array([start]),
                       SolverConfig(variant=variant, max_outer_iters=20))
        assert isinstance(result, SolveResult)
        assert isinstance(result.status, Status)
        if result.status.is_failure:
            assert result.message, variant
