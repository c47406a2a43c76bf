"""Rate classification and decrease audits for solver traces.

The rate side works on scalar error sequences: `verify_rate_inequality`
checks the recurrence s_k^alpha <= beta (s_k - s_{k+1}) that separates
finite, linear and sublinear convergence, and `classify_rate` labels an
observed sequence with one of those regimes.  The audit side replays the
decrease inequalities that every accepted outer iteration must satisfy.
"""

import enum
import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional

import numpy as np

from .solver import Variant

__all__ = (
    "Regime",
    "RateReport",
    "Violation",
    "AuditReport",
    "verify_rate_inequality",
    "classify_rate",
    "audit_trace",
    "effective_modulus",
)

_REL_SLACK = 1e-12
AUDIT_TOL_BASE = 1e-6


def _finite_json(obj):
    """obj with each non-finite float in it, through dicts, lists and
    tuples, replaced by None, which strict JSON writes as null."""
    if isinstance(obj, dict):
        return {key: _finite_json(item) for key, item in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_json(item) for item in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


class Regime(str, enum.Enum):
    FINITE = "Finite"
    LINEAR = "Linear"
    SUBLINEAR = "Sublinear"
    INCONCLUSIVE = "Inconclusive"


@dataclass
class RateReport:
    """Outcome of classify_rate.

    ``rate`` is the mean tail ratio for Linear sequences, ``exponent``
    the fitted power for Sublinear ones (s ~ k^-exponent); the unused
    slot is None.  ``fit_residual`` is the RMS residual of the accepted
    log-regression (0 for Finite, inf when nothing was accepted).
    """

    regime: Regime
    rate: Optional[float]
    exponent: Optional[float]
    fit_residual: float
    samples_used: int

    def to_json(self):
        return _finite_json({
            "regime": self.regime.value,
            "rate": self.rate,
            "exponent": self.exponent,
            "fit_residual": self.fit_residual,
            "samples_used": self.samples_used,
        })


class Violation(NamedTuple):
    iteration: int
    inequality: str
    lhs: float
    rhs: float


@dataclass
class AuditReport:
    violations: List[Violation]
    audit_tol: float
    passed: bool

    def to_json(self):
        return _finite_json({
            "passed": self.passed,
            "audit_tol": self.audit_tol,
            "violations": [v._asdict() for v in self.violations],
        })


def verify_rate_inequality(s, alpha, beta, from_index=0):
    """Check s_k^alpha <= beta (s_k - s_{k+1}) for all k >= from_index.

    Terms with s_k = 0 are skipped (the sequence has already terminated
    there, which is the alpha = 0 regime's conclusion).  Comparisons
    carry a 1e-12 relative slack so exact-equality constructions pass.

    Raises ValueError for negative or NaN data, an alpha that is not
    nonnegative, a beta that is not positive, or a tail (from
    ``from_index`` on) that is not nonincreasing.
    """
    s = np.asarray(s, dtype=float).reshape(-1)
    # each test is written so that a NaN fails it
    if not alpha >= 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if not 0 <= from_index <= s.size - 2:
        raise ValueError(
            f"from_index {from_index} leaves no pairs in a length-{s.size} sequence"
        )
    s = s[from_index:]
    if not np.all(s >= 0):
        raise ValueError("sequence must be nonnegative")
    rises = s[1:] - s[:-1]
    if np.any(rises > _REL_SLACK * (1.0 + s[:-1])):
        raise ValueError("sequence must be nonincreasing")

    for k in range(s.size - 1):
        if s[k] == 0.0:
            continue
        lhs = s[k] ** alpha
        rhs = beta * (s[k] - s[k + 1])
        if not lhs <= rhs + _REL_SLACK * max(1.0, lhs):
            return False
    return True


def _tail_window(length):
    return min(length, max(length // 3, 5))


def _rms_line_fit(x, y):
    coeffs = np.polyfit(x, y, 1)
    resid = y - np.polyval(coeffs, x)
    return float(coeffs[0]), float(np.sqrt(np.mean(resid ** 2)))


def classify_rate(s, atol=None):
    """Label an error sequence Finite, Linear, Sublinear or Inconclusive.

    Finite: some term falls to atol (default 1e-14 * s_0; a given atol
    must be finite and nonnegative, else ValueError).  Linear: the
    last-third ratios have variance below 0.01 and a mean inside (0, 1),
    and a geometric model fits the tail at least as well as a power
    model.  Sublinear: the log-log regression over the last third has a
    positive decay exponent.  Anything else (including sequences of
    fewer than 10 terms) is Inconclusive.
    """
    s = np.asarray(s, dtype=float).reshape(-1)
    if s.size == 0:
        raise ValueError("empty sequence")
    if np.any(s < 0) or not np.all(np.isfinite(s)):
        raise ValueError("sequence must be nonnegative and finite")
    if atol is None:
        atol = 1e-14 * s[0]
    elif not 0 <= atol < math.inf:
        raise ValueError(f"atol must be nonnegative and finite, got {atol}")

    hits = np.flatnonzero(s <= atol)
    if hits.size:
        first = int(hits[0])
        return RateReport(Regime.FINITE, rate=None, exponent=None,
                          fit_residual=0.0, samples_used=first + 1)

    if s.size < 10:
        return RateReport(Regime.INCONCLUSIVE, rate=None, exponent=None,
                          fit_residual=math.inf, samples_used=s.size)

    window = _tail_window(s.size)
    start = s.size - window
    tail = s[start:]
    # 1-based positions keep the power fit defined when the tail reaches k=0
    positions = np.arange(start + 1, s.size + 1, dtype=float)
    log_tail = np.log(tail)

    _, geometric_rms = _rms_line_fit(positions, log_tail)
    power_slope, power_rms = _rms_line_fit(np.log(positions), log_tail)

    ratios = tail[1:] / tail[:-1]
    mean_ratio = float(np.mean(ratios))
    stable = float(np.var(ratios)) < 0.01 and 0.0 < mean_ratio < 1.0
    if stable and geometric_rms <= power_rms:
        return RateReport(Regime.LINEAR, rate=mean_ratio, exponent=None,
                          fit_residual=geometric_rms, samples_used=window)

    exponent = -power_slope
    if exponent > 0.0:
        return RateReport(Regime.SUBLINEAR, rate=None, exponent=exponent,
                          fit_residual=power_rms, samples_used=window)

    return RateReport(Regime.INCONCLUSIVE, rate=None, exponent=None,
                      fit_residual=power_rms, samples_used=s.size)


# -- trace audits --------------------------------------------------------


def effective_modulus(moduli):
    """(sigma_g + sigma_h)/2 + rho from anything carrying the moduli."""
    sigma_g, sigma_h, rho = _unpack_moduli(moduli)
    return 0.5 * (sigma_g + sigma_h) + rho


def _unpack_moduli(moduli):
    if hasattr(moduli, "sigma_g"):
        moduli = (moduli.sigma_g, moduli.sigma_h, moduli.rho)
    sigma_g, sigma_h, rho = (float(v) for v in moduli)
    for name, value in (("sigma_g", sigma_g), ("sigma_h", sigma_h), ("rho", rho)):
        _check_finite_nonnegative(name, value)
    return sigma_g, sigma_h, rho


def _check_finite_nonnegative(name, value):
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and nonnegative, got {value}")


def audit_trace(trace, problem_moduli, config, phi_final=None,
                tol_base=AUDIT_TOL_BASE):
    """Replay the decrease inequalities over a completed trace.

    Per row k (phi_x = phi(x_k), phi_y = phi(y_k), nd = ||d_k||), with
    tol_k = tol_base * (1 + |phi(x_k)|) and rho_eff from the moduli:

    * ``prop3_decrease``:   phi_y <= phi_x - rho_eff * nd^2 + tol_k
    * ``prop4_slope``:      slope <= -(sigma_h + rho) * nd^2
                            + tol_base * (1 + nd^2)   (rows with nd > 0)
    * ``phi_decreasing``:   phi(x_{k+1}) <= phi_x - drop_k + tol_k
    * ``bound_sum``:        sum of the guaranteed drops up to k stays below
                            phi(x_0) - phi(x_{k+1}) plus accumulated slack

    where drop_k = (alpha * lambda_k + rho_eff) * nd^2 for the forward
    variants (lambda_k = 0 on plain steps) and alpha * (1 + lambda_k) *
    nd^2 for the backward baseline, whose steps stop short of y_k.  The
    summability proxy uses rho_eff * nd^2 for the forward variants.

    ``phi_final`` supplies phi after the last row; without it the last
    row is only checked for prop3/prop4.  A NaN on either side fails an
    inequality.  Raises ValueError for a modulus or ``tol_base`` that is
    not finite and nonnegative.
    """
    _check_finite_nonnegative("tol_base", tol_base)
    _, sigma_h, rho = _unpack_moduli(problem_moduli)
    rho_eff = effective_modulus(problem_moduli)
    slope_modulus = sigma_h + rho
    variant = Variant(config.variant)
    alpha = float(config.alpha)

    violations: List[Violation] = []
    running_sum = 0.0
    running_slack = 0.0
    phi_first = trace[0].phi_x if trace else 0.0

    for idx, rec in enumerate(trace):
        nd2 = rec.norm_d ** 2
        tol_k = tol_base * (1.0 + abs(rec.phi_x))

        lhs = rec.phi_y
        rhs = rec.phi_x - rho_eff * nd2 + tol_k
        if not lhs <= rhs:
            violations.append(Violation(rec.k, "prop3_decrease", lhs, rhs))

        if rec.norm_d > 0.0:
            rhs = -slope_modulus * nd2 + tol_base * (1.0 + nd2)
            if not rec.slope <= rhs:
                violations.append(Violation(rec.k, "prop4_slope", rec.slope, rhs))

        if idx + 1 < len(trace):
            phi_next = trace[idx + 1].phi_x
            next_k = trace[idx + 1].k
        else:
            phi_next = phi_final
            next_k = rec.k + 1
        if phi_next is None:
            continue

        if variant is Variant.FM:
            drop = alpha * (1.0 + rec.lambda_k) * nd2
            summed = drop
        else:
            drop = (alpha * rec.lambda_k + rho_eff) * nd2
            summed = rho_eff * nd2
        rhs = rec.phi_x - drop + tol_k
        if not phi_next <= rhs:
            # attributed to the iterate whose value broke the decrease
            violations.append(Violation(next_k, "phi_decreasing", phi_next, rhs))

        running_sum += summed
        running_slack += tol_k
        rhs = phi_first - phi_next + running_slack
        if not running_sum <= rhs:
            violations.append(Violation(rec.k, "bound_sum", running_sum, rhs))

    return AuditReport(violations=violations, audit_tol=tol_base,
                       passed=not violations)
