"""Damped-Newton minimizer for the strongly convex subproblems.

Each outer iteration minimizes F(x) = g(x) - <b, x>.  F inherits g's
curvature, so a Cholesky-based Newton method with a small Armijo
safeguard converges in a handful of steps from the warm start.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from .exceptions import EvaluationOverflow, NumericalError

__all__ = ("InnerConfig", "SubproblemSpec", "spd_solve", "minimize_subproblem",
           "sufficient_decrease", "value_or_inf")

_ARMIJO_C1 = 1e-4
_MAX_HALVINGS = 60
_RESIDUAL_RTOL = 1e-10
_REFINEMENT_PASSES = 3
# the LAPACK calls cho_factor/cho_solve make, without their checks
_POTRF, _POTRS = scipy.linalg.get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)


@dataclass
class InnerConfig:
    """Termination and damping controls for the Newton loop."""

    tol_grad: float = 1e-8
    max_iters: int = 200
    damping_floor: float = 1e-10

    def __post_init__(self):
        if self.tol_grad <= 0:
            raise ValueError(f"tol_grad must be positive, got {self.tol_grad}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")
        if self.damping_floor <= 0:
            raise ValueError(f"damping_floor must be positive, got {self.damping_floor}")


@dataclass
class SubproblemSpec:
    """F(x) = g(x) - <linear_term, x>.

    ``eval_g`` maps x to (value, gradient, Hessian); ``value_g`` maps x to
    the value alone and serves the line-search trials.
    """

    eval_g: Callable
    linear_term: np.ndarray
    value_g: Callable

    def __post_init__(self):
        self.linear_term = np.asarray(self.linear_term, dtype=float)

    def objective(self, x):
        """Value, gradient and Hessian of F at x."""
        v, grad, hess = self.eval_g(x)
        x = np.asarray(x, dtype=float)
        v = float(v) - float(self.linear_term @ x)
        grad = np.asarray(grad, dtype=float) - self.linear_term
        return v, grad, np.asarray(hess, dtype=float)

    def value(self, x):
        """Value of F at x."""
        x = np.asarray(x, dtype=float)
        return float(self.value_g(x)) - float(self.linear_term @ x)


def spd_solve(hess, rhs, damping_floor=1e-10):
    """Solve (hess + mu*I) d = rhs with the smallest workable damping mu.

    Tries mu = 0 first, then damping_floor * 4^j.  A solve is accepted once
    Cholesky succeeds and (after at most a few refinement passes) the
    relative residual is at or below 1e-10.  Returns ``(d, mu)``.

    Raises ValueError when damping_floor is not positive (no damping could
    then grow), and NumericalError for non-finite input, when the damping
    needed exceeds 1e6 times the Hessian's infinity norm, or when that
    norm or the damping overflows.
    """
    if damping_floor <= 0:
        raise ValueError(f"damping_floor must be positive, got {damping_floor}")
    hess = np.asarray(hess, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if not (np.all(np.isfinite(hess)) and np.all(np.isfinite(rhs))):
        raise NumericalError("non-finite Hessian or right-hand side")

    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return np.zeros_like(rhs), 0.0

    tol = _RESIDUAL_RTOL * rhs_norm
    mu = 0.0
    while True:
        shifted = hess if mu == 0.0 else hess + mu * np.eye(hess.shape[0])
        factor, info = _POTRF(shifted, lower=False, overwrite_a=False, clean=False)
        if info == 0:
            d = _POTRS(factor, rhs, lower=False)[0]
            for passes in range(_REFINEMENT_PASSES + 1):
                resid = rhs - shifted @ d
                accepted = np.linalg.norm(resid) <= tol
                if accepted or passes == _REFINEMENT_PASSES:
                    break
                d = d + _POTRS(factor, resid, lower=False)[0]
            if accepted and np.all(np.isfinite(d)):
                return d, mu
        if mu == 0.0:
            # the cap is only needed once damping is
            mu = damping_floor
            with np.errstate(over="ignore"):
                mu_cap = 1e6 * max(float(np.linalg.norm(hess, np.inf)), 1.0)
        else:
            mu = 4.0 * mu
        if mu > mu_cap:
            raise NumericalError(
                f"damping exceeded {mu_cap:.3g} without a reliable factorization"
            )
        if not (np.isfinite(mu) and np.isfinite(mu_cap)):
            # an overflowing ||H||_inf makes the cap inf, which no mu exceeds
            raise NumericalError(f"damping {mu:.3g} or its cap {mu_cap:.3g} is not finite")


def minimize_subproblem(spec, x_init, config=None):
    """Minimize a strongly convex subproblem by damped Newton steps.

    Stops when ||grad F|| <= tol_grad * max(1, ||grad F(x_init)||): far
    from a solution the test is relative to the warm start's residual (an
    absolute 1e-8 is unreachable there, the gradient's own rounding floor
    is larger), near one it is the plain absolute tolerance.

    Returns ``(x, iterations)`` where ``iterations`` counts Newton steps
    taken; 0 when the warm start already meets the gradient tolerance.

    Raises NumericalError on non-finite derivatives at an accepted point,
    on exhausted damping, or when the iteration or line-search budget runs
    out before the tolerance is met.
    """
    if config is None:
        config = InnerConfig()
    x = np.asarray(x_init, dtype=float).copy()

    value, grad, hess = _evaluate(spec, x)
    tol = config.tol_grad * max(1.0, float(np.linalg.norm(grad)))
    for iteration in range(config.max_iters + 1):
        if np.linalg.norm(grad) <= tol:
            return x, iteration
        if iteration == config.max_iters:
            break
        direction, _ = spd_solve(hess, -grad, config.damping_floor)
        slope = float(grad @ direction)
        if slope >= 0.0:
            # descent failed despite damping: direction numerically useless
            raise NumericalError("Newton direction is not a descent direction")

        noise = 8.0 * np.finfo(float).eps * (1.0 + abs(value))
        if -slope <= noise:
            # Predicted decrease sits below the value's rounding floor, so
            # the Armijo test cannot discriminate.  Take the full step as
            # long as the value does not rise beyond that floor; the
            # gradient keeps contracting through the quadratic phase.
            if value_or_inf(spec.value, x + direction) > value + noise:
                raise NumericalError("inner step stalled at the value resolution floor")
            step = 1.0
        else:
            found = sufficient_decrease(spec.value, x, direction, value, slope,
                                        _ARMIJO_C1, 1.0, 0.5, _MAX_HALVINGS)
            if found is None:
                raise NumericalError("inner line search exhausted its halvings")
            step = found[0]
        x_new = x + step * direction
        if np.array_equal(x_new, x):
            raise NumericalError("inner step vanished below machine resolution")
        x = x_new
        value, grad, hess = _evaluate(spec, x)

    raise NumericalError(
        f"inner solver did not reach its gradient tolerance {tol:g} "
        f"in {config.max_iters} iterations"
    )


def _evaluate(spec, x):
    try:
        value, grad, hess = spec.objective(x)
    except EvaluationOverflow as exc:
        raise NumericalError(f"objective overflow at an accepted point: {exc}") from exc
    if not (np.isfinite(value) and np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))):
        raise NumericalError("non-finite subproblem derivatives at an accepted point")
    return value, np.asarray(grad, dtype=float), np.asarray(hess, dtype=float)


def value_or_inf(value, x):
    """value(x), with an overflow or a non-finite result read as +inf."""
    try:
        v = value(x)
    except (EvaluationOverflow, FloatingPointError, OverflowError):
        return np.inf
    return v if np.isfinite(v) else np.inf


def sufficient_decrease(value, base, direction, f0, slope, c, step, shrink, tries):
    """Armijo search shared by the inner Newton loop and the outer steps.

    Tries t = step, step*shrink, ... (at most ``tries`` values) and returns
    ``(t, i)`` for the first t = step*shrink^i with

        value(base + t * direction) <= f0 + c * t * slope,

    or None when every try fails.  Overflowing or non-finite trial values
    fail the test.
    """
    for i in range(tries):
        if value_or_inf(value, base + step * direction) <= f0 + c * step * slope:
            return step, i
        step *= shrink
    return None
