"""Damped-Newton minimizer for the strongly convex subproblems.

Each outer iteration minimizes F(x) = g(x) - <b, x>.  F inherits g's
curvature, so a Cholesky-based Newton method with a small Armijo
safeguard converges in a handful of steps from the warm start.
"""

import dataclasses
import math
import numbers
from contextlib import nullcontext
from typing import Optional

import numpy as np
import scipy.linalg
from scipy.linalg.blas import ddot

from .exceptions import EvaluationOverflow, NumericalError

__all__ = ("spd_solve", "minimize_subproblem")

_ARMIJO_C1 = 1e-4
_MAX_HALVINGS = 60
_MAX_NEWTON_STEPS = 200
# the first nonzero damping spd_solve tries, before growing it 4x at a time
_DAMPING_FLOOR = 1e-10
_RESIDUAL_RTOL = 1e-10
_REFINEMENT_PASSES = 3
# a step keeps the factor that served it only if ||grad F|| fell this much
_CHORD_CONTRACTION = 0.1
# a value's rounding floor, relative to 1 + |value|
_NOISE_RTOL = 8.0 * np.finfo(float).eps
_TINY = np.finfo(float).tiny
# what a trial's evaluation may raise, which reads as a value of +inf
_OVERFLOWS = (EvaluationOverflow, FloatingPointError, OverflowError)
# the LAPACK calls cho_factor/cho_solve make, without their checks; called
# positionally, as f2py's keyword parsing costs about a microsecond a call:
# _POTRF(a, 1, 0) is the lower factor with a's upper triangle left in place
# (lower=1, clean=0), and _POTRS(c, b, 1) solves with a lower factor, as
# OpenBLAS 0.3.31's potrf factors a network Hessian by its lower triangle
# 22-33 % faster than by its upper one at m = 40-400 (one thread, 2-core x86)
_POTRF, _POTRS = scipy.linalg.get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)


def check_count(name, value, low=1):
    """Raise ValueError unless value is an integer, not a bool, of at least low."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name} must be an integer of at least {low}, got {value!r}")


def check_numbers(obj):
    """Raise ValueError unless each float field of the dataclass ``obj``
    holds a real number, not a bool; an Optional[float] field may be None."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if f.type is float or (f.type == Optional[float] and value is not None):
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{f.name} must be a number, got {value!r}")


class SubproblemState:
    """What one solve's subproblems share: the undamped lower Cholesky
    factor that chord steps reuse (its other triangle still holds the
    Hessian's entries, which no call reads), or None; F's gradient at the
    last subproblem's solution, or None before one; and, when the state
    ``predicts``, the last three subproblem steps y - x_init, newest first,
    from which each subproblem's start is guessed.  Only plain DCA
    predicts: after a boost the last moves predict the next subproblem's
    solution badly."""

    def __init__(self, predicts=False):
        self.predicts, self.steps, self.factor, self.grad = predicts, (), None, None

    def guess(self, x):
        """The predicted solution of the subproblem at x, or None before a
        step or when the state does not predict.  Plain DCA's iterates
        follow a smooth path, so this is x plus the next step of the
        polynomial through the last len(steps) + 1 iterates: d_k for one
        step, the line's 2 d_k - d_{k-1} for two, the cubic's
        3 d_k - 3 d_{k-1} + d_{k-2} for three."""
        steps = self.steps
        if len(steps) < 2:
            return x + steps[0] if steps else None
        if len(steps) == 2:
            return x + (2.0 * steps[0] - steps[1])
        return x + (3.0 * (steps[0] - steps[1]) + steps[2])


def spd_solve(hess, rhs, state=None):
    """Solve (hess + mu*I) d = rhs with the smallest workable damping mu.

    Tries mu = 0 first, then 1e-10 * 4^j.  A solve is accepted once
    Cholesky succeeds and (after at most a few refinement passes) the
    relative residual is at or below 1e-10.  ``rhs`` is a vector.
    Returns ``(d, mu)``; with mu = 0 the lower Cholesky factor of hess is
    also kept as ``state.factor`` when a SubproblemState ``state`` is given.

    When the Hessian's infinity norm overflows although its entries are
    finite, the system is solved with hess and rhs each divided by its
    largest entry, and d and mu are returned in the original scale.

    Raises NumericalError for non-finite input, when the damping needed
    exceeds 1e6 times the Hessian's infinity norm, or when the damping in
    the original scale is not finite.
    """
    hess = np.asarray(hess, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if not (_all_finite(hess.ravel("K")) and _all_finite(rhs)):
        raise NumericalError("non-finite Hessian or right-hand side")

    rhs_norm = _norm(rhs)
    if rhs_norm == 0.0:
        return np.zeros_like(rhs), 0.0

    tol = _RESIDUAL_RTOL * rhs_norm
    mu, shifted = 0.0, hess
    while True:
        factor, info = _POTRF(shifted, 1, 0)
        if info == 0:
            d = _POTRS(factor, rhs, 1)[0]
            for passes in range(_REFINEMENT_PASSES + 1):
                resid = rhs - shifted @ d
                accepted = _norm(resid) <= tol
                if accepted or passes == _REFINEMENT_PASSES:
                    break
                d = d + _POTRS(factor, resid, 1)[0]
            if accepted and _all_finite(d):
                if state is not None and mu == 0.0:
                    state.factor = factor
                return d, mu
        if mu == 0.0:
            # the cap is only needed once damping is
            mu = _DAMPING_FLOOR
            with np.errstate(over="ignore"):
                mu_cap = 1e6 * max(float(np.linalg.norm(hess, np.inf)), 1.0)
            if math.isinf(mu_cap):
                # ||H||_inf overflows, so no mu would reach the cap: with s and
                # t the largest entries of H and rhs, solve (H/s + (mu/s) I) d' =
                # rhs/t, whose d' is d scaled by s/t
                scale, rhs_scale = float(np.abs(hess).max()), float(np.abs(rhs).max())
                d, mu = spd_solve(hess / scale, rhs / rhs_scale)
                mu *= scale
                if math.isinf(mu):
                    raise NumericalError(f"damping {mu:.3g} at the Hessian's scale "
                                         f"{scale:.3g} is not finite")
                return d * (rhs_scale / scale), mu
            # every rung is hess + mu I with its bits, written into one copy:
            # off the diagonal hess + 0.0, which turns a -0.0 into +0.0
            shifted = np.add(hess, 0.0, order="C")
        else:
            mu = 4.0 * mu
        if mu > mu_cap:
            raise NumericalError(
                f"damping exceeded {mu_cap:.3g} without a reliable factorization"
            )
        shifted.ravel()[:: hess.shape[0] + 1] = hess.diagonal() + mu


def _all_finite(v):
    """np.isfinite(v).all() for a vector: v . v is finite only if every
    entry is, and one BLAS dot costs less than the elementwise test,
    which is left for a finite v whose v . v overflows."""
    return math.isfinite(ddot(v, v)) or bool(np.isfinite(v).all())


def _norm(v):
    """||v||: sqrt(v . v) bit for bit, unless v is finite and v . v
    overflows, where a norm read as inf would meet any tolerance, or v is
    nonzero and v . v falls below the normal range, where the norm loses
    digits or reads as 0; either way v is scaled by its largest entry."""
    square = ddot(v, v)
    if (math.isinf(square) and np.isfinite(v).all()) or (square < _TINY and v.any()):
        scale = float(np.abs(v).max())
        v = v / scale
        return scale * math.sqrt(ddot(v, v))
    return math.sqrt(square)


def minimize_subproblem(problem, linear_term, x_init, tol_grad=1e-8, state=None):
    """Minimize F(x) = g(x) - <linear_term, x> by damped Newton steps.

    F's pieces come from ``problem``'s ``g_value_grad`` (each step's full
    trial and the other accepted points), ``g_value`` (halved trials) and
    ``g_hessian`` (Newton steps).

    Stops when ||grad F|| <= tol_grad * max(1, ||grad F(x_init)||): far
    from a solution the test is relative to the warm start's residual (an
    absolute 1e-8 is unreachable there, the gradient's own rounding floor
    is larger), near one it is the plain absolute tolerance.

    With a ``state`` (SubproblemState) the run takes chord steps while the
    state holds a factor (see ``_newton``), and, if the state predicts,
    starts at its guess where F's value and gradient are finite and the
    value is no higher than at x_init (the tolerance stays the one taken
    at x_init).  Should that run fail, the factor is dropped and one more
    run is made from x_init without a factor, which is the run without a
    state, so a state adds no failure.  On success the state keeps F's
    gradient at y as ``grad``, and a predicting state takes ``y - x_init``
    as its newest step.

    Each accepted point costs one value and gradient, which for a full
    step is its trial's; a Hessian is asked for only where a Newton
    direction is computed, and its finiteness is checked by ``spd_solve``.
    A call without a state runs under ``np.errstate(over="ignore",
    invalid="ignore")``: a full trial's gradient may overflow where the
    step is then rejected, and a non-finite value or gradient at an
    accepted point raises.  A state belongs to one solve, whose loop
    already runs under that errstate, so a call with one enters none.

    Returns ``(x, iterations)`` where ``iterations`` counts the Newton and
    chord steps taken (those of a failed run too); 0 when the start
    (x_init or the guess taken) already meets the gradient tolerance.

    Raises NumericalError (EvaluationOverflow past the problem's guard) on a
    non-finite value or gradient at an accepted point, on a non-finite
    Hessian where a step is needed, on exhausted damping, or when the
    iteration or line-search budget runs out before the tolerance is met.
    """
    b = np.asarray(linear_term, dtype=float)
    x_init = np.asarray(x_init, dtype=float).copy()
    # one errstate per subproblem of a solve cost 1.4 % of matched_m20's
    # boosted time and 4.8 % of its chase (2-core x86 box)
    quiet = np.errstate(over="ignore", invalid="ignore") if state is None else nullcontext()
    with quiet:
        at_x_init = (x_init, *_evaluate(problem, b, x_init))
        tol = tol_grad * max(1.0, at_x_init[3])
        x, steps, failure, grad = _newton(problem, b, _start(problem, b, state, at_x_init),
                                          tol, state)
        if failure is not None and state is not None:
            state.factor = None
            x, more, failure, grad = _newton(problem, b, at_x_init, tol)
            steps += more
    if failure is not None:
        raise failure
    if state is not None:
        state.grad = grad
        if state.predicts:
            state.steps = (x - x_init, *state.steps[:2])
    return x, steps


def _start(problem, b, state, at_x_init):
    """The first run's start as (x, F, grad F, ||grad F||): the state's
    guess when F and its gradient are finite there and F is no higher
    than at x_init, else x_init."""
    guess = None if state is None else state.guess(at_x_init[0])
    if guess is None:
        return at_x_init
    try:
        at_guess = (guess, *_evaluate(problem, b, guess))
    except NumericalError:
        return at_x_init
    return at_guess if at_guess[1] <= at_x_init[1] else at_x_init


def _newton(problem, b, start, tol, state=None):
    """Damped Newton or chord steps from ``start`` until ||grad F|| <= tol.

    With a ``state``, a step solves with its factor while it holds one,
    and a Newton step's undamped factor is stored in it by ``spd_solve``.
    After every step one rule decides: the factor that served the step,
    or that the step made, is kept only if the step cut ||grad F|| at
    least tenfold.  A chord step failing a test gives way, factor and all,
    to a Newton step from the same x.

    Returns ``(x, steps, failure, grad)``: failure is None once the
    tolerance is met, else the NumericalError that ended the run at x
    after ``steps`` completed steps; grad is F's gradient at x.
    """
    x, value, grad, grad_norm = start
    try:
        for iteration in range(_MAX_NEWTON_STEPS + 1):
            if grad_norm <= tol:
                return x, iteration, None, grad
            if iteration == _MAX_NEWTON_STEPS:
                break
            chorded = state is not None and state.factor is not None
            if chorded:
                direction = _POTRS(state.factor, -grad, 1)[0]
                try:
                    if not _all_finite(direction):
                        raise NumericalError("chord direction is not finite")
                    x_new, trial = _step(problem, b, x, value, grad, direction)
                except NumericalError:
                    chorded = state.factor = None
            if not chorded:
                direction, _ = spd_solve(problem.g_hessian(x), -grad, state)
                x_new, trial = _step(problem, b, x, value, grad, direction)
            x, last_norm = x_new, grad_norm
            value, grad, grad_norm = _evaluate(problem, b, x, trial)
            if state is not None and not grad_norm <= _CHORD_CONTRACTION * last_norm:
                state.factor = None
    except NumericalError as failure:
        return x, iteration, failure, grad
    return x, iteration, NumericalError(
        f"inner solver did not reach its gradient tolerance {tol:g} "
        f"in {_MAX_NEWTON_STEPS} iterations"
    ), grad


def _step(problem, b, x, value, grad, direction):
    """The point a step along ``direction`` from x accepts, given F's value
    and gradient at x, as ``(x_new, trial)``: trial is F's value and g's
    gradient at x_new when x_new is the full step x + direction, whose one
    evaluation gives both, and None for a halved step.  Raises
    NumericalError when the direction is not a descent direction, the
    search fails or the step vanishes."""
    slope = ddot(grad, direction)
    if slope >= 0.0:
        # descent failed despite damping: direction numerically useless
        raise NumericalError("Newton direction is not a descent direction")
    x_new = x + direction
    trial = _full_trial(problem, b, x_new)
    noise = _NOISE_RTOL * (1.0 + abs(value))
    if -slope <= noise:
        # Predicted decrease sits below the value's rounding floor, so the
        # Armijo test cannot discriminate.  Take the full step as long as the
        # value does not rise beyond that floor; the gradient keeps
        # contracting through the quadratic phase.
        if trial[0] > value + noise:
            raise NumericalError("inner step stalled at the value resolution floor")
    elif not trial[0] <= value + _ARMIJO_C1 * slope:
        # the full step was the Armijo search's first try; its halvings
        # take the value-only path
        found = sufficient_decrease(lambda z: float(problem.g_value(z)) - ddot(b, z),
                                    x, direction, value, slope,
                                    _ARMIJO_C1, 0.5, 0.5, _MAX_HALVINGS - 1)
        if found is None:
            raise NumericalError("inner line search exhausted its halvings")
        x_new, trial = found[2], None
    # a full step whose value is not F(x) has moved; otherwise look
    if trial is None or trial[0] == value:
        moved = x_new - x
        if not ddot(moved, moved) > 0.0 and (x_new == x).all():
            raise NumericalError("inner step vanished below machine resolution")
    return x_new, trial


def _full_trial(problem, b, z):
    """F's value and g's gradient at a full step's point z from one
    evaluation, with an overflow or a non-finite value read as +inf as
    value_or_inf reads it; the gradient is checked only if z is accepted."""
    try:
        value, grad = problem.g_value_grad(z)
    except _OVERFLOWS:
        return math.inf, None
    value = float(value) - ddot(b, z)
    return (value if math.isfinite(value) else math.inf), grad


def _evaluate(problem, b, x, trial=None):
    """F's value, gradient and gradient norm at an accepted point x, from
    its full step's ``trial`` (see _step) when it has one.  One dot of the
    gradient gives its norm and its finiteness test where its square is
    finite and normal; elsewhere _all_finite and _norm decide."""
    if trial is None:
        value, grad = problem.g_value_grad(x)
        value = float(value) - ddot(b, x)
    else:
        value, grad = trial
    grad = grad - b
    square = ddot(grad, grad)
    if math.isfinite(value) and _TINY <= square < math.inf:
        return value, grad, math.sqrt(square)
    if not (math.isfinite(value) and _all_finite(grad)):
        raise NumericalError("non-finite subproblem derivatives at an accepted point")
    return value, grad, _norm(grad)


def value_or_inf(value, x):
    """value(x), with an overflow or a non-finite result read as +inf."""
    try:
        v = value(x)
    except _OVERFLOWS:
        return np.inf
    return v if math.isfinite(v) else np.inf


def sufficient_decrease(value, base, direction, f0, slope, c, step, shrink, tries,
                        stop_at_base=False):
    """Armijo search shared by the inner Newton loop and the outer steps.

    Tries t = step, step*shrink, ... (at most ``tries`` values) and returns
    ``(t, i, base + t * direction)`` for the first t = step*shrink^i with

        value(base + t * direction) <= f0 + c * t * slope,

    or None when every try fails.  Overflowing or non-finite trial values
    fail the test.  With ``stop_at_base`` the search ends at the first
    halving (i >= 1) whose trial point is base bit for bit, returning
    ``(0.0, i, base)``: no shorter step moves, and the test there holds
    only by rounding.  The first try is not compared, so a search that
    takes no halving pays nothing for the check.
    """
    for i in range(tries):
        trial = base + step * direction
        if i and stop_at_base and (trial == base).all():
            return 0.0, i, base
        if value_or_inf(value, trial) <= f0 + c * step * slope:
            return step, i, trial
        step *= shrink
    return None
