"""Difference-of-convex problem container and built-in test problems.

A problem is phi(x) = f1(x) - f2(x) with both pieces smooth and convex.
Solvers work on the regularized split g = f1 + (rho/2)||x||^2 and
h = f2 + (rho/2)||x||^2, which leaves phi unchanged while making both
pieces strongly convex whenever rho > 0.
"""

import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
from scipy.linalg.blas import ddot

from .exceptions import EvaluationOverflow, TheoryWarning

__all__ = (
    "DcProblem",
    "EXP_GUARD",
    "make_quartic_problem",
    "make_expsys_problem",
    "builtin_problem",
    "BUILTIN_PROBLEMS",
)

# Values, gradients and Hessians are quadratic in e = exp(z), so
# evaluations raise EvaluationOverflow past z = log(max float) / 2 =
# 354.89, not at exp()'s own limit of 709.78.  Stoichiometric factors
# can overflow them below the guard: every evaluation of a network is
# finite up to NetworkObjective.safe_exponent(), 5-6 below the guard on
# generated networks; expsys's f1 Hessian 8 e^2 overflows from 353.85.
EXP_GUARD = 0.5 * float(np.log(np.finfo(float).max))


@dataclass
class DcProblem:
    """A smooth DC objective with optional cheap evaluation paths.

    Parameters
    ----------
    m : int
        Number of variables.
    eval_f1 : callable
        ``x -> (value, gradient, hessian)`` for f1, with ``gradient`` of
        shape ``(m,)`` and ``hessian`` ``(m, m)``.
    eval_f2 : callable
        ``x -> (value, gradient)`` for f2: the solvers only linearize it,
        so it supplies no Hessian.
    rho : float
        Regularization modulus added to both pieces.
    sigma_g, sigma_h : float
        Intrinsic strong-convexity moduli of f1 and f2 (0 when unknown).
    f1_value : callable, optional
        Value-only fast path for f1; defaults to discarding derivatives.
    f1_value_grad : callable, optional
        ``x -> (value, gradient)`` for f1 without its Hessian; defaults
        to discarding the Hessian, so a problem without it evaluates f1
        twice at each point where the inner solver takes a Newton step.
    phi_value : callable, optional
        ``x -> phi`` as a float; defaults to f1's value minus f2's.  Worth
        supplying when f1 - f2 admits a compact form that avoids
        cancellation between two large values.
    phi_value_grad : callable, optional
        ``x -> (phi, grad_phi)`` as a float and a float array, without
        Hessian assembly; defaults to f1's minus f2's.
    """

    m: int
    eval_f1: Callable
    eval_f2: Callable
    rho: float = 0.0
    sigma_g: float = 0.0
    sigma_h: float = 0.0
    f1_value: Optional[Callable] = None
    f1_value_grad: Optional[Callable] = None
    phi_value: Optional[Callable] = None
    phi_value_grad: Optional[Callable] = None
    name: str = "dc-problem"

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"m must be positive, got {self.m}")
        # written so that a NaN or an infinity fails each test
        if not 0 <= self.rho < np.inf:
            raise ValueError(f"rho must be nonnegative and finite, got {self.rho}")
        if not (0 <= self.sigma_g < np.inf and 0 <= self.sigma_h < np.inf):
            raise ValueError("strong-convexity moduli must be nonnegative and finite, got "
                             f"{self.sigma_g} and {self.sigma_h}")
        # bind to this problem a fallback dataclasses.replace() carried over
        for field in ("f1_value", "f1_value_grad", "phi_value", "phi_value_grad"):
            fn, fallback = getattr(self, field), getattr(self, "_" + field)
            if fn is None or getattr(fn, "__func__", None) is fallback.__func__:
                setattr(self, field, fallback)

    def _f1_value(self, x):
        return self.eval_f1(x)[0]

    def _f1_value_grad(self, x):
        return self.eval_f1(x)[:2]

    def _phi_value(self, x):
        return float(self.f1_value(x)) - float(self.eval_f2(x)[0])

    def _phi_value_grad(self, x):
        v1, g1 = self.f1_value_grad(x)
        v2, g2 = self.eval_f2(x)
        return float(v1) - float(v2), np.asarray(g1, dtype=float) - np.asarray(g2, dtype=float)

    # -- regularized split ----------------------------------------------

    def eval_g(self, x):
        """Value, gradient, Hessian of g = f1 + (rho/2)||x||^2."""
        return (*self.g_value_grad(x), self.g_hessian(x))

    def g_hessian(self, x):
        """Hessian of g alone.  The solvers ask for a Hessian only here."""
        # adding 0.0 copies f1's Hessian in C order, so ravel() is a view,
        # and turns a -0.0 into +0.0 as adding rho * I did; then only the
        # diagonal takes rho
        hess = np.add(self.eval_f1(x)[2], 0.0, dtype=float, order="C")
        hess.ravel()[:: self.m + 1] += self.rho
        return hess

    def g_value_grad(self, x):
        """Value and gradient of g, without a Hessian."""
        v, grad = self.f1_value_grad(x)
        x = np.asarray(x, dtype=float)
        # rho * x is a float array, so the sum is one whatever grad's type
        return float(v) + 0.5 * self.rho * ddot(x, x), grad + self.rho * x

    def g_value(self, x):
        x = np.asarray(x, dtype=float)
        return float(self.f1_value(x)) + 0.5 * self.rho * ddot(x, x)

    def grad_h(self, x):
        """Gradient of h = f2 + (rho/2)||x||^2."""
        x = np.asarray(x, dtype=float)
        _, grad = self.eval_f2(x)
        return np.asarray(grad, dtype=float) + self.rho * x

    def subproblem_modulus(self):
        """Strong-convexity modulus available to the inner solver."""
        mod = self.sigma_g + self.rho
        if mod <= 0:
            warnings.warn(
                f"problem '{self.name}' has sigma_g + rho = 0; subproblems are "
                "strictly but not strongly convex",
                TheoryWarning,
                stacklevel=3,
            )
        return mod


# -- built-in problems ---------------------------------------------------


def make_quartic_problem():
    """One-dimensional quartic: phi(x) = x^4/4 - x^2/2.

    Split as f1 = x^4/4, f2 = x^2/2 with no regularization.  Stationary
    points are -1, 0, 1; the minimizers are -1 and 1 with phi = -1/4.
    Evaluations raise EvaluationOverflow from |x| = max float^(1/4) =
    1.157920892373162e77 on, where x^4 overflows.
    """
    guard = float(np.finfo(float).max) ** 0.25

    def t_at(x):
        t = float(np.asarray(x).reshape(()))
        if abs(t) >= guard:
            raise EvaluationOverflow(abs(t), guard, "|x|")
        return t

    def eval_f1(x):
        t = t_at(x)
        return t ** 4 / 4.0, np.array([t ** 3]), np.array([[3.0 * t ** 2]])

    def eval_f2(x):
        t = t_at(x)
        return t ** 2 / 2.0, np.array([t])

    return DcProblem(m=1, eval_f1=eval_f1, eval_f2=eval_f2, sigma_h=1.0, name="quartic")


def make_expsys_problem(rho=1.0):
    """One-dimensional system instance: p(x) = e^x, c(x) = 1.

    phi(x) = (e^x - 1)^2 with its zero at x = 0, split as
    f1 = 2(p^2 + c^2) and f2 = (p + c)^2.  Neither piece is strongly
    convex on its own, so a positive rho is required for the boosted
    variants' guarantees; the default keeps them available.  The
    products are grouped as written on purpose: where e^2 is subnormal
    the grouping decides its rounding, and these give the pinned bits.
    """

    def exp_at(x):
        t = float(np.asarray(x).reshape(()))
        if t > EXP_GUARD:
            raise EvaluationOverflow(t, EXP_GUARD)
        return float(np.exp(t))

    def eval_f1(x):
        e = exp_at(x)
        return (2.0 * (e * e + 1.0), np.array([2.0 * (2.0 * e * e)]),
                np.array([[2.0 * (2.0 * e * e + 2.0 * (e * e))]]))

    def eval_f2(x):
        e = exp_at(x)
        s = e + 1.0
        return s * s, np.array([2.0 * e * s])

    def phi_value(x):
        # (e - 1)^2 itself, free of the cancellation in f1 - f2
        r = exp_at(x) - 1.0
        return r * r

    def phi_value_grad(x):
        e = exp_at(x)
        r = e - 1.0
        # + 0.0 keeps the gradient +0.0, not -0.0, where exp underflows to 0
        return r * r, np.array([2.0 * e * r + 0.0])

    return DcProblem(m=1, eval_f1=eval_f1, eval_f2=eval_f2, rho=rho, phi_value=phi_value,
                     phi_value_grad=phi_value_grad, name="expsys")


BUILTIN_PROBLEMS = {
    "quartic": make_quartic_problem,
    "expsys": make_expsys_problem,
}


def builtin_problem(name, rho=None):
    """Instantiate a registered problem, optionally overriding rho."""
    try:
        factory = BUILTIN_PROBLEMS[name]
    except KeyError:
        raise KeyError(
            f"unknown builtin problem {name!r}; available: {sorted(BUILTIN_PROBLEMS)}"
        ) from None
    prob = factory()
    # replace() reruns the validation a plain assignment would skip
    return prob if rho is None else replace(prob, rho=float(rho))
