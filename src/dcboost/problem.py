"""Difference-of-convex problem container and built-in test problems.

A problem is phi(x) = f1(x) - f2(x) with both pieces smooth and convex.
Solvers work on the regularized split g = f1 + (rho/2)||x||^2 and
h = f2 + (rho/2)||x||^2, which leaves phi unchanged while making both
pieces strongly convex whenever rho > 0.
"""

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .exceptions import EvaluationOverflow, TheoryWarning

__all__ = (
    "DcProblem",
    "EXP_GUARD",
    "make_quartic_problem",
    "make_system_problem",
    "make_expsys_problem",
    "builtin_problem",
    "BUILTIN_PROBLEMS",
    "finite_difference_gradient",
    "finite_difference_jacobian",
    "derivative_report",
)

# Values, gradients and Hessians are quadratic in e = exp(z) (the
# squared norms of f1, f2 and phi, the Hessian weights e_k * e_l), so
# they overflow once exp(2 z) does: at z = log(max float) / 2 = 354.89,
# not at exp()'s own limit of 709.78.  Stoichiometric factors can still
# push a norm past the limit just below the guard: value paths then
# return +inf, and a Newton solve reports a NumericalError.
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
    phi_value : callable, optional
        Fast path for phi itself.  Useful when f1 - f2 admits a compact
        form that avoids cancellation between two large values.
    phi_value_grad : callable, optional
        ``x -> (phi, grad_phi)`` without Hessian assembly.
    """

    m: int
    eval_f1: Callable
    eval_f2: Callable
    rho: float = 0.0
    sigma_g: float = 0.0
    sigma_h: float = 0.0
    f1_value: Optional[Callable] = None
    phi_value: Optional[Callable] = None
    phi_value_grad: Optional[Callable] = None
    name: str = "dc-problem"

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"m must be positive, got {self.m}")
        if self.rho < 0:
            raise ValueError(f"rho must be nonnegative, got {self.rho}")
        if self.sigma_g < 0 or self.sigma_h < 0:
            raise ValueError("strong-convexity moduli must be nonnegative")
        if self.f1_value is None:
            self.f1_value = lambda x: self.eval_f1(x)[0]

    # -- plain objective -------------------------------------------------

    def phi(self, x):
        """Objective value f1(x) - f2(x)."""
        if self.phi_value is not None:
            return float(self.phi_value(x))
        return float(self.f1_value(x)) - float(self.eval_f2(x)[0])

    def phi_with_grad(self, x):
        """Objective value and gradient, skipping Hessians when possible."""
        if self.phi_value_grad is not None:
            v, grad = self.phi_value_grad(x)
            return float(v), np.asarray(grad, dtype=float)
        v1, g1, _ = self.eval_f1(x)
        v2, g2 = self.eval_f2(x)
        return float(v1) - float(v2), np.asarray(g1, dtype=float) - np.asarray(g2, dtype=float)

    def grad_phi(self, x):
        return self.phi_with_grad(x)[1]

    # -- regularized split ----------------------------------------------

    def eval_g(self, x):
        """Value, gradient, Hessian of g = f1 + (rho/2)||x||^2."""
        v, grad, hess = self.eval_f1(x)
        x = np.asarray(x, dtype=float)
        v = float(v) + 0.5 * self.rho * float(x @ x)
        grad = np.asarray(grad, dtype=float) + self.rho * x
        # adding 0.0 copies hess in C order, so ravel() is a view, and turns
        # a -0.0 into +0.0 as adding rho * I did; then only the diagonal
        # takes rho
        hess = np.add(hess, 0.0, dtype=float, order="C")
        hess.ravel()[:: self.m + 1] += self.rho
        return v, grad, hess

    def g_value(self, x):
        x = np.asarray(x, dtype=float)
        return float(self.f1_value(x)) + 0.5 * self.rho * float(x @ x)

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
    """

    def eval_f1(x):
        t = float(np.asarray(x).reshape(()))
        return t ** 4 / 4.0, np.array([t ** 3]), np.array([[3.0 * t ** 2]])

    def eval_f2(x):
        t = float(np.asarray(x).reshape(()))
        return t ** 2 / 2.0, np.array([t])

    return DcProblem(
        m=1,
        eval_f1=eval_f1,
        eval_f2=eval_f2,
        rho=0.0,
        sigma_g=0.0,
        sigma_h=1.0,
        name="quartic",
    )


def make_system_problem(p_eval, c_eval, m, rho=0.0, sigma_g=0.0, sigma_h=0.0,
                        name="system"):
    """DC objective for zeros of f = p - c with componentwise convex p, c >= 0.

    ``p_eval`` and ``c_eval`` map ``x`` to ``(value, jacobian, hessians)``
    where ``value`` has shape ``(r,)``, ``jacobian`` ``(r, m)`` and
    ``hessians`` ``(r, m, m)`` stacks the Hessian of each component.  The
    squared residual splits as

        ||p - c||^2 = f1 - f2,   f1 = 2(||p||^2 + ||c||^2),  f2 = ||p + c||^2,

    and both pieces are convex because p and c are convex and nonnegative.
    """

    def _state(x):
        p, Jp, Hp = p_eval(x)
        c, Jc, Hc = c_eval(x)
        return (np.asarray(p, dtype=float), np.asarray(Jp, dtype=float),
                np.asarray(Hp, dtype=float), np.asarray(c, dtype=float),
                np.asarray(Jc, dtype=float), np.asarray(Hc, dtype=float))

    def _sq_norm_derivs(q, Jq, Hq):
        # value, gradient and Hessian of ||q(x)||^2
        grad = 2.0 * Jq.T @ q
        hess = 2.0 * Jq.T @ Jq + 2.0 * np.einsum("i,ijk->jk", q, Hq)
        return float(q @ q), grad, 0.5 * (hess + hess.T)

    def eval_f1(x):
        p, Jp, Hp, c, Jc, Hc = _state(x)
        vp, gp, Hp2 = _sq_norm_derivs(p, Jp, Hp)
        vc, gc, Hc2 = _sq_norm_derivs(c, Jc, Hc)
        return 2.0 * (vp + vc), 2.0 * (gp + gc), 2.0 * (Hp2 + Hc2)

    def eval_f2(x):
        p, Jp, _, c, Jc, _ = _state(x)
        s = p + c
        return float(s @ s), 2.0 * (Jp + Jc).T @ s

    def phi_value(x):
        p = np.asarray(p_eval(x)[0], dtype=float)
        c = np.asarray(c_eval(x)[0], dtype=float)
        r = p - c
        return float(r @ r)

    def phi_value_grad(x):
        p, Jp, _, c, Jc, _ = _state(x)
        r = p - c
        return float(r @ r), 2.0 * (Jp - Jc).T @ r

    def f1_value(x):
        p = np.asarray(p_eval(x)[0], dtype=float)
        c = np.asarray(c_eval(x)[0], dtype=float)
        return 2.0 * (float(p @ p) + float(c @ c))

    return DcProblem(
        m=m,
        eval_f1=eval_f1,
        eval_f2=eval_f2,
        rho=rho,
        sigma_g=sigma_g,
        sigma_h=sigma_h,
        f1_value=f1_value,
        phi_value=phi_value,
        phi_value_grad=phi_value_grad,
        name=name,
    )


def make_expsys_problem(rho=1.0):
    """One-dimensional system instance: p(x) = e^x, c(x) = 1.

    phi(x) = (e^x - 1)^2 with its zero at x = 0.  Neither piece is
    strongly convex on its own, so a positive rho is required for the
    boosted variants' guarantees; the default keeps them available.
    """

    def p_eval(x):
        t = float(np.asarray(x).reshape(()))
        if t > EXP_GUARD:
            raise EvaluationOverflow(t, EXP_GUARD)
        e = np.exp(t)
        return np.array([e]), np.array([[e]]), np.array([[[e]]])

    def c_eval(x):
        return np.array([1.0]), np.zeros((1, 1)), np.zeros((1, 1, 1))

    return make_system_problem(p_eval, c_eval, m=1, rho=rho, name="expsys")


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
    if rho is not None:
        prob.rho = float(rho)
    return prob


# -- finite-difference validation hooks ----------------------------------


def finite_difference_gradient(fun, x, step=None):
    """Central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    if step is None:
        step = 1e-6 * (1.0 + float(np.linalg.norm(x)))
    grad = np.empty(x.size)
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = step
        grad[i] = (fun(x + e) - fun(x - e)) / (2.0 * step)
    return grad

def finite_difference_jacobian(fun, x, step=None):
    """Central-difference Jacobian of a vector function."""
    x = np.asarray(x, dtype=float)
    if step is None:
        step = 1e-6 * (1.0 + float(np.linalg.norm(x)))
    cols = []
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = step
        cols.append((np.asarray(fun(x + e)) - np.asarray(fun(x - e))) / (2.0 * step))
    return np.stack(cols, axis=-1)


def derivative_report(problem, x, step=None):
    """Relative finite-difference errors of derivatives at x.

    Returns a dict with the relative gradient errors of both pieces and,
    for f1, the Hessian error and asymmetry, using
    ``||a - b|| / max(1, ||b||)``.  f2 supplies no Hessian to check.
    """
    x = np.asarray(x, dtype=float)

    def rel(a, b):
        return float(np.linalg.norm(a - b) / max(1.0, np.linalg.norm(b)))

    report = {}
    for label, ev, val in (("f1", problem.eval_f1, problem.f1_value),
                           ("f2", problem.eval_f2, lambda z: problem.eval_f2(z)[0])):
        fd_grad = finite_difference_gradient(lambda z: float(val(z)), x, step)
        report[f"grad_{label}"] = rel(ev(x)[1], fd_grad)
    _, _, hess = problem.eval_f1(x)
    fd_hess = finite_difference_jacobian(lambda z: problem.eval_f1(z)[1], x, step)
    report["hess_f1"] = rel(hess, fd_hess)
    report["asym_f1"] = float(np.linalg.norm(hess - np.asarray(hess).T))
    return report
