"""Finite-difference derivative checks shared by the tests."""

import numpy as np


def finite_difference_jacobian(fun, x, step=None):
    """Central-difference Jacobian of a vector function; of a scalar
    function, its gradient."""
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
    for label, ev, val in (("f1", problem.f1_value_grad, problem.f1_value),
                           ("f2", problem.eval_f2, lambda z: problem.eval_f2(z)[0])):
        fd_grad = finite_difference_jacobian(lambda z: float(val(z)), x, step)
        report[f"grad_{label}"] = rel(ev(x)[1], fd_grad)
    _, _, hess = problem.eval_f1(x)
    fd_hess = finite_difference_jacobian(lambda z: problem.f1_value_grad(z)[1], x, step)
    report["hess_f1"] = rel(hess, fd_hess)
    report["asym_f1"] = float(np.linalg.norm(hess - np.asarray(hess).T))
    return report
