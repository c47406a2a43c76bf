"""A dense reference for one DCA or BDCA step, written from the
definitions for differential tests of dcboost's solver.

It imports nothing from dcboost: a network enters as its F, R and w
alone.  A problem is ``pieces(x) -> (f1, grad f1, hess f1, f2, grad f2,
phi, grad phi)``; g and h add (rho/2)||x||^2 to f1 and f2.
"""

import numpy as np
from scipy.optimize import minimize

# halvings (backward reductions for fm) a line search may take
MAX_HALVINGS = 60


def network_pieces(F, R, w):
    """The pieces of the network with dense stoichiometry F, R and offsets
    w: e = exp(w + B x) for B = [F, R]^T, p = M e and c = N e for
    M = [F, R] and N = [R, F], f1 = 2(||p||^2 + ||c||^2), f2 = ||p + c||^2
    and phi = f1 - f2 = ||p - c||^2."""
    M, N = np.hstack([F, R]).astype(float), np.hstack([R, F]).astype(float)
    B = M.T

    def pieces(x):
        e = np.exp(w + B @ x)
        p, c = M @ e, N @ e
        # the Jacobians M diag(e) B and N diag(e) B; p_i's Hessian is
        # B^T diag(M_i e) B, and c_i's B^T diag(N_i e) B
        jp, jc = (M * e) @ B, (N * e) @ B
        curvature = B.T @ ((e * (M.T @ p + N.T @ c))[:, None] * B)
        s, f = p + c, p - c
        return (2.0 * (p @ p + c @ c), 4.0 * (jp.T @ p + jc.T @ c),
                4.0 * (jp.T @ jp + jc.T @ jc + curvature),
                s @ s, 2.0 * (jp + jc).T @ s, f @ f, 2.0 * (jp - jc).T @ f)
    return pieces


def subproblem(pieces, rho, x, rtol):
    """y minimizing F = g - <grad h(x), .>, with ||grad F(y)|| <= tol for
    tol = rtol * max(1, ||grad F(x)||), as ``(y, b, tol)`` with b = grad
    h(x).  scipy's trust-exact stops on its value test once the predicted
    decrease falls below the values' rounding, so Newton steps on the
    gradient finish the solve."""
    b = pieces(x)[4] + rho * x

    def jac(z):
        return pieces(z)[1] + rho * z - b

    def hess(z):
        return pieces(z)[2] + rho * np.eye(z.size)

    tol = rtol * max(1.0, np.linalg.norm(jac(x)))
    y = minimize(lambda z: pieces(z)[0] + 0.5 * rho * (z @ z) - b @ z, x, jac=jac,
                 hess=hess, method="trust-exact", options={"gtol": tol}).x
    for _ in range(10):
        if np.linalg.norm(jac(y)) <= tol:
            break
        y = y - np.linalg.solve(hess(y), jac(y))
    return y, b, tol


def boost(pieces, x, y, variant, cfg, tol):
    """The step the variant takes from y = y_k with d = y - x, as
    ``(lambda, halvings, point, trials, fit)``: point is x_{k+1}, trials
    lists each tested point's (phi, threshold, point) and fit is bdca-qi's
    (candidate, gap, slope) when its quadratic had positive curvature.
    bdca-b halves lambda_bar until phi(y + t d) <= phi(y) - alpha t ||d||^2
    and takes 0 once a trial is y; bdca-qi first starts from the fitted
    minimizer, capped at lambda_max, when that beats lambda_bar's trial;
    both keep y where <grad phi(y), d> >= 0.  fm takes the first
    t = beta^l with phi(x + t d) <= phi(x) - alpha t ||d||^2 and records
    t - 1.  An overflow or a non-finite phi fails a test."""
    def phi(z):
        with np.errstate(over="ignore", invalid="ignore"):
            value = pieces(z)[5]
        return value if np.isfinite(value) else np.inf

    d, trials, fit = y - x, [], None
    if variant == "dca" or np.sqrt(d @ d) <= tol:
        return 0.0, 0, y, trials, fit
    base, t = (x, 1.0) if variant == "fm" else (y, cfg.lambda_bar)
    slope = pieces(y)[6] @ d
    if variant != "fm" and slope >= 0.0:
        return 0.0, 0, y, trials, fit
    if variant == "bdca-qi":
        phi_bar = phi(y + t * d)
        gap = phi_bar - phi(y) - slope * t
        if np.isfinite(gap) and gap > 0.0:
            fit = (-slope * t * t / (2.0 * gap), gap, slope)
            if fit[0] > 0.0 and phi(y + fit[0] * d) < phi_bar:
                t = min(fit[0], cfg.lambda_max)
    for i in range(MAX_HALVINGS + 1):
        point = base + t * d
        if variant != "fm" and i and (point == base).all():
            return 0.0, i, y, trials, fit
        trials.append((phi(point), phi(base) - cfg.alpha * t * (d @ d), point))
        if trials[-1][0] <= trials[-1][1]:
            return (t - 1.0 if variant == "fm" else t), i, point, trials, fit
        t *= cfg.beta
    raise AssertionError("the reference search exhausted its halvings")
