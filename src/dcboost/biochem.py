"""Steady states of reversible reaction networks as a DC objective.

A network holds forward and reverse stoichiometric matrices F, R of
shape (m species, n reactions).  With directed flux rates

    e(x) = exp(w + B x),   B = [F, R]^T  (2n x m),

production and consumption bundles are p = M e and c = N e for
M = [F, R], N = [R, F], and the net rate is f = A e for A = M - N.
Steady states are zeros of f, found by minimizing

    phi(x) = ||f(x)||^2 = f1(x) - f2(x),
    f1 = 2(||p||^2 + ||c||^2) = 2<e, G1 e>,   f2 = ||p + c||^2,

with the fixed Gram operator G1 = M^T M + N^T N, where both pieces are
convex because every component of p and c is a positive combination of
exponentials of affine maps.  f1 is evaluated through G1 and phi through
A e, so neither forms p or c; only rates() does.
"""

import json
import math
import sys
import warnings
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import ddot, idamax
from scipy.sparse._sparsetools import csc_matvec, csr_matvec

from .exceptions import EvaluationOverflow, GenerationError, SchemaError, SchemaWarning
from .problem import DcProblem, EXP_GUARD

__all__ = (
    "ReactionNetwork",
    "NetworkObjective",
    "check_mass_conservation",
    "generate_network",
    "load_network",
    "save_network",
)


# How far a float coefficient may lie from the integer it is stored as.
STOICHIOMETRY_ATOL = 1e-6
# The largest count or coefficient a model file may give: matrices hold int64.
INT64_MAX = int(np.iinfo(np.int64).max)
# The exponent guard's square: one ulp past EXP_GUARD squares to a float
# above it, so a sum of squares within it has every |z_j| within the guard.
GUARD_SQUARED = EXP_GUARD * EXP_GUARD


@dataclass(eq=False)
class ReactionNetwork:
    """Forward/reverse stoichiometry plus kinetic offsets w (length 2n)."""

    m: int
    n: int
    F: sp.spmatrix
    R: sp.spmatrix
    w: np.ndarray
    name: str = ""

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError(f"network needs m, n >= 1, got m={self.m}, n={self.n}")
        self.F = self._coerce_matrix(self.F, "F")
        self.R = self._coerce_matrix(self.R, "R")
        self.w = np.array(self.w, dtype=float).reshape(-1)
        if self.w.size != 2 * self.n:
            raise ValueError(f"w must have length 2n={2 * self.n}, got {self.w.size}")
        if not np.all(np.isfinite(self.w)):
            raise ValueError("w must be finite")
        # F and R are validated here only, so their union is listed here once:
        # the cardinality check and NetworkObjective read what this recorded
        self._held = _union(self.F, self.R, self.n)
        self._warn_cardinality()

    def _coerce_matrix(self, mat, label):
        # canonical from here on: the checks judge the entries the matrix
        # holds, and NetworkObjective builds its operators on sorted rows
        mat = sp.csr_matrix(mat, copy=True)
        mat.sum_duplicates()
        if mat.shape != (self.m, self.n):
            raise ValueError(f"{label} must have shape ({self.m}, {self.n}), got {mat.shape}")
        if mat.nnz and mat.data.min() < 0:
            raise ValueError(f"{label} must have nonnegative entries")
        if np.issubdtype(mat.dtype, np.integer):
            # exact: a uint64 past INT64_MAX would wrap to a negative int64
            too_large = mat.nnz and int(mat.data.max()) > INT64_MAX
        else:
            # round, not truncate: the cast would store 2.9999999 as 2; the
            # tolerance is absolute, so it does not grow with the coefficient
            whole = np.rint(mat.data)
            if not (np.isfinite(mat.data).all()
                    and (np.abs(mat.data - whole) <= STOICHIOMETRY_ATOL).all()):
                raise ValueError(f"{label} must have integer stoichiometry")
            # INT64_MAX rounds up to 2**63 as a float, the first one past it
            too_large = mat.nnz and whole.max() >= 2.0 ** 63
            mat.data = whole
        if too_large:
            raise ValueError(f"{label} must have entries of at most {INT64_MAX}")
        mat = mat.astype(np.int64, copy=False)
        mat.eliminate_zeros()
        return mat

    def _warn_cardinality(self):
        F, R = self.F, self.R
        silent = np.flatnonzero((np.diff(F.indptr) == 0) | (np.diff(R.indptr) == 0))
        if silent.size:
            # 4: past __post_init__ and the dataclass's __init__, to its caller
            warnings.warn(
                f"species {silent.tolist()} lack a forward or reverse role",
                SchemaWarning, stacklevel=4,
            )
        # reaction j moves the species with a nonzero in column j of R - F:
        # those in one side only, and those in both with unequal coefficients
        _, cols, f, r = self._held
        thin = np.flatnonzero(np.bincount(cols[f != r], minlength=self.n) < 2)
        if thin.size:
            warnings.warn(
                f"reactions {thin.tolist()} move fewer than two species",
                SchemaWarning, stacklevel=4,
            )

    def __eq__(self, other):
        if not isinstance(other, ReactionNetwork):
            return NotImplemented
        return (self.m == other.m and self.n == other.n and self.name == other.name
                and (self.F != other.F).nnz == 0
                and (self.R != other.R).nnz == 0
                and np.array_equal(self.w, other.w))


class NetworkObjective:
    """Evaluation engine for one network; precomputes the sparse operators."""

    def __init__(self, network):
        self.network = network
        self.m = m = network.m
        n = network.n
        # Every operator is built from F's and R's canonical CSR arrays
        # (_coerce_matrix sums duplicates, sorts each row and drops zeros)
        # into the arrays, dtypes and entry order scipy's sparse algebra gives.
        # On F + R's pattern beside its copy shifted by n, M = [F, R],
        # N = [R, F], A = M - N = [F - R, R - F] and M + N = [F + R, F + R]
        # keep the positions where they are not zero: A drops the entries
        # that cancel, as scipy does.
        rows, cols, f, r = network._held
        f, r = f.astype(float), r.astype(float)
        rows, cols = np.concatenate([rows, rows]), np.concatenate([cols, cols + n])
        itype = np.result_type(network.F.indptr, network.R.indptr)
        self.M, self.N, self.A, self.MpN = (
            _operator(rows, cols, np.concatenate(v), (m, 2 * n), itype)
            for v in ((f, r), (r, f), (f - r, r - f), (f + r, f + r)))
        # B = M^T, A^T and (M + N)^T: their source's arrays, read by columns
        self.B, self.AT, self.MpNT = self.M.T, self.A.T, self.MpN.T
        M, N = self.M, self.N
        # f1's and f2's gradients 4 M(e t), 2 M(e q): on nonnegative inputs a power
        # of two in M's entries rounds as on the product, bar subnormal terms
        self.M4, self.M2 = (_Operator(M.indptr, M.indices, k * M.data, M.shape)
                            for k in (4.0, 2.0))
        # f1's one product: G1 = [M; N]^T [M; N] has integer entries, built
        # here so that its cost shows in set-up; each sums its products over
        # the rows of [M; N] in order, as scipy's product does
        keys, products = (np.concatenate(pair) for pair in zip(_row_pairs(M), _row_pairs(N)))
        self.G1 = _summed(keys, products, (2 * n, 2 * n), itype)
        # its own copy: an edit to network.w would leave the point memo stale
        self.w = network.w.copy()
        self._point = None

    # -- state ----------------------------------------------------------

    def _flux(self, x):
        z = self.w + self.B.apply(x)
        # z's sum of squares is at least each z_j's rounded square, which
        # passes the guard's once |z_j| does, and NaN at a NaN: within it
        # every entry is clear.  Past it but finite, z holds no NaN (which
        # makes idamax's pick arbitrary), and the largest |z_j| under the
        # guard clears every entry.  Past that, or at a NaN, the largest
        # entry that is not NaN decides.
        squares = ddot(z, z)
        if not (squares <= GUARD_SQUARED
                or squares < math.inf and abs(z[idamax(z)]) <= EXP_GUARD):
            top = float(np.fmax.reduce(z))
            if top > EXP_GUARD:
                raise EvaluationOverflow(top, EXP_GUARD)
        return np.exp(z)

    def _at(self, x):
        """The record of x: the stored one when x has its bytes (a caller
        may write into x between calls; -0.0 against 0.0 only recomputes
        the same bits), else a new one that replaces it.  Every product
        chain starts here, so x's shape is checked here once and the
        products that follow are applied unchecked."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.m,):
            raise ValueError(f"x has shape {x.shape}, the network expects ({self.m},)")
        key = x.tobytes()
        point = self._point
        if point is not None and point.key == key:
            return point
        # no NumPy warning can arise here: _flux raises before exp()
        # overflows, and the matvec kernels are compiled code that set none
        self._point = point = _Point(key, self._flux(x))
        return point

    def rates(self, x):
        """Production, consumption and net rates (p, c, f) at x, as new
        arrays."""
        e = self._at(x).e
        p, c = self.M.apply(e), self.N.apply(e)
        # p and c are finite and nonnegative, so p - c cannot overflow
        return p, c, p - c

    # -- DC pieces -------------------------------------------------------
    # f1's record and phi's value are computed once per point, and f1_value
    # repeats the record's arithmetic, so every path agrees bit for bit.
    # Values saturate quietly to +inf: line searches reject non-finite trial
    # values, so an overflowing norm is an answer, not an anomaly.  BLAS's
    # ddot sets no NumPy warning, and Python floats overflow to inf silently.

    def f1_value(self, x):
        # a halved inner trial (a new point) asks for the value alone: _f1's bits
        e = self._at(x).e
        return 2.0 * ddot(e, self.G1.apply(e))

    def phi_value(self, x):
        return self._phi_value(self._at(x))

    def _phi_value(self, point):
        # ||A e||^2 never forms the large near-equal pieces f1 and f2, so
        # values near a steady state keep their accuracy
        if point.phi is None:
            point.f = f = self.A.apply(point.e)
            point.phi = ddot(f, f)
        return point.phi

    def phi_value_grad(self, x):
        point = self._at(x)
        value = self._phi_value(point)
        return value, 2.0 * self.M.apply(point.e * self.AT.apply(point.f))

    @cached_property
    def _hessian_op(self):
        # built on f1's first Hessian request; no other path pays for it
        return _HessianOperator(self)

    def f1_value_grad(self, x):
        """f1's value and gradient, without its Hessian."""
        return self._f1(self._at(x))[:2]

    def eval_f1(self, x):
        point = self._at(x)
        value, grad, et = self._f1(point)
        return value, grad, self._hessian_op.assemble(point.e, 4.0 * et)

    def _f1(self, point):
        if point.f1 is None:
            e = point.e
            t = self.G1.apply(e)
            et = e * t
            grad = self.M4.apply(et)
            grad.setflags(write=False)
            point.f1 = (2.0 * ddot(e, t), grad, et)
        return point.f1

    def eval_f2(self, x):
        e = self._at(x).e
        s = self.MpN.apply(e)
        et = e * self.MpNT.apply(s)
        return ddot(s, s), self.M2.apply(et)

    def safe_exponent(self):
        """The top exponent up to which every value, gradient and f1 Hessian
        is finite, EXP_GUARD - ln(2K)/2: with every e_j <= E, each of them
        and each partial sum on the way is at most K E^2 for this K, taken
        from the stoichiometry alone; the factor 2 absorbs rounding.  At
        e = E u, f1's weights G1 e are E t for the t below, and its value
        2<e, G1 e> = 2(||M e||^2 + ||N e||^2) is 2<u, t> E^2.  K comes from
        the held operators at e = u (integer sums, exact below 2^53), so a
        first call builds f1's Hessian operator; later Hessians reuse it."""
        hessian = self._hessian_op
        u = np.ones(self.M.shape[1])
        t, q = self.G1.apply(u), self.MpNT.apply(self.MpN.apply(u))
        # 4 W = 4 (G1 + diag(t)) on W's pattern, one triangle of it
        weights = hessian.g.copy()
        weights[hessian.diag] += 4.0 * t
        # f1's value (over f2's and phi's: ||M e + N e||^2 and ||A e||^2 are at
        # most twice ||M e||^2 + ||N e||^2), Hessian weights, gradient and Hessian
        # 4 M W M^T (whose partial sums stay within it: the factor 2 is only
        # conservative); f2's and phi's weights and gradients (|A| <= M + N)
        K = max(2.0 * (u @ t), weights.max(), 4.0 * self.M.apply(t).max(),
                2.0 * hessian.assemble(u, 4.0 * t).max(), q.max(), 2.0 * self.M.apply(q).max())
        return EXP_GUARD - 0.5 * float(np.log(2.0 * K))

    def as_dc_problem(self, rho=0.0):
        """Package the evaluators as a DcProblem (neither piece is
        strongly convex on its own, so sigma_g = sigma_h = 0)."""
        return DcProblem(
            m=self.m,
            eval_f1=self.eval_f1,
            eval_f2=self.eval_f2,
            rho=rho,
            f1_value=self.f1_value,
            f1_value_grad=self.f1_value_grad,
            phi_value=self.phi_value,
            phi_value_grad=self.phi_value_grad,
            name=self.network.name or "network",
        )


class _Operator:
    """A fixed sparse matrix kept as canonical compressed arrays (indptr,
    indices, data) and applied by scipy's compiled kernel, the one a scipy
    matrix's own @ runs, without the per-call dispatch around it, which
    costs more than the arithmetic on a network's small matrices.
    csr_matvec reads the arrays as rows and sums each row in ascending
    column order from +0.0; csc_matvec reads them as columns and adds each
    into its rows, columns ascending.  Each output entry meets the same
    additions in the same order (no row repeats within a column), so a
    product has the scipy CSR matrix's bits, bar a NaN's sign bit."""

    __slots__ = ("indptr", "indices", "data", "shape", "kernel", "apply")

    def __init__(self, indptr, indices, data, shape, kernel=csr_matvec):
        self.indptr, self.indices, self.data, self.shape = indptr, indices, data, shape
        self.kernel = kernel
        n_row, n_col = shape
        zeros = np.zeros

        def apply(v):
            # self @ v for a v of shape (n_col,), unchecked: the kernel reads
            # n_col entries of v whatever its length, so callers check v
            out = zeros(n_row)
            kernel(n_row, n_col, indptr, indices, data, v, out)
            return out

        self.apply = apply

    @property
    def T(self):
        """The transpose: the same arrays, read the other way, no copy."""
        return _Operator(self.indptr, self.indices, self.data, self.shape[::-1],
                         csc_matvec if self.kernel is csr_matvec else csr_matvec)


def _row_ids(indptr):
    """The row of each entry of a CSR matrix, as intp."""
    return np.arange(indptr.size - 1).repeat(indptr[1:] - indptr[:-1])


def _indptr(rows, n_row, dtype):
    """The CSR indptr of entries in the rows ``rows``, listed row by row."""
    indptr = np.zeros(n_row + 1, dtype=dtype)
    indptr[1:] = np.bincount(rows, minlength=n_row).cumsum()
    return indptr


def _operator(rows, cols, data, shape, dtype):
    """The canonical CSR operator of the distinct entries (rows[t], cols[t])
    holding data[t] != 0, listed in any order, with dtype index arrays."""
    held = np.flatnonzero(data)
    rows = rows[held].astype(np.intp)  # flat keys can pass 2**31
    order = held[(rows * shape[1] + cols[held]).argsort()]
    return _Operator(_indptr(rows, shape[0], dtype), cols[order].astype(dtype, copy=False),
                     data[order], shape)


def _union(F, R, n):
    """The positions that F or R holds, row by row in column order, as
    (rows, cols, f, r): each one's row and column and its entry of F and
    of R, 0 where that matrix has none."""
    keys = np.concatenate([_row_ids(mat.indptr) * n + mat.indices for mat in (F, R)])
    union, at = np.unique(keys, return_inverse=True)
    f, r = np.zeros(union.size, F.dtype), np.zeros(union.size, R.dtype)
    f[at[:F.nnz]], r[at[F.nnz:]] = F.data, R.data
    return union // n, union % n, f, r


def _summed(keys, values, shape, dtype, kernel=csr_matvec):
    """The canonical operator holding at each flat key the sum, in listing
    order, of the values listed at it, with dtype index arrays: a key is
    row * n_col + col for csr_matvec, col * n_row + row for csc_matvec."""
    keys, at = np.unique(keys, return_inverse=True)
    n_major, width = shape if kernel is csr_matvec else shape[::-1]
    return _Operator(_indptr(keys // width, n_major, dtype), (keys % width).astype(dtype),
                     np.bincount(at, weights=values), shape, kernel)


def _ranges(starts, counts):
    """range(starts[t], starts[t] + counts[t]) for each t, concatenated."""
    return np.arange(counts.sum()) + (starts - counts.cumsum() + counts).repeat(counts)


def _entry_pairs(indptr, first, second):
    """Each entry of row first[t] of a CSR matrix paired with each entry of
    its row second[t], in the order t, then the first row's storage order,
    then the second's: each pair's t and the two entries' positions."""
    counts = indptr[first + 1] - indptr[first]
    t = np.arange(first.size).repeat(counts)
    at_first = _ranges(indptr[first], counts)
    counts = (indptr[second + 1] - indptr[second])[t]
    return t.repeat(counts), at_first.repeat(counts), _ranges(indptr[second][t], counts)


def _row_pairs(op):
    """Each ordered pair of entries X[r, k], X[r, l] that share a row of
    the operator X, in the order r, then k's and l's storage order: the
    flat position k * width + l in X^T X and the product X[r, k] X[r, l]."""
    every = np.arange(op.shape[0])
    _, at_k, at_l = _entry_pairs(op.indptr, every, every)
    cols = op.indices.astype(np.intp)
    return cols[at_k] * op.shape[1] + cols[at_l], op.data[at_k] * op.data[at_l]


class _Point:
    """The last point evaluated: x's bytes as its key, the flux e and, once
    asked for, the net rate f = A e with phi's value and f1's record (value,
    gradient, Hessian weights et).  A Newton step's accepted trial and the
    outer loop's phi, grad phi and grad h calls land on the same point, so
    each costs one flux, and each record is computed once.  The shared
    arrays are read-only: a caller writing into one fails, not the next
    call."""

    __slots__ = ("key", "e", "f", "phi", "f1")

    def __init__(self, key, e):
        self.key, self.e = key, e
        e.setflags(write=False)
        self.f = self.phi = self.f1 = None


class _HessianOperator:
    """f1's Hessian as one product with a fixed sparse operator.

    The Hessian of f1 is 4 B^T W B with

        W = diag(e) G1 diag(e) + diag(e * t),   G1 = M^T M + N^T N,

    for t = G1 e.  W is symmetric: its pattern is G1's entries (k, l) with
    k <= l, in G1's canonical order, and the whole diagonal.  Column q of
    P holds, in row a*m + b for a <= b, B[k, a] B[l, b] + B[l, a] B[k, b]
    for k < l and B[k, a] B[k, b] for k = l, so P @ w for W's values w on
    the pattern is the Hessian's upper triangle, flattened.
    """

    def __init__(self, objective):
        G1, M = objective.G1, objective.M
        size = G1.shape[0]  # W is indexed by the 2n directed reactions
        rows, cols = _row_ids(G1.indptr), G1.indices.astype(np.intp)
        upper = rows <= cols
        keys = rows[upper] * size + cols[upper]
        # a reaction with no species has no diagonal in G1; its B row and
        # its e * t are 0, but et fills every diagonal weight
        pattern = np.union1d(keys, np.arange(size) * (size + 1))
        # f1's factor 4 is a power of two: folded into the weights, it
        # rounds exactly like scaling the Hessian
        self.g = np.zeros(pattern.size)
        self.g[np.searchsorted(pattern, keys)] = 4.0 * G1.data[upper]
        self.rows, self.cols = pattern // size, pattern % size  # intp: faster gathers
        self.diag = np.flatnonzero(self.rows == self.cols)
        # each pair of entries B[k, a], B[l, b] lands in row min(a, b) * m +
        # max(a, b) of column q; for k < l a pair with a = b is both of the
        # column's products, and for k = l the pairs with a > b are the
        # mirrors of those with a < b.  The two products that share a row
        # are summed once here, in either order: the same bits.
        self.m = m = objective.m
        self.lower = np.tri(m, k=-1, dtype=bool)
        B = _operator(M.indices, _row_ids(M.indptr), M.data, (size, m), np.intp)
        q, at_a, at_b = _entry_pairs(B.indptr, self.rows, self.cols)
        a, b = B.indices[at_a], B.indices[at_b]
        cross = self.rows[q] != self.cols[q]
        keep = cross | (a <= b)
        products = np.where(cross & (a == b), 2.0, 1.0) * (B.data[at_a] * B.data[at_b])
        slots = q * (m * m) + np.minimum(a, b) * m + np.maximum(a, b)
        self.P = _summed(slots[keep], products[keep], (m * m, pattern.size), np.int32,
                         csc_matvec)

    def assemble(self, e, et):
        """Symmetric B^T W B for W = diag(e) G diag(e) + diag(et), with
        G = 4 G1 held as its values g on the pattern."""
        weights = self.g * (e[self.rows] * e[self.cols])
        weights[self.diag] += et
        hess = self.P.apply(weights).reshape(self.m, self.m)
        np.copyto(hess, hess.T, where=self.lower)  # the mirror, copied exactly
        return hess


def check_mass_conservation(network, l=None):
    """(imbalance, l): the max column imbalance |(R - F)^T l| for a
    positive mass vector l, and l as the float vector it was checked as.

    Defaults to unit masses.  A zero residual makes the net rate f and
    its Jacobian J orthogonal to l at every x (l^T f = 0, l^T J = 0);
    the gradient 2 J^T f of phi is in general not.  An imbalance past the
    largest float is inf, never NaN.
    """
    if l is None:
        l = np.ones(network.m)
    try:
        l = np.asarray(l, dtype=float).reshape(-1)
    except OverflowError as exc:  # a Python integer past the largest float
        raise ValueError("mass vector entries must be positive and finite") from exc
    if l.size != network.m:
        raise ValueError(f"l must have length m={network.m}, got {l.size}")
    if not np.all((l > 0) & (l < np.inf)):
        raise ValueError("mass vector entries must be positive and finite")
    D = (network.R - network.F).T
    imbalance = D @ l
    if not np.isfinite(imbalance).all():
        # a column's terms overflowed, maybe on their way to cancelling: sum
        # them again on masses scaled by a power of two under which no partial
        # sum can pass the largest float, and scale the sums back
        shift = math.frexp(float(abs(D).astype(float).sum(axis=1).max()))[1] + 1
        with np.errstate(over="ignore"):
            imbalance = np.ldexp(D @ np.ldexp(l, -shift), shift)
    return float(np.abs(imbalance).max()), l


# -- synthetic generation ------------------------------------------------


# Each reaction takes 1..2 species per side with coefficients from
# GENERATOR_COEFFS, equal coefficient sums on both sides (so unit masses
# are conserved exactly), and disjoint sides; w is uniform in [-1, 1].
GENERATOR_COEFFS = (1, 2, 3)
GENERATOR_TOP = max(GENERATOR_COEFFS)
GENERATOR_W_RANGE = (-1.0, 1.0)
GENERATOR_ATTEMPTS = 50


def generate_network(m, n, seed):
    """Random network with full row coverage and exact unit-mass balance.

    Deterministic in (m, n, seed).  A reaction takes at most min(2, m - 1)
    species per side, so covering every species on both sides needs
    n * min(2, m - 1) >= m: GenerationError is raised before any draw
    otherwise, and when the attempt budget runs out.

    Every draw is one scalar ``Generator.integers`` call: the species are
    picked by ``_sample``, which makes exactly the draws
    ``rng.choice(size, count, replace=False)`` makes, and each forward
    coefficient is its own ``integers(0, 3)``, which fills from the same
    bounded-integer routine as a sized call.  So the networks are those
    that ``choice`` and sized calls would draw, and a scalar call costs a
    fraction of either.
    """
    if m < 2:
        raise ValueError("need at least two species")
    if n < 1:
        raise ValueError("need at least one reaction")
    per_side = min(2, m - 1)  # _draw_reaction's most species on a side
    if n * per_side < m:
        raise GenerationError(f"could not cover all {m} species on both sides with {n} "
                              f"reactions: needs n * {per_side} >= {m}")
    rng = np.random.default_rng(seed)

    for _ in range(GENERATOR_ATTEMPTS):
        built = _generate_once(m, n, rng)
        if built is None:
            continue
        F, R = built
        w = rng.uniform(*GENERATOR_W_RANGE, size=2 * n)
        return ReactionNetwork(m=m, n=n, F=F, R=R, w=w,
                               name=f"synthetic_m{m}_n{n}_s{seed}")
    raise GenerationError(
        f"could not cover all {m} species on both sides with {n} reactions "
        f"in {GENERATOR_ATTEMPTS} attempts"
    )


def _generate_once(m, n, rng):
    # the species each side still needs, kept ascending: the draws are
    # positions in these lists, and each (m, n, seed) keeps its network
    need_f = list(range(m))
    need_r = list(range(m))
    f_entries = ([], [], [])  # rows, columns, coefficients
    r_entries = ([], [], [])

    for j in range(n):
        sides = _draw_reaction(m, rng, need_f, need_r)
        for need, entries, (species, coeffs) in zip((need_f, need_r), (f_entries, r_entries),
                                                    sides):
            entries[0].extend(species)
            entries[1].extend([j] * len(species))
            entries[2].extend(coeffs)
            for k in reversed(_positions(need, species)):
                del need[k]

    if need_f or need_r:
        return None
    return _entries_csr(f_entries, m, n), _entries_csr(r_entries, m, n)


def _entries_csr(entries, m, n):
    # columns ascend within each row already, and no entry repeats, so one
    # stable sort by row gives canonical arrays
    rows, cols, vals = entries
    order = np.argsort(np.array(rows, dtype=np.int32), kind="stable")
    return sp.csr_matrix((np.array(vals, dtype=np.int64)[order],
                          np.array(cols, dtype=np.int32)[order], _indptr(rows, m, np.int32)),
                         shape=(m, n))


def _positions(need, species):
    # ascending positions in the sorted list `need` of the species it holds
    found = []
    for i in species:
        k = bisect_left(need, i)
        if k < len(need) and need[k] == i:
            found.append(k)
    return sorted(found)


def _nth(p, skipped):
    # the p-th integer from 0 up that is not in the sorted list `skipped`
    for s in skipped:
        if s > p:
            break
        p += 1
    return p


def _sample(rng, size, count):
    # the draws rng.choice(size, count, replace=False) makes for count 1 or
    # 2, which NumPy takes by Floyd's sampling at every size (its tail
    # shuffle needs size > 10,000 and count > size // 50): one draw from
    # [0, size - count], for a pair one from [0, size - 1] with a repeat
    # replaced by size - 1, then the pair's shuffle, which swaps it on a 0
    first = int(rng.integers(0, size - count + 1))
    if count == 1:
        return [first]
    second = int(rng.integers(0, size))
    if second == first:
        second = size - 1
    return [second, first] if rng.integers(0, 2) == 0 else [first, second]


def _pick(rng, need, skip, excluded, count, m):
    # up to `count` species from `need` bar its positions `skip`, the rest
    # from all m species bar `excluded` and those chosen; each draw is a
    # position in the ascending list it picks from
    preferred = len(need) - len(skip)
    chosen = [need[_nth(p, skip)] for p in
              _sample(rng, preferred, min(count, preferred))] if preferred else []
    if len(chosen) < count:
        out = sorted(excluded + chosen)
        chosen += [_nth(p, out) for p in _sample(rng, m - len(out), count - len(chosen))]
    return chosen


def _draw_reaction(m, rng, need_f, need_r):
    kf_max = min(2, m - 1)
    kf = int(rng.integers(1, kf_max + 1))
    if len(need_f) >= 2:
        kf = kf_max
    f_species = _pick(rng, need_f, [], [], kf, m)
    kr_max = min(2, m - kf)

    # sum of forward coefficients fixes the feasible reverse arity
    for _ in range(8):
        f_coeffs = [GENERATOR_COEFFS[int(rng.integers(0, len(GENERATOR_COEFFS)))]
                    for _ in range(kf)]
        total = sum(f_coeffs)
        lo = -(-total // GENERATOR_TOP)  # ceil
        hi = min(kr_max, total)
        if lo <= hi:
            break
    else:
        f_coeffs = [1] * kf
        total = kf
        lo, hi = 1, min(kr_max, total)

    # the reverse side prefers the species it still needs, bar the forward ones
    skip = _positions(need_r, f_species)
    want_two = len(need_r) - len(skip) >= 2 and lo <= 2 <= hi
    kr = 2 if want_two else int(rng.integers(lo, hi + 1))
    r_species = _pick(rng, need_r, skip, f_species, kr, m)

    if kr == 1:
        r_coeffs = [total]
    else:
        first = int(rng.integers(max(1, total - GENERATOR_TOP), min(GENERATOR_TOP, total - 1) + 1))
        r_coeffs = [first, total - first]
    return (f_species, f_coeffs), (r_species, r_coeffs)


# -- model files ---------------------------------------------------------


def save_network(network, path):
    """Write the JSON model form: integer triplets for F and R, flat w."""
    payload = {
        "name": network.name,
        "m": network.m,
        "n": network.n,
        "F": _triplets(network.F),
        "R": _triplets(network.R),
        "w": [float(v) for v in network.w],
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def _triplets(mat):
    coo = mat.tocoo()
    entries = sorted(zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()))
    return [[int(i), int(j), int(v)] for i, j, v in entries]


def load_network(path):
    """Parse and validate a model file; SchemaError names the bad field."""
    with open(path) as handle:
        try:
            payload = json.load(handle)
        except ValueError as exc:  # a UnicodeDecodeError too
            raise SchemaError("file", f"not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise SchemaError("file", "top level must be an object")

    unknown = sorted(set(payload) - {"name", "m", "n", "F", "R", "w"})
    if unknown:  # a misspelt "name" would otherwise read as the default
        raise SchemaError(unknown[0], "unknown field")
    for key in ("m", "n", "F", "R", "w"):
        if key not in payload:
            raise SchemaError(key, "missing")
    m, n = payload["m"], payload["n"]
    for key, value in (("m", m), ("n", n)):
        if not isinstance(value, int) or isinstance(value, bool) or not 1 <= value <= INT64_MAX:
            raise SchemaError(key, f"must be a positive integer up to {INT64_MAX}, "
                                   f"got {value!r}")

    name = payload.get("name", "")
    if not isinstance(name, str):
        raise SchemaError("name", "must be a string")

    F = _parse_triplets(payload["F"], "F", m, n)
    R = _parse_triplets(payload["R"], "R", m, n)

    w = payload["w"]
    if not isinstance(w, list) or len(w) != 2 * n:
        got = len(w) if isinstance(w, list) else type(w).__name__
        raise SchemaError("w", f"must be a list of length 2n={2 * n}, got {got}")
    for idx, v in enumerate(w):
        if type(v) not in (int, float):  # JSON's true and "1.5" are no numbers
            raise SchemaError("w", f"entries must be numbers, got {v!r} at {idx}")
        if not abs(v) <= sys.float_info.max:  # NaN, infinities, integers past floats
            raise SchemaError("w", "entries must be finite")

    return ReactionNetwork(m=m, n=n, F=F, R=R, w=w, name=name)


def _parse_triplets(entries, label, m, n):
    if not isinstance(entries, list):
        raise SchemaError(label, "must be a list of [i, j, value] triplets")
    rows, cols, vals = [], [], []
    seen = set()
    for idx, entry in enumerate(entries):
        if (not isinstance(entry, list) or len(entry) != 3
                or not all(isinstance(v, int) and not isinstance(v, bool) for v in entry)):
            raise SchemaError(label, f"entry {idx} must be three integers, got {entry!r}")
        i, j, v = entry
        if not 0 <= i < m:
            raise SchemaError(label, f"entry {idx} species index {i} outside [0, {m})")
        if not 0 <= j < n:
            raise SchemaError(label, f"entry {idx} reaction index {j} outside [0, {n})")
        if not 1 <= v <= INT64_MAX:
            raise SchemaError(label, f"entry {idx} coefficient {v} must be positive "
                                     f"and at most {INT64_MAX}")
        if (i, j) in seen:
            raise SchemaError(label, f"duplicate entry for species {i}, reaction {j}")
        seen.add((i, j))
        rows.append(i); cols.append(j); vals.append(v)
    return sp.coo_matrix((vals, (rows, cols)), shape=(m, n), dtype=np.int64).tocsr()
