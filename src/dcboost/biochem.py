"""Steady states of reversible reaction networks as a DC objective.

A network holds forward and reverse stoichiometric matrices F, R of
shape (m species, n reactions).  With directed flux rates

    e(x) = exp(w + B x),   B = [F, R]^T  (2n x m),

production and consumption bundles are p = M e and c = N e for
M = [F, R], N = [R, F], and the net rate is f = (M - N) e.  Steady
states are zeros of f, found by minimizing

    phi(x) = ||f(x)||^2 = f1(x) - f2(x),
    f1 = 2(||p||^2 + ||c||^2),   f2 = ||p + c||^2,

where both pieces are convex because every component of p and c is a
positive combination of exponentials of affine maps.
"""

import json
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .exceptions import EvaluationOverflow, GenerationError, SchemaError, SchemaWarning
from .problem import DcProblem, EXP_GUARD

__all__ = (
    "ReactionNetwork",
    "NetworkObjective",
    "GeneratorConfig",
    "check_mass_conservation",
    "generate_network",
    "load_network",
    "save_network",
)


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
        self.w = np.asarray(self.w, dtype=float).reshape(-1)
        if self.w.size != 2 * self.n:
            raise ValueError(f"w must have length 2n={2 * self.n}, got {self.w.size}")
        if not np.all(np.isfinite(self.w)):
            raise ValueError("w must be finite")
        self._warn_cardinality()

    def _coerce_matrix(self, mat, label):
        mat = sp.csr_matrix(mat)
        if mat.shape != (self.m, self.n):
            raise ValueError(f"{label} must have shape ({self.m}, {self.n}), got {mat.shape}")
        if mat.nnz and mat.data.min() < 0:
            raise ValueError(f"{label} must have nonnegative entries")
        if not np.issubdtype(mat.dtype, np.integer):
            dense_ok = np.allclose(mat.data, np.round(mat.data))
            if not dense_ok:
                raise ValueError(f"{label} must have integer stoichiometry")
        mat = mat.astype(np.int64)
        mat.eliminate_zeros()
        return mat

    def _warn_cardinality(self):
        f_rows = np.diff(self.F.tocsr().indptr)
        r_rows = np.diff(self.R.tocsr().indptr)
        silent = np.flatnonzero((f_rows == 0) | (r_rows == 0))
        if silent.size:
            warnings.warn(
                f"species {silent.tolist()} lack a forward or reverse role",
                SchemaWarning, stacklevel=3,
            )
        net = (self.R - self.F).tocsc()
        net.eliminate_zeros()
        thin = np.flatnonzero(np.diff(net.indptr) < 2)
        if thin.size:
            warnings.warn(
                f"reactions {thin.tolist()} move fewer than two species",
                SchemaWarning, stacklevel=3,
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
        self.m = network.m
        F = network.F.astype(float)
        R = network.R.astype(float)
        M = sp.hstack([F, R]).tocsr()
        N = sp.hstack([R, F]).tocsr()
        self.M, self.N = _CsrOperator.of(M), _CsrOperator.of(N)
        self.A = _CsrOperator.of((M - N).tocsr())
        self.MpN = _CsrOperator.of((M + N).tocsr())
        self.B = self.M.transpose()
        self.NT = self.N.transpose()
        self.AT = self.A.transpose()
        self.MpNT = self.MpN.transpose()
        self.w = np.asarray(network.w, dtype=float)
        self._point = None

    # -- state ----------------------------------------------------------

    def exponents(self, x):
        return self.w + self.B @ np.asarray(x, dtype=float)

    def _flux(self, x):
        z = self.exponents(x)
        top = float(z.max())
        if top > EXP_GUARD:
            raise EvaluationOverflow(top, EXP_GUARD)
        return np.exp(z)

    def _at(self, x):
        """The record of x: the stored one when x has its bytes (a caller
        may write into x between calls; -0.0 against 0.0 only recomputes
        the same bits), else a new one that replaces it."""
        x = np.asarray(x, dtype=float)
        key = x.tobytes()
        point = self._point
        if point is not None and point.key == key:
            return point
        with np.errstate(over="ignore"):
            # an exponent that overflows is left to _flux's guard
            e = self._flux(x)
            p = self.M @ e
            c = self.N @ e
        self._point = point = _Point(key, e, p, c)
        return point

    def rates(self, x):
        """Production, consumption and net rates (p, c, f) at x."""
        point = self._at(x)
        with np.errstate(over="ignore"):
            return point.p, point.c, point.p - point.c

    # -- DC pieces -------------------------------------------------------
    # Value-only paths saturate quietly to +inf: line searches reject
    # non-finite trial values, so an overflowing norm is an answer, not
    # an anomaly.

    def f1_value(self, x):
        point = self._at(x)
        p, c = point.p, point.c
        with np.errstate(over="ignore"):
            return 2.0 * (float(p @ p) + float(c @ c))

    def phi_value(self, x):
        # ||p - c||^2 evaluated without forming the large near-equal
        # pieces, so values near a steady state keep their accuracy
        _, _, f = self.rates(x)
        with np.errstate(over="ignore"):
            return float(f @ f)

    def phi_value_grad(self, x):
        # phi_value's value, so phi_with_grad(x)[0] == phi(x) bit for bit;
        # the gradient keeps f = A e, so the boost slopes keep their bits
        e = self._at(x).e
        f = self.A @ e
        return self.phi_value(x), 2.0 * (self.M @ (e * (self.AT @ f)))

    @cached_property
    def _hessian_op(self):
        # built on f1's first Hessian request; no other path pays for it
        return _HessianOperator(self)

    def eval_f1(self, x):
        point = self._at(x)
        if point.f1 is None:
            e, p, c = point.e, point.p, point.c
            et = e * (self.B @ p + self.NT @ c)
            value = 2.0 * (float(p @ p) + float(c @ c))
            grad = 4.0 * (self.M @ et)
            hess = self._hessian_op.assemble(e, 4.0 * et)
            point.f1 = (value, _frozen(grad), _frozen(hess))
        return point.f1

    def eval_f2(self, x):
        e = self._at(x).e
        s = self.MpN @ e
        et = e * (self.MpNT @ s)
        return float(s @ s), 2.0 * (self.M @ et)

    def as_dc_problem(self, rho=0.0, name=None):
        """Package the evaluators as a DcProblem (neither piece is
        strongly convex on its own, so sigma_g = sigma_h = 0)."""
        return DcProblem(
            m=self.m,
            eval_f1=self.eval_f1,
            eval_f2=self.eval_f2,
            rho=rho,
            sigma_g=0.0,
            sigma_h=0.0,
            f1_value=self.f1_value,
            phi_value=self.phi_value,
            phi_value_grad=self.phi_value_grad,
            name=name or self.network.name or "network",
        )


def _frozen(array):
    array.flags.writeable = False
    return array


class _CsrOperator:
    """A fixed sparse matrix kept as its CSR entries (row, column, value)
    and applied to a vector as one np.bincount.

    bincount sums each row's products in storage order, starting from
    +0.0, as scipy's csr_matvec does, so a product has the bits of the
    scipy matrix's own without scipy's per-call dispatch, which costs
    more than the arithmetic on a network's small matrices.
    """

    __slots__ = ("rows", "cols", "vals", "shape")

    def __init__(self, rows, cols, vals, shape):
        self.rows, self.cols, self.vals, self.shape = rows, cols, vals, shape

    @classmethod
    def of(cls, mat):
        """The operator of a scipy CSR matrix, in its storage order."""
        rows = np.repeat(np.arange(mat.shape[0], dtype=np.intp), np.diff(mat.indptr))
        return cls(rows, mat.indices.astype(np.intp), mat.data, mat.shape)

    def transpose(self):
        # a stable sort on the column keeps each new row's entries in the
        # old row order, the order scipy's .T.tocsr() gives
        order = np.argsort(self.cols, kind="stable")
        return _CsrOperator(self.cols[order], self.rows[order], self.vals[order],
                            self.shape[::-1])

    def tocsr(self):
        """The scipy CSR matrix with the same entries in the same order."""
        indptr = np.zeros(self.shape[0] + 1, dtype=np.intp)
        np.cumsum(np.bincount(self.rows, minlength=self.shape[0]), out=indptr[1:])
        return sp.csr_matrix((self.vals, self.cols, indptr), shape=self.shape)

    def __matmul__(self, v):
        if v.shape != (self.shape[1],):
            raise ValueError(f"dimension mismatch: {self.shape} @ {v.shape}")
        return np.bincount(self.rows, self.vals * v[self.cols], self.shape[0])


class _Point:
    """The last point evaluated: x's bytes as its key, the flux e, the
    bundles p and c, and f1's (value, gradient, Hessian) once asked for.
    A Newton step's accepted trial and the outer loop's phi, grad phi and
    grad h calls land on the same point, so each costs one flux.  The
    arrays are read-only: a caller writing into one fails, not the next
    call."""

    __slots__ = ("key", "e", "p", "c", "f1")

    def __init__(self, key, e, p, c):
        self.key = key
        self.e, self.p, self.c = map(_frozen, (e, p, c))
        self.f1 = None


class _HessianOperator:
    """f1's Hessian as one product with a fixed sparse operator.

    The Hessian of f1 is 4 B^T W B with

        W = diag(e) G1 diag(e) + diag(e * t),   G1 = M^T M + N^T N,

    for t = B p + N^T c.  W's pattern is G1's nonzeros plus the diagonal.
    Column q of P is the column of kron(B^T, B^T) for the pattern's q-th
    entry (k, l), which holds B[k, a] * B[l, b] in row a*m + b, so the
    flattened Hessian is P @ w for W's values w on the pattern.
    """

    def __init__(self, objective):
        M, N, MpN = (op.tocsr() for op in (objective.M, objective.N, objective.MpN))
        B, NT, MpNT = (mat.T.tocsr() for mat in (M, N, MpN))
        G1 = (B @ M + NT @ N).tocsr()
        # W's values are listed in the order of G2 = (M + N)^T (M + N)'s
        # pattern, which holds G1's, plus the diagonal: that order fixes the
        # summation order of P @ w, and G1's own order would move the
        # Hessians, and the iterates, in the last bits.
        G2 = (MpNT @ MpN).tocsr()
        pattern = (G2 + sp.identity(G2.shape[0], format="csr")).tocoo()
        # intp indices make the per-call gathers about 2.5x faster
        rows = pattern.row.astype(np.intp)
        cols = pattern.col.astype(np.intp)
        # f1's factor 4 is a power of two, so folding it into the
        # weights rounds exactly like scaling the Hessian
        g = 4.0 * np.asarray(G1[rows, cols]).ravel()
        # off the diagonal, an entry outside G1's pattern has weight +0.0,
        # and dropping a +0.0 term leaves every sum of P @ w unchanged
        keep = (g != 0.0) | (rows == cols)
        self.rows, self.cols, self.g = rows[keep], cols[keep], g[keep]
        # COO from CSR lists rows in order: diag[k] is W's entry (k, k)
        self.diag = np.flatnonzero(self.rows == self.cols)
        kron = sp.kron(M, M, format="csc")  # M = B^T
        self.P = kron[:, self.rows * G2.shape[0] + self.cols].tocsr()
        self.m = objective.m

    def assemble(self, e, et):
        """Symmetric B^T W B for W = diag(e) G diag(e) + diag(et), with
        G = 4 G1 held as its values g on the pattern."""
        weights = self.g * (e[self.rows] * e[self.cols])
        weights[self.diag] += et
        hess = (self.P @ weights).reshape(self.m, self.m)
        return 0.5 * (hess + hess.T)


def check_mass_conservation(network, l=None):
    """Max column imbalance |(R - F)^T l| for a positive mass vector l.

    Defaults to unit masses.  A zero residual makes the net rate f and
    its Jacobian J orthogonal to l at every x (l^T f = 0, l^T J = 0);
    the gradient 2 J^T f of phi is in general not.
    """
    if isinstance(network, NetworkObjective):
        network = network.network
    if l is None:
        l = np.ones(network.m)
    l = np.asarray(l, dtype=float).reshape(-1)
    if l.size != network.m:
        raise ValueError(f"l must have length m={network.m}, got {l.size}")
    if np.any(l <= 0):
        raise ValueError("mass vector entries must be positive")
    imbalance = (network.R - network.F).T @ l
    return float(np.abs(imbalance).max()), l


# -- synthetic generation ------------------------------------------------


@dataclass
class GeneratorConfig:
    """Structural knobs for synthetic networks.

    Each reaction takes 1..2 species per side with coefficients from
    ``coeffs``, equal coefficient sums on both sides (so unit masses are
    conserved exactly), and disjoint sides.
    """

    coeffs: tuple = (1, 2, 3)
    w_low: float = -1.0
    w_high: float = 1.0
    max_attempts: int = 50
    name: Optional[str] = None

    def __post_init__(self):
        if not self.coeffs or any(int(c) != c or c < 1 for c in self.coeffs):
            raise ValueError("coeffs must be positive integers")
        if not self.w_high > self.w_low:
            raise ValueError("w_high must exceed w_low")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")


def generate_network(m, n, seed, config=None):
    """Random network with full row coverage and exact unit-mass balance.

    Deterministic in (m, n, seed, config).  Needs n >= m/2 in practice so
    that every species can appear on both sides; raises GenerationError
    when the constraints cannot be met within the attempt budget.
    """
    cfg = config if config is not None else GeneratorConfig()
    if m < 2:
        raise ValueError("need at least two species")
    if n < 1:
        raise ValueError("need at least one reaction")
    rng = np.random.default_rng(seed)

    for _ in range(cfg.max_attempts):
        built = _generate_once(m, n, rng, cfg)
        if built is None:
            continue
        F, R = built
        w = rng.uniform(cfg.w_low, cfg.w_high, size=2 * n)
        name = cfg.name if cfg.name is not None else f"synthetic_m{m}_n{n}_s{seed}"
        return ReactionNetwork(m=m, n=n, F=F, R=R, w=w, name=name)
    raise GenerationError(
        f"could not cover all {m} species on both sides with {n} reactions "
        f"in {cfg.max_attempts} attempts"
    )


def _generate_once(m, n, rng, cfg):
    rows_f, cols_f, vals_f = [], [], []
    rows_r, cols_r, vals_r = [], [], []
    need_f = set(range(m))
    need_r = set(range(m))
    coeffs = np.asarray(cfg.coeffs, dtype=np.int64)

    for j in range(n):
        f_side, r_side = _draw_reaction(m, rng, coeffs, need_f, need_r)
        for i, v in f_side:
            rows_f.append(i); cols_f.append(j); vals_f.append(v)
            need_f.discard(i)
        for i, v in r_side:
            rows_r.append(i); cols_r.append(j); vals_r.append(v)
            need_r.discard(i)

    if need_f or need_r:
        return None
    F = sp.coo_matrix((vals_f, (rows_f, cols_f)), shape=(m, n), dtype=np.int64).tocsr()
    R = sp.coo_matrix((vals_r, (rows_r, cols_r)), shape=(m, n), dtype=np.int64).tocsr()
    return F, R


def _pick(rng, preferred, fallback, count):
    # up to `count` items, favouring `preferred`; deterministic given rng
    preferred = sorted(preferred)
    chosen = list(rng.choice(preferred, size=min(count, len(preferred)),
                             replace=False)) if preferred else []
    if len(chosen) < count:
        rest = sorted(set(fallback) - set(chosen))
        extra = rng.choice(rest, size=count - len(chosen), replace=False)
        chosen.extend(int(i) for i in extra)
    return [int(i) for i in chosen]


def _draw_reaction(m, rng, coeffs, need_f, need_r):
    top = int(coeffs.max())
    kf_max = min(2, m - 1)
    kf = int(rng.integers(1, kf_max + 1))
    if len(need_f) >= 2:
        kf = kf_max
    f_species = _pick(rng, need_f, range(m), kf)

    pool = sorted(set(range(m)) - set(f_species))
    kr_max = min(2, len(pool))

    # sum of forward coefficients fixes the feasible reverse arity
    for _ in range(8):
        f_coeffs = rng.choice(coeffs, size=kf)
        total = int(f_coeffs.sum())
        lo = -(-total // top)  # ceil
        hi = min(kr_max, total)
        if lo <= hi:
            break
    else:
        f_coeffs = np.ones(kf, dtype=np.int64)
        total = kf
        lo, hi = 1, min(kr_max, total)

    want_two = len(need_r - set(f_species)) >= 2 and lo <= 2 <= hi
    kr = 2 if want_two else int(rng.integers(lo, hi + 1))
    r_species = _pick(rng, need_r - set(f_species), pool, kr)

    if kr == 1:
        r_coeffs = [total]
    else:
        first = int(rng.integers(max(1, total - top), min(top, total - 1) + 1))
        r_coeffs = [first, total - first]
    return (list(zip(f_species, (int(v) for v in f_coeffs))),
            list(zip(r_species, (int(v) for v in r_coeffs))))


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
        except json.JSONDecodeError as exc:
            raise SchemaError("file", f"not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise SchemaError("file", "top level must be an object")

    for key in ("m", "n", "F", "R", "w"):
        if key not in payload:
            raise SchemaError(key, "missing")
    m, n = payload["m"], payload["n"]
    for key, value in (("m", m), ("n", n)):
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise SchemaError(key, f"must be a positive integer, got {value!r}")

    name = payload.get("name", "")
    if not isinstance(name, str):
        raise SchemaError("name", "must be a string")

    F = _parse_triplets(payload["F"], "F", m, n)
    R = _parse_triplets(payload["R"], "R", m, n)

    w = payload["w"]
    if not isinstance(w, list) or len(w) != 2 * n:
        got = len(w) if isinstance(w, list) else type(w).__name__
        raise SchemaError("w", f"must be a list of length 2n={2 * n}, got {got}")
    try:
        w = np.asarray(w, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError("w", f"entries must be numbers ({exc})") from exc
    if not np.all(np.isfinite(w)):
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
        if v < 1:
            raise SchemaError(label, f"entry {idx} coefficient {v} must be positive")
        if (i, j) in seen:
            raise SchemaError(label, f"duplicate entry for species {i}, reaction {j}")
        seen.add((i, j))
        rows.append(i); cols.append(j); vals.append(v)
    return sp.coo_matrix((vals, (rows, cols)), shape=(m, n), dtype=np.int64).tocsr()
