"""Truncated operator assembly and eigendecomposition.

The operator matrix over the graded basis is a degree-diagonal part plus the
degree-4 selection polynomial applied through coordinate-recurrence matrices:

    M = diag(lambda_|m|) + sum over tuples q(i1..iL) * G_{i1} ... G_{iL}.

Recurrence matrices are built over an enlarged (padded) enumeration so that
the products are exact on the retained block; the G_i commute, so tuples are
canonicalized to sorted multisets before multiplying.

Detailed balance (M_{k,m} C_m = M_{m,k} C_k) makes M similar to a symmetric
matrix via the diagonal scaling sqrt(C); we solve that symmetric problem and
map eigenvectors back, which guarantees real spectra and C-weighted
orthonormality. An optional extended-precision path reassembles and solves
with multiprecision scalars for strong selection.
"""

import hashlib
import math
from dataclasses import dataclass

import mpmath
import numpy as np
import scipy.linalg
import scipy.sparse

from . import model as model_mod
from .basis import MultiJacobiBasis
from .errors import NumericalError, ParameterError
from .indexing import BasisEnumeration, total_count
from .model import ModelParams, q_tables
from .simplex import to_cube

DEFAULT_PAD = 4            # selection polynomial degree; keeps the block exact
SYMMETRY_DEFECT_TOL = 1e-9
EXTENDED_SIGMA_THRESHOLD = 50.0
DEFAULT_EXTENDED_BITS = 128


def resolve_precision(precision, p, threshold=EXTENDED_SIGMA_THRESHOLD):
    """Normalize a precision request to None (double) or a bit count.

    Accepts "double", "auto", "extended", "extended:<bits>", or an int bit
    count. "auto" selects extended precision when max|sigma| exceeds the
    threshold.
    """
    if precision is None or precision == "double":
        return None
    if precision == "auto":
        if np.max(np.abs(p.sigma)) > threshold:
            return DEFAULT_EXTENDED_BITS
        return None
    if precision == "extended":
        return DEFAULT_EXTENDED_BITS
    if isinstance(precision, str) and precision.startswith("extended:"):
        try:
            bits = int(precision.split(":", 1)[1])
        except ValueError:
            raise ParameterError(f"cannot parse precision {precision!r}")
    elif isinstance(precision, int):
        bits = precision
    else:
        raise ParameterError(f"unknown precision {precision!r}")
    if bits < DEFAULT_EXTENDED_BITS:
        raise ParameterError(
            f"extended precision needs >= {DEFAULT_EXTENDED_BITS} bits, got {bits}")
    return bits


@dataclass(frozen=True)
class OperatorMatrix:
    """Assembled truncated operator with its scaling data."""
    params: ModelParams
    D: int
    pad: int
    basis: MultiJacobiBasis      # float basis at level D
    matrix: object               # csr (double) or list-of-dict rows (extended)
    log_norms: object            # per-position log C (float array or mpf list)
    precision_bits: int | None

    @property
    def size(self):
        return len(self.basis.enumeration)

    def dense_float(self):
        """Dense float64 view of the matrix (for residual checks and tests)."""
        if self.precision_bits is None:
            return self.matrix.toarray()
        U = self.size
        out = np.zeros((U, U))
        for r, row in enumerate(self.matrix):
            for c, v in row.items():
                out[r, c] = float(v)
        return out


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues and C-orthonormal left-eigenvector coefficients."""
    params: ModelParams
    D: int
    basis: MultiJacobiBasis
    eigenvalues: np.ndarray      # (U,) ascending
    coeffs: np.ndarray           # (U, U); row n holds u_{n,m}
    log_norms: np.ndarray        # (U,) log C_m
    precision_bits: int | None

    @property
    def size(self):
        return len(self.eigenvalues)


class _SparseRows:
    """Minimal row-wise sparse matrix over arbitrary scalars (mpf-friendly)."""

    def __init__(self, size):
        self.size = size
        self.rows = [dict() for _ in range(size)]

    def set(self, r, c, v):
        if v:
            self.rows[r][c] = v

    def __matmul__(self, other):
        out = _SparseRows(self.size)
        for r, row in enumerate(self.rows):
            acc = out.rows[r]
            for k, v in row.items():
                for c, w in other.rows[k].items():
                    acc[c] = acc.get(c, 0) + v * w
        return out

    def add_scaled_into(self, target, s):
        for r, row in enumerate(self.rows):
            acc = target.rows[r]
            for c, v in row.items():
                acc[c] = acc.get(c, 0) + s * v


def _multiset_products(coeffs):
    """Canonicalize ordered tuples to sorted multisets, accumulating weights."""
    out = {}
    for tup, v in coeffs.items():
        key = tuple(sorted(tup))
        out[key] = out.get(key, 0) + v
    return out


def _chain_product(ms, mats, cache):
    """G_{ms[0]} @ ... @ G_{ms[-1]}, multiplied left to right.

    Every prefix product is kept in `cache`, so tuples that share a prefix
    share its multiplications.
    """
    res = None
    for k in range(1, len(ms) + 1):
        key = ms[:k]
        hit = cache.get(key)
        if hit is None:
            hit = mats[ms[0]] if k == 1 else res @ mats[ms[k - 1]]
            cache[key] = hit
        res = hit
    return res


def assemble_M(p, basis, pad=DEFAULT_PAD, precision="double"):
    """Assemble the truncated operator matrix over the basis enumeration.

    Args:
        p: ModelParams (theta must match the basis).
        basis: float MultiJacobiBasis at the target truncation level.
        pad: enlargement of the working enumeration; the default covers the
            degree-4 selection polynomial exactly.
        precision: see resolve_precision.

    Returns:
        OperatorMatrix whose retained block carries no truncation error
        relative to the untruncated operator, provided pad >= polynomial degree.
    """
    if not np.allclose(np.asarray(basis.theta, dtype=float), p.theta):
        raise ParameterError("basis and model disagree on mutation rates")
    if pad < 0:
        raise ParameterError(f"pad must be >= 0, got {pad}")
    bits = resolve_precision(precision, p)
    if bits is None:
        return _assemble_double(p, basis, pad)
    return _assemble_extended(p, basis, pad, bits)


def _assemble_double(p, basis, pad):
    D = basis.D
    K = p.K
    enum_pad = BasisEnumeration(K, D + pad)
    basis_pad = MultiJacobiBasis(p.theta, enum_pad)
    upad = len(enum_pad)
    degrees = np.fromiter((sum(n) for n in enum_pad.indices), dtype=float,
                          count=upad)
    lam = 0.5 * degrees * (degrees - 1.0 + p.theta_total)
    acc = scipy.sparse.diags(lam, format="csr")
    multis = _multiset_products(model_mod.q_coefficients(p))
    mats = {}
    cache = {}
    needed = sorted({i for ms, v in multis.items() if v for i in ms})
    for i in needed:
        mats[i] = basis_pad.recurrence_matrix(i)
    eye = scipy.sparse.identity(upad, format="csr")
    for ms in sorted(multis):
        qv = float(multis[ms])
        if qv == 0.0:
            continue
        term = eye if ms == () else _chain_product(ms, mats, cache)
        acc = acc + qv * term
    U = total_count(K, D)
    block = acc.tocsr()[:U, :U].tocsr()
    return OperatorMatrix(params=p, D=D, pad=pad, basis=basis, matrix=block,
                          log_norms=basis.log_norms_all(),
                          precision_bits=None)


def _assemble_extended(p, basis, pad, bits):
    D = basis.D
    K = p.K
    with mpmath.workprec(bits):
        theta_mp = np.array([mpmath.mpf(float(t)) for t in p.theta], dtype=object)
        sigma_mp = [[mpmath.mpf(float(v)) for v in row] for row in p.sigma]
        enum_pad = BasisEnumeration(K, D + pad)
        basis_mp = MultiJacobiBasis(theta_mp, enum_pad)
        upad = len(enum_pad)
        tt = sum(theta_mp)
        acc = _SparseRows(upad)
        for pos, n in enumerate(enum_pad.indices):
            l = sum(n)
            acc.set(pos, pos, mpmath.mpf(l) * (l - 1 + tt) / 2)
        multis = _multiset_products(q_tables(theta_mp, sigma_mp))
        needed = sorted({i for ms, v in multis.items() if v for i in ms})
        mats = {}
        for i in needed:
            g = _SparseRows(upad)
            for pos, n in enumerate(enum_pad.indices):
                for m, v in basis_mp.row_entries(n, i):
                    col = enum_pad.position.get(m)
                    if col is not None and v:
                        g.rows[pos][col] = v
            mats[i] = g
        cache = {}
        for ms in sorted(multis):
            qv = multis[ms]
            if not qv:
                continue
            if ms == ():
                for r in range(upad):
                    acc.rows[r][r] = acc.rows[r].get(r, 0) + qv
            else:
                _chain_product(ms, mats, cache).add_scaled_into(acc, qv)
        U = total_count(K, D)
        rows = []
        for r in range(U):
            rows.append({c: v for c, v in acc.rows[r].items() if c < U})
        log_norms = [basis_mp.log_norm_C(n)
                     for n in enum_pad.indices[:U]]
    return OperatorMatrix(params=p, D=D, pad=pad, basis=basis, matrix=rows,
                          log_norms=log_norms, precision_bits=bits)


def symmetrize(om):
    """Similarity-transform M to its symmetric form S = D^-1 M D, D = diag sqrt C.

    Raises NumericalError when the symmetry defect exceeds tolerance, which
    indicates detailed balance is broken upstream.
    """
    if om.precision_bits is None:
        coo = om.matrix.tocoo()
        lg = om.log_norms
        data = coo.data * np.exp(0.5 * (lg[coo.col] - lg[coo.row]))
        S = scipy.sparse.coo_matrix(
            (data, (coo.row, coo.col)), shape=coo.shape).toarray()
        defect = np.max(np.abs(S - S.T))
        scale = np.max(np.abs(S))
        if defect > SYMMETRY_DEFECT_TOL * scale:
            raise NumericalError(
                f"detailed balance broken: symmetry defect {defect:.3e} "
                f"exceeds {SYMMETRY_DEFECT_TOL:.1e} * {scale:.3e}")
        return 0.5 * (S + S.T)
    with mpmath.workprec(om.precision_bits):
        U = len(om.matrix)
        lg = om.log_norms
        S = mpmath.zeros(U, U)
        for r, row in enumerate(om.matrix):
            for c, v in row.items():
                S[r, c] = v * mpmath.exp((lg[c] - lg[r]) / 2)
        defect = max((abs(S[r, c] - S[c, r])
                      for r in range(U) for c in range(r + 1, U)),
                     default=mpmath.mpf(0))
        scale = max(abs(S[r, c]) for r in range(U) for c in range(U))
        if defect > SYMMETRY_DEFECT_TOL * scale:
            raise NumericalError(
                f"detailed balance broken: symmetry defect {float(defect):.3e}")
        for r in range(U):
            for c in range(r + 1, U):
                v = (S[r, c] + S[c, r]) / 2
                S[r, c] = v
                S[c, r] = v
        return S


def eigensolve(om):
    """Solve the eigensystem and return C-orthonormal left eigenvectors.

    Eigenvalues ascend; row n of the coefficient matrix satisfies
    sum_m u_{n,m}^2 C_m = 1 with the largest-magnitude coefficient positive.
    """
    S = symmetrize(om)
    if om.precision_bits is None:
        try:
            w, V = scipy.linalg.eigh(S)
        except scipy.linalg.LinAlgError as exc:
            raise NumericalError(
                f"eigensolver failed at truncation {om.D}: {exc}")
        coeffs = (V * np.exp(-0.5 * om.log_norms)[:, None]).T
        log_norms = np.asarray(om.log_norms, dtype=float)
    else:
        with mpmath.workprec(om.precision_bits):
            try:
                E, Q = mpmath.eigsy(S)
            except Exception as exc:  # mpmath raises bare exceptions
                raise NumericalError(
                    f"extended eigensolver failed at truncation {om.D}: {exc}")
            U = S.rows
            order = sorted(range(U), key=lambda k: E[k])
            w = np.array([float(E[k]) for k in order])
            scale = [mpmath.exp(-lg / 2) for lg in om.log_norms]
            coeffs = np.empty((U, U))
            for rank, k in enumerate(order):
                for m in range(U):
                    coeffs[rank, m] = float(Q[m, k] * scale[m])
        log_norms = np.array([float(lg) for lg in om.log_norms])
    # deterministic sign: largest-magnitude coefficient positive
    lead = np.argmax(np.abs(coeffs), axis=1)
    flip = coeffs[np.arange(len(lead)), lead] < 0
    coeffs[flip] *= -1.0
    if not np.all(np.isfinite(coeffs)) or not np.all(np.isfinite(w)):
        raise NumericalError(f"non-finite eigendata at truncation {om.D}")
    return SpectralDecomposition(params=om.params, D=om.D, basis=om.basis,
                                 eigenvalues=w, coeffs=coeffs,
                                 log_norms=log_norms,
                                 precision_bits=om.precision_bits)


def decompose(p, D, pad=DEFAULT_PAD, precision="auto",
              sigma_threshold=EXTENDED_SIGMA_THRESHOLD):
    """Convenience: build the basis, assemble, and eigensolve at level D."""
    if D < 0:
        raise ParameterError(f"truncation must be >= 0, got {D}")
    basis = MultiJacobiBasis(p.theta, BasisEnumeration(p.K, D))
    bits = resolve_precision(precision, p, threshold=sigma_threshold)
    om = assemble_M(p, basis, pad=pad,
                    precision="double" if bits is None else bits)
    return eigensolve(om)


def residual_max(om, sd):
    """Largest left-eigenpair residual ||u M - Lambda u||_inf over ||u||_inf."""
    M = om.dense_float()
    worst = 0.0
    for n in range(sd.size):
        u = sd.coeffs[n]
        r = u @ M - sd.eigenvalues[n] * u
        worst = max(worst, np.max(np.abs(r)) / np.max(np.abs(u)))
    return worst


def eval_B(sd, n, x, m_count=None):
    """Evaluate eigenfunction n at simplex points x.

    B_n(x) = exp(-mean_fitness(x)/2) * sum_m u_{n,m} P_m(x).
    """
    if not 0 <= n < sd.size:
        raise ParameterError(f"eigenpair {n} outside 0..{sd.size - 1}")
    weights = sd.coeffs[n] if m_count is None else sd.coeffs[n, :m_count]
    xi = to_cube(x)
    P = sd.basis.eval_prefix_cube(xi, count=len(weights))
    sbar = model_mod.mean_fitness(sd.params, x)
    return np.exp(-0.5 * sbar) * np.tensordot(weights, P, axes=(0, 0))


def convergence_table(p, D_list, n_list, track=(), pad=DEFAULT_PAD,
                      precision="auto"):
    """Eigenvalue/coefficient traces across truncation levels.

    Args:
        p: model parameters.
        D_list: truncation levels, each solved independently.
        n_list: eigen-positions to report (matched across levels by sorted
            position; degenerate neutral clusters make positions within a
            cluster interchangeable, so neutral assertions belong on the
            eigenvalues only).
        track: (n, m_tuple) coefficient entries to report.

    Returns:
        List of row dicts {"D", "Lambda": {n: value}, "u": {(n, m): value}}.
    """
    rows = []
    for D in D_list:
        U = total_count(p.K, D)
        for n in n_list:
            if n >= U:
                raise ParameterError(
                    f"eigenpair {n} not present at truncation {D} (size {U})")
        sd = decompose(p, D, pad=pad, precision=precision)
        lam = {n: float(sd.eigenvalues[n]) for n in n_list}
        uvals = {}
        for n, m in track:
            pos = sd.basis.enumeration.position.get(tuple(m))
            if pos is None:
                raise ParameterError(f"index {m} not in the level-{D} basis")
            uvals[(n, tuple(m))] = float(sd.coeffs[n, pos])
        rows.append({"D": D, "Lambda": lam, "u": uvals})
    return rows


def decomposition_hash(sd):
    """Content hash of the eigendata, for reproducibility metadata."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(sd.eigenvalues).tobytes())
    h.update(np.ascontiguousarray(sd.coeffs).tobytes())
    h.update(np.ascontiguousarray(sd.log_norms).tobytes())
    return h.hexdigest()


def write_eigenvalues_csv(sd, path):
    """Eigenvalue export: (n, Lambda, norm) with the realized C-weighted norm."""
    norms = (sd.coeffs ** 2 * np.exp(sd.log_norms)[None, :]).sum(axis=1)
    with open(path, "w", newline="") as fh:
        fh.write("n,Lambda,norm\n")
        for n in range(sd.size):
            fh.write(f"{n},{sd.eigenvalues[n]:.17g},{norms[n]:.17g}\n")


def write_coefficients_csv(sd, path, n_limit=None):
    """Coefficient export: (n, m_tuple, u); tuples render as ;-joined degrees."""
    limit = sd.size if n_limit is None else min(n_limit, sd.size)
    labels = [";".join(map(str, m)) for m in sd.basis.enumeration.indices]
    with open(path, "w", newline="") as fh:
        fh.write("n,m_tuple,u\n")
        for n in range(limit):
            row = sd.coeffs[n]
            nz = np.flatnonzero(row)
            args = [None] * (2 * len(nz))
            args[0::2] = [labels[pos] for pos in nz.tolist()]
            args[1::2] = row[nz].tolist()
            fh.write((f"{n},%s,%.17g\n" * len(nz)) % tuple(args))
