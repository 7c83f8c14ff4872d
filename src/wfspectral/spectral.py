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

Callers ask for the n_eig lowest eigenpairs they read. A single pair comes
from ARPACK in shift-invert mode on the sparse symmetric matrix; a small
share of the spectrum from a LAPACK subset solve; anything else from the
full dense solve, sliced.
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
# The truncated operator is positive semidefinite with a simple lowest
# eigenvalue, so any negative shift keeps S - shift*I nonsingular and makes
# Lambda_0 the dominant eigenvalue of the inverse.
ARPACK_SHIFT = -0.1
ARPACK_MIN_SIZE = 21       # below this the Lanczos basis spans the space
SUBSET_FRACTION = 1 / 3    # LAPACK subset solve only up to this share of U


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
    """Lowest eigenvalues and C-orthonormal left-eigenvector coefficients."""
    params: ModelParams
    D: int
    basis: MultiJacobiBasis
    eigenvalues: np.ndarray      # (n_eig,) ascending
    coeffs: np.ndarray           # (n_eig, U); row n holds u_{n,m}
    log_norms: np.ndarray        # (U,) log C_m
    precision_bits: int | None
    eigensolver: str             # the solver that produced the pairs
    operator_hash: str           # see decomposition_hash

    @property
    def size(self):
        """Basis size U."""
        return len(self.log_norms)

    @property
    def n_eig(self):
        """Number of eigenpairs held."""
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

    The double path stays sparse (csr); the extended path returns a dense
    mpmath matrix. Raises NumericalError when the symmetry defect exceeds
    tolerance, which indicates detailed balance is broken upstream.
    """
    if om.precision_bits is None:
        coo = om.matrix.tocoo()
        lg = om.log_norms
        data = coo.data * np.exp(0.5 * (lg[coo.col] - lg[coo.row]))
        S = scipy.sparse.csr_matrix((data, (coo.row, coo.col)),
                                    shape=coo.shape)
        defect = abs(S - S.T).max()
        scale = abs(S).max()
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


def _lowest_pair(S):
    """Lowest eigenpair of sparse symmetric S by ARPACK in shift-invert mode.

    The inverse of S - ARPACK_SHIFT*I comes from one sparse LU; the start
    vector is fixed so that reruns give the same bits.
    """
    # imported here: only this path needs it, and it adds about 20 ms to
    # the start-up of every command
    import scipy.sparse.linalg
    U = S.shape[0]
    shifted = (S - ARPACK_SHIFT * scipy.sparse.identity(U)).tocsc()
    lu = scipy.sparse.linalg.splu(shifted, permc_spec="MMD_AT_PLUS_A")
    inverse = scipy.sparse.linalg.LinearOperator((U, U), matvec=lu.solve,
                                                 dtype=float)
    return scipy.sparse.linalg.eigsh(S, k=1, sigma=ARPACK_SHIFT, which="LM",
                                     OPinv=inverse, v0=np.ones(U))


def _solve(S, n_eig):
    """The n_eig lowest eigenpairs of symmetric S, ascending.

    Returns (eigenvalues, eigenvectors as columns, solver name). Double S is
    sparse and is made dense only for LAPACK; extended S is an mpmath matrix.
    """
    if not scipy.sparse.issparse(S):
        E, Q = mpmath.eigsy(S)
        order = sorted(range(S.rows), key=lambda k: E[k])[:n_eig]
        return [E[k] for k in order], [Q.column(k) for k in order], \
            "mpmath_eigsy"
    U = S.shape[0]
    if n_eig == 1 and U >= ARPACK_MIN_SIZE:
        w, V = _lowest_pair(S)
        return w, V, "arpack_shift_invert"
    # Fortran order lets LAPACK work in this one dense copy
    if n_eig <= SUBSET_FRACTION * U:
        w, V = scipy.linalg.eigh(S.toarray(order="F"), overwrite_a=True,
                                 subset_by_index=[0, n_eig - 1])
        return w, V, "eigh_subset"
    w, V = scipy.linalg.eigh(S.toarray(order="F"), overwrite_a=True)
    return w[:n_eig], V[:, :n_eig], "eigh"


def _operator_hash(om):
    """SHA-256 of the assembled operator and what sets its scaling."""
    h = hashlib.sha256(repr((om.precision_bits, om.D, om.pad)).encode())
    h.update(np.asarray(om.log_norms, dtype=float).tobytes())
    if om.precision_bits is None:
        M = om.matrix
        if not M.has_canonical_format:
            M = M.copy()
            M.sum_duplicates()
        for part in (M.data, M.indices.astype(np.int64),
                     M.indptr.astype(np.int64)):
            h.update(np.ascontiguousarray(part).tobytes())
    else:
        for r, row in enumerate(om.matrix):
            h.update(repr([(c, mpmath.mpf(row[c]).man_exp)
                           for c in sorted(row)]).encode())
    return h.hexdigest()


def eigensolve(om, n_eig=None):
    """Solve for the n_eig lowest eigenpairs (all when None).

    Returns C-orthonormal left eigenvectors: eigenvalues ascend, and row n of
    the coefficient matrix satisfies sum_m u_{n,m}^2 C_m = 1 with the
    largest-magnitude coefficient positive.
    """
    U = om.size
    if n_eig is None:
        n_eig = U
    if not 1 <= n_eig <= U:
        raise ParameterError(f"n_eig must be in 1..{U}, got {n_eig}")
    S = symmetrize(om)
    if om.precision_bits is None:
        try:
            w, V, solver = _solve(S, n_eig)
        except (scipy.linalg.LinAlgError, RuntimeError) as exc:
            # ARPACK and SuperLU failures are RuntimeError subclasses
            raise NumericalError(
                f"eigensolver failed at truncation {om.D}: {exc}")
        coeffs = (V * np.exp(-0.5 * om.log_norms)[:, None]).T
        log_norms = np.asarray(om.log_norms, dtype=float)
    else:
        with mpmath.workprec(om.precision_bits):
            try:
                E, Q, solver = _solve(S, n_eig)
            except Exception as exc:  # mpmath raises bare exceptions
                raise NumericalError(
                    f"extended eigensolver failed at truncation {om.D}: {exc}")
            w = np.array([float(e) for e in E])
            scale = [mpmath.exp(-lg / 2) for lg in om.log_norms]
            coeffs = np.array([[float(q[m] * scale[m]) for m in range(U)]
                               for q in Q])
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
                                 precision_bits=om.precision_bits,
                                 eigensolver=solver,
                                 operator_hash=_operator_hash(om))


def decompose(p, D, pad=DEFAULT_PAD, precision="auto",
              sigma_threshold=EXTENDED_SIGMA_THRESHOLD, n_eig=None):
    """Convenience: build the basis, assemble, and eigensolve at level D.

    n_eig: the number of lowest eigenpairs to solve for (None: all).
    """
    if D < 0:
        raise ParameterError(f"truncation must be >= 0, got {D}")
    basis = MultiJacobiBasis(p.theta, BasisEnumeration(p.K, D))
    bits = resolve_precision(precision, p, threshold=sigma_threshold)
    om = assemble_M(p, basis, pad=pad,
                    precision="double" if bits is None else bits)
    return eigensolve(om, n_eig=n_eig)


def eval_B(sd, n, x, m_count=None):
    """Evaluate eigenfunction n at simplex points x.

    B_n(x) = exp(-mean_fitness(x)/2) * sum_m u_{n,m} P_m(x).
    """
    if not 0 <= n < sd.n_eig:
        raise ParameterError(f"eigenpair {n} outside the {sd.n_eig} held")
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
    n_eig = max([*n_list, *(n for n, _ in track)], default=0) + 1
    rows = []
    for D in D_list:
        U = total_count(p.K, D)
        if n_eig > U:
            raise ParameterError(f"eigenpair {n_eig - 1} not present at "
                                 f"truncation {D} (size {U})")
        sd = decompose(p, D, pad=pad, precision=precision, n_eig=n_eig)
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
    """Hash of the operator the decomposition solved, for reproducibility.

    It covers the assembled matrix M, the norms log C, the truncation, the
    pad and the precision, not the eigendata, so decompositions of one
    operator that hold different numbers of pairs share it.
    """
    return sd.operator_hash


def write_eigenvalues_csv(sd, path):
    """Eigenvalue export: (n, Lambda, norm) with the realized C-weighted norm."""
    norms = (sd.coeffs ** 2 * np.exp(sd.log_norms)[None, :]).sum(axis=1)
    with open(path, "w", newline="") as fh:
        fh.write("n,Lambda,norm\n")
        for n in range(sd.n_eig):
            fh.write(f"{n},{sd.eigenvalues[n]:.17g},{norms[n]:.17g}\n")


def write_coefficients_csv(sd, path, n_limit=None):
    """Coefficient export: (n, m_tuple, u); tuples render as ;-joined degrees."""
    limit = sd.n_eig if n_limit is None else min(n_limit, sd.n_eig)
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
