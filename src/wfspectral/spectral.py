"""Truncated operator assembly and eigendecomposition.

The operator matrix over the graded basis is a degree-diagonal part plus the
degree-4 selection polynomial applied through coordinate-recurrence matrices:

    M = diag(lambda_|m|) + sum over tuples q(i1..iL) * G_{i1} ... G_{iL}.

Recurrence matrices are built over an enlarged (padded) enumeration so that
the products are exact on the retained block; the G_i commute, so tuples are
canonicalized to sorted multisets before multiplying. The double path sums
the multisets in nested (Horner) form, one sparse product per multiset
suffix, and forms only the columns of degree <= D + depth that the retained
block can reach.

Detailed balance (M_{k,m} C_m = M_{m,k} C_k) makes M similar to a symmetric
matrix via the diagonal scaling sqrt(C); we solve that symmetric problem and
map eigenvectors back, which guarantees real spectra and C-weighted
orthonormality. Everything runs in double precision: under strong selection
(5 times the benchmark sigma, and sigma entries up to 80) a former 128-bit
path agreed with it to 2.5e-14 of the spectral scale on eigenvalues.

Callers ask for the n_eig lowest eigenpairs they read. A single pair comes
from ARPACK in shift-invert mode on the sparse symmetric matrix, with the
inverse from a banded Cholesky factorization (the graded order keeps S
within a band); a small share of the spectrum from a LAPACK subset solve;
anything else from the full dense solve, sliced.
"""

import functools
import hashlib
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from . import model as model_mod
from .basis import MultiJacobiBasis
from .errors import NumericalError, ParameterError
from .indexing import BasisEnumeration, total_count
# q_tables is unused here, but bench/spans.py wraps spectral.q_tables by name
from .model import ModelParams, q_tables  # noqa: F401
from .simplex import to_cube

DEFAULT_PAD = 4            # selection polynomial degree; keeps the block exact
SYMMETRY_DEFECT_TOL = 1e-9
# The truncated operator is positive semidefinite with a simple lowest
# eigenvalue, so any negative shift makes S - shift*I positive definite, as
# its Cholesky factorization needs, and Lambda_0 the dominant eigenvalue of
# the inverse.
ARPACK_SHIFT = -0.1
ARPACK_MIN_SIZE = 21       # below this the Lanczos basis spans the space
SUBSET_FRACTION = 1 / 3    # LAPACK subset solve only up to this share of U


@dataclass(frozen=True)
class OperatorMatrix:
    """Assembled truncated operator with its scaling data."""
    params: ModelParams
    D: int
    pad: int
    basis: MultiJacobiBasis      # basis at level D
    matrix: scipy.sparse.csr_matrix
    log_norms: np.ndarray        # (U,) log C_m

    @property
    def size(self):
        return len(self.basis.enumeration)

    # always None (double precision); bench/spans.py reads it
    precision_bits = None


@dataclass(frozen=True)
class SpectralDecomposition:
    """Lowest eigenvalues and C-orthonormal left-eigenvector coefficients."""
    params: ModelParams
    D: int
    basis: MultiJacobiBasis
    eigenvalues: np.ndarray      # (n_eig,) ascending
    coeffs: np.ndarray           # (n_eig, U); row n holds u_{n,m}
    log_norms: np.ndarray        # (U,) log C_m
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

    # always None (double precision); bench/spans.py reads it
    precision_bits = None


def _multiset_products(coeffs):
    """Canonicalize ordered tuples to sorted multisets, accumulating weights."""
    out = {}
    for tup, v in coeffs.items():
        key = tuple(sorted(tup))
        out[key] = out.get(key, 0) + v
    return out


def assemble_M(p, basis, pad=DEFAULT_PAD):
    """Assemble the truncated operator matrix over the basis enumeration.

    Args:
        p: ModelParams (theta must match the basis).
        basis: MultiJacobiBasis at the target truncation level.
        pad: enlargement of the working enumeration; the default covers the
            degree-4 selection polynomial exactly.

    Returns:
        OperatorMatrix whose retained block carries no truncation error
        relative to the untruncated operator, provided pad >= polynomial degree.
    """
    if not np.allclose(basis.theta, p.theta):
        raise ParameterError("basis and model disagree on mutation rates")
    if pad < 0:
        raise ParameterError(f"pad must be >= 0, got {pad}")
    D = basis.D
    K = p.K
    basis_pad = MultiJacobiBasis(p.theta, BasisEnumeration(K, D + pad))
    multis = {ms: float(v) for ms, v in
              _multiset_products(model_mod.q_coefficients(p)).items()}
    multis = {ms: v for ms, v in multis.items() if v != 0.0}
    live = {ms[k:] for ms in multis for k in range(len(ms) + 1)}
    depth = max(map(len, multis), default=0)
    # columns of degree <= D + k are all that depth k of the nesting reaches
    cols = [total_count(K, D + min(k, pad)) for k in range(depth + 1)]
    U = cols[0]
    # G_i maps the cols[k + 1] columns of a depth k + 1 term to the cols[k]
    # of depth k
    blocks = {}
    for i in sorted({i for ms in multis for i in ms}):
        G = basis_pad.recurrence_matrix(i)
        for k in range(depth):
            blocks[i, k] = G[:cols[k + 1], :cols[k]]
    degrees = np.fromiter((sum(n) for n in basis.enumeration.indices),
                          dtype=float, count=U)
    lam = 0.5 * degrees * (degrees - 1.0 + p.theta_total)
    block = _horner((), multis.get((), 0.0) + lam, multis, live, blocks,
                    cols)
    block.sum_duplicates()   # canonical: sorted in place, hashed as it is
    return OperatorMatrix(params=p, D=D, pad=pad, basis=basis, matrix=block,
                          log_norms=basis.log_norms_all())


def _horner(suffix, diagonal, multis, live, blocks, cols):
    """Nested selection products above a multiset suffix, first U rows.

    A(suffix) = q(suffix) I + sum over l <= suffix[0] of A(l + suffix) G_l,
    so every sorted multiset i1 <= ... <= iL contributes q G_i1 ... G_iL in
    the order the padded products took, and the root is the polynomial's
    part of M. Only the leading cols[len(suffix)] columns are formed. The
    diagonal (length U) stands in for q(suffix); it and the children's terms
    are summed in one product [diag | A(l + suffix) ...] @ [I; G_l; ...].
    """
    k = len(suffix)
    n, U = cols[k], cols[0]
    left = [_diagonal(diagonal, U)]
    right = [_diagonal(np.ones(U), n)]
    for (l, j), G in blocks.items():
        child = (l,) + suffix
        # live suffixes are sorted, so l <= suffix[0]
        if j == k and child in live:
            left.append(_horner(child, np.full(U, multis.get(child, 0.0)),
                                multis, live, blocks, cols))
            right.append(G)
    if len(left) == 1:
        return _diagonal(diagonal, n)
    return (scipy.sparse.hstack(left, format="csr")
            @ scipy.sparse.vstack(right, format="csr"))


def _diagonal(values, n):
    """CSR matrix of len(values) rows and n >= len(values) columns with
    the nonzero values on its main diagonal.

    sparse.diags goes through the DIA format, which at small U costs more
    than the products it feeds.
    """
    pos = np.flatnonzero(values)
    indptr = np.zeros(len(values) + 1, dtype=pos.dtype)
    indptr[pos + 1] = 1
    return scipy.sparse.csr_matrix((values[pos], pos, np.cumsum(indptr)),
                                   shape=(len(values), n))


def symmetrize(om):
    """Similarity-transform M to its symmetric form S = D^-1 M D, D = diag sqrt C.

    S stays sparse (csr). Raises NumericalError when the symmetry defect
    exceeds tolerance, which indicates detailed balance is broken upstream.

    S is M's data scaled once, on M's own indices. When its transpose has the
    same pattern, as detailed balance makes it, the defect and the average
    are taken on the two data arrays; otherwise by sparse arithmetic.
    """
    M = om.matrix
    lg = om.log_norms
    rows = np.repeat(np.arange(M.shape[0]), np.diff(M.indptr))
    S = scipy.sparse.csr_matrix(
        (M.data * np.exp(0.5 * (lg[M.indices] - lg[rows])), M.indices,
         M.indptr), shape=M.shape)
    T = S.T.tocsr()
    scale = np.abs(S.data).max(initial=0.0)
    if (np.array_equal(T.indptr, S.indptr)
            and np.array_equal(T.indices, S.indices)):
        defect = np.abs(S.data - T.data).max(initial=0.0)
        S.data = 0.5 * (S.data + T.data)
    else:
        defect = abs(S - T).max()
        S = 0.5 * (S + T)
    if defect > SYMMETRY_DEFECT_TOL * scale:
        raise NumericalError(
            f"detailed balance broken: symmetry defect {defect:.3e} "
            f"exceeds {SYMMETRY_DEFECT_TOL:.1e} * {scale:.3e}")
    return S


def _lowest_pair(S):
    """Lowest eigenpair of sparse symmetric S by ARPACK in shift-invert mode.

    The inverse of S - ARPACK_SHIFT*I comes from one banded Cholesky
    factorization, with the bandwidth read from the nonzeros of S: the
    graded order keeps every coupling within four degrees. The shifted
    matrix must be positive definite; when it is not, the factorization
    raises LinAlgError instead of letting ARPACK return the eigenvalue
    nearest the shift. The start vector is fixed so that reruns give the
    same bits.
    """
    # imported here: only this path needs it, and it adds about 20 ms to
    # the start-up of every command
    import scipy.sparse.linalg
    U = S.shape[0]
    lower = scipy.sparse.tril(S, format="coo")
    band = np.zeros((int((lower.row - lower.col).max(initial=0)) + 1, U))
    band[lower.row - lower.col, lower.col] = lower.data
    band[0] -= ARPACK_SHIFT
    factor = scipy.linalg.cholesky_banded(band, overwrite_ab=True, lower=True)
    inverse = scipy.sparse.linalg.LinearOperator(
        (U, U), dtype=float,
        matvec=functools.partial(scipy.linalg.cho_solve_banded, (factor, True),
                                 check_finite=False))
    return scipy.sparse.linalg.eigsh(S, k=1, sigma=ARPACK_SHIFT, which="LM",
                                     OPinv=inverse, v0=np.ones(U))


def _solve(S, n_eig):
    """The n_eig lowest eigenpairs of sparse symmetric S, ascending.

    Returns (eigenvalues, eigenvectors as columns, solver name). S is made
    dense only for LAPACK. A solve fails with LinAlgError from LAPACK or from
    the banded Cholesky, or with an ARPACK RuntimeError.
    """
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
    # None fills the slot a precision took when there were two paths, so
    # the hash of a given operator has not changed
    h = hashlib.sha256(repr((None, om.D, om.pad)).encode())
    h.update(om.log_norms.tobytes())
    M = om.matrix
    if not M.has_canonical_format:
        M = M.copy()
        M.sum_duplicates()
    for part in (M.data, M.indices.astype(np.int64),
                 M.indptr.astype(np.int64)):
        h.update(np.ascontiguousarray(part).tobytes())
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
    try:
        w, V, solver = _solve(S, n_eig)
    except (scipy.linalg.LinAlgError, RuntimeError) as exc:
        # LAPACK failures, the banded Cholesky of an indefinite shifted
        # operator among them, raise LinAlgError; ARPACK's are RuntimeError
        # subclasses
        raise NumericalError(
            f"eigensolver failed at truncation {om.D}: {exc}")
    coeffs = (V * np.exp(-0.5 * om.log_norms)[:, None]).T
    # deterministic sign: largest-magnitude coefficient positive
    lead = np.argmax(np.abs(coeffs), axis=1)
    flip = coeffs[np.arange(len(lead)), lead] < 0
    coeffs[flip] *= -1.0
    if not np.all(np.isfinite(coeffs)) or not np.all(np.isfinite(w)):
        raise NumericalError(f"non-finite eigendata at truncation {om.D}")
    return SpectralDecomposition(params=om.params, D=om.D, basis=om.basis,
                                 eigenvalues=w, coeffs=coeffs,
                                 log_norms=om.log_norms, eigensolver=solver,
                                 operator_hash=_operator_hash(om))


def decompose(p, D, pad=DEFAULT_PAD, n_eig=None):
    """Convenience: build the basis, assemble, and eigensolve at level D.

    n_eig: the number of lowest eigenpairs to solve for (None: all).
    """
    if D < 0:
        raise ParameterError(f"truncation must be >= 0, got {D}")
    basis = MultiJacobiBasis(p.theta, BasisEnumeration(p.K, D))
    return eigensolve(assemble_M(p, basis, pad=pad), n_eig=n_eig)


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


def convergence_table(p, D_list, n_list, track=(), pad=DEFAULT_PAD):
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
        sd = decompose(p, D, pad=pad, n_eig=n_eig)
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

    It covers the assembled matrix M, the norms log C, the truncation and
    the pad, not the eigendata, so decompositions of one
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
