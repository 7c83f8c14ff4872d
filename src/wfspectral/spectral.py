"""Truncated operator assembly and eigendecomposition.

The operator matrix over the graded basis is a degree-diagonal part plus the
degree-4 selection polynomial applied through coordinate-recurrence matrices:

    M = diag(lambda_|m|) + sum over tuples q(i1..iL) * G_{i1} ... G_{iL}.

Recurrence matrices are built over an enumeration padded by the degree of
the selection polynomial, so the products are exact on the retained block;
the G_i commute, so tuples are canonicalized to sorted multisets before
multiplying. The multisets are summed in nested (Horner) form, one sparse
product per multiset suffix, forming only the columns of degree <= D + depth
that the retained block can reach.

Detailed balance (M_{k,m} C_m = M_{m,k} C_k) makes M similar to a symmetric
matrix via the diagonal scaling sqrt(C); we solve that symmetric problem and
map eigenvectors back, which guarantees real spectra and C-weighted
orthonormality. Everything runs in double precision: under strong selection
(5 times the benchmark sigma, and sigma entries up to 80) a former 128-bit
path agreed with it to 2.5e-14 of the spectral scale on eigenvalues.

Callers ask for the n_eig lowest eigenpairs they read. A single pair comes
from LOBPCG (Knyazev 2001): first on the leading block of a nested level D'
(the largest with U(D') <= U/4; all of S when there is none), preconditioned
by its banded Cholesky factor (the graded order keeps S within a band),
shifted just below Lambda_0 ~ 0; then at level D from the embedded vector,
preconditioned by that factor and the diagonal. A small share of the
spectrum comes from a LAPACK subset solve; anything else from the full dense
solve, sliced. The full solve is LAPACK's divide-and-conquer driver (Gu &
Eisenstat 1995): it writes the eigenvectors over the dense matrix and needs
about 2U^2 doubles of workspace besides, so its peak is about 3U^2 doubles
(485 MB at U = 4495). The eigenvectors are scaled to coefficients in that
same array.

In the graded order the level-D operator is the leading U(D) x U(D) block of
the operator at any higher level, so a table over several levels assembles
once, at the highest.

A series over all U pairs needs no eigenpairs: its coefficients are
exp(-tS) applied to one vector, which semigroup_action computes by Lanczos
from sparse products with S (Saad, SIAM J. Numer. Anal. 29:209, 1992).
"""

import hashlib
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from . import csvout
from . import model as model_mod
from .basis import MultiJacobiBasis
from .errors import NumericalError, ParameterError
from .indexing import BasisEnumeration, graded_positions, total_count
# q_tables is unused here, but bench/spans.py wraps spectral.q_tables by name
from .model import ModelParams, q_tables  # noqa: F401

SYMMETRY_DEFECT_TOL = 1e-9
# The truncated operator is positive semidefinite with a simple lowest
# eigenvalue Lambda_0 ~ 0, so a negative shift makes S - shift*I positive
# definite, as its Cholesky factorization needs, and Lambda_0 the dominant
# eigenvalue of the inverse. Preconditioned by that inverse, the one-pair
# solve contracts by about (Lambda_0 - shift) / (Lambda_1 - shift) per step,
# so the shift sits at 1/128 of the neutral gap Lambda_1 = |theta|/2 below
# 0. The floor, relative to max|S_ij|, keeps it clear of Lambda_0's
# rounding: at theta_i = 1e-8 with the benchmark sigma, Lambda_0 is
# -7.1e-8, and without the floor the factorization fails.
SHIFT_GAP_SHARE = 1 / 128
SHIFT_FLOOR = 1e-8
SUBSET_FRACTION = 1 / 3    # LAPACK subset solve only up to this share of U
# semigroup_action: a time's result is accepted once its error estimate is
# at most KRYLOV_TOL of max|w|; the estimate is read every KRYLOV_CHECK
# steps, and a time still above it at KRYLOV_MAX_STEPS is refused. At the
# benchmark model (K=3, D=40) the times 0.045 to 2 take 40 to 220 steps.
KRYLOV_TOL = 1e-12
KRYLOV_CHECK = 20
KRYLOV_MAX_STEPS = 600
# a residual below U times this share of |T| is a breakdown: the Krylov
# space is invariant to rounding, and the result exact
KRYLOV_BREAKDOWN = np.finfo(float).eps
# each stage of the one-pair solve stops at |Sx - rho x| <= REFINE_TOL
# max|S_ij|, c = 16 epsilon. Rounding in Sx sets the floor: below 1e-18 of
# max|S_ij| where the pair lives on low degrees, nearer epsilon where it
# reaches the top ones. The tested models end at 6e-17 to 3.5e-15.
REFINE_TOL = 16 * np.finfo(float).eps


@dataclass(frozen=True)
class OperatorMatrix:
    """Assembled truncated operator with its scaling data."""
    params: ModelParams
    D: int
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
    # S, whose pairs these are, when fewer than U are held: a series over
    # all U pairs then applies exp(-tS) to a vector (semigroup_action)
    symmetric: scipy.sparse.csr_matrix | None
    # the one-pair solve's residuals and route (_lowest_pair); else empty
    pair_solve: dict

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


# an overflow leaves non-finite entries, which symmetrize refuses
@np.errstate(over="ignore", invalid="ignore")
def assemble_M(p, basis):
    """Assemble the truncated operator matrix over the basis enumeration.

    Args:
        p: ModelParams (theta must match the basis).
        basis: MultiJacobiBasis at the target truncation level.

    Returns:
        OperatorMatrix whose retained block carries no truncation error
        relative to the untruncated operator: the recurrence matrices come
        from a basis padded by the degree of the selection polynomial.
    """
    if not np.allclose(basis.theta, p.theta):
        raise ParameterError("basis and model disagree on mutation rates")
    D = basis.D
    K = p.K
    multis = {ms: float(v) for ms, v in
              _multiset_products(model_mod.q_coefficients(p)).items()}
    multis = {ms: v for ms, v in multis.items() if v != 0.0}
    live = {ms[k:] for ms in multis for k in range(len(ms) + 1)}
    depth = max(map(len, multis), default=0)
    basis_pad = MultiJacobiBasis(p.theta, BasisEnumeration(K, D + depth))
    # columns of degree <= D + k are all that depth k of the nesting reaches
    cols = [total_count(K, D + k) for k in range(depth + 1)]
    # G_i maps the cols[k + 1] columns of a depth k + 1 term to the cols[k]
    # of depth k
    blocks = {}
    for i in sorted({i for ms in multis for i in ms}):
        G = basis_pad.recurrence_matrix(i)
        for k in range(depth):
            blocks[i, k] = G[:cols[k + 1], :cols[k]]
    lam = model_mod.neutral_eigenvalue(basis.enumeration.degrees, p)
    block = _horner((), multis.get((), 0.0) + lam, multis, live, blocks,
                    cols)
    block.sum_duplicates()   # canonical: sorted in place, hashed as it is
    return OperatorMatrix(params=p, D=D, basis=basis, matrix=block,
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


@np.errstate(over="ignore", invalid="ignore")
def symmetrize(om):
    """Similarity-transform M to its symmetric form S = D^-1 M D, D = diag sqrt C.

    S stays sparse (csr). Raises NumericalError when the symmetry defect
    exceeds tolerance, which indicates detailed balance is broken upstream,
    or when S or the defect is not finite, as when the selection polynomial
    overflows.

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
    if not (np.isfinite(defect) and np.all(np.isfinite(S.data))):
        raise NumericalError(f"non-finite operator at truncation {om.D}: "
                             "an entry overflows double precision")
    if defect > SYMMETRY_DEFECT_TOL * scale:
        raise NumericalError(
            f"detailed balance broken: symmetry defect {defect:.3e} "
            f"exceeds {SYMMETRY_DEFECT_TOL:.1e} * {scale:.3e}")
    return S


def _shift(S, theta_total):
    """The shift of the one-pair solve: -max(|theta|/256, 1e-8 max|S_ij|)."""
    return -max(SHIFT_GAP_SHARE * 0.5 * theta_total,
                SHIFT_FLOOR * np.abs(S.data).max(initial=0.0))


def _lanczos(apply, q):
    """Lanczos with full reorthogonalization from the unit vector q, where
    apply(x) is a symmetric operator A times x. Step m yields (alpha, beta,
    Q, r): the diagonals alpha and beta[:-1] of T = Q'AQ, the m orthonormal
    rows of Q, and the residual r, of norm beta[-1]. It stops after
    min(KRYLOV_MAX_STEPS, U) steps; a caller stops it at a breakdown."""
    U = len(q)
    cap = min(KRYLOV_MAX_STEPS, U)
    Q = np.empty((cap + 1, U))
    Q[0] = q
    alpha, beta = np.empty(cap), np.empty(cap)
    for j in range(cap):
        r = apply(Q[j])
        alpha[j] = Q[j] @ r
        r -= alpha[j] * Q[j]
        if j:
            r -= beta[j - 1] * Q[j - 1]
        r -= (Q[:j + 1] @ r) @ Q[:j + 1]
        beta[j] = np.linalg.norm(r)
        yield alpha[:j + 1], beta[:j + 1], Q[:j + 1], r
        Q[j + 1] = r / beta[j]


def _nested_level(K, U):
    """The level D' >= 1 the one-pair solve starts from: the largest with
    U(D') <= U/4, or None when even U(1) = K is larger."""
    level = 0
    while 4 * total_count(K, level + 1) <= U:
        level += 1
    return level or None


def _banded_cholesky(S, shift):
    """Lower banded Cholesky factor of sparse symmetric S - shift*I.

    The bandwidth is read from the nonzeros of S: the graded order keeps
    every coupling within four degrees. The band is laid out in LAPACK's
    column order, so it is factored in place without a copy. A shifted
    matrix that is not positive definite raises LinAlgError.
    """
    U = S.shape[0]
    lower = scipy.sparse.tril(S, format="coo")
    band = np.zeros((U, int((lower.row - lower.col).max(initial=0)) + 1)).T
    band[lower.row - lower.col, lower.col] = lower.data
    band[0] -= shift
    return scipy.linalg.cholesky_banded(band, overwrite_ab=True, lower=True)


def _refine(S, x, shift, scale, precondition):
    """Block-size-1 LOBPCG (Knyazev, SIAM J. Sci. Comput. 23:517, 2001)
    from the unit vector x towards the lowest pair of S.

    Each step preconditions the residual r = Sx - rho x, orthonormalizes it
    against x and the previous step's move p, takes its one S.dot, and
    solves the Rayleigh-Ritz problem on [x, p, T r]; the products of x and
    p are carried as the same combinations of earlier products. It stops at
    |r| <= REFINE_TOL scale, scale = max|S_ij|. The Rayleigh quotient only
    falls, so one at or below the shift proves S - shift*I indefinite and
    raises LinAlgError, as a Cholesky factorization would; so does a pair
    still open after KRYLOV_MAX_STEPS steps.

    Returns (Lambda_0, eigenvector, steps, |r| at the start).
    """
    Sx = S.dot(x)
    V, SV = x[:, None], Sx[:, None]      # [x, p] and their products
    steps = 0
    while True:
        rho = x @ Sx
        if rho <= shift:
            raise scipy.linalg.LinAlgError(
                f"the refined eigenvalue {rho:.3e} lies at or below the shift "
                f"{shift:.3e}: the operator is not positive definite")
        r = Sx - rho * x
        residual = np.linalg.norm(r)
        if not steps:
            start = residual
        if residual <= REFINE_TOL * scale:
            return rho, x, steps, start
        if steps == KRYLOV_MAX_STEPS:
            raise scipy.linalg.LinAlgError(
                f"the lowest pair did not converge in {steps} refinement "
                f"steps: residual {residual / scale:.1e} of max|S_ij|")
        steps += 1
        w = precondition(r)
        for _ in range(2):
            w -= V @ (V.T @ w)
        w /= np.linalg.norm(w)
        V, SV = np.column_stack([V, w]), np.column_stack([SV, S.dot(w)])
        H = V.T @ SV
        y = np.linalg.eigh(0.5 * (H + H.T))[1][:, 0]
        x, Sx = V @ y, SV @ y
        # the move: the part of the new x outside the old one, made
        # orthogonal to the new x
        p, Sp = V[:, 1:] @ y[1:], SV[:, 1:] @ y[1:]
        c = x @ p
        p, Sp = p - c * x, Sp - c * Sx
        size = np.linalg.norm(p)
        V, SV = ((np.column_stack([x, p / size]),
                  np.column_stack([Sx, Sp / size])) if size
                 else (x[:, None], Sx[:, None]))


def _lowest_pair(S, theta_total, K):
    """Lowest eigenpair of the level-D S, and what its solve did.

    With shift = _shift(S, theta_total), the leading block of the level D' =
    _nested_level(K, U) (the level-D' operator; all of S when there is no
    D') is factored once by banded Cholesky. LOBPCG solves the block from a
    flat vector, preconditioned by that factor, the exact shift-inverse;
    then it refines [q'; 0] at level D, preconditioned by the factor on the
    leading rows and 1 / (S_ii - shift) on the others, which starts
    converged when the block is all of S.

    Returns (Lambda_0, unit eigenvector, info): info holds nested_level (D'
    or None), refine_steps at level D, and |Sx - rho x| / max|S_ij| (0 when
    S = 0) of [q'; 0] (embedded_residual) and, from a fresh product, of the
    pair (pair_residual). The start vector is fixed, so reruns give the
    same bits.
    """
    U = S.shape[0]
    scale = np.abs(S.data).max(initial=0.0)
    shift = _shift(S, theta_total)
    level = _nested_level(K, U)
    lead = U if level is None else total_count(K, level)
    block = S[:lead, :lead]
    factor = _banded_cholesky(block, shift)

    def solve(r):
        return scipy.linalg.cho_solve_banded((factor, True), r,
                                             check_finite=False)

    q = _refine(block, np.full(lead, lead ** -0.5), shift, scale, solve)[1]
    trailing = S.diagonal()[lead:] - shift
    if not np.all(trailing > 0):
        raise scipy.linalg.LinAlgError(
            "a diagonal entry lies at or below the shift: the operator is "
            "not positive definite")
    lam, v, steps, start = _refine(
        S, np.r_[q, np.zeros(U - lead)], shift, scale,
        lambda r: np.concatenate([solve(r[:lead]), r[lead:] / trailing]))
    residual = np.linalg.norm(S.dot(v) - lam * v)
    return lam, v, {
        "pair_residual": float(residual / scale) if scale else 0.0,
        "nested_level": level,
        "embedded_residual": float(start / scale) if scale else 0.0,
        "refine_steps": steps}


def _solve(S, n_eig, theta_total, K):
    """The n_eig lowest eigenpairs of the level-D sparse symmetric S.

    Returns (eigenvalues ascending, eigenvectors as columns, solver name,
    info): info is _lowest_pair's for one pair, else empty. S is made
    dense only for LAPACK. A solve fails with LinAlgError from LAPACK, from
    a banded Cholesky factorization, from a refined eigenvalue at or below
    the shift or from an unconverged one-pair solve.
    """
    U = S.shape[0]
    # a solve from one vector serves one pair only: it cannot resolve the
    # multiplicities of neutral clusters. Asked for the four lowest pairs of
    # a neutral K=3 model, ARPACK returned Lambda = 2.0 in place of the
    # second member of the degree-1 cluster at 0.5.
    if n_eig == 1:
        lam, v, info = _lowest_pair(S, theta_total, K)
        return np.array([lam]), v[:, None], "lobpcg", info
    # S is exactly symmetric, so the dense transpose is S in Fortran order,
    # filled from CSC straight off S's arrays: LAPACK works in this one copy
    if n_eig <= SUBSET_FRACTION * U:
        w, V = scipy.linalg.eigh(S.T.toarray(), overwrite_a=True,
                                 subset_by_index=[0, n_eig - 1])
        return w, V, "eigh_subset", {}
    # divide and conquer returns the eigenvectors in the dense copy itself
    w, V = scipy.linalg.eigh(S.T.toarray(), overwrite_a=True, driver="evd")
    return w[:n_eig], V[:, :n_eig], "eigh", {}


def semigroup_action(S, v, times, scale):
    """scale * exp(-t S) v at every time, by Lanczos on S from v.

    Args:
        S: sparse symmetric matrix (U, U), positive semidefinite up to
            rounding.
        v: start vector (U,) of finite non-zero norm, or NumericalError.
        times: 1-D array of times t > 0.
        scale: positive vector (U,); the result is w = scale * exp(-tS) v,
            and the stop rule measures the error of w.

    Returns (w, steps, errors): w of shape (T, U), and per time the Krylov
    dimension used and the error estimate relative to max|w|.

    One _lanczos run serves every time: with Q its basis from v/|v| and T
    = Q'SQ, exp(-tS) v ~ |v| Q exp(-tT) e_1, where |v| is BLAS nrm2, which
    holds where |v|^2 under- or overflows. After m steps the residual r
    gives Saad's a-posteriori estimate of the error of w,
    |v| |e_m' exp(-tT) e_1| max|scale * r|. Every KRYLOV_CHECK steps each
    time still open is accepted when that estimate is at most KRYLOV_TOL
    max|w|. A time's result is the prefix its own rule picks, so it depends
    only on (S, v, t), not on the other times. A residual at rounding level
    (a breakdown) or the m = U step makes every open time exact. A time
    still open after KRYLOV_MAX_STEPS steps raises NumericalError.
    """
    U = len(v)
    size = scipy.linalg.norm(v, check_finite=False)
    if not 0 < size < np.inf:
        raise NumericalError(f"exp(-tS)v needs a start vector of finite "
                             f"non-zero norm, got {size:g}")
    out = np.empty((len(times), U))
    steps, errors = [0] * len(times), [0.0] * len(times)
    open_ = list(range(len(times)))
    norm_T = 0.0
    for alpha, beta, Q, r in _lanczos(S.dot, v / size) if open_ else ():
        m = len(alpha)
        norm_T = max(norm_T, abs(alpha[-1]) + beta[-1])
        exact = m == U or beta[-1] <= KRYLOV_BREAKDOWN * U * norm_T
        if exact or m % KRYLOV_CHECK == 0 or m == KRYLOV_MAX_STEPS:
            theta, Z = scipy.linalg.eigh_tridiagonal(alpha, beta[:-1])
            tail = np.abs(scale * r).max()
            for i in list(open_):
                e = Z @ (np.exp(-times[i] * theta) * Z[0])
                w = scale * (size * (e @ Q))
                error = size * abs(e[-1]) * tail / np.abs(w).max()
                if exact or error <= KRYLOV_TOL:
                    out[i], steps[i], errors[i] = w, m, float(error)
                    open_.remove(i)
                elif m == KRYLOV_MAX_STEPS:
                    raise NumericalError(
                        f"exp(-tS)v at t={times[i]:g} did not converge in "
                        f"{m} Krylov steps: error estimate {error:.2e} of "
                        f"max|w|, above {KRYLOV_TOL:.0e}")
            if not open_:
                break
    return out, steps, errors


def _signs(coeffs):
    """+1 or -1 per row, so that each row's largest-magnitude coefficient
    (the first of equal ones) becomes positive.

    Read from the row maxima and minima, without an |coeffs| array.
    """
    rows = np.arange(len(coeffs))
    hi, lo = np.argmax(coeffs, axis=1), np.argmin(coeffs, axis=1)
    top, bottom = coeffs[rows, hi], -coeffs[rows, lo]
    flip = (bottom > top) | ((bottom == top) & (lo < hi))
    return np.where(flip, -1.0, 1.0)


def _operator_hash(om):
    """SHA-256 of the assembled operator and what sets its scaling."""
    # None and 4 fill the slots of the precision and of the pad every run
    # used while they were options, so the hash of an operator is unchanged
    h = hashlib.sha256(repr((None, om.D, 4)).encode())
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
        w, V, solver, info = _solve(S, n_eig, om.params.theta_total,
                                    om.params.K)
    except scipy.linalg.LinAlgError as exc:
        # LAPACK failures, an indefinite shifted operator (a failed banded
        # Cholesky or a refined eigenvalue at or below the shift), and an
        # unconverged one-pair solve
        raise NumericalError(
            f"eigensolver failed at truncation {om.D}: {exc}")
    # scaled in LAPACK's array: no second U x n_eig array is made
    V *= np.exp(-0.5 * om.log_norms)[:, None]
    coeffs = V.T
    coeffs *= _signs(coeffs)[:, None]
    if not np.all(np.isfinite(coeffs)) or not np.all(np.isfinite(w)):
        raise NumericalError(f"non-finite eigendata at truncation {om.D}")
    return SpectralDecomposition(params=om.params, D=om.D, basis=om.basis,
                                 eigenvalues=w, coeffs=coeffs,
                                 log_norms=om.log_norms, eigensolver=solver,
                                 operator_hash=_operator_hash(om),
                                 symmetric=S if n_eig < U else None,
                                 pair_solve=info)


def decompose(p, D, n_eig=None, within=None):
    """Convenience: build the basis, assemble, and eigensolve at level D.

    n_eig: the number of lowest eigenpairs to solve for (None: all).
    within: an OperatorMatrix of p at a level >= D. The level-D operator is
        then its leading block (see leading_block), and nothing is assembled.
    """
    if D < 0:
        raise ParameterError(f"truncation must be >= 0, got {D}")
    if within is not None:
        if not (np.array_equal(within.params.theta, p.theta)
                and np.array_equal(within.params.sigma, p.sigma)):
            raise ParameterError("the operator was assembled for another "
                                 "model")
        return eigensolve(leading_block(within, D), n_eig=n_eig)
    basis = MultiJacobiBasis(p.theta, BasisEnumeration(p.K, D))
    return eigensolve(assemble_M(p, basis), n_eig=n_eig)


def convergence_table(p, D_list, n_list, track=()):
    """Eigenvalue/coefficient traces across truncation levels.

    Args:
        p: model parameters.
        D_list: truncation levels. The operator is assembled once, at the
            highest; each level solves its leading block.
        n_list: eigen-positions to report (matched across levels by sorted
            position; degenerate neutral clusters make positions within a
            cluster interchangeable, so neutral assertions belong on the
            eigenvalues only).
        track: (n, m_tuple) coefficient entries to report.

    Returns:
        List of row dicts {"D", "Lambda": {n: value}, "u": {(n, m): value}}.

    Every index is checked against the smallest level before any solve; a
    tuple keeps its graded position at every larger level.
    """
    if not D_list:
        return []
    low = min(D_list)
    U = total_count(p.K, low)
    n_eig = max([*n_list, *(n for n, _ in track)], default=0) + 1
    if n_eig > U:
        raise ParameterError(f"eigenpair {n_eig - 1} not present at "
                             f"truncation {low} (size {U})")
    track = [(n, tuple(m)) for n, m in track]
    for _, m in track:
        if len(m) != p.K - 1 or min(m) < 0 or sum(m) > low:
            raise ParameterError(f"index {m} not in the level-{low} basis")
    pos = graded_positions(np.reshape([m for _, m in track], (-1, p.K - 1)))
    top = assemble_M(p, MultiJacobiBasis(
        p.theta, BasisEnumeration(p.K, max(D_list))))
    rows = []
    for D in D_list:
        sd = decompose(p, D, n_eig=n_eig, within=top)
        lam = {n: float(sd.eigenvalues[n]) for n in n_list}
        uvals = {(n, m): float(sd.coeffs[n, q])
                 for (n, m), q in zip(track, pos)}
        rows.append({"D": D, "Lambda": lam, "u": uvals})
    return rows


def leading_block(om, D):
    """The level-D operator, read as the leading block of a higher level's.

    The graded order lists every index of degree <= D first, and the
    level-D assembly is, bit for bit, the leading U(D) x U(D) block of M and
    of log C at any level above D.
    """
    if D == om.D:
        return om
    if not 0 <= D < om.D:
        raise ParameterError(f"level {D} is not below level {om.D}")
    basis = MultiJacobiBasis(om.params.theta, BasisEnumeration(om.params.K, D))
    U = len(basis.enumeration)
    return OperatorMatrix(params=om.params, D=D, basis=basis,
                          matrix=om.matrix[:U, :U], log_norms=om.log_norms[:U])


def decomposition_hash(sd):
    """Hash of the operator the decomposition solved, for reproducibility.

    It covers the assembled matrix M, the norms log C and the truncation,
    not the eigendata, so decompositions of one operator that hold
    different numbers of pairs share it.
    """
    return sd.operator_hash


def write_eigenvalues_csv(sd, path):
    """Eigenvalue export: (n, Lambda, norm) with the realized C-weighted norm."""
    norms = (sd.coeffs ** 2 * np.exp(sd.log_norms)[None, :]).sum(axis=1)
    csvout.write_csv(path, ["n", "Lambda", "norm"],
                     [(np.arange(sd.n_eig), sd.eigenvalues, norms)])


def write_coefficients_csv(sd, path):
    """Coefficient export: (n, m_tuple, u); tuples render as ;-joined degrees.

    Zero coefficients are left out. Rows go out in blocks of about
    csvout.CHUNK coefficients.
    """
    labels = np.array([";".join(map(str, m))
                       for m in sd.basis.enumeration.indices.tolist()],
                      dtype="S")
    names = np.arange(sd.n_eig).astype("S")
    step = max(1, csvout.CHUNK // sd.size)

    def blocks():
        for lo in range(0, sd.n_eig, step):
            block = sd.coeffs[lo:lo + step]
            n, pos = np.nonzero(block)
            yield names[lo + n], labels[pos], block[n, pos]

    csvout.write_csv(path, ["n", "m_tuple", "u"], blocks())
