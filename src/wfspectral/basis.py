"""Multivariate Jacobi polynomials on the simplex and their recurrence matrices.

The basis member with index tuple n = (n_1, ..., n_{K-1}) factorizes in cube
coordinates as

    P_n(x) = prod_j R_{n_j}^{(theta_j, T_j + 2 N_j)}(xi_j) * (1 - xi_j)^{N_j}

where N_j = n_{j+1} + ... + n_{K-1} and T_j = theta_{j+1} + ... + theta_K are
suffix sums. The family is orthogonal under the Dirichlet kernel
prod x_i^(theta_i - 1) with squared norms C_n given by the product of the
univariate norms at the same shifted parameters.

Multiplication by a coordinate x_i maps P_n into a sparse combination of
neighbors: a G factor at slot i and one H/I/J factor per slot j < i, selected
by how the suffix degree changes (down/unchanged/up). row_entries walks one
row with the scalar tables (any scalar type; the extended-precision assembly
uses it), and recurrence_matrix builds the sparse float matrix over a graded
enumeration for all rows at once, gathering the factors from per-slot arrays
of the same tables.
"""

import math

import mpmath
import numpy as np
import scipy.sparse

from . import jacobi
from .errors import ParameterError
from .indexing import (BasisEnumeration, graded_positions, index_arrays,
                       tail_sums)
from .simplex import to_cube

# Entries smaller than this are dropped from sparse storage (exact zeros).
ENTRY_FLOOR = 1e-300
# eval_prefix_cube gathers about this many values at a time
GATHER_BLOCK = 1 << 16


class MultiJacobiBasis:
    """Basis of multivariate Jacobi polynomials over a graded enumeration.

    Args:
        theta: K positive mutation weights. Floats normally; an object array
            of multiprecision scalars is accepted and propagates through the
            coefficient tables and norms.
        enumeration: BasisEnumeration with matching K.
    """

    def __init__(self, theta, enumeration):
        theta = np.asarray(theta)
        if theta.dtype != object:
            theta = theta.astype(float)
        if theta.ndim != 1 or len(theta) != enumeration.K:
            raise ParameterError(
                f"need {enumeration.K} mutation weights, got shape {theta.shape}")
        if not all(t > 0 for t in theta):
            raise ParameterError("mutation weights must be positive")
        self.theta = theta
        self.enumeration = enumeration
        self.K = enumeration.K
        self.D = enumeration.D
        # suffix sums theta[j+1] + ... + theta[K-1], one per axis
        self.theta_tail = [sum(theta[j + 1:]) for j in range(self.K - 1)]
        self._log_norms = None
        self._band_tables = {}

    def axis_params(self, j, tail_degree):
        """Univariate weight exponents (a, b) at axis j given suffix degree.

        An integer array of suffix degrees gives b as an array.
        """
        return self.theta[j], self.theta_tail[j] + 2 * tail_degree

    # -- evaluation ---------------------------------------------------------

    def eval_P_cube(self, n, xi):
        """Evaluate P_n at cube coordinates xi (last axis has K-1 slots)."""
        xi = np.asarray(xi, dtype=float)
        tails = tail_sums(n)
        val = np.ones(xi.shape[:-1])
        for j in range(self.K - 1):
            a, b = self.axis_params(j, tails[j])
            val = val * jacobi.eval_R(n[j], a, b, xi[..., j])
            if tails[j]:
                val = val * (1.0 - xi[..., j]) ** tails[j]
        return val

    def eval_P(self, n, x):
        """Evaluate P_n at simplex points x."""
        return self.eval_P_cube(n, to_cube(x))

    def eval_prefix_cube(self, xi, count=None):
        """Evaluate the first `count` basis members at cube points.

        Shares the per-axis recurrence tables across indices: one univariate
        table per (axis, suffix degree) pair, stacked per axis, from which
        each member's factors are gathered in blocks of rows.

        Returns an array of shape (count,) + xi.shape[:-1].
        """
        xi = np.asarray(xi, dtype=float)
        enum = self.enumeration
        if count is None:
            count = len(enum)
        if count > len(enum):
            raise ParameterError(
                f"requested {count} basis members, enumeration holds {len(enum)}")
        naxes = self.K - 1
        n, tails = index_arrays(enum.indices[:count], naxes)
        top = int(n.sum(axis=1).max(initial=0))
        flat_xi = xi.reshape(-1, naxes)
        # (table, row of each member), in the order of the product over the
        # axes: R_{n_j} from the rows of suffix degree t_j, times
        # (1 - xi_j)^t_j, which the first axis folds into its table
        factors = []
        for j in range(naxes):
            lengths = top + 1 - np.arange(tails[:, j].max(initial=0) + 1)
            start = np.cumsum(lengths) - lengths
            table = np.empty((lengths.sum(), len(flat_xi)))
            pows = np.ones((len(lengths), len(flat_xi)))
            for t, size in enumerate(lengths.tolist()):
                a, b = self.axis_params(j, t)
                rows = table[start[t]:start[t] + size]
                rows[...] = jacobi.eval_R_all(size - 1, a, b, flat_xi[:, j])
                if t:
                    pows[t] = pows[t - 1] * (1.0 - flat_xi[:, j])
                    if j == 0:
                        # every member's product starts with R (1 - xi)^t,
                        # so forming it here rounds the same way
                        rows *= pows[t]
            factors.append((table, start[tails[:, j]] + n[:, j]))
            if j and len(lengths) > 1:
                factors.append((pows, tails[:, j]))
        out = np.empty((count,) + xi.shape[:-1])
        flat = out.reshape(count, len(flat_xi))
        step = max(1, GATHER_BLOCK // max(len(flat_xi), 1))
        part = np.empty((min(step, count), len(flat_xi)))
        for lo in range(0, count, step):
            block = flat[lo:lo + step]
            for k, (table, pick) in enumerate(factors):
                # the first factor lands in place; 1 * R is R exactly
                into = block if k == 0 else part[:len(block)]
                np.take(table, pick[lo:lo + step], axis=0, out=into)
                if k:
                    block *= into
        return out

    # -- norms ---------------------------------------------------------------

    def log_norm_C(self, n):
        """Log of the squared norm C_n under the Dirichlet kernel."""
        tails = tail_sums(n)
        total = 0.0
        for j in range(self.K - 1):
            a, b = self.axis_params(j, tails[j])
            total = total + jacobi.log_norm_c(n[j], a, b)
        return total

    def norm_C(self, n):
        lg = self.log_norm_C(n)
        if isinstance(lg, float):
            return math.exp(lg)
        return mpmath.exp(lg)

    def log_norms_all(self):
        """Vector of log C_n over the whole enumeration (cached, float path).

        Equals log_norm_C member by member: the per-axis terms come from one
        log_norm_c table per axis, indexed [degree, suffix degree], and are
        summed over the axes in the same order.
        """
        if self._log_norms is None:
            n, tails = index_arrays(self.enumeration.indices, self.K - 1)
            total = np.zeros(len(n))
            for j in range(self.K - 1):
                # the last axis has no suffix
                a, b = self.axis_params(
                    j, np.arange(self.D + 1 if j < self.K - 2 else 1))
                table = np.zeros((self.D + 1, len(b)))
                for nj in range(self.D + 1):
                    bs = b[:self.D + 1 - nj]
                    table[nj, :len(bs)] = jacobi.log_norm_c(nj, a, bs)
                total = total + table[n[:, j], tails[:, j]]
            self._log_norms = total
        return self._log_norms

    # -- coordinate-multiplication recurrence --------------------------------

    def row_entries(self, n, i):
        """All (m, coefficient) pairs of the x_i * P_n expansion.

        Walks the admissible band at each slot: the pivot slot takes the
        three-point G band; each slot below takes the H/I/J band selected by
        the accumulated suffix-degree change d, which the bands keep in
        {-1, 0, +1} automatically.
        """
        piv = self._check_coord(i)
        tails = tail_sums(n)
        a, b = self.axis_params(piv, tails[piv])
        # partial expansions (d, value, chosen degrees of slots j+1..piv),
        # extended one slot at a time in lexicographic order of the choices
        partial = []
        for mp in range(max(n[piv] - 1, 0), n[piv] + 2):
            g = jacobi.coeff_G(n[piv], mp, a, b)
            if g == 0.0:
                continue
            partial.append((n[piv] - mp, g, (mp,)))
        for j in range(piv - 1, -1, -1):
            a_j, b_j = self.axis_params(j, tails[j])
            extended = []
            for d, value, chosen in partial:
                if d == -1:
                    table, lo = jacobi.coeff_H, n[j] - 2
                elif d == 0:
                    table, lo = jacobi.coeff_I, n[j] - 1
                else:
                    table, lo = jacobi.coeff_J, n[j]
                for mj in range(max(lo, 0), lo + 3):
                    f = table(n[j], mj, a_j, b_j)
                    if f == 0.0:
                        continue
                    extended.append((d + n[j] - mj, value * f, (mj,) + chosen))
            partial = extended
        suffix = n[piv + 1:]
        return [(chosen + suffix, value) for _, value, chosen in partial]

    def recurrence_matrix(self, i, pad=0):
        """Sparse coordinate-multiplication matrix over the enumeration.

        Args:
            i: coordinate label in 1..K-1.
            pad: build over an enlarged enumeration at degree D + pad, so that
                products of up to `pad` such matrices are exact on the
                degree-D block.

        Returns a CSR matrix; rows/columns follow graded-lex positions of the
        (padded) enumeration. Entries with magnitude below 1e-300 are dropped.

        Builds every row at once, with the entries row_entries gives: each
        slot below the pivot picks one of three outgoing suffix changes, so
        a row has at most 3^i candidate neighbors, and the factors come from
        per-slot tables of the univariate coefficients indexed by
        (degree, suffix degree).
        """
        piv = self._check_coord(i)
        if pad < 0:
            raise ParameterError(f"pad must be >= 0, got {pad}")
        enum = self.enumeration if pad == 0 else BasisEnumeration(self.K, self.D + pad)
        top = enum.D
        U = len(enum)
        n, tails = index_arrays(enum.indices, self.K - 1)
        rows = np.arange(U)
        m = n
        d = np.zeros(U, dtype=np.int64)
        val = np.ones(U)
        # pivot slot: the G band, m - n in {-1, 0, 1}, leaves d = n - m
        g = self._band_table(jacobi.coeff_G, -1, piv, top)
        # slots below: the H/I/J table picked by the incoming d, and an
        # outgoing d in {-1, 0, 1} fixing m_j = n_j + d_in - d_out; that is
        # band position 1 - d_out in every table
        hij = [np.stack([self._band_table(jacobi.coeff_H, -2, j, top),
                         self._band_table(jacobi.coeff_I, -1, j, top),
                         self._band_table(jacobi.coeff_J, 0, j, top)])
               for j in range(piv)]
        for j in range(piv, -1, -1):
            d_out = np.repeat(np.array([1, 0, -1]), len(rows))
            rows, m, d, val = (np.tile(rows, 3), np.tile(m, (3, 1)),
                               np.tile(d, 3), np.tile(val, 3))
            nj, tj = n[rows, j], tails[rows, j]
            if j == piv:
                f = g[nj, tj, 1 - d_out]
            else:
                f = hij[j][d + 1, nj, tj, 1 - d_out]
            m[:, j] = nj + d - d_out
            d = d_out
            val = val * f
        keep = ((np.abs(val) >= ENTRY_FLOOR) & (m.min(axis=1) >= 0)
                & (m.sum(axis=1) <= top))  # drop neighbors beyond the block
        return scipy.sparse.csr_matrix(
            (val[keep], (rows[keep], graded_positions(m[keep]))),
            shape=(U, U), dtype=float)

    def _band_table(self, table, lo, j, top):
        """table(n_j, n_j + lo + k, a, b) for k in 0..2 at axis j.

        Indexed [n_j, t, k] for every degree n_j and suffix degree t with
        n_j + t <= top; the weight exponents depend on t as in axis_params.
        The J table starts at t = 1: a lowering step needs a suffix degree
        to lower. One call per (n_j, k) fills every t, with b as an array.
        Kept: the matrices of all coordinates above slot j read its tables.
        """
        key = (table, lo, j, top)
        if key not in self._band_tables:
            first = 1 if table is jacobi.coeff_J else 0
            a, b = self.axis_params(j, np.arange(top + 1))
            out = self._band_tables[key] = np.zeros((top + 1, top + 1, 3))
            for nj in range(top + 1 - first):
                for k in range(3):
                    out[nj, first:top + 1 - nj, k] = table(
                        nj, nj + lo + k, a, b[first:top + 1 - nj])
        return self._band_tables[key]

    def _check_coord(self, i):
        if not 1 <= i <= self.K - 1:
            raise ParameterError(
                f"coordinate label must be in 1..{self.K - 1}, got {i}")
        return i - 1

