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
from .indexing import BasisEnumeration, graded_positions, tail_sums
from .simplex import to_cube

# Entries smaller than this are dropped from sparse storage (exact zeros).
ENTRY_FLOOR = 1e-300


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

    def axis_params(self, j, tail_degree):
        """Univariate weight exponents (a, b) at axis j given suffix degree."""
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

        Shares the per-axis recurrence tables across indices, so the cost is
        one univariate table per (axis, suffix-degree) pair plus one product
        per basis member.

        Returns an array of shape (count,) + xi.shape[:-1].
        """
        xi = np.asarray(xi, dtype=float)
        enum = self.enumeration
        if count is None:
            count = len(enum)
        if count > len(enum):
            raise ParameterError(
                f"requested {count} basis members, enumeration holds {len(enum)}")
        pts = xi.shape[:-1]
        naxes = self.K - 1
        r_tables = [dict() for _ in range(naxes)]
        pow_tables = []
        for j in range(naxes):
            pows = np.ones((self.D + 1,) + pts)
            base = 1.0 - xi[..., j]
            for e in range(1, self.D + 1):
                pows[e] = pows[e - 1] * base
            pow_tables.append(pows)
        out = np.empty((count,) + pts)
        for pos in range(count):
            n = enum.indices[pos]
            tails = tail_sums(n)
            val = np.ones(pts)
            for j in range(naxes):
                tab = r_tables[j].get(tails[j])
                if tab is None:
                    a, b = self.axis_params(j, tails[j])
                    tab = jacobi.eval_R_all(self.D - tails[j], a, b, xi[..., j])
                    r_tables[j][tails[j]] = tab
                val = val * tab[n[j]]
                if tails[j]:
                    val = val * pow_tables[j][tails[j]]
            out[pos] = val
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
        """Vector of log C_n over the whole enumeration (cached, float path)."""
        if self._log_norms is None:
            self._log_norms = np.array(
                [float(self.log_norm_C(n)) for n in self.enumeration.indices])
        return self._log_norms

    # -- coordinate-multiplication recurrence --------------------------------

    def recurrence_entry(self, n, m, i):
        """Coefficient of P_m in the expansion of x_i * P_n.

        Args:
            n, m: index tuples.
            i: coordinate label, 1-based in 1..K-1.

        Returns exact 0.0 when m is outside the admissible neighbor set of n.
        """
        piv = self._check_coord(i)
        if any(m[j] != n[j] for j in range(piv + 1, self.K - 1)):
            return 0.0
        if any(v < 0 for v in m):
            return 0.0
        tails_n = tail_sums(n)
        tails_m = tail_sums(m)
        a, b = self.axis_params(piv, tails_n[piv])
        val = jacobi.coeff_G(n[piv], m[piv], a, b)
        for j in range(piv - 1, -1, -1):
            if val == 0.0:
                return 0.0
            d = tails_n[j] - tails_m[j]
            a, b = self.axis_params(j, tails_n[j])
            if d == -1:
                val = val * jacobi.coeff_H(n[j], m[j], a, b)
            elif d == 0:
                val = val * jacobi.coeff_I(n[j], m[j], a, b)
            elif d == 1:
                val = val * jacobi.coeff_J(n[j], m[j], a, b)
            else:
                return 0.0
        return val

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
        n = np.array(enum.indices, dtype=np.int64).reshape(U, self.K - 1)
        tails = np.cumsum(n[:, ::-1], axis=1)[:, ::-1] - n
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
        to lower.
        """
        out = np.zeros((top + 1, top + 1, 3))
        for t in range(1 if table is jacobi.coeff_J else 0, top + 1):
            a, b = self.axis_params(j, t)
            for nj in range(top + 1 - t):
                for k in range(3):
                    out[nj, t, k] = table(nj, nj + lo + k, a, b)
        return out

    def _check_coord(self, i):
        if not 1 <= i <= self.K - 1:
            raise ParameterError(
                f"coordinate label must be in 1..{self.K - 1}, got {i}")
        return i - 1

