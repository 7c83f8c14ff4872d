"""Multivariate Jacobi polynomials on the simplex and their recurrence matrices.

The basis member with index tuple n = (n_1, ..., n_{K-1}) factorizes in cube
coordinates as

    P_n(x) = prod_j R_{n_j}^{(theta_j, T_j + 2 N_j)}(xi_j) * (1 - xi_j)^{N_j}

where N_j = n_{j+1} + ... + n_{K-1} and T_j = theta_{j+1} + ... + theta_K are
suffix sums. The family is orthogonal under the Dirichlet kernel
prod x_i^(theta_i - 1) with squared norms C_n given by the product of the
univariate norms at the same shifted parameters.
The factors past the first form a member of the (K-1)-allele basis at
theta[1:] (stick-breaking), and the basis is evaluated that way: a table of
the first factor over (degree, suffix degree) times the suffix basis.

Multiplication by a coordinate x_i maps P_n into a sparse combination of
neighbors: a G factor at slot i and one H/I/J factor per slot j < i, selected
by how the suffix degree changes (down/unchanged/up). recurrence_matrix
builds the sparse matrix over a graded enumeration for all rows at once,
gathering the factors from per-slot arrays of the tables, each filled by one
broadcast call over (degree, suffix degree).
"""

import numpy as np
import scipy.sparse

from . import jacobi
from .errors import ParameterError
from .indexing import (BasisEnumeration, graded_positions, tail_sums,
                       total_count)

# Entries smaller than this are dropped from sparse storage (exact zeros).
ENTRY_FLOOR = 1e-300
# eval_prefix_cube gathers about this many values at a time
GATHER_BLOCK = 1 << 16


class MultiJacobiBasis:
    """Basis of multivariate Jacobi polynomials over a graded enumeration.

    Args:
        theta: K positive mutation weights.
        enumeration: BasisEnumeration with matching K.
    """

    def __init__(self, theta, enumeration):
        theta = np.asarray(theta, dtype=float)
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
        self._suffix = None
        self._band_tables = {}
        self._axis0_bands = {}

    def axis_params(self, j, tail_degree):
        """Univariate weight exponents (a, b) at axis j given suffix degree.

        An integer array of suffix degrees gives b as an array.
        """
        return self.theta[j], self.theta_tail[j] + 2 * tail_degree

    # -- evaluation ---------------------------------------------------------

    def eval_prefix_cube(self, xi, count=None):
        """Evaluate the first `count` basis members at cube points.

        Member (n_0, s) is R_{n_0}(xi_0) (1 - xi_0)^|s| P'_s(xi_1, ...), with
        P' the (K-1)-allele basis at theta[1:] (stick-breaking). The first
        factor, tabled over (n_0, |s|), and P', from its own
        eval_prefix_cube, are gathered and multiplied in blocks of members,
        so the product over the axes runs from the last axis inward.

        Returns an array of shape (count,) + xi.shape[:-1].
        """
        xi = np.asarray(xi, dtype=float)
        enum = self.enumeration
        if count is None:
            count = len(enum)
        if count > len(enum):
            raise ParameterError(
                f"requested {count} basis members, enumeration holds {len(enum)}")
        top = int(enum.degrees[:count].max(initial=0))
        if self.K == 2:
            # the members are R_n themselves; on points that rarely share a
            # value, as a K=3 basis passes its suffix, no gather pays
            return self._axis0_R(top, xi[..., 0])[:count, 0]
        n, tails = enum.indices[:count], enum.tails[:count]
        table, pows, spread, suffix, _ = self._split(top, xi)
        # every member starts with R (1 - xi_0)^t: form it once per (n_0, t)
        table *= pows
        second = graded_positions(n[:, 1:])
        out = np.empty((count,) + xi.shape[:-1])
        flat = out.reshape(count, len(spread))
        step = max(1, GATHER_BLOCK // max(len(spread), 1))
        for lo in range(0, count, step):
            block, pick = flat[lo:lo + step], slice(lo, lo + step)
            np.take(table[n[pick, 0], tails[pick, 0]], spread, axis=1,
                    out=block)
            block *= suffix[second[pick]]
        return out

    def sum_prefix_cube(self, weights, xi):
        """weights @ eval_prefix_cube(xi, count), without the basis matrix.

        weights has shape (rows, count), with count = total_count(K, top)
        for some top <= D: whole degree blocks of members. Returns an array
        of shape (rows,) + xi.shape[:-1].

        With the factorization of eval_prefix_cube, for each suffix degree t
        a matrix product with the axis-0 table rows of degree t sums over
        n_0, on the distinct xi_0 only (at most about 2 rows count points
        flops, far fewer on a lattice); the sums, one per suffix tuple s,
        are weighted by P'_s, evaluated once, and added.
        """
        weights = np.asarray(weights, dtype=float)
        xi = np.asarray(xi, dtype=float)
        count = weights.shape[-1]
        n = self.enumeration.indices[:count]
        top = int(self.enumeration.degrees[:count].max(initial=0))
        if count != total_count(self.K, top):
            raise ParameterError(
                f"{count} weights do not fill the degree blocks of the basis")
        table, pows, spread, suffix, bounds = self._split(top, xi)
        rows, npts = len(weights), len(spread)
        # member positions indexed [suffix tuple, n_0]
        pick = np.zeros((bounds[-1], top + 1), dtype=np.int64)
        group = graded_positions(n[:, 1:])
        pick[group, n[:, 0]] = np.arange(count)
        out = np.zeros((rows, npts))
        for t in range(len(pows)):
            block, span = slice(bounds[t], bounds[t + 1]), top + 1 - t
            w = weights[:, pick[block, :span]].reshape(-1, span)
            part = w @ table[:span, t]
            part *= pows[t]
            part = part[:, spread].reshape(rows, block.stop - block.start,
                                           npts)
            out += np.einsum("rsp,sp->rp", part, suffix[block])
        return out.reshape((rows,) + xi.shape[:-1])

    def _split(self, top, xi):
        """The two factors of the members up to degree top at the points xi.

        Returns R_k^(a, b_t) and (1 - xi_0)^t at the distinct xi_0, indexed
        [k, t, value] and [t, value] (t = 0 only at K = 2), each point's
        value position, and the suffix basis P' at the points, its tuples
        of degree t in rows bounds[t]:bounds[t + 1] (at K = 2 one row of
        ones, for the empty tuple).
        """
        naxes = self.K - 1
        flat_xi = xi.reshape(-1, naxes)
        if naxes == 1:
            bounds, suffix = [0, 1], np.ones((1, len(flat_xi)))
        else:
            bounds = [0] + [total_count(naxes, t) for t in range(top + 1)]
            if self._suffix is None:
                self._suffix = MultiJacobiBasis(
                    self.theta[1:], BasisEnumeration(naxes, self.D))
            suffix = self._suffix.eval_prefix_cube(flat_xi[:, 1:],
                                                   count=bounds[-1])
        # a lattice repeats xi_0 across its rows, so axis 0 runs on the
        # distinct values, spread to the points after
        x0, spread = np.unique(flat_xi[:, 0], return_inverse=True)
        table = self._axis0_R(top, x0)
        pows = np.vander(1.0 - x0, len(bounds) - 1, increasing=True).T
        return table, pows, spread, suffix, bounds

    def _axis0_R(self, top, x0):
        """R_k^(a, b_t)(x0) of axis 0, indexed [k, t, ...] for k <= top and
        suffix degrees t <= top (t = 0 only at K = 2), with the recurrence
        band kept per top and shape of x0."""
        a, b = self.axis_params(0, np.arange(top + 1 if self.K > 2 else 1))
        b = b.reshape((-1,) + (1,) * np.ndim(x0))
        key = top, b.ndim
        if key not in self._axis0_bands:
            self._axis0_bands[key] = jacobi.recurrence_band(top, a, b)
        return jacobi.eval_R_all(top, a, b, x0, band=self._axis0_bands[key])

    # -- norms ---------------------------------------------------------------

    def log_norm_C(self, n):
        """Log of the squared norm C_n under the Dirichlet kernel.

        Unused by the program (log_norms_all fills every member at once);
        kept because bench/spans.py wraps it by name.
        """
        tails = tail_sums(n)
        total = 0.0
        for j in range(self.K - 1):
            a, b = self.axis_params(j, tails[j])
            total = total + jacobi.log_norm_c(n[j], a, b)
        return total

    def log_norms_all(self):
        """Vector of log C_n over the whole enumeration (cached).

        Equals log_norm_C member by member: the per-axis terms come from one
        log_norm_c table per axis, indexed [degree, suffix degree] and filled
        by one call, and are summed over the axes in the same order.
        """
        if self._log_norms is None:
            n, tails = self.enumeration.indices, self.enumeration.tails
            total = np.zeros(len(n))
            for j in range(self.K - 1):
                # the last axis has no suffix
                nj, t = _triangle(self.D, 0, self.D if j < self.K - 2 else 0)
                table = np.zeros((self.D + 1, t.max() + 1))
                table[nj, t] = jacobi.log_norm_c(nj, *self.axis_params(j, t))
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

        Unused by the program (recurrence_matrix builds every row at once);
        kept because bench/spans.py wraps it by name.
        """
        piv = self._check_coord(i)
        tails = tail_sums(n)
        a, b = self.axis_params(piv, tails[piv])
        # partial expansions (d, value, chosen degrees of slots j+1..piv),
        # extended one slot at a time in lexicographic order of the choices
        partial = [(n[piv] - mp, g, (mp,))
                   for mp, g in _band_entries(jacobi.coeff_G, n[piv], -1, a, b)]
        for j in range(piv - 1, -1, -1):
            a_j, b_j = self.axis_params(j, tails[j])
            # the band of the table each incoming d selects, built on first
            # use: J needs a suffix degree to lower, which d = 1 implies
            bands = {}
            extended = []
            for d, value, chosen in partial:
                if d not in bands:
                    table, lo = ((jacobi.coeff_H, -2), (jacobi.coeff_I, -1),
                                 (jacobi.coeff_J, 0))[d + 1]
                    bands[d] = _band_entries(table, n[j], lo, a_j, b_j)
                for mj, f in bands[d]:
                    extended.append((d + n[j] - mj, value * f, (mj,) + chosen))
            partial = extended
        suffix = n[piv + 1:]
        return [(chosen + suffix, value) for _, value, chosen in partial]

    def recurrence_matrix(self, i):
        """Sparse coordinate-multiplication matrix over the enumeration.

        Args:
            i: coordinate label in 1..K-1.

        Returns a CSR matrix; rows/columns follow graded-lex positions of the
        enumeration. Entries with magnitude below 1e-300 are dropped, and so
        are neighbors beyond degree D: products of up to p such matrices are
        exact on the block of degree D - p.

        Builds every row at once, with the entries row_entries gives: each
        slot below the pivot picks one of three outgoing suffix changes, so
        a row has at most 3^i candidate neighbors, and the factors come from
        per-slot tables of the univariate coefficients indexed by
        (degree, suffix degree).
        """
        piv = self._check_coord(i)
        U = len(self.enumeration)
        n, tails = self.enumeration.indices, self.enumeration.tails
        rows = np.arange(U)
        m = n
        d = np.zeros(U, dtype=np.int64)
        val = np.ones(U)
        # pivot slot: the G band, m - n in {-1, 0, 1}, leaves d = n - m
        g = self._band_table(jacobi.coeff_G, -1, piv)
        # slots below: the H/I/J table picked by the incoming d, and an
        # outgoing d in {-1, 0, 1} fixing m_j = n_j + d_in - d_out; that is
        # band position 1 - d_out in every table
        hij = [np.stack([self._band_table(jacobi.coeff_H, -2, j),
                         self._band_table(jacobi.coeff_I, -1, j),
                         self._band_table(jacobi.coeff_J, 0, j)])
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
                & (m.sum(axis=1) <= self.D))  # drop neighbors beyond the block
        return scipy.sparse.csr_matrix(
            (val[keep], (rows[keep], graded_positions(m[keep]))),
            shape=(U, U), dtype=float)

    def _band_table(self, table, lo, j):
        """table(n_j, n_j + lo + k, a, b) for k in 0..2 at axis j.

        Indexed [n_j, t, k] for every degree n_j and suffix degree t with
        n_j + t <= D; the weight exponents depend on t as in axis_params.
        The J table starts at t = 1: a lowering step needs a suffix degree
        to lower. One call fills the table. Kept: the matrices of all
        coordinates above slot j read its tables.
        """
        key = (table, lo, j)
        if key not in self._band_tables:
            nj, t = _triangle(self.D, 1 if table is jacobi.coeff_J else 0,
                              self.D)
            a, b = self.axis_params(j, t[:, None])
            out = self._band_tables[key] = np.zeros((self.D + 1, self.D + 1, 3))
            out[nj, t] = table(nj[:, None], nj[:, None] + lo + np.arange(3),
                               a, b)
        return self._band_tables[key]

    def _check_coord(self, i):
        if not 1 <= i <= self.K - 1:
            raise ParameterError(
                f"coordinate label must be in 1..{self.K - 1}, got {i}")
        return i - 1


def _band_entries(table, n, lo, a, b):
    """(m, table(n, m, a, b)) for m in n + lo .. n + lo + 2, zeros dropped.

    Only row_entries calls it; kept with it for bench/spans.py.
    """
    m = n + lo + np.arange(3)
    return [(mj, f) for mj, f in zip(m.tolist(), table(n, m, a, b).tolist())
            if f != 0.0]


def _triangle(top, t_lo, t_hi):
    """Degrees n and suffix degrees t with n + t <= top and t_lo <= t <= t_hi."""
    n, t = np.nonzero(np.add.outer(np.arange(top + 1), np.arange(t_hi + 1))
                      <= top)
    keep = t >= t_lo
    return n[keep], t[keep]
