"""Multivariate Jacobi basis: evaluation, norms, coordinate recurrence.

Recurrence rows are verified two independent ways: once against quadrature
projections of x_i * P_n onto P_m, and once pointwise (the expansion must
reproduce x_i * P_n at random simplex points).
"""

import itertools
import math

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wfspectral import basis as basis_mod
from wfspectral import jacobi, simplex
from wfspectral.basis import MultiJacobiBasis
from wfspectral.errors import ParameterError
from wfspectral.indexing import BasisEnumeration, tail_sums, total_count
from wfspectral.oracles import gauss_jacobi_01


def make_basis(theta, D):
    return MultiJacobiBasis(np.asarray(theta), BasisEnumeration(len(theta), D))


def cube_quadrature(theta, nodes_per_axis=40):
    """Nodes and weights on the cube so that sums approximate integrals
    against the Dirichlet kernel prod x_i^(theta_i - 1) on the simplex."""
    K = len(theta)
    tails = [sum(theta[j + 1:]) for j in range(K - 1)]
    axes = [gauss_jacobi_01(nodes_per_axis, theta[j], tails[j])
            for j in range(K - 1)]
    grids = np.meshgrid(*[a[0] for a in axes], indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    w = np.ones(pts.shape[0])
    for j, (_, wj) in enumerate(axes):
        w = w * np.broadcast_to(
            wj.reshape((1,) * j + (-1,) + (1,) * (K - 2 - j)),
            [nodes_per_axis] * (K - 1)).ravel()
    return pts, w


def test_constant_member_is_one():
    basis = make_basis([0.3, 0.4, 0.3], 4)
    rng = np.random.default_rng(0)
    x = rng.dirichlet([1, 1, 1], size=20)[:, :2]
    assert np.all(basis.eval_P((0, 0), x) == 1.0)


def test_two_allele_case_reduces_to_univariate():
    basis = make_basis([0.7, 1.3], 6)
    xs = np.linspace(0.05, 0.95, 9)
    for n in range(5):
        got = basis.eval_P((n,), xs.reshape(-1, 1))
        want = jacobi.eval_R_all(n, 0.7, 1.3, xs)[n]
        assert np.allclose(got, want, rtol=1e-13)


def test_eval_matches_explicit_product():
    theta = np.array([0.5, 1.5, 2.0, 1.0])
    basis = make_basis(theta, 6)
    rng = np.random.default_rng(1)
    x = rng.dirichlet(np.ones(4), size=30)[:, :3]
    xi = simplex.to_cube(x)
    for n in [(1, 0, 2), (2, 1, 0), (0, 3, 1)]:
        tails = tail_sums(n)
        want = np.ones(len(x))
        for j in range(3):
            a = theta[j]
            b = theta[j + 1:].sum() + 2 * tails[j]
            want = want * jacobi.eval_R_all(n[j], a, b, xi[:, j])[n[j]]
            want = want * (1.0 - xi[:, j]) ** tails[j]
        got = basis.eval_P(n, x)
        assert np.allclose(got, want, rtol=1e-12)


def test_eval_prefix_matches_single_eval():
    basis = make_basis([0.01, 0.02, 0.03], 5)
    rng = np.random.default_rng(2)
    x = rng.dirichlet(np.ones(3), size=40)[:, :2]
    xi = simplex.to_cube(x)
    block = basis.eval_prefix_cube(xi)
    for pos, n in enumerate(basis.enumeration.indices):
        assert np.allclose(block[pos], basis.eval_P_cube(n, xi), rtol=1e-12,
                           atol=1e-15)


def member_loop_eval_prefix(basis, xi, count):
    """eval_prefix_cube one member at a time, from per-(axis, suffix degree)
    tables of R over all degrees up to D."""
    pts = xi.shape[:-1]
    r_tables = [dict() for _ in range(basis.K - 1)]
    pow_tables = []
    for j in range(basis.K - 1):
        pows = np.ones((basis.D + 1,) + pts)
        for e in range(1, basis.D + 1):
            pows[e] = pows[e - 1] * (1.0 - xi[..., j])
        pow_tables.append(pows)
    out = np.empty((count,) + pts)
    for pos, n in enumerate(basis.enumeration.indices[:count]):
        tails = tail_sums(n)
        val = np.ones(pts)
        # from the last axis inward, as the suffix bases nest
        for j in reversed(range(basis.K - 1)):
            tab = r_tables[j].get(tails[j])
            if tab is None:
                a, b = basis.axis_params(j, tails[j])
                tab = jacobi.eval_R_all(basis.D - tails[j], a, b, xi[..., j])
                r_tables[j][tails[j]] = tab
            factor = tab[n[j]]
            if tails[j]:
                factor = factor * pow_tables[j][tails[j]]
            val = factor * val
        out[pos] = val
    return out


@pytest.mark.parametrize("gather", [basis_mod.GATHER_BLOCK, 40])
@pytest.mark.parametrize("theta", [[0.7, 1.3], [0.01, 0.02, 0.03],
                                   [0.5, 1.5, 2.0, 1.0],
                                   [0.3, 0.4, 0.3, 0.5, 1.1]])
def test_eval_prefix_matches_members_to_rounding(theta, gather, monkeypatch):
    # a small gather block splits the members over many blocks
    monkeypatch.setattr(basis_mod, "GATHER_BLOCK", gather)
    K, D = len(theta), 8
    basis = make_basis(theta, D)
    rng = np.random.default_rng(K)
    xi = simplex.to_cube(rng.dirichlet(np.ones(K), size=(3, 5))[..., :K - 1])
    count = total_count(K, D) - 1   # stops short of the last member
    got = basis.eval_prefix_cube(xi, count=count)
    assert got.shape == (count, 3, 5)
    # the same products in the same order
    assert np.array_equal(got, member_loop_eval_prefix(basis, xi, count))
    for pos, n in enumerate(basis.enumeration.indices[:count]):
        want = basis.eval_P_cube(n, xi)
        assert np.all(np.abs(got[pos] - want) <= 1e-14 * np.abs(want))
    single = basis.eval_prefix_cube(xi[1, 2])
    assert single.shape == (len(basis.enumeration),)
    assert np.array_equal(single[:count], got[:, 1, 2])


@st.composite
def weights_and_points(draw, K, count):
    """Weight rows for `count` members and simplex points, drawn whole.

    Points are nonnegative draws normalized to sum 1, so vertices, edges and
    faces turn up; a batch may be empty.
    """
    rows = draw(st.integers(1, 4))
    npts = draw(st.integers(0, 12))
    coord = st.floats(0.0, 1.0).filter(lambda v: v == 0.0 or v > 1e-3)
    raw = draw(hnp.arrays(float, (npts, K), elements=coord))
    raw[raw.sum(axis=1) == 0.0, 0] = 1.0
    pts = raw / raw.sum(axis=1, keepdims=True)
    w = draw(hnp.arrays(float, (rows, count),
                        elements=st.floats(-1e3, 1e3, width=64)))
    return w, pts[:, :K - 1]


@pytest.mark.parametrize("theta, D, top", [
    ([0.7, 1.3], 6, 3), ([0.7, 1.3], 6, 6),
    ([0.01, 0.02, 0.03], 6, 4), ([0.01, 0.02, 0.03], 6, 6),
    ([0.5, 1.5, 2.0, 1.0], 5, 3), ([0.5, 1.5, 2.0, 1.0], 5, 5),
    ([0.3, 0.4, 0.3, 0.5, 1.1], 4, 2), ([0.3, 0.4, 0.3, 0.5, 1.1], 4, 4)])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_sum_prefix_matches_weighted_eval_prefix(theta, D, top, data):
    K = len(theta)
    basis = make_basis(theta, D)
    count = total_count(K, top)
    w, pts = data.draw(weights_and_points(K, count))
    # repeated points share their first cube coordinate, as a lattice does
    pts = np.concatenate([pts, pts[:3]])
    xi = simplex.to_cube(pts)
    got = basis.sum_prefix_cube(w, xi)
    P = basis.eval_prefix_cube(xi, count=count)
    assert got.shape == (len(w), len(pts))
    scale = np.abs(w) @ np.abs(P)
    # below the smallest normal double, rounding errors are absolute
    tol = 1e-13 * scale + np.finfo(float).tiny
    assert np.all(np.abs(got - w @ P) <= tol)
    # a batch of points keeps its shape; an empty one gives empty sums
    assert basis.sum_prefix_cube(w, xi[None]).shape == (len(w), 1, len(pts))
    assert basis.sum_prefix_cube(w, xi[:0]).shape == (len(w), 0)


def test_sum_prefix_needs_whole_degree_blocks():
    basis = make_basis([0.01, 0.02, 0.03], 6)
    xi = np.array([[0.3, 0.4]])
    for count in (0, total_count(3, 2) + 1, total_count(3, 7)):
        with pytest.raises(ParameterError):
            basis.sum_prefix_cube(np.ones((1, count)), xi)


def test_norm_pins():
    basis = make_basis([1.0, 1.0, 1.0], 3)
    # constant member, uniform weights: C_0 = vol factor of the kernel
    assert math.exp(basis.log_norm_C((0, 0))) == pytest.approx(0.5, rel=1e-14)


def test_two_allele_norm_reduces_to_univariate():
    basis = make_basis([0.7, 1.3], 6)
    for n in range(6):
        assert math.exp(basis.log_norm_C((n,))) == pytest.approx(
            math.exp(jacobi.log_norm_c(n, 0.7, 1.3)), rel=1e-13)


def test_norm_matches_quadrature():
    theta = [0.5, 1.5, 1.0]
    basis = make_basis(theta, 5)
    pts, w = cube_quadrature(theta)
    for n in [(0, 0), (1, 0), (0, 1), (2, 1), (3, 2), (5, 0)]:
        vals = basis.eval_P_cube(n, pts)
        got = float(np.sum(w * vals * vals))
        assert got == pytest.approx(math.exp(basis.log_norm_C(n)), rel=1e-5)


def test_log_norms_all_consistent():
    basis = make_basis([0.3, 0.4, 0.3], 4)
    lg = basis.log_norms_all()
    for pos, n in enumerate(basis.enumeration.indices):
        assert lg[pos] == pytest.approx(float(basis.log_norm_C(n)), rel=1e-13)


@settings(max_examples=5, deadline=None)
@given(theta=st.lists(st.floats(0.005, 5.0), min_size=5, max_size=5))
def test_log_norms_all_equal_member_norms_exactly(theta):
    for K in (2, 3, 4, 5):
        basis = make_basis(theta[:K], 12)
        want = [basis.log_norm_C(n) for n in basis.enumeration.indices]
        assert np.array_equal(basis.log_norms_all(), want)


def test_orthogonality_by_quadrature():
    theta = [0.5, 1.5, 1.0]
    basis = make_basis(theta, 3)
    pts, w = cube_quadrature(theta)
    members = basis.enumeration.indices
    vals = np.stack([basis.eval_P_cube(n, pts) for n in members])
    gram = (vals * w) @ vals.T
    for p in range(len(members)):
        for q in range(len(members)):
            if p == q:
                assert gram[p, q] == pytest.approx(
                    math.exp(basis.log_norm_C(members[p])), rel=1e-6)
            else:
                scale = math.sqrt(math.exp(basis.log_norm_C(members[p]))
                                  * math.exp(basis.log_norm_C(members[q])))
                assert abs(gram[p, q]) <= 1e-8 * scale


def recurrence_entry(basis, n, m, i):
    """Coefficient of P_m in the expansion of x_i * P_n, from the scalar
    tables; the entry-by-entry oracle for row_entries.

    Args:
        n, m: index tuples.
        i: coordinate label, 1-based in 1..K-1.

    Returns exact 0.0 when m is outside the admissible neighbor set of n.
    """
    piv = basis._check_coord(i)
    if any(m[j] != n[j] for j in range(piv + 1, basis.K - 1)):
        return 0.0
    if any(v < 0 for v in m):
        return 0.0
    tails_n = tail_sums(n)
    tails_m = tail_sums(m)
    a, b = basis.axis_params(piv, tails_n[piv])
    val = jacobi.coeff_G(n[piv], m[piv], a, b)
    for j in range(piv - 1, -1, -1):
        if val == 0.0:
            return 0.0
        d = tails_n[j] - tails_m[j]
        a, b = basis.axis_params(j, tails_n[j])
        if d == -1:
            val = val * jacobi.coeff_H(n[j], m[j], a, b)
        elif d == 0:
            val = val * jacobi.coeff_I(n[j], m[j], a, b)
        elif d == 1:
            val = val * jacobi.coeff_J(n[j], m[j], a, b)
        else:
            return 0.0
    return val


def test_recurrence_entry_two_allele_reduces_to_G():
    basis = make_basis([0.7, 1.3], 8)
    for n in range(6):
        for m in range(max(0, n - 1), n + 2):
            assert recurrence_entry(basis, (n,), (m,), 1) == pytest.approx(
                jacobi.coeff_G(n, m, 0.7, 1.3), rel=1e-13)


def test_recurrence_row_reconstructs_coordinate_times_P():
    theta = np.array([0.5, 1.5, 2.0])
    basis = make_basis(theta, 7)
    rng = np.random.default_rng(5)
    x = rng.dirichlet(np.ones(3), size=50)[:, :2]
    for i in (1, 2):
        for n in [(0, 0), (1, 2), (3, 1), (0, 4), (2, 2)]:
            lhs = x[:, i - 1] * basis.eval_P(n, x)
            rhs = np.zeros(len(x))
            for m, v in basis.row_entries(n, i):
                rhs += float(v) * basis.eval_P(m, x)
            scale = np.max(np.abs(lhs)) or 1.0
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


def test_recurrence_row_n_zero_reconstructs_coordinate():
    basis = make_basis([0.3, 0.4, 0.3], 6)
    rng = np.random.default_rng(6)
    x = rng.dirichlet(np.ones(3), size=50)[:, :2]
    for i in (1, 2):
        rhs = np.zeros(len(x))
        for m, v in basis.row_entries((0, 0), i):
            rhs += float(v) * basis.eval_P(m, x)
        assert np.max(np.abs(rhs - x[:, i - 1])) <= 1e-13


def test_recurrence_entry_matches_projection():
    theta = [0.5, 1.5, 1.0]
    basis = make_basis(theta, 4)
    pts, w = cube_quadrature(theta)
    xs = simplex.from_cube(pts)
    members = [n for n in basis.enumeration.indices if sum(n) <= 3]
    for i in (1, 2):
        for n in members:
            lhs = xs[:, i - 1] * basis.eval_P_cube(n, pts)
            for m in basis.enumeration.indices:
                want = float(np.sum(w * lhs * basis.eval_P_cube(m, pts)))
                want /= math.exp(basis.log_norm_C(m))
                got = float(recurrence_entry(basis, n, m, i))
                assert got == pytest.approx(want, rel=1e-6, abs=1e-9)


def test_row_entries_agree_with_entry_lookup():
    basis = make_basis([0.01, 0.02, 0.03], 6)
    for i in (1, 2):
        for n in [(0, 0), (2, 1), (1, 3), (4, 0)]:
            row = dict(basis.row_entries(n, i))
            assert all(v != 0.0 for v in row.values())
            for m, v in row.items():
                assert float(recurrence_entry(basis, n, m, i)) == pytest.approx(
                    float(v), rel=1e-13)
            # nothing outside the returned support
            for m in basis.enumeration.indices:
                if m not in row and sum(m) <= basis.D - 1:
                    assert recurrence_entry(basis, n, m, i) == 0.0


def test_recurrence_bandwidth():
    basis = make_basis([0.3, 0.4, 0.3], 6)
    for i in (1, 2):
        for n in [(2, 1), (0, 3), (3, 3)]:
            for m, _ in basis.row_entries(n, i):
                assert abs(sum(m) - sum(n)) <= 1


def test_recurrence_row_sparsity_bound():
    basis = make_basis([0.5, 1.5, 2.0, 1.0], 6)
    for i in (1, 2, 3):
        for n in [(1, 1, 1), (2, 0, 2), (0, 3, 1)]:
            count = len(basis.row_entries(n, i))
            assert count <= 3 ** i * 3


def test_recurrence_matrices_commute():
    pad = 2
    basis = make_basis([0.5, 1.5, 2.0], 8 + pad)
    G1 = basis.recurrence_matrix(1)
    G2 = basis.recurrence_matrix(2)
    U = len(BasisEnumeration(3, 8))
    A = (G1 @ G2).toarray()[:U, :U]
    B = (G2 @ G1).toarray()[:U, :U]
    scale = np.max(np.abs(A)) or 1.0
    assert np.max(np.abs(A - B)) <= 1e-12 * scale


def matrix_from_rows(basis, i):
    """recurrence_matrix rebuilt entry by entry from the scalar row walk."""
    enum = basis.enumeration
    rows, cols, vals = [], [], []
    for pos, n in enumerate(enum.indices):
        for m, v in basis.row_entries(n, i):
            if m in enum.position:
                rows.append(pos)
                cols.append(enum.position[m])
                vals.append(float(v))
    return scipy.sparse.csr_matrix((vals, (rows, cols)),
                                   shape=(len(enum), len(enum)))


@settings(max_examples=10, deadline=None)
@given(theta=st.lists(st.floats(0.005, 5.0), min_size=5, max_size=5))
def test_recurrence_matrix_entries_match_rows(theta):
    for K, D in [(2, 10), (3, 7), (4, 5), (5, 4)]:
        for pad in (0, 4):
            basis = make_basis(theta[:K], D + pad)
            for i in range(1, K):
                got = basis.recurrence_matrix(i)
                want = matrix_from_rows(basis, i)
                for mat in (got, want):
                    mat.sum_duplicates()   # sorted column indices per row
                assert np.array_equal(got.indptr, want.indptr)
                assert np.array_equal(got.indices, want.indices)
                assert np.all(np.abs(got.data - want.data)
                              <= 1e-15 * np.abs(want.data))


def band_table_from_scalars(basis, table, lo, j, top):
    """_band_table filled entry by entry from scalar table calls."""
    out = np.zeros((top + 1, top + 1, 3))
    for t in range(1 if table is jacobi.coeff_J else 0, top + 1):
        a, b = basis.axis_params(j, t)
        for nj in range(top + 1 - t):
            for k in range(3):
                out[nj, t, k] = table(nj, nj + lo + k, a, b)
    return out


@settings(max_examples=10, deadline=None)
@given(theta=st.lists(st.floats(0.005, 5.0), min_size=5, max_size=5))
def test_band_tables_equal_scalar_calls(theta):
    tables = [(jacobi.coeff_G, -1), (jacobi.coeff_H, -2), (jacobi.coeff_I, -1),
              (jacobi.coeff_J, 0)]
    for K, D in [(2, 10), (3, 7), (4, 5), (5, 4)]:
        basis = make_basis(theta[:K], D + 4)
        for j in range(K - 1):
            for table, lo in tables:
                got = basis._band_table(table, lo, j)
                want = band_table_from_scalars(basis, table, lo, j, D + 4)
                assert np.array_equal(got, want)


def test_entries_finite_across_theta_scales():
    for scale in (1e-3, 1.0, 1e3):
        theta = np.array([1.1, 2.3, 0.7]) * scale
        basis = make_basis(theta, 5)
        for i in (1, 2):
            for n in [(0, 0), (2, 1), (1, 3)]:
                for _, v in basis.row_entries(n, i):
                    assert math.isfinite(float(v))
        assert np.all(np.isfinite(basis.log_norms_all()))


def test_coordinate_label_validation():
    basis = make_basis([0.3, 0.4, 0.3], 3)
    with pytest.raises(ParameterError):
        recurrence_entry(basis, (0, 0), (0, 0), 0)
    with pytest.raises(ParameterError):
        recurrence_entry(basis, (0, 0), (0, 0), 3)
    with pytest.raises(ParameterError):
        MultiJacobiBasis(np.array([0.5, -0.1, 1.0]),
                         BasisEnumeration(3, 2))
    with pytest.raises(ParameterError):
        MultiJacobiBasis(np.array([0.5, 0.5]), BasisEnumeration(3, 2))
    with pytest.raises(ParameterError):
        basis.eval_prefix_cube(np.array([[0.2, 0.2]]), count=999)
