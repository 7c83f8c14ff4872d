"""Multivariate Jacobi basis: evaluation, norms, coordinate recurrence.

The program's evaluator, norms, band tables and recurrence matrices are
compared with the per-entry references of tests/reference.py, bit for bit.
The reference recurrence is verified two independent ways: once against
quadrature projections of x_i * P_n onto P_m, and once pointwise (the
expansion must reproduce x_i * P_n at random simplex points).
"""

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

import reference


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
    assert np.all(basis.eval_prefix_cube(simplex.to_cube(x), count=1) == 1.0)


def test_two_allele_case_reduces_to_univariate():
    basis = make_basis([0.7, 1.3], 6)
    xs = np.linspace(0.05, 0.95, 9)
    got = basis.eval_prefix_cube(xs.reshape(-1, 1), count=5)
    for n in range(5):
        assert np.array_equal(got[n], reference.eval_R(n, 0.7, 1.3, xs))


def test_eval_matches_explicit_product():
    theta = [0.5, 1.5, 2.0, 1.0]
    basis = make_basis(theta, 6)
    rng = np.random.default_rng(1)
    x = rng.dirichlet(np.ones(4), size=30)[:, :3]
    block = basis.eval_prefix_cube(simplex.to_cube(x))
    for n in [(1, 0, 2), (2, 1, 0), (0, 3, 1)]:
        got = block[reference.positions(basis.K, basis.D)[n]]
        assert np.allclose(got, reference.eval_P(theta, n, x), rtol=1e-12)


def test_eval_prefix_matches_single_eval():
    theta = [0.01, 0.02, 0.03]
    basis = make_basis(theta, 5)
    rng = np.random.default_rng(2)
    x = rng.dirichlet(np.ones(3), size=40)[:, :2]
    xi = simplex.to_cube(x)
    block = basis.eval_prefix_cube(xi)
    for pos, n in enumerate(reference.enumeration(basis.K, basis.D)):
        assert np.array_equal(block[pos], reference.eval_P_cube(theta, n, xi))


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
    for pos, n in enumerate(reference.enumeration(K, D)[:count]):
        assert np.array_equal(got[pos], reference.eval_P_cube(theta, n, xi))
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
    assert math.exp(basis.log_norms_all()[0]) == pytest.approx(0.5, rel=1e-14)


def test_two_allele_norm_reduces_to_univariate():
    basis = make_basis([0.7, 1.3], 6)
    for n in range(6):
        assert math.exp(basis.log_norms_all()[n]) == pytest.approx(
            math.exp(jacobi.log_norm_c(n, 0.7, 1.3)), rel=1e-13)


def test_norm_matches_quadrature():
    theta = [0.5, 1.5, 1.0]
    basis = make_basis(theta, 5)
    pts, w = cube_quadrature(theta)
    vals = basis.eval_prefix_cube(pts)
    lg = basis.log_norms_all()
    for n in [(0, 0), (1, 0), (0, 1), (2, 1), (3, 2), (5, 0)]:
        pos = reference.positions(basis.K, basis.D)[n]
        got = float(np.sum(w * vals[pos] * vals[pos]))
        assert got == pytest.approx(math.exp(lg[pos]), rel=1e-5)


def test_log_norms_all_consistent():
    theta = [0.3, 0.4, 0.3]
    lg = make_basis(theta, 4).log_norms_all()
    for pos, n in enumerate(reference.enumeration(3, 4)):
        assert lg[pos] == pytest.approx(reference.log_norm_C(theta, n),
                                        rel=1e-13)


@settings(max_examples=5, deadline=None)
@given(theta=st.lists(st.floats(0.005, 5.0), min_size=5, max_size=5))
def test_log_norms_all_equal_member_norms_exactly(theta):
    for K in (2, 3, 4, 5):
        basis = make_basis(theta[:K], 12)
        want = [reference.log_norm_C(theta[:K], n)
                for n in reference.enumeration(basis.K, basis.D)]
        assert np.array_equal(basis.log_norms_all(), want)


def test_orthogonality_by_quadrature():
    theta = [0.5, 1.5, 1.0]
    basis = make_basis(theta, 3)
    pts, w = cube_quadrature(theta)
    vals = basis.eval_prefix_cube(pts)
    gram = (vals * w) @ vals.T
    norms = np.exp(basis.log_norms_all())
    for p in range(len(norms)):
        for q in range(len(norms)):
            if p == q:
                assert gram[p, q] == pytest.approx(norms[p], rel=1e-6)
            else:
                scale = math.sqrt(norms[p] * norms[q])
                assert abs(gram[p, q]) <= 1e-8 * scale


def recurrence_entry(theta, n, m, i):
    """Coefficient of P_m in the expansion of x_i * P_n, looked up entry by
    entry in the reference tables; a second oracle beside the row walk.

    Args:
        n, m: index tuples.
        i: coordinate label, 1-based in 1..K-1.

    Returns exact 0.0 when m is outside the admissible neighbor set of n.
    """
    piv = i - 1
    if any(m[j] != n[j] for j in range(piv + 1, len(n))):
        return 0.0
    if any(v < 0 for v in m):
        return 0.0
    tails_n = tail_sums(n)
    tails_m = tail_sums(m)
    a, b = reference.axis_params(theta, piv, tails_n[piv])
    val = reference.coeff_G(n[piv], m[piv], a, b)
    for j in range(piv - 1, -1, -1):
        if val == 0.0:
            return 0.0
        d = tails_n[j] - tails_m[j]
        a, b = reference.axis_params(theta, j, tails_n[j])
        if d == -1:
            val = val * reference.coeff_H(n[j], m[j], a, b)
        elif d == 0:
            val = val * reference.coeff_I(n[j], m[j], a, b)
        elif d == 1:
            val = val * reference.coeff_J(n[j], m[j], a, b)
        else:
            return 0.0
    return val


def test_recurrence_entry_two_allele_reduces_to_G():
    for n in range(6):
        for m in range(max(0, n - 1), n + 2):
            got = recurrence_entry([0.7, 1.3], (n,), (m,), 1)
            assert got == pytest.approx(jacobi.coeff_G(n, m, 0.7, 1.3),
                                        rel=1e-13)


def test_recurrence_row_reconstructs_coordinate_times_P():
    theta = [0.5, 1.5, 2.0]
    rng = np.random.default_rng(5)
    x = rng.dirichlet(np.ones(3), size=50)[:, :2]
    for i in (1, 2):
        for n in [(0, 0), (1, 2), (3, 1), (0, 4), (2, 2)]:
            lhs = x[:, i - 1] * reference.eval_P(theta, n, x)
            rhs = np.zeros(len(x))
            for m, v in reference.row_entries(theta, n, i):
                rhs += v * reference.eval_P(theta, m, x)
            scale = np.max(np.abs(lhs)) or 1.0
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


def test_recurrence_row_n_zero_reconstructs_coordinate():
    theta = [0.3, 0.4, 0.3]
    rng = np.random.default_rng(6)
    x = rng.dirichlet(np.ones(3), size=50)[:, :2]
    for i in (1, 2):
        rhs = np.zeros(len(x))
        for m, v in reference.row_entries(theta, (0, 0), i):
            rhs += v * reference.eval_P(theta, m, x)
        assert np.max(np.abs(rhs - x[:, i - 1])) <= 1e-13


def test_recurrence_entry_matches_projection():
    theta = [0.5, 1.5, 1.0]
    basis = make_basis(theta, 4)
    pts, w = cube_quadrature(theta)
    xs = simplex.from_cube(pts)
    vals = basis.eval_prefix_cube(pts)
    norms = np.exp(basis.log_norms_all())
    every = reference.enumeration(3, 4)
    members = [n for n in every if sum(n) <= 3]
    for i in (1, 2):
        for n in members:
            lhs = xs[:, i - 1] * vals[every.index(n)]
            for q, m in enumerate(every):
                want = float(np.sum(w * lhs * vals[q])) / norms[q]
                got = recurrence_entry(theta, n, m, i)
                assert got == pytest.approx(want, rel=1e-6, abs=1e-9)


def test_row_entries_agree_with_entry_lookup():
    theta = [0.01, 0.02, 0.03]
    D = 6
    for i in (1, 2):
        for n in [(0, 0), (2, 1), (1, 3), (4, 0)]:
            row = dict(reference.row_entries(theta, n, i))
            assert all(v != 0.0 for v in row.values())
            for m, v in row.items():
                assert recurrence_entry(theta, n, m, i) == pytest.approx(
                    v, rel=1e-13)
            # nothing outside the returned support
            for m in reference.enumeration(3, D):
                if m not in row and sum(m) <= D - 1:
                    assert recurrence_entry(theta, n, m, i) == 0.0


def test_recurrence_bandwidth():
    theta = [0.3, 0.4, 0.3]
    for i in (1, 2):
        for n in [(2, 1), (0, 3), (3, 3)]:
            for m, _ in reference.row_entries(theta, n, i):
                assert abs(sum(m) - sum(n)) <= 1


def test_recurrence_row_sparsity_bound():
    theta = [0.5, 1.5, 2.0, 1.0]
    for i in (1, 2, 3):
        for n in [(1, 1, 1), (2, 0, 2), (0, 3, 1)]:
            count = len(reference.row_entries(theta, n, i))
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
    """recurrence_matrix rebuilt entry by entry from the reference row walk."""
    position = reference.positions(basis.K, basis.D)
    rows, cols, vals = [], [], []
    for pos, n in enumerate(position):
        for m, v in reference.row_entries(basis.theta, n, i):
            if m in position:
                rows.append(pos)
                cols.append(position[m])
                vals.append(v)
    return scipy.sparse.csr_matrix((vals, (rows, cols)),
                                   shape=(len(position), len(position)))


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


def band_table_from_scalars(theta, ref, lo, j, top):
    """_band_table filled entry by entry from the reference table ref."""
    out = np.zeros((top + 1, top + 1, 3))
    for t in range(1 if ref is reference.coeff_J else 0, top + 1):
        a, b = reference.axis_params(theta, j, t)
        for nj in range(top + 1 - t):
            for k in range(3):
                out[nj, t, k] = ref(nj, nj + lo + k, a, b)
    return out


@settings(max_examples=10, deadline=None)
@given(theta=st.lists(st.floats(0.005, 5.0), min_size=5, max_size=5))
def test_band_tables_equal_scalar_calls(theta):
    tables = [(jacobi.coeff_G, reference.coeff_G, -1),
              (jacobi.coeff_H, reference.coeff_H, -2),
              (jacobi.coeff_I, reference.coeff_I, -1),
              (jacobi.coeff_J, reference.coeff_J, 0)]
    for K, D in [(2, 10), (3, 7), (4, 5), (5, 4)]:
        basis = make_basis(theta[:K], D + 4)
        for j in range(K - 1):
            for table, ref, lo in tables:
                got = basis._band_table(table, lo, j)
                want = band_table_from_scalars(theta[:K], ref, lo, j, D + 4)
                assert np.array_equal(got, want)


def test_bench_held_walks_equal_the_reference():
    # row_entries, _band_entries and log_norm_C serve only bench/spans.py
    theta = [0.5, 1.5, 2.0, 1.0]
    basis = make_basis(theta, 5)
    for n in reference.enumeration(basis.K, basis.D):
        assert basis.log_norm_C(n) == reference.log_norm_C(theta, n)
        for i in (1, 2, 3):
            assert basis.row_entries(n, i) == reference.row_entries(theta, n,
                                                                    i)
    a, b = reference.axis_params(theta, 0, 2)
    for n in range(4):
        assert (basis_mod._band_entries(jacobi.coeff_J, n, 0, a, b)
                == reference.band_entries(reference.coeff_J, n, 0, a, b))


def test_entries_finite_across_theta_scales():
    for scale in (1e-3, 1.0, 1e3):
        theta = np.array([1.1, 2.3, 0.7]) * scale
        basis = make_basis(theta, 5)
        for i in (1, 2):
            assert np.all(np.isfinite(basis.recurrence_matrix(i).data))
        assert np.all(np.isfinite(basis.log_norms_all()))


def test_coordinate_label_validation():
    basis = make_basis([0.3, 0.4, 0.3], 3)
    with pytest.raises(ParameterError):
        basis.recurrence_matrix(0)
    with pytest.raises(ParameterError):
        basis.recurrence_matrix(3)
    with pytest.raises(ParameterError):
        MultiJacobiBasis(np.array([0.5, -0.1, 1.0]),
                         BasisEnumeration(3, 2))
    with pytest.raises(ParameterError):
        MultiJacobiBasis(np.array([0.5, 0.5]), BasisEnumeration(3, 2))
    with pytest.raises(ParameterError):
        basis.eval_prefix_cube(np.array([[0.2, 0.2]]), count=999)
