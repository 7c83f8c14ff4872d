"""Operator assembly and eigendecomposition.

The assembled matrix is checked against an independently built dense
two-allele reference, against the plain sum of multiset chain products that
the nested assembly reorganizes, against a general nonsymmetric eigensolver,
and against its own defining left-eigenpair residual. The detailed-balance symmetry that
the solver relies on is asserted entrywise, symmetrize is compared with a
five-pass sparse reference, and the guard that detects a broken balance is
exercised with doctored matrices. Strong-selection eigensystems are compared
with 128-bit references frozen from a multiprecision solve. The level-D
operator is checked to be, bit for bit, the leading block of a higher
level's, and the full solve to be C-orthonormal to rounding and scaled in
LAPACK's own array. The one-pair solve is held to a few banded solves, one
band factored in place (the nested level's), a residual at rounding,
agreement in eigenvalue and C_stat with the same solve on the level-D
operator factored whole, and its refusals.
"""

import dataclasses
import gc
import hashlib
import json
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from wfspectral import cli, density, jacobi, model, spectral
from wfspectral.basis import MultiJacobiBasis
from wfspectral.errors import NumericalError, ParameterError
from wfspectral.indexing import BasisEnumeration, count_at_degree, total_count
from wfspectral.model import ModelParams

import reference

SIGMA_K4 = np.array([[12.0, 14.0, 15.0, 10.0],
                     [14.0, 11.0, 13.0, 9.0],
                     [15.0, 13.0, 0.0, 8.0],
                     [10.0, 9.0, 8.0, 0.0]])


def genic(s):
    """Genic (additive) selection, sigma_ij = s_i + s_j: a degree-2
    selection polynomial."""
    s = np.asarray(s, dtype=float)
    return s[:, None] + s[None, :]


EXTENDED_REFERENCE = json.loads(
    (Path(__file__).parent / "extended_reference_d6.json").read_text())


def make(theta, sigma, D, **kw):
    p = ModelParams(theta, sigma)
    return p, spectral.decompose(p, D, **kw)


def assemble(theta, sigma, D, **kw):
    p = ModelParams(theta, sigma)
    basis = MultiJacobiBasis(p.theta, BasisEnumeration(p.K, D))
    return p, spectral.assemble_M(p, basis, **kw)


def test_neutral_matrix_is_diagonal(theta_small):
    p, om = assemble(theta_small, np.zeros((3, 3)), 8)
    M = om.matrix.toarray()
    off = M - np.diag(np.diag(M))
    assert np.max(np.abs(off)) == 0.0
    for pos, n in enumerate(reference.enumeration(3, 8)):
        assert M[pos, pos] == pytest.approx(
            model.neutral_eigenvalue(sum(n), p), rel=1e-14)


def test_neutral_spectrum_multiplicities(theta_small):
    p, sd = make(theta_small, np.zeros((3, 3)), 8)
    values, counts = np.unique(np.round(sd.eigenvalues, 9),
                               return_counts=True)
    for l in range(9):
        lam = model.neutral_eigenvalue(l, p)
        k = np.argmin(np.abs(values - lam))
        assert values[k] == pytest.approx(lam, abs=1e-9)
        assert counts[k] == count_at_degree(3, l)


def dense_two_allele_reference(p, D, pad):
    """Operator matrix built with plain dense arithmetic, no sparse walks."""
    a, b = p.theta
    big = D + pad + 1
    G = np.zeros((big, big))
    for n in range(big):
        for m in range(max(0, n - 1), min(big, n + 2)):
            G[n, m] = jacobi.coeff_G(n, m, a, b)
    by_degree = defaultdict(float)
    for tup, c in model.q_tables(p.theta, p.sigma).items():
        by_degree[len(tup)] += c
    acc = np.zeros_like(G)
    power = np.eye(big)
    for d in range(5):
        acc += by_degree[d] * power
        power = power @ G
    lam = [model.neutral_eigenvalue(l, p) for l in range(D + 1)]
    return acc[:D + 1, :D + 1] + np.diag(lam)


def test_two_allele_matches_dense_reference():
    p = ModelParams([0.01, 0.01], [[3.0, -1.5], [-1.5, 0.0]])
    basis = MultiJacobiBasis(p.theta, BasisEnumeration(2, 12))
    om = spectral.assemble_M(p, basis)
    ref = dense_two_allele_reference(p, 12, 4)
    got = om.matrix.toarray()
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(got - ref)) <= 1e-12 * scale


def test_detailed_balance_entrywise(theta_small, sigma_1):
    p, om = assemble(theta_small, sigma_1, 12)
    M = om.matrix.toarray()
    C = np.exp(om.log_norms)
    lhs = M * C[None, :]
    defect = np.max(np.abs(lhs - lhs.T))
    assert defect <= 1e-9 * np.max(np.abs(lhs))


def test_band_structure(theta_small, sigma_1):
    p, om = assemble(theta_small, sigma_1, 10)
    M = om.matrix.toarray()
    degs = np.array([sum(n) for n in reference.enumeration(3, 10)])
    far = np.abs(degs[:, None] - degs[None, :]) > 4
    assert np.max(np.abs(M[far])) == 0.0


def multiset_weights(p):
    """Selection-polynomial weights summed over sorted multisets, zeros
    dropped."""
    weights = defaultdict(float)
    for tup, c in model.q_coefficients(p).items():
        weights[tuple(sorted(tup))] += c
    return {ms: c for ms, c in weights.items() if c != 0.0}


def summed_multiset_assembly(p, D, pad):
    """The operator as a plain sum over sorted multisets, for reference.

    Each multiset's chain product G_i1 @ ... @ G_iL is formed over the whole
    padded enumeration (prefixes shared through a cache) and added with its
    weight; the leading U x U block is kept at the end.
    """
    enum_pad = BasisEnumeration(p.K, D + pad)
    basis_pad = MultiJacobiBasis(p.theta, enum_pad)
    degrees = np.array([sum(n) for n in reference.enumeration(p.K, D + pad)],
                       dtype=float)
    acc = scipy.sparse.diags(0.5 * degrees * (degrees - 1.0 + p.theta_total),
                             format="csr")
    weights = multiset_weights(p)
    mats = {i: basis_pad.recurrence_matrix(i) for i in range(1, p.K)}
    products = {(): scipy.sparse.identity(len(enum_pad), format="csr")}
    for ms in sorted(weights):
        for k in range(1, len(ms) + 1):
            if ms[:k] not in products:
                products[ms[:k]] = products[ms[:k - 1]] @ mats[ms[k - 1]]
        acc = acc + weights[ms] * products[ms]
    U = total_count(p.K, D)
    return acc.tocsr()[:U, :U].toarray()


@pytest.mark.parametrize("extra", [0, 2, 4])
@pytest.mark.parametrize("theta,sigma,D", [
    ([0.01, 0.02], [[3.0, -1.5], [-1.5, 0.0]], 30),
    ([0.01, 0.02, 0.03], "sigma_1", 20),
    ([0.01, 0.02, 0.03, 0.04], SIGMA_K4, 10),
    # neutral (degree 0) and genic (degree 2): the derived pad is below 4
    ([0.01, 0.02, 0.03], np.zeros((3, 3)), 12),
    ([0.01, 0.02], genic([1.5, 0.0]), 30),
    ([0.01, 0.02, 0.03], genic([1.5, -0.7, 0.0]), 12)])
def test_assembly_matches_summed_multiset_reference(theta, sigma, D, extra,
                                                    sigma_1):
    # the reference is padded by the polynomial's degree plus extra levels;
    # the block is exact at the degree, so the extra levels change nothing
    p, om = assemble(theta, sigma_1 if isinstance(sigma, str) else sigma, D)
    degree = max(map(len, multiset_weights(p)), default=0)
    want = summed_multiset_assembly(p, D, degree + extra)
    got = om.matrix.toarray()
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_symmetrize_neutral_is_identity_transform(theta_small):
    _, om = assemble(theta_small, np.zeros((3, 3)), 6)
    S = spectral.symmetrize(om)
    assert np.max(np.abs(S - om.matrix.toarray())) == 0.0


def test_symmetrize_guard_trips_on_doctored_matrix(theta_small):
    _, om = assemble(theta_small, np.zeros((3, 3)), 6)
    bad = om.matrix.tolil(copy=True)
    bad[0, 3] = bad[0, 3] + 0.5
    doctored = dataclasses.replace(om, matrix=bad.tocsr())
    with pytest.raises(NumericalError, match="balance"):
        spectral.symmetrize(doctored)


def five_pass_symmetrize(om):
    """Double-path symmetrize through COO and sparse sums, for reference."""
    coo = om.matrix.tocoo()
    lg = om.log_norms
    data = coo.data * np.exp(0.5 * (lg[coo.col] - lg[coo.row]))
    S = scipy.sparse.csr_matrix((data, (coo.row, coo.col)), shape=coo.shape)
    return 0.5 * (S + S.T)


@pytest.mark.parametrize("theta,sigma,D", [
    ([0.01, 0.02, 0.03], "sigma_1", 20),
    ([0.01, 0.02, 0.03, 0.04], SIGMA_K4, 10)])
def test_symmetrize_matches_five_pass_reference(theta, sigma, D, sigma_1):
    _, om = assemble(theta, sigma_1 if isinstance(sigma, str) else sigma, D)
    assert om.matrix.has_canonical_format
    S = spectral.symmetrize(om)
    assert scipy.sparse.isspmatrix_csr(S)
    assert np.array_equal(S.toarray(), five_pass_symmetrize(om).toarray())
    # unsorted column indices take the sparse-arithmetic path, same values
    M = om.matrix
    flip = np.concatenate([np.arange(lo, hi)[::-1]
                           for lo, hi in zip(M.indptr[:-1], M.indptr[1:])])
    unsorted = scipy.sparse.csr_matrix(
        (M.data[flip], M.indices[flip], M.indptr), shape=M.shape)
    S2 = spectral.symmetrize(dataclasses.replace(om, matrix=unsorted))
    assert np.array_equal(S2.toarray(), S.toarray())


@pytest.mark.parametrize("doctor", ["one_sided", "unbalanced"])
def test_symmetrize_guard_trips_on_selected_matrix(theta_small, sigma_1,
                                                   doctor):
    _, om = assemble(theta_small, sigma_1, 10)
    bad = om.matrix.tolil(copy=True)
    if doctor == "one_sided":
        bad[4, 0] = 0.0     # its partner M[0, 4] stays
    else:
        bad[4, 0] = bad[4, 0] * (1 + 1e-6)
    bad = bad.tocsr()
    bad.eliminate_zeros()
    assert (bad.nnz < om.matrix.nnz) == (doctor == "one_sided")
    with pytest.raises(NumericalError, match="balance"):
        spectral.symmetrize(dataclasses.replace(om, matrix=bad))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1e308])
def test_symmetrize_refuses_a_non_finite_operator(theta_small, sigma_1, bad):
    _, om = assemble(theta_small, sigma_1, 6)
    M = om.matrix.copy()
    if bad == 1e308:
        M.data[:] = bad   # finite in M, overflowing once scaled to S
    else:
        M.data[5] = bad
    with pytest.raises(NumericalError,
                       match="non-finite operator at truncation 6"):
        spectral.symmetrize(dataclasses.replace(om, matrix=M))


def test_eigenvalues_match_general_solver(theta_small, sigma_1):
    import scipy.linalg

    p, om = assemble(theta_small, sigma_1, 8)
    sd = spectral.eigensolve(om)
    w = scipy.linalg.eig(om.matrix.toarray(), left=False, right=False)
    assert np.max(np.abs(w.imag)) <= 1e-9 * np.max(np.abs(w.real))
    ref = np.sort(w.real)
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(sd.eigenvalues - ref)) <= 1e-8 * scale


def residual_max(om, sd):
    """Largest left-eigenpair residual ||u M - Lambda u||_inf / ||u||_inf.

    Runs over the held pairs only, with the sparse double-precision M:
    O(nnz * n_eig).
    """
    u = sd.coeffs
    r = (om.matrix.T @ u.T).T - sd.eigenvalues[:, None] * u
    return float(np.max(np.max(np.abs(r), axis=1) / np.max(np.abs(u), axis=1)))


def test_left_eigenpair_residual(theta_small, sigma_1):
    # U = 66: the full solve, LOBPCG for one pair, a LAPACK
    # subset up to U/3 = 22 and a sliced full solve above it
    p, om = assemble(theta_small, sigma_1, 10)
    for n_eig, solver in [(None, "eigh"), (1, "lobpcg"),
                          (5, "eigh_subset"), (22, "eigh_subset"),
                          (23, "eigh"), (40, "eigh")]:
        sd = spectral.eigensolve(om, n_eig=n_eig)
        assert sd.eigensolver == solver
        assert sd.n_eig == (n_eig or om.size)
        assert residual_max(om, sd) <= 1e-8


def test_eigenvalues_ascend_from_zero(theta_small, sigma_1):
    _, sd = make(theta_small, sigma_1, 10)
    assert np.all(np.diff(sd.eigenvalues) >= -1e-12)
    assert sd.eigenvalues[0] >= -1e-8


def test_coefficients_are_C_orthonormal(theta_small, sigma_1):
    _, sd = make(theta_small, sigma_1, 10)
    C = np.exp(sd.log_norms)
    gram = (sd.coeffs * C[None, :]) @ sd.coeffs.T
    assert np.max(np.abs(gram - np.eye(sd.size))) <= 1e-8


def test_sign_convention(theta_small, sigma_1):
    _, sd = make(theta_small, sigma_1, 8)
    for n in range(sd.size):
        row = sd.coeffs[n]
        assert row[np.argmax(np.abs(row))] > 0


def test_neutral_coefficient_rows_are_single_entry(theta_unit):
    _, sd = make(theta_unit, np.zeros((3, 3)), 6)
    for n in range(sd.size):
        assert np.count_nonzero(np.abs(sd.coeffs[n]) > 1e-12) == 1


def test_eigenfunctions_neutral_is_normalized_P(theta_unit):
    p, sd = make(theta_unit, np.zeros((3, 3)), 5)
    basis = sd.basis
    rng = np.random.default_rng(3)
    x = rng.dirichlet(np.ones(3), size=30)[:, :2]
    for n in (0, 1, 4, 9):
        pos = int(np.argmax(np.abs(sd.coeffs[n])))
        m = reference.enumeration(basis.K, basis.D)[pos]
        want = sd.coeffs[n, pos] * reference.eval_P(theta_unit, m, x)
        got = density.eigenfunctions(sd, x, n + 1)[n]
        assert np.allclose(got, want, rtol=1e-10, atol=1e-12)


def test_eigenfunctions_ground_state_constant(theta_small, sigma_1):
    _, sd = make(theta_small, sigma_1, 20)
    rng = np.random.default_rng(4)
    x = rng.dirichlet(np.ones(3), size=100)[:, :2]
    vals = density.eigenfunctions(sd, x, 1)[0]
    spread = np.max(vals) - np.min(vals)
    assert spread <= 1e-6 * np.abs(np.mean(vals))


def test_weak_selection_continuity(theta_unit, sigma_1):
    p0 = ModelParams(theta_unit, np.zeros((3, 3)))
    sd0 = spectral.decompose(p0, 6)
    gaps = []
    for eps in (1e-3, 1e-4):
        p = ModelParams(theta_unit, eps * np.asarray(sigma_1))
        sd = spectral.decompose(p, 6)
        gaps.append(np.max(np.abs(sd.eigenvalues - sd0.eigenvalues)))
    # perturbation shrinks linearly with the selection strength
    assert gaps[1] <= 0.2 * gaps[0]
    assert gaps[0] <= 0.1


@pytest.mark.parametrize("case", sorted(EXTENDED_REFERENCE["cases"]))
def test_double_matches_frozen_extended_reference(case):
    # a 128-bit assembly and solve gave these; double agreed with them to
    # 2.5e-14 of the spectral scale on eigenvalues (1.1e-11 relative to the
    # smallest) and to 1.6e-11 on the coefficients
    ref = EXTENDED_REFERENCE["cases"][case]
    p = ModelParams(EXTENDED_REFERENCE["theta"], ref["sigma"])
    want_lam = np.array(ref["eigenvalues"])
    want_u = np.abs(np.array(ref["coefficients"]))
    scale = np.max(np.abs(want_lam))
    full = spectral.decompose(p, EXTENDED_REFERENCE["D"])
    lead = spectral.decompose(p, EXTENDED_REFERENCE["D"], n_eig=1)
    assert lead.eigensolver == "lobpcg"
    for sd in (full, lead):
        k = min(sd.n_eig, len(want_u))
        assert np.max(np.abs(sd.eigenvalues - want_lam[:sd.n_eig])) \
            <= 1e-12 * scale
        assert np.max(np.abs(np.abs(sd.coeffs[:k]) - want_u[:k])) <= 1e-10


def test_convergence_table_neutral_rows(theta_unit):
    p = ModelParams(theta_unit, np.zeros((3, 3)))
    rows = spectral.convergence_table(p, [4, 6, 8], [0, 1, 2])
    lam1 = model.neutral_eigenvalue(1, p)
    for row in rows:
        assert row["Lambda"][0] == pytest.approx(0.0, abs=1e-12)
        assert row["Lambda"][1] == pytest.approx(lam1, rel=1e-12)
        assert row["Lambda"][2] == pytest.approx(lam1, rel=1e-12)


def test_convergence_table_validation(theta_unit):
    p = ModelParams(theta_unit, np.zeros((3, 3)))
    with pytest.raises(ParameterError):
        spectral.convergence_table(p, [2], [99])
    with pytest.raises(ParameterError):
        spectral.convergence_table(p, [2], [0], track=[(0, (9, 9))])
    # a wrong length, a negative entry, a degree above the smallest level
    for m in ((0,), (0, 0, 0), (-1, 1), (2, 1)):
        with pytest.raises(ParameterError, match="not in the level-2 basis"):
            spectral.convergence_table(p, [4, 2], [0], track=[(0, m)])


# K, the selective sigma, and levels D < D' small enough to solve fully
NESTING_CASES = [(2, [[3.0, -1.5], [-1.5, 0.0]], 12, 16),
                 (3, "sigma_1", 8, 12),
                 (4, SIGMA_K4, 5, 8)]


def nesting_models(K, sigma, sigma_1):
    theta = (0.01, 0.02, 0.03, 0.04)[:K]
    selective = sigma_1 if isinstance(sigma, str) else np.asarray(sigma)
    return [ModelParams(theta, np.zeros((K, K))),
            ModelParams(theta, selective)]


@pytest.mark.parametrize("K, sigma, D, D_top", NESTING_CASES)
def test_leading_block_is_the_lower_level_assembly(K, sigma, D, D_top,
                                                   sigma_1):
    for p in nesting_models(K, sigma, sigma_1):
        top = spectral.assemble_M(
            p, MultiJacobiBasis(p.theta, BasisEnumeration(K, D_top)))
        for level in range(D + 1):
            want = spectral.assemble_M(
                p, MultiJacobiBasis(p.theta, BasisEnumeration(K, level)))
            got = spectral.leading_block(top, level)
            assert got.D == level and got.size == want.size
            for part in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(got.matrix, part),
                                      getattr(want.matrix, part))
            assert np.array_equal(got.log_norms, want.log_norms)
            assert (spectral.decomposition_hash(got)
                    == spectral.decomposition_hash(want))


@pytest.mark.parametrize("K, sigma, D, D_top", NESTING_CASES)
def test_convergence_table_equals_per_level_solves(K, sigma, D, D_top,
                                                   sigma_1):
    D_list = [D_top, D - 2, D]
    n_list = [0, 1, 3]
    track = [(0, (0,) * (K - 1)), (1, (1,) + (0,) * (K - 2)),
             (3, (0,) * (K - 2) + (2,))]
    position = reference.positions(K, min(D_list))
    for p in nesting_models(K, sigma, sigma_1):
        rows = spectral.convergence_table(p, D_list, n_list, track=track)
        for row, level in zip(rows, D_list, strict=True):
            sd = spectral.decompose(p, level, n_eig=4)
            assert row == {
                "D": level,
                "Lambda": {n: float(sd.eigenvalues[n]) for n in n_list},
                "u": {(n, m): float(sd.coeffs[n, position[m]])
                      for n, m in track}}


def test_leading_block_refuses_other_levels_and_models(theta_small, sigma_1):
    _, om = assemble(theta_small, sigma_1, 4)
    assert spectral.leading_block(om, 4) is om
    for bad in (-1, 5):
        with pytest.raises(ParameterError, match="not below"):
            spectral.leading_block(om, bad)
    with pytest.raises(ParameterError, match=">= 0"):
        spectral.convergence_table(om.params, [4, -1], [0])
    with pytest.raises(ParameterError, match="another model"):
        spectral.decompose(ModelParams(theta_small, np.zeros((3, 3))), 2,
                           within=om)


@pytest.fixture(scope="module")
def operator_d40():
    """K=3, D=40 (U=861) at SIGMA_1: the CLI default size."""
    p = ModelParams((0.01, 0.02, 0.03), np.array([[12.0, 14.0, 15.0],
                                                  [14.0, 11.0, 13.0],
                                                  [15.0, 13.0, 0.0]]))
    return spectral.assemble_M(
        p, MultiJacobiBasis(p.theta, BasisEnumeration(3, 40)))


def test_full_solve_is_C_orthonormal_to_rounding(operator_d40):
    # divide and conquer measured 2.9e-15 here, the default MRRR 5.0e-13
    sd = spectral.eigensolve(operator_d40)
    assert sd.eigensolver == "eigh"
    C = np.exp(sd.log_norms)
    gram = (sd.coeffs * C[None, :]) @ sd.coeffs.T
    assert np.max(np.abs(gram - np.eye(sd.size))) <= 1e-13


@pytest.mark.parametrize("n_eig, solver", [(None, "eigh"), (563, "eigh"),
                                           (100, "eigh_subset")])
def test_coefficients_are_lapacks_array_scaled_in_place(
        operator_d40, monkeypatch, n_eig, solver):
    # the wrapper restarts the peak when LAPACK returns, so the second peak
    # is what eigensolve allocates after the solve; a scaled copy of the
    # eigenvectors would add U * n_eig doubles to it
    lapack = scipy.linalg.eigh
    seen = {}

    def eigh(*args, **kwargs):
        w, V = lapack(*args, **kwargs)
        seen["V"] = V
        seen["solve_peak"] = tracemalloc.get_traced_memory()[1]
        seen["returned"] = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        return w, V

    monkeypatch.setattr(scipy.linalg, "eigh", eigh)
    U = operator_d40.size
    tracemalloc.start()
    try:
        sd = spectral.eigensolve(operator_d40, n_eig)
        after_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sd.eigensolver == solver
    assert np.shares_memory(sd.coeffs, seen["V"])
    if solver == "eigh":
        # the dense matrix and 2U^2 doubles of workspace: measured 3.09U^2
        assert seen["solve_peak"] <= 3.25 * U * U * 8
        # measured 0.16 (all pairs) and 0.24 (563) of U * n_eig doubles
        assert after_peak - seen["returned"] <= 0.5 * U * sd.n_eig * 8


def test_decomposition_hash_reproducible(theta_small, sigma_1):
    p = ModelParams(theta_small, sigma_1)
    h1 = spectral.decomposition_hash(spectral.decompose(p, 6))
    h2 = spectral.decomposition_hash(spectral.decompose(p, 6))
    h3 = spectral.decomposition_hash(spectral.decompose(p, 7))
    assert h1 == h2
    assert h1 != h3
    assert len(h1) == 64


@pytest.mark.parametrize("theta, sigma, D, want", [
    ((0.01, 0.02, 0.03), "sigma_1", 12,
     "3da7fe377f5e5f4da36656db54fd9960e711bdfd4915dea9cbd078f1cf92884e"),
    ((0.01, 0.02, 0.03, 0.04), SIGMA_K4, 8,
     "51628b5e8e92a68897eff207ae69f7772e7a42b323b3ab4085f742151d8fc57c")])
def test_decomposition_hash_is_pinned(theta, sigma, D, want, sigma_1):
    # the hash covers M, log C and their graded order: any change of the
    # enumeration's order, the operator's bits or the norms shows here
    p = ModelParams(theta, sigma_1 if isinstance(sigma, str) else sigma)
    assert spectral.decomposition_hash(spectral.decompose(p, D, n_eig=1)) \
        == want


def test_decomposition_hash_is_the_operators(theta_small, sigma_1):
    # one pair, a subset and all U: each hashes as the operator it solved
    _, om = assemble(theta_small, sigma_1, 8)
    want = spectral.decomposition_hash(om)
    for n_eig in (1, om.size // 4, om.size):
        assert spectral.decomposition_hash(spectral.eigensolve(om, n_eig)) \
            == want


def test_convergence_table_hashes_nothing(theta_small, sigma_1, monkeypatch):
    # the hash is taken when asked for, not by every solve
    calls = []
    sha256 = hashlib.sha256
    monkeypatch.setattr(hashlib, "sha256",
                        lambda *args: calls.append(args) or sha256(*args))
    p = ModelParams(theta_small, sigma_1)
    rows = spectral.convergence_table(p, [4, 6, 8, 10], [0, 1])
    assert [row["D"] for row in rows] == [4, 6, 8, 10] and calls == []
    spectral.decomposition_hash(spectral.decompose(p, 4, n_eig=1))
    assert len(calls) == 1


def test_eigensolve_rejects_pair_counts_outside_the_basis(theta_small, sigma_1):
    _, om = assemble(theta_small, sigma_1, 4)
    for bad in (0, om.size + 1):
        with pytest.raises(ParameterError, match="n_eig"):
            spectral.eigensolve(om, n_eig=bad)


def indefinite_operator():
    """A U = 30 operator whose two lowest eigenvalues lie below the shift."""
    lam = np.r_[-0.3, -0.05, np.linspace(1.0, 30.0, 28)]
    p = ModelParams([0.5, 0.5], np.zeros((2, 2)))
    basis = MultiJacobiBasis(p.theta, BasisEnumeration(2, 29))
    return spectral.OperatorMatrix(
        params=p, D=29, basis=basis,
        matrix=scipy.sparse.diags(lam, format="csr"), log_norms=np.zeros(30))


def test_one_pair_solve_refuses_an_indefinite_operator():
    # shift-invert alone would return -0.05, the eigenvalue nearest the
    # shift; the Cholesky factorization of S - shift I fails instead
    om = indefinite_operator()
    with pytest.raises(NumericalError, match="eigensolver failed"):
        spectral.eigensolve(om, 1)
    assert spectral.eigensolve(om).eigenvalues[0] == -0.3


def test_an_unconverged_one_pair_solve_is_refused(theta_small, sigma_1,
                                                  monkeypatch, tmp_path,
                                                  capsys):
    # at U = 66 the level-4 block takes more than 2 steps, so the pair is
    # still open when the cap stops it
    monkeypatch.setattr(spectral, "KRYLOV_MAX_STEPS", 2)
    _, om = assemble(theta_small, sigma_1, 10)
    with pytest.raises(NumericalError,
                       match="did not converge in 2 refinement steps"):
        spectral.eigensolve(om, 1)
    code = cli.main(["normconst", "--out", str(tmp_path), "--set",
                     "truncation=10", "--set",
                     f"model.sigma={json.dumps(sigma_1.tolist())}"])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "numerical"
    assert "2 refinement steps" in err["message"]
    assert list(tmp_path.iterdir()) == []


def coupled_indefinite_operator(entry=0.5, coupling=0.5):
    """A U = 30 operator, positive definite on its level-6 block, with
    diagonal entry 20 and its coupling to row 0 given."""
    lam = np.r_[0.01, np.linspace(1.0, 29.0, 29)]
    lam[20] = entry
    S = scipy.sparse.diags(lam, format="lil")
    S[0, 20] = S[20, 0] = coupling
    p = ModelParams([0.5, 0.5], np.zeros((2, 2)))
    basis = MultiJacobiBasis(p.theta, BasisEnumeration(2, 29))
    return spectral.OperatorMatrix(params=p, D=29, basis=basis,
                                   matrix=S.tocsr(), log_norms=np.zeros(30))


def test_refinement_refuses_an_indefinite_operator():
    # the level-6 block (rows 0-6) and every diagonal entry are positive,
    # so only the refinement at level D meets the negative eigenvalue
    om = coupled_indefinite_operator()
    assert spectral._nested_level(2, om.size) == 6
    assert np.all(np.linalg.eigvalsh(om.matrix[:7, :7].toarray()) > 0)
    with pytest.raises(NumericalError, match="refined eigenvalue .* at or "
                       "below the shift"):
        spectral.eigensolve(om, 1)
    assert spectral.eigensolve(om).eigenvalues[0] < -0.3
    # a negative diagonal entry beyond the block is refused before any
    # step, even uncoupled, where [q'; 0] is an exact eigenvector
    om = coupled_indefinite_operator(entry=-0.2, coupling=0.0)
    with pytest.raises(NumericalError, match="diagonal entry lies at or "
                       "below the shift"):
        spectral.eigensolve(om, 1)


def test_an_open_refinement_is_refused(theta_small, sigma_1, monkeypatch,
                                       tmp_path, capsys):
    # at 5 SIGMA_1, D=40 the level-19 block takes fewer than 10 steps and
    # the refinement at level D 14: a cap of 10 leaves only the latter open
    _, om = assemble(theta_small, 5 * sigma_1, 40)
    solves, _ = watch_banded_calls(monkeypatch)
    steps = spectral.eigensolve(om, 1).pair_solve["refine_steps"]
    monkeypatch.undo()
    assert len(solves) - steps < 10 < steps
    monkeypatch.setattr(spectral, "KRYLOV_MAX_STEPS", 10)
    with pytest.raises(NumericalError, match=r"did not converge in 10 "
                       r"refinement steps: residual \S+ of max\|S_ij\|"):
        spectral.eigensolve(om, 1)
    code = cli.main(["normconst", "--out", str(tmp_path), "--set",
                     "truncation=40", "--set",
                     f"model.sigma={json.dumps((5 * sigma_1).tolist())}"])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "numerical"
    assert "10 refinement steps" in err["message"]
    assert list(tmp_path.iterdir()) == []


def _random_model(K, seed):
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.05, 2.0, size=K)
    sigma = rng.uniform(-8.0, 8.0, size=(K, K))
    sigma = 0.5 * (sigma + sigma.T)
    sigma[K - 1, K - 1] = 0.0
    return ModelParams(theta, sigma)


def assert_pairs_agree(sd, ref):
    """sd's pairs against the leading pairs of the full solve ref."""
    k = sd.n_eig
    lam, want = sd.eigenvalues, ref.eigenvalues[:k]
    # relative to the spectral scale, the accuracy a backward-stable solver
    # has; a small eigenvalue can differ by more than 1e-12 of itself
    scale = np.max(np.abs(ref.eigenvalues))
    assert abs(lam[0] - want[0]) <= 1e-12
    assert np.all(np.abs(lam - want) <= 1e-12 * scale)
    # rows of eigenvalues closer than this to a neighbour are not unique
    gaps = np.diff(ref.eigenvalues)
    near = np.minimum(np.r_[np.inf, gaps], np.r_[gaps, np.inf])[:k]
    separated = near > 1e-5 * scale
    u, u_ref = sd.coeffs[separated], ref.coeffs[:k][separated]
    row_max = np.max(np.abs(u_ref), axis=1)
    assert np.all(np.max(np.abs(u - u_ref), axis=1) <= 1e-10 * row_max)


# per K, the truncations that put U between 2 and ~120; at U = 1 the full
# solve is the one-pair solve itself
PATH_TRUNCATIONS = {2: (1, 60), 3: (1, 13), 4: (1, 7)}


@settings(max_examples=25, deadline=None)
@given(K=st.sampled_from(sorted(PATH_TRUNCATIONS)), pick=st.floats(0, 1),
       seed=st.integers(0, 2 ** 16))
def test_solver_paths_agree_with_the_full_solve(K, pick, seed):
    lo, hi = PATH_TRUNCATIONS[K]
    D = lo + round(pick * (hi - lo))
    p = _random_model(K, seed)
    basis = MultiJacobiBasis(p.theta, BasisEnumeration(K, D))
    om = spectral.assemble_M(p, basis)
    ref = spectral.eigensolve(om)
    assert ref.eigensolver == "eigh"
    U = om.size
    # one pair, a LAPACK subset up to U/3 and a sliced full solve above it,
    # as far as a tiny U has room for them
    for n_eig in sorted({1, min(max(2, U // 4), U), max(1, U // 2)}):
        sd = spectral.eigensolve(om, n_eig=n_eig)
        assert sd.eigensolver == ("lobpcg" if n_eig == 1
                                  else "eigh_subset" if 3 * n_eig <= U
                                  else "eigh")
        assert sd.coeffs.shape == (n_eig, U)
        assert (spectral.decomposition_hash(sd)
                == spectral.decomposition_hash(ref))
        assert_pairs_agree(sd, ref)


@pytest.mark.parametrize("K, D", [(3, 40), (4, 10)])
def test_one_pair_normalizing_constant_matches_full_solve(K, D, sigma_1):
    p = ModelParams((0.01, 0.02, 0.03, 0.04)[:K],
                    sigma_1 if K == 3 else SIGMA_K4)
    one = spectral.decompose(p, D, n_eig=1)
    assert one.eigensolver == "lobpcg"
    full = spectral.decompose(p, D)
    want = density.normalizing_constant(full)
    assert density.normalizing_constant(one) == pytest.approx(want, rel=1e-9)


# (theta, selection, D): the selection is a multiple of SIGMA_1 or a matrix
ONE_PAIR_CASES = {
    "K2_D60": ((0.01, 0.02), [[3.0, -1.5], [-1.5, 0.0]], 60),
    "K3_D40_sigma_1": ((0.01, 0.02, 0.03), 1.0, 40),
    "K3_D40_5sigma_1": ((0.01, 0.02, 0.03), 5.0, 40),
    "K3_D40_theta_1": ((1.0, 1.0, 1.0), 1.0, 40),
    "K3_D20_neutral": ((0.3, 0.4, 0.3), 0.0, 20),
    "K5_D12": ((0.01, 0.02, 0.03, 0.04, 0.05),
               [[8.0, 9.0, 10.0, 11.0, 12.0], [9.0, 6.0, 7.0, 8.0, 9.0],
                [10.0, 7.0, 4.0, 5.0, 6.0], [11.0, 8.0, 5.0, 2.0, 3.0],
                [12.0, 9.0, 6.0, 3.0, 0.0]], 12),
}


# the one-pair cases and the benchmark's K=4 model at 1 and 3 SIGMA_K4
AGREEMENT_CASES = {
    **ONE_PAIR_CASES,
    "K4_D28_sigma_K4": ((0.01, 0.02, 0.03, 0.04), SIGMA_K4.tolist(), 28),
    "K4_D28_3sigma_K4": ((0.01, 0.02, 0.03, 0.04), (3 * SIGMA_K4).tolist(),
                         28),
}


def one_pair_model(case, sigma_1):
    theta, selection, D = AGREEMENT_CASES[case]
    if np.isscalar(selection):
        return assemble(theta, selection * sigma_1, D)
    return assemble(theta, selection, D)


def watch_banded_calls(monkeypatch):
    """Record each banded solve, and each band factored: whether it is in
    LAPACK's column layout, whether the factor overwrote it, and its
    order."""
    solves, bands = [], []
    cho_solve, cholesky = (scipy.linalg.cho_solve_banded,
                           scipy.linalg.cholesky_banded)

    def counted_solve(*args, **kwargs):
        solves.append(1)
        return cho_solve(*args, **kwargs)

    def watched_factor(ab, **kwargs):
        factor = cholesky(ab, **kwargs)
        bands.append((ab.flags.f_contiguous, np.shares_memory(factor, ab),
                      ab.shape[1]))
        return factor

    monkeypatch.setattr(scipy.linalg, "cho_solve_banded", counted_solve)
    monkeypatch.setattr(scipy.linalg, "cholesky_banded", watched_factor)
    return solves, bands


@pytest.mark.parametrize("case", sorted(ONE_PAIR_CASES))
def test_one_pair_solve_work_and_accuracy(case, sigma_1, monkeypatch):
    # LOBPCG on the level-D' block, preconditioned by its factor with the
    # shift just below Lambda_0, takes 4 or 5 banded solves, where ARPACK
    # with the former shift of -0.1 and 20 vectors took 21; the refinement
    # at level D takes one per step, 0 to 14 steps on these models
    p, om = one_pair_model(case, sigma_1)
    solves, bands = watch_banded_calls(monkeypatch)
    one = spectral.eigensolve(om, 1)
    monkeypatch.undo()
    assert one.eigensolver == "lobpcg"
    info = one.pair_solve
    steps = info["refine_steps"]
    assert len(solves) - steps <= 10 and steps <= 16
    # one band, the level-D' block's, factored in place: nothing is
    # factored at level D
    lead = total_count(p.K, info["nested_level"])
    assert 4 * lead <= om.size < 4 * total_count(p.K, info["nested_level"] + 1)
    assert bands == [(True, True, lead)]
    # v = u sqrt(C) is S's unit eigenvector
    S = spectral.symmetrize(om)
    v = one.coeffs[0] * np.exp(0.5 * one.log_norms)
    scale = np.abs(S.data).max()
    residual = np.linalg.norm(S @ v - one.eigenvalues[0] * v)
    assert residual <= 1e-12 * scale
    assert info["pair_residual"] <= spectral.REFINE_TOL
    assert info["pair_residual"] == pytest.approx(residual / scale, rel=1e-6)
    ref = spectral.eigensolve(om, 2)
    assert ref.eigensolver == "eigh_subset"
    assert abs(one.eigenvalues[0] - ref.eigenvalues[0]) <= 1e-12 * scale
    want = density.normalizing_constant(ref)
    assert density.normalizing_constant(one) == pytest.approx(want, rel=1e-9)


def direct_pair(om, monkeypatch):
    """The one-pair solve with no nested level: the level-D operator is
    factored whole, and its pair needs no refinement."""
    with monkeypatch.context() as patch:
        patch.setattr(spectral, "_nested_level", lambda K, U: None)
        return spectral.eigensolve(om, 1)


@pytest.mark.parametrize("case", sorted(AGREEMENT_CASES))
def test_nested_pair_agrees_with_the_direct_solve(case, sigma_1,
                                                  monkeypatch):
    _, om = one_pair_model(case, sigma_1)
    nested, direct = spectral.eigensolve(om, 1), direct_pair(om, monkeypatch)
    assert nested.pair_solve["nested_level"] is not None
    assert direct.pair_solve["nested_level"] is None
    assert set(direct.pair_solve) == set(nested.pair_solve) == {
        "pair_residual", "nested_level", "embedded_residual", "refine_steps"}
    scale = np.abs(spectral.symmetrize(om).data).max()
    assert abs(nested.eigenvalues[0] - direct.eigenvalues[0]) <= 1e-12 * scale
    assert density.normalizing_constant(nested) == pytest.approx(
        density.normalizing_constant(direct), rel=1e-12)
    assert (spectral.decomposition_hash(nested)
            == spectral.decomposition_hash(direct))


@pytest.mark.parametrize("K, D, level", [(4, 28, 16), (3, 40, 19),
                                         (5, 16, 10), (2, 60, 14),
                                         (3, 4, 1), (3, 3, None),
                                         (5, 3, 1), (5, 2, None)])
def test_nested_level_rule(K, D, level):
    # the largest D' >= 1 with U(D') <= U/4, and none where U(1) = K is
    # larger
    assert spectral._nested_level(K, total_count(K, D)) == level


def test_one_pair_shift_rule(theta_unit, sigma_1, monkeypatch):
    # |theta| = 1: the shift is 1/128 of the neutral gap lambda_1 = 1/2
    p, om = assemble(theta_unit, np.zeros((3, 3)), 10)
    assert spectral._shift(spectral.symmetrize(om), p.theta_total) \
        == -1 / 256
    # at theta_i = 1e-8, rounding puts Lambda_0 at -7.1e-8, not 0; the
    # shift -|theta|/256 = -1.2e-10 would lie above it, and the Cholesky
    # factorization of S - shift I would fail. The floor lies below it.
    p, om = assemble((1e-8, 1e-8, 1e-8), sigma_1, 20)
    S = spectral.symmetrize(om)
    shift = spectral._shift(S, p.theta_total)
    scale = np.abs(S.data).max()
    assert shift == -1e-8 * scale
    solves, _ = watch_banded_calls(monkeypatch)
    one = spectral.eigensolve(om, 1)
    monkeypatch.undo()
    lam0, steps = one.eigenvalues[0], one.pair_solve["refine_steps"]
    assert len(solves) - steps <= 10 and steps <= 10
    assert lam0 == pytest.approx(-7.1e-8, rel=1e-2)
    assert shift < lam0
    # Lambda_1 is 8.5e-8, so C_stat is ill-conditioned here; the eigenvalue
    # still agrees with the dense solve
    assert abs(lam0 - spectral.eigensolve(om, 2).eigenvalues[0]) \
        <= 1e-12 * scale


@pytest.mark.parametrize("D, U", [(0, 1), (1, 3)])
def test_tiny_bases_fall_back_to_dense(theta_small, sigma_1, D, U):
    # one pair is LOBPCG at every U; more fall back to LAPACK. U is K=3's;
    # neutral at D = 0, S = 0 and the one-pair solve stops at once
    assert total_count(3, D) == U
    for K, sigma in [(3, sigma_1), (3, np.zeros((3, 3))),
                     (2, np.zeros((2, 2)))]:
        p = ModelParams(theta_small[:K], sigma)
        full = spectral.decompose(p, D)
        # at U = 1 the full solve is the one-pair solve: hold it to LAPACK
        S = spectral.symmetrize(spectral.assemble_M(p, full.basis)).toarray()
        assert np.all(np.abs(full.eigenvalues - scipy.linalg.eigvalsh(S))
                      <= 1e-12 * np.abs(S).max())
        for n_eig in range(1, full.size + 1):
            sd = spectral.decompose(p, D, n_eig=n_eig)
            assert (sd.eigensolver == "lobpcg") == (n_eig == 1)
            assert sd.size == total_count(K, D) and sd.n_eig == n_eig
            assert_pairs_agree(sd, full)
        assert spectral.decompose(p, D, n_eig=1).pair_solve[
            "pair_residual"] <= spectral.REFINE_TOL


def test_partial_decomposition_consumers(tmp_path, theta_small, sigma_1):
    p = ModelParams(theta_small, sigma_1)
    full = spectral.decompose(p, 8)
    sd = spectral.decompose(p, 8, n_eig=7)
    assert (sd.size, sd.n_eig) == (45, 7)
    x = np.array([[0.2, 0.3]])
    assert np.allclose(density.eigenfunctions(sd, x, 7),
                       density.eigenfunctions(full, x, 7), rtol=1e-10)
    for n_max in (0, 8):
        with pytest.raises(ParameterError, match=r"1\.\.7, the pairs held"):
            density.eigenfunctions(sd, x, n_max)
    spectral.write_eigenvalues_csv(sd, tmp_path / "eigs.csv")
    assert len((tmp_path / "eigs.csv").read_text().splitlines()) == 1 + 7
    spectral.write_coefficients_csv(sd, tmp_path / "got.csv")
    reference_write_coefficients_csv(sd, tmp_path / "want.csv")
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    assert {line.split(",")[0] for line in got.decode().splitlines()[1:]} == {
        str(n) for n in range(7)}


def test_csv_exports_round_trip(tmp_path, theta_small, sigma_1):
    _, sd = make(theta_small, sigma_1, 4)
    epath = tmp_path / "eigs.csv"
    cpath = tmp_path / "coeffs.csv"
    spectral.write_eigenvalues_csv(sd, epath)
    spectral.write_coefficients_csv(sd, cpath)
    elines = epath.read_text().splitlines()
    assert elines[0] == "n,Lambda,norm"
    assert len(elines) == 1 + sd.size
    n0, lam0, norm0 = elines[1].split(",")
    assert int(n0) == 0
    assert float(lam0) == pytest.approx(sd.eigenvalues[0], abs=1e-16)
    assert float(norm0) == pytest.approx(1.0, rel=1e-10)
    clines = cpath.read_text().splitlines()
    assert clines[0] == "n,m_tuple,u"
    pos = reference.positions(sd.basis.K, sd.basis.D)
    for line in clines[1:]:
        n, mt, u = line.split(",")
        m = tuple(int(s) for s in mt.split(";"))
        assert float(u) == pytest.approx(sd.coeffs[int(n), pos[m]], rel=1e-15)


def reference_write_coefficients_csv(sd, path):
    """The plain per-entry coefficient writer, kept as the byte reference."""
    indices = reference.enumeration(sd.basis.K, sd.basis.D)
    with open(path, "w", newline="") as fh:
        fh.write("n,m_tuple,u\n")
        for n in range(len(sd.coeffs)):
            for pos, m in enumerate(indices):
                v = sd.coeffs[n, pos]
                if v != 0.0:
                    mt = ";".join(str(d) for d in m)
                    fh.write(f"{n},{mt},{v:.17g}\n")


@pytest.mark.parametrize("selected", [True, False], ids=["sigma_1", "neutral"])
def test_coefficients_csv_matches_reference_bytes(tmp_path, theta_small,
                                                  sigma_1, selected):
    # the neutral rows are single-entry, so the zero skipping is exercised
    sigma = sigma_1 if selected else np.zeros((3, 3))
    _, sd = make(theta_small, sigma, 10)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    spectral.write_coefficients_csv(sd, got)
    reference_write_coefficients_csv(sd, want)
    assert got.read_bytes() == want.read_bytes()


def rowwise_write_eigenvalues_csv(sd, path):
    """write_eigenvalues_csv one f-string row at a time, for reference."""
    norms = (sd.coeffs ** 2 * np.exp(sd.log_norms)[None, :]).sum(axis=1)
    with open(path, "w", newline="") as fh:
        fh.write("n,Lambda,norm\n")
        for n in range(sd.n_eig):
            fh.write(f"{n},{sd.eigenvalues[n]:.17g},{norms[n]:.17g}\n")


@pytest.mark.parametrize("n_eig", [None, 7])
def test_eigenvalues_csv_matches_rowwise_bytes(tmp_path, theta_small,
                                               sigma_1, n_eig):
    sd = spectral.decompose(ModelParams(theta_small, sigma_1), 10,
                            n_eig=n_eig)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    spectral.write_eigenvalues_csv(sd, got)
    rowwise_write_eigenvalues_csv(sd, want)
    assert got.read_bytes() == want.read_bytes()


def test_decompose_leaves_no_reference_cycles(theta_small, sigma_1):
    # everything assembly builds must be freed by reference counting alone,
    # without waiting for the cyclic collector
    p = ModelParams(theta_small, sigma_1)
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        spectral.decompose(p, 12)
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert not [o for o in garbage if scipy.sparse.issparse(o)]
    assert not [o for o in garbage if callable(o)
                and str(getattr(o, "__module__", "")).startswith("wfspectral")]


def test_assemble_rejects_mismatched_basis(theta_small, theta_unit, sigma_1):
    p = ModelParams(theta_small, sigma_1)
    other = MultiJacobiBasis(np.asarray(theta_unit), BasisEnumeration(3, 4))
    with pytest.raises(ParameterError):
        spectral.assemble_M(p, other)
    with pytest.raises(ParameterError):
        spectral.decompose(p, -1)
