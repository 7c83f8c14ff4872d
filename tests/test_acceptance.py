"""Acceptance gate: the twelve release criteria, one test each.

Each test pins its parameter set, tolerance, and runtime budget. The
conftest hook prints a PASS/FAIL line per criterion after the run. These
deliberately restate checks that also exist in unit form elsewhere: the gate
is meant to be readable on its own and to fail loudly as a unit.
"""

import math
import time

import numpy as np
import pytest

from wfspectral import density, model, spectral
from wfspectral.basis import MultiJacobiBasis
from wfspectral.indexing import BasisEnumeration, count_at_degree
from wfspectral.model import ModelParams
from wfspectral.oracles import (MCConfig, fd_generator_apply, mc_simulate,
                                simplex_quadrature)

import reference

THETA = np.array([0.01, 0.02, 0.03])
X0 = np.array([0.02, 0.02])
SEED = 20260816


def interior_points(count, clearance, seed=SEED):
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < count:
        x = rng.dirichlet(np.ones(3))[:2]
        if x.min() >= clearance and 1.0 - x.sum() >= clearance:
            pts.append(x)
    return pts


def test_criterion_01_neutral_spectrum_exact(theta_small):
    start = time.perf_counter()
    p = ModelParams(theta_small, np.zeros((3, 3)))
    sd = spectral.decompose(p, 10)
    expected = np.sort([model.neutral_eigenvalue(l, p)
                        for l in range(11) for _ in range(l + 1)])
    assert sd.size == len(expected)
    assert np.max(np.abs(np.sort(sd.eigenvalues) - expected)) <= 1e-10
    for l in range(11):
        lam = model.neutral_eigenvalue(l, p)
        hits = np.sum(np.abs(sd.eigenvalues - lam) <= 1e-10)
        assert hits == count_at_degree(3, l)
    assert time.perf_counter() - start < 1.0


def test_criterion_02_selection_polynomial_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    for draw in range(20):
        K = int(rng.integers(2, 5))
        theta = rng.uniform(0.01, 50.0, size=K)
        raw = rng.uniform(-20.0, 20.0, size=(K, K))
        sigma = 0.5 * (raw + raw.T)
        sigma[K - 1, K - 1] = 0.0
        p = ModelParams(theta, sigma)
        pts = rng.dirichlet(np.ones(K), size=200)[:, :K - 1]
        via_tables = model.q_polynomial_eval(model.q_coefficients(p), pts)
        direct = model.q_direct(p, pts)
        assert np.all(np.abs(via_tables - direct)
                      <= 1e-10 * (1.0 + np.abs(direct)))
    assert time.perf_counter() - start < 5.0


def test_criterion_03_detailed_balance_symmetry(theta_small, sigma_1):
    start = time.perf_counter()
    p = ModelParams(theta_small, sigma_1)
    basis = MultiJacobiBasis(p.theta, BasisEnumeration(3, 12))
    om = spectral.assemble_M(p, basis)
    M = om.matrix.toarray()
    weighted = M * np.exp(om.log_norms)[None, :]
    defect = np.max(np.abs(weighted - weighted.T))
    assert defect <= 1e-9 * np.max(np.abs(weighted))
    assert time.perf_counter() - start < 10.0


def test_criterion_04_ground_eigenvalue_vanishes(theta_small, sigma_1):
    start = time.perf_counter()
    p = ModelParams(theta_small, sigma_1)
    lam0 = [spectral.decompose(p, D).eigenvalues[0]
            for D in (8, 12, 16, 20, 24)]
    assert abs(lam0[-1]) <= 1e-6
    for a, b in zip(lam0, lam0[1:]):
        assert b - a <= 1e-12   # non-increasing up to solver noise
    assert time.perf_counter() - start < 120.0


def test_criterion_05_truncation_stabilization(theta_small, sigma_1):
    start = time.perf_counter()
    p = ModelParams(theta_small, sigma_1)
    sd36 = spectral.decompose(p, 36)
    sd40 = spectral.decompose(p, 40)
    lam36, lam40 = sd36.eigenvalues[75], sd40.eigenvalues[75]
    assert abs(lam40 - lam36) / lam40 <= 1e-4
    pos36 = reference.positions(3, 36)[(8, 2)]
    pos40 = reference.positions(3, 40)[(8, 2)]
    u36, u40 = sd36.coeffs[75, pos36], sd40.coeffs[75, pos40]
    assert abs(u40 - u36) <= 1e-4 * np.max(np.abs(sd40.coeffs[75]))
    assert time.perf_counter() - start < 600.0


def test_criterion_06_basis_orthogonality(theta_small):
    basis = MultiJacobiBasis(np.asarray(theta_small), BasisEnumeration(3, 4))
    members = reference.enumeration(3, 4)
    norms = np.exp(basis.log_norms_all())
    for i, n in enumerate(members):
        for j in range(i, len(members)):
            m = members[j]
            val = simplex_quadrature(
                lambda y: (reference.eval_P(theta_small, n, y)
                           * reference.eval_P(theta_small, m, y)),
                3, 24, theta=theta_small)
            ref = norms[i] if i == j else 0.0
            assert abs(val - ref) <= 1e-6 * math.sqrt(norms[i] * norms[j])


def test_criterion_07_density_normalization(theta_small, sigma_1):
    start = time.perf_counter()
    p = ModelParams(theta_small, sigma_1)
    sd = spectral.decompose(p, 40)
    for t in (0.04, 0.2, 1.0, 2.0):
        total = simplex_quadrature(
            lambda y: density.smooth_kernel(sd, t, X0, y)[0],
            3, 60, theta=theta_small)
        assert total == pytest.approx(1.0, abs=1e-3)
    assert time.perf_counter() - start < 900.0


def test_criterion_08_stationary_constant(theta_small, sigma_1, sigma_het):
    closed = spectral.decompose(
        ModelParams([0.5, 0.5, 1.0], np.zeros((3, 3))), 6)
    assert density.normalizing_constant(closed) == pytest.approx(
        math.pi, rel=1e-8)
    for sigma in (sigma_1, sigma_het):
        p = ModelParams(theta_small, sigma)
        sd = spectral.decompose(p, 24)
        from_spectrum = density.normalizing_constant(sd)
        from_quadrature = simplex_quadrature(
            lambda y: np.exp(model.mean_fitness(p, y)),
            3, 60, theta=theta_small)
        assert from_spectrum == pytest.approx(from_quadrature, rel=1e-4)


def test_criterion_09_chapman_kolmogorov(theta_small, sigma_1):
    p = ModelParams(theta_small, 0.2 * np.asarray(sigma_1))
    sd = spectral.decompose(p, 24)
    s = t = 0.25
    rng = np.random.default_rng(SEED)
    pairs = rng.dirichlet(np.ones(3), size=(5, 2))[..., :2]
    for x, y in pairs:
        def integrand(z):
            left = density.smooth_kernel(sd, s, x, z)[0]
            right = density.smooth_kernel(sd, t, z, y)[:, 0]
            return left * right
        composed = simplex_quadrature(integrand, 3, 60, theta=theta_small)
        direct = density.smooth_kernel(sd, s + t, x, y)[0, 0]
        assert abs(composed - direct) <= 2e-3 * abs(direct)


def test_criterion_10_monte_carlo_moments(theta_small, sigma_1):
    start = time.perf_counter()
    p = ModelParams(theta_small, sigma_1)
    sd = spectral.decompose(p, 40)
    spec_mean = np.array([
        simplex_quadrature(
            lambda y: y[..., i] * np.squeeze(
                density.smooth_kernel(sd, 0.2, X0, y), axis=0),
            3, 80, theta=theta_small)
        for i in range(2)])
    cfg = MCConfig(N=10000, generations=4000, replicates=10000, seed=SEED)
    res = mc_simulate(p, cfg, X0)
    assert res.times[-1] == pytest.approx(0.2)
    mc_mean = res.means[-1][:2]
    mc_se = np.sqrt(np.diag(res.covs[-1])[:2] / cfg.replicates)
    z = np.abs(spec_mean - mc_mean) / mc_se
    assert np.all(z <= 3.0)
    assert time.perf_counter() - start < 600.0


def test_criterion_11_generator_eigen_identity(theta_small, sigma_1):
    pts = interior_points(10, clearance=5e-3)
    p0 = ModelParams(theta_small, np.zeros((3, 3)))
    for n in [(1, 0), (0, 2), (2, 3)]:
        lam = model.neutral_eigenvalue(sum(n), p0)
        for x in pts:
            val = float(reference.eval_P(p0.theta, n, x))
            got = fd_generator_apply(
                p0, lambda v: reference.eval_P(p0.theta, n, v), x)
            denom = max(abs(lam * val), abs(val))
            assert abs(got - (-lam * val)) <= 1e-4 * denom
    p1 = ModelParams(theta_small, sigma_1)
    sd = spectral.decompose(p1, 24)
    for n in (0, 1, 5):
        lam = sd.eigenvalues[n]
        for x in pts:
            def f(v):
                return float(density.eigenfunctions(sd, v, n + 1)[n])
            val = f(x)
            got = fd_generator_apply(p1, f, x)
            denom = max(abs(lam * val), abs(val))
            assert abs(got - (-lam * val)) <= 1e-4 * denom


def test_criterion_12_distance_monotone_and_ordered(theta_small, sigma_1):
    times = np.linspace(0.05, 3.0, 20)
    at_t1 = []
    for mult in (0.1, 0.5, 1.0):
        p = ModelParams(theta_small, mult * np.asarray(sigma_1))
        sd = spectral.decompose(p, 20)
        d2 = density.distance_to_stationarity(sd, X0, times)
        assert np.all(np.diff(d2) < 0)
        at_t1.append(float(np.interp(1.0, times, d2)))
    # stronger selection drives the process to equilibrium faster from
    # this start, so the squared distance at t=1 shrinks with the multiplier
    assert at_t1[0] > at_t1[1] > at_t1[2]
