"""Model parameters, fitness functions, generator coefficients, q tables."""

import math

import numpy as np
import pytest

from wfspectral import model, simplex
from wfspectral.errors import ParameterError
from wfspectral.model import ModelParams


def test_rejects_asymmetric_sigma():
    with pytest.raises(ParameterError, match="symmetric"):
        ModelParams([0.5, 0.5, 0.5], [[0, 1, 2], [1, 0, 3], [9, 3, 0]])


def test_rejects_nonzero_reference_entry():
    with pytest.raises(ParameterError, match="sigma\\[K,K\\]"):
        ModelParams([0.5, 0.5], [[1.0, 0.5], [0.5, 2.0]])


def test_rejects_nonpositive_theta():
    with pytest.raises(ParameterError):
        ModelParams([0.5, 0.0, 0.5], np.zeros((3, 3)))
    with pytest.raises(ParameterError):
        ModelParams([-0.5, 0.5], np.zeros((2, 2)))
    with pytest.raises(ParameterError):
        ModelParams([0.5], np.zeros((1, 1)))


def test_rejects_shape_mismatch():
    with pytest.raises(ParameterError):
        ModelParams([0.5, 0.5, 0.5], np.zeros((2, 2)))


@pytest.mark.parametrize("theta, sigma", [
    ([0.5, 0.5], [[1.0, 2.0], [3.0]]),                   # ragged sigma
    ([0.5, 0.5], [["a", 0.0], [0.0, 0.0]]),              # non-numeric sigma
    ([0.5, [0.5, 1.0]], np.zeros((2, 2))),               # ragged theta
    (["a", 0.5], np.zeros((2, 2))),                      # non-numeric theta
    ([0.5, 0.5], {"a": 1}),                              # not an array
])
def test_rejects_non_numeric_input(theta, sigma):
    with pytest.raises(ParameterError, match="numeric"):
        ModelParams(theta, sigma)


def test_accepts_and_freezes():
    p = ModelParams([0.5, 0.5, 1.0], np.zeros((3, 3)))
    assert p.K == 3
    assert p.theta_total == pytest.approx(2.0)
    assert p.is_neutral
    with pytest.raises(ValueError):
        p.theta[0] = 9.0


def marginal_fitness(p, i, x):
    """sum_j sigma_ij x_j for allele i (1-based in 1..K)."""
    if not 1 <= i <= p.K:
        raise ParameterError(f"allele label must be in 1..{p.K}, got {i}")
    return simplex.full_point(x) @ p.sigma[i - 1]


def test_mean_fitness_neutral_and_vertex(sigma_1):
    p0 = ModelParams([1.0, 1.0, 1.0], np.zeros((3, 3)))
    assert model.mean_fitness(p0, np.array([0.3, 0.3])) == 0.0
    p = ModelParams([0.01, 0.02, 0.03], sigma_1)
    # all mass on the reference allele: sbar = sigma[K,K] = 0
    assert model.mean_fitness(p, np.array([0.0, 0.0])) == 0.0


def test_mean_fitness_direct_arithmetic(sigma_1):
    p = ModelParams([0.01, 0.02, 0.03], sigma_1)
    x = np.array([0.02, 0.02])
    xf = np.array([0.02, 0.02, 0.96])
    want = sum(xf[i] * xf[j] * sigma_1[i][j] for i in range(3)
               for j in range(3))
    assert model.mean_fitness(p, x) == pytest.approx(want, rel=1e-14)


def test_marginal_fitness_vertex_and_average(sigma_1):
    p = ModelParams([0.01, 0.02, 0.03], sigma_1)
    # at vertex e_1 the marginal fitness of allele i is sigma[i, 1]
    x = np.array([1.0, 0.0])
    for i in (1, 2, 3):
        assert marginal_fitness(p, i, x) == pytest.approx(
            sigma_1[i - 1][0])
    rng = np.random.default_rng(7)
    for _ in range(10):
        x = rng.dirichlet(np.ones(3))[:2]
        xf = np.append(x, 1 - x.sum())
        s_all = model.marginal_fitness_all(p, x)
        assert float(xf @ s_all) == pytest.approx(
            float(model.mean_fitness(p, x)), rel=1e-13)
    with pytest.raises(ParameterError):
        marginal_fitness(p, 4, x)


def test_drift_zero_at_balanced_neutral_point():
    p = ModelParams([1.0, 1.0, 1.0], np.zeros((3, 3)))
    a, _ = model.drift_diffusion(p, np.array([1 / 3, 1 / 3]))
    assert np.max(np.abs(a)) <= 1e-15


def test_diffusion_matrix_psd_and_boundary(sigma_1):
    p = ModelParams([0.01, 0.02, 0.03], sigma_1)
    rng = np.random.default_rng(8)
    for _ in range(100):
        x = rng.dirichlet(np.ones(3))[:2]
        _, b = model.drift_diffusion(p, x)
        assert np.allclose(b, b.T)
        evs = np.linalg.eigvalsh(b)
        assert evs.min() >= -1e-14
    # lost allele: its diffusion row vanishes and drift reduces to mutation
    a, b = model.drift_diffusion(p, np.array([0.0, 0.4]))
    assert np.max(np.abs(b[0])) == 0.0
    assert a[0] == pytest.approx(0.5 * 0.01)


def test_mean_fitness_gradient_identity(sigma_1):
    # d sbar / d x_i = 2 (s_i - s_K) once x_K absorbs the constraint
    p = ModelParams([0.01, 0.02, 0.03], sigma_1)
    rng = np.random.default_rng(9)
    h = 1e-6
    for _ in range(10):
        x = rng.dirichlet(np.ones(3))[:2] * 0.9 + 0.01
        s_all = model.marginal_fitness_all(p, x)
        for i in range(2):
            up = x.copy()
            dn = x.copy()
            up[i] += h
            dn[i] -= h
            fd = (model.mean_fitness(p, up) - model.mean_fitness(p, dn)) / (2 * h)
            want = 2 * (s_all[i] - s_all[2])
            assert fd == pytest.approx(want, rel=1e-5, abs=1e-8)


def test_neutral_eigenvalue_pins():
    p = ModelParams([0.01, 0.02, 0.03], np.zeros((3, 3)))
    assert model.neutral_eigenvalue(0, p) == 0.0
    assert model.neutral_eigenvalue(1, p) == pytest.approx(0.03)
    assert model.neutral_eigenvalue(2, p) == pytest.approx(1.06)
    with pytest.raises(ParameterError):
        model.neutral_eigenvalue(-1, p)


def test_neutral_eigenvalue_broadcasts_bit_for_bit():
    p = ModelParams([0.01, 0.02, 0.03, 0.04], np.zeros((4, 4)))
    degrees = np.repeat(np.arange(30), 3)
    got = model.neutral_eigenvalue(degrees, p)
    want = [model.neutral_eigenvalue(int(l), p) for l in degrees]
    assert got.dtype == float and got.tolist() == want
    with pytest.raises(ParameterError):
        model.neutral_eigenvalue(np.array([3, -1]), p)


def test_stationary_uniform_case():
    p = ModelParams([1.0, 1.0, 1.0], np.zeros((3, 3)))
    x = np.array([0.3, 0.5])
    assert np.exp(model.log_stationary_unnormalized(p, x)) == 1.0


def test_stationary_boundary_rules():
    p = ModelParams([0.5, 0.5, 1.0], np.zeros((3, 3)))
    with pytest.raises(ParameterError):
        model.log_stationary_unnormalized(p, np.array([0.0, 0.5]))
    # theta_3 = 1 makes the third exponent flat, so x_3 = 0 is fine
    v = model.log_stationary_unnormalized(p, np.array([0.5, 0.5]))
    assert math.isfinite(v)
    p2 = ModelParams([2.0, 1.0, 1.0], np.zeros((3, 3)))
    x = np.array([0.0, 0.5])
    assert np.exp(model.log_stationary_unnormalized(p2, x)) == 0.0


def test_stationary_composition(sigma_1):
    p = ModelParams([0.7, 1.3, 2.1], sigma_1)
    rng = np.random.default_rng(10)
    for _ in range(10):
        x = rng.dirichlet(np.ones(3))[:2]
        xf = np.append(x, 1 - x.sum())
        want = (math.exp(model.mean_fitness(p, x))
                * np.prod(xf ** (p.theta - 1)))
        got = np.exp(model.log_stationary_unnormalized(p, x))
        assert got == pytest.approx(want, rel=1e-12)


def test_q_constant_term_pin(sigma_1):
    p = ModelParams([0.01, 0.02, 0.03], sigma_1)
    coeffs = model.q_coefficients(p)
    assert coeffs[()] == pytest.approx(0.205, rel=1e-13)


def test_q_neutral_vanishes():
    p = ModelParams([0.3, 0.4, 0.3], np.zeros((3, 3)))
    coeffs = model.q_coefficients(p)
    assert all(v == 0.0 for v in coeffs.values())
    assert np.all(model.q_direct(p, np.array([[0.2, 0.3], [0.1, 0.1]])) == 0.0)


def test_q_degree_bound(sigma_1):
    p = ModelParams([0.01, 0.02, 0.03], sigma_1)
    assert max(len(t) for t in model.q_coefficients(p)) <= 4


def test_q_tables_match_direct_oracle():
    # the closed-form coefficient tables against the fitness-function route,
    # randomized over wide parameter ranges
    rng = np.random.default_rng(20260816)
    for K in (2, 3, 4):
        for _ in range(20 // (K - 1)):
            theta = rng.uniform(0.01, 50.0, size=K)
            raw = rng.uniform(-20, 20, size=(K, K))
            sigma = 0.5 * (raw + raw.T)
            sigma[K - 1, K - 1] = 0.0
            p = ModelParams(theta, sigma)
            coeffs = model.q_coefficients(p)
            x = rng.dirichlet(np.ones(K), size=200)[:, :K - 1]
            via_tables = model.q_polynomial_eval(coeffs, x)
            via_direct = model.q_direct(p, x)
            bound = 1e-10 * (1.0 + np.abs(via_direct))
            assert np.all(np.abs(via_tables - via_direct) <= bound)


def test_q_tables_reject_wrong_linear_convention(sigma_1):
    # swapping sigma[j,K] for sigma[i,K] in the linear term is a near-miss
    # that the oracle comparison must catch
    p = ModelParams([0.01, 0.02, 0.03], sigma_1)
    coeffs = dict(model.q_coefficients(p))
    K, th = p.K, p.theta
    for i1 in (1, 2):
        wrong = coeffs[(i1,)] + 0.5 * sum(
            th[j - 1] * (p.sigma[j - 1, K - 1] - p.sigma[i1 - 1, K - 1])
            for j in range(1, K + 1))
        coeffs[(i1,)] = wrong
    x = np.random.default_rng(1).dirichlet(np.ones(3), size=50)[:, :2]
    diff = np.abs(model.q_polynomial_eval(coeffs, x) - model.q_direct(p, x))
    assert np.max(diff) > 1e-3
