"""Model parameters and generator-level quantities.

Parameters are the K scaled mutation rates theta (all positive) and a
symmetric K x K scaled selection matrix sigma whose (K,K) entry is 0 (the
reference genotype). Frequencies x carry K-1 entries; the K-th is implied.

The selection correction to the spectral operator is a polynomial of degree
four in x. Its coefficients are produced two independent ways: q_coefficients
evaluates per-tuple closed forms, q_direct evaluates the polynomial itself
from mean/marginal fitness. The two must agree; tests enforce it.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .simplex import full_point

SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class ModelParams:
    """Validated parameter bundle."""
    theta: np.ndarray
    sigma: np.ndarray

    def __init__(self, theta, sigma):
        try:
            theta, sigma = np.asarray(theta, float), np.asarray(sigma, float)
        except (TypeError, ValueError) as exc:   # ragged or not numbers
            raise ParameterError(f"theta and sigma must be numeric: {exc}")
        if theta.ndim != 1 or len(theta) < 2:
            raise ParameterError("need at least two mutation rates")
        K = len(theta)
        if np.any(theta <= 0):
            raise ParameterError("mutation rates must be strictly positive")
        if sigma.shape != (K, K):
            raise ParameterError(
                f"selection matrix must be {K}x{K}, got {sigma.shape}")
        if np.max(np.abs(sigma - sigma.T)) > SYMMETRY_TOL:
            raise ParameterError("selection matrix must be symmetric")
        if abs(sigma[K - 1, K - 1]) > SYMMETRY_TOL:
            raise ParameterError(
                "the reference genotype entry sigma[K,K] must be 0")
        # canonicalize so downstream symmetry identities hold exactly
        sigma = 0.5 * (sigma + sigma.T)
        sigma[K - 1, K - 1] = 0.0
        sigma.flags.writeable = False
        theta.flags.writeable = False
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "sigma", sigma)

    @property
    def K(self):
        return len(self.theta)

    @property
    def theta_total(self):
        return float(self.theta.sum())

    @property
    def is_neutral(self):
        return not np.any(self.sigma)


@dataclass(frozen=True)
class LocalGeneratorCoefficients:
    """Drift vector a and diffusion matrix b of the generator at one point."""
    a: np.ndarray  # (K-1,)
    b: np.ndarray  # (K-1, K-1)


def mean_fitness(p, x):
    """sigma-weighted quadratic form sum_ij sigma_ij x_i x_j (x_K implied)."""
    xf = full_point(x)
    return np.einsum("...i,ij,...j->...", xf, p.sigma, xf)


def marginal_fitness_all(p, x):
    """All K marginal fitnesses at once, on the last axis."""
    return full_point(x) @ p.sigma.T


def drift_diffusion(p, x):
    """Generator coefficients at a single point x (length K-1)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (p.K - 1,):
        raise ParameterError(f"expected {p.K - 1} frequencies, got {x.shape}")
    b = np.diag(x) - np.outer(x, x)
    s_all = marginal_fitness_all(p, x)
    sbar = mean_fitness(p, x)
    a = 0.5 * (p.theta[:-1] - p.theta_total * x) + x * (s_all[:-1] - sbar)
    return LocalGeneratorCoefficients(a=a, b=b)


def neutral_eigenvalue(total_degree, p):
    """Eigenvalue of the neutral generator at total degree l: l(l-1+|theta|)/2."""
    if total_degree < 0:
        raise ParameterError(f"degree must be >= 0, got {total_degree}")
    l = total_degree
    return 0.5 * l * (l - 1 + p.theta_total)


def log_stationary_unnormalized(p, x):
    """Log of e^{mean fitness} * prod x_i^(theta_i - 1), the stationary shape.

    Zero coordinates are admitted only where the exponent is nonnegative
    (theta_i >= 1); elsewhere the density diverges and evaluation is refused.
    """
    xf = full_point(x)
    th = p.theta
    zero = xf <= 0.0
    if np.any(zero & (th < 1.0)):
        raise ParameterError(
            "stationary density is singular at a zero frequency with "
            "mutation rate below 1")
    # at admissible zeros: exponent 0 contributes 0, exponent > 0 gives -inf
    terms = np.where(zero, np.where(th > 1.0, -np.inf, 0.0),
                     (th - 1.0) * np.log(np.where(zero, 1.0, xf)))
    return mean_fitness(p, x) + terms.sum(axis=-1)


def q_direct(p, x):
    """Degree-4 selection polynomial evaluated from fitness functions.

    Q = (sum_i x_i s_i^2 + sum_i theta_i s_i + sum_i x_i sigma_ii
         - (1+|theta|) sbar - sbar^2) / 2, where s_i is the marginal fitness.
    This is the independent oracle for q_coefficients.
    """
    xf = full_point(x)
    s_all = marginal_fitness_all(p, x)
    sbar = np.einsum("...i,...i->...", xf, s_all)
    tt = p.theta_total
    return 0.5 * (np.einsum("...i,...i->...", xf, s_all ** 2)
                  + s_all @ p.theta
                  + xf @ np.diag(p.sigma)
                  - (1.0 + tt) * sbar
                  - sbar ** 2)


def q_coefficients(p):
    """Per-tuple coefficients of the selection polynomial.

    Returns a dict keyed by ordered tuples over {1..K-1} of length 0..4, with
    Q(x) = sum over tuples of q(tuple) * prod x_i. The linear-term closed form
    sums theta_j * (sigma[i,j] - sigma[j,K]) over j; the variant with
    sigma[i,K] in place of sigma[j,K] fails the q_direct oracle and is
    rejected by the tests.
    """
    return q_tables(p.theta, p.sigma)


def q_tables(theta, sigma):
    """Same closed forms from theta and sigma given apart."""
    K = len(theta)
    tt = sum(theta)

    def S(i, j):  # 1-based lookup
        return sigma[i - 1][j - 1]

    skk = S(K, K)
    out = {}
    out[()] = 0.5 * (sum(theta[j - 1] * S(K, j) for j in range(1, K + 1))
                     - tt * skk)
    for i1 in range(1, K):
        out[(i1,)] = 0.5 * (
            sum(theta[j - 1] * (S(i1, j) - S(j, K)) for j in range(1, K + 1))
            + S(i1, K) ** 2 + skk ** 2 - 2 * skk * S(i1, K)
            - 2 * (1 + tt) * S(i1, K) + (1 + 2 * tt) * skk + S(i1, i1))
    for i1, i2 in itertools.product(range(1, K), repeat=2):
        out[(i1, i2)] = 0.5 * (
            2 * S(i1, K) * S(i1, i2) - 3 * S(i1, K) * S(i2, K)
            + 8 * S(i2, K) * skk - 2 * skk * S(i1, i2)
            - 2 * S(i1, K) ** 2 - 3 * skk ** 2
            - (1 + tt) * (S(i1, i2) + skk - 2 * S(i2, K)))
    for i1, i2, i3 in itertools.product(range(1, K), repeat=3):
        out[(i1, i2, i3)] = 0.5 * (
            (S(i1, i3) - S(i1, K)) * (S(i1, i2) - S(i1, K))
            - (S(i3, K) - skk) * (S(i2, K) - skk)
            - 4 * (S(i2, i3) + skk - 2 * S(i3, K)) * (S(i1, K) - skk))
    for i1, i2, i3, i4 in itertools.product(range(1, K), repeat=4):
        out[(i1, i2, i3, i4)] = -0.5 * (
            (S(i1, i2) + skk - 2 * S(i2, K))
            * (S(i3, i4) + skk - 2 * S(i4, K)))
    return out


def q_polynomial_eval(coeffs, x):
    """Evaluate a tuple-keyed polynomial at simplex points (validate q)."""
    x = np.asarray(x, dtype=float)
    total = np.zeros(x.shape[:-1])
    for tup, c in coeffs.items():
        if c == 0.0:
            continue
        mono = np.ones(x.shape[:-1])
        for i in tup:
            mono = mono * x[..., i - 1]
        total = total + c * mono
    return total
