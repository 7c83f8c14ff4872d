"""Independent verification machinery.

Three oracles that deliberately avoid the spectral code paths:

  * tensor-product Gauss-Jacobi quadrature over the simplex, with boundary
    singularities absorbed into the per-axis weights;
  * finite-difference application of the diffusion generator at a point;
  * a discrete Wright-Fisher Monte Carlo simulator (diploid selection,
    parent-independent mutation, multinomial resampling).

Each gives an external handle on quantities the spectral machinery also
computes, so disagreements localize bugs.
"""

from dataclasses import dataclass

import numpy as np
import scipy.special

from . import csvout
from . import model as model_mod
from .errors import NumericalError, ParameterError
from .simplex import from_cube

QUADRATURE_KS = (2, 3, 4)


def gauss_jacobi_01(n, a, b):
    """Nodes and weights for integral of f(s) s^(a-1) (1-s)^(b-1) over [0,1].

    Args:
        n: node count (exact for polynomial f up to degree 2n-1).
        a, b: weight exponents, > 0.

    Returns:
        (nodes, weights) arrays of length n.
    """
    if n < 1:
        raise ParameterError(f"need at least one node, got {n}")
    if not (a > 0 and b > 0):
        raise ParameterError(f"weight exponents must be positive, got a={a}, b={b}")
    # classical weight (1-z)^alpha (1+z)^beta on [-1,1]; map z -> (1+z)/2.
    # errstate: scipy evaluates a dead np.where branch that divides by zero
    # for some exponent combinations, the returned values are fine
    with np.errstate(invalid="ignore"):
        z, w = scipy.special.roots_jacobi(n, b - 1.0, a - 1.0)
    nodes = 0.5 * (z + 1.0)
    scale = 2.0 ** (-(a + b - 1.0))
    return nodes, w * scale


def simplex_quadrature_nodes(K, resolution, theta=None):
    """Tensor quadrature rule over the open simplex.

    The rule integrates f against the Dirichlet kernel
    prod x_i^(theta_i - 1) dx: the kernel (and the cube Jacobian) is folded
    into the weights, so integrands stay finite even for tiny theta.
    theta=None means theta = (1, ..., 1), plain Lebesgue measure dx.

    Returns:
        (points, weights): points of shape (M, K-1) on the simplex, weights
        of shape (M,).
    """
    if K not in QUADRATURE_KS:
        raise ParameterError(
            f"tensor quadrature supports K in {QUADRATURE_KS}, got {K}")
    if resolution < 1:
        raise ParameterError(f"resolution must be >= 1, got {resolution}")
    theta = np.ones(K) if theta is None else np.asarray(theta, dtype=float)
    if theta.shape != (K,) or np.any(theta <= 0):
        raise ParameterError("theta must hold K positive entries")
    axis_nodes, axis_weights = [], []
    for j in range(K - 1):
        a, b = float(theta[j]), float(theta[j + 1:].sum())
        nodes, weights = gauss_jacobi_01(resolution, a, b)
        axis_nodes.append(nodes)
        axis_weights.append(weights)
    grids = np.meshgrid(*axis_nodes, indexing="ij")
    xi = np.stack([g.reshape(-1) for g in grids], axis=-1)
    wgrids = np.meshgrid(*axis_weights, indexing="ij")
    w = np.ones(len(xi))
    for g in wgrids:
        w = w * g.reshape(-1)
    return from_cube(xi), w


def simplex_quadrature(f, K, resolution, theta=None):
    """Integrate f over the simplex (against the Dirichlet kernel if theta).

    f must accept an (M, K-1) array of points and return M values (scalars
    are broadcast).
    """
    points, w = simplex_quadrature_nodes(K, resolution, theta)
    vals = np.asarray(f(points), dtype=float)
    if vals.ndim == 0:
        vals = np.full(len(w), float(vals))
    if vals.shape != w.shape:
        raise ParameterError(
            f"integrand returned shape {vals.shape}, expected {w.shape}")
    if not np.all(np.isfinite(vals)):
        raise NumericalError("integrand produced non-finite samples")
    return float(w @ vals)


def fd_generator_apply(p, f, x, h=1e-4):
    """Apply the diffusion generator to f at x by central differences.

    Args:
        p: ModelParams.
        f: scalar field on simplex points (called with (K-1,) vectors).
        x: strictly interior point; every coordinate and the implied last
           frequency must clear the boundary by a few steps.
        h: step size; the truncation error is O(h^2).
    """
    x = np.asarray(x, dtype=float)
    d = p.K - 1
    if x.shape != (d,):
        raise ParameterError(f"expected {d} frequencies, got {x.shape}")
    if np.min(x) < 2 * h or 1.0 - x.sum() < 4 * h:
        raise ParameterError(
            "point too close to the simplex boundary for the chosen step")
    a, b = model_mod.drift_diffusion(p, x)
    f0 = float(f(x))

    def at(*steps):
        y = x.copy()
        for idx, s in steps:
            y[idx] += s
        return float(f(y))

    val = 0.0
    for i in range(d):
        fp = at((i, h))
        fm = at((i, -h))
        val += a[i] * (fp - fm) / (2 * h)
        val += 0.5 * b[i, i] * (fp - 2 * f0 + fm) / (h * h)
    for i in range(d):
        for j in range(i + 1, d):
            mixed = (at((i, h), (j, h)) - at((i, h), (j, -h))
                     - at((i, -h), (j, h)) + at((i, -h), (j, -h))) / (4 * h * h)
            val += b[i, j] * mixed  # symmetric pair counted once
    return val


@dataclass(frozen=True)
class MCConfig:
    """Discrete Wright-Fisher run configuration.

    N diploid individuals (2N gametes), `generations` steps, `replicates`
    independent populations. Replicates are simulated in fixed-size blocks,
    each on its own counter-based stream keyed (seed, block index), so runs
    are reproducible and block-parallel safe.
    """
    N: int
    generations: int
    replicates: int
    seed: int
    record_every: int | None = None
    block_size: int = 1024

    def __post_init__(self):
        if self.N < 1 or self.generations < 0 or self.replicates < 1:
            raise ParameterError("population, generations, replicates must be positive")
        if self.block_size < 1:
            raise ParameterError("block size must be >= 1")
        if not 0 <= self.seed < 2 ** 64:
            raise ParameterError("seed must fit in 64 bits")


@dataclass(frozen=True)
class MCResult:
    """Per-generation frequency summaries plus final-state samples."""
    config: MCConfig
    generations: np.ndarray   # (nrec,)
    times: np.ndarray         # (nrec,) diffusion time = generation / (2N)
    means: np.ndarray         # (nrec, K)
    covs: np.ndarray          # (nrec, K, K)
    final_freqs: np.ndarray   # (replicates, K)


def mc_simulate(p, cfg, x0):
    """Simulate the discrete Wright-Fisher model matching the diffusion.

    Per generation: selection reweights gametes by their marginal fitness
    (genotype (i,j) carries weight 1 + sigma_ij / (2N), so one unit of
    diffusion time is 2N generations), then parent-independent mutation
    x' = (1 - sum u) x + u with u_i = theta_i / (4N), then multinomial
    resampling of 2N gametes.

    Returns an MCResult; summaries are recorded every `record_every`
    generations (auto-chosen when None) plus generation 0 and the last.
    """
    N = cfg.N
    u = p.theta / (4.0 * N)
    if np.any(u >= 1.0) or u.sum() >= 1.0:
        raise ParameterError("mutation rates too large for the population size")
    if np.max(np.abs(p.sigma)) / N >= 1.0:
        raise ParameterError("selection too strong for the population size")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape == (p.K - 1,):
        x0 = np.append(x0, 1.0 - x0.sum())
    if x0.shape != (p.K,) or np.any(x0 < 0) or abs(x0.sum() - 1.0) > 1e-9:
        raise ParameterError("initial frequencies must lie on the simplex")

    every = cfg.record_every
    if every is None:
        every = max(1, cfg.generations // 128)
    rec_gens = sorted(set(range(0, cfg.generations + 1, every))
                      | {0, cfg.generations})
    rec_pos = {g: k for k, g in enumerate(rec_gens)}
    nrec = len(rec_gens)
    K = p.K
    sums = np.zeros((nrec, K))
    outers = np.zeros((nrec, K, K))
    final = np.empty((cfg.replicates, K))

    sel = p.sigma / (2.0 * N)  # per-generation selection coefficients
    keep = 1.0 - u.sum()
    nblocks = (cfg.replicates + cfg.block_size - 1) // cfg.block_size
    for blk in range(nblocks):
        lo = blk * cfg.block_size
        hi = min(lo + cfg.block_size, cfg.replicates)
        rows = hi - lo
        bit = np.random.Philox(key=np.array([cfg.seed, blk], dtype=np.uint64))
        rng = np.random.default_rng(bit)
        x = np.tile(x0, (rows, 1))
        if 0 in rec_pos:
            sums[0] += x.sum(axis=0)
            outers[0] += x.T @ x
        for g in range(1, cfg.generations + 1):
            marg = x @ sel
            sbar = np.sum(x * marg, axis=1, keepdims=True)
            post = x * (1.0 + marg) / (1.0 + sbar)
            post = keep * post + u
            post = np.clip(post, 0.0, None)
            post /= post.sum(axis=1, keepdims=True)
            counts = rng.multinomial(2 * N, post)
            x = counts / (2.0 * N)
            k = rec_pos.get(g)
            if k is not None:
                sums[k] += x.sum(axis=0)
                outers[k] += x.T @ x
        final[lo:hi] = x

    R = cfg.replicates
    means = sums / R
    covs = (outers - R * np.einsum("ri,rj->rij", means, means)) / max(R - 1, 1)
    gens = np.array(rec_gens)
    return MCResult(config=cfg, generations=gens, times=gens / (2.0 * N),
                    means=means, covs=covs, final_freqs=final)


def write_mc_summary_csv(result, path):
    """Summary CSV: generation, t, means, variances, covariances (first K-1)."""
    K = result.means.shape[1]
    d = K - 1
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    cols = (["generation", "t"]
            + [f"mean_{i+1}" for i in range(d)]
            + [f"var_{i+1}" for i in range(d)]
            + [f"cov_{i+1}{j+1}" for i, j in pairs])
    columns = ([result.generations.astype(np.int64), result.times]
               + [result.means[:, i] for i in range(d)]
               + [result.covs[:, i, i] for i in range(d)]
               + [result.covs[:, i, j] for i, j in pairs])
    csvout.write_csv(path, cols, [columns])
