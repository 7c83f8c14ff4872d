"""Independent reference machinery: quadrature, finite differences, Monte
Carlo. These are the arbiters the analytic code is judged against, so they
get their own correctness tests on cases with closed-form answers.
"""

import math

import numpy as np
import pytest
import scipy.stats

from wfspectral import jacobi, model, oracles
from wfspectral.errors import NumericalError, ParameterError
from wfspectral.model import ModelParams
from wfspectral.oracles import MCConfig

import reference


def test_lebesgue_volume():
    assert oracles.simplex_quadrature(lambda x: 1.0, 2, 20) == pytest.approx(
        1.0, rel=1e-13)
    assert oracles.simplex_quadrature(lambda x: 1.0, 3, 20) == pytest.approx(
        0.5, rel=1e-13)
    assert oracles.simplex_quadrature(lambda x: 1.0, 4, 12) == pytest.approx(
        1.0 / 6.0, rel=1e-12)


def test_dirichlet_kernel_normalizers():
    one = oracles.simplex_quadrature(lambda x: 1.0, 3, 20,
                                     theta=[1.0, 1.0, 1.0])
    assert one == pytest.approx(0.5, rel=1e-13)
    half = oracles.simplex_quadrature(lambda x: 1.0, 3, 20,
                                      theta=[0.5, 0.5, 1.0])
    assert half == pytest.approx(math.pi, rel=1e-12)
    theta = [0.7, 1.3, 2.1, 0.9]
    general = oracles.simplex_quadrature(lambda x: 1.0, 4, 16, theta=theta)
    want = math.prod(math.gamma(t) for t in theta) / math.gamma(sum(theta))
    assert general == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("K", [2, 3, 4])
@pytest.mark.parametrize("resolution", [1, 7, 20])
def test_lebesgue_rule_is_the_unit_theta_rule(K, resolution):
    # theta=None means theta = (1, ..., 1), node for node and bit for bit
    points, w = oracles.simplex_quadrature_nodes(K, resolution)
    same_points, same_w = oracles.simplex_quadrature_nodes(
        K, resolution, theta=np.ones(K))
    assert np.array_equal(points, same_points)
    assert np.array_equal(w, same_w)


def test_lebesgue_moment():
    # int x1 x2 over the triangle = 1/24
    val = oracles.simplex_quadrature(lambda x: x[:, 0] * x[:, 1], 3, 20)
    assert val == pytest.approx(1.0 / 24.0, rel=1e-12)


def test_resolution_doubling_stability():
    def f(x):
        return np.exp(x[:, 0] - 0.3 * x[:, 1]) * np.cos(x[:, 0])

    tame = [oracles.simplex_quadrature(f, 3, r, theta=[0.8, 1.2, 0.5])
            for r in (20, 40)]
    assert abs(tame[1] - tame[0]) <= 1e-8 * abs(tame[1])
    spiky = [oracles.simplex_quadrature(f, 3, r, theta=[0.01, 0.02, 0.03])
             for r in (20, 40)]
    assert abs(spiky[1] - spiky[0]) <= 1e-5 * abs(spiky[1])


def test_quadrature_validation():
    with pytest.raises(ParameterError):
        oracles.simplex_quadrature(lambda x: 1.0, 5, 10)
    with pytest.raises(ParameterError):
        oracles.simplex_quadrature(lambda x: 1.0, 3, 0)
    with pytest.raises(ParameterError):
        oracles.simplex_quadrature(lambda x: 1.0, 3, 10, theta=[1.0, -1.0, 1.0])
    with pytest.raises(ParameterError):
        oracles.simplex_quadrature(lambda x: 1.0, 3, 10, theta=[1.0, 1.0])
    with pytest.raises(ParameterError):
        oracles.simplex_quadrature(lambda x: np.ones(3), 3, 10)
    with pytest.raises(NumericalError):
        oracles.simplex_quadrature(lambda x: np.full(len(x), np.nan), 3, 10)


def test_fd_annihilates_constants(theta_small, sigma_1):
    p = ModelParams(theta_small, sigma_1)
    val = oracles.fd_generator_apply(p, lambda x: 1.0, np.array([0.3, 0.3]))
    assert abs(val) <= 1e-9


def test_fd_second_order_convergence():
    theta = [0.7, 1.3, 2.1]
    p = ModelParams(theta, np.zeros((3, 3)))
    n = (2, 1)
    lam = model.neutral_eigenvalue(3, p)
    x = np.array([0.3, 0.4])

    def f(pt):
        return reference.eval_P(theta, n, pt)

    exact = -lam * float(f(x))
    errs = [abs(oracles.fd_generator_apply(p, f, x, h=h) - exact)
            for h in (2e-2, 1e-2)]
    ratio = errs[0] / errs[1]
    assert 3.0 <= ratio <= 5.0


def test_fd_reproduces_neutral_eigenrelation(theta_unit):
    p = ModelParams(theta_unit, np.zeros((3, 3)))
    rng = np.random.default_rng(17)
    pts = 0.1 + 0.8 * rng.dirichlet(np.ones(3), size=6)[:, :2]
    for n in [(1, 0), (0, 2), (2, 1)]:
        lam = model.neutral_eigenvalue(sum(n), p)
        for x in pts:
            got = oracles.fd_generator_apply(
                p, lambda v: reference.eval_P(theta_unit, n, v), x)
            want = -lam * float(reference.eval_P(theta_unit, n, x))
            assert got == pytest.approx(want, rel=1e-4, abs=1e-8)


def test_fd_boundary_guard(theta_unit):
    p = ModelParams(theta_unit, np.zeros((3, 3)))
    with pytest.raises(ParameterError):
        oracles.fd_generator_apply(p, lambda x: 1.0, np.array([1e-6, 0.3]))
    with pytest.raises(ParameterError):
        oracles.fd_generator_apply(p, lambda x: 1.0, np.array([0.5, 0.4999]))
    with pytest.raises(ParameterError):
        oracles.fd_generator_apply(p, lambda x: 1.0, np.array([0.3]))


def test_mc_bitwise_reproducible(theta_small, sigma_1):
    p = ModelParams(theta_small, sigma_1)
    cfg = MCConfig(N=50, generations=40, replicates=30, seed=99,
                   block_size=8)
    r1 = oracles.mc_simulate(p, cfg, np.array([0.3, 0.3]))
    r2 = oracles.mc_simulate(p, cfg, np.array([0.3, 0.3]))
    assert np.array_equal(r1.final_freqs, r2.final_freqs)
    assert np.array_equal(r1.means, r2.means)
    r3 = oracles.mc_simulate(
        p, MCConfig(N=50, generations=40, replicates=30, seed=100,
                    block_size=8), np.array([0.3, 0.3]))
    assert not np.array_equal(r1.final_freqs, r3.final_freqs)


def test_mc_extending_replicates_preserves_blocks(theta_small, sigma_1):
    # per-block streams: adding more replicates must not disturb earlier ones
    p = ModelParams(theta_small, sigma_1)
    x0 = np.array([0.3, 0.3])
    small = oracles.mc_simulate(
        p, MCConfig(N=50, generations=20, replicates=8, seed=7,
                    block_size=4), x0)
    big = oracles.mc_simulate(
        p, MCConfig(N=50, generations=20, replicates=14, seed=7,
                    block_size=4), x0)
    assert np.array_equal(big.final_freqs[:8], small.final_freqs)


def test_mc_recording_grid():
    p = ModelParams([0.5, 0.5, 0.5], np.zeros((3, 3)))
    cfg = MCConfig(N=25, generations=100, replicates=10, seed=1,
                   record_every=30)
    res = oracles.mc_simulate(p, cfg, np.array([0.4, 0.3]))
    assert list(res.generations) == [0, 30, 60, 90, 100]
    assert np.allclose(res.times, res.generations / 50.0)
    assert res.means.shape == (5, 3)
    assert res.covs.shape == (5, 3, 3)
    assert np.allclose(res.means[0], [0.4, 0.3, 0.3])
    assert np.allclose(res.covs[0], 0.0)


def test_mc_near_neutral_mean_is_martingale():
    # with tiny mutation and no selection the mean frequency stays put
    p = ModelParams([1e-4, 1e-4, 1e-4], np.zeros((3, 3)))
    cfg = MCConfig(N=200, generations=100, replicates=4000, seed=5)
    res = oracles.mc_simulate(p, cfg, np.array([0.3, 0.5]))
    for i in range(3):
        se = math.sqrt(res.covs[-1, i, i] / cfg.replicates)
        drift = abs(res.means[-1, i] - res.means[0, i])
        assert drift <= 3.0 * se + 1e-4


def test_mc_stationary_marginal_matches_dirichlet():
    # theta = (1,1,1): stationary marginal of x_1 is Beta(1, 2)
    p = ModelParams([1.0, 1.0, 1.0], np.zeros((3, 3)))
    cfg = MCConfig(N=300, generations=3600, replicates=3000, seed=11)
    res = oracles.mc_simulate(p, cfg, np.array([1 / 3, 1 / 3]))
    edges = np.linspace(0.0, 1.0, 11)
    # equal-probability bins under Beta(1,2): F(v) = 1 - (1-v)^2
    probs = np.diff(1.0 - (1.0 - edges) ** 2)
    counts, _ = np.histogram(res.final_freqs[:, 0], bins=edges)
    stat, pvalue = scipy.stats.chisquare(counts, cfg.replicates * probs)
    assert pvalue > 0.05


def test_mc_config_validation(theta_small):
    with pytest.raises(ParameterError):
        MCConfig(N=0, generations=10, replicates=5, seed=1)
    with pytest.raises(ParameterError):
        MCConfig(N=10, generations=-1, replicates=5, seed=1)
    with pytest.raises(ParameterError):
        MCConfig(N=10, generations=10, replicates=0, seed=1)
    with pytest.raises(ParameterError):
        MCConfig(N=10, generations=10, replicates=5, seed=-3)
    with pytest.raises(ParameterError):
        MCConfig(N=10, generations=10, replicates=5, seed=1, block_size=0)
    p = ModelParams(theta_small, np.zeros((3, 3)))
    with pytest.raises(ParameterError):
        oracles.mc_simulate(p, MCConfig(N=10, generations=1, replicates=2,
                                        seed=1), np.array([0.5, 0.7]))
    strong = ModelParams(theta_small,
                         [[30.0, 0, 0], [0, 0, 0], [0, 0, 0.0]])
    with pytest.raises(ParameterError):
        oracles.mc_simulate(strong, MCConfig(N=20, generations=1,
                                             replicates=2, seed=1),
                            np.array([0.3, 0.3]))


def test_mc_summary_csv(tmp_path, theta_small):
    p = ModelParams(theta_small, np.zeros((3, 3)))
    cfg = MCConfig(N=30, generations=10, replicates=20, seed=3,
                   record_every=5)
    res = oracles.mc_simulate(p, cfg, np.array([0.3, 0.3]))
    path = tmp_path / "mc.csv"
    oracles.write_mc_summary_csv(res, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "generation,t,mean_1,mean_2,var_1,var_2,cov_12"
    assert len(lines) == 1 + len(res.generations)
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[2]) == pytest.approx(0.3)


def rowwise_write_mc_summary_csv(result, path):
    """write_mc_summary_csv one row at a time with format(), for reference."""
    K = result.means.shape[1]
    d = K - 1
    cols = (["generation", "t"]
            + [f"mean_{i+1}" for i in range(d)]
            + [f"var_{i+1}" for i in range(d)]
            + [f"cov_{i+1}{j+1}" for i in range(d) for j in range(i + 1, d)])
    with open(path, "w", newline="") as fh:
        fh.write(",".join(cols) + "\n")
        for k, g in enumerate(result.generations):
            row = [str(int(g)), format(result.times[k], ".17g")]
            row += [format(result.means[k, i], ".17g") for i in range(d)]
            row += [format(result.covs[k, i, i], ".17g") for i in range(d)]
            row += [format(result.covs[k, i, j], ".17g")
                    for i in range(d) for j in range(i + 1, d)]
            fh.write(",".join(row) + "\n")


@pytest.mark.parametrize("K", [3, 4])
def test_mc_summary_csv_matches_rowwise_bytes(tmp_path, K):
    p = ModelParams(np.linspace(0.2, 0.5, K), np.zeros((K, K)))
    cfg = MCConfig(N=30, generations=12, replicates=15, seed=K,
                   record_every=3)
    res = oracles.mc_simulate(p, cfg, np.full(K - 1, 0.2))
    # a constant start gives exact zeros; put special values in as well
    res.covs[0, 0, 0] = -0.0
    res.means[-1, 0] = np.nan
    res.covs[-1, 0, 1] = -np.inf
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    oracles.write_mc_summary_csv(res, got)
    rowwise_write_mc_summary_csv(res, want)
    assert got.read_bytes() == want.read_bytes()


def write_histogram_csv(samples, edges, path):
    """Binned counts of scalar samples; the bin edges ride in the header."""
    samples = np.asarray(samples, dtype=float)
    edges = np.asarray(edges, dtype=float)
    counts, _ = np.histogram(samples, bins=edges)
    with open(path, "w", newline="") as fh:
        fh.write("# bin edges: " + " ".join(format(e, ".17g") for e in edges) + "\n")
        fh.write("bin_lo,bin_hi,count\n")
        for i, c in enumerate(counts):
            fh.write(f"{edges[i]:.17g},{edges[i+1]:.17g},{int(c)}\n")


def test_histogram_csv(tmp_path):
    rng = np.random.default_rng(8)
    samples = rng.uniform(0, 1, size=500)
    edges = np.linspace(0, 1, 6)
    path = tmp_path / "hist.csv"
    write_histogram_csv(samples, edges, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# bin edges:")
    assert lines[1] == "bin_lo,bin_hi,count"
    counts = [int(line.split(",")[2]) for line in lines[2:]]
    assert sum(counts) == 500
