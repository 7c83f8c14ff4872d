"""Transition density assembly, stationary normalizer, distance curve.

The selected-path density is validated against the direct neutral series
(two fully independent code paths when sigma = 0), against quadrature
normalization, against reversibility identities, and against its long-time
stationary limit.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wfspectral import density, model, oracles, simplex, spectral
from wfspectral.basis import MultiJacobiBasis
from wfspectral.errors import NumericalError, ParameterError
from wfspectral.indexing import total_count
from wfspectral.model import ModelParams
from wfspectral.oracles import gauss_jacobi_01

import reference

SIGMA_K4 = np.array([[12.0, 14.0, 15.0, 10.0],
                     [14.0, 11.0, 13.0, 9.0],
                     [15.0, 13.0, 0.0, 8.0],
                     [10.0, 9.0, 8.0, 0.0]])


def decompose(theta, sigma, D, **kw):
    p = ModelParams(theta, sigma)
    return spectral.decompose(p, D, **kw)


def simplex_quadrature(theta, nodes=40):
    """Cube nodes, ambient simplex points and plain-Lebesgue weights for the
    theta-kernel already folded in (so sum w f approximates the integral of
    f against prod x^(theta-1))."""
    K = len(theta)
    tails = [sum(theta[j + 1:]) for j in range(K - 1)]
    axes = [gauss_jacobi_01(nodes, theta[j], tails[j]) for j in range(K - 1)]
    grids = np.meshgrid(*[a[0] for a in axes], indexing="ij")
    pts_cube = np.stack([g.ravel() for g in grids], axis=-1)
    w = np.ones(pts_cube.shape[0])
    for j, (_, wj) in enumerate(axes):
        w = w * np.broadcast_to(
            wj.reshape((1,) * j + (-1,) + (1,) * (K - 2 - j)),
            [nodes] * (K - 1)).ravel()
    return simplex.from_cube(pts_cube), w


def test_normalizer_uniform_case():
    sd = decompose([1.0, 1.0, 1.0], np.zeros((3, 3)), 6)
    assert density.normalizing_constant(sd) == pytest.approx(0.5, rel=1e-10)


def test_normalizer_half_integer_case():
    sd = decompose([0.5, 0.5, 1.0], np.zeros((3, 3)), 6)
    assert density.normalizing_constant(sd) == pytest.approx(math.pi,
                                                             rel=1e-10)


def test_normalizer_neutral_general_theta():
    theta = [0.7, 1.3, 2.1]
    sd = decompose(theta, np.zeros((3, 3)), 6)
    want = (math.gamma(0.7) * math.gamma(1.3) * math.gamma(2.1)
            / math.gamma(4.1))
    assert density.normalizing_constant(sd) == pytest.approx(want, rel=1e-10)


def test_normalizer_with_selection_matches_quadrature(theta_unit, sigma_1):
    sd = decompose(theta_unit, sigma_1, 24)
    pts, w = simplex_quadrature(theta_unit, nodes=60)
    p = sd.params
    want = float(np.sum(w * np.exp(model.mean_fitness(p, pts))))
    assert density.normalizing_constant(sd) == pytest.approx(want, rel=1e-6)


def candidate_loop_normalizing_constant(sd):
    """normalizing_constant with f(y) = sum_m u_{0,m} P_m(y) and its
    condition number summed member by member, each P_m from the reference
    evaluator, at the simplex corners and a resolution-10 interior grid."""
    u0 = sd.coeffs[0]
    num = float(np.sum(u0 ** 2 * np.exp(sd.log_norms)))
    K = sd.params.K
    pts = np.concatenate([density.make_grid(K, 10), np.eye(K)[:, :K - 1]])
    f = np.zeros(len(pts))
    size = np.zeros(len(pts))
    for pos, m in enumerate(reference.enumeration(K, sd.D)):
        term = u0[pos] * reference.eval_P(sd.params.theta, m, pts)
        f += term
        size += np.abs(term)
    best = np.argmin(size / np.abs(f))
    return (num * np.exp(model.mean_fitness(sd.params, pts[best]))
            / f[best] ** 2)


@pytest.mark.parametrize("theta,sigma,D", [
    ([0.01, 0.02], [[3.0, -1.5], [-1.5, 0.0]], 30),
    ([0.01, 0.02, 0.03], "sigma_1", 24),
    ([0.01, 0.02, 0.03], "sigma_1", 17),
    ([0.01, 0.02, 0.03, 0.04], SIGMA_K4, 10)])
def test_normalizer_matches_corner_loop(theta, sigma, D, sigma_1):
    # the loop takes the ratio at the corners and the grid alike
    sd = decompose(theta, sigma_1 if isinstance(sigma, str) else sigma, D,
                   n_eig=1)
    got = density.normalizing_constant(sd)
    assert got == pytest.approx(candidate_loop_normalizing_constant(sd),
                                rel=1e-13)


@pytest.mark.parametrize("scale", [1, 2, 3, 5])
@pytest.mark.parametrize("which", ["sigma_1", "sigma_het"])
def test_normalizer_holds_under_strong_selection(scale, which, sigma_1,
                                                 sigma_het):
    # at the corner alone the lead terms cancel: kappa reached 4e7 at
    # 3 x SIGMA_1 and 3e12 at 5 x SIGMA_1, and C_stat was off by up to 77%
    theta = [0.01, 0.02, 0.03]
    sigma = scale * (sigma_1 if which == "sigma_1" else sigma_het)
    sd = decompose(theta, sigma, 40, n_eig=1)
    diagnostics = {}
    got = density.normalizing_constant(sd, diagnostics=diagnostics)
    want = oracles.simplex_quadrature(
        lambda y: np.exp(model.mean_fitness(sd.params, y)), 3, 120,
        theta=theta)
    assert got == pytest.approx(want, rel=1e-7)
    assert 1.0 <= diagnostics["C_stat_kappa"] < 10.0


@pytest.mark.parametrize("theta, sigma", [
    ((0.01, 0.02, 0.03), [[12.0, 14.0, 15.0], [14.0, 11.0, 13.0],
                          [15.0, 13.0, 0.0]]),
    ((0.3, 0.4, 0.3), [[60.0, 14.0, 15.0], [14.0, 55.0, 13.0],
                       [15.0, 13.0, 0.0]]),
    ((1.0, 1.0, 1.0), [[-4.0, 2.0, 1.0], [2.0, 3.0, -2.0], [1.0, -2.0, 0.0]]),
    ((0.5, 0.5, 1.0), np.zeros((3, 3)))])
def test_normconst_bounds_hold_against_quadrature(theta, sigma):
    p = model.ModelParams(theta, sigma)
    lo, hi = density.log_normconst_bounds(p)
    want = oracles.simplex_quadrature(
        lambda y: np.exp(model.mean_fitness(p, y)), 3, 120, theta=theta)
    assert lo <= math.log(want) + 1e-12 and math.log(want) <= hi + 1e-12
    if not p.is_neutral:
        assert lo < hi
    else:   # both bounds are log B(theta), here log pi
        assert lo == hi == pytest.approx(math.log(math.pi), rel=1e-14)


def test_normconst_outside_its_bounds_is_refused():
    # an unconverged series: C_stat 7927.9 where the exact value is above
    # e^168, Jensen's lower bound
    sd = decompose([0.01, 0.02, 0.03], np.diag([1000.0, 0.0, 0.0]), 40,
                   n_eig=1)
    with pytest.raises(NumericalError, match="closed-form bounds"):
        density.normalizing_constant(sd)


def test_stationary_density_integrates_to_one(theta_unit, sigma_1):
    sd = decompose(theta_unit, sigma_1, 24)
    pts, w = simplex_quadrature(theta_unit, nodes=60)
    # weights already carry the Dirichlet kernel; divide it back out
    p = sd.params
    kernel = np.exp(model.log_stationary_unnormalized(p, pts)
                    - model.mean_fitness(p, pts))
    vals = density.stationary_density(sd, pts)
    total = float(np.sum(w * vals / kernel))
    assert total == pytest.approx(1.0, rel=1e-8)


def test_two_path_neutral_agreement(theta_unit):
    p = ModelParams(theta_unit, np.zeros((3, 3)))
    sd = spectral.decompose(p, 12)
    x = np.array([0.25, 0.35])
    rng = np.random.default_rng(0)
    y = rng.dirichlet(np.ones(3), size=40)[:, :2]
    via_eigen = density.transition_density(sd, 0.5, x, y)
    via_series = density.neutral_transition_density(p, 0.5, x, y, 12)
    assert np.allclose(via_eigen, via_series, rtol=1e-6)


def test_neutral_reversibility(theta_unit):
    # pi0(x) p(t; x, y) symmetric in (x, y) without selection
    p = ModelParams(theta_unit, np.zeros((3, 3)))
    sd = spectral.decompose(p, 14)
    x = np.array([0.3, 0.3])
    y = np.array([0.15, 0.5])
    t = 0.6
    lhs = (np.exp(model.log_stationary_unnormalized(p, x))
           * density.transition_density(sd, t, x, y))
    rhs = (np.exp(model.log_stationary_unnormalized(p, y))
           * density.transition_density(sd, t, y, x))
    assert lhs == pytest.approx(rhs, rel=1e-8)


def test_selected_detailed_balance(theta_unit, sigma_1):
    # Pi(x) p(t; x, y) = Pi(y) p(t; y, x) with selection
    sd = decompose(theta_unit, sigma_1, 20)
    p = sd.params
    x = np.array([0.3, 0.3])
    y = np.array([0.15, 0.5])
    t = 0.4
    lhs = (np.exp(model.log_stationary_unnormalized(p, x))
           * density.transition_density(sd, t, x, y))
    rhs = (np.exp(model.log_stationary_unnormalized(p, y))
           * density.transition_density(sd, t, y, x))
    assert lhs == pytest.approx(rhs, rel=1e-6)


def test_neutral_density_integrates_to_one():
    theta = [1.0, 1.0, 1.0]
    p = ModelParams(theta, np.zeros((3, 3)))
    sd = spectral.decompose(p, 16)
    pts, w = simplex_quadrature(theta, nodes=50)
    x = np.array([0.4, 0.3])
    vals = density.smooth_kernel(sd, 0.5, x, pts)[0]
    assert float(np.sum(w * vals)) == pytest.approx(1.0, rel=1e-4)


def test_smooth_kernel_times_kernel_is_density(theta_unit, sigma_1):
    sd = decompose(theta_unit, sigma_1, 14)
    p = sd.params
    x = np.array([0.3, 0.4])
    rng = np.random.default_rng(5)
    y = rng.dirichlet(np.ones(3), size=25)[:, :2]
    t = 0.3
    smooth = density.smooth_kernel(sd, t, x, y)[0]
    direct = density.transition_density(sd, t, x, y)
    rebuilt = smooth * np.exp(model.log_stationary_unnormalized(p, y)
                              - model.mean_fitness(p, y))
    assert np.allclose(rebuilt, direct, rtol=1e-10)


def test_long_time_limit_is_stationary(theta_unit, sigma_1):
    sd = decompose(theta_unit, sigma_1, 20)
    x = np.array([0.3, 0.3])
    rng = np.random.default_rng(6)
    y = rng.dirichlet(np.ones(3), size=30)[:, :2]
    limit = density.transition_density(sd, 50.0, x, y)
    target = density.stationary_density(sd, y)
    assert np.allclose(limit, target, rtol=1e-4)


def test_positive_time_required(theta_unit):
    sd = decompose(theta_unit, np.zeros((3, 3)), 6)
    x = np.array([0.3, 0.3])
    with pytest.raises(ParameterError):
        density.transition_density(sd, 0.0, x, x)
    with pytest.raises(ParameterError):
        density.neutral_transition_density(sd.params, -1.0, x, x, 6)
    with pytest.raises(ParameterError):
        density.distance_to_stationarity(sd, x, [0.5, 0.0])


def test_infinite_time_refused(theta_unit, sigma_1):
    # Lambda_0 is 7.4e-10 here, so e^{-Lambda t} at t = inf would give 0
    # everywhere where the limit is the stationary density
    sd = decompose(theta_unit, sigma_1, 12)
    x = np.array([0.3, 0.3])
    grid = density.make_grid(3, 10)
    for t in (np.inf, [0.5, np.inf]):
        with pytest.raises(ParameterError, match="finite"):
            density.transition_density(sd, t, x, grid)
        with pytest.raises(ParameterError, match="finite"):
            density.smooth_kernel(sd, t, x, grid)
        with pytest.raises(ParameterError, match="finite"):
            density.distance_to_stationarity(sd, x, np.atleast_1d(t))
    with pytest.raises(ParameterError, match="finite"):
        density.neutral_transition_density(
            ModelParams(theta_unit, np.zeros((3, 3))), np.inf, x, grid, 6)


def test_neutral_path_requires_neutral_model(theta_unit, sigma_1):
    p = ModelParams(theta_unit, sigma_1)
    x = np.array([0.3, 0.3])
    with pytest.raises(ParameterError):
        density.neutral_transition_density(p, 0.5, x, x, 6)


def test_small_time_undershoot_warns_and_clips(theta_unit):
    # a coarse truncation at small t leaves negative ripples near the edge
    sd = decompose(theta_unit, np.zeros((3, 3)), 8)
    x = np.array([0.45, 0.45])
    y = density.make_grid(3, 25)
    with pytest.warns(UserWarning):
        vals = density.transition_density(sd, 0.01, x, y)
    assert np.min(vals) < 0
    with pytest.warns(UserWarning):
        clipped = density.transition_density(sd, 0.01, x, y,
                                             clip_negative=True)
    assert np.min(clipped) == 0.0


def test_tail_weight_warning(theta_unit):
    sd = decompose(theta_unit, np.zeros((3, 3)), 10)
    x = np.array([0.3, 0.3])
    with pytest.warns(UserWarning, match="n_max"):
        density.transition_density(sd, 0.05, x, x, n_max=3)


def test_positivity_on_interior_grid(theta_small, sigma_1):
    # the package is allowed to warn about small boundary undershoot at the
    # earliest time; the assertion is that it stays within the stated bound
    import warnings

    sd = decompose(theta_small, sigma_1, 24)
    x = np.array([0.02, 0.02])
    pts = density.make_grid(3, 20)
    for t in (0.04, 0.2, 1.0, 2.0):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            vals = density.transition_density(sd, t, x, pts)
        assert np.min(vals) >= -1e-3 * np.max(vals)


def test_distance_curve_decay_rate(theta_unit, sigma_1):
    sd = decompose(theta_unit, sigma_1, 16)
    x = np.array([0.3, 0.3])
    times = np.linspace(0.05, 3.0, 20)
    d2 = density.distance_to_stationarity(sd, x, times)
    assert np.all(np.diff(d2) < 0)
    # late enough that the subdominant eigenterms have died off, the curve
    # is single-exponential with rate 2 Lambda_1
    late = np.linspace(6.0, 10.0, 9)
    d2_late = density.distance_to_stationarity(sd, x, late)
    slope = np.diff(np.log(d2_late)) / np.diff(late)
    assert slope[-1] == pytest.approx(-2.0 * sd.eigenvalues[1], rel=1e-4)


def test_distance_terms_have_unit_norm(theta_small, sigma_1):
    # every B~_n keeps all its coefficients, so it has unit C-norm and the
    # distance terms need no divisor
    sd = decompose(theta_small, 5 * sigma_1, 20)
    norms = (sd.coeffs ** 2 * np.exp(sd.log_norms)).sum(axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-13
    x = np.array([0.2, 0.25])
    times = [0.05, 0.5, 2.0]
    bx = density.eigenfunctions(sd, x[None, :], sd.n_eig)[:, 0]
    divided = (np.exp(-2.0 * np.outer(times, sd.eigenvalues[1:]))
               @ (bx[1:] ** 2 / norms[1:]))
    got = density.distance_to_stationarity(sd, x, times, n_max=sd.n_eig)
    assert np.allclose(got, divided, rtol=1e-13, atol=0)


def test_distance_scalar_time(theta_unit, sigma_1):
    sd = decompose(theta_unit, sigma_1, 10)
    x = np.array([0.3, 0.3])
    one = density.distance_to_stationarity(sd, x, [1.0])
    assert one.shape == (1,)
    assert one[0] > 0


def test_make_grid_properties():
    pts = density.make_grid(3, 30)
    h = 1.0 / 30
    assert np.min(pts) >= 0.5 * h - 1e-15
    assert np.max(pts.sum(axis=1)) <= 1.0 - 0.5 * h + 1e-15
    # interior triangle of a 30x30 midpoint lattice
    assert len(pts) == sum(30 - i - 1 for i in range(30))
    with pytest.raises(ParameterError):
        density.make_grid(3, 1)


def test_cutoff_validation(theta_unit):
    sd = decompose(theta_unit, np.zeros((3, 3)), 6)
    x = np.array([0.3, 0.3])
    with pytest.raises(ParameterError):
        density.transition_density(sd, 0.5, x, x, n_max=0)
    with pytest.raises(ParameterError):
        density.transition_density(sd, 0.5, x, x, n_max=9999)
    # m_max is retired: None and D keep every degree, nothing else runs
    for m_max in (-1, 5, 99):
        with pytest.raises(ParameterError, match="all degrees"):
            density.transition_density(sd, 0.5, x, x, m_max=m_max)
        with pytest.raises(ParameterError, match="all degrees"):
            density.smooth_kernel(sd, 0.5, x, x, m_max=m_max)
    assert (density.transition_density(sd, 0.5, x, x, m_max=6)
            == density.transition_density(sd, 0.5, x, x))
    with pytest.raises(ParameterError):
        density.transition_density(sd, 0.5, np.array([0.3, 0.3, 0.1]), x)


@pytest.mark.parametrize("x, times", [
    ([0.3, 0.3, 0.1], [0.5, 1.0]), ([[0.3, 0.3]], [0.5, 1.0]),
    ([np.nan, 0.3], [0.5, 1.0]), ([0.3, 0.3], [0.5, np.nan]),
    ([0.3, 0.3], [[0.5, 1.0]])])
def test_distance_checks_its_start_point_and_times(theta_unit, x, times):
    sd = decompose(theta_unit, np.zeros((3, 3)), 6)
    with pytest.raises(ParameterError):
        density.distance_to_stationarity(sd, x, times)
    with pytest.raises(ParameterError):
        density.transition_density(sd, times, x, [0.2, 0.2])


def test_partial_decomposition_cutoffs(theta_unit, sigma_1):
    full = decompose(theta_unit, sigma_1, 10)
    sd = decompose(theta_unit, sigma_1, 10, n_eig=5)
    x = np.array([0.3, 0.3])
    ys = np.array([[0.2, 0.3], [0.5, 0.1]])
    for call in (lambda: density.transition_density(sd, 0.5, x, ys, n_max=6),
                 lambda: density.distance_to_stationarity(sd, x, [1.0],
                                                          n_max=6)):
        with pytest.raises(ParameterError, match="the 5 this decomposition"):
            call()
    # the default cutoff is what the decomposition holds
    d2 = density.distance_to_stationarity(sd, x, [0.5, 1.0])
    want = density.distance_to_stationarity(full, x, [0.5, 1.0], n_max=5)
    assert np.allclose(d2, want, rtol=1e-10)
    # pair 5 is not held, so the tail check bounds its weight by pair 4's
    with pytest.warns(UserWarning, match="n_max"):
        got = density.transition_density(sd, 0.5, x, ys)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = density.transition_density(full, 0.5, x, ys, n_max=5)
    assert np.allclose(got, want, rtol=1e-10)


def test_csv_writers(tmp_path):
    pts = np.array([[0.2, 0.3], [0.1, 0.5]])
    vals = np.array([1.25, 0.5])
    dpath = tmp_path / "dens.csv"
    density.write_density_csv(dpath, pts, vals, 3)
    lines = dpath.read_text().splitlines()
    assert lines[0] == "y_1,y_2,p"
    assert lines[1].split(",") == ["0.20000000000000001", "0.29999999999999999",
                                   "1.25"]
    tpath = tmp_path / "dist.csv"
    density.write_distance_csv(tpath, [0.5, 1.0], [2e-3, 1e-4])
    tlines = tpath.read_text().splitlines()
    assert tlines[0] == "t,d2"
    assert [float(v) for v in tlines[2].split(",")] == [1.0, 1e-4]


def rowwise_write_density_csv(path, points, values, K):
    """write_density_csv one f-string row at a time, for reference."""
    header = ",".join(f"y_{i + 1}" for i in range(K - 1)) + ",p"
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for pt, v in zip(points, values):
            coords = ",".join(f"{c:.17g}" for c in pt)
            fh.write(f"{coords},{v:.17g}\n")


@pytest.mark.parametrize("K,rows", [(2, 3), (3, 2500), (4, 0), (4, 1025)])
def test_density_csv_matches_rowwise_bytes(tmp_path, K, rows):
    rng = np.random.default_rng(rows)
    pts = rng.dirichlet(np.ones(K), size=rows)[:, :K - 1]
    vals = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
    vals[:5] = [0.0, -0.0, np.inf, np.nan, -np.inf][:rows]
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    density.write_density_csv(got, pts, vals, K)
    rowwise_write_density_csv(want, pts, vals, K)
    assert got.read_bytes() == want.read_bytes()


def rowwise_write_distance_csv(path, times, distances):
    """write_distance_csv one f-string row at a time, for reference."""
    with open(path, "w", newline="") as fh:
        fh.write("t,d2\n")
        for t, d in zip(times, distances):
            fh.write(f"{t:.17g},{d:.17g}\n")


def test_distance_csv_matches_rowwise_bytes(tmp_path, theta_unit, sigma_1):
    sd = decompose(theta_unit, sigma_1, 8)
    times = np.linspace(0.05, 3.0, 20)
    d2 = density.distance_to_stationarity(sd, [0.2, 0.3], times)
    times = np.append(times, [1e-300, 1e300, 7.0, 0.1])
    d2 = np.append(d2, [np.inf, 0.0, -0.0, np.nan])
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    density.write_distance_csv(got, times, d2)
    rowwise_write_distance_csv(want, times, d2)
    assert got.read_bytes() == want.read_bytes()


# -- batched times ------------------------------------------------------------

@pytest.fixture(scope="module", params=[3, 4], ids=["K3", "K4"])
def selected_sd(request, theta_unit, sigma_1):
    if request.param == 3:
        return decompose(theta_unit, sigma_1, 16)
    return decompose([0.3, 0.4, 0.3, 0.5], SIGMA_K4, 8)


def random_points(K, size, seed):
    return np.random.default_rng(seed).dirichlet(np.ones(K), size)[..., :K - 1]


def series_scale(sd, t, x, y, log_wy):
    """max over x and y of sum_n e^{-Lambda_n t} |B~_n(x) B~_n(y)|, with the
    weights e^{-sbar(x)/2} and e^{log_wy(y)} the series carries: the size of
    its terms, which scales its rounding error."""
    n_max = density._resolve_cutoffs(sd, None)
    bx = density.eigenfunctions(sd, np.atleast_2d(x), n_max)
    by = density.eigenfunctions(sd, y, n_max) * np.exp(
        0.5 * model.mean_fitness(sd.params, y) + log_wy)
    decay = np.exp(-t * sd.eigenvalues[:n_max])
    return np.max((decay[:, None] * np.abs(bx)).T @ np.abs(by))


@settings(max_examples=20, deadline=None)
@given(times=st.lists(st.floats(0.005, 4.0), min_size=1, max_size=6),
       seed=st.integers(0, 2 ** 16))
# at t = 0.0625 the terms reach 209 times max |p|, and the two calls differ
# by 1.7e-13 of max |p|
@example(times=[1.0, 0.0625], seed=5698)
def test_batched_times_match_scalar_calls(selected_sd, times, seed):
    # the batched and the scalar calls sum in different orders, so they
    # agree to a few ulps of the size of the terms the series sums; over 600
    # draws the gap was at most 7 ulps of it
    sd = selected_sd
    K = sd.params.K
    x = random_points(K, None, seed)
    xs = random_points(K, 3, seed + 1)
    y = random_points(K, 40, seed + 2)
    sbar = model.mean_fitness(sd.params, y)
    log_wy = {"density": model.log_stationary_unnormalized(sd.params, y)
              - 0.5 * sbar, "kernel": 0.5 * sbar}
    ulps = 32 * np.finfo(float).eps
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        dens = density.transition_density(sd, np.array(times), x, y)
        kern = density.smooth_kernel(sd, np.array(times), xs, y)
        for i, t in enumerate(times):
            one = density.transition_density(sd, t, x, y)
            assert np.max(np.abs(dens[i] - one)) <= ulps * series_scale(
                sd, t, x, y, log_wy["density"])
            one = density.smooth_kernel(sd, t, xs, y)
            assert np.max(np.abs(kern[i] - one)) <= ulps * series_scale(
                sd, t, xs, y, log_wy["kernel"])


def test_scalar_and_batched_return_shapes(theta_unit, sigma_1):
    sd = decompose(theta_unit, sigma_1, 8)
    x = np.array([0.3, 0.3])
    y = random_points(3, (4, 5), 0)
    times = np.array([0.2, 0.5, 1.0])
    one = density.transition_density(sd, 0.5, x, x)
    assert isinstance(one, float)
    assert density.transition_density(sd, 0.5, x, y).shape == (4, 5)
    assert density.transition_density(sd, 0.5, x, y[0]).shape == (5,)
    assert density.transition_density(sd, times, x, x).shape == (3,)
    assert density.transition_density(sd, times, x, y).shape == (3, 4, 5)
    assert density.transition_density(sd, [0.5], x, x)[0] == one
    assert density.smooth_kernel(sd, 0.5, x, x).shape == (1, 1)
    assert density.smooth_kernel(sd, 0.5, y[0], x).shape == (5, 1)
    assert density.smooth_kernel(sd, times, x, y[0]).shape == (3, 1, 5)
    with pytest.raises(ParameterError):
        density.transition_density(sd, np.array([0.5, -1.0]), x, y)
    with pytest.raises(ParameterError):
        density.smooth_kernel(sd, np.ones((2, 2)), x, y)


def test_tail_warning_fires_once_per_time(theta_unit):
    sd = decompose(theta_unit, np.zeros((3, 3)), 10)
    x = np.array([0.3, 0.3])
    with warnings.catch_warnings(record=True) as notes:
        warnings.simplefilter("always")
        density.transition_density(sd, [0.05, 50.0, 0.1], x, x, n_max=3)
    tails = [str(w.message) for w in notes if "n_max" in str(w.message)]
    assert len(tails) == 2
    assert "t=0.05;" in tails[0] and "t=0.1;" in tails[1]


def test_undershoot_warns_and_clips_per_time(theta_unit):
    sd = decompose(theta_unit, np.zeros((3, 3)), 8)
    x = np.array([0.45, 0.45])
    y = density.make_grid(3, 25)
    times = [0.01, 5.0, 0.012]
    with warnings.catch_warnings(record=True) as notes:
        warnings.simplefilter("always")
        raw = density.transition_density(sd, times, x, y)
        clipped = density.transition_density(sd, times, x, y,
                                              clip_negative=True)
        singles = [density.transition_density(sd, t, x, y,
                                               clip_negative=True)
                   for t in times]
    under = [str(w.message) for w in notes if "undershoot" in str(w.message)]
    negative = [bool(np.min(v) < 0) for v in raw]
    assert negative == [True, False, True]
    assert len(under) == 3 * sum(negative)
    # each batched warning carries the same numbers as its scalar call
    assert under[:2] == under[4:]
    for i in range(len(times)):
        assert np.min(clipped[i]) >= 0.0
        assert np.array_equal(clipped[i], np.maximum(raw[i], 0.0))
        scale = np.max(np.abs(singles[i]))
        assert np.max(np.abs(clipped[i] - singles[i])) <= 1e-13 * scale


def test_diagnostics_carry_the_warned_numbers(theta_unit):
    sd = decompose(theta_unit, np.zeros((3, 3)), 8)
    x = np.array([0.45, 0.45])
    y = density.make_grid(3, 25)
    times = [0.01, 5.0, 0.012]
    full, cut = {}, {}
    with warnings.catch_warnings(record=True) as notes:
        warnings.simplefilter("always")
        clipped = density.transition_density(sd, times, x, y,
                                             clip_negative=True,
                                             diagnostics=full)
        raw = density.transition_density(sd, times, x, y)
        density.transition_density(sd, times, x, y, n_max=3,
                                   diagnostics=cut)
    assert set(full) == {"tail_weight", "undershoot", "max_density"}
    # the extremes are taken before clipping, each with 0
    assert full["undershoot"] == np.minimum(raw.min(axis=1), 0.0).tolist()
    assert [u < 0 for u in full["undershoot"]] == [True, False, True]
    assert full["max_density"] == raw.max(axis=1).tolist()
    assert np.all(clipped >= 0.0)
    under = [str(w.message) for w in notes if "undershoot" in str(w.message)]
    assert under[:2] == [
        f"truncation undershoot: most negative value {neg:.3e} against "
        f"maximum {top:.3e}"
        for neg, top in zip(full["undershoot"], full["max_density"])
        if neg < 0]
    # no dropped pair without a cut; with n_max = 3, e^{-Lambda_3 t}
    assert full["tail_weight"] == [0.0] * 3
    assert cut["tail_weight"] == np.exp(-sd.eigenvalues[3]
                                        * np.array(times)).tolist()
    tails = [str(w.message) for w in notes if "n_max" in str(w.message)]
    assert [note.split("weight ")[1].split(" ")[0] for note in tails] == [
        f"{w:.2e}" for w in cut["tail_weight"]
        if w > density.TAIL_WARN_THRESHOLD]


def test_empty_point_batches(selected_sd):
    sd = selected_sd
    K = sd.params.K
    x = random_points(K, None, 3)
    empty = np.empty((0, K - 1))
    times = [0.1, 1.0]
    diagnostics = {}
    out = density.transition_density(sd, times, x, empty,
                                     diagnostics=diagnostics)
    assert out.shape == (2, 0)
    assert diagnostics["undershoot"] == diagnostics["max_density"] == [0.0] * 2
    assert density.transition_density(sd, 0.1, x, empty).shape == (0,)
    assert density.smooth_kernel(sd, times, x, empty).shape == (2, 1, 0)
    assert density.smooth_kernel(sd, times, empty, x).shape == (2, 0, 1)
    assert density.smooth_kernel(sd, 0.1, empty, empty).shape == (0, 0)
    # a point needs its K-1 coordinates, an empty batch or not
    for bad in (np.empty((0,)), np.empty((3, 0)), np.empty((0, 0))):
        with pytest.raises(ParameterError):
            density.transition_density(sd, 0.1, x, bad)
        with pytest.raises(ParameterError):
            density.smooth_kernel(sd, 0.1, x, bad)
        with pytest.raises(ParameterError):
            density.smooth_kernel(sd, 0.1, bad, x)


def test_series_evaluates_the_basis_at_the_start_point_only(
        theta_small, sigma_1, monkeypatch):
    # the level-D basis is evaluated at x alone; the sum over the y grid
    # evaluates only the (K-1)-type suffix basis, up to degree D, which the
    # level-D evaluation at x also goes through
    sd = decompose(theta_small, sigma_1, 16)
    seen = []
    evaluate = MultiJacobiBasis.eval_prefix_cube

    def spy(self, xi, count=None):
        seen.append((self, np.shape(xi), count))
        return evaluate(self, xi, count)

    monkeypatch.setattr(MultiJacobiBasis, "eval_prefix_cube", spy)
    grid = density.make_grid(3, 100)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        out = density.transition_density(sd, [0.1, 1.0],
                                         np.array([0.3, 0.3]), grid)
    assert out.shape == (2, len(grid))
    assert [shape for basis, shape, _ in seen if basis is sd.basis] == [(1, 2)]
    shapes = []
    for basis, shape, count in seen:
        if basis is not sd.basis:
            assert basis.K == 2
            assert list(basis.theta) == list(theta_small[1:])
            assert count <= total_count(2, sd.D)
            shapes.append(shape)
    assert sorted(set(shapes)) == [(1, 1), (len(grid), 1)]


def test_neutral_oracle_keeps_its_own_path(theta_unit, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the neutral oracle sums its own series")

    monkeypatch.setattr(MultiJacobiBasis, "sum_prefix_cube", refuse)
    p = ModelParams(theta_unit, np.zeros((3, 3)))
    y = density.make_grid(3, 6)
    out = density.neutral_transition_density(p, 0.5, np.array([0.3, 0.3]),
                                             y, 8)
    assert out.shape == (len(y),)


def test_density_rows_do_not_depend_on_the_batch(selected_sd):
    # the benchmark checks 16 CSV rows against a recomputation at 1e-9
    sd = selected_sd
    K = sd.params.K
    grid = density.make_grid(K, 100 if K == 3 else 30)
    rows = np.unique(np.linspace(0, len(grid) - 1, 16).astype(int))
    times = [0.04, 0.2, 1.0, 2.0]
    x = random_points(K, None, 7)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        full = density.transition_density(sd, times, x, grid)
        part = density.transition_density(sd, times, x, grid[rows])
    scale = np.max(np.abs(full), axis=1, keepdims=True)
    assert np.all(np.abs(part - full[:, rows]) <= 1e-13 * scale)
