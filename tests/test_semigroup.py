"""The all-pairs density and distance by Krylov (a null n_max) against
independent sums.

With a null n_max, density.transition_density and
density.distance_to_stationarity sum all U pairs. From a decomposition that
holds fewer, one holding only the lead pair included, they apply exp(-tS)
to one vector (spectral.semigroup_action, Lanczos). These tests hold them to
the full-eigh series over all U pairs, the density also to the neutral
closed form, to quadrature, and both to a higher truncation, and check the
refusal. The kernel with more start points than end points runs from the
end points; it is held to the kernel built one start point at a time.
"""

import json
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from wfspectral import cli, density, model, spectral
from wfspectral.errors import NumericalError
from wfspectral.model import ModelParams
from wfspectral.oracles import simplex_quadrature
from wfspectral.simplex import to_cube

# of max|p|: two summation orders of the all-pairs eigen-series itself
# differ by about 1e-12 at the benchmark model
MATCH = 5e-12
TIMES = np.array([0.04, 0.2, 1.0, 2.0])
# the benchmark's seed-1 k3_default config (bench/workloads.py)
SHIPPED_X = np.array([0.1269, 0.2695])
SHIPPED_TIMES = np.array([0.0453, 0.1755, 0.9982, 1.9596])
# README states both: the mass of the D=40 density against quadrature, and
# its distance from the D=48 all-pairs series, as a share of max|p|
SHIPPED_MASS = 1e-8
SHIPPED_D48 = 5e-12
# relative, per time: the Krylov d^2 against the full-eigh all-pairs d^2 of
# the same truncation (over 750 random draws of the property test the worst
# was 3.2e-12), and at the shipped config against the D=48 all-pairs d^2
DISTANCE_MATCH = 1e-10
DISTANCE_TIMES = np.linspace(0.05, 3.0, 20)   # the CLI's default grid
# bench/workloads.py's SIGMA_K4: SIGMA_1 bordered by (10, 9, 8, 0)
SIGMA_K4 = np.array([[12.0, 14.0, 15.0, 10.0],
                     [14.0, 11.0, 13.0, 9.0],
                     [15.0, 13.0, 0.0, 8.0],
                     [10.0, 9.0, 8.0, 0.0]])


def krylov_density(p, D, times, x, y):
    """The null-n_max density from a one-pair decomposition, and its
    diagnostics."""
    sd = spectral.decompose(p, D, n_eig=1)
    diagnostics = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # rounding undershoot
        out = density.transition_density(sd, times, x, y,
                                          diagnostics=diagnostics)
    return out, diagnostics


def all_pairs(full, times, x, y):
    """The eigen-series over all U pairs of a full eigh solve."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return density.transition_density(full, times, x, y,
                                          n_max=full.n_eig)


def check_distance(p, D, x, times, full):
    """The null-n_max d^2 from a one-pair decomposition at level D, within
    DISTANCE_MATCH per time of the all-pairs d^2 of the full decomposition
    `full`; returns it."""
    d2 = density.distance_to_stationarity(
        spectral.decompose(p, D, n_eig=1), x, times)
    want = density.distance_to_stationarity(full, x, times, n_max=full.n_eig)
    assert np.all(np.abs(d2 / want - 1) <= DISTANCE_MATCH)
    return d2


def expm_density(p, D, times, x, y):
    """The density from scipy.linalg.expm of the dense S (Pade), summed over
    the basis as the library sums a coefficient row."""
    sd = spectral.decompose(p, D, n_eig=1)
    S = sd.symmetric.toarray()
    scale = np.exp(-0.5 * sd.log_norms)
    v = (scale * sd.basis.eval_prefix_cube(to_cube(x))
         * np.exp(-0.5 * model.mean_fitness(p, x)))
    w = np.array([scale * (scipy.linalg.expm(-t * S) @ v) for t in times])
    log_wy = (model.log_stationary_unnormalized(p, y)
              - 0.5 * model.mean_fitness(p, y))
    return sd.basis.sum_prefix_cube(w, to_cube(y)) * np.exp(log_wy)


def errors(got, ref):
    """max|got - ref| per time, as a share of that time's max|ref|."""
    return np.abs(got - ref).max(axis=1) / np.abs(ref).max(axis=1)


def random_model(rng, K, scale):
    theta = rng.uniform(0.05, 2.0, size=K)
    sigma = rng.uniform(-scale, scale, size=(K, K))
    sigma = sigma + sigma.T
    sigma[K - 1, K - 1] = 0.0
    return ModelParams(theta, sigma)


def check_against(reference, p, D, x, y, monkeypatch):
    """The match at the shipped tolerance, then the estimate at a loose one.

    Loosened, the Krylov error dominates rounding, and the recorded
    estimate must be at least the observed error wherever it is above the
    rounding level MATCH; everywhere the observed error is at most the
    larger of the two.
    """
    got, diagnostics = krylov_density(p, D, TIMES, x, y)
    assert np.all(errors(got, reference) <= MATCH)
    assert diagnostics["tail_weight"] == [0.0] * len(TIMES)
    monkeypatch.setattr(spectral, "KRYLOV_TOL", 1e-6)
    got, diagnostics = krylov_density(p, D, TIMES, x, y)
    estimate = np.array(diagnostics["krylov_error"])
    observed = errors(got, reference)
    assert np.all(observed <= np.maximum(estimate, MATCH))
    return estimate, observed, diagnostics["krylov_steps"]


@settings(max_examples=12, deadline=None)
@given(K=st.sampled_from([2, 3, 4]), seed=st.integers(0, 2 ** 16))
def test_null_n_max_matches_the_all_pairs_series(K, seed):
    rng = np.random.default_rng(seed)
    p = random_model(rng, K, 5.0)
    D = {2: 30, 3: 16, 4: 8}[K]
    x = rng.dirichlet(np.ones(K))[:K - 1]
    y = rng.dirichlet(np.ones(K), size=40)[:, :K - 1]
    times = np.sort(rng.uniform(0.01, 3.0, size=3))
    got, diagnostics = krylov_density(p, D, times, x, y)
    full = spectral.decompose(p, D)
    ref = all_pairs(full, times, x, y)
    # the eigen-series carries the rounding of its eigenvectors, which at
    # some models is above MATCH: where it and the expm series differ by
    # more than MATCH / 2, the bound is twice their distance
    spread = errors(expm_density(p, D, times, x, y), ref).max()
    assert np.all(errors(got, ref) <= max(MATCH, 2 * spread))
    assert len(diagnostics["krylov_steps"]) == len(times)
    check_distance(p, D, x, times, full)


def test_five_alleles(monkeypatch):
    rng = np.random.default_rng(5)
    p = random_model(rng, 5, 6.0)
    x = np.full(4, 0.2)
    y = rng.dirichlet(np.ones(5), size=100)[:, :4]
    ref = all_pairs(spectral.decompose(p, 8), TIMES, x, y)
    estimate, observed, _ = check_against(ref, p, 8, x, y, monkeypatch)
    assert np.any(estimate > MATCH)   # the loose run stopped early


def test_strong_selection(sigma_1, theta_small, monkeypatch):
    # at grid resolution 60 the reference itself is the limit: LAPACK's evd
    # and evr series differ there by 7e-11 of max|p| near the y_3 = 0 edge
    p = ModelParams(theta_small, 5.0 * sigma_1)
    x = np.array([0.2, 0.3])
    y = density.make_grid(3, 30)
    full = spectral.decompose(p, 40)
    ref = all_pairs(full, TIMES, x, y)
    estimate, _, _ = check_against(ref, p, 40, x, y, monkeypatch)
    assert np.any(estimate > MATCH)
    # d^2 falls to 2e-31 here, and holds its relative accuracy
    assert np.all(np.diff(check_distance(p, 40, x, DISTANCE_TIMES, full)) < 0)


@pytest.mark.parametrize("D", [4, 12])
def test_neutral_against_the_closed_form(theta_small, D, monkeypatch):
    p = ModelParams(theta_small, np.zeros((3, 3)))
    x = np.array([0.2, 0.3])
    y = density.make_grid(3, 12)
    ref = np.array([density.neutral_transition_density(p, t, x, y, D)
                    for t in TIMES])
    estimate, _, steps = check_against(ref, p, D, x, y, monkeypatch)
    if D == 4:
        # U = 15 is below the first check: the run ends at m = U, exact
        assert steps == [15] * len(TIMES)
        assert np.all(estimate <= 1e-12)


def test_shipped_config_mass_and_truncation(sigma_1, theta_small):
    p = ModelParams(theta_small, sigma_1)
    sd = spectral.decompose(p, 40, n_eig=1)
    for t in SHIPPED_TIMES:
        mass = simplex_quadrature(
            lambda y: density.smooth_kernel(sd, t, SHIPPED_X, y)[0],
            3, 60, theta=theta_small)
        assert abs(mass - 1.0) <= SHIPPED_MASS
    grid = density.make_grid(3, 100)
    got, _ = krylov_density(p, 40, SHIPPED_TIMES, SHIPPED_X, grid)
    d48 = spectral.decompose(p, 48)
    ref = all_pairs(d48, SHIPPED_TIMES, SHIPPED_X, grid)
    assert np.all(errors(got, ref) <= SHIPPED_D48)
    check_distance(p, 40, SHIPPED_X, DISTANCE_TIMES, d48)


@pytest.mark.parametrize("theta, sigma, D, x, t_max", [
    # the benchmark's seed-1 k3_default distance job (SIGMA_K4[:3, :3] is
    # SIGMA_1)
    ((0.01, 0.02, 0.03), SIGMA_K4[:3, :3], 40, SHIPPED_X, 3.0),
    # d^2 falls to 6e-8 of the lead term: taken off |exp(-tS) v|^2 instead
    # of out of v, that term would leave an error of 3e-5 of d^2
    ((0.3, 0.5), [[2.0, 1.0], [1.0, 0.0]], 30, [0.3], 20.0),
    # U = 969 > 562: the 562-pair default once dropped 1e-3 of d^2 here
    ((0.01, 0.02, 0.03, 0.04), SIGMA_K4, 16, [0.1, 0.1, 0.1], 3.0),
], ids=["k3_default", "K2", "K4_D16"])
def test_null_distance_matches_the_all_pairs_series(theta, sigma, D, x,
                                                    t_max):
    p = ModelParams(theta, sigma)
    full = spectral.decompose(p, D)
    times = np.linspace(0.05, t_max, 20)
    d2 = check_distance(p, D, x, times, full)
    assert np.all(np.diff(d2) < 0)
    # a full decomposition sums its own U pairs
    assert np.array_equal(
        density.distance_to_stationarity(full, x, times),
        density.distance_to_stationarity(full, x, times, n_max=full.n_eig))


SWAP_MODELS = {
    "K2": ((0.3, 0.5), [[2.0, 1.0], [1.0, 0.0]], 20),
    "K3": ((0.01, 0.02, 0.03), SIGMA_K4[:3, :3], 16),
    "K4": ((0.01, 0.02, 0.03, 0.04), SIGMA_K4, 8),
}


def by_rows(sd, times, xs, y, n_max=None):
    """smooth_kernel one start point at a time: never more start points
    than end points, so each row runs from its x."""
    return np.stack([density.smooth_kernel(sd, times, x[None], y, n_max)[:, 0]
                     for x in xs], axis=1)


@pytest.mark.parametrize("case", SWAP_MODELS)
def test_kernel_runs_from_the_smaller_batch(case, monkeypatch):
    theta, sigma, D = SWAP_MODELS[case]
    p = ModelParams(theta, sigma)
    K = p.K
    rng = np.random.default_rng(len(case) + K)
    xs = rng.dirichlet(np.ones(K), size=12)[:, :K - 1]
    ys = rng.dirichlet(np.ones(K), size=3)[:, :K - 1]
    full = spectral.decompose(p, D)
    one = spectral.decompose(p, D, n_eig=1)
    # the eigen-series over all U pairs, from x and from y
    want = by_rows(full, TIMES, xs, ys, full.n_eig)
    got = density.smooth_kernel(full, TIMES, xs, ys, full.n_eig)
    assert got.shape == (len(TIMES), 12, 3)
    assert np.all(errors(got.reshape(len(TIMES), -1),
                         want.reshape(len(TIMES), -1)) <= 1e-13)
    # from S, one Krylov run per point of the smaller batch
    runs = []
    action = spectral.semigroup_action

    def spy(S, v, times, scale):
        runs.append(len(v))
        return action(S, v, times, scale)

    monkeypatch.setattr(spectral, "semigroup_action", spy)
    got = density.smooth_kernel(one, TIMES, xs, ys)
    assert len(runs) == 3
    assert np.all(errors(got.reshape(len(TIMES), -1),
                         want.reshape(len(TIMES), -1)) <= MATCH)
    runs.clear()
    back = density.smooth_kernel(one, TIMES, ys, xs)
    assert len(runs) == 3
    assert np.all(errors(back.reshape(len(TIMES), -1),
                         by_rows(full, TIMES, ys, xs, full.n_eig).reshape(
                             len(TIMES), -1)) <= MATCH)
    # an empty batch runs nothing and keeps its axis
    runs.clear()
    empty = np.empty((0, K - 1))
    assert density.smooth_kernel(one, TIMES, xs, empty).shape == (4, 12, 0)
    assert density.smooth_kernel(one, 0.5, empty, ys).shape == (0, 3)
    assert density.smooth_kernel(full, TIMES, xs, empty, 5).shape == (
        4, 12, 0)
    assert runs == []


def test_swapped_kernel_takes_no_exponential_the_direct_one_does_not():
    # sbar(y) = 902.5 at y = (0.95, 0.02), so e^{sbar(y)} alone overflows
    # while e^{sbar(y)/2} does not: the direct kernel is finite, and so is
    # the kernel from y. Taken as e^{-sbar(y)/2} from y and e^{sbar(y)}
    # after, the entry at x = (0.87, 0.05), sbar = 756.9, 1.6e24 in the
    # direct kernel, would underflow to 0
    p = ModelParams((0.01, 0.02, 0.03), [[1000, 0, 0], [0, 0, 0], [0, 0, 0]])
    sd = spectral.decompose(p, 6)
    xs = np.array([[0.2, 0.3], [0.5, 0.2], [0.87, 0.05], [0.1, 0.1],
                   [0.3, 0.6]])
    y = np.array([[0.95, 0.02]])
    assert model.mean_fitness(p, y)[0] > np.log(np.finfo(float).max)
    want = by_rows(sd, [0.5], xs, y, sd.n_eig)
    with np.errstate(over="raise", invalid="raise"):
        got = density.smooth_kernel(sd, [0.5], xs, y, sd.n_eig)
    assert np.all(np.isfinite(want)) and np.all(want != 0)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    assert np.all(np.abs(got / want - 1) <= 1e-9)


@pytest.mark.filterwarnings("ignore::UserWarning")  # D=6 undershoots
def test_a_start_weight_whose_square_underflows():
    # sbar(x) = 810 at x = (0.9, 0.05), so the start vector carries the
    # weight e^{-sbar(x)/2} = 1e-176: its squared norm underflows to 0,
    # and |v| must not be taken as sqrt(v.v). d^2 carries e^{-sbar(x)},
    # which underflows on both routes
    x, y = np.array([0.9, 0.05]), density.make_grid(3, 12)
    p = ModelParams((0.01, 0.02, 0.03), [[1000, 0, 0], [0, 0, 0], [0, 0, 0]])
    one, full = spectral.decompose(p, 6, n_eig=1), spectral.decompose(p, 6)
    want = density.transition_density(full, TIMES, x, y)
    got = density.transition_density(one, TIMES, x, y)
    assert np.all(np.isfinite(want)) and np.abs(want).max() > 0
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    for sd in (one, full):
        assert np.all(density.distance_to_stationarity(sd, x, TIMES) == 0)
    # at sigma_11 = 3000 the weight e^{-1215} is 0 itself: refused
    p = ModelParams((0.01, 0.02, 0.03), [[3000, 0, 0], [0, 0, 0], [0, 0, 0]])
    one = spectral.decompose(p, 6, n_eig=1)
    with pytest.raises(NumericalError, match="non-zero norm"):
        density.transition_density(one, TIMES, x, y)
    with pytest.raises(NumericalError, match="non-zero norm"):
        density.distance_to_stationarity(one, x, TIMES)


@pytest.mark.parametrize("D, selected", [(10, False), (12, True)])
def test_a_time_beyond_double_precision_is_refused(D, selected, sigma_1,
                                                  theta_small):
    # exp(-t theta) overflows at the Ritz values below 0 (neutral, D=10) or
    # underflows at all of them (SIGMA_1, D=12): w is NaN or 0, never a
    # density. The distance's start vector has no lead component, so its w
    # underflows to the right limit, d^2 = 0, as the full decomposition
    # gives; rounding leaves v' a lead component of about 1.7e-18. A
    # RuntimeWarning on the way would fail the test
    p = ModelParams(theta_small, sigma_1 if selected else np.zeros((3, 3)))
    sd = spectral.decompose(p, D, n_eig=1)
    x, y, times = np.array([0.3, 0.3]), density.make_grid(3, 6), [1e300]
    with pytest.raises(NumericalError, match=r"t=1e\+300 is not repr"):
        density.transition_density(sd, times, x, y)
    want = density.distance_to_stationarity(spectral.decompose(p, D), x, times)
    assert np.array_equal(want, [0.0])
    assert density.distance_to_stationarity(sd, x, times) == pytest.approx(
        want, abs=1e-30)


def test_a_full_decomposition_sums_its_own_pairs(sigma_1, theta_small):
    p = ModelParams(theta_small, sigma_1)
    full = spectral.decompose(p, 8)
    assert full.symmetric is None
    assert spectral.decompose(p, 8, n_eig=3).symmetric.shape == (45, 45)
    x, y = np.array([0.3, 0.3]), density.make_grid(3, 6)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        got = density.transition_density(full, TIMES, x, y)
        want = density.transition_density(full, TIMES, x, y, n_max=45)
    assert np.array_equal(got, want)


def test_a_time_depends_on_itself_alone(sigma_1, theta_small):
    sd = spectral.decompose(ModelParams(theta_small, sigma_1), 16, n_eig=1)
    scale = np.exp(-0.5 * sd.log_norms)
    v = scale * sd.basis.eval_prefix_cube(np.array([0.3, 0.4]))
    times = np.array([2.0, 0.04, 0.5])
    w, steps, errs = spectral.semigroup_action(sd.symmetric, v, times, scale)
    for i, t in enumerate(times):
        one, [step], [err] = spectral.semigroup_action(
            sd.symmetric, v, np.array([t]), scale)
        assert np.array_equal(w[i], one[0])
        assert (step, err) == (steps[i], errs[i])
    assert steps[1] < steps[0]
    empty = spectral.semigroup_action(sd.symmetric, v, np.array([]), scale)
    assert empty[0].shape == (0, sd.size) and empty[1:] == ([], [])


def test_the_step_cap_is_refused(sigma_1, theta_small, monkeypatch, tmp_path,
                                 capsys):
    monkeypatch.setattr(spectral, "KRYLOV_MAX_STEPS", 20)
    sd = spectral.decompose(ModelParams(theta_small, sigma_1), 12, n_eig=1)
    with pytest.raises(NumericalError, match=r"error estimate \d\.\d\de"):
        density.transition_density(sd, 2.0, np.array([0.3, 0.3]),
                                   np.array([[0.2, 0.2]]))
    code = cli.main(["density", "--out", str(tmp_path), "--set",
                     "truncation=12", "--set",
                     f"model.sigma={json.dumps(sigma_1.tolist())}"])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "numerical" and "Krylov" in err["message"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.filterwarnings("ignore::UserWarning")  # D=12 undershoots
def test_density_sidecar_records_the_krylov_runs(tmp_path, sigma_1):
    sigma = f"model.sigma={json.dumps(sigma_1.tolist())}"
    code = cli.main(["density", "--out", str(tmp_path), "--set",
                     "truncation=12", "--set", sigma])
    assert code == 0
    meta = json.loads((tmp_path / "density_meta.json").read_text())
    times = cli.DEFAULT_CONFIG["times"]
    assert meta["n_max"] is None and meta["m_max"] == 12
    assert meta["eigenpairs"] == 1
    assert meta["tail_weight"] == [0.0] * len(times)
    assert len(meta["krylov_steps"]) == len(meta["krylov_error"]) == len(times)
    assert all(e <= spectral.KRYLOV_TOL for e in meta["krylov_error"])
    # an integer n_max keeps the truncated eigen-series and its fields
    code = cli.main(["density", "--out", str(tmp_path / "cut"), "--set",
                     "truncation=12", "--set", sigma, "--set", "n_max=20"])
    assert code == 0
    meta = json.loads((tmp_path / "cut" / "density_meta.json").read_text())
    assert meta["n_max"] == 20 and meta["eigenpairs"] == 21
    assert "krylov_steps" not in meta
