"""Transition density, stationary normalization, and convergence diagnostics.

The density at elapsed time t factors through the eigenbasis:

    p(t, x, y) = e^{-sbar(x)/2} [ sum_n e^{-Lambda_n t} B~_n(x) B~_n(y) ]
                 e^{+sbar(y)/2} pi0(y),

with B~_n the C-orthonormal polynomial combinations and pi0 the unnormalized
neutral stationary density. An integer n_max keeps that many eigenpairs,
each with all U coefficients of the level-D basis; a null n_max keeps all U.

The series is summed in basis space (see _series): the eigenpairs and the
start points fold into one coefficient row per (time, start point), and the
basis sums it at y without the (U, My) basis matrix. With all U pairs the
row is C^{-1/2} exp(-tS) v with v = e^{-sbar(x)/2} C^{-1/2} P(x), and the
squared distance to stationarity is |exp(-tS) v'|^2, v' being v less its
lead component: spectral.semigroup_action computes both from S alone. The
stationary density is pi(y) = e^{sbar(y)} pi0(y) / C_stat with C_stat
computed from the lead eigenvector without any quadrature, at its
best-conditioned point.
"""

import math
import warnings

import numpy as np

from . import csvout
from . import model as model_mod
from . import spectral
from .errors import NumericalError, ParameterError
from .indexing import BasisEnumeration
from .simplex import to_cube

# bench/spans.py pairs_used reads this, in traced runs; no code here does:
# a null n_max means all U pairs everywhere
DEFAULT_N_MAX = 562
TAIL_WARN_THRESHOLD = 1e-8
NORMCONST_GRID = 10    # grid resolution of the stationary-ratio candidates
# log C_stat may leave its closed-form bounds by this much, well above
# rounding: a neutral model lies on both bounds exactly
NORMCONST_SLACK = 1e-6


def _cutoff(sd, n_max, m_max=None):
    """The pairs a series sums: an integer n_max, checked against the pairs
    held, or for None all U: sd.size when all are held, else None (from S).

    m_max is None or D: every series keeps all degrees up to D. It stays a
    keyword for bench/checks.py, which passes density_meta.json's m_max.
    """
    if m_max not in (None, sd.D):
        raise ParameterError(
            f"m_max must be None or D={sd.D}, got {m_max}: every series "
            "keeps all degrees up to D")
    if n_max is None:
        return sd.size if sd.n_eig == sd.size else None
    if not 1 <= n_max <= sd.size:
        raise ParameterError(f"n_max must be in 1..{sd.size}, got {n_max}")
    if n_max > sd.n_eig:
        raise ParameterError(
            f"n_max={n_max} needs more eigenpairs than the {sd.n_eig} "
            f"this decomposition holds; decompose with n_eig >= {n_max}")
    return n_max


def _phi_at(sd, pts, n_max, u_m):
    """Evaluate the first n_max orthonormal combinations at simplex points.

    Returns an array of shape (n_max,) + pts.shape[:-1]. u_m is always
    sd.size; bench/spans.py unpacks the four arguments to count flops.
    """
    xi = to_cube(pts)
    P = sd.basis.eval_prefix_cube(xi, count=u_m)
    return np.tensordot(sd.coeffs[:n_max, :u_m], P, axes=(1, 0))


def eigenfunctions(sd, x, n_max):
    """e^{-sbar(x)/2} B~_n(x), n < n_max, at simplex points x (..., K-1).

    Returns an array of shape (n_max,) + x.shape[:-1]. The first n_max pairs
    must be held: n_max beyond sd.n_eig is a ParameterError.
    """
    if not 1 <= n_max <= sd.n_eig:
        raise ParameterError(
            f"n_max must be in 1..{sd.n_eig}, the pairs held, got {n_max}")
    x = _points(sd.params, x)
    phi = _phi_at(sd, x, n_max, sd.size)
    return phi * np.exp(-0.5 * model_mod.mean_fitness(sd.params, x))


def _start_vectors(sd, x):
    """v = e^{-sbar(x)/2} C^{-1/2} P(x), a column per point of x (Mx, K-1),
    whose coefficients in the eigenbasis of S are e^{-sbar(x)/2} B~_n(x)."""
    scale = np.exp(-0.5 * sd.log_norms)
    return (scale[:, None] * sd.basis.eval_prefix_cube(to_cube(x))
            * np.exp(-0.5 * model_mod.mean_fitness(sd.params, x)))


def _series(sd, times, x, y, log_wy, n_max, krylov=None):
    """The eigenfunction series at every time, summed in basis space.

    Returns the (T, Mx, My) array

        e^{-sbar(x)/2} [sum_n e^{-Lambda_n t} B~_n(x) B~_n(y)] e^{log_wy(y)}

    for times (T,), x (Mx, K-1), y (My, K-1) and the y weight log_wy (My,).
    The eigenpairs fold into one coefficient row per (time, start point),

        w = (decay * B~(x)) @ coeffs[:n_max],   shape (T Mx, U),

    at 2 T Mx n_max U flops, and the basis sums w @ P(y) over its first
    axis, then over its (K-1)-allele suffix basis evaluated once at y
    (MultiJacobiBasis.sum_prefix_cube), at most about 2 T Mx U My flops.

    n_max None sums all U pairs from S: each start point's rows come from
    one semigroup_action run. A dict passed as krylov then receives the
    runs' "krylov_steps" and "krylov_error", one list per start point.
    """
    if n_max is None:
        scale = np.exp(-0.5 * sd.log_norms)
        w = np.empty((len(times), len(x), sd.size))
        steps, errors = [], []
        for i, start in enumerate(_start_vectors(sd, x).T):
            w[:, i], step, error = spectral.semigroup_action(
                sd.symmetric, start, times, scale)
            steps.append(step)
            errors.append(error)
        if krylov is not None:
            krylov.update(krylov_steps=steps, krylov_error=errors)
        w = w.reshape(-1, sd.size)
    else:
        bx = eigenfunctions(sd, x, n_max)                 # (n_max, Mx)
        decay = np.exp(-np.outer(times, sd.eigenvalues[:n_max]))
        left = decay[:, None, :] * bx.T[None, :, :]       # (T, Mx, n_max)
        w = left.reshape(-1, n_max) @ sd.coeffs[:n_max]
    kernel = sd.basis.sum_prefix_cube(w, to_cube(y))
    kernel *= np.exp(log_wy)
    return kernel.reshape(len(times), len(x), len(y))


def _check_times(t):
    """Times as a 1-D float array, and whether t was a scalar."""
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ParameterError(f"times must be a scalar or 1-D, got {times.shape}")
    if not np.all((times > 0) & np.isfinite(times)):
        raise ParameterError(f"elapsed time must be finite and > 0, got {t}")
    return np.atleast_1d(times), times.ndim == 0


def _check_start(p, t, x):
    """Times as _check_times gives them, and the start point x as a finite
    float array of shape (K-1,)."""
    times, scalar = _check_times(t)
    x = np.asarray(x, dtype=float)
    if x.shape != (p.K - 1,) or not np.all(np.isfinite(x)):
        raise ParameterError(
            f"start point needs {p.K - 1} finite coordinates, got "
            f"{np.array2string(x, threshold=10)}")
    return times, scalar, x


def _points(p, pts):
    """Points as a float array, checked for K-1 coordinates on the last axis."""
    pts = np.asarray(pts, dtype=float)
    if pts.shape[-1:] != (p.K - 1,):
        raise ParameterError(f"points need {p.K - 1} coordinates on the last "
                             f"axis, got shape {pts.shape}")
    return pts


def smooth_kernel(sd, t, x, y, n_max=None, m_max=None):
    """Density with the neutral stationary kernel divided out.

    Returns e^{-sbar(x)/2} [sum_n e^{-Lambda_n t} B~_n(x) B~_n(y)]
    e^{+sbar(y)/2} as an (Mx, My) array over two point batches; the full
    density is this times pi0(y). Bounded up to the boundary, which makes it
    the right integrand for kernel-weighted quadrature. A 1-D array of times
    adds a leading time axis: (T, Mx, My). m_max is as in
    transition_density. n_max None sums all U pairs, from S with one Krylov
    run per start point when fewer are held.
    """
    times, scalar = _check_times(t)
    n_max = _cutoff(sd, n_max, m_max)
    x = np.atleast_2d(_points(sd.params, x))
    y = np.atleast_2d(_points(sd.params, y))
    log_wy = 0.5 * model_mod.mean_fitness(sd.params, y)
    out = _series(sd, times, x, y, log_wy, n_max)
    return out[0] if scalar else out


def transition_density(sd, t, x, y, n_max=None, m_max=None,
                       clip_negative=False, diagnostics=None):
    """Evaluate the transition density from x after elapsed time t at y.

    Args:
        sd: SpectralDecomposition.
        t: elapsed time, > 0, or a 1-D array of such times.
        x: start point, first K-1 coordinates.
        y: evaluation points, shape (..., K-1); the batch may be empty.
        n_max: eigenpairs kept; None (the default) keeps all U, from S
            by spectral.semigroup_action when fewer are held, so a
            decomposition of the lead pair alone serves.
        m_max: None or the truncation D, which both keep every degree up
            to D; bench/checks.py passes the one density_meta.json records.
        clip_negative: zero out small negative excursions near the boundary.
        diagnostics: a dict that receives, one entry per time,
            "tail_weight", the weight e^{-Lambda t} of the first dropped
            pair, "undershoot", the most negative value, and "max_density",
            the largest: each 0.0 when there is none, and both extremes the
            unclipped values the warnings print. From S it also receives
            "krylov_steps" and "krylov_error", the Krylov dimension and the
            error estimate relative to the largest coefficient.

    Returns the density at y (scalar for a single point and a scalar t). An
    array of times adds a leading time axis; the warnings and the clipping
    apply to each time on its own.
    """
    p = sd.params
    times, scalar, x = _check_start(p, t, x)
    n_max = _cutoff(sd, n_max, m_max)
    labels = np.atleast_1d(t).tolist()
    tails = np.zeros(len(times))
    if n_max is not None and n_max < sd.size:
        # the first dropped pair, or the last held one, whose weight bounds
        # it, when the decomposition stops at n_max
        tails = np.exp(-sd.eigenvalues[min(n_max, sd.n_eig - 1)] * times)
    for label, tail in zip(labels, tails):
        if tail > TAIL_WARN_THRESHOLD:
            warnings.warn(
                f"first dropped eigenterm retains weight {tail:.2e} at "
                f"t={label}; raise n_max or the truncation level",
                stacklevel=2)
    y = _points(p, y)
    batch = y.shape[:-1]
    y = y.reshape(-1, y.shape[-1])
    # log_stationary_unnormalized already carries e^{sbar(y)}, so the
    # intended net prefactor e^{+sbar(y)/2} * dirichlet(y) needs -1/2 here
    log_wy = (model_mod.log_stationary_unnormalized(p, y)
              - 0.5 * model_mod.mean_fitness(p, y))
    krylov = {}
    out = _series(sd, times, x[None, :], y, log_wy, n_max, krylov)[:, 0, :]
    lows = np.min(out, axis=1, initial=0.0)
    highs = np.max(out, axis=1, initial=0.0)
    for i, (neg, scale) in enumerate(zip(lows, highs)):
        if neg < 0:
            warnings.warn(
                f"truncation undershoot: most negative value {neg:.3e} "
                f"against maximum {scale:.3e}", stacklevel=2)
            if clip_negative:
                np.maximum(out[i], 0.0, out=out[i])
    if diagnostics is not None:
        diagnostics.update(tail_weight=tails.tolist(),
                           undershoot=lows.tolist(),
                           max_density=highs.tolist(),
                           **{k: v[0] for k, v in krylov.items()})
    out = out.reshape((len(times),) + batch)
    if not scalar:
        return out
    return out[0] if batch else float(out[0])


def neutral_transition_density(p, t, x, y, D):
    """Transition density without selection, summed directly over the basis.

    Independent of the eigensolver path: with sigma = 0 the operator is
    already diagonal, so the series needs only the raw basis polynomials and
    their norms. Used to cross-check the general machinery.
    """
    if not p.is_neutral:
        raise ParameterError("this path requires a selection-free model")
    if not 0 < t < np.inf:
        raise ParameterError(f"elapsed time must be finite and > 0, got {t}")
    enum = BasisEnumeration(p.K, D)
    from .basis import MultiJacobiBasis
    basis = MultiJacobiBasis(p.theta, enum)
    Px = basis.eval_prefix_cube(to_cube(x))
    Py = basis.eval_prefix_cube(to_cube(y))
    lam = model_mod.neutral_eigenvalue(enum.degrees, p)
    weights = np.exp(-lam * t - basis.log_norms_all())
    kernel = np.tensordot(weights * Px, Py, axes=(0, 0))
    out = kernel * np.exp(model_mod.log_stationary_unnormalized(p, y))
    return out if np.ndim(out) else float(out)


def normalizing_constant(sd, diagnostics=None):
    """Stationary normalizer from the lead eigenvector alone; no quadrature.

    f(y) = sum_m u_{0,m} P_m(y) is proportional to e^{sbar(y)/2}, so

        C_stat = sum_m u_{0,m}^2 C_m e^{sbar(y)} / f(y)^2

    at any point y. Where the terms of f cancel, as they do at the corner
    under strong selection, f loses the digits the ratio needs. So the ratio
    is taken at the candidate with the smallest condition number
    kappa(y) = sum_m |u_{0,m} P_m(y)| / |f(y)|. The candidates are fixed:
    the interior grid make_grid(K, NORMCONST_GRID) and the K vertices.

    A dict passed as diagnostics receives "C_stat_kappa", kappa at the
    chosen point, "C_stat_point", the point itself, and
    "log_C_stat_bounds" from log_normconst_bounds. A value outside those
    bounds raises NumericalError.
    """
    u0 = sd.coeffs[0]
    num = float(np.sum(u0 ** 2 * np.exp(sd.log_norms)))
    K = sd.params.K
    pts = np.concatenate([make_grid(K, NORMCONST_GRID), np.eye(K)[:, :K - 1]])
    terms = u0[:, None] * sd.basis.eval_prefix_cube(to_cube(pts))
    f = terms.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = np.abs(terms).sum(axis=0) / np.abs(f)
    best = int(np.argmin(np.where(np.isnan(kappa), np.inf, kappa)))
    if not np.isfinite(kappa[best]):
        raise NumericalError("lead eigenvector vanishes at every candidate "
                             "point; cannot form the stationary normalizer")
    value = float(num * np.exp(model_mod.mean_fitness(sd.params, pts[best]))
                  / f[best] ** 2)
    lo, hi = log_normconst_bounds(sd.params)
    if diagnostics is not None:
        diagnostics.update(C_stat_kappa=float(kappa[best]),
                           C_stat_point=pts[best].tolist(),
                           log_C_stat_bounds=[lo, hi])
    slack = NORMCONST_SLACK
    if not (value > 0 and lo - slack <= math.log(value) <= hi + slack):
        raise NumericalError(
            f"C_stat = {value:.6g} at truncation {sd.D} is outside its "
            f"closed-form bounds: log C_stat must lie in [{lo:.6g}, {hi:.6g}]"
            "; raise the truncation")
    return value


def log_normconst_bounds(p):
    """Closed-form bounds on log C_stat, with C_stat = B(theta) E[e^sbar]
    under the Dirichlet(theta) law and B(theta) = prod Gamma(theta_i) /
    Gamma(|theta|).

    Jensen's inequality gives log B + E[sbar] below, with
    E[x_i x_j] = (theta_i theta_j + delta_ij theta_i) / (|theta| (|theta|+1));
    sbar <= max sigma_ij on the simplex gives log B + max sigma_ij above.
    """
    th, tt = p.theta, p.theta_total
    log_b = sum(math.lgamma(t) for t in th) - math.lgamma(tt)
    second = (np.outer(th, th) + np.diag(th)) / (tt * (tt + 1.0))
    return (log_b + float(np.sum(p.sigma * second)),
            log_b + float(p.sigma.max()))


def stationary_density(sd, y):
    """Normalized stationary density e^{sbar(y)} pi0(y) / C_stat."""
    c = normalizing_constant(sd)
    p = sd.params
    return np.exp(model_mod.log_stationary_unnormalized(p, y)) / c


def distance_to_stationarity(sd, x, times, n_max=None, diagnostics=None):
    """Chi-square divergence of p(t, x, .) from the stationary law.

    d(t)^2 = sum_{n >= 1} e^{-2 Lambda_n t} e^{-sbar(x)} B~_n(x)^2; decreasing
    in t with decay rate 2 Lambda_1. Each B~_n keeps every coefficient, so
    it has unit C-norm and no term needs a divisor.

    n_max is as in transition_density. With fewer than U pairs held, None
    gives d(t)^2 = |exp(-tS) v'|^2 by one semigroup_action run, where
    v' = v - (q_0 . v) q_0 is the start vector less its lead component,
    q_0 = C^{1/2} u_0: taken off |exp(-tS) v|^2 instead, the lead term would
    cancel the digits of a small d^2. A dict passed as diagnostics then
    receives "krylov_steps" and "krylov_error", one entry per time.
    """
    times, _, x = _check_start(sd.params, times, x)
    n_max = _cutoff(sd, n_max)
    if n_max is not None:
        amp = eigenfunctions(sd, x, n_max)[1:] ** 2
        return np.exp(-2.0 * np.outer(times, sd.eigenvalues[1:n_max])) @ amp
    v = _start_vectors(sd, x[None, :])[:, 0]
    q0 = np.exp(0.5 * sd.log_norms) * sd.coeffs[0]
    w, steps, errors = spectral.semigroup_action(
        sd.symmetric, v - (q0 @ v) * q0, times, np.ones(sd.size))
    if diagnostics is not None:
        diagnostics.update(krylov_steps=steps, krylov_error=errors)
    return np.einsum("tu,tu->t", w, w)


def make_grid(K, resolution):
    """Interior lattice on the simplex: midpoint offsets at 1/resolution pitch.

    Returns an (M, K-1) array of points with every coordinate and the implied
    last coordinate at least half a cell away from the boundary.
    """
    if resolution < 2:
        raise ParameterError(f"grid resolution must be >= 2, got {resolution}")
    h = 1.0 / resolution
    axes = [np.arange(resolution) * h + 0.5 * h for _ in range(K - 1)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    keep = pts.sum(axis=1) <= 1.0 - 0.5 * h
    return pts[keep]


def write_density_csv(path, points, values, K):
    """Density table export: one row per point, columns y_1..y_{K-1},p."""
    header = [f"y_{i + 1}" for i in range(K - 1)] + ["p"]
    csvout.write_csv(path, header, [(*np.asarray(points).T, values)])


def write_distance_csv(path, times, distances):
    """Distance-curve export: (t, d2) rows."""
    csvout.write_csv(path, ["t", "d2"],
                     [(np.asarray(times, dtype=float),
                       np.asarray(distances, dtype=float))])
