"""Transition density, stationary normalization, and convergence diagnostics.

The density at elapsed time t factors through the eigenbasis:

    p(t, x, y) = e^{-sbar(x)/2} [ sum_n e^{-Lambda_n t} B~_n(x) B~_n(y) ]
                 e^{+sbar(y)/2} pi0(y),

with B~_n the C-orthonormal polynomial combinations and pi0 the unnormalized
neutral stationary density. Series cutoffs: n_max eigenpairs, coefficients
kept through total degree m_max (u_m basis members).

The series is summed in basis space. B~_n(y) = sum_m u_{n,m} P_m(y), so the
eigenpairs and the start points fold into one coefficient row per (time,
start point), w = (e^{-Lambda t} B~(x)) @ u, which costs 2 T Mx n_max u_m
flops. The basis then sums w @ P(y) axis by axis from its univariate tables,
at most about 2 T Mx u_m My flops (far fewer on a lattice, whose points
share their first cube coordinate), without forming the (u_m, My) basis
matrix or the (n_max, My) eigenfunction values. The stationary density is
pi(y) = e^{sbar(y)} pi0(y) / C_stat with C_stat computed from the lead
eigenvector without any quadrature, at its best-conditioned point.
"""

import warnings

import numpy as np

from . import model as model_mod
from .errors import NumericalError, ParameterError
from .indexing import BasisEnumeration, total_count
from .simplex import clamp_simplex, to_cube

DEFAULT_N_MAX = 562    # eigenpairs kept; level-36 block size for K=3
DEFAULT_M_MAX = 36     # coefficient degree kept
TAIL_WARN_THRESHOLD = 1e-8
CSV_BLOCK = 1024       # density rows formatted per write
NORMCONST_GRID = 10    # grid resolution of the stationary-ratio candidates


def _resolve_cutoffs(sd, n_max, m_max):
    if n_max is None:
        n_max = min(DEFAULT_N_MAX, sd.n_eig)
    if not 1 <= n_max <= sd.size:
        raise ParameterError(f"n_max must be in 1..{sd.size}, got {n_max}")
    if n_max > sd.n_eig:
        raise ParameterError(
            f"n_max={n_max} needs more eigenpairs than the {sd.n_eig} this "
            f"decomposition holds; decompose with n_eig >= {n_max}")
    if m_max is None:
        m_max = min(DEFAULT_M_MAX, sd.D)
    if not 0 <= m_max <= sd.D:
        raise ParameterError(f"m_max must be in 0..{sd.D}, got {m_max}")
    u_m = total_count(sd.params.K, m_max)
    return n_max, u_m


def _phi_at(sd, pts, n_max, u_m):
    """Evaluate the first n_max orthonormal combinations at simplex points.

    Returns an array of shape (n_max,) + pts.shape[:-1].
    """
    xi = to_cube(clamp_simplex(pts))
    P = sd.basis.eval_prefix_cube(xi, count=u_m)
    return np.tensordot(sd.coeffs[:n_max, :u_m], P, axes=(1, 0))


def _eigenfunctions_at(sd, x, n_max, u_m):
    """e^{-sbar(x)/2} B~_n(x) for the first n_max terms at simplex points.

    Returns an array of shape (n_max,) + x.shape[:-1].
    """
    phi = _phi_at(sd, x, n_max, u_m)
    return phi * np.exp(-0.5 * model_mod.mean_fitness(sd.params, x))


def _series(sd, times, x, y, log_wy, n_max, u_m):
    """The eigenfunction series at every time, summed in basis space.

    Returns the (T, Mx, My) array

        e^{-sbar(x)/2} [sum_n e^{-Lambda_n t} B~_n(x) B~_n(y)] e^{log_wy(y)}

    for times (T,), x (Mx, K-1), y (My, K-1) and the y weight log_wy (My,).
    The eigenpairs fold into one coefficient row per (time, start point),

        w = (decay * B~(x)) @ coeffs[:n_max, :u_m],   shape (T Mx, u_m),

    at 2 T Mx n_max u_m flops, and the basis sums w @ P(y) axis by axis
    (MultiJacobiBasis.sum_prefix_cube) at most about 2 T Mx u_m My flops.
    Neither P(y) nor B~(y) is formed.
    """
    bx = _eigenfunctions_at(sd, x, n_max, u_m)        # (n_max, Mx)
    decay = np.exp(-np.outer(times, sd.eigenvalues[:n_max]))
    left = decay[:, None, :] * bx.T[None, :, :]       # (T, Mx, n_max)
    w = left.reshape(-1, n_max) @ sd.coeffs[:n_max, :u_m]
    kernel = sd.basis.sum_prefix_cube(w, to_cube(y))
    kernel *= np.exp(log_wy)
    return kernel.reshape(len(times), bx.shape[1], len(y))


def _check_times(t):
    """Times as a 1-D float array, and whether t was a scalar."""
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ParameterError(f"times must be a scalar or 1-D, got {times.shape}")
    if not np.all(times > 0):
        raise ParameterError(f"elapsed time must be > 0, got {t}")
    return np.atleast_1d(times), times.ndim == 0


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
    adds a leading time axis: (T, Mx, My).
    """
    times, scalar = _check_times(t)
    n_max, u_m = _resolve_cutoffs(sd, n_max, m_max)
    x = np.atleast_2d(_points(sd.params, x))
    y = np.atleast_2d(_points(sd.params, y))
    log_wy = 0.5 * model_mod.mean_fitness(sd.params, y)
    out = _series(sd, times, x, y, log_wy, n_max, u_m)
    return out[0] if scalar else out


def transition_density(sd, t, x, y, n_max=None, m_max=None,
                       clip_negative=False, diagnostics=None):
    """Evaluate the transition density from x after elapsed time t at y.

    Args:
        sd: SpectralDecomposition.
        t: elapsed time, > 0, or a 1-D array of such times.
        x: start point, first K-1 coordinates.
        y: evaluation points, shape (..., K-1); the batch may be empty.
        n_max: eigenpairs kept (default min(562, held)).
        m_max: coefficient degree kept (default min(36, truncation)).
        clip_negative: zero out small negative excursions near the boundary.
        diagnostics: a dict that receives three lists, one entry per
            time: "tail_weight", the weight e^{-Lambda t} of the first
            dropped pair (0.0 when none is dropped); "undershoot", the most
            negative density value (0.0 when there is none); and
            "max_density", the largest value (at least 0.0). Both extremes
            are taken before clipping; they are the numbers the warnings
            print.

    Returns the density at y (scalar for a single point and a scalar t). An
    array of times adds a leading time axis; the warnings and the clipping
    apply to each time on its own.
    """
    times, scalar = _check_times(t)
    n_max, u_m = _resolve_cutoffs(sd, n_max, m_max)
    p = sd.params
    labels = np.atleast_1d(t).tolist()
    tails = np.zeros(len(times))
    if n_max < sd.size:
        # the first dropped pair, or the last held one, whose weight bounds
        # it, when the decomposition stops at n_max
        tails = np.exp(-sd.eigenvalues[min(n_max, sd.n_eig - 1)] * times)
    for label, tail in zip(labels, tails):
        if tail > TAIL_WARN_THRESHOLD:
            warnings.warn(
                f"first dropped eigenterm retains weight {tail:.2e} at "
                f"t={label}; raise n_max or the truncation level",
                stacklevel=2)
    x = np.asarray(x, dtype=float)
    if x.shape != (p.K - 1,):
        raise ParameterError(
            f"start point needs shape ({p.K - 1},), got {x.shape}")
    y = _points(p, y)
    batch = y.shape[:-1]
    y = y.reshape(-1, y.shape[-1])
    # log_stationary_unnormalized already carries e^{sbar(y)}, so the
    # intended net prefactor e^{+sbar(y)/2} * dirichlet(y) needs -1/2 here
    log_wy = (model_mod.log_stationary_unnormalized(p, y)
              - 0.5 * model_mod.mean_fitness(p, y))
    out = _series(sd, times, x[None, :], y, log_wy, n_max, u_m)[:, 0, :]
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
                           max_density=highs.tolist())
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
    if not t > 0:
        raise ParameterError(f"elapsed time must be > 0, got {t}")
    enum = BasisEnumeration(p.K, D)
    from .basis import MultiJacobiBasis
    basis = MultiJacobiBasis(p.theta, enum)
    x = np.asarray(x, dtype=float)
    xi_x = to_cube(clamp_simplex(x))
    xi_y = to_cube(clamp_simplex(y))
    Px = basis.eval_prefix_cube(xi_x)
    Py = basis.eval_prefix_cube(xi_y)
    degrees = np.fromiter((sum(n) for n in enum.indices), dtype=float,
                          count=len(enum))
    lam = 0.5 * degrees * (degrees - 1.0 + p.theta_total)
    weights = np.exp(-lam * t - basis.log_norms_all())
    kernel = np.tensordot(weights * Px, Py, axes=(0, 0))
    out = kernel * np.exp(model_mod.log_stationary_unnormalized(p, y))
    return out if np.ndim(out) else float(out)


def normalizing_constant(sd, m_max=None, diagnostics=None):
    """Stationary normalizer from the lead eigenvector alone; no quadrature.

    f(y) = sum_m u_{0,m} P_m(y) is proportional to e^{sbar(y)/2}, so

        C_stat = sum_m u_{0,m}^2 C_m e^{sbar(y)} / f(y)^2

    at any point y. Where the terms of f cancel, as they do at the corner
    under strong selection, f loses the digits the ratio needs. So the ratio
    is taken at the candidate with the smallest condition number
    kappa(y) = sum_m |u_{0,m} P_m(y)| / |f(y)|. The candidates are fixed:
    the interior grid make_grid(K, NORMCONST_GRID) and the K vertices.

    A dict passed as diagnostics receives "C_stat_kappa", kappa at the
    chosen point, and "C_stat_point", the point itself.
    """
    _, u_m = _resolve_cutoffs(sd, 1, m_max)
    u0 = sd.coeffs[0, :u_m]
    num = float(np.sum(u0 ** 2 * np.exp(sd.log_norms[:u_m])))
    K = sd.params.K
    pts = np.concatenate([make_grid(K, NORMCONST_GRID), np.eye(K)[:, :K - 1]])
    terms = u0[:, None] * sd.basis.eval_prefix_cube(to_cube(pts), count=u_m)
    f = terms.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = np.abs(terms).sum(axis=0) / np.abs(f)
    best = int(np.argmin(np.where(np.isnan(kappa), np.inf, kappa)))
    if not np.isfinite(kappa[best]):
        raise NumericalError("lead eigenvector vanishes at every candidate "
                             "point; cannot form the stationary normalizer")
    if diagnostics is not None:
        diagnostics.update(C_stat_kappa=float(kappa[best]),
                           C_stat_point=pts[best].tolist())
    return float(num * np.exp(model_mod.mean_fitness(sd.params, pts[best]))
                 / f[best] ** 2)


def stationary_density(sd, y, m_max=None):
    """Normalized stationary density e^{sbar(y)} pi0(y) / C_stat."""
    c = normalizing_constant(sd, m_max=m_max)
    p = sd.params
    return np.exp(model_mod.log_stationary_unnormalized(p, y)) / c


def distance_to_stationarity(sd, x, times, n_max=None, m_max=None):
    """Chi-square divergence of p(t, x, .) from the stationary law.

    d(t)^2 = sum_{n >= 1} e^{-2 Lambda_n t} e^{-sbar(x)} B~_n(x)^2; decreasing
    in t with decay rate 2 Lambda_1. Each term carries its realized
    (truncated) squared norm as divisor; with full coefficients that is 1.
    """
    n_max, u_m = _resolve_cutoffs(sd, n_max, m_max)
    times = np.asarray(times, dtype=float)
    if np.any(times <= 0):
        raise ParameterError("times must be positive")
    bx = _eigenfunctions_at(sd, np.asarray(x, dtype=float), n_max, u_m)
    norms = (sd.coeffs[1:n_max, :u_m] ** 2
             * np.exp(sd.log_norms[:u_m])[None, :]).sum(axis=1)
    amp = bx[1:] ** 2 / norms
    return np.exp(-2.0 * np.outer(times, sd.eigenvalues[1:n_max])) @ amp


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
    """Density table export: one row per point, columns y_1..y_{K-1},p.

    Rows go out in blocks of CSV_BLOCK, each formatted by one %-template.
    """
    header = ",".join(f"y_{i + 1}" for i in range(K - 1)) + ",p"
    table = np.column_stack([points, values])
    line = ",".join(["%.17g"] * K) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for lo in range(0, len(table), CSV_BLOCK):
            block = table[lo:lo + CSV_BLOCK]
            fh.write((line * len(block)) % tuple(block.ravel().tolist()))


def write_distance_csv(path, times, distances):
    """Distance-curve export: (t, d2) rows."""
    with open(path, "w", newline="") as fh:
        fh.write("t,d2\n")
        for t, d in zip(times, distances):
            fh.write(f"{t:.17g},{d:.17g}\n")
