"""Transition density, stationary normalization, and convergence diagnostics.

The density at elapsed time t factors through the eigenbasis:

    p(t, x, y) = e^{-sbar(x)/2} [ sum_n e^{-Lambda_n t} B~_n(x) B~_n(y) ]
                 e^{+sbar(y)/2} pi0(y),

with B~_n the C-orthonormal polynomial combinations and pi0 the unnormalized
neutral stationary density. Series cutoffs: n_max eigenpairs, coefficients
kept through total degree m_max. The stationary density itself is
pi(y) = C_stat e^{-sbar(y)} pi0(y) with C_stat computed from the lead
eigenvector without any quadrature.
"""

import warnings

import numpy as np

from . import model as model_mod
from .errors import NumericalError, ParameterError
from .indexing import BasisEnumeration, index_arrays, total_count
from .jacobi import log_R_at_zero
from .simplex import clamp_simplex, to_cube

DEFAULT_N_MAX = 562    # eigenpairs kept; level-36 block size for K=3
DEFAULT_M_MAX = 36     # coefficient degree kept
TAIL_WARN_THRESHOLD = 1e-8
CSV_BLOCK = 1024       # density rows formatted per write


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
    """The eigenfunction series at every time, in one contraction.

    Returns the (T, Mx, My) array

        e^{-sbar(x)/2} [sum_n e^{-Lambda_n t} B~_n(x) B~_n(y)] e^{log_wy(y)}

    for times (T,), x (Mx, K-1), y (My, K-1) and the y weight log_wy (My,).
    Time enters only through the decay factors, so the basis is evaluated
    once per point set and every time comes from one matrix product.
    """
    bx = _eigenfunctions_at(sd, x, n_max, u_m)        # (n_max, Mx)
    phi_y = _phi_at(sd, y, n_max, u_m)                # (n_max, My)
    decay = np.exp(-np.outer(times, sd.eigenvalues[:n_max]))
    left = decay[:, None, :] * bx.T[None, :, :]       # (T, Mx, n_max)
    kernel = left.reshape(-1, n_max) @ phi_y
    kernel *= np.exp(log_wy)
    return kernel.reshape(len(times), bx.shape[1], phi_y.shape[1])


def _check_times(t):
    """Times as a 1-D float array, and whether t was a scalar."""
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ParameterError(f"times must be a scalar or 1-D, got {times.shape}")
    if not np.all(times > 0):
        raise ParameterError(f"elapsed time must be > 0, got {t}")
    return np.atleast_1d(times), times.ndim == 0


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
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    log_wy = 0.5 * model_mod.mean_fitness(sd.params, y)
    out = _series(sd, times, x, y, log_wy, n_max, u_m)
    return out[0] if scalar else out


def transition_density(sd, t, x, y, n_max=None, m_max=None,
                       clip_negative=False, warn_threshold=TAIL_WARN_THRESHOLD):
    """Evaluate the transition density from x after elapsed time t at y.

    Args:
        sd: SpectralDecomposition.
        t: elapsed time, > 0, or a 1-D array of such times.
        x: start point, first K-1 coordinates.
        y: evaluation points, shape (..., K-1).
        n_max: eigenpairs kept (default min(562, held)).
        m_max: coefficient degree kept (default min(36, truncation)).
        clip_negative: zero out small negative excursions near the boundary.
        warn_threshold: warn when the first dropped term still carries
            weight e^{-Lambda_{n_max} t} above this.

    Returns the density at y (scalar for a single point and a scalar t). An
    array of times adds a leading time axis; the warnings and the clipping
    apply to each time on its own.
    """
    times, scalar = _check_times(t)
    n_max, u_m = _resolve_cutoffs(sd, n_max, m_max)
    p = sd.params
    labels = np.atleast_1d(t).tolist()
    if n_max < sd.size:
        # the first dropped pair, or the last held one, whose weight bounds
        # it, when the decomposition stops at n_max
        dropped = sd.eigenvalues[min(n_max, sd.n_eig - 1)]
        for label, tail in zip(labels, np.exp(-dropped * times)):
            if tail > warn_threshold:
                warnings.warn(
                    f"first dropped eigenterm retains weight {tail:.2e} at "
                    f"t={label}; raise n_max or the truncation level",
                    stacklevel=2)
    x = np.asarray(x, dtype=float)
    if x.shape != (p.K - 1,):
        raise ParameterError(
            f"start point needs shape ({p.K - 1},), got {x.shape}")
    y = np.asarray(y, dtype=float)
    batch = y.shape[:-1]
    y = y.reshape(-1, y.shape[-1])
    # log_stationary_unnormalized already carries e^{sbar(y)}, so the
    # intended net prefactor e^{+sbar(y)/2} * dirichlet(y) needs -1/2 here
    log_wy = (model_mod.log_stationary_unnormalized(p, y)
              - 0.5 * model_mod.mean_fitness(p, y))
    out = _series(sd, times, x[None, :], y, log_wy, n_max, u_m)[:, 0, :]
    for i in range(len(times)):
        neg = np.min(out[i]) if out.shape[1] else 0.0
        if neg < 0:
            scale = max(np.max(out[i]), 0.0)
            warnings.warn(
                f"truncation undershoot: most negative value {neg:.3e} "
                f"against maximum {scale:.3e}", stacklevel=2)
            if clip_negative:
                np.maximum(out[i], 0.0, out=out[i])
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


def normalizing_constant(sd, m_max=None):
    """Stationary normalizer from the lead eigenvector alone.

    C_stat = sum_m u_{0,m}^2 C_m / (sum_m u_{0,m} P_m(corner))^2, evaluated
    at the corner where every stick coordinate vanishes; no quadrature.
    There P_m is the product of R_{m_j}(0) over the axes, taken from one
    log |R_n(0)| table per axis with the sign (-1)^|m|.
    """
    _, u_m = _resolve_cutoffs(sd, 1, m_max)
    u0 = sd.coeffs[0, :u_m]
    num = float(np.sum(u0 ** 2 * np.exp(sd.log_norms[:u_m])))
    m, _ = index_arrays(sd.basis.enumeration.indices[:u_m], sd.params.K - 1)
    log_r = np.zeros(u_m)
    for j in range(sd.params.K - 1):
        a, _ = sd.basis.axis_params(j, 0)
        table = np.array([log_R_at_zero(d, a) for d in range(sd.D + 1)])
        log_r = log_r + table[m[:, j]]
    sign = 1 - 2 * (m.sum(axis=1) % 2)
    nz = np.flatnonzero(u0)
    den = float(np.sum(u0[nz] * sign[nz] * np.exp(log_r[nz])))
    if abs(den) < 1e-300 * max(1.0, abs(num)):
        raise NumericalError("lead eigenvector vanishes at the corner; "
                             "cannot form the stationary normalizer")
    return num / den ** 2


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
