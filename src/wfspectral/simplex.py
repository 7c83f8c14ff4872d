"""Stick-breaking coordinates between the simplex and the unit cube.

A point of the open simplex is stored as its first K-1 frequencies x, with
x_K = 1 - sum(x) implied. The transform

    xi_i = x_i / (1 - x_1 - ... - x_{i-1})

maps the simplex onto the unit cube, with inverse x_i = xi_i * prod_{j<i}(1-xi_j)
and Jacobian determinant prod_{j<i=K-1} (1-xi_j)^(K-1-j) (1-based j).

All functions operate on the last axis of an array of points, so batches work
transparently.
"""

import numpy as np

from .errors import ParameterError

# Inputs this close to the constraint boundary are snapped onto it; anything
# beyond is a genuine domain violation.
CLAMP_TOL = 1e-12

# A stick shorter than this counts as exhausted; remaining coordinates are 0
# by convention (any finite choice is killed by downstream (1-xi)^N factors).
STICK_FLOOR = 1e-300


def clamp_simplex(x):
    """Validate and clamp simplex coordinates.

    Args:
        x: array with K-1 frequencies on the last axis.

    Returns:
        Float array of the same shape with rounding spill (within 1e-12 of the
        constraints) projected back onto the simplex.

    Raises:
        ParameterError: entries below -1e-12 or total mass above 1 + 1e-12.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] == (0,):
        raise ParameterError("a simplex point needs at least one coordinate")
    # an empty batch passes: its extremes are taken with 0
    if np.min(x, initial=0.0) < -CLAMP_TOL:
        raise ParameterError(f"negative frequency {np.min(x)} below tolerance")
    total = x.sum(axis=-1)
    if np.max(total, initial=0.0) > 1 + CLAMP_TOL:
        raise ParameterError(f"frequencies sum to {np.max(total)}, above 1")
    x = np.clip(x, 0.0, 1.0)
    total = x.sum(axis=-1, keepdims=True)
    scale = np.where(total > 1.0, 1.0 / np.maximum(total, STICK_FLOOR), 1.0)
    return x * scale


def to_cube(x):
    """Map simplex coordinates to cube coordinates, clamping the input."""
    x = clamp_simplex(x)
    d = x.shape[-1]
    xi = np.empty_like(x)
    rem = np.ones(x.shape[:-1])
    for i in range(d):
        safe = rem > STICK_FLOOR
        xi[..., i] = np.where(safe, x[..., i] / np.where(safe, rem, 1.0), 0.0)
        rem = rem - x[..., i]
    return np.clip(xi, 0.0, 1.0)


def from_cube(xi):
    """Map cube coordinates back to simplex coordinates."""
    xi = np.asarray(xi, dtype=float)
    # an empty batch passes: its extremes are taken with 0
    if (np.min(xi, initial=0.0) < -CLAMP_TOL
            or np.max(xi, initial=0.0) > 1 + CLAMP_TOL):
        raise ParameterError("cube coordinates must lie in [0, 1]")
    xi = np.clip(xi, 0.0, 1.0)
    d = xi.shape[-1]
    x = np.empty_like(xi)
    stick = np.ones(xi.shape[:-1])
    for i in range(d):
        x[..., i] = xi[..., i] * stick
        stick = stick * (1.0 - xi[..., i])
    return x


def full_point(x):
    """Append the implied last frequency: (..., K-1) -> (..., K)."""
    x = np.asarray(x, dtype=float)
    last = 1.0 - x.sum(axis=-1, keepdims=True)
    return np.concatenate([x, np.clip(last, 0.0, 1.0)], axis=-1)
