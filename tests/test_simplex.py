"""Stick-breaking map between the simplex and the unit cube."""

import numpy as np
import pytest

from wfspectral import simplex
from wfspectral.errors import ParameterError
from wfspectral.oracles import gauss_jacobi_01

import reference


def test_to_cube_pin():
    xi = simplex.to_cube(np.array([0.2, 0.3]))
    assert xi[0] == pytest.approx(0.2, abs=1e-15)
    assert xi[1] == pytest.approx(0.375, abs=1e-15)


def test_zero_vector_maps_to_zero():
    xi = simplex.to_cube(np.zeros(3))
    assert np.all(xi == 0.0)
    x = simplex.from_cube(np.zeros(3))
    assert np.all(x == 0.0)


def test_round_trip_random():
    rng = np.random.default_rng(11)
    raw = rng.dirichlet(np.full(4, 0.8), size=1000)[:, :3]
    back = simplex.to_cube(raw)
    again = simplex.from_cube(back)
    assert np.max(np.abs(again - raw)) <= 1e-14


def test_round_trip_from_cube_side():
    rng = np.random.default_rng(12)
    xi = rng.uniform(0, 1, size=(500, 3))
    x = simplex.from_cube(xi)
    assert np.all(x >= 0)
    assert np.max(x.sum(axis=-1)) <= 1 + 1e-14
    xi2 = simplex.to_cube(x)
    assert np.max(np.abs(xi2 - xi)) <= 1e-13


def test_exhausted_stick_collapses_remaining_coords():
    # once the first coordinate takes all the mass the rest of the stick is
    # empty and the remaining cube coordinates are pinned to zero
    xi = simplex.to_cube(np.array([1.0, 0.0]))
    assert xi[0] == 1.0
    assert xi[1] == 0.0
    x = simplex.from_cube(np.array([1.0, 0.7]))
    assert x[0] == 1.0
    assert x[1] == 0.0


def test_stick_identity():
    # 1 - sum_{j<=i} x_j = prod_{j<=i} (1 - xi_j)
    rng = np.random.default_rng(13)
    x = rng.dirichlet(np.ones(5), size=200)[:, :4]
    xi = simplex.to_cube(x)
    lhs = 1.0 - np.cumsum(x, axis=-1)
    rhs = np.cumprod(1.0 - xi, axis=-1)
    assert np.max(np.abs(lhs - rhs)) <= 1e-13


def test_jacobian_pins():
    assert reference.jacobian_det(np.array([0.4])) == 1.0
    assert reference.jacobian_det(np.array([0.2, 0.9])) == pytest.approx(0.8)


def test_jacobian_matches_finite_difference():
    rng = np.random.default_rng(14)
    h = 1e-6
    for _ in range(20):
        xi = rng.uniform(0.1, 0.9, size=3)
        jac = np.empty((3, 3))
        for j in range(3):
            up = xi.copy()
            dn = xi.copy()
            up[j] += h
            dn[j] -= h
            jac[:, j] = (simplex.from_cube(up) - simplex.from_cube(dn)) / (2 * h)
        det = np.linalg.det(jac)
        assert det == pytest.approx(reference.jacobian_det(xi), rel=1e-6)


def test_cube_integral_of_jacobian_is_simplex_volume():
    # integrating the jacobian over the cube recovers vol(simplex) = 1/(K-1)!
    nodes, weights = gauss_jacobi_01(20, 1.0, 1.0)
    xi1, xi2 = np.meshgrid(nodes, nodes, indexing="ij")
    pts = np.stack([xi1.ravel(), xi2.ravel()], axis=-1)
    w2 = np.outer(weights, weights).ravel()
    vol = float(np.sum(w2 * reference.jacobian_det(pts)))
    assert vol == pytest.approx(0.5, rel=1e-12)


def test_change_of_variables_against_direct_sum():
    # integrate a smooth function both ways: cube quadrature with the
    # jacobian vs a dense Riemann sum on the simplex side
    def f(x):
        return np.exp(x[..., 0] - 0.5 * x[..., 1])

    nodes, weights = gauss_jacobi_01(30, 1.0, 1.0)
    xi1, xi2 = np.meshgrid(nodes, nodes, indexing="ij")
    pts = np.stack([xi1.ravel(), xi2.ravel()], axis=-1)
    w2 = np.outer(weights, weights).ravel()
    via_cube = float(np.sum(w2 * f(simplex.from_cube(pts))
                            * reference.jacobian_det(pts)))

    n = 2000
    h = 1.0 / n
    g1, g2 = np.meshgrid((np.arange(n) + 0.5) * h, (np.arange(n) + 0.5) * h,
                         indexing="ij")
    keep = g1 + g2 <= 1.0
    direct = float(np.sum(f(np.stack([g1[keep], g2[keep]], axis=-1)))) * h * h
    assert via_cube == pytest.approx(direct, rel=1e-3)


def test_clamp_accepts_rounding_spill():
    out = simplex.clamp_simplex(np.array([0.6, 0.4 + 5e-13]))
    assert out.sum() <= 1.0
    out = simplex.clamp_simplex(np.array([-5e-13, 0.5]))
    assert out[0] == 0.0


def test_clamp_rejects_real_violations():
    with pytest.raises(ParameterError):
        simplex.clamp_simplex(np.array([-1e-6, 0.5]))
    with pytest.raises(ParameterError):
        simplex.clamp_simplex(np.array([0.7, 0.5]))
    with pytest.raises(ParameterError):
        simplex.clamp_simplex(np.array([]))
    with pytest.raises(ParameterError):
        simplex.from_cube(np.array([1.2, 0.0]))
    with pytest.raises(ParameterError):
        simplex.from_cube(np.array([[0.5, 0.5], [-1e-6, 0.5]]))


def test_empty_batch_passes_and_pointless_coordinates_fail():
    for shape in ((0, 2), (0, 3, 2)):
        assert simplex.clamp_simplex(np.empty(shape)).shape == shape
        assert simplex.to_cube(np.empty(shape)).shape == shape
    for shape in ((0, 1), (0, 2), (0, 3)):
        back = simplex.from_cube(simplex.to_cube(np.empty(shape)))
        assert back.shape == shape
    for shape in ((0,), (4, 0), (0, 0)):
        with pytest.raises(ParameterError):
            simplex.clamp_simplex(np.empty(shape))


def test_full_point():
    full = simplex.full_point(np.array([0.2, 0.3]))
    assert full == pytest.approx([0.2, 0.3, 0.5])
    batch = simplex.full_point(np.array([[0.2, 0.3], [0.0, 0.0]]))
    assert batch.shape == (2, 3)
    assert batch[1] == pytest.approx([0.0, 0.0, 1.0])


def test_batch_shapes_preserved():
    x = np.zeros((7, 5, 2))
    x[..., 0] = 0.25
    x[..., 1] = 0.5
    assert simplex.to_cube(x).shape == (7, 5, 2)
    assert simplex.from_cube(simplex.to_cube(x)).shape == (7, 5, 2)
    assert reference.jacobian_det(simplex.to_cube(x)).shape == (7, 5)
