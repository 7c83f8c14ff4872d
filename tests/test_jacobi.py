"""Univariate polynomial layer, checked against Gauss-Jacobi quadrature.

Every coefficient table (G, H, I, J) is cross-verified here by projecting the
defining identity onto the target family: the table value must equal
<lhs, R_m> / c_m under the target weight. A table bug fails these tests, not
the higher-level ones built on top.
"""

import math

import numpy as np
import pytest

from wfspectral import jacobi
from wfspectral.errors import ParameterError
from wfspectral.oracles import gauss_jacobi_01

PARAM_GRID = [(0.01, 0.05), (0.5, 1.5), (1.0, 1.0), (2.5, 0.7), (0.3, 0.7)]


def quad_inner(f, g, a, b, nodes=60):
    x, w = gauss_jacobi_01(nodes, a, b)
    return float(np.sum(w * f(x) * g(x)))


def test_r0_is_one_everywhere():
    for a, b in PARAM_GRID:
        assert jacobi.eval_R(0, a, b, 0.37) == 1.0


def test_r1_closed_form():
    # R_1 = (a+b) x - a
    assert jacobi.eval_R(1, 1.0, 1.0, 0.5) == pytest.approx(0.0, abs=1e-15)
    for a, b in PARAM_GRID:
        x = 0.3
        assert jacobi.eval_R(1, a, b, x) == pytest.approx((a + b) * x - a,
                                                          rel=1e-14)


def test_value_at_zero_closed_form():
    assert jacobi.eval_R(2, 0.5, 1.0, 0.0) == pytest.approx(0.375, rel=1e-13)
    for a, b in PARAM_GRID:
        for n in range(8):
            expect = ((-1) ** n * math.gamma(n + a)
                      / (math.gamma(n + 1) * math.gamma(a)))
            assert jacobi.eval_R(n, a, b, 0.0) == pytest.approx(expect,
                                                                rel=1e-11)


def log_R_at_zero(n, a):
    """Log magnitude of R_n(0); the sign is (-1)**n.

    R_n^(a,b)(0) = (-1)^n Gamma(n+a) / (Gamma(n+1) Gamma(a)), independent of b.
    """
    return math.lgamma(n + a) - math.lgamma(n + 1) - math.lgamma(a)


def test_log_value_at_zero_matches_direct():
    for a, b in PARAM_GRID:
        for n in range(10):
            lr = log_R_at_zero(n, a)
            direct = math.gamma(n + a) / (math.gamma(n + 1) * math.gamma(a))
            assert math.exp(lr) == pytest.approx(direct, rel=1e-12)
        # the recurrence keeps the closed form to high degree
        for n in range(10, 41):
            want = (-1) ** n * math.exp(log_R_at_zero(n, a))
            assert jacobi.eval_R(n, a, b, 0.0) == pytest.approx(want, rel=1e-9)


def test_eval_R_all_prefix_consistency():
    xs = np.linspace(0.05, 0.95, 7)
    for a, b in PARAM_GRID:
        table = jacobi.eval_R_all(6, a, b, xs)
        for n in range(7):
            assert np.allclose(table[n], [jacobi.eval_R(n, a, b, x)
                                          for x in xs], rtol=1e-13)


def test_norm_pins():
    assert jacobi.norm_c(0, 1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
    assert jacobi.norm_c(1, 1.0, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_norm_matches_quadrature():
    for a, b in PARAM_GRID + [(0.01, 0.05)]:
        for n in (0, 1, 3, 6):
            val = quad_inner(lambda x: jacobi.eval_R_all(n, a, b, x)[n],
                             lambda x: jacobi.eval_R_all(n, a, b, x)[n],
                             a, b)
            assert val == pytest.approx(jacobi.norm_c(n, a, b), rel=1e-8)


def test_norm_survives_tiny_exponents():
    # log-space evaluation must not underflow where naive Gamma ratios would
    v = jacobi.norm_c(3, 0.01, 0.05)
    ref = quad_inner(lambda x: jacobi.eval_R_all(3, 0.01, 0.05, x)[3],
                     lambda x: jacobi.eval_R_all(3, 0.01, 0.05, x)[3],
                     0.01, 0.05)
    assert v == pytest.approx(ref, rel=1e-8)


def test_norm_defined_when_exponents_sum_to_one():
    # the printed formula divides by (2n+a+b-1)Gamma(n+a+b-1), a 0*inf
    # product at n=0 here; the evaluation must use the cancelled form
    v = jacobi.norm_c(0, 0.3, 0.7)
    assert v == pytest.approx(math.gamma(0.3) * math.gamma(0.7), rel=1e-13)


def test_orthogonality_grid():
    params = [0.01, 0.5, 1.0, 2.5]
    for a in params:
        for b in params:
            x, w = gauss_jacobi_01(40, a, b)
            table = jacobi.eval_R_all(8, a, b, x)
            for n in range(9):
                cn = jacobi.norm_c(n, a, b)
                for m in range(n, 9):
                    val = float(np.sum(w * table[n] * table[m]))
                    if n == m:
                        assert val == pytest.approx(cn, rel=1e-8)
                    else:
                        cm = jacobi.norm_c(m, a, b)
                        assert abs(val) <= 1e-8 * math.sqrt(cn * cm)


def test_ode_residual():
    # x(1-x) R'' + [a - (a+b)x] R' + n(n+a+b-1) R = 0. Each R_n is a
    # polynomial, so interpolate it once and differentiate exactly.
    xs = np.linspace(0.1, 0.9, 20)
    for a, b in [(0.5, 1.5), (1.0, 1.0), (2.5, 0.7)]:
        for n in (1, 3, 5):
            grid = np.linspace(0.0, 1.0, n + 1)
            poly = np.polynomial.Polynomial.fit(
                grid, jacobi.eval_R_all(n, a, b, grid)[n], deg=n)
            vals, d1, d2 = poly(xs), poly.deriv(1)(xs), poly.deriv(2)(xs)
            res = (xs * (1 - xs) * d2 + (a - (a + b) * xs) * d1
                   + n * (n + a + b - 1) * vals)
            scale = max(1.0, float(np.max(np.abs(vals))))
            assert np.max(np.abs(res)) <= 1e-9 * scale


def test_three_term_recurrence_identity():
    rng = np.random.default_rng(42)
    xs = rng.uniform(0, 1, size=50)
    for a, b in PARAM_GRID:
        table = jacobi.eval_R_all(21, a, b, xs)
        for n in range(21):
            lhs = xs * table[n]
            rhs = sum(jacobi.coeff_G(n, m, a, b) * table[m]
                      for m in range(max(0, n - 1), n + 2))
            scale = np.max(np.abs(lhs)) or 1.0
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


def test_coeff_G_pins():
    assert jacobi.coeff_G(0, 1, 1.0, 1.0) == pytest.approx(0.5)
    for a, b in PARAM_GRID:
        assert jacobi.coeff_G(0, 0, a, b) == pytest.approx(a / (a + b))
        assert jacobi.coeff_G(0, 1, a, b) == pytest.approx(1 / (a + b))


def _projection(lhs_factor, n, m, a_src, b_src, a_dst, b_dst):
    """<lhs_factor * R_n^(src), R_m^(dst)> / c_m^(dst) by quadrature."""
    x, w = gauss_jacobi_01(80, a_dst, b_dst)
    src = jacobi.eval_R_all(max(n, 1), a_src, b_src, x)[n]
    dst = jacobi.eval_R_all(max(m, 1), a_dst, b_dst, x)[m]
    val = float(np.sum(w * lhs_factor(x) * src * dst))
    return val / jacobi.norm_c(m, a_dst, b_dst)


@pytest.mark.parametrize("a,b", PARAM_GRID)
def test_coeff_G_matches_projection(a, b):
    for n in range(6):
        for m in range(max(0, n - 2), n + 3):
            want = _projection(lambda x: x, n, m, a, b, a, b)
            got = jacobi.coeff_G(n, m, a, b)
            assert got == pytest.approx(want, rel=1e-8, abs=1e-9)


@pytest.mark.parametrize("a,b", PARAM_GRID)
def test_coeff_H_matches_projection(a, b):
    # expansion of R_n^(a,b) in the (a, b+2) family
    for n in range(6):
        for m in range(max(0, n - 3), n + 2):
            want = _projection(lambda x: 1.0 + 0 * x, n, m, a, b, a, b + 2)
            got = jacobi.coeff_H(n, m, a, b)
            assert got == pytest.approx(want, rel=1e-8, abs=1e-9)


@pytest.mark.parametrize("a,b", PARAM_GRID)
def test_coeff_I_matches_projection(a, b):
    for n in range(6):
        for m in range(max(0, n - 2), n + 3):
            want = _projection(lambda x: 1.0 - x, n, m, a, b, a, b)
            got = jacobi.coeff_I(n, m, a, b)
            assert got == pytest.approx(want, rel=1e-8, abs=1e-9)


@pytest.mark.parametrize("a,b", [(0.5, 2.5), (1.0, 3.0), (2.0, 4.5),
                                 (0.3, 2.7)])
def test_coeff_J_matches_projection(a, b):
    # expansion of (1-x)^2 R_n^(a,b) in the (a, b-2) family
    for n in range(6):
        for m in range(n, n + 4):
            want = _projection(lambda x: (1.0 - x) ** 2, n, m, a, b, a, b - 2)
            got = jacobi.coeff_J(n, m, a, b)
            assert got == pytest.approx(want, rel=1e-8, abs=1e-9)


def test_coeff_I_is_delta_minus_G():
    for a, b in PARAM_GRID:
        for n in range(8):
            for m in range(max(0, n - 1), n + 2):
                delta = 1.0 if n == m else 0.0
                assert jacobi.coeff_I(n, m, a, b) == pytest.approx(
                    delta - jacobi.coeff_G(n, m, a, b), rel=1e-12, abs=1e-15)


def test_coeff_J_pin():
    assert jacobi.coeff_J(0, 0, 1.0, 3.0) == pytest.approx(1.0 / 3.0)


def test_band_structure_zero_outside():
    a, b = 0.5, 2.5
    for n in range(6):
        for m in range(10):
            if not -1 <= m - n <= 1:
                assert jacobi.coeff_G(n, m, a, b) == 0.0
                assert jacobi.coeff_I(n, m, a, b) == 0.0
            if not -2 <= m - n <= 0:
                assert jacobi.coeff_H(n, m, a, b) == 0.0
            if not 0 <= m - n <= 2:
                assert jacobi.coeff_J(n, m, a, b) == 0.0
    assert jacobi.coeff_G(0, -1, a, b) == 0.0
    assert jacobi.coeff_H(1, -1, a, b) == 0.0


def raise_b(n, a, b):
    """Expansion of R_n^(a,b) in the (a, b+1) family.

    Returns a list of (coefficient, degree) pairs; a single pair when n = 0.
    """
    if n == 0:
        return [(1.0, 0)]  # general leading coefficient is 0/0 at a+b=1
    s = 2 * n + a + b - 1
    return [((n + a + b - 1) / s, n), (-(n + a - 1) / s, n - 1)]


def test_raise_b_pins():
    assert raise_b(0, 0.3, 0.7) == [(1.0, 0)]
    pairs = raise_b(1, 1.0, 1.0)
    assert pairs[0] == (pytest.approx(2.0 / 3.0), 1)
    assert pairs[1] == (pytest.approx(-1.0 / 3.0), 0)


def test_raise_b_reconstructs_pointwise():
    rng = np.random.default_rng(3)
    xs = rng.uniform(0, 1, size=100)
    for a, b in PARAM_GRID:
        hi = jacobi.eval_R_all(6, a, b + 1, xs)
        for n in range(7):
            lhs = jacobi.eval_R_all(n, a, b, xs)[n]
            rhs = sum(c * hi[deg] for c, deg in raise_b(n, a, b))
            scale = np.max(np.abs(lhs)) or 1.0
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


@pytest.mark.filterwarnings("error")
def test_array_exponents_equal_scalar_calls():
    # an array argument stands for one scalar call per entry, bit for bit;
    # the masked-out branches raise no warning
    b = np.random.default_rng(11).uniform(2.0, 6.0, 400)
    tables = (jacobi.coeff_G, jacobi.coeff_H, jacobi.coeff_I, jacobi.coeff_J)
    for n in (0, 1, 2, 7):
        for a in (0.01, 0.7, 3.0):
            want = [jacobi.log_norm_c(n, a, v) for v in b.tolist()]
            assert np.array_equal(jacobi.log_norm_c(n, a, b), want)
            for table in tables:
                for m in range(n - 2, n + 3):
                    want = [table(n, m, a, v) for v in b.tolist()]
                    got = np.broadcast_to(table(n, m, a, b), b.shape)
                    assert np.array_equal(got, want)
    # array degrees: every offset m - n in -4..4, so outside each band and
    # m < 0 too, against a column of exponents; a + b = 1 and a + b = 2 are
    # the 0/0 cases of the printed forms at n = 0, and a + b < 1 makes the
    # n = 0 log arguments of log_norm_c negative
    n = np.arange(13)
    m = n[:, None] + np.arange(-4, 5)
    for a, b in [(0.25, 0.75), (0.5, 1.5), (1.0, 1.0), (0.25, 0.5),
                 (0.7, 2.6), (0.01, 3.0)]:
        want = [jacobi.log_norm_c(k, a, b) for k in n.tolist()]
        assert np.array_equal(jacobi.log_norm_c(n, a, b), want)
        for table in tables:
            bs = np.array([b, b + 0.5]) + (2.0 if table is jacobi.coeff_J else 0.0)
            want = [[[table(k, mk, a, v) for v in bs.tolist()] for mk in row]
                    for k, row in zip(n.tolist(), m.tolist())]
            got = table(n[:, None, None], m[:, :, None], a, bs)
            assert np.array_equal(got, want)
    # eval_R_all: a column of exponents against a row of points; each column
    # is the scalar call, down to nmax 0 and 1 and an empty set of points
    bs = np.array([0.3, 1.0, 2.6, 7.5])
    for nmax in (0, 1, 2, 9):
        for xs in (np.linspace(0.0, 1.0, 7), np.empty(0)):
            got = jacobi.eval_R_all(nmax, 0.7, bs[:, None], xs)
            assert got.shape == (nmax + 1, len(bs), len(xs))
            for col, v in enumerate(bs.tolist()):
                assert np.array_equal(got[:, col],
                                      jacobi.eval_R_all(nmax, 0.7, v, xs))


def test_parameter_domain_errors():
    with pytest.raises(ParameterError):
        jacobi.eval_R(2, 0.0, 1.0, 0.5)
    with pytest.raises(ParameterError):
        jacobi.eval_R(2, 1.0, -0.2, 0.5)
    with pytest.raises(ParameterError):
        jacobi.eval_R(-1, 1.0, 1.0, 0.5)
    with pytest.raises(ParameterError):
        jacobi.norm_c(-2, 1.0, 1.0)
    with pytest.raises(ParameterError):
        jacobi.coeff_J(1, 1, 1.0, 2.0)  # lowering needs b > 2
    # an array of exponents is checked entry by entry
    with pytest.raises(ParameterError):
        jacobi.coeff_J(1, 1, 1.0, np.array([3.0, 2.0]))
    with pytest.raises(ParameterError):
        jacobi.log_norm_c(1, 1.0, np.array([0.5, -0.1]))
