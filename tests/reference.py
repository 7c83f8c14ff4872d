"""Per-entry references for the Jacobi tables and the simplex basis.

Each function computes one entry, or one basis member at an array of points,
from plain Python floats with math.lgamma and math.log; numpy enters only as
the container of the points. The graded index set is built one tuple at a
time by a recursive generator. Every expression keeps the operation order of
the broadcast code in wfspectral.jacobi and wfspectral.basis, so a table
entry, a norm, a member value or a recurrence entry of the program equals the
reference bit for bit. Nothing here imports wfspectral.

Parameters follow the program's conventions: R_n^(a,b) is orthogonal against
x**(a-1) (1-x)**(b-1) on [0, 1]; theta holds the K mutation weights; index
tuples n = (n_1, ..., n_{K-1}); coordinate labels i run over 1..K-1.
"""

import math

import numpy as np


# -- univariate tables -------------------------------------------------------

def coeff_G(n, m, a, b):
    """x R_n = sum_m G_{n,m} R_m, band m - n in {-1, 0, 1}."""
    s = 2 * n + a + b
    if m < 0:
        return 0.0
    if m == n - 1:
        return (n + a - 1) * (n + b - 1) / ((s - 1) * (s - 2))
    if m == n:
        if n == 0:
            return a / (a + b)
        return 0.5 - (b * b - a * a - 2 * (b - a)) / (2 * s * (s - 2))
    if m == n + 1:
        if n == 0:
            return 1.0 / (a + b)
        return (n + 1) * (n + a + b - 1) / (s * (s - 1))
    return 0.0


def coeff_H(n, m, a, b):
    """R_n^(a,b) = sum_m H_{n,m} R_m^(a,b+2), band m - n in {-2, -1, 0}."""
    s = 2 * n + a + b
    if m < 0:
        return 0.0
    if m == n - 2:
        return (n + a - 2) * (n + a - 1) / ((s - 2) * (s - 1))
    if m == n - 1:
        return -2 * (n + a - 1) * (n + a + b - 1) / ((s - 2) * s)
    if m == n:
        if n == 0:
            return 1.0
        return (n + a + b - 1) * (n + a + b) / ((s - 1) * s)
    return 0.0


def coeff_I(n, m, a, b):
    """(1-x) R_n = sum_m I_{n,m} R_m, band m - n in {-1, 0, 1}."""
    s = 2 * n + a + b
    if m < 0:
        return 0.0
    if m == n - 1:
        if n == 1:
            return -a * b / ((a + b) * (a + b + 1))
        return -(n + a - 1) * (n + b - 1) / ((s - 2) * (s - 1))
    if m == n:
        if n == 0:
            return b / (a + b)
        if n == 1:
            return (b * b + a * (b + 2)) / ((a + b) * (a + b + 2))
        return ((b * b + 2 * n * (n + a - 1) + b * (2 * n + a - 2))
                / ((s - 2) * s))
    if m == n + 1:
        if n == 0:
            return -1.0 / (a + b)
        return -(n + 1) * (n + a + b - 1) / ((s - 1) * s)
    return 0.0


def coeff_J(n, m, a, b):
    """(1-x)^2 R_n^(a,b) = sum_m J_{n,m} R_m^(a,b-2), band m - n in {0, 1, 2};
    b > 2."""
    s = 2 * n + a + b
    if m == n:
        return (n + b - 2) * (n + b - 1) / ((s - 2) * (s - 1))
    if m == n + 1:
        return -2 * (n + 1) * (n + b - 1) / ((s - 2) * s)
    if m == n + 2:
        return (n + 1) * (n + 2) / ((s - 1) * s)
    return 0.0


def log_norm_c(n, a, b):
    """log of Gamma(n+a) Gamma(n+b) / ((2n+a+b-1) Gamma(n+a+b-1) n!)."""
    base = (math.lgamma(n + a) + math.lgamma(n + b)
            - math.lgamma(n + a + b) - math.lgamma(n + 1))
    if n == 0:
        return base
    return base + math.log(n + a + b - 1) - math.log(2 * n + a + b - 1)


def eval_R(n, a, b, x):
    """R_n^(a,b) at the points x, by the three-term recurrence."""
    x = np.asarray(x, dtype=float)
    prev, cur = np.ones(x.shape), (a + b) * x - a
    if n == 0:
        return prev
    for k in range(1, n):
        sub, diag, sup = (coeff_G(k, k + d, a, b) for d in (-1, 0, 1))
        prev, cur = cur, ((x - diag) * cur - sub * prev) / sup
    return cur


# -- the basis on the simplex ------------------------------------------------

def compositions(l, parts):
    """All weak compositions of l into `parts` parts, lexicographically."""
    if parts == 1:
        yield (l,)
        return
    for first in range(l + 1):
        for rest in compositions(l - first, parts - 1):
            yield (first,) + rest


def enumeration(K, D):
    """Index tuples of K-1 entries and degree <= D in graded-lex order, one
    tuple at a time: lower degree first, then lexicographic."""
    return [n for l in range(D + 1) for n in compositions(l, K - 1)]


def positions(K, D):
    """Graded-lex position of each tuple of enumeration(K, D)."""
    return {n: pos for pos, n in enumerate(enumeration(K, D))}


def _tails(n):
    """Suffix degrees n_{j+1} + ... + n_{K-1}, one per slot."""
    return [sum(n[j + 1:]) for j in range(len(n))]


def axis_params(theta, j, tail):
    """Weight exponents (a, b) of slot j at suffix degree tail."""
    return float(theta[j]), sum(float(t) for t in theta[j + 1:]) + 2 * tail


def to_cube(x):
    """Stick-breaking xi_i = x_i / (1 - x_1 - ... - x_{i-1}) of simplex points;
    0 once the stick is used up (at a vertex)."""
    x = np.asarray(x, dtype=float)
    xi = np.zeros_like(x)
    rest = np.ones(x.shape[:-1])
    for i in range(x.shape[-1]):
        np.divide(x[..., i], rest, out=xi[..., i], where=rest > 0)
        rest = rest - x[..., i]
    return xi


def jacobian_det(xi):
    """Jacobian determinant of the cube-to-simplex map: the product over
    i < K-2 of (1 - xi_i)^(K-2-i), for K-1 cube coordinates."""
    xi = np.asarray(xi, dtype=float)
    d = xi.shape[-1]
    out = np.ones(xi.shape[:-1])
    for i in range(d - 1):
        out = out * (1.0 - xi[..., i]) ** (d - 1 - i)
    return out


def eval_P_cube(theta, n, xi):
    """P_n = prod_j R_{n_j}^(theta_j, T_j + 2 N_j)(xi_j) (1 - xi_j)^N_j at
    cube points, multiplied from the last slot inward."""
    xi = np.asarray(xi, dtype=float)
    tails = _tails(n)
    val = np.ones(xi.shape[:-1])
    for j in reversed(range(len(n))):
        y = 1.0 - xi[..., j]
        power = np.ones(y.shape)
        for _ in range(tails[j]):
            power = power * y
        a, b = axis_params(theta, j, tails[j])
        val = eval_R(n[j], a, b, xi[..., j]) * power * val
    return val


def eval_P(theta, n, x):
    """P_n at simplex points x (K-1 frequencies on the last axis)."""
    return eval_P_cube(theta, n, to_cube(x))


def log_norm_C(theta, n):
    """log C_n = sum over slots of log c_{n_j} at the slot's exponents."""
    tails = _tails(n)
    total = 0.0
    for j in range(len(n)):
        total = total + log_norm_c(n[j], *axis_params(theta, j, tails[j]))
    return total


def band_entries(table, n, lo, a, b):
    """(m, table(n, m, a, b)) over the band m = n + lo .. n + lo + 2,
    exact zeros dropped."""
    out = []
    for m in range(n + lo, n + lo + 3):
        f = table(n, m, a, b)
        if f != 0.0:
            out.append((m, f))
    return out


def row_entries(theta, n, i):
    """The (m, coefficient) pairs of x_i P_n = sum_m coefficient P_m.

    The pivot slot i - 1 takes the G band; each slot j below it takes the
    H, I or J band as the suffix degree of the slots above changed by
    d = -1, 0 or +1. Entries come in lexicographic order of the chosen
    degrees, each the product of its factors from the pivot down.
    """
    piv = i - 1
    tails = _tails(n)
    partial = [(n[piv] - mp, g, (mp,))
               for mp, g in band_entries(coeff_G, n[piv], -1,
                                  *axis_params(theta, piv, tails[piv]))]
    for j in range(piv - 1, -1, -1):
        a, b = axis_params(theta, j, tails[j])
        extended = []
        for d, value, chosen in partial:
            table, lo = ((coeff_H, -2), (coeff_I, -1), (coeff_J, 0))[d + 1]
            for mj, f in band_entries(table, n[j], lo, a, b):
                extended.append((d + n[j] - mj, value * f, (mj,) + chosen))
        partial = extended
    suffix = tuple(n[piv + 1:])
    return [(chosen + suffix, value) for _, value, chosen in partial]
