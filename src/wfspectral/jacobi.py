"""Univariate modified Jacobi polynomials on the unit interval.

R_n with parameters (a, b) is the degree-n polynomial orthogonal against the
weight x**(a-1) * (1-x)**(b-1) on [0, 1], normalized so that the leading
classical normalization is kept (R_0 == 1, R_1 = (a+b)x - a). Evaluation uses
the three-term recurrence upward in degree; closed hypergeometric forms are
deliberately avoided.

Four coefficient tables are exposed:
    G: expansion of x * R_n           in {R_{n-1}, R_n, R_{n+1}} at (a, b)
    H: expansion of R_n at (a, b)     in {R_{n-2}, R_{n-1}, R_n} at (a, b+2)
    I: expansion of (1-x) * R_n       in {R_{n-1}, R_n, R_{n+1}} at (a, b)
    J: expansion of (1-x)**2 * R_n    in {R_n, R_{n+1}, R_{n+2}} at (a, b-2)

All tables return exact 0.0 outside their declared offset band. The tables
and log_norm_c broadcast over the degree n, the target degree m and the
exponent b, so one call fills a whole table; eval_R_all broadcasts b against
x. Every expression is evaluated for all entries, with the band offset and
the low-degree cases selected by masks; the selected expression keeps its
operation order, so each entry equals a scalar call bit for bit.
"""

import math

import numpy as np

from .errors import ParameterError


def _degrees(n, a, b):
    """n as floats, after checking the degrees and weight exponents.

    The integer parts of every expression (n + 1, 2 * n, (n + 1) * (n + 2))
    are exact in floats, so the values are those of integer degrees; numpy
    mixes an integer with a float scalar several times slower.
    """
    if not (a > 0 and (np.asarray(b) > 0).all()):
        raise ParameterError(f"weight exponents must be positive, got a={a}, b={b}")
    degrees = np.asarray(n, dtype=float)[()]
    if (degrees < 0).any():
        raise ParameterError(f"polynomial degree must be >= 0, got {n}")
    return degrees


def _lgamma(z):
    return _libm(math.lgamma, z)


def _log(z):
    return _libm(math.log, z)


def _libm(fn, z):
    # fn per entry: numpy's own log can differ from libm in the last bit, and
    # log C feeds the decomposition hash
    z = np.asarray(z)
    return np.array([fn(v) for v in z.ravel().tolist()]).reshape(z.shape)


def _band(n, m, lo, entries):
    """entries[k] where m - n == lo + k; exact 0.0 elsewhere and where m < 0."""
    d = m - n - lo
    k = np.where((d >= 0) & (d <= 2) & (m >= 0), d, 3).astype(int)
    return np.choose(k, entries + (0.0,))[()]


def eval_R(n, a, b, x):
    """Evaluate R_n^(a,b) at x.

    Args:
        n: degree, >= 0.
        a, b: weight exponents, > 0.
        x: scalar or ndarray of evaluation points in [0, 1].

    Returns:
        Value(s) with the same shape as x (python float for scalar input).
    """
    return eval_R_all(n, a, b, x)[n]


def eval_R_all(nmax, a, b, x):
    """Evaluate R_0 .. R_nmax at x via the upward recurrence.

    b may be an array that broadcasts against x. Returns an array of shape
    (nmax+1,) + broadcast shape of b and x; scalar b and x give (nmax+1,).
    """
    _degrees(nmax, a, b)
    x = np.asarray(x, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.empty((nmax + 1,) + np.broadcast_shapes(b.shape, x.shape))
    out[0] = 1.0
    if nmax == 0:
        return out
    out[1] = (a + b) * x - a
    # x*R_k = G_{k,k-1} R_{k-1} + G_{k,k} R_k + G_{k,k+1} R_{k+1}, the band
    # moved ahead of the axes of b
    n = np.arange(1, nmax).reshape((-1,) + (1,) * (b.ndim + 1))
    g = np.moveaxis(coeff_G(n, n + np.arange(-1, 2), a, b[..., None]), -1, 1)
    for k, (sub, diag, sup) in enumerate(g, start=1):
        out[k + 1] = ((x - diag) * out[k] - sub * out[k - 1]) / sup
    return out


def log_norm_c(n, a, b):
    """Log of the squared norm c_n = <R_n, R_n> under the (a,b) weight.

    Evaluated via Gamma(n+a+b) rather than (2n+a+b-1)Gamma(n+a+b-1), which
    is a 0 * inf product when n = 0 and a + b = 1.
    """
    n = _degrees(n, a, b)
    base = (_lgamma(n + a) + _lgamma(n + b)
            - _lgamma(n + a + b) - _lgamma(n + 1))
    # the n = 0 entries take no log terms, and their arguments can be
    # negative, on which math.log raises
    first = n == 0
    return np.where(first, base,
                    base + _log(np.where(first, 1.0, n + a + b - 1))
                    - _log(np.where(first, 1.0, 2 * n + a + b - 1)))[()]


def norm_c(n, a, b):
    """Squared norm c_n^(a,b) = Gamma(n+a)Gamma(n+b) / ((2n+a+b-1)Gamma(n+a+b-1)n!)."""
    return math.exp(log_norm_c(n, a, b))


def coeff_G(n, m, a, b):
    """Three-term recurrence table: x*R_n = sum_m G_{n,m} R_m, band m-n in {-1,0,1}."""
    n = _degrees(n, a, b)
    s = 2 * n + a + b
    with np.errstate(divide="ignore", invalid="ignore"):
        sub = (n + a - 1) * (n + b - 1) / ((s - 1) * (s - 2))
        # n = 0: limit of the general entry; the printed form is 0/0 at a+b=2
        diag = np.where(n == 0, a / (a + b),
                        0.5 - (b * b - a * a - 2 * (b - a)) / (2 * s * (s - 2)))
        # n = 0: cancelled form; the general entry is 0/0 at a+b=1
        sup = np.where(n == 0, 1.0 / (a + b),
                       (n + 1) * (n + a + b - 1) / (s * (s - 1)))
    return _band(n, m, -1, (sub, diag, sup))


def coeff_H(n, m, a, b):
    """Parameter-raising table: R_n^(a,b) = sum_m H_{n,m} R_m^(a,b+2), band m-n in {-2,-1,0}."""
    n = _degrees(n, a, b)
    s = 2 * n + a + b
    with np.errstate(divide="ignore", invalid="ignore"):
        down2 = (n + a - 2) * (n + a - 1) / ((s - 2) * (s - 1))
        # the n=1 row -2a/(a+b+2) is this formula at n=1
        down = -2 * (n + a - 1) * (n + a + b - 1) / ((s - 2) * s)
        # n = 0: R_0 is 1 in every family; the general entry is 0/0 at a+b=1
        same = np.where(n == 0, 1.0,
                        (n + a + b - 1) * (n + a + b) / ((s - 1) * s))
    return _band(n, m, -2, (down2, down, same))


def coeff_I(n, m, a, b):
    """Stay-parameter table: (1-x)*R_n = sum_m I_{n,m} R_m, band m-n in {-1,0,1}.

    Algebraically I = identity - G; the piecewise closed forms below are the
    published table and the equality is pinned by tests.
    """
    n = _degrees(n, a, b)
    s = 2 * n + a + b
    with np.errstate(divide="ignore", invalid="ignore"):
        sub = np.where(n == 1, -a * b / ((a + b) * (a + b + 1)),
                       -(n + a - 1) * (n + b - 1) / ((s - 2) * (s - 1)))
        diag = np.where(
            n == 0, b / (a + b),
            np.where(n == 1, (b * b + a * (b + 2)) / ((a + b) * (a + b + 2)),
                     (b * b + 2 * n * (n + a - 1) + b * (2 * n + a - 2))
                     / ((s - 2) * s)))
        sup = np.where(n == 0, -1.0 / (a + b),
                       -(n + 1) * (n + a + b - 1) / ((s - 1) * s))
    return _band(n, m, -1, (sub, diag, sup))


def coeff_J(n, m, a, b):
    """Parameter-lowering table: (1-x)^2 R_n^(a,b) = sum_m J_{n,m} R_m^(a,b-2),
    band m-n in {0,1,2}. Requires b > 2 (the target weight needs b-2 > 0)."""
    n = _degrees(n, a, b)
    if not (np.asarray(b) > 2).all():
        raise ParameterError(f"lowering the second exponent requires b > 2, got b={b}")
    s = 2 * n + a + b
    # the printed n=0 entry (b-1)(b-2)/((a+b-1)(a+b-2)) is the first form at n=0
    same = (n + b - 2) * (n + b - 1) / ((s - 2) * (s - 1))
    up = -2 * (n + 1) * (n + b - 1) / ((s - 2) * s)
    up2 = (n + 1) * (n + 2) / ((s - 1) * s)
    return _band(n, m, 0, (same, up, up2))
