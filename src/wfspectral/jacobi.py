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
and log_norm_c also take a float array b, one exponent per suffix
degree: their branches depend only on the integer degrees, so each entry
equals the scalar call bit for bit.
"""

import math

import numpy as np

from .errors import ParameterError

# an exact type test against a module global keeps the scalar path as cheap
# as a plain comparison
_ARRAY = np.ndarray


def _check_params(a, b):
    if not (a > 0 and (b > 0 if type(b) is not _ARRAY else (b > 0).all())):
        raise ParameterError(f"weight exponents must be positive, got a={a}, b={b}")


def _check_degree(n):
    if n < 0:
        raise ParameterError(f"polynomial degree must be >= 0, got {n}")


def _lgamma(z):
    return _libm(math.lgamma, z)


def _log(z):
    return _libm(math.log, z)


def _libm(fn, z):
    # fn per entry of an array: numpy's own log can differ from libm in the
    # last bit, and the entries must equal the scalar calls
    if type(z) is _ARRAY:
        return np.array([fn(v) for v in z.tolist()])
    return fn(z)


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

    Returns an array of shape (nmax+1,) + shape(x). Scalar x gives shape
    (nmax+1,).
    """
    _check_params(a, b)
    _check_degree(nmax)
    x = np.asarray(x, dtype=float)
    out = np.empty((nmax + 1,) + x.shape)
    out[0] = 1.0
    if nmax == 0:
        return out
    out[1] = (a + b) * x - a
    for k in range(1, nmax):
        # x*R_k = G_{k,k-1} R_{k-1} + G_{k,k} R_k + G_{k,k+1} R_{k+1}
        sub = coeff_G(k, k - 1, a, b)
        diag = coeff_G(k, k, a, b)
        sup = coeff_G(k, k + 1, a, b)
        out[k + 1] = ((x - diag) * out[k] - sub * out[k - 1]) / sup
    return out


def log_norm_c(n, a, b):
    """Log of the squared norm c_n = <R_n, R_n> under the (a,b) weight.

    Evaluated via Gamma(n+a+b) rather than (2n+a+b-1)Gamma(n+a+b-1), which
    is a 0 * inf product when n = 0 and a + b = 1.
    """
    _check_params(a, b)
    _check_degree(n)
    base = (_lgamma(n + a) + _lgamma(n + b)
            - _lgamma(n + a + b) - _lgamma(n + 1))
    if n == 0:
        return base
    return base + _log(n + a + b - 1) - _log(2 * n + a + b - 1)


def norm_c(n, a, b):
    """Squared norm c_n^(a,b) = Gamma(n+a)Gamma(n+b) / ((2n+a+b-1)Gamma(n+a+b-1)n!)."""
    return math.exp(log_norm_c(n, a, b))


def coeff_G(n, m, a, b):
    """Three-term recurrence table: x*R_n = sum_m G_{n,m} R_m, band m-n in {-1,0,1}."""
    _check_params(a, b)
    _check_degree(n)
    if m < 0:
        return 0.0
    d = m - n
    if d == -1:
        return ((n + a - 1) * (n + b - 1)
                / ((2 * n + a + b - 1) * (2 * n + a + b - 2)))
    if d == 0:
        if n == 0:
            # limit of the general entry; the printed form is 0/0 at a+b=2
            return a / (a + b)
        return 0.5 - ((b * b - a * a - 2 * (b - a))
                      / (2 * (2 * n + a + b) * (2 * n + a + b - 2)))
    if d == 1:
        if n == 0:
            # cancelled form; the general entry is 0/0 at a+b=1
            return 1.0 / (a + b)
        return ((n + 1) * (n + a + b - 1)
                / ((2 * n + a + b) * (2 * n + a + b - 1)))
    return 0.0


def coeff_H(n, m, a, b):
    """Parameter-raising table: R_n^(a,b) = sum_m H_{n,m} R_m^(a,b+2), band m-n in {-2,-1,0}."""
    _check_params(a, b)
    _check_degree(n)
    if m < 0:
        return 0.0
    d = m - n
    if d == 0:
        if n == 0:
            return 1.0  # R_0 is 1 in every family; general entry is 0/0 at a+b=1
        return ((n + a + b - 1) * (n + a + b)
                / ((2 * n + a + b - 1) * (2 * n + a + b)))
    if d == -1:
        # the n=1 row -2a/(a+b+2) is this formula at n=1
        return (-2 * (n + a - 1) * (n + a + b - 1)
                / ((2 * n + a + b - 2) * (2 * n + a + b)))
    if d == -2:
        return ((n + a - 2) * (n + a - 1)
                / ((2 * n + a + b - 2) * (2 * n + a + b - 1)))
    return 0.0


def coeff_I(n, m, a, b):
    """Stay-parameter table: (1-x)*R_n = sum_m I_{n,m} R_m, band m-n in {-1,0,1}.

    Algebraically I = identity - G; the piecewise closed forms below are the
    published table and the equality is pinned by tests.
    """
    _check_params(a, b)
    _check_degree(n)
    if m < 0:
        return 0.0
    d = m - n
    if d == 1:
        if n == 0:
            return -1.0 / (a + b)
        return (-(n + 1) * (n + a + b - 1)
                / ((2 * n + a + b - 1) * (2 * n + a + b)))
    if d == 0:
        if n == 0:
            return b / (a + b)
        if n == 1:
            return (b * b + a * (b + 2)) / ((a + b) * (a + b + 2))
        return ((b * b + 2 * n * (n + a - 1) + b * (2 * n + a - 2))
                / ((2 * n + a + b - 2) * (2 * n + a + b)))
    if d == -1:
        if n == 1:
            return -a * b / ((a + b) * (a + b + 1))
        return (-(n + a - 1) * (n + b - 1)
                / ((2 * n + a + b - 2) * (2 * n + a + b - 1)))
    return 0.0


def coeff_J(n, m, a, b):
    """Parameter-lowering table: (1-x)^2 R_n^(a,b) = sum_m J_{n,m} R_m^(a,b-2),
    band m-n in {0,1,2}. Requires b > 2 (the target weight needs b-2 > 0)."""
    _check_params(a, b)
    _check_degree(n)
    if not (b > 2 if type(b) is not _ARRAY else (b > 2).all()):
        raise ParameterError(f"lowering the second exponent requires b > 2, got b={b}")
    if m < 0:
        return 0.0
    d = m - n
    if d == 0:
        # the printed n=0 entry (b-1)(b-2)/((a+b-1)(a+b-2)) is this at n=0
        return ((n + b - 2) * (n + b - 1)
                / ((2 * n + a + b - 2) * (2 * n + a + b - 1)))
    if d == 1:
        return (-2 * (n + 1) * (n + b - 1)
                / ((2 * n + a + b - 2) * (2 * n + a + b)))
    if d == 2:
        return ((n + 1) * (n + 2)
                / ((2 * n + a + b - 1) * (2 * n + a + b)))
    return 0.0
