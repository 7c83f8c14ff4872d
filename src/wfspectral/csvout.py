"""CSV export: the one writer behind every table the program writes.

Float columns are written as '%.17g': 17 significant digits, enough for every
double to read back as itself. The digits come from a vectorized
fixed-precision conversion in the manner of Ryu printf (Adams, "Ryu
revisited: printf floating point conversion", OOPSLA 2019):

1. the decimal exponent X of |x| comes from log10, corrected by one where
   the scaled value below falls outside [1e16, 1e17);
2. |x| 10^(16-X) is formed as a double-double, with 10^k held as an exact
   hi + lo pair and the product split into its rounded value and error
   (Dekker's two-product), so the 17-digit integer and the distance of its
   fraction from one half are known to about 1e-14;
3. the integer goes to ASCII through a 4-digit lookup table;
4. the text takes the %g layout: fixed when -4 <= X < 17, scientific
   otherwise, with trailing zeros stripped.

Values that are not finite, that lie below the scaling table's range, or
whose rounding falls within _MARGIN of a half (exact 17-digit ties
included) are formatted by Python's own '%.17g'. Integer and string columns
are written as text. A table is formatted in passes of at most CHUNK
floats, so the temporaries stay near one megabyte whatever its size.
"""

import functools

import numpy as np

CHUNK = 8192            # floats formatted per pass
_TINY = 1e-290          # smallest |x| the table of 10^k, k in _K_MIN.._K_MAX,
_K_MIN = -292           # scales into [1e16, 1e17)
_K_MAX = 307
_MARGIN = 2.0 ** -30    # far above the ~1e-14 error of the scaled fraction
_HI_BITS = np.int64(-(1 << 27))   # keeps the leading 26 bits of a double
_X_SPAN = 330           # decimal exponents -_X_SPAN.._X_SPAN cover all doubles
_DIGITS = 17
# text slots per value: sign, "0.000", the digits and the point, "e-308"
_WIDTH = 1 + 5 + _DIGITS + 1 + 5


def write_csv(path, header, blocks):
    """Write a CSV file: the header row, then the rows of every block.

    header is a list of column names. Each block is a sequence of
    equal-length columns: float columns are written as '%.17g', any other
    column (integers, str or bytes) as its text.
    """
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for block in blocks:
            columns = [np.asarray(c) for c in block]
            rows = CHUNK // max(1, sum(c.dtype.kind == "f" for c in columns))
            for lo in range(0, len(columns[0]), rows):
                fh.write(format_rows([c[lo:lo + rows] for c in columns]))


def format_rows(columns):
    """CSV lines, as bytes, of equal-length columns."""
    fields = []
    for col in columns:
        if col.dtype.kind == "f":
            text = _format_floats(col)
        else:
            col = np.ascontiguousarray(col.astype("S"))
            text = col.view(np.uint8).reshape(len(col), col.itemsize)
        sep = np.full((len(text), 1), ord(","), dtype=np.uint8)
        fields += [text, sep]
    fields[-1][:] = ord("\n")
    table = np.concatenate(fields, axis=1)
    # fields are padded with NUL, which no CSV text holds: drop every NUL
    return table[table != 0].tobytes()


@functools.cache
def _tables():
    """Scaling, digit and layout tables, built on first use."""
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        if k >= 0:
            h = float(10 ** k)
            hi.append(h)
            lo.append(float(10 ** k - int(h)))
        else:
            # int / int is correctly rounded, so hi is 10^k rounded, and lo
            # the rounded remainder (1 - hi 10^-k) / 10^-k
            q = 10 ** -k
            h = 1 / q
            num, den = h.as_integer_ratio()
            hi.append(h)
            lo.append((den - num * q) / (den * q))
    hi = np.array(hi)
    scale = (hi, *_split(hi), np.array(lo))

    i = np.arange(10000)[:, None]
    digits4 = (48 + i // np.array([1000, 100, 10, 1]) % 10).astype(np.uint8)
    words4 = digits4.view(np.uint32).ravel()
    zeros4 = (digits4[:, ::-1] == ord("0")).cumprod(axis=1).sum(axis=1)

    # per exponent X: the digit the point follows, the count of integer
    # digits, and the text around the digits ("0.000" before, "e-308" after)
    Xs = np.arange(-_X_SPAN, _X_SPAN + 1)
    fixed = (Xs >= -4) & (Xs < _DIGITS)
    point = np.where(fixed, np.where(Xs < 0, _DIGITS, Xs), 0)
    int_digits = np.where(fixed, np.where(Xs < 0, 0, Xs + 1), 1)
    around = np.zeros((len(Xs), _WIDTH), dtype=np.uint8)
    for row, X in enumerate(Xs.tolist()):
        if -4 <= X < 0:
            text = b"0." + b"0" * (-X - 1)
            around[row, 1:1 + len(text)] = list(text)
        elif not 0 <= X < _DIGITS:
            text = b"e%+03d" % X
            around[row, _WIDTH - 5:_WIDTH - 5 + len(text)] = list(text)

    # per (point, kept digits): which of the body slots take digit j, which
    # take digit j - 1 (past the point), and where the point goes
    P, kept = np.divmod(np.arange((_DIGITS + 1) ** 2), _DIGITS + 1)
    P, kept, j = P[:, None], kept[:, None], np.arange(_DIGITS + 1)
    before = ((j <= P) & (j < kept)).astype(np.uint8) * 255
    after = ((j > P + 1) & (j <= kept)).astype(np.uint8) * 255
    dot = ((j == P + 1) & (kept > P + 1)).astype(np.uint8) * ord(".")
    return (scale, words4, zeros4, point, int_digits, around,
            before, after, dot)


def _split(v):
    """v = hi + lo with hi the leading 26 bits, by masking: no overflow."""
    hi = (v.view(np.int64) & _HI_BITS).view(np.float64)
    return hi, v - hi


def _scaled(a, X, scale):
    """|x| 10^(16-X) as p + r, p the rounded product and r what it lost."""
    k = np.clip(16 - X - _K_MIN, 0, _K_MAX - _K_MIN)
    b, bh, bl, lo = (np.take(t, k) for t in scale)
    ah, al = _split(a)
    p = a * b
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err + a * lo


def _format_floats(x):
    """'%.17g' text of values, as rows of _WIDTH bytes padded with NUL."""
    (scale, words4, zeros4, point, int_digits, around,
     before, after, dot) = _tables()
    x = np.ascontiguousarray(x, dtype=np.float64)
    n = len(x)
    a = np.abs(x)
    zero = a == 0
    fast = (a >= _TINY) & (a < np.inf)
    a = np.where(fast, a, 1.0)
    X = np.floor(np.log10(a)).astype(np.int64)
    p, r = _scaled(a, X, scale)
    above = (p > 1e17) | ((p == 1e17) & (r >= 0))
    below = (p < 1e16) | ((p == 1e16) & (r < 0))
    if above.any() or below.any():
        X += above.astype(np.int64) - below
        p, r = _scaled(a, X, scale)
        fast &= (p >= 1e16) & (p <= 1e17)
    floor = np.floor(r)
    frac = r - floor
    N = p.astype(np.int64) + floor.astype(np.int64) + (frac > 0.5)
    slow = ~(fast | zero) | (np.abs(frac - 0.5) < _MARGIN)
    carry = N == 10 ** 17
    N[carry] = 10 ** 16
    X += carry
    N[zero] = 0
    X[zero] = 0
    row = np.clip(X + _X_SPAN, 0, 2 * _X_SPAN)

    # the digits are bytes 3..19 of six words: the leading digit, then four
    # 4-digit groups from the table
    high = N // 10 ** 8
    low = N - high * 10 ** 8
    lead = high // 10 ** 8
    high -= lead * 10 ** 8
    groups = [high // 10000, high % 10000, low // 10000, low % 10000]
    words = np.zeros((n, 6), dtype=np.uint32)
    for g, group in enumerate(groups):
        words[:, g + 1] = np.take(words4, group)
    digits = words.view(np.uint8)[:, 2:21]   # a NUL, 17 digits, a NUL
    digits[:, 1] = 48 + lead
    # trailing zeros: a group's count, plus the count after it when the
    # group is all zeros
    trailing = np.take(zeros4, groups[0])
    for group in groups[1:]:
        trailing = np.take(zeros4, group) + (group == 0) * trailing
    kept = np.maximum(np.where(zero, 1, _DIGITS - trailing),
                      np.take(int_digits, row))
    layout = np.take(point, row) * (_DIGITS + 1) + kept

    out = np.take(around, row, axis=0)
    out[:, 0] = np.where(np.signbit(x), ord("-"), 0)
    body = np.take(before, layout, axis=0)
    body &= digits[:, 1:]
    body |= np.take(after, layout, axis=0) & digits[:, :-1]
    body |= np.take(dot, layout, axis=0)
    out[:, 6:6 + _DIGITS + 1] = body
    for i in np.flatnonzero(slow).tolist():
        text = b"%.17g" % x[i]
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    return out
