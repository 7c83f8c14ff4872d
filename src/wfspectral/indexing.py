"""Enumeration of multi-index vectors on the truncated basis.

Indices are (K-1)-tuples of nonnegative integers with total degree at most D,
ordered graded lexicographically: lower total degree first, ties broken by
plain left-to-right lexicographic comparison. Positions are 0-based. The
ordering is total and deterministic, so a position in the flat list and the
tuple itself are interchangeable keys.
"""

from math import comb

import numpy as np

from .errors import ParameterError


def total_count(K, D):
    """Number of index tuples with K-1 entries and total degree <= D."""
    _check_K(K)
    if D < 0:
        raise ParameterError(f"truncation degree must be >= 0, got {D}")
    return comb(D + K - 1, K - 1)


def count_at_degree(K, l):
    """Number of index tuples with K-1 entries and total degree exactly l."""
    _check_K(K)
    if l < 0:
        raise ParameterError(f"degree must be >= 0, got {l}")
    return comb(l + K - 2, K - 2)


def _compositions(l, parts):
    # all weak compositions of l into `parts` parts, lexicographically
    if parts == 1:
        yield (l,)
        return
    for first in range(l + 1):
        for rest in _compositions(l - first, parts - 1):
            yield (first,) + rest


class BasisEnumeration:
    """Graded-lex list of index tuples up to degree D, with a reverse map.

    Attributes:
        K: number of types; tuples have K-1 entries.
        D: truncation degree (inclusive).
        indices: list of tuples in graded-lex order.
        position: dict mapping tuple -> 0-based position.
    """

    def __init__(self, K, D):
        _check_K(K)
        if D < 0:
            raise ParameterError(f"truncation degree must be >= 0, got {D}")
        self.K = K
        self.D = D
        self.indices = []
        for l in range(D + 1):
            self.indices.extend(_compositions(l, K - 1))
        self.position = {n: p for p, n in enumerate(self.indices)}

    def __len__(self):
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)


def graded_positions(m):
    """Graded-lex positions of the rows of an integer array of index tuples.

    Rows must be nonnegative. A position does not depend on the truncation
    degree, since each degree block follows all lower ones. Within degree l
    the tuples are weak compositions of l in lexicographic order, so the rank
    adds, slot by slot, the compositions whose entry there is smaller.
    """
    m = np.asarray(m, dtype=np.int64)
    parts = m.shape[1]
    if parts == 0:   # the empty tuple is the only one: position 0
        return np.zeros(len(m), dtype=np.int64)
    deg = m.sum(axis=1)
    top = int(deg.max(initial=0)) + parts
    binom = np.array([[comb(x, k) for k in range(parts + 1)]
                      for x in range(top + 1)], dtype=np.int64)
    pos = binom[deg + parts - 1, parts]   # tuples of lower degree
    rest = deg.copy()
    for s in range(parts - 1):
        q = parts - s
        pos += binom[rest + q - 1, q - 1] - binom[rest - m[:, s] + q - 1, q - 1]
        rest -= m[:, s]
    return pos


def index_arrays(indices, parts):
    """Index tuples as an int64 array of shape (len(indices), parts), and
    the suffix sums tail_sums gives for each row, as an array of that shape.
    """
    n = np.array(indices, dtype=np.int64).reshape(len(indices), parts)
    return n, np.cumsum(n[:, ::-1], axis=1)[:, ::-1] - n


def tail_sums(n):
    """Suffix degree sums of an index tuple.

    Returns a tuple t of the same length where t[j] = sum(n[j+1:]): the total
    degree carried by entries strictly to the right of slot j. The last entry
    is always 0.
    """
    out = []
    acc = 0
    for v in reversed(n[1:]):
        acc += v
        out.append(acc)
    out.reverse()
    out.append(0)
    return tuple(out)


def _check_K(K):
    if K < 2:
        raise ParameterError(f"need at least two types, got K={K}")
