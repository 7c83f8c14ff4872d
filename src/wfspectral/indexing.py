"""Enumeration of multi-index vectors on the truncated basis.

Indices are (K-1)-tuples of nonnegative integers with total degree at most D,
ordered graded lexicographically: lower total degree first, ties broken by
plain left-to-right lexicographic comparison. Positions are 0-based. The
ordering is total and deterministic, so a row of the index array and the
tuple itself are interchangeable keys (graded_positions maps one to the
other).
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


class BasisEnumeration:
    """Graded-lex array of the index tuples up to degree D.

    Attributes, each a read-only int64 array:
        indices: (U, K-1) tuples, one per row, in graded-lex order.
        degrees: (U,) total degree of each row.
        tails: (U, K-1) suffix sums of each row, as tail_sums gives them.
    """

    def __init__(self, K, D):
        _check_K(K)
        if D < 0:
            raise ParameterError(f"truncation degree must be >= 0, got {D}")
        self.K = K
        self.D = D
        # every tuple of degree <= D, each extended in turn by every last
        # entry its degree leaves room for, then put at its graded position
        n = np.zeros((1, 0), dtype=np.int64)
        for _ in range(K - 1):
            room = D + 1 - n.sum(axis=1)
            rows = np.repeat(np.arange(len(n)), room)
            last = np.arange(len(rows)) - np.repeat(np.cumsum(room) - room,
                                                    room)
            n = np.column_stack([n[rows], last])
        self.indices = np.empty_like(n)
        self.indices[graded_positions(n)] = n
        self.degrees = self.indices.sum(axis=1)
        self.tails = (np.cumsum(self.indices[:, ::-1], axis=1)[:, ::-1]
                      - self.indices)
        for a in (self.indices, self.degrees, self.tails):
            a.flags.writeable = False

    def __len__(self):
        return len(self.indices)


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
