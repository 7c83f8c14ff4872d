import math

import numpy as np
import pytest

import reference
from wfspectral.errors import ParameterError
from wfspectral.indexing import (BasisEnumeration, count_at_degree,
                                 graded_positions, tail_sums, total_count)


def test_enumeration_k3_d2_is_graded_lex():
    enum = BasisEnumeration(3, 2)
    assert enum.indices.tolist() == [[0, 0], [0, 1], [1, 0], [0, 2], [1, 1],
                                     [2, 0]]
    assert len(enum) == 6


def test_enumeration_k2_is_scalar_degrees():
    enum = BasisEnumeration(2, 5)
    assert enum.indices.tolist() == [[0], [1], [2], [3], [4], [5]]
    assert len(enum) == 6


@pytest.mark.parametrize("K", [2, 3, 4, 5])
def test_indices_equal_the_reference_generator(K):
    for D in range(13):
        enum = BasisEnumeration(K, D)
        assert enum.indices.dtype == np.int64
        assert enum.indices.shape == (total_count(K, D), K - 1)
        assert [tuple(n) for n in enum.indices.tolist()] == \
            reference.enumeration(K, D)
        assert np.array_equal(graded_positions(enum.indices),
                              np.arange(len(enum)))


@pytest.mark.parametrize("K", [2, 3, 4, 5])
def test_degrees_and_tails_are_row_and_suffix_sums(K):
    enum = BasisEnumeration(K, 9)
    rows = [tuple(n) for n in enum.indices.tolist()]
    assert enum.degrees.tolist() == [sum(n) for n in rows]
    assert enum.tails.shape == enum.indices.shape
    assert [tuple(t) for t in enum.tails.tolist()] == [tail_sums(n)
                                                        for n in rows]


def test_arrays_are_read_only():
    enum = BasisEnumeration(3, 4)
    for name in ("indices", "degrees", "tails"):
        with pytest.raises(ValueError):
            getattr(enum, name)[0] = 1


def test_enumeration_k4_d1_length():
    assert len(BasisEnumeration(4, 1)) == 4


def test_total_count_matches_binomial():
    for K in range(2, 7):
        for D in range(0, 13):
            assert total_count(K, D) == math.comb(D + K - 1, K - 1)


def test_count_at_degree_examples():
    assert count_at_degree(3, 2) == 3
    assert count_at_degree(2, 7) == 1
    assert count_at_degree(4, 2) == 6


def test_degree_counts_sum_to_total():
    for K in range(2, 7):
        for D in range(0, 13):
            total = sum(count_at_degree(K, l) for l in range(D + 1))
            assert total == len(BasisEnumeration(K, D))


def test_position_round_trip():
    enum = BasisEnumeration(3, 8)
    for pos, n in enumerate(enum.indices):
        assert graded_positions(n[None, :]).tolist() == [pos]


def test_ordering_is_graded_then_lex():
    rows = [tuple(n) for n in BasisEnumeration(4, 6).indices.tolist()]
    for a, b in zip(rows, rows[1:]):
        assert sum(a) < sum(b) or (sum(a) == sum(b) and a < b)


def test_prefix_property_under_deeper_truncation():
    # the degree-D enumeration must be the leading block of the degree-(D+2)
    # one, which is what makes truncated matrix slicing exact
    small = BasisEnumeration(3, 6)
    large = BasisEnumeration(3, 8)
    assert np.array_equal(large.indices[:len(small)], small.indices)


def degree_slice(enum, d):
    """Positions of all tuples with total degree <= d: a prefix, as a range."""
    return range(total_count(enum.K, d))


def test_degree_slice_covers_degrees():
    enum = BasisEnumeration(3, 5)
    for d in range(6):
        sl = degree_slice(enum, d)
        assert all(enum.indices[i].sum() <= d for i in sl)
        assert len(sl) == total_count(3, d)


def test_graded_positions_match_the_enumeration():
    for K in range(2, 7):
        enum = BasisEnumeration(K, 8)
        tuples = enum.indices
        assert np.array_equal(graded_positions(tuples), np.arange(len(enum)))
        # a position depends on its own row only
        order = np.random.default_rng(K).permutation(len(enum))
        assert np.array_equal(graded_positions(tuples[order]), order)
    # tuples with no slots: the empty tuple alone, at position 0
    assert np.array_equal(graded_positions(np.zeros((3, 0), dtype=int)),
                          np.zeros(3, dtype=int))
    for parts in (0, 2):
        assert graded_positions(np.zeros((0, parts), dtype=int)).shape == (0,)


def test_known_position_of_8_2():
    enum = BasisEnumeration(3, 12)
    assert graded_positions([[8, 2]]).tolist() == [63]
    assert enum.indices[63].tolist() == [8, 2]


def test_big_truncation_sizes():
    assert total_count(3, 40) == 861
    assert total_count(3, 44) == 1035
    assert total_count(3, 36) == 703


def test_tail_sums():
    assert tail_sums((3, 1, 2)) == (3, 2, 0)
    assert tail_sums((5,)) == (0,)
    assert tail_sums((0, 0)) == (0, 0)


def test_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        BasisEnumeration(1, 3)
    with pytest.raises(ParameterError):
        BasisEnumeration(3, -1)
    with pytest.raises(ParameterError):
        total_count(3, -2)
    with pytest.raises(ParameterError):
        count_at_degree(3, -1)


def test_enumeration_is_immutable_view():
    enum = BasisEnumeration(3, 4)
    assert not enum.indices.flags.writeable
    rng = np.random.default_rng(10)
    picks = rng.integers(0, len(enum), size=10)
    assert np.array_equal(graded_positions(enum.indices[picks]), picks)
