from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oracles import _rationals as reference_rationals, brute_force_rational_count
from rankjump.rationals import (
    format_rational,
    int_pair_is_square,
    is_rational_square,
    iter_rationals,
    parse_rational,
    rat_height,
)


def _rationals(max_height):
    return list(iter_rationals(max_height))


def test_rat_height_examples():
    assert rat_height(Fraction(0)) == 1
    assert rat_height(Fraction(-5, 6)) == 6
    # 10/4 reduces to 5/2 first
    assert rat_height(Fraction(10, 4)) == 5


def test_enumerate_small():
    assert _rationals(1) == [Fraction(-1), Fraction(0), Fraction(1)]
    two = _rationals(2)
    assert two == [
        Fraction(-1),
        Fraction(0),
        Fraction(1),
        Fraction(-2),
        Fraction(-1, 2),
        Fraction(1, 2),
        Fraction(2),
    ]
    assert len(_rationals(3)) == 15


def test_enumerate_bad_bound():
    with pytest.raises(ValueError):
        _rationals(0)


def test_enumerate_unique_sorted_by_height():
    seq = _rationals(12)
    assert len(seq) == len(set(seq))
    heights = [rat_height(q) for q in seq]
    assert heights == sorted(heights)
    for a, b in zip(seq, seq[1:]):
        if rat_height(a) == rat_height(b):
            assert a < b


def test_enumerate_matches_the_set_and_sort_reference():
    # every block built in order equals the sorted set of its height
    for H in range(1, 41):
        assert _rationals(H) == reference_rationals(H)


def test_enumerate_cardinality_vs_brute_force_all_bounds():
    # Cross-check against an independent double loop for all H <= 50.
    for H in range(1, 51):
        assert len(_rationals(H)) == brute_force_rational_count(H)


def test_square_detection():
    assert is_rational_square(Fraction(9, 4)) == Fraction(3, 2)
    assert is_rational_square(Fraction(2)) is None
    assert is_rational_square(Fraction(254016, 15625)) == Fraction(504, 125)
    assert is_rational_square(Fraction(0)) == 0
    assert is_rational_square(Fraction(-4)) is None


@given(st.fractions(max_denominator=1000))
def test_square_roundtrip(q):
    s = is_rational_square(q * q)
    assert s == abs(q)


@given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
def test_int_pair_square_matches_reduced(n, d):
    q = Fraction(n, d)
    assert int_pair_is_square(n, d) == (is_rational_square(q) is not None)


@given(st.fractions(max_denominator=10**6))
def test_parse_format_roundtrip(q):
    assert parse_rational(format_rational(q)) == q


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_rational("a/b")
    with pytest.raises(ValueError):
        parse_rational("1/0")
