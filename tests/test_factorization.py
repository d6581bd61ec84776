import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from oracles import brute_force_subset_square
from rankjump.factorization import (
    factorize,
    is_probable_prime,
    square_class_independent,
    squarefree_part,
    squarefree_part_of_rational,
)
from rankjump.rationals import is_rational_square


def test_factorize_small():
    assert factorize(1) == {}
    assert factorize(24) == {2: 3, 3: 1}
    assert factorize(97) == {97: 1}
    assert factorize(2**10 * 3**5 * 1009) == {2: 10, 3: 5, 1009: 1}
    # Prime powers above the trial-division bound are split by rho.
    assert factorize(1009**3) == {1009: 3}
    assert factorize((1013 * 1019) ** 2) == {1013: 2, 1019: 2}
    assert factorize(997**5 * 1009) == {997: 5, 1009: 1}


def test_factorize_large_semiprime():
    p, q = 1000003, 999983
    assert factorize(p * q) == {q: 1, p: 1}


def test_factorize_random_roundtrip():
    rng = random.Random(20261018)
    for _ in range(2_000):
        n = rng.randint(1, 10**15)
        fac = factorize(n)
        assert list(fac) == sorted(fac)
        prod = 1
        for p, e in fac.items():
            assert e >= 1 and is_probable_prime(p)
            prod *= p**e
        assert prod == n


def test_squarefree_examples():
    assert squarefree_part(24) == 6
    assert squarefree_part(1) == 1
    assert squarefree_part(-50) == -2
    assert squarefree_part(-1) == -1
    with pytest.raises(ValueError, match=r"^squarefree_part\(0\)$"):
        squarefree_part(0)
    with pytest.raises(ValueError, match=r"^squarefree_part_of_rational\(0\)$"):
        squarefree_part_of_rational(Fraction(0))


def test_squarefree_random_bulk():
    # squarefree_part(n) * (perfect square) = n exactly,
    # for 10^4 random n with |n| <= 10^12.
    rng = random.Random(20260808)
    for _ in range(10_000):
        n = rng.randint(1, 10**12) * rng.choice((1, -1))
        s = squarefree_part(n)
        assert n % s == 0
        m = n // s
        assert m > 0 and isqrt(m) ** 2 == m
        # s is squarefree: every prime of |s| appears once
        assert all(e == 1 for e in factorize(abs(s)).values())


def test_squarefree_of_rational():
    assert squarefree_part_of_rational(Fraction(3, 8)) == 6
    assert squarefree_part_of_rational(Fraction(-15, 8)) == -30


def test_independence_examples():
    assert square_class_independent([2, 3, 5])
    assert not square_class_independent([6, 10, 15])  # 6 * 10 * 15 = 30^2
    assert square_class_independent([6, 15, 30])
    assert square_class_independent([-1, -6])
    assert not square_class_independent([-1, -2, 2])


def test_unit_class_rejected():
    with pytest.raises(ValueError, match="^class 1 is not allowed$"):
        square_class_independent([squarefree_part(4)])


_PRIMES_30 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


@st.composite
def _squarefree_sets(draw):
    k = draw(st.integers(1, 5))
    out = []
    for _ in range(k):
        mask = draw(st.integers(0, (1 << len(_PRIMES_30)) - 1))
        sign = draw(st.sampled_from((1, -1)))
        n = sign
        for i, p in enumerate(_PRIMES_30):
            if mask >> i & 1:
                n *= p
        if n == 1:
            n = -1
        out.append(n)
    return out


@given(_squarefree_sets())
@settings(max_examples=300)
def test_independence_vs_brute_force(values):
    # Cross-check against brute-force subset-product square testing.
    classes = [squarefree_part(v) for v in values]
    assert square_class_independent(classes) == (brute_force_subset_square(values) is None)


# Factors above 1000 leave cofactors that trial division cannot split.
_FACTORS = st.sampled_from([1, 2, 3, 5, 6, 7, 1009, 7919, 104729, 1000003])


@st.composite
def _nonzero_rationals(draw):
    num = draw(st.integers(1, 10**4)) * draw(_FACTORS)
    den = draw(st.integers(1, 10**4)) * draw(_FACTORS)
    return draw(st.sampled_from((1, -1))) * Fraction(num, den)


@given(_nonzero_rationals(), _nonzero_rationals(), st.booleans())
@settings(max_examples=300)
def test_same_square_class_iff_quotient_is_square(u, q, same):
    # The twist fiber-first walk joins on this: u/w is a square exactly
    # when u and w have the same signed squarefree part.
    w = u * q * q if same else q
    same_class = squarefree_part_of_rational(u) == squarefree_part_of_rational(w)
    assert same_class == (is_rational_square(u / w) is not None)
    if same:
        assert same_class
