from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rankjump.errors import PoleAtPoint
from rankjump.factorization import squarefree_part, squarefree_part_of_rational
from rankjump.polynomials import (
    degree,
    depress_cubic,
    format_poly,
    int_form,
    int_form_eval,
    is_squarefree,
    parse_poly,
    poly,
    poly_add,
    poly_divmod,
    poly_eval,
    poly_gcd,
    poly_mul,
    ratfunc,
    ratfunc_from_json,
    ratfunc_to_json,
)

X3_MINUS_X = poly([0, -1, 0, 1])


def test_eval_examples():
    assert poly_eval(X3_MINUS_X, Fraction(2)) == 6
    assert poly_eval(X3_MINUS_X, Fraction(0)) == 0
    f = ratfunc([1, 0, 1], [0, 1])  # (t^2+1)/t
    with pytest.raises(PoleAtPoint):
        f.eval(Fraction(0))
    assert f.eval(Fraction(2)) == Fraction(5, 2)


_RATS = st.fractions(-50, 50, max_denominator=30)


@given(st.lists(_RATS, max_size=5).map(poly), _RATS)
def test_int_form_eval_is_poly_eval_and_keeps_the_square_class(p, q):
    F, L = form = int_form(p)
    assert L > 0 and all(type(c) is int for c in F)
    assert poly(Fraction(c, L) for c in F) == p
    N, D = int_form_eval(form, q)
    assert D > 0 and Fraction(N, D) == poly_eval(p, q)
    if N != 0:
        assert squarefree_part(N * D) == squarefree_part_of_rational(poly_eval(p, q))


def test_int_form_examples():
    p = poly([Fraction(1, 2), -1, Fraction(1, 3), 1])  # x^3 + x^2/3 - x + 1/2
    assert int_form(p) == ((3, -6, 2, 6), 6)
    # q = -3/5: N = 3*5^3 - 6*(-3)*5^2 + 2*(-3)^2*5 + 6*(-3)^3, D = 6*5^3
    assert int_form_eval(int_form(p), Fraction(-3, 5)) == (753, 750)
    assert int_form(()) == ((), 1) and int_form_eval(((), 1), Fraction(3, 4)) == (0, 1)


def test_discriminant_examples():
    assert is_squarefree(X3_MINUS_X)
    assert is_squarefree(poly([1, 0, 0, 1]))
    assert not is_squarefree(poly([0, 0, 0, 1]))
    assert not is_squarefree(poly([0, 1, -2, 1]))  # x (x - 1)^2


_SMALL_Q = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@given(
    st.one_of(
        st.tuples(_SMALL_Q, _SMALL_Q, _SMALL_Q).map(lambda c: poly([*c, 1])),
        # (x - r)^2 (x - s): a repeated root
        st.tuples(_SMALL_Q, _SMALL_Q).map(
            lambda rs: poly_mul(poly_mul(poly([-rs[0], 1]), poly([-rs[0], 1])), poly([-rs[1], 1]))
        ),
    )
)
def test_squarefree_iff_depressed_discriminant_nonzero(p):
    A, B, _ = depress_cubic(p)
    assert is_squarefree(p) == (-4 * A**3 - 27 * B**2 != 0)


def test_discriminant_errors():
    with pytest.raises(ValueError, match="^expected degree 3, got 1$"):
        depress_cubic(poly([1, 1]))
    with pytest.raises(ValueError, match="^cubic must be monic$"):
        depress_cubic(poly([1, 0, 0, 2]))


def test_depress_general_cubic():
    # p(x) = x^3 + 3x^2 + 2x + 1 = q(x + 1) with q = X^3 - X + 1
    A, B, s = depress_cubic(poly([1, 2, 3, 1]))
    assert s == 1
    q = poly([B, A, 0, 1])
    for x in (Fraction(0), Fraction(2), Fraction(-5, 3)):
        assert poly_eval(poly([1, 2, 3, 1]), x) == poly_eval(q, x + s)


_rats = st.fractions(max_denominator=50)
_polys = st.lists(_rats, max_size=6).map(poly)


@given(_polys, _polys, _rats)
def test_eval_is_ring_hom(p, q, a):
    # Evaluation is a ring homomorphism: (p*q)(a) = p(a)q(a), (p+q)(a) = p(a)+q(a).
    assert poly_eval(poly_mul(p, q), a) == poly_eval(p, a) * poly_eval(q, a)
    assert poly_eval(poly_add(p, q), a) == poly_eval(p, a) + poly_eval(q, a)


@given(_polys, _polys)
def test_divmod_identity(p, d):
    if not d:
        return
    q, r = poly_divmod(p, d)
    assert poly_add(poly_mul(q, d), r) == p
    assert degree(r) < degree(d)


@given(_polys, _polys)
def test_gcd_divides(p, q):
    g = poly_gcd(p, q)
    if g:
        assert not poly_divmod(p, g)[1]
        assert not poly_divmod(q, g)[1]


def test_ratfunc_normalization():
    f = ratfunc([0, 2], [0, 0, 2])  # 2t / 2t^2 = 1/t
    assert f.num == poly([1])
    assert f.den == poly([0, 1])
    g = ratfunc([0, 1], [0, 1])
    assert g.num == poly([1]) and g.den == poly([1])


def test_ratfunc_json_roundtrip():
    f = ratfunc([1, 2, 3], [0, 0, 1])
    assert ratfunc_from_json(ratfunc_to_json(f)) == f
    assert ratfunc_from_json(["1", "1/2"]) == ratfunc([1, Fraction(1, 2)])


def test_poly_wire_roundtrip():
    p = poly([Fraction(1, 2), 0, -3])
    assert parse_poly(format_poly(p)) == p
