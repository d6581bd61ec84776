import random
from fractions import Fraction
from itertools import product
from math import prod
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oracles import oracle_add, oracle_mul, reference_discriminant, small_good_primes
from rankjump.curves import (
    Curve,
    INFINITY,
    CurveFp,
    Point,
    add,
    curve,
    good_primes,
    integral_model,
    is_torsion,
    mul,
    neg,
    on_curve,
    parse_point,
    point,
    point_to_integral,
    reduce_mod_p,
    small_relation_search,
    torsion_order,
)
from rankjump.errors import PointNotOnCurve, SingularCurve
from rankjump.rationals import format_rational


def test_curve_construction():
    C = curve(-1, 0)
    assert reference_discriminant(C.A, C.B) == -16 * C.singular_form == 64
    with pytest.raises(SingularCurve):
        curve(0, 0)
    with pytest.raises(SingularCurve, match=r"^4A\^3\+27B\^2 = 0 for A=-3/4, B=1/4$"):
        curve(Fraction(-3, 4), Fraction(1, 4))
    curve(-16, 16)  # valid: 4A^3 + 27B^2 = -9472


def _singular_pairs():
    # A = -3s^2, B = 2s^3: x^3 + Ax + B = (x - s)^2 (x + 2s)
    return st.fractions(max_denominator=50).map(lambda s: (-3 * s * s, 2 * s**3))


@given(st.one_of(st.tuples(st.fractions(), st.fractions()), _singular_pairs()))
def test_singularity_check_agrees_with_discriminant(AB):
    # Curve tests 4A^3 + 27B^2 = 0 in integers; the oracle computes the
    # discriminant in Fractions.
    A, B = AB
    if reference_discriminant(A, B) != 0:
        Curve(A, B)  # no SingularCurve
        return
    with pytest.raises(SingularCurve) as exc:
        Curve(A, B)
    assert str(exc.value) == f"4A^3+27B^2 = 0 for A={format_rational(A)}, B={format_rational(B)}"


# Rationals whose denominators come from primes below the screen and from
# its first two primes, 1009 and 1013, which also divide some numerators.
_SCREEN_RATIONALS = st.builds(
    lambda n, m, pes: Fraction(n * m, prod(p**e for p, e in pes)),
    st.integers(-(10**6), 10**6),
    st.sampled_from((1, 1009, 1013)),
    st.lists(st.tuples(st.sampled_from((2, 3, 5, 1009, 1013)), st.integers(1, 7)), max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.tuples(_SCREEN_RATIONALS, _SCREEN_RATIONALS),
        _SCREEN_RATIONALS.map(lambda s: (-3 * s * s, 2 * s**3)),  # singular
    )
)
@example((Fraction(1, 2), Fraction(1, 1009)))  # 1009 in den(B) alone
@example((Fraction(1, 1013), Fraction(1, 2)))  # 1013 in den(A) alone
@example((Fraction(-3, 4), Fraction(1, 4)))  # singular, B not integral
def test_screen_primes_follow_the_fraction_bad_part(AB):
    # The singular form is 0 exactly when 4A^3 + 27B^2 is, and the screen's
    # primes are the first two >= 1009 that the Fraction rule leaves good.
    A, B = AB
    form = Curve.singular_form.fget(SimpleNamespace(A=A, B=B))
    assert (form == 0) == (reference_discriminant(A, B) == 0)
    if form != 0:
        C = Curve(A, B)
        assert good_primes(C, 2) == small_good_primes(C, 2, 1009)


def test_add_examples():
    C = curve(-36, 0)
    P, Q = point(-3, 9), point(12, 36)
    R = add(C, P, Q)
    assert R == point(Fraction(-144, 25), Fraction(-504, 125))
    assert on_curve(C, R)
    C2 = curve(0, -2)
    assert add(C2, point(3, 5), point(3, 5)) == point(Fraction(129, 100), Fraction(-383, 1000))
    assert add(C, P, INFINITY) == P
    assert add(C, P, neg(P)) == INFINITY
    assert add(C, R, neg(Q)) == P


def test_add_rejects_off_curve():
    C = curve(-36, 0)
    with pytest.raises(PointNotOnCurve):
        add(C, point(1, 1), point(12, 36))


def test_mul_examples():
    C = curve(0, 1)
    P = point(2, 3)
    assert mul(C, 2, P) == point(0, 1)
    assert mul(C, 6, P) == INFINITY
    assert mul(C, 1, P) == P
    assert mul(C, 0, P) == INFINITY
    assert mul(C, -2, P) == neg(mul(C, 2, P))


def test_integral_model_examples():
    for A, B, model in (
        (Fraction(-1, 4), 0, (-4, 0, 2)),
        (3, -7, (3, -7, 1)),  # an integral curve is its own model
        (0, Fraction(1, 27), (0, 27, 3)),
    ):
        got = integral_model(curve(A, B))
        assert got == model and all(type(n) is int for n in got)


# Denominators from primes below and above the trial-division bound of
# factorize (1000), with exponents around the rule's 4 and 6.
_SCALE_PRIMES = (2, 3, 5, 1009, 10007)
_DENOMINATORS = st.lists(
    st.tuples(st.sampled_from(_SCALE_PRIMES), st.integers(1, 13)), max_size=3
).map(lambda pes: prod(p**e for p, e in pes))


@settings(max_examples=200, deadline=None)
@given(st.integers(-(10**6), 10**6), _DENOMINATORS, st.integers(-(10**6), 10**6), _DENOMINATORS)
@example(1, 2, 0, 1)  # u from A alone: 2 | u^4 needs u = 2
@example(0, 1, 1, 2**7)  # u from B alone: 2^7 | u^6 needs u = 4
def test_integral_model_takes_the_least_scale(nA, dA, nB, dB):
    A, B = Fraction(nA, dA), Fraction(nB, dB)
    assume(4 * A**3 + 27 * B**2 != 0)
    Am, Bm, u = integral_model(curve(A, B))
    assert (Am, Bm) == (A * u**4, B * u**6)
    assert (A * u**4).denominator == (B * u**6).denominator == 1
    rest = u
    for p in _SCALE_PRIMES:
        if u % p == 0:
            v = u // p
            assert (A * v**4).denominator > 1 or (B * v**6).denominator > 1
        while rest % p == 0:
            rest //= p
    assert rest == 1  # no prime outside the denominators


def test_integral_model_point_map():
    C = curve(Fraction(-1, 4), Fraction(1, 64))
    A, B, u = integral_model(C)
    P = point(Fraction(1, 2), Fraction(1, 8))  # 1/64 = 1/8 - 1/8 + 1/64 ... check below
    if on_curve(C, P):
        Pi = point_to_integral(P, u)
        assert on_curve(curve(A, B), Pi)
        assert point(Pi.x / u**2, Pi.y / u**3) == P


def test_torsion_examples():
    assert is_torsion(curve(0, 1), point(2, 3))  # order 6
    assert torsion_order(curve(0, 1), point(2, 3)) == 6
    assert not is_torsion(curve(-36, 0), point(12, 36))
    assert is_torsion(curve(-36, 0), INFINITY)
    assert torsion_order(curve(-36, 0), point(0, 0)) == 2


def _on_fp(cfp, R):
    """R is O or satisfies y^2 = x^3 + ax + b mod p."""
    if R is None:
        return True
    x, y = R
    return (y * y - (x**3 + cfp.a * x + cfp.b)) % cfp.p == 0


def test_reduce_mod_p():
    C = curve(0, -2)
    cfp, R = reduce_mod_p(C, point(3, 5), 5)
    assert R == (3, 0)
    with pytest.raises(ValueError, match="^p=2 divides 2, a denominator of A or B, or the discriminant$"):
        reduce_mod_p(C, point(3, 5), 2)  # disc always even on this model
    cfp, R = reduce_mod_p(C, INFINITY, 5)
    assert R is None


def test_reduction_sends_p_denominator_to_infinity():
    C = curve(-36, 0)
    P = add(C, point(-3, 9), point(12, 36))  # (-144/25, -504/125)
    cfp, R = reduce_mod_p(C, P, 5)
    assert R is None
    cfp, R = reduce_mod_p(C, P, 7)
    assert R is not None and _on_fp(cfp, R)


def _random_two_point_curve(rng):
    """A curve through two constructed rational points, plus the points."""
    while True:
        x1, y1 = Fraction(rng.randint(-9, 9)), Fraction(rng.randint(1, 9))
        x2, y2 = Fraction(rng.randint(-9, 9)), Fraction(rng.randint(1, 9))
        if x1 == x2:
            continue
        A = (y1**2 - y2**2 - x1**3 + x2**3) / (x1 - x2)
        B = y1**2 - x1**3 - A * x1
        if 4 * A**3 + 27 * B**2 == 0:
            continue
        C = Curve(A, B)
        return C, point(x1, y1), point(x2, y2)


def test_group_law_matches_oracle():
    rng = random.Random(7)
    for _ in range(50):
        C, P, Q = _random_two_point_curve(rng)
        got = add(C, P, Q)
        want = oracle_add(C.A, C.B, (P.x, P.y), (Q.x, Q.y))
        if want is None:
            assert got.is_infinity
        else:
            assert (got.x, got.y) == want
        n = rng.randint(-8, 8)
        got_n = mul(C, n, P)
        want_n = oracle_mul(C.A, C.B, n, (P.x, P.y))
        if want_n is None:
            assert got_n.is_infinity
        else:
            assert (got_n.x, got_n.y) == want_n


def test_small_relation_search_examples():
    C = curve(-36, 0)
    P = point(12, 36)
    P2 = mul(C, 2, P)
    rel = small_relation_search(C, [P, P2], 2)
    assert rel in ((2, -1), (-2, 1))
    rel = small_relation_search(C, [P, neg(P)], 2)
    # any (n, n) works; the first in deterministic order is (-2, -2)
    assert rel is not None and rel[0] == rel[1]
    assert small_relation_search(C, [P], 12) is None


def test_small_relation_search_bound_cap():
    with pytest.raises(ValueError):
        small_relation_search(curve(-36, 0), [point(12, 36)], 17)


def test_point_wire_format():
    assert str(INFINITY) == "inf"
    assert parse_point("inf").is_infinity
    P = point(Fraction(-144, 25), Fraction(-504, 125))
    assert parse_point(str(P)) == P


# ---------------------------------------------------------------------------
# The mod-p torsion screen against the oracle group law


def _oracle_order(C, P):
    """The first n <= 12 with oracle_mul(n, P) = O, walked one oracle_add
    at a time (oracle_mul's own loop), else None."""
    if P.is_infinity:
        return 1
    R = None
    for n in range(1, 13):
        R = oracle_add(C.A, C.B, R, (P.x, P.y))
        if R is None:
            return n
    return None


def _tate_point(b, c):
    """(0, 0) on y^2 + (1-c)xy - by = x^3 - bx^2, moved to short form."""
    a1, a3 = 1 - c, -b
    b2, b4, b6 = a1 * a1 - 4 * b, a1 * a3, a3 * a3
    c4, c6 = b2 * b2 - 24 * b4, -(b2**3) + 36 * b2 * b4 - 216 * b6
    return Curve(-27 * c4, -54 * c6), point(3 * b2, 108 * a3)


def _tate_bc(n, t):
    """Kubert's (b, c) giving (0, 0) order n in Tate normal form."""
    if n == 4:
        return t, Fraction(0)
    if n == 5:
        return t, t
    if n == 6:
        return t + t * t, t
    if n == 7:
        return t**3 - t**2, t**2 - t
    if n == 8:
        return (2 * t - 1) * (t - 1), (2 * t - 1) * (t - 1) / t
    if n == 9:
        c = t * t * (t - 1)
        return c * (t * t - t + 1), c
    if n == 10:
        d = t * t / (t - (t - 1) ** 2)
        c = t * d - t
        return c * d, c
    m = (3 * t - 3 * t * t - 1) / (t - 1)  # n == 12
    f = m / (1 - t)
    d = m + t
    c = f * (d - 1)
    return c * d, c


def _torsion_points():
    """(C, P) with P of every order in {1..10, 12}: the Tate points and
    their multiples, plus orders 1, 2 and 3 on y^2 = x^3 - x, x^3 + 1."""
    out = [(curve(-1, 0), INFINITY), (curve(-1, 0), point(1, 0)), (curve(0, 1), point(0, 1))]
    for n in (4, 5, 6, 7, 8, 9, 10, 12):
        for t in (Fraction(2), Fraction(-1, 3)):
            C, P = _tate_point(*_tate_bc(n, t))
            out += [(C, mul(C, k, P)) for k in range(1, n + 1)]
    return out


def _rescale(C, P, u):
    """The model (u^4 A, u^6 B) and P's image (u^2 x, u^3 y)."""
    return Curve(C.A * u**4, C.B * u**6), P if P.is_infinity else point(P.x * u * u, P.y * u**3)


def _check_screen(C, P):
    want = _oracle_order(C, P)
    assert torsion_order(C, P) == want, (C, P)
    assert is_torsion(C, P) == (want is not None)
    return want


@pytest.mark.parametrize("u", [Fraction(1), Fraction(2, 3), Fraction(1, 6), Fraction(5)])
def test_torsion_screen_every_order(u):
    orders = set()
    for C, P in _torsion_points():
        orders.add(_check_screen(*_rescale(C, P, u)))
    assert orders == {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12}


def test_torsion_screen_point_reducing_to_infinity_at_1009():
    # (w^2/1009^2, w^3/1009^3) on y^2 = x^3 + 1009^2 a x - a w^2, good at 1009.
    for a, w in ((1, 1), (3, 2), (-2, 5)):
        C = curve(1009**2 * a, -a * w * w)
        P = point(Fraction(w * w, 1009**2), Fraction(w**3, 1009**3))
        assert good_primes(C, 1) == [1009]
        assert reduce_mod_p(C, P, 1009)[1] is None
        assert _check_screen(C, P) is None


def test_torsion_screen_moves_past_bad_1009():
    # Scaling by u = 1009 puts 1009^12 in the discriminant; u = 1/1009 puts
    # 1009 in the denominators of A and B.  Either way 1009 is bad.
    for u, bad in ((Fraction(1009), 1009), (Fraction(1, 1009), 1009), (Fraction(1009 * 1013), 1013)):
        seen = set()
        for C, P in _torsion_points()[::3] + [(curve(-36, 0), point(12, 36))]:
            C, P = _rescale(C, P, u)
            assert good_primes(C, 1)[0] > bad
            seen.add(_check_screen(C, P))
        assert None in seen and len(seen) > 5


def test_torsion_screen_random_non_torsion():
    rng = random.Random(20240)
    non_torsion = confirmed = 0
    while non_torsion < 2000:
        C, P, Q = _random_two_point_curve(rng)
        for a, b in ((1, 0), (0, 1), (1, 1), (1, -1), (2, 0), (0, 2), (2, 1), (1, 2)):
            R = add(C, mul(C, a, P), mul(C, b, Q))
            if _check_screen(C, R) is not None:
                continue
            non_torsion += 1
            # Count the points whose reduction has order <= 12 anyway, so
            # the exact confirmation rejects them.
            cfp, Rb = reduce_mod_p(C, R, good_primes(C, 1)[0])
            confirmed += Rb is not None and cfp.order(Rb) is not None
    assert confirmed > 0


# scan's memo shares torsion answers between isomorphic curves.  That
# rests on torsion_order giving the same answer on C and on its integral
# model, even where the two screens reduce at different primes.

_TORSION_POINTS = _torsion_points()
# 1/1009 and 1/1013 put a screen prime into C's denominators; the
# integral model clears it again.
_SCALES = (Fraction(1, 1009), Fraction(3, 1013), Fraction(2, 3), Fraction(1, 6))


@st.composite
def _non_integral_cases(draw):
    """(C, P) with C not integral: a Tate point or one of its multiples, or
    a P + b Q on a random two-point curve, rescaled by u."""
    if draw(st.booleans()):
        C, P = draw(st.sampled_from(_TORSION_POINTS))
    else:
        C, P, Q = _random_two_point_curve(random.Random(draw(st.integers(0, 2**32))))
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        P = add(C, mul(C, a, P), mul(C, b, Q))
    u = draw(st.sampled_from(_SCALES) | st.fractions(Fraction(1, 12), 12, max_denominator=12))
    C, P = _rescale(C, P, u)
    assume(C.A.denominator > 1 or C.B.denominator > 1)
    return C, P


@given(_non_integral_cases())
@settings(max_examples=200, deadline=None)
def test_torsion_order_is_invariant_under_the_integral_model(case):
    C, P = case
    A, B, u = integral_model(C)
    assert torsion_order(curve(A, B), point_to_integral(P, u)) == torsion_order(C, P)


def test_integral_model_moves_the_screen_prime_and_keeps_the_order():
    orders = set()
    for C, P in _TORSION_POINTS[::2] + [(curve(-36, 0), point(12, 36))]:
        C, P = _rescale(C, P, Fraction(1, 1009))
        A, B, u = integral_model(C)
        Cm = curve(A, B)
        assert good_primes(C, 1) != good_primes(Cm, 1)
        want = torsion_order(Cm, point_to_integral(P, u))
        assert torsion_order(C, P) == want
        orders.add(want)
    assert None in orders and len(orders) > 5


def _reduction_rule(C, P):
    """The module's torsion rule spelled out: the order n of P at the first
    good prime >= 1009, kept only if the exact n P is O."""
    cfp, R = reduce_mod_p(C, P, good_primes(C, 1)[0])
    n = cfp.order(R)
    return n if n is not None and mul(C, n, P).is_infinity else None


@given(
    st.fractions(-20, 20, max_denominator=6),
    st.fractions(-20, 20, max_denominator=6),
)
@settings(max_examples=200, deadline=None)
def test_two_torsion_answer_equals_the_reduction_rule(e, A):
    # (e, 0) lies on y^2 = x^3 + Ax + B for B = -e^3 - Ae.
    B = -(e**3) - A * e
    assume(4 * A**3 + 27 * B**2 != 0)
    C, P = Curve(A, B), Point(e, Fraction(0))
    assert torsion_order(C, P) == _reduction_rule(C, P) == 2


def test_off_curve_point_with_y_zero_still_raises():
    # y = 0 answers "order 2" only for a point on the curve.
    for C, P in ((curve(-1, 0), point(2, 0)), (curve(0, 1), point(0, 0))):
        assert not on_curve(C, P)
        with pytest.raises(PointNotOnCurve):
            torsion_order(C, P)
        with pytest.raises(PointNotOnCurve):
            is_torsion(C, P)


def test_reduce_mod_p_non_integral_curve():
    C = curve(Fraction(-1, 4), Fraction(1, 9))  # 4A^3 + 27B^2 = 13/48
    for p in (2, 3, 13):
        with pytest.raises(ValueError, match=f"^p={p} divides 2, a denominator"):
            reduce_mod_p(C, INFINITY, p)
    assert good_primes(C, 2) == [1009, 1013]
    P = point(0, Fraction(1, 3))
    Q = point(Fraction(1, 2), Fraction(1, 3))
    pts = [P, Q, add(C, P, Q), mul(C, 2, P), mul(C, 3, Q), add(C, P, neg(Q))]
    for p in [5, 7, 11] + good_primes(C, 2):
        for S in pts:
            for T in pts:
                cfp, Sb = reduce_mod_p(C, S, p)
                _, Tb = reduce_mod_p(C, T, p)
                assert _on_fp(cfp, Sb)
                assert cfp.add(Sb, Tb) == reduce_mod_p(C, add(C, S, T), p)[1]


def test_small_relation_search_meeting_fiber():
    # The lam = 1/2 fiber of y^2 = x^3 + (2 + lam - lam^2)x + 1 with the
    # sections (0, 1) and (lam, 1 + lam).
    C = curve(Fraction(9, 4), 1)
    P, Q = point(0, 1), point(Fraction(1, 2), Fraction(3, 2))
    assert small_relation_search(C, [P, Q], 12) == (-6, -12)
    assert add(C, mul(C, -6, P), mul(C, -12, Q)) == INFINITY


# ---------------------------------------------------------------------------
# The one torsion rule: CurveFp.order, then one exact multiple


def test_curve_fp_order_matches_repeated_add():
    rng = random.Random(11)
    for _ in range(6):
        C = _random_two_point_curve(rng)[0]
        for p in small_good_primes(C, 3, 5):
            cfp = reduce_mod_p(C, INFINITY, p)[0]
            pts = [None] + [(x, y) for x in range(p) for y in range(p) if _on_fp(cfp, (x, y))]
            for R in pts:
                walk, want = R, None
                for n in range(1, 13):
                    if walk is None:
                        want = n
                        break
                    walk = cfp.add(walk, R)
                assert cfp.order(R) == want, (cfp, R)
                assert want is None or len(pts) % want == 0  # Lagrange
    cfp = CurveFp(0, 1, 1009)  # y^2 = x^3 + 1 has (2, 3) of order 6
    assert [cfp.order(R) for R in (None, (2, 3), (0, 1), (1009 - 1, 0))] == [1, 6, 3, 2]


def _oracle_relation(C, points, bound):
    """The first combination in product order whose exact sum S has n S = O
    for some n <= 12, summed and stepped with oracle_add alone."""
    pts = [None if P.is_infinity else (P.x, P.y) for P in points]
    for combo in product(range(-bound, bound + 1), repeat=len(pts)):
        if not any(combo):
            continue
        S = None
        for n, P in zip(combo, pts):
            S = oracle_add(C.A, C.B, S, oracle_mul(C.A, C.B, n, P))
        R = S
        for _ in range(12):
            if R is None:
                return combo, S is None
            R = oracle_add(C.A, C.B, R, S)
    return None, None


def _two_torsion_curve(rng):
    """A curve with the 2-torsion point T = (e, 0) through P = (x1, y1)."""
    while True:
        e, x1, y1 = Fraction(rng.randint(-6, 6)), Fraction(rng.randint(-6, 6)), Fraction(rng.randint(1, 9))
        if x1 == e:
            continue
        A = (y1**2 - x1**3 + e**3) / (x1 - e)
        B = -(e**3) - A * e
        if 4 * A**3 + 27 * B**2 == 0:
            continue
        return Curve(A, B), point(e, 0), point(x1, y1)


def _relation_cases(rng, rounds):
    for _ in range(rounds):
        u = rng.choice((Fraction(1), Fraction(1), Fraction(2, 3)))
        C, P, Q = _random_two_point_curve(rng)
        yield _rescale(C, P, u)[0], [_rescale(C, R, u)[1] for R in (P, Q, add(C, P, Q))]
        yield C, [P]
        yield C, [P, neg(P)]
        yield C, [P, Q]
        C, T, P = _two_torsion_curve(rng)
        yield C, [T]
        yield C, [P, add(C, P, T)]
        yield C, [T, P]
    for C, P in _torsion_points()[::7]:
        yield C, [P]
        yield C, [P, mul(C, 2, P), INFINITY]


def test_small_relation_search_matches_brute_force():
    rng = random.Random(8)
    seen = {"none": 0, "sum O": 0, "sum torsion": 0}
    for C, pts in _relation_cases(rng, 12):
        bound = 3 if len(pts) < 3 else 1
        want, sum_is_o = _oracle_relation(C, pts, bound)
        assert small_relation_search(C, pts, bound) == want, (C, pts)
        seen["none" if want is None else "sum O" if sum_is_o else "sum torsion"] += 1
    assert min(seen.values()) > 0, seen


@pytest.mark.parametrize(
    "pts, want",
    [
        ([(-9, 3), (-8, 12), (-1, 9)], None),
        ([(-9, 3), (-1, 9), (82, 738)], (0, -12, 12)),
    ],
)
def test_small_relation_search_three_points_bound_12(pts, want):
    # y^2 = x^3 - 82x has rank 3; (0, 0) is 2-torsion, and (82, 738) is
    # (-1, 9) plus a 2-torsion point, so 12 ((82, 738) - (-1, 9)) = O.
    assert small_relation_search(curve(-82, 0), [point(*P) for P in pts], 12) == want
