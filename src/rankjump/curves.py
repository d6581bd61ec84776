"""Short Weierstrass curves y^2 = x^3 + Ax + B over Q.

Exact chord-tangent group law, integral models, reduction mod p, the
torsion screen, and an exhaustive small-relation search used for negative
controls.

Both torsion questions ("is P torsion?" in `torsion_order`, "is this sum
torsion?" in `small_relation_search`) are decided by one rule, which rests
on Silverman, AEC VII.3: at an odd prime p of good reduction, reduction
E(Q) -> E(F_p) is injective on torsion and its kernel E_1(Q_p) is
torsion-free. So a rational torsion point has the same order as its
reduction, and every rational torsion order is <= 12 (Mazur). The rule:
take n = `CurveFp.order` of the reduction; S is torsion exactly when
n exists and the exact n S is O. The primes start at p = 1009: by Hasse
|E(F_p)| >= 947 there, so a non-torsion point rarely reduces to an order
<= 12 and needs the exact multiple, and the bad primes of the curves met
in practice lie far below it, so the first candidate is nearly always good.

Points are checked on the curve at the public boundary (`add`, `mul`,
`torsion_order` and so `is_torsion`, `reduce_mod_p`, `small_relation_search`,
and `require_on_curve` for callers outside this module); the internal group
law `_add`/`_mul` and `point_to_integral` trust their inputs.  A check on
the integral model is one on C too: (x, y) -> (u^2 x, u^3 y) is a bijection
from C onto it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional, Sequence

from .errors import PointNotOnCurve, SingularCurve
from .factorization import factorize, is_probable_prime
from .rationals import format_rational, parse_rational

# Every rational torsion point has order <= 12 (uniform bound over Q).
TORSION_ORDER_BOUND = 12

# First prime tried by the torsion screen and the relation-search filter.
SCREEN_PRIME_START = 1009


@dataclass(frozen=True)
class Curve:
    A: Fraction
    B: Fraction

    def __post_init__(self) -> None:
        if self.singular_form == 0:
            raise SingularCurve(
                f"4A^3+27B^2 = 0 for A={format_rational(self.A)}, B={format_rational(self.B)}"
            )

    @property
    def singular_form(self) -> int:
        """4A^3 + 27B^2 cleared of den(A)^3 den(B)^2, an int: 0 exactly when
        C is singular, and 4A^3 + 27B^2 itself when A and B are ints."""
        A, B = self.A, self.B
        return 4 * A.numerator**3 * B.denominator**2 + 27 * B.numerator**2 * A.denominator**3

    def __str__(self) -> str:
        return f"y^2 = x^3 + ({format_rational(self.A)})x + ({format_rational(self.B)})"


def curve(A, B) -> Curve:
    return Curve(Fraction(A), Fraction(B))


@dataclass(frozen=True)
class Point:
    """Affine point or the point at infinity (x = y = None)."""

    x: Optional[Fraction] = None
    y: Optional[Fraction] = None

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __str__(self) -> str:
        if self.is_infinity:
            return "inf"
        return f"{format_rational(self.x)},{format_rational(self.y)}"


INFINITY = Point()


def point(x, y) -> Point:
    return Point(Fraction(x), Fraction(y))


def parse_point(text: str) -> Point:
    s = text.strip()
    if s == "inf":
        return INFINITY
    parts = s.split(",")
    if len(parts) != 2:
        raise ValueError(f"not a point: {text!r}")
    return Point(parse_rational(parts[0]), parse_rational(parts[1]))


def on_curve(C: Curve, P: Point) -> bool:
    if P.is_infinity:
        return True
    return P.y * P.y == P.x**3 + C.A * P.x + C.B


def require_on_curve(C: Curve, P: Point) -> None:
    """Raise PointNotOnCurve unless P lies on C."""
    if not on_curve(C, P):
        raise PointNotOnCurve(f"{P} not on {C}")


def neg(P: Point) -> Point:
    if P.is_infinity:
        return P
    return Point(P.x, -P.y)


def _add(C: Curve, P: Point, Q: Point) -> Point:
    """The chord-tangent law, with no on-curve checks."""
    if P.is_infinity:
        return Q
    if Q.is_infinity:
        return P
    if P.x == Q.x:
        if P.y == -Q.y:
            return INFINITY
        m = (3 * P.x * P.x + C.A) / (2 * P.y)
    else:
        m = (Q.y - P.y) / (Q.x - P.x)
    x3 = m * m - P.x - Q.x
    y3 = m * (P.x - x3) - P.y
    return Point(x3, y3)


def add(C: Curve, P: Point, Q: Point) -> Point:
    require_on_curve(C, P)
    require_on_curve(C, Q)
    return _add(C, P, Q)


def _mul(C: Curve, n: int, P: Point) -> Point:
    """n P by double-and-add, with no on-curve checks."""
    if n < 0:
        return neg(_mul(C, -n, P))
    R = INFINITY
    Q = P
    while n:
        if n & 1:
            R = _add(C, R, Q)
        n >>= 1
        if n:
            Q = _add(C, Q, Q)
    return R


def mul(C: Curve, n: int, P: Point) -> Point:
    require_on_curve(C, P)
    return _mul(C, n, P)


def integral_scale(dA: int, dB: int) -> int:
    """The least u >= 1 with dA | u^4 and dB | u^6 (dA, dB >= 1): the
    scale of every integral model, from the reduced denominators of A, B."""
    eA, eB = factorize(dA), factorize(dB)
    u = 1
    for p in eA.keys() | eB.keys():
        u *= p ** max(-(-eA.get(p, 0) // 4), -(-eB.get(p, 0) // 6))
    return u


def integral_model(C: Curve) -> tuple[int, int, int]:
    """(A, B, u): C's integral model y^2 = x^3 + Ax + B, two ints, and its
    scale u = integral_scale, the least u >= 1 with u^4 A and u^6 B integral.

    The isomorphism (x, y) -> (u^2 x, u^3 y) carries points over and
    preserves canonical heights.
    """
    A, B = C.A, C.B
    u = integral_scale(A.denominator, B.denominator)
    return A.numerator * u**4 // A.denominator, B.numerator * u**6 // B.denominator, u


def point_to_integral(P: Point, u: int) -> Point:
    if P.is_infinity:
        return P
    return Point(P.x * u * u, P.y * u**3)


def point_ints(P: Point) -> tuple[int, int, int, int]:
    """P as four ints (x numerator, x denominator, y numerator, y
    denominator), the form memo keys and total-space points take;
    (0, 0, 0, 0) is the point at infinity (no affine coordinate has
    denominator 0)."""
    if P.is_infinity:
        return 0, 0, 0, 0
    return P.x.numerator, P.x.denominator, P.y.numerator, P.y.denominator


def point_from_ints(P: tuple[int, int, int, int]) -> Point:
    """The point whose point_ints are P."""
    xn, xd, yn, yd = P
    return INFINITY if xd == 0 else Point(Fraction(xn, xd), Fraction(yn, yd))


def is_torsion(C: Curve, P: Point) -> bool:
    """n P = O for some 1 <= n <= 12, decided by `torsion_order`."""
    return torsion_order(C, P) is not None


def torsion_order(C: Curve, P: Point) -> Optional[int]:
    """Order of P when <= 12, else None.

    A point on C with y = 0 has order 2 (P = -P != O), with no reduction.
    Any other P is decided at the first good prime p >= 1009 (AEC VII.3):
    reduction is injective on torsion, so the order n of P mod p is the
    only possible order of P, confirmed by one exact n P = O. When no
    n <= 12 kills P mod p, P has no order <= 12; when P != O reduces to O,
    n = 1 and the exact check rejects it (E_1(Q_p) is torsion-free).
    """
    if P.is_infinity:
        return 1
    require_on_curve(C, P)
    if P.y == 0:
        return 2
    cfp = _curve_mod(C, good_primes(C, 1)[0])
    n = cfp.order(cfp.reduce(P))
    return n if n is not None and _mul(C, n, P).is_infinity else None


# ---------------------------------------------------------------------------
# Reduction mod p


@dataclass(frozen=True)
class CurveFp:
    """y^2 = x^3 + ax + b over the p-element field; points are tuples or None."""

    a: int
    b: int
    p: int

    def reduce(self, P: Point) -> Optional[tuple[int, int]]:
        """P mod p; None for O and for P with p in its denominators."""
        p = self.p
        if P.is_infinity or P.x.denominator % p == 0:  # then p | den(y) too
            return None
        return (_mod(P.x, p), _mod(P.y, p))

    def add(self, P, Q):
        p = self.p
        if P is None:
            return Q
        if Q is None:
            return P
        x1, y1 = P
        x2, y2 = Q
        if x1 == x2 and (y1 + y2) % p == 0:
            return None
        if P == Q:
            m = (3 * x1 * x1 + self.a) * pow(2 * y1, -1, p) % p
        else:
            m = (y2 - y1) * pow(x2 - x1, -1, p) % p
        x3 = (m * m - x1 - x2) % p
        y3 = (m * (x1 - x3) - y1) % p
        return (x3, y3)

    def order(self, R) -> Optional[int]:
        """The smallest n <= 12 with n R = O, else None."""
        if R is None:
            return 1
        Q = R
        for n in range(2, TORSION_ORDER_BOUND + 1):
            Q = self.add(Q, R)
            if Q is None:
                return n
        return None


def _bad_part(C: Curve) -> int:
    """2 den(A) den(B) singular_form, whose odd primes are those of 2 den(A) den(B)
    num(disc): an odd p not dividing it leaves C p-integral and good at p."""
    return 2 * C.A.denominator * C.B.denominator * C.singular_form


def _mod(q: Fraction, p: int) -> int:
    return q.numerator * pow(q.denominator, -1, p) % p


def _curve_mod(C: Curve, p: int) -> CurveFp:
    """C mod p, for p where C is p-integral."""
    return CurveFp(_mod(C.A, p), _mod(C.B, p), p)


def reduce_mod_p(C: Curve, P: Point, p: int) -> tuple[CurveFp, Optional[tuple[int, int]]]:
    """Reduce C and P at a prime p of good reduction for C itself.

    p must be odd and divide neither den(A), den(B) nor the numerator of
    the discriminant (the primes `good_primes` returns); no integral model
    is taken. Points with p in a denominator reduce to the point at
    infinity. Raises ValueError at any other p (p = 2 always).
    """
    require_on_curve(C, P)
    if _bad_part(C) % p == 0:
        raise ValueError(f"p={p} divides 2, a denominator of A or B, or the discriminant")
    cfp = _curve_mod(C, p)
    return cfp, cfp.reduce(P)


def good_primes(C: Curve, count: int) -> list[int]:
    """The first `count` primes >= SCREEN_PRIME_START at which C itself has
    good reduction: p divides neither den(A), den(B) nor num(disc)."""
    bad = _bad_part(C)
    out: list[int] = []
    p = SCREEN_PRIME_START
    while len(out) < count:
        if is_probable_prime(p) and bad % p != 0:
            out.append(p)
        p += 2
    return out


# ---------------------------------------------------------------------------
# Exhaustive small-relation search


def small_relation_search(
    C: Curve, points: Sequence[Point], bound_n: int
) -> Optional[tuple[int, ...]]:
    """Integer coefficients (n_1..n_k), |n_i| <= bound_n, not all zero, with
    sum n_i P_i torsion — or None when no such relation exists in the box.

    Exhaustive and exact, by the module's torsion rule: a torsion sum S has
    its exact order n <= 12 mod every good odd prime, so a combination goes
    on only if S has one order n <= 12 at both of two good primes >= 1009,
    and counts only if the exact n S = O. The first relation in
    `itertools.product` order is returned.
    """
    if bound_n > 16:
        raise ValueError("bound_n must be <= 16")
    if not points:
        return None
    for P in points:
        require_on_curve(C, P)
    k = len(points)

    # Exact multiple tables m[i][n] for n in -bound..bound, and their reductions.
    tables: list[dict[int, Point]] = []
    for P in points:
        tab = {0: INFINITY, 1: P}
        for n in range(2, bound_n + 1):
            tab[n] = _add(C, tab[n - 1], P)
        for n in range(1, bound_n + 1):
            tab[-n] = neg(tab[n])
        tables.append(tab)
    reduced = []
    for p in good_primes(C, 2):
        cfp = _curve_mod(C, p)
        reduced.append((cfp, [{n: cfp.reduce(Q) for n, Q in tab.items()} for tab in tables]))

    def common_order(combo: tuple[int, ...]) -> Optional[int]:
        n = None
        for cfp, tabs in reduced:
            S = None
            for tab, m in zip(tabs, combo):
                S = cfp.add(S, tab[m])
            order = cfp.order(S)
            if order is None or n not in (None, order):
                return None
            n = order
        return n

    for combo in product(range(-bound_n, bound_n + 1), repeat=k):
        if not any(combo):
            continue
        n = common_order(combo)
        if n is None:
            continue
        S = INFINITY
        for tab, m in zip(tables, combo):
            S = _add(C, S, tab[m])
        if _mul(C, n, S).is_infinity:
            return combo
    return None
