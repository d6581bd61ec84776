"""Short Weierstrass curves y^2 = x^3 + Ax + B over Q.

Exact chord-tangent group law, integral models, reduction mod p, the
order-<=-12 torsion screen (sufficient over Q by the uniform torsion
bound), and an exhaustive small-relation search used for negative
controls.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import BadReduction, PointNotOnCurve, SingularCurve
from .factorization import factorize, is_probable_prime
from .rationals import format_rational, parse_rational

# Every rational torsion point has order <= 12 (uniform bound over Q).
TORSION_ORDER_BOUND = 12


@dataclass(frozen=True)
class Curve:
    A: Fraction
    B: Fraction

    def __post_init__(self) -> None:
        if 4 * self.A**3 + 27 * self.B**2 == 0:
            raise SingularCurve(
                f"4A^3+27B^2 = 0 for A={format_rational(self.A)}, B={format_rational(self.B)}"
            )

    @property
    def discriminant(self) -> Fraction:
        return -16 * (4 * self.A**3 + 27 * self.B**2)

    @property
    def j_invariant(self) -> Fraction:
        return 6912 * self.A**3 / (4 * self.A**3 + 27 * self.B**2)

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


def format_point(P: Point) -> str:
    return str(P)


def on_curve(C: Curve, P: Point) -> bool:
    if P.is_infinity:
        return True
    return P.y * P.y == P.x**3 + C.A * P.x + C.B


def _require(C: Curve, P: Point) -> None:
    if not on_curve(C, P):
        raise PointNotOnCurve(f"{P} not on {C}")


def neg(P: Point) -> Point:
    if P.is_infinity:
        return P
    return Point(P.x, -P.y)


def add(C: Curve, P: Point, Q: Point) -> Point:
    _require(C, P)
    _require(C, Q)
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


def sub(C: Curve, P: Point, Q: Point) -> Point:
    return add(C, P, neg(Q))


def double(C: Curve, P: Point) -> Point:
    return add(C, P, P)


def mul(C: Curve, n: int, P: Point) -> Point:
    _require(C, P)
    if n < 0:
        return neg(mul(C, -n, P))
    R = INFINITY
    Q = P
    while n:
        if n & 1:
            R = add(C, R, Q)
        n >>= 1
        if n:
            Q = add(C, Q, Q)
    return R


def _den_valuations(q: Fraction) -> dict[int, int]:
    return factorize(q.denominator) if q.denominator > 1 else {}


def integral_model(C: Curve) -> tuple[Curve, int]:
    """Minimal positive integer u with (u^4 A, u^6 B) integral.

    The isomorphism (x, y) -> (u^2 x, u^3 y) carries points over and
    preserves canonical heights.
    """
    vals: dict[int, int] = {}
    for p, e in _den_valuations(C.A).items():
        vals[p] = max(vals.get(p, 0), -(-e // 4))
    for p, e in _den_valuations(C.B).items():
        vals[p] = max(vals.get(p, 0), -(-e // 6))
    u = 1
    for p, e in sorted(vals.items()):
        u *= p**e
    return Curve(C.A * u**4, C.B * u**6), u


def point_to_integral(P: Point, u: int) -> Point:
    if P.is_infinity:
        return P
    return Point(P.x * u * u, P.y * u**3)


def point_from_integral(P: Point, u: int) -> Point:
    if P.is_infinity:
        return P
    return Point(P.x / (u * u), P.y / u**3)


def is_torsion(C: Curve, P: Point) -> bool:
    """n P = O for some 1 <= n <= 12, checked with exact arithmetic."""
    return torsion_order(C, P) is not None


def torsion_order(C: Curve, P: Point) -> Optional[int]:
    """Order of P when <= 12, else None."""
    _require(C, P)
    if P.is_infinity:
        return 1
    Q = P
    for n in range(2, TORSION_ORDER_BOUND + 1):
        Q = add(C, Q, P)
        if Q.is_infinity:
            return n
    return None


# ---------------------------------------------------------------------------
# Reduction mod p


@dataclass(frozen=True)
class CurveFp:
    """y^2 = x^3 + ax + b over the p-element field; points are tuples or None."""

    a: int
    b: int
    p: int

    def contains(self, P: Optional[tuple[int, int]]) -> bool:
        if P is None:
            return True
        x, y = P
        return (y * y - (x * x * x + self.a * x + self.b)) % self.p == 0

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

    def neg(self, P):
        if P is None:
            return None
        return (P[0], (-P[1]) % self.p)

    def mul(self, n: int, P):
        if n < 0:
            return self.neg(self.mul(-n, P))
        R = None
        Q = P
        while n:
            if n & 1:
                R = self.add(R, Q)
            n >>= 1
            if n:
                Q = self.add(Q, Q)
        return R


def reduce_mod_p(C: Curve, P: Point, p: int) -> tuple[CurveFp, Optional[tuple[int, int]]]:
    """Reduce the integral model and P at a prime of good reduction.

    Points with p in the denominator reduce to the point at infinity.
    Raises BadReduction when p divides the integral discriminant (p = 2
    always does: the short-model discriminant carries a factor 16).
    """
    Ci, u = integral_model(C)
    _require(C, P)
    if int(Ci.discriminant) % p == 0:
        raise BadReduction(f"p={p} divides the discriminant")
    cfp = CurveFp(int(Ci.A) % p, int(Ci.B) % p, p)
    if P.is_infinity:
        return cfp, None
    Pi = point_to_integral(P, u)
    if Pi.x.denominator % p == 0 or Pi.y.denominator % p == 0:
        return cfp, None
    x = Pi.x.numerator * pow(Pi.x.denominator, -1, p) % p
    y = Pi.y.numerator * pow(Pi.y.denominator, -1, p) % p
    return cfp, (x, y)


def good_primes(C: Curve, count: int, start: int = 3) -> list[int]:
    """The first `count` odd primes not dividing the integral discriminant."""
    Ci, _ = integral_model(C)
    disc = int(Ci.discriminant)
    out: list[int] = []
    p = start
    while len(out) < count:
        if is_probable_prime(p) and disc % p != 0:
            out.append(p)
        p += 2
    return out


# ---------------------------------------------------------------------------
# Exhaustive small-relation search

_TORSION_LCM = 27720  # lcm(1..12); necessary condition filter mod p


def small_relation_search(
    C: Curve, points: Sequence[Point], bound_n: int
) -> Optional[tuple[int, ...]]:
    """Integer coefficients (n_1..n_k), |n_i| <= bound_n, not all zero, with
    sum n_i P_i torsion — or None when no such relation exists in the box.

    Exhaustive and exact; candidate combinations are prefiltered at two
    good primes before the exact verification.
    """
    if bound_n > 16:
        raise ValueError("bound_n must be <= 16")
    if not points:
        return None
    for P in points:
        _require(C, P)
    k = len(points)

    # Exact multiple tables m[i][n] for n in -bound..bound.
    tables: list[dict[int, Point]] = []
    for P in points:
        tab = {0: INFINITY, 1: P}
        for n in range(2, bound_n + 1):
            tab[n] = add(C, tab[n - 1], P)
        for n in range(1, bound_n + 1):
            tab[-n] = neg(tab[n])
        tables.append(tab)

    primes = good_primes(C, 2)
    fp_tables = []
    for p in primes:
        cfp = None
        tabs = []
        for i, P in enumerate(points):
            cfp, red = reduce_mod_p(C, P, p)
            tab = {0: None, 1: red}
            for n in range(2, bound_n + 1):
                tab[n] = cfp.add(tab[n - 1], red)
            for n in range(1, bound_n + 1):
                tab[-n] = cfp.neg(tab[n])
            tabs.append(tab)
        fp_tables.append((cfp, tabs))

    def survives_mod_p(combo: tuple[int, ...]) -> bool:
        for cfp, tabs in fp_tables:
            S = None
            for i, n in enumerate(combo):
                S = cfp.add(S, tabs[i][n])
            if cfp.mul(_TORSION_LCM, S) is not None:
                return False
        return True

    from itertools import product

    for combo in product(range(-bound_n, bound_n + 1), repeat=k):
        if all(n == 0 for n in combo):
            continue
        if not survives_mod_p(combo):
            continue
        S = INFINITY
        for i, n in enumerate(combo):
            S = add(C, S, tables[i][n])
        if S.is_infinity or is_torsion(C, S):
            return combo
    return None
