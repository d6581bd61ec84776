"""Dense univariate polynomials over Q and rational functions Q(t).

A polynomial is a tuple of Fractions in ascending degree with trailing
zeros stripped; the empty tuple is the zero polynomial.  Every operation
is exact.  Rational functions are kept normalized: monic denominator,
gcd(num, den) = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence, Union

from .errors import PoleAtPoint
from .rationals import format_rational, parse_rational

Poly = tuple[Fraction, ...]


def poly(coeffs: Iterable) -> Poly:
    """Build a normalized polynomial from ascending coefficients."""
    cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def degree(p: Poly) -> int:
    """Degree, with the zero polynomial at -1."""
    return len(p) - 1


def poly_add(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    return poly(
        (p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)
    )


def poly_mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly(out)


def poly_scale(p: Poly, c) -> Poly:
    c = Fraction(c)
    if c == 0:
        return ()
    return tuple(a * c for a in p)


def poly_eval(p: Poly, q: Fraction) -> Fraction:
    """Exact evaluation by Horner's rule."""
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * q + c
    return acc


# (F, L): F = L p has integer coefficients, L > 0 their least common denominator.
IntForm = tuple[tuple[int, ...], int]


def int_form(p: Poly) -> IntForm:
    """p as the integer polynomial L p and L, the least common denominator
    of its coefficients."""
    L = lcm(*(c.denominator for c in p))
    return tuple(c.numerator * (L // c.denominator) for c in p), L


def int_form_eval(form: IntForm, q: Fraction) -> tuple[int, int]:
    """(N, D) with p(q) = N / D and D > 0, for form = int_form(p): with
    q = u/v and n = deg p, N = v^n (L p)(u/v) (homogeneous Horner) and
    D = L v^n.  N / D need not be reduced; its square class is that of N D."""
    F, L = form
    if not F:
        return 0, L
    u, v = q.numerator, q.denominator
    N, w = 0, 1
    for c in reversed(F):
        N = N * u + c * w
        w *= v
    return N, L * (w // v)


def poly_derivative(p: Poly) -> Poly:
    return poly(i * c for i, c in enumerate(p) if i >= 1)


def poly_divmod(p: Poly, d: Poly) -> tuple[Poly, Poly]:
    if not d:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quo = [Fraction(0)] * max(0, len(p) - len(d) + 1)
    lead = d[-1]
    for i in range(len(rem) - len(d), -1, -1):
        c = rem[i + len(d) - 1] / lead
        if c == 0:
            continue
        quo[i] = c
        for j, dc in enumerate(d):
            rem[i + j] -= c * dc
    return poly(quo), poly(rem)


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm."""
    a, b = p, q
    while b:
        a, b = b, poly_divmod(a, b)[1]
    if not a:
        return ()
    return poly_scale(a, 1 / a[-1])


def is_squarefree(p: Poly) -> bool:
    """No repeated roots: gcd(p, p') is constant."""
    return degree(poly_gcd(p, poly_derivative(p))) <= 0


def depress_cubic(p: Poly) -> tuple[Fraction, Fraction, Fraction]:
    """Write a monic cubic as p(x) = q(x + s), q(X) = X^3 + A X + B.

    Returns (A, B, s) with s = a2/3.  Raises ValueError unless p is a monic
    cubic.
    """
    if degree(p) != 3:
        raise ValueError(f"expected degree 3, got {degree(p)}")
    if p[3] != 1:
        raise ValueError("cubic must be monic")
    a0, a1, a2 = p[0], p[1], p[2]
    s = a2 / 3
    A = a1 - a2 * a2 / 3
    B = 2 * a2**3 / 27 - a1 * a2 / 3 + a0
    return A, B, s


def parse_poly(items: Sequence[Union[str, int]]) -> Poly:
    """Ascending coefficients; a string is rejected, not read per character."""
    if not isinstance(items, (list, tuple)):
        raise ValueError(f"a polynomial must be an array of coefficients, got {items!r}")
    return poly(parse_rational(str(c)) for c in items)


def poly_text(p: Poly, var: str = "x") -> str:
    """Human-readable form, for identifiers and messages."""
    if not p:
        return "0"
    parts = []
    for i in range(len(p) - 1, -1, -1):
        c = p[i]
        if c == 0:
            continue
        if i == 0:
            term = format_rational(abs(c))
        else:
            mag = "" if abs(c) == 1 else format_rational(abs(c)) + "*"
            term = f"{mag}{var}" + (f"^{i}" if i > 1 else "")
        if not parts:
            parts.append(term if c > 0 else "-" + term)
        else:
            parts.append(("+ " if c > 0 else "- ") + term)
    return " ".join(parts)


@dataclass(frozen=True)
class RatFunc:
    """A rational function num/den, normalized on construction.

    Invariants: den nonzero and monic, gcd(num, den) = 1.
    """

    num: Poly
    den: Poly

    def __post_init__(self) -> None:
        if not self.den:
            raise ZeroDivisionError("rational function with zero denominator")
        if self.den[-1] != 1:
            raise ValueError("denominator must be monic after normalization")

    def is_zero(self) -> bool:
        return not self.num

    def __add__(self, other: "RatFunc") -> "RatFunc":
        return ratfunc(
            poly_add(poly_mul(self.num, other.den), poly_mul(other.num, self.den)),
            poly_mul(self.den, other.den),
        )

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        return ratfunc(poly_mul(self.num, other.num), poly_mul(self.den, other.den))

    def eval(self, q: Fraction) -> Fraction:
        d = poly_eval(self.den, q)
        if d == 0:
            raise PoleAtPoint(f"pole at {format_rational(q)}")
        return poly_eval(self.num, q) / d


def ratfunc(num, den=(Fraction(1),)) -> RatFunc:
    """Normalize num/den: cancel the gcd and make the denominator monic."""
    n = poly(num) if not isinstance(num, tuple) else num
    d = poly(den) if not isinstance(den, tuple) else den
    if not d:
        raise ZeroDivisionError("rational function with zero denominator")
    if not n:
        return RatFunc((), (Fraction(1),))
    g = poly_gcd(n, d)
    if degree(g) > 0:
        n = poly_divmod(n, g)[0]
        d = poly_divmod(d, g)[0]
    lc = d[-1]
    if lc != 1:
        n = poly_scale(n, 1 / lc)
        d = poly_scale(d, 1 / lc)
    return RatFunc(n, d)


def ratfunc_from_json(obj) -> RatFunc:
    """Accepts {"num": [...], "den": [...]} (den defaults to [1]) or a bare
    coefficient list; a scalar is rejected."""
    if isinstance(obj, (list, tuple)):
        return ratfunc(parse_poly(obj))
    if isinstance(obj, dict) and set(obj) <= {"num", "den"} and "num" in obj:
        den = parse_poly(obj["den"]) if "den" in obj else poly([1])
        return ratfunc(parse_poly(obj["num"]), den)
    raise ValueError(f"not a rational function: {obj!r}")
