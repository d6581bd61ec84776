"""Exact rationals: naive height, deterministic bounded-height enumeration,
square detection, and the string forms used by every JSON/CSV interface.

A rational is a `fractions.Fraction`; the stdlib type already maintains the
reduced representative with positive denominator that the rest of the
package assumes (zero is 0/1).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import Iterator, Optional, Union

RatLike = Union[int, str, Fraction]


def rat_height(q: Fraction) -> int:
    """Naive multiplicative height max(|num|, den) of a reduced fraction."""
    return max(abs(q.numerator), q.denominator)


def iter_rationals(max_height: int) -> Iterator[Fraction]:
    """Yield every reduced u/v with max(|u|, v) <= max_height exactly once.

    Order: ascending height, then ascending value within a height block,
    built in order: for S the v in 1..h-1 coprime to h, |h/v| > 1 > |u/h|,
    so block h ascends as -h/v (v in S ascending), -u/h (u in S descending),
    then their negations reversed.  The sequence is deterministic, so scans
    built on it are byte-reproducible.
    """
    if max_height < 1:
        raise ValueError("max_height must be >= 1")
    yield Fraction(-1)
    yield Fraction(0)
    yield Fraction(1)
    for h in range(2, max_height + 1):
        coprime = [v for v in range(1, h) if gcd(h, v) == 1]
        negative = [Fraction(-h, v) for v in coprime] + [Fraction(-u, h) for u in reversed(coprime)]
        yield from negative
        yield from (-q for q in reversed(negative))


def is_rational_square(q: Fraction) -> Optional[Fraction]:
    """The nonnegative square root of q when q is a rational square, else None.

    0 returns 0.  Works on the reduced form: u/v is a square exactly when
    u >= 0 and both u and v are perfect squares.
    """
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    rn = isqrt(n)
    if rn * rn != n:
        return None
    rd = isqrt(d)
    if rd * rd != d:
        return None
    return Fraction(rn, rd)


def int_pair_is_square(n: int, d: int) -> bool:
    """True iff the (not necessarily reduced) fraction n/d is a rational square.

    n/d with d != 0 is a square in Q exactly when n*d is a perfect square,
    which avoids a gcd in enumeration hot loops.
    """
    m = n * d
    if m < 0:
        return False
    r = isqrt(m)
    return r * r == m


def parse_rational(text: str) -> Fraction:
    """Parse "num/den" or "num" (den omitted when 1)."""
    s = text.strip()
    try:
        if "/" in s:
            num, den = s.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def format_rational(q: RatLike) -> str:
    if not isinstance(q, Fraction):
        q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
