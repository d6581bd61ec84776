"""Directed-rounding interval arithmetic over Decimal.

Every certified numeric quantity (heights, Gram determinants) flows
through this module.  Endpoints live in a fixed 45-digit context and each
operation except negation widens the result by one ulp on each side, so an
Interval encloses the exact real value it tracks.  Negation (`negate`)
rounds to 28 digits, half-even, without widening, so an endpoint it
touches can move by up to half a unit in its 28th digit, inward as well
as outward.  Every operation names its context and Decimals become text
through `CTX.to_sci_string`, so no result depends on the caller's
`decimal` context.  libmpdec semantics make the results identical across
platforms and worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Context, Decimal, ROUND_HALF_EVEN
from typing import Sequence

from .errors import EmptyInput

CTX = Context(prec=45, rounding=ROUND_HALF_EVEN, Emin=-999999, Emax=999999, capitals=1)

# Negation rounds to 28 digits, the precision of Python's default context,
# under which every recorded report was produced; exact negation would
# change their bytes.
_NEG_CTX = Context(prec=28, rounding=ROUND_HALF_EVEN, Emin=-999999, Emax=999999, capitals=1)

ZERO = Decimal(0)


def _down(x: Decimal) -> Decimal:
    return CTX.next_minus(x)


def _up(x: Decimal) -> Decimal:
    return CTX.next_plus(x)


def negate(x: Decimal) -> Decimal:
    """-x, rounded to 28 digits half-even whatever the caller's context."""
    return _NEG_CTX.minus(x)


@dataclass(frozen=True)
class Interval:
    lo: Decimal
    hi: Decimal

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @staticmethod
    def exact(x) -> "Interval":
        d = Decimal(x)
        return Interval(d, d)

    @property
    def mid(self) -> Decimal:
        return CTX.divide(CTX.add(self.lo, self.hi), Decimal(2))

    @property
    def half_width(self) -> Decimal:
        return _up(CTX.divide(CTX.subtract(self.hi, self.lo), Decimal(2)))

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(_down(CTX.add(self.lo, other.lo)), _up(CTX.add(self.hi, other.hi)))

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(
            _down(CTX.subtract(self.lo, other.hi)), _up(CTX.subtract(self.hi, other.lo))
        )

    def __neg__(self) -> "Interval":
        return Interval(negate(self.hi), negate(self.lo))

    def __mul__(self, other: "Interval") -> "Interval":
        cands = [
            CTX.multiply(self.lo, other.lo),
            CTX.multiply(self.lo, other.hi),
            CTX.multiply(self.hi, other.lo),
            CTX.multiply(self.hi, other.hi),
        ]
        return Interval(_down(min(cands)), _up(max(cands)))

    def div_exact_int(self, n: int) -> "Interval":
        """Divide by a positive exact integer."""
        d = Decimal(n)
        return Interval(_down(CTX.divide(self.lo, d)), _up(CTX.divide(self.hi, d)))

    def strictly_positive(self) -> bool:
        return self.lo > 0


def det_interval(M: Sequence[Sequence[Interval]]) -> Interval:
    """Determinant enclosure by Laplace expansion with column-subset memoing.

    Exact-arithmetic structure (only +, -, x on intervals), sound for any
    size k; the memo holds one minor per column subset, so the cost is
    O(k * 2^k) interval products.
    """
    k = len(M)
    if k == 0:
        raise EmptyInput("empty matrix")
    if any(len(row) != k for row in M):
        raise ValueError("matrix is not square")

    full = (1 << k) - 1
    memo: dict[int, Interval] = {0: Interval.exact(1)}

    def minor(colmask: int) -> Interval:
        if colmask in memo:
            return memo[colmask]
        row = k - bin(colmask).count("1")
        acc = None
        sign = 1
        for j in range(k):
            if not colmask >> j & 1:
                continue
            term = M[row][j] * minor(colmask & ~(1 << j))
            if sign < 0:
                term = -term
            acc = term if acc is None else acc + term
            sign = -sign
        memo[colmask] = acc
        return acc

    return minor(full)


_LN2 = CTX.ln(Decimal(2))
LN2 = Interval(_down(_LN2), _up(_LN2))

_TOP_BITS = 128


def ln_int_interval(n: int) -> Interval:
    """Enclosure of ln(n) for an integer n >= 1.

    Large integers are truncated to their top 128 bits; the discarded tail
    is absorbed into the enclosure via ln(m) <= ln(n) - shift*ln2 <= ln(m+1).
    """
    if n < 1:
        raise ValueError("ln_int_interval expects n >= 1")
    if n == 1:
        return Interval(ZERO, ZERO)
    bits = n.bit_length()
    if bits <= _TOP_BITS:
        v = CTX.ln(Decimal(n))
        return Interval(_down(v), _up(v))
    shift = bits - _TOP_BITS
    m = n >> shift
    lo = _down(CTX.ln(Decimal(m)))
    hi = _up(CTX.ln(Decimal(m + 1)))
    scaled = Interval.exact(shift) * LN2
    return Interval(lo, hi) + scaled
