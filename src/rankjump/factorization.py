"""Integer factorization sized for this package's scans, squarefree parts,
and F2 linear algebra on square classes.

Trial division runs over the primes below 1000; anything left is split
with Brent's variant of Pollard rho after a deterministic Miller-Rabin
test.  Measured traffic: 42,378 factorizations over the twist_quadratic
bound 40 fiber-first, twist_linear bound 8 total-first and pencil bound 8
fiber-first scans of perfbench's 13 instances, the cubic pencil at bound
12 and `billing` of x^3 - x at rank 3, bound 10.  The largest input had
62 bits (cubic pencil).  Only the twist fiber-first square-class join
(one class per p(x0) and per d(lam), inputs up to 36 bits) left a prime
factor of 1000 or more after trial division: 656-769 of its about 3,900
factorizations per twist_quadratic scan.  No other input did.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from .errors import UnitClass, ZeroInput

# Witnesses proving primality for every n < 3.3 * 10**24 (Sorenson-Webster).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_TRIAL_PRIMES = tuple(p for p in range(1000) if is_probable_prime(p))


def _brent_rho(n: int) -> int:
    """A nontrivial factor of composite odd n."""
    if n % 2 == 0:
        return 2
    # Deterministic parameter sweep keeps results reproducible.
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n == 1:
        return dict(sorted(out.items()))
    stack = [n]
    while stack:
        m = stack.pop()
        if is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _brent_rho(m)
        stack.append(d)
        stack.append(m // d)
    return dict(sorted(out.items()))


@dataclass(frozen=True)
class SquareClass:
    """An element of Q*/(Q*)^2: a squarefree integer with its prime support.

    `squarefree` carries the sign of the original number; -1 is a legal
    class (negative=True, no primes).
    """

    squarefree: int
    primes: tuple[int, ...]
    negative: bool

    def __post_init__(self) -> None:
        prod = -1 if self.negative else 1
        for p in self.primes:
            prod *= p
        if prod != self.squarefree:
            raise ValueError("inconsistent square class")


def squarefree_part(n: int) -> SquareClass:
    """The squarefree s with n = s * m^2; sign of s equals sign of n."""
    if n == 0:
        raise ZeroInput("squarefree_part(0)")
    negative = n < 0
    primes = tuple(p for p, e in factorize(abs(n)).items() if e % 2 == 1)
    s = -1 if negative else 1
    for p in primes:
        s *= p
    return SquareClass(squarefree=s, primes=primes, negative=negative)


def squarefree_part_of_rational(q: Fraction) -> SquareClass:
    """Square class of a nonzero rational: the class of num*den."""
    if q == 0:
        raise ZeroInput("squarefree_part_of_rational(0)")
    return squarefree_part(q.numerator * q.denominator)


def class_vectors(classes: Sequence[SquareClass]) -> tuple[list[int], list[int]]:
    """F2 exponent vectors as bitmasks (bit 0 = sign, one bit per prime).

    Returns (vectors, prime_basis) with the basis sorted ascending.
    """
    basis = sorted({p for c in classes for p in c.primes})
    index = {p: i + 1 for i, p in enumerate(basis)}
    vecs = []
    for c in classes:
        v = 1 if c.negative else 0
        for p in c.primes:
            v |= 1 << index[p]
        vecs.append(v)
    return vecs, basis


def square_class_independent(
    classes: Sequence[SquareClass],
) -> tuple[bool, Optional[tuple[SquareClass, ...]]]:
    """Linear independence of square classes over F2.

    Returns (True, None) when independent; otherwise (False, subset) for a
    nonempty subset of the input whose product is a rational square.
    """
    for c in classes:
        if c.squarefree == 1:
            raise UnitClass("class 1 is not allowed")
    vecs, _ = class_vectors(classes)
    pivots: dict[int, tuple[int, int]] = {}  # top bit -> (vector, combination bitmask)
    for i, v in enumerate(vecs):
        combo = 1 << i
        while v.bit_length() in pivots:
            pv, pc = pivots[v.bit_length()]
            v ^= pv
            combo ^= pc
        if v == 0:
            subset = tuple(classes[j] for j in range(len(classes)) if combo >> j & 1)
            return False, subset
        pivots[v.bit_length()] = (v, combo)
    return True, None
