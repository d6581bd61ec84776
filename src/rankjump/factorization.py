"""Integer factorization sized for this package's scans, squarefree parts,
and F2 linear algebra on square classes.

A class of Q*/(Q*)^2 is named by its signed squarefree integer s: the
sign is its F2 sign bit and the primes of |s| are its other bits.

Trial division runs over the primes below 1000; anything left is split
with Brent's variant of Pollard rho after a deterministic Miller-Rabin
test.  Measured traffic: 42,395 factorizations over the twist_quadratic
bound 40 fiber-first, twist_linear bound 8 total-first and pencil bound 8
fiber-first scans of perfbench's 13 instances, the cubic pencil at bound
12 and `billing` of x^3 - x at rank 3, bound 10.  The largest input had
62 bits (cubic pencil).  Only the twist fiber-first square-class join
(one class per p(x0) and per d(lam), inputs up to 36 bits) left a prime
factor of 1000 or more after trial division: 656-769 of its about 3,900
factorizations per twist_quadratic scan.  No other input did.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

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


def squarefree_part(n: int) -> int:
    """The squarefree s with n = s * m^2; sign of s equals sign of n.

    s names the class of n in Q*/(Q*)^2: -1 is a class, 1 the unit class.
    """
    if n == 0:
        raise ValueError("squarefree_part(0)")
    s = -1 if n < 0 else 1
    for p, e in factorize(abs(n)).items():
        if e % 2 == 1:
            s *= p
    return s


def squarefree_part_of_rational(q: Fraction) -> int:
    """Square class of a nonzero rational: the class of num*den."""
    if q == 0:
        raise ValueError("squarefree_part_of_rational(0)")
    return squarefree_part(q.numerator * q.denominator)


def class_vectors(classes: Sequence[int]) -> tuple[list[int], list[int]]:
    """F2 exponent vectors of signed squarefree classes as bitmasks: bit 0
    is the sign, and each prime of |c| has one bit.

    Returns (vectors, prime_basis) with the basis sorted ascending.
    """
    primes = [tuple(factorize(abs(c))) for c in classes]
    basis = sorted({p for ps in primes for p in ps})
    index = {p: i + 1 for i, p in enumerate(basis)}
    vecs = []
    for c, ps in zip(classes, primes):
        v = 1 if c < 0 else 0
        for p in ps:
            v |= 1 << index[p]
        vecs.append(v)
    return vecs, basis


def square_class_independent(classes: Sequence[int]) -> bool:
    """Linear independence over F2 of squarefree classes: no nonempty
    subset has a rational square as its product.  Class 1 raises ValueError.
    """
    if 1 in classes:
        raise ValueError("class 1 is not allowed")
    vecs, _ = class_vectors(classes)
    pivots: dict[int, int] = {}  # top bit -> reduced vector
    for v in vecs:
        while v.bit_length() in pivots:
            v ^= pivots[v.bit_length()]
        if v == 0:
            return False
        pivots[v.bit_length()] = v
    return True
