"""Independent oracles for derived expected values.

Everything here is deliberately written from scratch against the textbook
definitions (full chord-tangent group law with y-coordinates, brute-force
enumerations) so tests can cross-check the library's optimized paths
without sharing code with them.

The reference_* functions are the exception: they are the library's
earlier loops, which did work that cannot change the output, so tests can
show that skipping it changes no byte.  They call the library's public
building blocks (the group law, the torsion screen, gram_certify, the
relation search) and import them when called.

Run as a script to print the doubling-limit height oracle for the
benchmark point (0, 4) on y^2 = x^3 - 16x + 16 at depth 12.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd, isqrt


def oracle_add(A: Fraction, B: Fraction, P, Q):
    """Chord-tangent sum; points are (x, y) tuples or None for infinity."""
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if y1 == -y2:
            return None
        m = (3 * x1 * x1 + A) / (2 * y1)
    else:
        m = (y2 - y1) / (x2 - x1)
    x3 = m * m - x1 - x2
    return (x3, m * (x1 - x3) - y1)


def oracle_mul(A: Fraction, B: Fraction, n: int, P):
    if n < 0:
        R = oracle_mul(A, B, -n, P)
        return None if R is None else (R[0], -R[1])
    R = None
    for _ in range(n):
        R = oracle_add(A, B, R, P)
    return R


def doubling_limit_height(A: int, B: int, x: Fraction, y: Fraction, depth: int) -> float:
    """4^(-N) * log H(x(2^N P)) by repeated full-group-law doubling."""
    P = (Fraction(x), Fraction(y))
    for _ in range(depth):
        P = oracle_add(Fraction(A), Fraction(B), P, P)
        assert P is not None, "oracle hit infinity: torsion point"
    u, v = P[0].numerator, P[0].denominator
    return math.log(max(abs(u), v)) / 4**depth


def brute_force_rational_count(max_height: int) -> int:
    """Count reduced u/v with max(|u|, v) <= H by a plain double loop."""
    count = 0
    for v in range(1, max_height + 1):
        for u in range(-max_height, max_height + 1):
            if gcd(abs(u), v) == 1 and max(abs(u), v) <= max_height:
                count += 1
    return count


def brute_force_subset_square(values: list[int]):
    """The first nonempty subset (by bitmask order) whose product is a
    perfect square, or None."""
    n = len(values)
    for mask in range(1, 1 << n):
        prod = 1
        for i in range(n):
            if mask >> i & 1:
                prod *= values[i]
        if prod > 0 and isqrt(prod) ** 2 == prod:
            return [values[i] for i in range(n) if mask >> i & 1]
    return None


def _rationals(bound: int) -> list[Fraction]:
    """Rationals of height <= bound, by ascending height, then value."""
    return sorted(
        {Fraction(u, v) for v in range(1, bound + 1) for u in range(-bound, bound + 1)},
        key=lambda q: (max(abs(q.numerator), q.denominator), q),
    )


def _ev(coeffs, x):
    return sum(Fraction(c) * x**i for i, c in enumerate(coeffs))


def _rational_sqrt(q: Fraction):
    """The root r >= 0 with r^2 = q, by isqrt on the reduced numerator and
    denominator, or None."""
    rn = perfect_square_root(q.numerator)
    rd = isqrt(q.denominator)
    if rn is None or rd * rd != q.denominator:
        return None
    return Fraction(rn, rd)


def brute_force_twist_fiber_first(f, bound: int):
    """The twist fiber-first walk as a plain double loop over (lam, x0).

    Rationals come by ascending height, then value; p(x0)/d(lam) is tested
    for being a square by isqrt on its reduced numerator and denominator.
    Returns ([(lam, x0, y0) with y0 >= 0], number of lam with d(lam) = 0).
    """
    rats = _rationals(bound)
    px = [(x0, _ev(f.p, x0)) for x0 in rats]
    out = []
    degenerate = 0
    for lam in rats:
        d0 = _ev(f.d, lam)
        if d0 == 0:
            degenerate += 1
            continue
        for x0, v in px:
            y0 = _rational_sqrt(v / d0)
            if y0 is not None:
                out.append((lam, x0, y0))
    return out, degenerate


def brute_force_twist_total_first(f, bound: int):
    """The total-first walk of a linear or quadratic twist d(t) y^2 = p(x)
    as a plain double loop over (x0, y0 > 0).

    Each pair with p(x0) != 0 fixes d0 = p(x0)/y0^2; the params t with
    d(t) = d0 are t = d0 on twist_linear, and t = +-sqrt(d0/c + a) on
    twist_quadratic (d(t) = c(t^2 - a)), +s before -s and once when s = 0.
    Returns ([(t, x0, y0)], pairs walked, pairs with p(x0) = 0).
    """
    rats = _rationals(bound)
    out = []
    walked = degenerate = 0
    for x0 in rats:
        v = _ev(f.p, x0)
        for y0 in (y for y in rats if y > 0):
            walked += 1
            if v == 0:
                degenerate += 1
                continue
            d0 = v / (y0 * y0)
            if f.kind == "twist_linear":
                ts = [d0]
            else:
                s = _rational_sqrt(d0 / Fraction(f.c) + Fraction(f.a))
                ts = [] if s is None else [s] if s == 0 else [s, -s]
            out += [(t, x0, y0) for t in ts]
    return out, walked, degenerate


def twist_point(f, lam, x0, y0):
    """(X, Y) = (d0 (x0 + a2/3), d0^2 y0) with d0 = d(lam): the point
    (x0, y0) of d0 y^2 = p(x) on Y^2 = X^3 + A d0^2 X + B d0^3, where a2 is
    the x^2 coefficient of the monic cubic p and p(x - a2/3) = x^3 + Ax + B.
    """
    d0 = _ev(f.d, lam)
    return d0 * (x0 + Fraction(f.p[2]) / 3), d0 * d0 * y0


def small_good_primes(C, count, start):
    """The first count odd primes p >= start at which C itself has good
    reduction: p does not divide reference_bad_part(C.A, C.B).
    curves.good_primes starts at the torsion screen's prime; this reaches
    the small primes, where a reduction is small enough to enumerate."""
    bad = reference_bad_part(C.A, C.B)
    out = []
    p = max(3, start | 1)
    while len(out) < count:
        if all(p % q for q in range(3, isqrt(p) + 1, 2)) and bad % p:
            out.append(p)
        p += 2
    return out


def reference_discriminant(A, B) -> Fraction:
    """-16(4A^3 + 27B^2), the discriminant of y^2 = x^3 + Ax + B, in Fractions."""
    return -16 * (4 * Fraction(A) ** 3 + 27 * Fraction(B) ** 2)


def reference_histogram(params, lo: Fraction, hi: Fraction, bins: int):
    """The earlier `real_histogram` rule: test lo <= q < hi, then floor
    (q - lo) * bins / (hi - lo) as a Fraction.  Returns (counts, in_range)."""
    counts = [0] * bins
    in_range = 0
    for q in params:
        if lo <= q < hi:
            t = (q - lo) * bins / (hi - lo)
            counts[t.numerator // t.denominator] += 1
            in_range += 1
    return tuple(counts), in_range


def reference_bad_part(A, B) -> int:
    """2 den(A) den(B) num(disc), the library's earlier bad-prime rule with
    the discriminant in Fractions: an odd prime not dividing it leaves
    y^2 = x^3 + Ax + B p-integral with good reduction at p."""
    A, B = Fraction(A), Fraction(B)
    return 2 * A.denominator * B.denominator * reference_discriminant(A, B).numerator


def perfect_square_root(n: int):
    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None


def reference_gram_certify(C, points, tol):
    """gram_certify's refinement loop with every round's enclosures: each
    round encloses every chain and takes the determinant.

    Returns (certificate, number of rounds).  Reads CHAIN_BUDGET_BITS from
    rankjump.heights at call time, so a patched budget applies here too.
    """
    from rankjump import heights
    from rankjump.curves import add, point_to_integral
    from rankjump.errors import ToleranceUnreachable
    from rankjump.intervals import det_interval

    pts = list(points)
    m, u = heights.model_of(C)
    try:
        target = heights.depth_for_tolerance(m.alpha, m.beta, heights.tolerance(tol))
    except ToleranceUnreachable:
        target = heights.DEPTH_CAP
    k = len(pts)
    chains = {}
    for i in range(k):
        chains[(i, i)] = m.chain(point_to_integral(pts[i], u))
        for j in range(i + 1, k):
            chains[(i, j)] = m.chain(point_to_integral(add(C, pts[i], pts[j]), u))
    rounds = 0
    while True:
        rounds += 1
        h = {key: m.interval(ch) for key, ch in chains.items()}
        M = [[None] * k for _ in range(k)]
        for i in range(k):
            M[i][i] = h[(i, i)]
            for j in range(i + 1, k):
                M[i][j] = M[j][i] = (h[(i, j)] - h[(i, i)] - h[(j, j)]).div_exact_int(2)
        det = det_interval(M)
        if det.strictly_positive():
            break
        live = [
            ch
            for ch in chains.values()
            if ch is not None
            and ch.depth < target
            and ch.size_bits() * 4 <= heights.CHAIN_BUDGET_BITS
        ]
        if not live:
            break
        for ch in live:
            ch.step()
    cert = heights.GramCertificate(
        points=tuple(pts),
        entries=tuple(tuple(row) for row in M),
        det_lower_bound=det.lo,
        certified=det.strictly_positive(),
        heights=tuple(heights._estimate(h[(i, i)]) for i in range(k)),
    )
    return cert, rounds


def reference_certify_fiber(f, w, tol):
    """engine.certify_fiber before its dependent-pair pre-check, its memo
    and its integral form: a set with P = -Q goes through its Gram, which
    cannot certify, before the witness singleton is retried.  Every torsion
    screen and every Gram runs on the fiber w.curve itself, through
    curves.is_torsion and heights.gram_certify with no model passed, so no
    integral key, memo or engine helper is shared with the code under
    test."""
    from rankjump import heights
    from rankjump.curves import is_torsion
    from rankjump.engine import WitnessCertificate
    from rankjump.intervals import CTX

    gram_tol = CTX.divide(heights.tolerance(tol), 10)
    declared = f.declared_generic_rank
    C = w.curve
    sections = f.sections_at(w.param, C)
    live_sections = [P for P in sections if not is_torsion(C, P)]
    torsion = is_torsion(C, w.witness)
    pts = list(dict.fromkeys(live_sections + ([] if torsion else [w.witness])))
    gram = heights.gram_certify(C, pts, gram_tol) if pts else None
    if not torsion and not gram.certified and len(pts) > 1:
        pts = [w.witness]
        gram = heights.gram_certify(C, pts, gram_tol)
    lb = len(pts) if gram is not None and gram.certified else 0
    if torsion:
        status = "torsion-witness"
    else:
        status = "certified" if gram.certified else "inconclusive"
    return WitnessCertificate(
        family_id=f.family_id,
        param=w.param,
        curve=C,
        section_points=tuple(sections),
        witness=w.witness,
        gram=gram,
        certified_rank_lb=lb,
        declared_generic_rank=declared,
        jump=not torsion and lb > declared,
        status=status,
    )


def reference_scan(f, bound, mode, tol):
    """engine.scan's serial tally before per-param routing: every candidate
    runs reference_certify_fiber, and the results are tallied in stream
    order."""
    from rankjump.engine import ScanReport
    from rankjump.errors import PoleAtPoint
    from rankjump.families import witness_stream
    from rankjump.heights import tolerance
    from rankjump.intervals import CTX
    from rankjump.rationals import rat_height

    tol_d = tolerance(tol)
    points, stats = witness_stream(f, bound, mode)
    kept = {}
    torsion_count = degenerate_cert = 0
    for w in points:
        try:
            cert = reference_certify_fiber(f, w, tol_d)
        except PoleAtPoint:
            degenerate_cert += 1
            continue
        if cert.status == "torsion-witness":
            torsion_count += 1
        prev = kept.get(cert.param)
        if prev is None or (prev.status != "certified" and cert.status == "certified"):
            kept[cert.param] = cert
    ordered = sorted(kept.values(), key=lambda c: (rat_height(c.param), c.param))
    certified = sum(1 for c in ordered if c.status == "certified")
    return ScanReport(
        family_id=f.family_id,
        bound=bound,
        mode=mode,
        tol=CTX.to_sci_string(tol_d),
        certificates=tuple(ordered),
        candidates=len(points),
        degenerate=stats.degenerate_skipped + degenerate_cert,
        torsion_witness=torsion_count,
        certified=certified,
        inconclusive=len(ordered) - certified,
        distinct_params=len(ordered),
    )


def reference_neron_check(f, bound, tol):
    """engine.neron_check before it went through certify_fiber: each fiber
    is certified on itself by heights.gram_certify with no model, after a
    distinctness test on its sections, and sections that meet go straight
    to the relation search."""
    from rankjump.curves import small_relation_search
    from rankjump.engine import NeronCheckReport
    from rankjump.errors import DegenerateFiber, PoleAtPoint
    from rankjump.families import fiber_at, require_valid
    from rankjump.heights import gram_certify, tolerance
    from rankjump.intervals import CTX
    from rankjump.rationals import iter_rationals

    require_valid(f)
    tol_d = tolerance(tol)
    gram_tol = CTX.divide(tol_d, 10)
    certified = 0
    inconclusive, dependent = [], []
    sampled = 0
    for lam in iter_rationals(bound):
        try:
            C = fiber_at(f, lam)
            pts = f.sections_at(lam, C)
        except (DegenerateFiber, PoleAtPoint):
            continue
        sampled += 1
        if len(set(pts)) == len(pts) and gram_certify(C, pts, gram_tol).certified:
            certified += 1
            continue
        rel = small_relation_search(C, pts, 12)
        if rel is not None:
            dependent.append((lam, rel))
        else:
            inconclusive.append(lam)
    return NeronCheckReport(
        family_id=f.family_id,
        bound=bound,
        tol=CTX.to_sci_string(tol_d),
        sampled=sampled,
        certified_independent=certified,
        inconclusive=tuple(inconclusive),
        exact_dependent=tuple(dependent),
    )


if __name__ == "__main__":
    val = doubling_limit_height(-16, 16, Fraction(0), Fraction(4), 12)
    print(f"doubling-limit oracle, depth 12: {val!r}")
