"""Canonical (Neron-Tate) heights by the doubling limit, with rigorous
error bounds, and Gram-determinant independence certificates.

On an integral model y^2 = x^3 + Ax + B write x = u/v reduced and
H = max(|u|, v).  Duplication sends u/v to F/G with

  F = u^4 - 2Au^2v^2 - 8Buv^3 + A^2 v^4
  G = 4v(u^3 + Auv^2 + Bv^3)

and the classical Bezout identities (both re-verified exactly per curve in
the test suite; D = 4A^3 + 27B^2)

  (12u^2 v + 16A v^3) F + (-3u^3 + 5Auv^2 + 27Bv^3) G = 4D v^7
  f2 F + g2 G = 4D u^7,   f2, g2 the cubic cofactors in u7_cofactors

bound the one-step defect:  h(2P) - 4h(P) <= beta = ln c1 from the
coefficient sums of F and G, and h(2P) - 4h(P) >= -alpha = -ln S from the
identities (the gcd of F and G divides 4D, and 4|D| H^7 <= S H^3
max(|F|,|G|)).  Summing the geometric tail of L_N = 4^(-N) h(x(2^N P)):

  hhat(P) in [L_N - alpha/(3*4^N), L_N + beta/(3*4^N)]

which is the enclosure everything below certifies against.  A positive
lower bound on the Gram determinant of the pairing
<P,Q> = (hhat(P+Q) - hhat(P) - hhat(Q))/2 proves the points independent
modulo torsion, hence a Mordell-Weil rank lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from typing import Optional, Sequence

from .curves import (
    Curve,
    Point,
    add,
    integral_model,
    is_torsion,
    point_to_integral,
    require_on_curve,
)
from .errors import ToleranceUnreachable
from .intervals import CTX, Interval, det_interval, ln_int_interval, negate

# Doubling depth hard cap: coordinate digits grow like 4^N.
DEPTH_CAP = 14

# Claimed error bound of `canonical_height` and `height_pairing` by default.
DEFAULT_HEIGHT_TOL = Decimal("1e-6")

# Per-chain coordinate budget (bits) for adaptive Gram refinement.  Chains
# that would outgrow it stop refining; enclosures stay valid, so this can
# only prevent a certification, never fabricate one.
CHAIN_BUDGET_BITS = 1 << 18


@dataclass(frozen=True)
class HeightEstimate:
    """A canonical-height value with a rigorous two-sided error bound.

    The true height lies in [value - error_bound, value + error_bound].
    """

    value: Decimal
    error_bound: Decimal

    def to_json(self) -> dict:
        return {
            "value": CTX.to_sci_string(self.value),
            "err": CTX.to_sci_string(self.error_bound),
        }


def _estimate(iv: Interval) -> HeightEstimate:
    return HeightEstimate(value=iv.mid, error_bound=iv.half_width)


def u7_cofactors(A: int, B: int) -> tuple[tuple[int, int, int, int], tuple[int, int, int, int]]:
    """Cubic cofactors (f2, g2) of the u^7 identity, ascending in v-degree."""
    D = 4 * A**3 + 27 * B**2
    f2 = (4 * D, -4 * A * A * B, 12 * A**4 + 88 * A * B * B, 12 * A**3 * B + 96 * B**3)
    g2 = (
        A * A * B,
        5 * A**4 + 32 * A * B * B,
        26 * A**3 * B + 192 * B**3,
        -(3 * A**5 + 24 * A * A * B * B),
    )
    return f2, g2


def v7_cofactors(A: int, B: int) -> tuple[tuple[int, int, int, int], tuple[int, int, int, int]]:
    """Cubic cofactors (f1, g1) of the v^7 identity, ascending in v-degree."""
    return (0, 12, 0, 16 * A), (-3, 0, 5 * A, 27 * B)


def defect_bounds(C: Curve) -> tuple[Decimal, Decimal]:
    """(alpha, beta): rigorous bounds -alpha <= h(2P) - 4h(P) <= beta.

    Requires an integral model.
    """
    if C.A.denominator != 1 or C.B.denominator != 1:
        raise ValueError("defect bounds need an integral model")
    A, B = int(C.A), int(C.B)
    c1 = max(1 + 2 * abs(A) + 8 * abs(B) + A * A, 4 * (1 + abs(A) + abs(B)))
    s_v, s_u = (sum(map(abs, f + g)) for f, g in (v7_cofactors(A, B), u7_cofactors(A, B)))
    alpha = ln_int_interval(max(s_v, s_u)).hi
    beta = ln_int_interval(c1).hi
    return alpha, beta


class XChain:
    """The x-coordinate orbit of repeated doubling on an integral model.

    State is the reduced pair (u, v) for x(2^N P).  Reduction after each
    step divides out gcd(F, G), which divides 4D, so it costs one small
    gcd instead of a gcd of the full-size coordinates.
    """

    def __init__(self, C: Curve, P: Point):
        if P.is_infinity:
            raise ValueError("chain requires an affine point")
        self.a = int(C.A)
        self.b = int(C.B)
        self.t = abs(C.discriminant.numerator) // 4  # 4|4A^3 + 27B^2|
        self.u = P.x.numerator
        self.v = P.x.denominator
        self.depth = 0

    def step(self) -> None:
        a, b, u, v = self.a, self.b, self.u, self.v
        u2 = u * u
        v2 = v * v
        av2 = a * v2
        bv3 = b * v * v2
        F = (u2 - av2) ** 2 - 8 * u * bv3
        G = 4 * v * (u * (u2 + av2) + bv3)
        if G == 0:
            raise ArithmeticError("doubling hit a 2-torsion point")
        g = math.gcd(math.gcd(F, self.t), math.gcd(G, self.t))
        F //= g
        G //= g
        # F = 0 needs no special case: the identities then give G | 4D u^7
        # and G | 4D v^7, and gcd(u, v) = 1, so G | 4D = t and F/G is 0/1.
        # G is already positive: for the chain's point (u/v, y), v > 0, it
        # was 4v^4 y^2 with y != 0 (torsion never starts a chain), and g > 0.
        self.u, self.v = F, G
        self.depth += 1

    def size_bits(self) -> int:
        return max(self.u.bit_length(), self.v.bit_length())


class _Model:
    """The chain setup shared by every enclosure on C: the integral model
    (x, y) -> (u^2 x, u^3 y) and its defect bounds, computed once."""

    def __init__(self, C: Curve):
        self.curve, self.u = integral_model(C)
        self.alpha, self.beta = defect_bounds(self.curve)

    def chain(self, P: Point) -> Optional[XChain]:
        """P's doubling chain on the integral model, or None when P is
        torsion (infinity included): its height is exactly 0."""
        if P.is_infinity:
            return None
        Pi = point_to_integral(P, self.u)
        return None if is_torsion(self.curve, Pi) else XChain(self.curve, Pi)

    def interval(self, chain: Optional[XChain]) -> Interval:
        """[L_N - alpha/(3*4^N), L_N + beta/(3*4^N)] at the chain's depth N."""
        if chain is None:
            return Interval.exact(0)
        L = ln_int_interval(max(abs(chain.u), chain.v)).div_exact_int(4**chain.depth)
        return L + Interval(negate(self.alpha), self.beta).div_exact_int(3 * 4**chain.depth)

    def enclose(self, P: Point, depth: int) -> Interval:
        chain = self.chain(P)
        if chain is not None:
            for _ in range(depth):
                chain.step()
        return self.interval(chain)


def depth_for_tolerance(alpha: Decimal, beta: Decimal, tol: Decimal) -> int:
    """Smallest N with claimed error (alpha+beta)/(6*4^N) <= tol, capped."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    spread = CTX.add(alpha, beta)
    for N in range(DEPTH_CAP + 1):
        if CTX.divide(spread, Decimal(6 * 4**N)) <= tol:
            return N
    raise ToleranceUnreachable(
        f"tolerance {tol} needs doubling depth beyond {DEPTH_CAP}"
    )


def tolerance(tol) -> Decimal:
    """tol as a Decimal (a float through its repr); ValueError unless it
    is a finite decimal > 0."""
    try:
        tol_d = Decimal(repr(tol) if isinstance(tol, float) else str(tol))
    except InvalidOperation:
        tol_d = None
    if tol_d is None or not tol_d.is_finite() or tol_d <= 0:
        raise ValueError(f"tol must be a finite decimal > 0, got {tol!r}")
    return tol_d


def height_interval(C: Curve, P: Point, depth: int) -> Interval:
    """Enclosure of hhat(P) at a fixed doubling depth, on any model.

    Torsion points (including infinity) get the exact interval [0, 0].
    """
    require_on_curve(C, P)
    return _Model(C).enclose(P, depth)


def canonical_height(C: Curve, P: Point, tol=DEFAULT_HEIGHT_TOL) -> HeightEstimate:
    """Doubling-limit estimate with claimed error bound <= tol.

    Raises ToleranceUnreachable when the required depth exceeds the cap.
    """
    tol_d = tolerance(tol)
    require_on_curve(C, P)
    m = _Model(C)
    chain = m.chain(P)
    if chain is None:
        return HeightEstimate(value=Decimal(0), error_bound=tol_d)
    depth = depth_for_tolerance(m.alpha, m.beta, tol_d)
    for _ in range(depth):
        chain.step()
    est = _estimate(m.interval(chain))
    if est.error_bound > tol_d and depth < DEPTH_CAP:
        chain.step()
        est = _estimate(m.interval(chain))
    if est.error_bound > tol_d:
        raise ToleranceUnreachable(f"claimed error {est.error_bound} exceeds {tol_d}")
    return est


def height_pairing(C: Curve, P: Point, Q: Point, tol=DEFAULT_HEIGHT_TOL) -> Interval:
    """Enclosure of <P,Q> = (hhat(P+Q) - hhat(P) - hhat(Q))/2."""
    tol_d = tolerance(tol)
    m = _Model(C)
    depth = depth_for_tolerance(m.alpha, m.beta, tol_d)
    S = add(C, P, Q)
    return (m.enclose(S, depth) - m.enclose(P, depth) - m.enclose(Q, depth)).div_exact_int(2)


@dataclass(frozen=True)
class GramCertificate:
    """Interval Gram matrix of canonical-height pairings.

    certified = True means the determinant's rigorous lower bound is
    strictly positive, proving the points independent modulo torsion and
    hence rank >= len(points).
    """

    points: tuple[Point, ...]
    entries: tuple[tuple[Interval, ...], ...]
    det_lower_bound: Decimal
    certified: bool
    heights: tuple[HeightEstimate, ...]

    def to_json(self) -> dict:
        return {
            "points": [str(P) for P in self.points],
            "entries": [
                [[CTX.to_sci_string(e.lo), CTX.to_sci_string(e.hi)] for e in row]
                for row in self.entries
            ],
            "det_lower_bound": CTX.to_sci_string(self.det_lower_bound),
            "certified": self.certified,
        }


def gram_certify(C: Curve, points: Sequence[Point], tol) -> GramCertificate:
    """Certify independence of points via a positive interval Gram determinant.

    Refinement is adaptive: all height chains advance together, one
    doubling per round, until either the determinant's lower bound turns
    positive (early success), every chain reaches the depth matching tol,
    or a chain hits the coordinate budget.  Every intermediate enclosure
    is rigorous, so stopping early never produces a false certificate.
    """
    tol_d = tolerance(tol)
    pts = list(points)
    if not pts:
        raise ValueError("gram_certify needs at least one point")
    for P in pts:
        require_on_curve(C, P)
    if len({(P.x, P.y) for P in pts}) != len(pts):
        raise ValueError("points must be pairwise distinct")

    m = _Model(C)
    try:
        target = depth_for_tolerance(m.alpha, m.beta, tol_d)
    except ToleranceUnreachable:
        target = DEPTH_CAP

    # Sums are taken on C: the integral-model map is a group isomorphism,
    # so chain() sees the same points either way.
    k = len(pts)
    chains: dict[tuple[int, int], Optional[XChain]] = {}
    for i in range(k):
        chains[(i, i)] = m.chain(pts[i])
        for j in range(i + 1, k):
            chains[(i, j)] = m.chain(add(C, pts[i], pts[j]))

    while True:
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
            and ch.size_bits() * 4 <= CHAIN_BUDGET_BITS
        ]
        if not live:
            break
        for ch in live:
            ch.step()

    return GramCertificate(
        points=tuple(pts),
        entries=tuple(tuple(row) for row in M),
        det_lower_bound=det.lo,
        certified=det.strictly_positive(),
        heights=tuple(_estimate(h[(i, i)]) for i in range(k)),
    )
