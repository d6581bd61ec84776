import dataclasses
import random
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import pytest

from oracles import doubling_limit_height, reference_gram_certify
from rankjump import heights
from rankjump.curves import INFINITY, curve, is_torsion, mul, point, point_to_integral
from rankjump.errors import PointNotOnCurve, ToleranceUnreachable
from rankjump.heights import (
    XChain,
    canonical_height,
    depth_for_tolerance,
    gram_certify,
    height_pairing,
    model_of,
    u7_cofactors,
    v7_cofactors,
)
from rankjump.intervals import Interval, det_interval, ln_int_interval
from rankjump.polynomials import poly, poly_add, poly_mul

BENCH = curve(-16, 16)
BENCH_P = point(0, 4)
# Frozen from tests/oracles.py (standalone doubling-limit run at depth 12).
ORACLE_DEPTH12 = 0.05111149078389563


def test_duplication_identities_exact():
    """The Bezout identities behind the defect bounds, checked as exact
    polynomial identities in u (v = 1 slice determines the homogeneous
    identity of degree 7) for a spread of integral curves."""
    rng = random.Random(3)
    curves = [(-16, 16), (-1, 0), (0, 1), (-36, 0), (1, -6)]
    curves += [(rng.randint(-50, 50), rng.randint(-50, 50)) for _ in range(40)]
    for A, B in curves:
        D = 4 * A**3 + 27 * B**2
        if D == 0:
            continue
        F = poly([A * A, -8 * B, -2 * A, 0, 1])  # F(u, 1), ascending in u
        G = poly([4 * B, 4 * A, 0, 4])  # G(u, 1)
        f1c, g1c = v7_cofactors(A, B)
        f2c, g2c = u7_cofactors(A, B, D)
        # cofactor tuples are (u^3, u^2 v, u v^2, v^3); at v = 1 reverse them
        f1 = poly(list(reversed(f1c)))
        g1 = poly(list(reversed(g1c)))
        f2 = poly(list(reversed(f2c)))
        g2 = poly(list(reversed(g2c)))
        lhs1 = poly_add(poly_mul(f1, F), poly_mul(g1, G))
        assert lhs1 == poly([4 * D]), f"v^7 identity failed at {(A, B)}"
        lhs2 = poly_add(poly_mul(f2, F), poly_mul(g2, G))
        assert lhs2 == poly([0] * 7 + [4 * D]), f"u^7 identity failed at {(A, B)}"


def test_xchain_matches_oracle_doubling():
    chain = XChain(heights.HeightModel(-16, 16), BENCH_P)
    P = (BENCH_P.x, BENCH_P.y)
    C = BENCH
    from oracles import oracle_add

    for _ in range(6):
        chain.step()
        P = oracle_add(C.A, C.B, P, P)
        assert Fraction(chain.u, chain.v) == P[0]


def test_canonical_height_benchmark():
    est = canonical_height(BENCH, BENCH_P, Decimal("1e-5"))
    assert est.error_bound <= Decimal("1e-5")
    assert abs(est.value - Decimal("0.0511114")) < Decimal("1e-4")
    # the independent depth-12 oracle lands inside the claimed interval
    assert abs(float(est.value) - ORACLE_DEPTH12) < float(est.error_bound) + 1e-6


def test_canonical_height_agrees_with_oracle_on_other_curves():
    cases = [((-36, 0), (12, 36)), ((0, -2), (3, 5)), ((1, -6), (2, 2))]
    for (A, B), (x, y) in cases:
        est = canonical_height(curve(A, B), point(x, y), Decimal("1e-4"))
        orc = doubling_limit_height(A, B, Fraction(x), Fraction(y), 8)
        assert abs(float(est.value) - orc) < float(est.error_bound) + 1e-3


def test_torsion_height_is_zero():
    est = canonical_height(curve(0, 1), point(2, 3), Decimal("1e-6"))
    assert abs(est.value) <= est.error_bound


def test_tolerance_unreachable():
    with pytest.raises(ToleranceUnreachable):
        canonical_height(BENCH, BENCH_P, Decimal("1e-25"))


def test_depth_selection_monotone():
    m = heights.model_of(curve(-16, 16))[0]
    alpha, beta = m.alpha, m.beta
    d1 = depth_for_tolerance(alpha, beta, Decimal("1e-2"))
    d2 = depth_for_tolerance(alpha, beta, Decimal("1e-6"))
    assert d1 < d2


def test_off_curve_rejected():
    with pytest.raises(PointNotOnCurve):
        canonical_height(BENCH, point(1, 2), Decimal("1e-4"))


def test_quadraticity_on_benchmark_pair():
    # hhat(2P) = 4 hhat(P) within combined claimed errors
    C = curve(-36, 0)
    P = point(12, 36)
    P2 = mul(C, 2, P)
    e1 = canonical_height(C, P2, Decimal("1e-3"))
    e2 = canonical_height(C, P, Decimal("1e-3"))
    assert abs(e1.value - 4 * e2.value) <= e1.error_bound + 4 * e2.error_bound


def test_pairing_examples():
    C = curve(-36, 0)
    P, Q = point(-3, 9), point(12, 36)
    hP = canonical_height(C, P, Decimal("1e-4"))
    iv = height_pairing(C, P, P, Decimal("1e-4"))
    # <P, P> = hhat(P)
    assert iv.lo <= hP.value + hP.error_bound and hP.value - hP.error_bound <= iv.hi
    pq = height_pairing(C, P, Q, Decimal("1e-4"))
    qp = height_pairing(C, Q, P, Decimal("1e-4"))
    assert (pq.lo, pq.hi) == (qp.lo, qp.hi)
    with_inf = height_pairing(C, P, INFINITY, Decimal("1e-3"))
    # <P, O> straddles 0 with width bounded by the tolerance budget
    assert with_inf.lo <= 0 <= with_inf.hi or abs(with_inf.mid) < Decimal("0.3")


def test_gram_examples():
    C = curve(-36, 0)
    P = point(12, 36)
    g = gram_certify(C, [P], Decimal("1e-4"))
    assert g.certified and g.det_lower_bound > 0
    g2 = gram_certify(C, [P, mul(C, 2, P)], Decimal("1e-3"))
    assert not g2.certified
    with pytest.raises(ValueError, match="^gram_certify needs at least one point$"):
        gram_certify(C, [], Decimal("1e-4"))


def test_gram_certificate_ignores_caller_context():
    # P and 3P are dependent; negations rounded to a 3-digit caller context
    # would push the determinant's lower bound above 0 and certify them.
    pts = [BENCH_P, mul(BENCH, 3, BENCH_P)]
    default = gram_certify(BENCH, pts, Decimal("1e-5"))
    with localcontext(Context(prec=3)):
        assert gram_certify(BENCH, pts, Decimal("1e-5")) == default
    assert not default.certified


def test_gram_rejects_duplicates():
    C = curve(-36, 0)
    with pytest.raises(ValueError):
        gram_certify(C, [point(12, 36), point(12, 36)], Decimal("1e-4"))


def test_gram_two_independent_points():
    # y^2 = x^3 - 36x contains (-3, 9) and (12, 36) with (-3,9) = -2*(12,36)?
    # They are dependent if a small relation exists; use a rank-2 curve instead:
    # y^2 = x^3 - 7x + 10 has points (1, 2) and (2, 2).
    C = curve(-7, 10)
    P, Q = point(1, 2), point(2, 2)
    g = gram_certify(C, [P, Q], Decimal("1e-4"))
    from rankjump.curves import small_relation_search

    rel = small_relation_search(C, [P, Q], 6)
    if rel is None:
        assert g.certified
    else:
        assert not g.certified


def test_gram_given_its_model_skips_only_the_points_torsion_screen(monkeypatch):
    # Handed the model C maps to, gram_certify runs on the model's curve and
    # the points as passed: it reuses the model's defect logarithms and takes
    # the points as non-torsion; the sum of a pair is still screened.
    screened = []

    def counted(C, P):
        screened.append(P)
        return is_torsion(C, P)

    monkeypatch.setattr(heights, "is_torsion", counted)
    tol = Decimal("1e-5")
    C2 = curve(Fraction(-16, 2**4), Fraction(16, 2**6))  # integral model BENCH, u = 2
    cases = [(C, [P]) for C, P in _random_singletons(7, 8)]
    cases += [(C2, [point(0, Fraction(1, 2))]), (curve(-7, 10), [point(1, 2), point(2, 2)])]
    for C, pts in cases:
        model, u = heights.model_of(C)
        ipts = tuple(point_to_integral(P, u) for P in pts)
        screened.clear()
        given = gram_certify(model.curve, ipts, tol, model)
        assert len(screened) == len(pts) * (len(pts) - 1) // 2
        assert given == dataclasses.replace(gram_certify(C, pts, tol), points=ipts)
    # The model must be C itself: another curve's is refused, and so is the
    # integral model of a C that is not integral.
    with pytest.raises(ValueError, match="is not the curve"):
        gram_certify(BENCH, [BENCH_P], tol, heights.model_of(curve(-36, 0))[0])
    with pytest.raises(ValueError, match="is not the curve"):
        gram_certify(C2, [point(0, Fraction(1, 2))], tol, heights.model_of(C2)[0])
    with pytest.raises(PointNotOnCurve):
        gram_certify(BENCH, [point(0, 5)], tol, heights.model_of(BENCH)[0])


def _random_singletons(seed: int, n: int) -> list:
    """n seeded (curve, non-torsion point) pairs; A has up to 31 digits, so
    bits(S) spans 18 to 509 on seed 7."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        x0 = Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3)))
        y0 = Fraction(rng.randint(1, 9), rng.choice((1, 1, 4, 27)))
        e = rng.randint(0, 30)
        A = Fraction(rng.randint(-(10**e), 10**e))
        B = y0 * y0 - x0**3 - A * x0
        if 4 * A**3 + 27 * B * B == 0:
            continue
        C, P = curve(A, B), point(x0, y0)
        if not is_torsion(C, P):
            out.append((C, P))
    return out


def _skip_cases():
    # scan certifies to tol/10: 1e-5 at its default tol, 1e-6 at --tol 1e-5
    cases = [(C, [P], tol) for C, P in _random_singletons(7, 30) for tol in ("1e-5", "1e-6")]
    C, P = _random_singletons(11, 1)[0]
    cases.append((C, [P], "1e-80"))  # beyond DEPTH_CAP: target is the cap
    cases += [(curve(0, 1), [point(2, 3)], "1e-5"), (BENCH, [INFINITY], "1e-5")]  # torsion
    return cases


def _assert_skip_rule_matches_reference(monkeypatch, cases) -> int:
    """Each case's certificate equals the every-round reference; returns the
    number of rounds that skipped their enclosures."""
    dets = []

    def counted(M):
        dets.append(M)
        return det_interval(M)

    monkeypatch.setattr(heights, "det_interval", counted)
    skipped = 0
    for C, pts, tol in cases:
        dets.clear()
        g = gram_certify(C, pts, Decimal(tol))
        ref, rounds = reference_gram_certify(C, pts, Decimal(tol))
        assert g == ref
        assert g.to_json() == ref.to_json() and g.heights == ref.heights
        assert 1 <= len(dets) <= rounds
        skipped += rounds - len(dets)
    return skipped


def test_gram_skip_rule_matches_every_round_reference(monkeypatch):
    cases = _skip_cases()
    m, _ = heights.model_of(cases[-3][0])
    with pytest.raises(ToleranceUnreachable):
        depth_for_tolerance(m.alpha, m.beta, Decimal("1e-80"))
    assert _assert_skip_rule_matches_reference(monkeypatch, cases) > 0


def test_gram_skip_rule_at_chain_budget(monkeypatch):
    # (2, 1/4) on 96 y^2 = x^3 - x: bits(S) = 68 and H has 8, 7, 21 bits at
    # depths 0-2.  A 64-bit budget stops the chain at depth 2, still under
    # the skip bound, so depths 0 and 1 skip and depth 2 fails to certify.
    monkeypatch.setattr(heights, "CHAIN_BUDGET_BITS", 64)
    C, P = curve(-(96**2), 0), point(192, 2304)
    assert _assert_skip_rule_matches_reference(monkeypatch, [(C, [P], "1e-5")]) == 2
    assert not gram_certify(C, [P], Decimal("1e-5")).certified


def test_height_interval_contains_truth_across_depths():
    # enclosures at different depths must all contain the depth-12 oracle
    for depth in range(0, 9, 2):
        m, u = model_of(BENCH)
        iv = m.enclose(point_to_integral(BENCH_P, u), depth)
        assert float(iv.lo) - 1e-9 <= ORACLE_DEPTH12 <= float(iv.hi) + 1e-9


def test_interval_arithmetic_soundness():
    a = Interval(Decimal("1.5"), Decimal("2.5"))
    b = Interval(Decimal("-3"), Decimal("-1"))
    c = a * b
    assert c.lo <= Decimal("-7.5") and c.hi >= Decimal("-1.5")
    d = a - b
    assert d.lo <= Decimal("2.5") and d.hi >= Decimal("5.5")


def test_strictly_positive_excludes_zero():
    # A Gram certifies only on det.lo > 0: an enclosure reaching down to
    # exactly 0 proves nothing.
    assert not Interval(Decimal(0), Decimal(1)).strictly_positive()
    assert not Interval.exact(0).strictly_positive()
    assert not Interval(Decimal("-1e-30"), Decimal(1)).strictly_positive()
    assert Interval(Decimal("1e-30"), Decimal(1)).strictly_positive()


def test_det_interval_vs_exact():
    rng = random.Random(11)
    for n in (1, 2, 3, 4, 5, 6, 7, 8):
        M = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        iv = det_interval([[Interval.exact(x) for x in row] for row in M])
        want = _exact_det(M)
        assert iv.lo <= want <= iv.hi


def _gauss_det(M):
    """Exact determinant by Fraction elimination."""
    A = [[Fraction(x) for x in row] for row in M]
    n, det = len(A), Fraction(1)
    for c in range(n):
        r = next((r for r in range(c, n) if A[r][c]), None)
        if r is None:
            return Fraction(0)
        if r != c:
            A[c], A[r], det = A[r], A[c], -det
        det *= A[c][c]
        for r in range(c + 1, n):
            q = A[r][c] / A[c][c]
            A[r] = [a - q * b for a, b in zip(A[r], A[c])]
    return det


def test_det_interval_beyond_8x8():
    rng = random.Random(13)
    for n in (9, 10):
        M = [[Decimal(rng.randint(-40, 40)) / 4 for _ in range(n)] for _ in range(n)]
        iv = det_interval([[Interval.exact(x) for x in row] for row in M])
        want = _gauss_det(M)
        assert want != 0 and iv.lo <= want <= iv.hi
        assert iv.hi - iv.lo < Decimal("1e-30") * abs(Decimal(want.numerator) / want.denominator)
    with pytest.raises(ValueError, match="^empty matrix$"):
        det_interval([])

def _exact_det(M):
    n = len(M)
    if n == 1:
        return M[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in M[1:]]
        total += (-1) ** j * M[0][j] * _exact_det(minor)
    return total


def test_ln_int_interval_large():
    import math

    n = 12345678901234567890123456789012345678901234567890
    iv = ln_int_interval(n)
    want = math.log(float(n))
    assert float(iv.lo) <= want <= float(iv.hi)
    assert float(iv.hi) - float(iv.lo) < 1e-30
