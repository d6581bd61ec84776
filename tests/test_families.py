import pickle
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from oracles import brute_force_twist_fiber_first, brute_force_twist_total_first, twist_point
from rankjump import families
from rankjump.curves import Curve, integral_model, on_curve, point, point_ints, point_to_integral
from rankjump.errors import DegenerateFiber, FamilyFormatError, PoleAtPoint, SingularCurve
from rankjump.factorization import squarefree_part
from rankjump.families import (
    CubicPencil,
    StreamStats,
    TwistLinear,
    TwistPoly,
    TwistQuadratic,
    WeierstrassPencil,
    _euler_pairs,
    euler_parametrize,
    family_from_json,
    family_to_json,
    fiber_at,
    validate_family,
    witness_stream,
)
from rankjump.polynomials import depress_cubic, poly, poly_eval, ratfunc
from rankjump.rationals import iter_rationals

X3_MINUS_X = poly([0, -1, 0, 1])
X3_PLUS_1 = poly([1, 0, 0, 1])

PENCIL = WeierstrassPencil(
    A=ratfunc([1]),
    B=ratfunc([0, -1, 1, -1]),  # lam^2 - lam^3 - lam
    sections=((ratfunc([0, 1]), ratfunc([0, 1])),),
)

ONE_OF_EACH_KIND = [
    TwistLinear(p=X3_MINUS_X),
    TwistQuadratic(c=Fraction(1), a=Fraction(-1), p=X3_PLUS_1),
    TwistPoly(d=poly([1, 0, 1]), p=X3_MINUS_X),
    CubicPencil(),
    PENCIL,
]


def _errors(findings):
    return [f for f in findings if f.severity == "error"]


def test_validate_valid_families():
    assert not _errors(validate_family(TwistLinear(p=X3_MINUS_X)))
    assert not _errors(validate_family(TwistQuadratic(c=Fraction(1), a=Fraction(-1), p=X3_PLUS_1)))
    assert not _errors(validate_family(PENCIL))


def test_validate_rejections():
    bad = validate_family(TwistLinear(p=poly([0, 0, 0, 1])))  # x^3 inseparable
    assert any(f.code == "p-separable" for f in _errors(bad))
    bad = validate_family(TwistLinear(p=poly([0, -1, 0, 2])))  # non-monic
    assert any(f.code == "p-monic" for f in _errors(bad))
    bad = validate_family(TwistQuadratic(c=Fraction(1), a=Fraction(0), p=X3_PLUS_1))
    assert any(f.code == "d-separable" for f in _errors(bad))
    bad = validate_family(TwistPoly(d=poly([0, 0, 1]), p=X3_PLUS_1))  # t^2
    assert any(f.code == "d-separable" for f in _errors(bad))
    bad_section = WeierstrassPencil(
        A=ratfunc([1]), B=ratfunc([0, -1, 1, -1]), sections=((ratfunc([0, 1]), ratfunc([1])),)
    )
    assert any(f.code == "section-invalid" for f in _errors(validate_family(bad_section)))


# (1/lam^2, (1 + lam^3)/lam^3) on Y^2 = X^3 + (2/lam) X + 1: the section's X
# has a denominator, so both sides of the section identity are normalized
# RatFuncs with non-trivial denominators.
DEN_SECTION = (ratfunc([1], [0, 0, 1]), ratfunc([1, 0, 0, 1], [0, 0, 0, 1]))


@pytest.mark.parametrize(
    "Y, valid",
    [
        (DEN_SECTION[1], True),
        (ratfunc([2, 0, 0, 1], [0, 0, 0, 1]), False),  # Y's constant term perturbed
        (ratfunc([1, 0, 0, 1], [0, 0, 1, 1]), False),  # Y's denominator perturbed
    ],
)
def test_validate_section_with_a_denominator(Y, valid):
    f = WeierstrassPencil(A=ratfunc([2], [0, 1]), B=ratfunc([1]), sections=((DEN_SECTION[0], Y),))
    codes = [x.code for x in _errors(validate_family(f))]
    assert codes == ([] if valid else ["section-invalid"])


def test_fiber_examples():
    C = fiber_at(TwistLinear(p=X3_MINUS_X), Fraction(6))
    assert (C.A, C.B) == (-36, 0)
    C = fiber_at(TwistQuadratic(c=Fraction(1), a=Fraction(-1), p=X3_PLUS_1), Fraction(1))
    assert (C.A, C.B) == (0, 8)
    C = fiber_at(CubicPencil(), Fraction(-5, 6))
    assert (C.A, C.B) == (0, Fraction(-8281, 108))
    with pytest.raises(DegenerateFiber):
        fiber_at(TwistLinear(p=X3_MINUS_X), Fraction(0))
    with pytest.raises(DegenerateFiber):
        fiber_at(CubicPencil(), Fraction(-1))


def _twist_point(f, lam, x0, y0):
    """f.point at (lam, x0, y0), with d(lam), its fiber model and p(x0)."""
    lam, x0, y0 = Fraction(lam), Fraction(x0), Fraction(y0)
    d0 = poly_eval(f.d, lam)
    return f.point(lam, d0, f.fiber_model(d0), x0, y0, poly_eval(f.p, x0))


def test_twist_witness_examples():
    w = _twist_point(TwistLinear(p=X3_MINUS_X), 6, 2, 1)
    assert w.witness == point(12, 36)
    w = _twist_point(TwistQuadratic(c=Fraction(1), a=Fraction(-1), p=X3_PLUS_1), 1, 1, 1)
    assert w.witness == point(2, 4)
    with pytest.raises(ValueError, match=r"^d\(6\)\*y0\^2 != p\(x0\) at \(2, 2\)$"):
        _twist_point(TwistLinear(p=X3_MINUS_X), 6, 2, 2)
    # (1, 0) lies on every fiber's total space, but the fiber at t = 0 is degenerate
    with pytest.raises(DegenerateFiber):
        _twist_point(TwistLinear(p=X3_MINUS_X), 0, 1, 0)


def test_twist_witness_depression_shift():
    # p(x) = x^3 + 3x^2 + 2x (roots 0, -1, -2), separable, a2 = 3
    p = poly([0, 2, 3, 1])
    f = TwistLinear(p=p)
    x0, y0 = Fraction(1), Fraction(1)
    t0 = Fraction(6)  # p(1) = 6
    w = _twist_point(f, t0, x0, y0)
    assert on_curve(fiber_at(f, t0), w.witness)
    assert w.witness.x == t0 * (x0 + 1)  # shift = a2/3 = 1


def test_cubic_witness_examples():
    w = CubicPencil.point(Fraction(-5, 6), Fraction(-1, 2), Fraction(-2, 3))
    assert w.witness == point(Fraction(13, 3), Fraction(13, 6))
    w = CubicPencil.point(Fraction(3, 4), Fraction(5, 4), Fraction(-3, 2))
    assert on_curve(fiber_at(CubicPencil(), Fraction(3, 4)), w.witness)
    with pytest.raises(ValueError, match=r"^x \+ y = 0 maps to the zero section's 3-torsion packet$"):
        CubicPencil.point(Fraction(2), Fraction(3), Fraction(-3))
    with pytest.raises(ValueError, match=r"^x\^3 \+ y\^3 != -\(lam\^3\+1\) at \(1, 1\)$"):
        CubicPencil.point(Fraction(2), Fraction(1), Fraction(1))
    with pytest.raises(DegenerateFiber):
        CubicPencil.point(-1, 1, -1)  # ints are coerced; lam^3 + 1 = 0


def test_euler_examples():
    assert euler_parametrize(1, 0) == (Fraction(-5, 6), Fraction(-1, 2), Fraction(-2, 3))
    assert euler_parametrize(0, 1) == (Fraction(3, 4), Fraction(5, 4), Fraction(-3, 2))
    with pytest.raises(ValueError):
        euler_parametrize(0, 0)


def test_euler_hits_total_space():
    for a in range(-6, 7):
        for b in range(-6, 7):
            if (a, b) == (0, 0):
                continue
            lam, x, y = euler_parametrize(a, b)
            assert x**3 + y**3 == -(lam**3 + 1)
            w = CubicPencil.point(lam, x, y)  # raises off a smooth affine fiber
            assert on_curve(w.curve, w.witness)


def test_euler_pairs_one_of_each_sign():
    m = 6
    box = [(a, b) for a in range(-m, m + 1) for b in range(-m, m + 1) if gcd(a, b) == 1]
    smaller = {min(p, (-p[0], -p[1])) for p in box}
    by_height = sorted(smaller, key=lambda p: (max(map(abs, p)), p))
    assert list(_euler_pairs(m)) == by_height


def test_specialize_sections():
    C = fiber_at(PENCIL, Fraction(2))
    assert C.B == -6
    assert PENCIL.sections_at(Fraction(2), C) == [point(2, 2)]
    assert PENCIL.sections_at(Fraction(0), fiber_at(PENCIL, Fraction(0))) == [point(0, 0)]
    # a section checked against another parameter's fiber is rejected
    with pytest.raises(ValueError, match="^section specializes off the fiber at 2$"):
        PENCIL.sections_at(Fraction(2), fiber_at(PENCIL, Fraction(3)))
    # section with a pole at lam = 0 on a fiber that is otherwise fine:
    # Y^2 = X^3 + lam^2 X - 1 with section (1/lam^2, 1/lam^3)
    pole_pencil = WeierstrassPencil(
        A=ratfunc([0, 0, 1]),
        B=ratfunc([-1]),
        sections=((ratfunc([1], [0, 0, 1]), ratfunc([1], [0, 0, 0, 1])),),
    )
    assert not _errors(validate_family(pole_pencil))
    with pytest.raises(PoleAtPoint):
        pole_pencil.sections_at(Fraction(0), fiber_at(pole_pencil, Fraction(0)))


def test_specialize_two_path_check():
    # evaluating the section then plugging into the fiber equation agrees
    # with the identity checked by validate_family
    for lam in (Fraction(2), Fraction(-1, 3), Fraction(5, 4)):
        C = fiber_at(PENCIL, lam)
        (P,) = PENCIL.sections_at(lam, C)
        assert P.y**2 == P.x**3 + C.A * P.x + C.B


def test_witness_stream_twist_linear_total_first():
    pts, stats = witness_stream(TwistLinear(p=X3_MINUS_X), 2, "total-first")
    hits = [(w.param, str(w.witness)) for w in pts if w.param == 6]
    assert hits == [(Fraction(6), "12,36")]
    assert stats.emitted == len(pts)
    for w in pts:
        assert on_curve(fiber_at(TwistLinear(p=X3_MINUS_X), w.param), w.witness)


def test_witness_stream_twist_quadratic_fiber_first():
    f = TwistQuadratic(c=Fraction(1), a=Fraction(-1), p=X3_PLUS_1)
    pts, _ = witness_stream(f, 2, "fiber-first")
    assert any(w.param == 1 and w.witness == point(2, 4) for w in pts)


def test_witness_stream_cubic():
    pts, _ = witness_stream(CubicPencil(), 1, "total-first")
    params = {w.param for w in pts}
    assert Fraction(-5, 6) in params and Fraction(3, 4) in params


def test_witness_stream_deterministic():
    a, _ = witness_stream(TwistLinear(p=X3_MINUS_X), 4, "total-first")
    b, _ = witness_stream(TwistLinear(p=X3_MINUS_X), 4, "total-first")
    assert [(w.param, w.witness) for w in a] == [(w.param, w.witness) for w in b]


def test_witness_stream_emits_verified_points_only():
    for mode in ("total-first", "fiber-first"):
        pts, _ = witness_stream(TwistQuadratic(c=Fraction(1), a=Fraction(-1), p=X3_PLUS_1), 3, mode)
        f = TwistQuadratic(c=Fraction(1), a=Fraction(-1), p=X3_PLUS_1)
        for w in pts:
            assert on_curve(fiber_at(f, w.param), w.witness)


@pytest.mark.parametrize("mode", ["total-first", "fiber-first"])
@pytest.mark.parametrize("f", ONE_OF_EACH_KIND, ids=lambda f: f.kind)
def test_candidates_carry_their_fiber(f, mode):
    walk = f.total_first if mode == "total-first" else f.fiber_first
    pts = list(walk(3, StreamStats()))
    # No cubic-pencil fiber Y^2 = X^3 - 432c^2 has a point with X of height <= 3.
    assert pts or (f.kind, mode) == ("cubic_pencil", "fiber-first")
    # Each walk emits each point once; witness_stream relies on it.
    assert len({(w.param, w.witness.x) for w in pts}) == len(pts)
    for w in pts:
        assert w.curve == fiber_at(f, w.param)
        assert on_curve(w.curve, w.witness)


X3_PLUS_17 = poly([17, 0, 0, 1])
X3_PLUS_X_PLUS_1 = poly([1, 1, 0, 1])
X_MINUS_1_2_3 = poly([-6, 11, -6, 1])

JOIN_EDGE_CASES = [
    TwistLinear(p=X3_PLUS_17),  # p has no rational root
    TwistLinear(p=X_MINUS_1_2_3),  # p has three rational roots
    TwistQuadratic(c=Fraction(1), a=Fraction(-1), p=X3_PLUS_1),  # p has one rational root
    TwistQuadratic(c=Fraction(1), a=Fraction(4), p=X3_MINUS_X),  # d has rational roots
    TwistQuadratic(c=Fraction(1), a=Fraction(9, 4), p=X3_PLUS_1),  # ... at height 3
    TwistQuadratic(c=Fraction(-2), a=Fraction(5), p=X3_PLUS_X_PLUS_1),  # c < 0
    TwistPoly(d=poly([0, -1, 0, 1]), p=X3_PLUS_1),  # d = t^3 - t: three degenerate params
    TwistPoly(d=poly([-2, 0, 0, 0, 1]), p=X3_MINUS_X),  # d of degree 4
    TwistPoly(d=poly([-1, -1, 0, 1]), p=X3_PLUS_17),
    TwistPoly(d=poly([3, 0, 2]), p=X3_PLUS_X_PLUS_1),
]


@pytest.mark.parametrize("f", JOIN_EDGE_CASES, ids=lambda f: f.family_id)
def test_twist_fiber_first_matches_double_loop(f):
    stats = StreamStats()
    pts = list(f.fiber_first(12, stats))
    want, degenerate = brute_force_twist_fiber_first(f, 12)
    assert [(w.param, (w.witness.x, w.witness.y)) for w in pts] == [
        (lam, twist_point(f, lam, x0, y0)) for lam, x0, y0 in want
    ]
    assert stats.degenerate_skipped == degenerate
    assert stats.enumerated == len(pts)


@pytest.mark.parametrize(
    "f", [f for f in JOIN_EDGE_CASES if f.kind != "twist_poly"], ids=lambda f: f.family_id
)
def test_twist_total_first_matches_double_loop(f):
    stats = StreamStats()
    pts = list(f.total_first(12, stats))
    want, walked, degenerate = brute_force_twist_total_first(f, 12)
    assert [(w.param, (w.witness.x, w.witness.y)) for w in pts] == [
        (t, twist_point(f, t, x0, y0)) for t, x0, y0 in want
    ]
    assert (stats.enumerated, stats.degenerate_skipped) == (walked, degenerate)
    for w in pts:
        assert w.curve == fiber_at(f, w.param)


def test_twist_fiber_first_is_linear_in_the_rationals(monkeypatch):
    # one square class per rational x0 and per rational lam
    calls = []

    def counting(n):
        calls.append(n)
        return squarefree_part(n)

    monkeypatch.setattr(families, "squarefree_part", counting)
    f = TwistQuadratic(c=Fraction(1), a=Fraction(-1), p=X3_PLUS_1)
    pts, stats = witness_stream(f, 10, "fiber-first")
    n_rats = len(list(iter_rationals(10)))
    assert pts and 0 < len(calls) <= 2 * n_rats
    assert stats.enumerated == len(pts)


@pytest.mark.parametrize("mode", ["fiber-first", "total-first"])
def test_twist_walks_reuse_what_they_hold(monkeypatch, mode):
    # evaluations of p or d, by Fractions or by integer forms; fiber models;
    # and curves built
    evals, models, curves = [], [], []
    real_curve = families.Curve
    fiber_model = families._Twist.fiber_model

    def counting(name):
        real = getattr(families, name)

        def counted(p, x):
            evals.append(x)
            return real(p, x)

        monkeypatch.setattr(families, name, counted)

    def counting_curve(A, B):
        curves.append((A, B))
        return real_curve(A, B)

    def counting_model(self, d0):
        models.append(d0)
        return fiber_model(self, d0)

    counting("poly_eval")
    counting("int_form_eval")
    monkeypatch.setattr(families, "Curve", counting_curve)
    monkeypatch.setattr(families._Twist, "fiber_model", counting_model)
    f = TwistQuadratic(c=Fraction(1), a=Fraction(-1), p=X3_PLUS_1)
    pts, stats = witness_stream(f, 10, mode)
    n_rats = len(list(iter_rationals(10)))
    assert pts and n_rats == 127
    # no fiber is built: the one curve is the depressed cubic's (_Twist.cubic)
    assert curves == [(0, 1)]
    if mode == "fiber-first":
        # p(x0) once per x0, d(lam) once per lam, one fiber model per lam
        assert len(evals) <= 2 * n_rats
        assert len(models) <= n_rats - stats.degenerate_skipped
        # and none for a lam without witnesses: x^3 + x + 1 has no rational
        # root, so most lams have none
        models.clear()
        pts, _ = witness_stream(TwistLinear(p=poly([1, 1, 0, 1])), 10, mode)
        assert len(models) == len({w.param for w in pts}) < n_rats // 2
    else:
        # p(x0) once per x0; d is never evaluated, as d(t) = p(x0)/y0^2
        assert len(evals) == n_rats
        # one fiber model per (x0, y0) with params, shared by t and -t,
        # which also share the fiber and the witness on it
        assert len(models) == len({(w.curve, w.witness) for w in pts}) < len(pts)


# Twists whose fibers take their scales from d0 alone (x^3 - x, u0 = 1) and
# from the depressed cubic's scale u0 as well: the twist_linear
# (x - 1/2)(x + 1/3)(x - 2) (shift -13/18, u0 = 6), and the twist_quadratic
# (shift 1/9) and twist_poly (shift 1/3) with non-integer coefficients that
# test_acceptance pins.
INTEGRAL_FORM_CASES = [
    TwistLinear(p=X3_MINUS_X),
    TwistLinear(p=poly([Fraction(1, 3), Fraction(1, 6), Fraction(-13, 6), 1])),
    TwistQuadratic(
        c=Fraction(3, 2), a=Fraction(-5, 4), p=poly([Fraction(1, 2), -1, Fraction(1, 3), 1])
    ),
    TwistPoly(d=poly([Fraction(-3, 4), Fraction(5, 4), Fraction(1, 2)]), p=poly([0, -1, 1, 1])),
]


@pytest.mark.parametrize("mode", ["fiber-first", "total-first"])
@pytest.mark.parametrize("f", INTEGRAL_FORM_CASES, ids=lambda f: f.family_id)
def test_twist_walks_emit_each_fibers_integral_model(f, mode):
    # The walks build the integral form from ints; it must be exactly what
    # integral_model and point_to_integral give on the fiber fiber_at builds.
    pts, _ = witness_stream(f, 6, mode)
    scales = set()
    for w in pts:
        C = fiber_at(f, w.param)
        assert (w.A, w.B, w.u) == integral_model(C)
        assert w.curve == C and on_curve(C, w.witness)
        assert w.model_witness == point_ints(point_to_integral(w.witness, w.u))
        scales.add(w.u)
    assert len(scales) > 1


# d0 = a/b with primes below and above factorize's trial-division bound.
_D0_PRIMES = st.sampled_from((2, 3, 5, 7, 1009, 10007))
_D0_PART = st.lists(st.tuples(_D0_PRIMES, st.integers(1, 9)), max_size=3).map(
    lambda pes: prod(p**e for p, e in pes)
)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(INTEGRAL_FORM_CASES),
    st.sampled_from((1, -1)),
    _D0_PART,
    st.integers(1, 10**4),
    _D0_PART,
)
def test_fiber_model_is_the_fibers_integral_model(f, sign, a, c, b):
    # The walks' fiber_model(d0) and integral_model of the fiber
    # y^2 = x^3 + A d0^2 x + B d0^3 share one scale rule; they must agree.
    d0 = Fraction(sign * a * c, b)
    A, B, _ = f.depressed
    assert f.fiber_model(d0) == integral_model(Curve(A * d0 * d0, B * d0**3))


@pytest.mark.parametrize("mode", ["fiber-first", "total-first"])
@pytest.mark.parametrize("p", [poly([0, 0, 0, 1]), poly([2, -3, 0, 1])], ids=["x^3", "(x-1)^2(x+2)"])
def test_twist_walks_check_the_cubic_in_place_of_each_fiber(p, mode):
    # The fiber at d0 != 0 has discriminant d0^6 times the depressed cubic's,
    # so the walks build no fiber to test: the cubic's curve, built before
    # any point is emitted, refuses an inseparable p (which validate rejects).
    with pytest.raises(SingularCurve):
        witness_stream(TwistLinear(p=p), 3, mode)


def test_twist_constants_computed_once(monkeypatch):
    calls = []

    def counting(p):
        calls.append(p)
        return depress_cubic(p)

    monkeypatch.setattr(families, "depress_cubic", counting)
    f = TwistLinear(p=poly([0, 2, 3, 1]))
    pts, _ = witness_stream(f, 3, "total-first")
    witness_stream(f, 3, "fiber-first")
    assert pts and len(calls) == 1


def test_cached_constants_leave_identity_alone():
    f = TwistQuadratic(c=Fraction(2), a=Fraction(-1), p=X3_PLUS_1)
    fid, js, h = f.family_id, family_to_json(f), hash(f)
    f.fiber(Fraction(1))  # fills the cached d(t) and depressed cubic
    assert f.d == poly([2, 0, 2])
    g = pickle.loads(pickle.dumps(f))
    assert g == f and hash(g) == hash(f) == h
    assert family_to_json(f) == js and family_to_json(g) == js
    assert f.family_id == g.family_id == fid


def test_declared_generic_rank_defaults():
    assert TwistLinear(p=X3_MINUS_X).declared_generic_rank == 0
    assert CubicPencil().declared_generic_rank == 0
    assert PENCIL.declared_generic_rank == 1
    assert WeierstrassPencil(
        A=PENCIL.A, B=PENCIL.B, sections=PENCIL.sections, generic_rank=0
    ).declared_generic_rank == 0


@pytest.mark.parametrize(
    "f, rank",
    [
        (TwistLinear(p=X3_MINUS_X, generic_rank=2), 2),
        (TwistQuadratic(c=Fraction(1), a=Fraction(-1), p=X3_PLUS_1), 0),
        (TwistPoly(d=poly([1, 0, 1]), p=X3_MINUS_X, generic_rank=1), 1),
        (CubicPencil(generic_rank=3), 3),
        (PENCIL, 1),  # generic_rank None: the section count
        (WeierstrassPencil(A=PENCIL.A, B=PENCIL.B), 0),
        (WeierstrassPencil(A=PENCIL.A, B=PENCIL.B, sections=PENCIL.sections, generic_rank=4), 4),
    ],
)
def test_declared_generic_rank_every_kind(f, rank):
    # The rule: the declared rank when there is one, else the section count.
    assert rank == (len(f.sections) if f.generic_rank is None else f.generic_rank)
    assert f.declared_generic_rank == rank


def test_family_json_roundtrip():
    for f in ONE_OF_EACH_KIND:
        assert family_from_json(family_to_json(f)) == f


def test_family_json_rejects_unknown_fields():
    with pytest.raises(FamilyFormatError):
        family_from_json({"kind": "twist_linear", "p": ["0", "-1", "0", "1"], "bogus": 1})
    with pytest.raises(FamilyFormatError):
        family_from_json({"kind": "nope"})
    with pytest.raises(FamilyFormatError):
        family_from_json({"kind": "twist_quadratic", "c": "1", "p": ["1", "0", "0", "1"]})


BAD_RANKS = [-3, 2.7, "1", True]


@pytest.mark.parametrize("rank", BAD_RANKS)
def test_bad_generic_rank_rejected_at_construction(rank):
    with pytest.raises(FamilyFormatError, match="generic_rank"):
        TwistLinear(p=X3_MINUS_X, generic_rank=rank)
    with pytest.raises(FamilyFormatError, match="generic_rank"):
        CubicPencil(generic_rank=rank)
    with pytest.raises(FamilyFormatError, match="generic_rank"):
        WeierstrassPencil(A=PENCIL.A, B=PENCIL.B, sections=PENCIL.sections, generic_rank=rank)
    with pytest.raises(FamilyFormatError, match="generic_rank"):
        family_from_json({"kind": "twist_linear", "p": ["0", "-1", "0", "1"], "generic_rank": rank})


def test_generic_rank_none_only_on_pencils():
    assert family_from_json({**family_to_json(PENCIL), "generic_rank": None}) == PENCIL
    with pytest.raises(FamilyFormatError, match="generic_rank"):
        TwistQuadratic(c=Fraction(1), a=Fraction(-1), p=X3_PLUS_1, generic_rank=None)
