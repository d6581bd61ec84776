"""Golden values for the height layer: the exact enclosure strings of
HeightModel.enclose, canonical_height, height_pairing and gram_certify, and the
exception types of their error paths.

Every certificate in a scan report carries these strings, so a change to
any of them changes report bytes.  The twist fiber y^2 = x^3 - (9/4)x
(twist_linear p = x^3 - x at lam = -3/2) has a non-integral model, so the
integral-model map is exercised too.
"""

from decimal import Decimal
from fractions import Fraction

import pytest

from rankjump.curves import INFINITY, Point, curve, mul, point, point_to_integral
from rankjump.errors import PointNotOnCurve, ToleranceUnreachable
from rankjump.families import TwistLinear, fiber_at
from rankjump.heights import canonical_height, gram_certify, height_pairing, model_of
from rankjump.polynomials import poly

BENCH, BENCH_P = curve(-16, 16), point(0, 4)
CONGRUENT = curve(-36, 0)
CP, CQ = point(-3, 9), point(12, 36)
TWIST = fiber_at(TwistLinear(p=poly([0, -1, 0, 1]), generic_rank=0), Fraction(-3, 2))
TP = Point(Fraction(3), Fraction(9, 2))
TQ = Point(Fraction(-3, 4), Fraction(9, 8))

# The twist fiber's integral model is CONGRUENT (u = 2) and TP maps to CQ,
# so their enclosures share strings.
H_DEP_P = (
    "0.888214827851082808880311166849545950219917265",
    "0.888751688498989838737279223144143583974959148",
)
H_TWIST_PQ = (
    "0.888305030934957333092916542538701162835078934",
    "0.889110321906817877878368626980597613467641786",
)
EST_1E3 = (
    "0.888483258175036323808795194996844767097438205",
    "0.000268430323953514928484028147298816877520941501",
)

PAIR_36 = (
    "0.888540369388057490390427972302148562975523429",
    "0.888741692131022626586790993412622675633664201",
)


def _iv(iv):
    return (str(iv.lo), str(iv.hi))


def test_twist_fiber_is_non_integral():
    assert (TWIST.A, TWIST.B) == (Fraction(-9, 4), 0)


@pytest.mark.parametrize(
    "C, P, depth, want",
    [
        (BENCH, BENCH_P, 0, (
            "-5.02884889780363066513480732000000000000000002",
            "2.01102874059960048286134338526602316236336243",
        )),
        (BENCH, BENCH_P, 3, (
            "-0.00934425154625495390312101713621783483694413221",
            "0.100653836553795532784318837633563777074983407",
        )),
        (TWIST, TP, 0, (
            "-3.90373959709129390342286107016112115920150921",
            "4.89218525821748327314177326052651028339854260",
        )),
        (TWIST, TP, 3, (
            "0.786748169639818018279111458560000215108857207",
            "0.924184495504017661662933869976994456399483022",
        )),
        (curve(0, 1), point(2, 3), 3, ("0", "0")),
        (curve(0, 1), INFINITY, 2, ("0", "0")),
    ],
)
def test_height_interval_golden(C, P, depth, want):
    m, u = model_of(C)
    assert _iv(m.enclose(point_to_integral(P, u), depth)) == want


@pytest.mark.parametrize(
    "C, P, tol, want",
    [
        (BENCH, BENCH_P, "1e-5", (
            "0.051111291218657421187338727706496064353679019",
            "0.00000335687524719392354392821822417546423071375001",
        )),
        (TWIST, TP, "1e-4", (
            "0.888595467297961964647218889878247077624399285",
            "0.0000671075809883787321210070368247042193802330001",
        )),
        # torsion points: exact value 0, but the claimed error is tol
        (curve(0, 1), point(2, 3), "1e-6", ("0", "0.000001")),
        (BENCH, INFINITY, "1e-3", ("0", "0.001")),
    ],
)
def test_canonical_height_golden(C, P, tol, want):
    est = canonical_height(C, P, Decimal(tol))
    assert (str(est.value), str(est.error_bound)) == want


@pytest.mark.parametrize(
    "C, P, Q, tol, want",
    [
        (CONGRUENT, CP, CQ, "1e-4", PAIR_36),
        (CONGRUENT, CP, CP, "1e-4", PAIR_36),
        (CONGRUENT, CP, INFINITY, "1e-3", (
            "-0.000268430323953514928484028147298816877520941502",
            "0.000268430323953514928484028147298816877520941502",
        )),
        (TWIST, TP, TQ, "1e-3", H_TWIST_PQ),
    ],
)
def test_height_pairing_golden(C, P, Q, tol, want):
    assert _iv(height_pairing(C, P, Q, Decimal(tol))) == want


@pytest.mark.parametrize(
    "C, pts, tol, entries, det_lb, certified, heights",
    [
        (
            curve(-7, 10), [point(1, 2), point(2, 2)], "1e-4",
            [
                [
                    ("0.139901621830215860328907346078359512972792301",
                     "0.162684416790087709234346599163877426620705043"),
                    ("-0.281342519966280752654172366319596871033157897",
                     "-0.247168327526472979296013486691320000561272113"),
                ],
                [
                    ("-0.281342519966280752654172366319596871033157897",
                     "-0.247168327526472979296013486691320000561272113"),
                    ("1.04822175454309074626559024712186379944229987",
                     "1.07100454950296259517102950020738171309023317"),
                ],
            ],
            "0.0674943099573157515565445267014376916699444499", True,
            [
                ("0.151293019310151784781626972621118469796748672",
                 "0.0113913974799359244527196265427589568239563711"),
                ("1.05961315202302667071830987366462275626626652",
                 "0.0113913974799359244527196265427589568239666501"),
            ],
        ),
        (
            CONGRUENT, [CQ, mul(CONGRUENT, 2, CQ)], "1e-3",
            [
                [
                    H_DEP_P,
                    ("1.77691007113295166194525830309158863396291231",
                     "1.77771536210481220673071038753348508459547525"),
                ],
                [
                    ("1.77691007113295166194525830309158863396291231",
                     "1.77771536210481220673071038753348508459547525"),
                    ("3.55411343886789434366039153136568949362007619",
                     "3.55465029951580137351735958766028712737511809"),
                ],
            ],
            "-0.00345565239617688513205008668050754154950824001", False,
            [
                EST_1E3,
                ("3.55438186919184785858887555951298831049759714",
                 "0.000268430323953514928484028147298816877520950001"),
            ],
        ),
        (
            TWIST, [TP, TQ], "1e-3",
            [[H_DEP_P, H_TWIST_PQ], [H_TWIST_PQ, H_DEP_P]],
            "-0.00159158410671664137132768028952455322664723901", False,
            [EST_1E3, EST_1E3],
        ),
    ],
)
def test_gram_certify_golden(C, pts, tol, entries, det_lb, certified, heights):
    g = gram_certify(C, pts, Decimal(tol))
    assert [[_iv(e) for e in row] for row in g.entries] == entries
    assert str(g.det_lower_bound) == det_lb
    assert g.certified is certified
    assert [(str(h.value), str(h.error_bound)) for h in g.heights] == heights
    assert g.points == tuple(pts)


@pytest.mark.parametrize(
    "call, exc",
    [
        (lambda: canonical_height(BENCH, BENCH_P, Decimal("1e-25")), ToleranceUnreachable),
        (lambda: height_pairing(CONGRUENT, CP, CQ, Decimal("1e-25")), ToleranceUnreachable),
        # BENCH is its own integral model (u = 1); the torsion screen of
        # HeightModel.chain checks the point on it.
        (lambda: model_of(BENCH)[0].enclose(point(1, 2), 0), PointNotOnCurve),
        (lambda: canonical_height(BENCH, point(1, 2), Decimal("1e-4")), PointNotOnCurve),
        (lambda: height_pairing(CONGRUENT, point(1, 2), CQ, Decimal("1e-4")), PointNotOnCurve),
        (lambda: height_pairing(TWIST, TP, point(1, 2), Decimal("1e-4")), PointNotOnCurve),
        (lambda: gram_certify(CONGRUENT, [CQ, point(1, 2)], Decimal("1e-4")), PointNotOnCurve),
        (lambda: gram_certify(TWIST, [TP, TP], Decimal("1e-4")), ValueError),
    ],
)
def test_height_error_types(call, exc):
    with pytest.raises(exc):
        call()
