import dataclasses
import json
import os
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import reference_certify_fiber, reference_neron_check, reference_scan
from rankjump import engine, families, heights
from rankjump.cli import _json
from rankjump.curves import (
    curve,
    integral_model,
    is_torsion,
    mul,
    neg,
    on_curve,
    point,
    point_from_ints,
    point_ints,
    point_to_integral,
)
from rankjump.engine import (
    DEFAULT_SCAN_TOL,
    BillingCertificate,
    BillingWitness,
    billing_build,
    certify_fiber,
    neron_check,
    scan,
)
from rankjump.errors import (
    FamilyFormatError,
    InvalidCertificate,
    PointNotOnCurve,
    PoleAtPoint,
    SearchExhausted,
)
from rankjump.families import (
    CubicPencil,
    TotalSpacePoint,
    TwistLinear,
    TwistPoly,
    TwistQuadratic,
    WeierstrassPencil,
    fiber_at,
    witness_stream,
)
from rankjump.heights import canonical_height, gram_certify, height_pairing
from rankjump.polynomials import poly, ratfunc

X3_MINUS_X = poly([0, -1, 0, 1])
X3_PLUS_1 = poly([1, 0, 0, 1])

PENCIL = WeierstrassPencil(
    A=ratfunc([1]),
    B=ratfunc([0, -1, 1, -1]),
    sections=((ratfunc([0, 1]), ratfunc([0, 1])),),
)


def _tol_calls():
    C, P, Q = curve(-36, 0), point(-3, 9), point(12, 36)
    f = TwistLinear(p=X3_MINUS_X)
    t = Fraction(6)  # p(2) = 6 = d(6) * 1^2
    w = f.point(t, t, f.fiber_model(t), Fraction(2), Fraction(1), Fraction(6))
    return [
        lambda t: scan(CubicPencil(), 1, "fiber-first", tol=t),  # empty stream
        lambda t: scan(f, 8, tol=t),
        lambda t: neron_check(PENCIL, 1, tol=t),
        lambda t: certify_fiber(f, w, t),
        lambda t: gram_certify(C, [P], t),
        lambda t: canonical_height(C, P, t),
        lambda t: height_pairing(C, P, Q, t),
    ]


def _no_walk(monkeypatch):
    def no_walk(*args):
        raise AssertionError("walk started before the entry checks")

    monkeypatch.setattr("rankjump.engine.witness_stream", no_walk)
    monkeypatch.setattr("rankjump.engine.iter_rationals", no_walk)


@pytest.mark.parametrize("tol", [0, -1, "nan", "inf", "abc", float("nan"), float("inf")])
def test_bad_tol_raises_value_error(monkeypatch, tol):
    # The tolerance is checked at entry: no walk starts before it fails.
    _no_walk(monkeypatch)
    for call in _tol_calls():
        with pytest.raises(ValueError, match="finite decimal > 0"):
            call(tol)


# Families that validate rejects, each with the code of its error finding.
INVALID = [
    (TwistLinear(p=poly([0, 0, 0, 1])), "p-separable"),
    (TwistLinear(p=poly([0, -1, 0, 2])), "p-monic"),
    (TwistQuadratic(c=Fraction(1), a=Fraction(0), p=X3_PLUS_1), "d-separable"),
    (
        WeierstrassPencil(
            A=ratfunc([0]), B=ratfunc([0]), sections=((ratfunc([0, 0, 1]), ratfunc([0, 0, 0, 1])),)
        ),
        "pencil-singular",
    ),
]


@pytest.mark.parametrize("mode", ["total-first", "fiber-first"])
@pytest.mark.parametrize("f,code", INVALID, ids=lambda x: x if isinstance(x, str) else x.kind)
def test_scan_refuses_what_validate_rejects(monkeypatch, f, code, mode):
    _no_walk(monkeypatch)
    with pytest.raises(FamilyFormatError, match=rf"^\[{code}\] "):
        scan(f, 3, mode)


def test_neron_check_and_billing_refuse_what_validate_rejects(monkeypatch):
    _no_walk(monkeypatch)
    with pytest.raises(FamilyFormatError, match=r"^\[pencil-singular\] "):
        neron_check(INVALID[3][0], 3)
    with pytest.raises(FamilyFormatError, match=r"^\[p-monic\] "):
        billing_build(poly([0, -1, 0, 2]), 1, 5)


def test_report_text_ignores_context_capitals():
    def text():
        rep = scan(TwistLinear(p=X3_MINUS_X), 2, "total-first", tol="1e-7")
        return _json(rep.to_json()), [c.csv_row() for c in rep.certificates]

    with localcontext() as ctx:
        ctx.capitals = 0
        lower = text()
    assert lower == text()
    assert json.loads(lower[0])["config"]["tol"] == "1E-7"


def test_certify_fiber_twist_linear():
    f = TwistLinear(p=X3_MINUS_X)
    t = Fraction(6)  # p(2) = 6 = d(6) * 1^2
    w = f.point(t, t, f.fiber_model(t), Fraction(2), Fraction(1), Fraction(6))
    cert = certify_fiber(f, w)
    assert cert.certified_rank_lb == 1
    assert cert.jump and cert.status == "certified"
    assert cert.declared_generic_rank == 0
    assert cert.gram.certified and cert.gram.det_lower_bound > 0
    assert cert.witness == point(12, 36)


def test_certify_fiber_cubic():
    w = CubicPencil.point(Fraction(-5, 6), Fraction(-1, 2), Fraction(-2, 3))
    cert = certify_fiber(CubicPencil(), w)
    assert cert.jump == cert.gram.certified
    assert cert.certified_rank_lb >= 1


def test_certify_fiber_torsion_witness():
    f = TwistLinear(p=X3_MINUS_X)
    # p(1) = 0, so (t0=anything, x0=1, y0=0) is a 2-torsion witness
    t = Fraction(5)
    w = f.point(t, t, f.fiber_model(t), Fraction(1), Fraction(0), Fraction(0))
    cert = certify_fiber(f, w)
    assert cert.status == "torsion-witness"
    assert not cert.jump
    assert cert.certified_rank_lb == 0


def test_certify_fiber_with_sections():
    lam = Fraction(2)
    # fabricate a witness from a found rational point not equal to the section
    pts, _ = witness_stream(PENCIL, 3, "fiber-first")
    target = [w for w in pts if w.param == lam and not w.witness.y == 0]
    if target:
        cert = certify_fiber(PENCIL, target[0])
        assert cert.declared_generic_rank == 1
        assert cert.section_points


def test_certify_fiber_rejects_off_fiber_witness():
    # The fiber at lam = 2 is y^2 = x^3 + x - 6; (1, 1) is not on it.
    w = TotalSpacePoint.on_model(Fraction(2), *integral_model(fiber_at(PENCIL, 2)), point(1, 1))
    with pytest.raises(PointNotOnCurve):
        certify_fiber(PENCIL, w)


def test_no_false_jump_on_dependent_witness():
    # witness equal to a double of the section can never certify rank 2
    lam = Fraction(2)
    C = fiber_at(PENCIL, lam)
    section = point(2, 2)
    wpt = mul(C, 2, section)
    w = TotalSpacePoint.on_model(lam, *integral_model(C), wpt)
    cert = certify_fiber(PENCIL, w)
    assert cert.certified_rank_lb <= 1
    from rankjump.curves import small_relation_search

    rel = small_relation_search(C, [section, wpt], 4)
    assert rel is not None  # honest dependence confirmed exactly


def _has_negatives(pts) -> bool:
    return any(neg(P) in pts[i + 1 :] for i, P in enumerate(pts))


def test_dependent_pair_goes_straight_to_the_witness(monkeypatch):
    # PENCIL's fiber-first walk meets W = -S at 12 of its 28 candidates.
    # certify_fiber gives every candidate the row of the path that first
    # runs the doomed Gram on {S, W}, and never computes a set that holds
    # a point and its negative.
    pts, _ = witness_stream(PENCIL, 4, "fiber-first")
    minus_s = [w for w in pts if w.witness == neg(PENCIL.sections_at(w.param, w.curve)[0])]
    assert (len(minus_s), len(pts)) == (12, 28)
    fiber_grams = _counting(monkeypatch, "gram_certify", heights)
    refs = [reference_certify_fiber(PENCIL, w, DEFAULT_SCAN_TOL) for w in pts]
    assert any(_has_negatives(pts) for _, pts, *_ in fiber_grams)
    computed = _counting(monkeypatch, "gram_certify")
    assert [certify_fiber(PENCIL, w) for w in pts] == refs
    assert computed and not any(_has_negatives(ipts) for _, ipts, *_ in computed)
    rows = [c for c, w in zip(refs, pts) if w in minus_s and c.status != "torsion-witness"]
    assert rows and all(c.gram.points == (c.witness,) for c in rows)


def test_jump_needs_a_bound_above_the_generic_rank():
    # At lam = 2, W = -S = (2, -2) certifies alone: rank >= 1, which is
    # PENCIL's declared generic rank, so the row is no jump.
    C = fiber_at(PENCIL, 2)
    w = TotalSpacePoint.on_model(Fraction(2), *integral_model(C), point(2, -2))
    cert = certify_fiber(PENCIL, w)
    assert cert.status == "certified" and cert.gram.points == (point(2, -2),)
    assert cert.certified_rank_lb == cert.declared_generic_rank == 1
    assert not cert.jump


# y^2 = x^3 + (lam^2 - 1) x: (0, 0) is 2-torsion on every fiber, and
# (1, lam) and its negative (1, -lam) are sections.
S_PLUS = (ratfunc([1]), ratfunc([0, 1]))
S_MINUS = (ratfunc([1]), ratfunc([0, -1]))


@pytest.mark.parametrize("sections", [(S_PLUS,), (S_PLUS, S_MINUS)], ids=["S", "S,-S"])
def test_torsion_witness_keeps_its_section_gram(sections):
    # A torsion witness is never certified, so its row shows the Gram of
    # the live sections, even when two of them are negatives.
    f = WeierstrassPencil(A=ratfunc([-1, 0, 1]), B=ratfunc([0]), sections=sections)
    lam = Fraction(2)
    C = fiber_at(f, lam)
    w = TotalSpacePoint.on_model(lam, *integral_model(C), point(0, 0))
    cert = certify_fiber(f, w)
    assert cert == reference_certify_fiber(f, w, DEFAULT_SCAN_TOL)
    assert cert.status == "torsion-witness" and not cert.jump
    assert cert.gram.points == tuple(f.sections_at(lam, C))
    assert cert.gram.certified == (len(sections) == 1)


def test_scan_twist_linear():
    rep = scan(TwistLinear(p=X3_MINUS_X), 2, "total-first")
    certified = rep.certified_params()
    assert Fraction(6) in certified
    row = [c for c in rep.certificates if c.param == 6][0]
    assert row.witness == point(12, 36)
    assert rep.candidates >= rep.distinct_params
    assert rep.certified + rep.inconclusive == rep.distinct_params


def test_scan_cubic_bound1():
    rep = scan(CubicPencil(), 1, "total-first")
    params = {c.param for c in rep.certificates}
    assert Fraction(-5, 6) in params and Fraction(3, 4) in params


def test_scan_bound_zero_rejected():
    with pytest.raises(ValueError):
        scan(CubicPencil(), 0, "total-first")


@pytest.mark.parametrize("jobs", [0, -3])
def test_scan_jobs_below_one_rejected(jobs):
    with pytest.raises(ValueError, match="jobs"):
        scan(CubicPencil(), 1, "total-first", jobs=jobs)


def test_scan_deterministic_and_jobs_equal():
    a = scan(CubicPencil(), 2, "total-first")
    b = scan(CubicPencil(), 2, "total-first")
    assert a == b
    c = scan(CubicPencil(), 2, "total-first", jobs=2)
    assert a == c


def _serial_pool(monkeypatch) -> tuple[list, list]:
    """Patch multiprocessing.Pool to run in-process; returns the list of
    pool sizes asked for and the list of item lists mapped."""
    import multiprocessing

    sizes, mapped = [], []

    class SerialPool:
        """multiprocessing.Pool run in-process: records its size, maps serially."""

        def __init__(self, processes=None):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=None):
            mapped.append(list(items))
            return [fn(x) for x in mapped[-1]]

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    return sizes, mapped


def _param_groups(f, bound, mode) -> list:
    """The stream's candidates grouped by param, in stream order."""
    groups: dict = {}
    for w in witness_stream(f, bound, mode)[0]:
        groups.setdefault(w.param, []).append(w)
    return list(groups.values())


def _check_shares(shares, groups, jobs) -> None:
    """min(jobs, params) contiguous shares in stream order, sizes within 1."""
    sizes = [len(s) for _, s, _ in shares]
    assert len(shares) == min(jobs, len(groups))
    assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
    assert [ws for _, s, _ in shares for ws in s] == groups


def test_scan_starts_at_most_one_worker_per_param(monkeypatch):
    # The params go in stream order in min(jobs, params) contiguous shares
    # whose sizes differ by at most 1.  The pool is capped at the machine's
    # CPU count (1 when it is unknown), so a huge --jobs starts no more
    # workers than the machine has; the shares and the report do not
    # depend on the cap.
    sizes, mapped = _serial_pool(monkeypatch)
    f = TwistLinear(p=X3_MINUS_X)
    groups = _param_groups(f, 3, "total-first")
    serial = scan(f, 3, "total-first")
    assert not sizes and 8 < len(groups) < serial.candidates
    for cpus in (None, 3, 10**6):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        for jobs in (2, 3, 4, len(groups) + 5, 10**6):
            sizes.clear()
            mapped.clear()
            assert scan(f, 3, "total-first", jobs=jobs) == serial
            (shares,) = mapped
            _check_shares(shares, groups, jobs)
            assert sizes == [min(len(shares), cpus or 1)]
        # one param per share at the largest jobs
        assert len(shares) == len(groups) and sizes == [min(len(groups), cpus or 1)]
    # Every asked-for worker gets a share: at --jobs 4, 9 params are shares
    # of 2, 2, 2 and 3 (not 3 of 3) and 5 params of 1, 1, 1 and 2 (not 2, 2
    # and 1).  The stream is the candidates of the first n params.
    pts, stats = witness_stream(f, 3, "total-first")
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    for n in (9, 5):
        keep = list(dict.fromkeys(w.param for w in pts))[:n]
        stream = [w for w in pts if w.param in keep]
        monkeypatch.setattr(engine, "witness_stream", lambda *args: (stream, stats))
        sizes.clear()
        mapped.clear()
        one = scan(f, 3, "total-first")
        four = scan(f, 3, "total-first", jobs=4)
        (shares,) = mapped
        _check_shares(shares, groups[:n], 4)
        assert [len(s) for _, s, _ in shares] == [n // 4] * 3 + [n - 3 * (n // 4)]
        assert sizes == [4]
        assert four == one and _json(four.to_json()) == _json(one.to_json())


# Y^2 = X^3 + lam^2 X - 1 with section (1/lam^2, 1/lam^3): the fiber at
# lam = 0 is fine but the section has a pole there.
POLE_PENCIL = WeierstrassPencil(
    A=ratfunc([0, 0, 1]),
    B=ratfunc([-1]),
    sections=((ratfunc([1], [0, 0, 1]), ratfunc([1], [0, 0, 0, 1])),),
)

# 84 candidates on 68 params; at t = 1 of t y^2 = x^3 + 8, the torsion
# witness (-2, 0) after (1, 3) certified; a section pole at lam = 0.
ROUTING_CASES = {
    "lin": (TwistLinear(p=X3_MINUS_X), 3, "total-first"),
    "torsion": (TwistLinear(p=poly([8, 0, 0, 1])), 2, "fiber-first"),
    "pole": (POLE_PENCIL, 2, "fiber-first"),
}


def _counting(monkeypatch, name: str, module=engine) -> list:
    """Wrap module.<name>, rankjump.engine.<name> by default; returns the
    list its calls append to."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("case", ROUTING_CASES)
def test_scan_per_param_routing_matches_every_candidate_reference(monkeypatch, case):
    f, bound, mode = ROUTING_CASES[case]
    tol = DEFAULT_SCAN_TOL
    ref = reference_scan(f, bound, mode, tol)
    ref_text = _json(ref.to_json())
    grams = _counting(monkeypatch, "gram_certify")
    # scan attempts each param's candidates up to its first certified one
    pts, stats = witness_stream(f, bound, mode)
    done, needed, skipped = set(), [], []
    for w in pts:
        if w.param in done:
            skipped.append(w)
            continue
        needed.append(w)
        try:
            if certify_fiber(f, w, tol).status == "certified":
                done.add(w.param)
        except PoleAtPoint:
            pass
    needed_grams = len(grams)
    keys = {_gram_key(*args) for args in grams}
    certifies = _counting(monkeypatch, "certify_fiber")
    _serial_pool(monkeypatch)
    for jobs in (1, 2):
        grams.clear()
        certifies.clear()
        assert _json(scan(f, bound, mode, tol, jobs).to_json()) == ref_text
        assert len(certifies) == len(needed)
        # each share computes its distinct Gram keys once; one share at jobs = 1
        assert {_gram_key(*args) for args in grams} == keys
        assert len(keys) <= len(grams) <= needed_grams and (jobs > 1 or len(grams) == len(keys))
    assert skipped
    if case == "lin":
        assert (ref.candidates, ref.distinct_params) == (84, 68)
        assert needed_grams == len(needed)  # one Gram per attempted candidate
        assert len(keys) < needed_grams  # isomorphic candidates share theirs
    elif case == "torsion":
        assert ref.torsion_witness > 0 and ref.certified > 0
        assert any(is_torsion(w.curve, w.witness) for w in skipped)
    else:
        assert ref.degenerate > stats.degenerate_skipped and ref.certified > 0


# Families where many candidates share an integral model: the total-first
# twist walks give one integral point for every y0 that goes with an x0.
# The pencil's Grams hold the section and the witness (k = 2), so their
# pair sums are taken on the integral model.
MEMO_CASES = {
    "x3-x": (TwistLinear(p=X3_MINUS_X), 4, "total-first"),
    "(x+2)x(x-1)": (TwistLinear(p=poly([0, -2, 1, 1])), 4, "total-first"),
    "quad-fiber": (TwistQuadratic(c=Fraction(1), a=Fraction(-1), p=X3_PLUS_1), 8, "fiber-first"),
    "pencil": (PENCIL, 4, "fiber-first"),
}


@pytest.mark.parametrize("case", MEMO_CASES)
def test_scan_with_shared_memos_matches_unshared_reference(monkeypatch, case):
    f, bound, mode = MEMO_CASES[case]
    ref = reference_scan(f, bound, mode, DEFAULT_SCAN_TOL)  # certify_fiber, no memo
    assert ref.certified > 0
    _, mapped = _serial_pool(monkeypatch)
    for jobs in (1, 2, 3):
        rep = scan(f, bound, mode, jobs=jobs)
        assert rep == ref
        assert _json(rep.to_json()) == _json(ref.to_json())
        assert len(mapped) == (jobs > 1) and all(len(shares) > 1 for shares in mapped)
        mapped.clear()


def test_height_models_are_kept_per_integral_curve():
    # Every fiber of the twists of x^3 + 1 is y^2 = x^3 + B: the integral
    # models share A = 0 and differ in B, and each keeps its own model.
    f, bound, mode = MEMO_CASES["quad-fiber"]
    pts, _ = witness_stream(f, bound, mode)
    memo: dict = {}
    assert [certify_fiber(f, w, memo=memo) for w in pts] == [certify_fiber(f, w) for w in pts]
    models = {key: m for key, m in memo.items() if len(key) == 2}
    grams = {key[:2] for key in memo if len(key) > 2 and isinstance(key[2], Decimal)}
    assert len(models) > 1 and set(models) == grams
    assert {A for A, _ in models} == {0}
    assert all(m.curve == curve(A, B) for (A, B), m in models.items())


def _gram_key(Cm, ipts, tol, *model) -> tuple:
    """The memo key of the Gram that gram_certify(Cm, ipts, tol, model)
    computes: the integral model, the integral points and the tolerance."""
    return Cm, tuple(ipts), tol


def test_scan_computes_each_gram_key_once(monkeypatch):
    # One memo per share: a share computes each Gram key it meets once.
    f, bound, mode = MEMO_CASES["x3-x"]
    attempts = _counting(monkeypatch, "_gram")
    computed = _counting(monkeypatch, "gram_certify")
    ends = []  # (attempts, computations) made by the end of each share
    certify_share = engine._certify_share

    def counted_share(args):
        out = certify_share(args)
        ends.append((len(attempts), len(computed)))
        return out

    monkeypatch.setattr(engine, "_certify_share", counted_share)
    _serial_pool(monkeypatch)
    for jobs in (1, 2):
        attempts.clear()
        computed.clear()
        ends.clear()
        scan(f, bound, mode, jobs=jobs)
        assert len(ends) == jobs
        a0 = c0 = 0
        for a1, c1 in ends:
            want = {
                _gram_key(curve(A, B), [point_from_ints(P) for P in pts], tol)
                for _, A, B, pts, tol in attempts[a0:a1]
            }
            keys = [_gram_key(*args) for args in computed[c0:c1]]
            assert len(keys) == len(set(keys)) == len(want) and set(keys) == want
            a0, c0 = a1, c1
        assert len(computed) * 2 < len(attempts)


def test_twist_scans_map_no_candidate_to_its_integral_model(monkeypatch):
    # The twist walks hand each candidate over in integral form: the engine
    # maps no point to a model (only sections would need it), and the walks
    # take no integral model: each fiber's comes from the depressed cubic's
    # reduced coefficients and d0 (fiber_model).
    mapped = _counting(monkeypatch, "point_to_integral")
    models = _counting(monkeypatch, "integral_model", families)
    for f, bound, mode in (
        (TwistLinear(p=poly([0, -2, 1, 1])), 6, "total-first"),
        (TwistQuadratic(c=Fraction(1), a=Fraction(-1), p=X3_PLUS_1), 12, "fiber-first"),
    ):
        models.clear()
        assert scan(f, bound, mode).certified > 0
        assert not mapped and not models


def _isomorphic_candidates() -> list:
    # p(2) = 6: (2, 1) lies on the fiber t = 6 and (2, 2) on t = 3/2.  Both
    # fibers have the integral model y^2 = x^3 - 36x, and both witnesses
    # map to (12, 36) on it.
    f = TwistLinear(p=X3_MINUS_X)
    return [
        f.point(t, t, f.fiber_model(t), Fraction(2), Fraction(y0), Fraction(6))
        for t, y0 in ((Fraction(6), 1), (Fraction(3, 2), 2))
    ]


def test_isomorphic_candidates_share_the_gram_but_keep_their_own_points():
    f = TwistLinear(p=X3_MINUS_X)
    ws = _isomorphic_candidates()
    memo: dict = {}
    a, b = (certify_fiber(f, w, memo=memo) for w in ws)
    assert integral_model(ws[0].curve) == (-36, 0, 1)
    assert integral_model(ws[1].curve) == (-36, 0, 2)
    assert len(memo) == 3  # one torsion answer, one Gram, one height model
    assert [a, b] == [certify_fiber(f, w) for w in ws]  # no memo
    assert a.gram.entries == b.gram.entries and a.gram.heights == b.gram.heights
    ja, jb = (json.loads(_json(c.to_json())) for c in (a, b))
    assert ja["gram"]["entries"] == jb["gram"]["entries"] and ja["heights"] == jb["heights"]
    assert (ja["witness"], ja["gram"]["points"], ja["curve"]) == ("12,36", ["12,36"], {"A": "-36", "B": "0"})
    assert (jb["witness"], jb["gram"]["points"], jb["curve"]) == ("3,9/2", ["3,9/2"], {"A": "-9/4", "B": "0"})
    assert ja["param"] == "6" and jb["param"] == "3/2"


def test_a_memo_hit_keeps_its_torsion_answer():
    # Both candidates on x^3 + 1 have the model y^2 = x^3 + 1 and the model
    # witness (0, 1), of order 3.  The second reads its torsion status from
    # the memo the first filled, and it must still read torsion.
    f = TwistLinear(p=X3_PLUS_1)
    ws = [
        f.point(t, t, f.fiber_model(t), Fraction(0), Fraction(y0), Fraction(1))
        for t, y0 in ((Fraction(1), 1), (Fraction(1, 4), 2))
    ]
    assert {(w.A, w.B, w.model_witness) for w in ws} == {(0, 1, (0, 1, 1, 1))}
    assert ws[0].curve != ws[1].curve
    memo: dict = {}
    certs = [certify_fiber(f, w, memo=memo) for w in ws]
    assert [c.status for c in certs] == ["torsion-witness"] * 2
    assert certs == [certify_fiber(f, w) for w in ws]  # no memo


def test_memo_hits_never_skip_the_on_curve_check():
    # certify_fiber checks no point on its fiber: a miss checks the integral
    # point on the integral model, and a hit stands for such a check.  So a
    # witness off its fiber must raise even after an isomorphic candidate
    # filled the memo.  Each off-fiber witness shares x or y with the
    # on-fiber one, so a key that dropped either coordinate would hit.
    f = TwistLinear(p=X3_MINUS_X)
    good, iso = _isomorphic_candidates()
    offs = [
        TotalSpacePoint.on_model(iso.param, *integral_model(iso.curve), P)
        for P in (point(3, 5), point(4, Fraction(9, 2)))
    ]
    tol = DEFAULT_SCAN_TOL
    memo: dict = {}
    assert certify_fiber(f, good, tol, memo).status == "certified"
    assert len(memo) == 3  # torsion answer, Gram, height model
    for w in offs:
        assert not on_curve(w.curve, w.witness)
        with pytest.raises(PointNotOnCurve):
            certify_fiber(f, w, tol, memo)
        # the torsion-only screen after a param's certified candidate
        with pytest.raises(PointNotOnCurve):
            engine._certify_param(f, [iso, w], tol, memo)
        # and the Gram step, whose key holds the integral points too
        with pytest.raises(PointNotOnCurve):
            engine._gram(memo, w.A, w.B, {w.model_witness: w.witness}, engine._gram_tol(tol))
    assert len(memo) == 3


BENCH = curve(-16, 16)
BENCH_P = point(0, 4)


def test_gram_memo_keeps_tolerances_and_points_apart(monkeypatch):
    # P and 3P are dependent, so their Gram refines down to the depth the
    # tolerance sets: one memo must not hand the coarse outcome to the fine
    # call.  Q on the rescaled curve C maps to P, so its Gram is read back
    # from the memo, with Q as its point.
    computed = _counting(monkeypatch, "gram_certify")
    pts = [BENCH_P, mul(BENCH, 3, BENCH_P)]
    tols = [Decimal("1e-3"), Decimal("1e-5")]
    fresh = [gram_certify(BENCH, pts, t) for t in tols]
    memo: dict = {}
    keyed = {point_ints(P): P for P in pts}
    shared = [engine._gram(memo, -16, 16, keyed, t) for t in tols]
    assert shared == fresh and fresh[0].entries != fresh[1].entries
    assert len(computed) == len(memo) - 1 == 2  # and one height model
    C = curve(Fraction(-16, 2**4), Fraction(16, 2**6))
    Q = point(0, Fraction(4, 8))
    assert integral_model(C) == (BENCH.A, BENCH.B, 2)
    single = engine._gram(memo, -16, 16, {point_ints(BENCH_P): BENCH_P}, tols[0])
    g = engine._gram(memo, -16, 16, {point_ints(point_to_integral(Q, 2)): Q}, tols[0])
    assert len(computed) == len(memo) - 1 == 3  # C's Gram reuses BENCH's model
    assert g.points == (Q,) and single.points == (BENCH_P,)
    assert g == dataclasses.replace(single, points=(Q,)) == gram_certify(C, [Q], tols[0])


def test_certificate_soundness_invariant():
    # every jump = true certificate carries a positive determinant over
    # exactly certified_rank_lb points, each reproducibly on the curve
    rep = scan(TwistLinear(p=X3_MINUS_X), 3, "fiber-first")
    assert rep.certified > 0
    for cert in rep.certificates:
        if not cert.jump:
            continue
        assert cert.gram is not None and cert.gram.certified
        assert cert.gram.det_lower_bound > 0
        assert len(cert.gram.points) == cert.certified_rank_lb
        for P in cert.gram.points:
            assert on_curve(cert.curve, P)


def test_scan_twist_poly_and_cubic_fiber_first():
    # TwistPoly falls back to fiber-first in total-first mode
    from rankjump.families import TwistPoly

    f = TwistPoly(d=poly([0, 1, 1]), p=X3_MINUS_X)  # d = t + t^2
    a, _ = witness_stream(f, 3, "total-first")
    b, _ = witness_stream(f, 3, "fiber-first")
    assert [(w.param, w.witness) for w in a] == [(w.param, w.witness) for w in b]
    rep = scan(f, 3, "fiber-first")
    assert rep.certified >= 1
    # The cubic pencil's fiber-first walk emits nothing below bound 7; at 7
    # it emits lam = -1/2 with witness (7, 7/2).
    pts, _ = witness_stream(CubicPencil(), 7, "fiber-first")
    assert pts
    for w in pts:
        assert w.curve == fiber_at(CubicPencil(), w.param)
        assert on_curve(w.curve, w.witness)


def test_neron_check_smoke():
    rep = neron_check(PENCIL, 4)
    assert rep.sampled == rep.certified_independent + len(rep.inconclusive) + len(
        rep.exact_dependent
    )
    # lam = 0 specializes the section to 2-torsion: exact dependence
    assert any(q == 0 for q, _ in rep.exact_dependent)
    assert rep.certified_independent >= rep.sampled - 2


def _quadratic_a_pencil(*sections):
    """Y^2 = X^3 + (2 + lam - lam^2) X + 1 with the given sections."""
    return WeierstrassPencil(A=ratfunc([2, 1, -1]), B=ratfunc([1]), sections=sections)


def _section_pencil(a: int):
    """Y^2 = X^3 + a X + (-a lam + lam^2 - lam^3) with the section (lam, lam)."""
    return WeierstrassPencil(
        A=ratfunc([a]), B=ratfunc([0, -a, 1, -1]), sections=((ratfunc([0, 1]), ratfunc([0, 1])),)
    )


# (0, 1) and (lam, 1 + lam) meet at lam = 0; (0, 1) and (0, -1) are negatives
# at every lam.
MEET_0, MEET_LAM, NEG_0 = (
    (ratfunc([0]), ratfunc([1])),
    (ratfunc([0, 1]), ratfunc([1, 1])),
    (ratfunc([0]), ratfunc([-1])),
)


@pytest.mark.parametrize(
    "f, bound, tol",
    [(_section_pencil(a), 4, DEFAULT_SCAN_TOL) for a in range(1, 6)]
    + [
        # tol = 10 leaves the Gram so shallow that some fibers stay inconclusive.
        (PENCIL, 4, Decimal(10)),
        (_quadratic_a_pencil(MEET_0, MEET_LAM), 4, DEFAULT_SCAN_TOL),
        (_quadratic_a_pencil(MEET_0, NEG_0), 4, DEFAULT_SCAN_TOL),
        (_quadratic_a_pencil(MEET_0, MEET_LAM, NEG_0), 3, DEFAULT_SCAN_TOL),
    ],
    ids=["a1", "a2", "a3", "a4", "a5", "tol10", "meeting", "negatives", "three"],
)
def test_neron_check_matches_the_fiber_gram_reference(f, bound, tol):
    # neron_check certifies each fiber through certify_fiber with O as the
    # witness; the reference certifies the Fraction fiber itself.
    assert neron_check(f, bound, tol) == reference_neron_check(f, bound, tol)


def test_neron_check_needs_sections():
    with pytest.raises(ValueError):
        neron_check(WeierstrassPencil(A=ratfunc([1]), B=ratfunc([1])), 3)


@pytest.mark.parametrize(
    "f",
    [
        TwistLinear(p=X3_MINUS_X),
        TwistQuadratic(c=Fraction(1), a=Fraction(-1), p=X3_PLUS_1),
        TwistPoly(d=poly([1, 0, 1]), p=X3_MINUS_X),
        CubicPencil(),
        WeierstrassPencil(A=ratfunc([1]), B=ratfunc([1])),
    ],
    ids=lambda f: f.kind,
)
def test_neron_check_rejects_families_without_sections(f):
    with pytest.raises(ValueError, match=r"^neron_check needs a Weierstrass pencil with >= 1 section$"):
        neron_check(f, 3)


def test_scan_skips_section_poles():
    # the candidate at lam = 0 is skipped and counted, not crashed on
    rep = scan(POLE_PENCIL, 1, "fiber-first")
    assert all(c.param != 0 for c in rep.certificates)
    assert rep.degenerate >= 1


def test_scan_zero_certificates_is_a_result():
    # d = t^2 - 3, p = x^3 + 1 at bound 1: only torsion witnesses appear
    f = TwistQuadratic(c=Fraction(1), a=Fraction(3), p=X3_PLUS_1)
    rep = scan(f, 1, "fiber-first")
    assert rep.certified == 0


def test_neron_example_fiber():
    # lam0 = 2: (2, 2) on y^2 = x^3 + x - 6; its double has x = 105/16
    fib_curve = curve(1, -6)
    assert mul(fib_curve, 2, point(2, 2)).x == Fraction(105, 16)


def test_billing_example():
    cert = billing_build(X3_MINUS_X, 3, 10)
    assert list(cert.classes) == [6, 15, 30]
    assert [str(w.point) for w in cert.witnesses] == ["12,36", "60,450", "150,1800"]
    assert [str(w.x0) for w in cert.witnesses] == ["2", "4", "5"]
    assert cert.rank_bound == 3
    cert.revalidate()
    js = cert.to_json()
    assert js["field_degree"] == 8


def test_billing_rank_one():
    cert = billing_build(X3_MINUS_X, 1, 10)
    assert len(cert.classes) == 1 and cert.classes[0] == 6


def test_billing_exhausted():
    with pytest.raises(SearchExhausted):
        billing_build(X3_MINUS_X, 3, 2)


def test_billing_skips_square_values():
    # p = x^3 + 1: p(2) = 9 is a perfect square -> skipped (class 1)
    cert = billing_build(X3_PLUS_1, 1, 10)
    assert cert.classes[0] == 2  # p(1) = 2
    for w in cert.witnesses:
        assert on_curve(w.twist_curve, w.point)


def _gram_two_pass(C, pts, tol):
    """Reference: certify at tol, and on failure start over at tol/10."""
    g = gram_certify(C, pts, tol)
    return g if g.certified else gram_certify(C, pts, tol / 10)


def test_gram_single_pass_matches_two_pass():
    # Chains advance in lockstep and a chain stopped by the budget never
    # resumes, so one run at tol/10 passes through every state of the run
    # at tol and stops at the same first positive determinant.
    cases = []
    pts, _ = witness_stream(PENCIL, 3, "fiber-first")
    for w in pts:
        C = w.curve
        if is_torsion(C, w.witness):
            continue
        sections = [P for P in PENCIL.sections_at(w.param, C) if not is_torsion(C, P)]
        cases.append((C, [w.witness]))
        if all(P != w.witness for P in sections):
            cases.append((C, sections + [w.witness]))
    C = fiber_at(PENCIL, Fraction(2))
    P = point(2, 2)
    cases += [(C, [P, mul(C, 2, P)]), (C, [P, mul(C, -1, P)]), (C, [P, mul(C, 3, P), point(2, -2)])]
    retried = retried_certified = 0
    for tol in (Decimal("1"), Decimal("1e-4")):
        for C, pts in cases:
            g = gram_certify(C, pts, tol / 10)
            assert g == _gram_two_pass(C, pts, tol)
            if not gram_certify(C, pts, tol).certified:
                retried += 1
                retried_certified += g.certified
    assert retried_certified > 0  # the first pass fails, the deeper one certifies
    assert retried > retried_certified  # dependent sets fail both passes


TAMPERED_REVALIDATE = """
import dataclasses
from rankjump.curves import point
from rankjump.engine import billing_build
from rankjump.errors import InvalidCertificate
from rankjump.polynomials import poly

cert = billing_build(poly([0, -1, 0, 1]), 3, 10)
# (0, 0) is 2-torsion on every twist of y^2 = x^3 - x
torsion = dataclasses.replace(cert.witnesses[0], point=point(0, 0))
bad = dataclasses.replace(cert, witnesses=(torsion,) + cert.witnesses[1:])
try:
    bad.revalidate()
except InvalidCertificate as exc:
    print("rejected:", exc)
"""


@pytest.mark.parametrize("classes", [(1, 15), (0, 15), (24, 15)])
def test_revalidate_rejects_unit_zero_and_non_squarefree_classes(classes):
    cert = billing_build(X3_MINUS_X, 2, 10)
    assert cert.classes == (6, 15)
    with pytest.raises(InvalidCertificate, match="^a class is 0, 1 or not squarefree$"):
        dataclasses.replace(cert, classes=classes).revalidate()


def test_revalidate_rejects_dependent_classes():
    # 6 * 5 = 30, so Q(sqrt 6, sqrt 5, sqrt 30) has degree 4, not 8, although
    # each witness is a genuine non-torsion point on its twist of x^3 - x:
    # p(x0) = d s^2 at x0 = -1/2, -4/5, -2/3.
    witnesses = []
    for d, x0, s in (
        (6, Fraction(-1, 2), Fraction(1, 4)),
        (5, Fraction(-4, 5), Fraction(6, 25)),
        (30, Fraction(-2, 3), Fraction(1, 9)),
    ):
        twist, P = curve(-d * d, 0), point(d * x0, d * d * s)
        assert on_curve(twist, P) and not is_torsion(twist, P)
        witnesses.append(BillingWitness(x0=x0, s=s, point=P, twist_curve=twist))
    cert = BillingCertificate(
        curve=curve(-1, 0), r=3, classes=(6, 5, 30), witnesses=tuple(witnesses), rank_bound=3
    )
    with pytest.raises(InvalidCertificate, match="^classes are not independent$"):
        cert.revalidate()


def test_revalidate_raises_under_optimize():
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-O", "-c", TAMPERED_REVALIDATE],
        env={"PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "rejected: witness is torsion"
