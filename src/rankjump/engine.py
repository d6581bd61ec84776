"""The certification pipeline: per-fiber rank-jump certificates, scan
orchestration, the empirical specialization (Neron) check, and the
multiquadratic rank-growth construction of Billing type.

A WitnessCertificate proves rank(X_lam(Q)) >= certified_rank_lb by a
positive Gram determinant of canonical heights; jump = True means the
bound exceeds the declared generic rank.  The Billing builder certifies
rank E(Q(sqrt(d_1), ..., sqrt(d_r))) >= r through r quadratic twists with
independent square classes, each contributing a certified non-torsion
point: rank over the multiquadratic field is bounded below by the sum of
the twist ranks over Q (character decomposition), so no arithmetic ever
happens in the extension field.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from decimal import Decimal
from fractions import Fraction
from typing import Optional

from .curves import (
    INFINITY,
    Curve,
    Point,
    curve,
    integral_model,
    is_torsion,
    on_curve,
    point_from_ints,
    point_ints,
    point_to_integral,
    small_relation_search,
)
from .errors import (
    DegenerateFiber,
    InvalidCertificate,
    PoleAtPoint,
    SearchExhausted,
)
from .factorization import (
    class_vectors,
    factorize,
    square_class_independent,
    squarefree_part,
    squarefree_part_of_rational,
)
from .families import (
    Family,
    TotalSpacePoint,
    TwistLinear,
    fiber_at,
    require_valid,
    witness_stream,
)
from .heights import GramCertificate, HeightModel, gram_certify, tolerance
from .intervals import CTX
from .polynomials import Poly, poly_eval
from .rationals import format_rational, is_rational_square, iter_rationals, rat_height

DEFAULT_SCAN_TOL = Decimal("1e-4")


def _curve_json(C: Curve) -> dict:
    return {"A": format_rational(C.A), "B": format_rational(C.B)}


@dataclass(frozen=True)
class WitnessCertificate:
    family_id: str
    param: Fraction
    curve: Curve
    section_points: tuple[Point, ...]
    witness: Point
    gram: Optional[GramCertificate]
    certified_rank_lb: int
    declared_generic_rank: int
    jump: bool
    status: str  # "certified" | "inconclusive" | "torsion-witness"

    def to_json(self) -> dict:
        return {
            "family_id": self.family_id,
            "param": format_rational(self.param),
            "curve": _curve_json(self.curve),
            "section_points": [str(P) for P in self.section_points],
            "witness": str(self.witness),
            "heights": () if self.gram is None else self.gram.heights,
            "gram": self.gram,
            "certified_rank_lb": self.certified_rank_lb,
            "declared_generic_rank": self.declared_generic_rank,
            "jump": self.jump,
            "status": self.status,
        }

    def csv_row(self) -> list[str]:
        return [cell(self) for _, cell in _CSV_TABLE]


# The CSV report: one (column, cell) pair per column, in order.
_CSV_TABLE = (
    ("param", lambda c: format_rational(c.param)),
    ("curve_A", lambda c: format_rational(c.curve.A)),
    ("curve_B", lambda c: format_rational(c.curve.B)),
    ("witness", lambda c: str(c.witness)),
    ("n_sections", lambda c: str(len(c.section_points))),
    ("certified_rank_lb", lambda c: str(c.certified_rank_lb)),
    ("jump", lambda c: "true" if c.jump else "false"),
    ("gram_det_lb", lambda c: "" if c.gram is None else CTX.to_sci_string(c.gram.det_lower_bound)),
    ("status", lambda c: c.status),
)

CSV_COLUMNS = [name for name, _ in _CSV_TABLE]


def _gram_tol(tol) -> Decimal:
    """The depth Gram refinement may go down to for scan tolerance tol."""
    return CTX.divide(tolerance(tol), Decimal(10))


def _torsion(memo: dict, A: int, B: int, P: tuple[int, int, int, int]) -> bool:
    """Whether the point P (point_ints) on the integral model
    y^2 = x^3 + Ax + B is torsion: is_torsion there, once per memo key
    (A, B, *P)."""
    key = (A, B, *P)
    known = memo.get(key)
    if known is None:
        known = memo[key] = is_torsion(curve(A, B), point_from_ints(P))
    return known


def _gram(memo: dict, A: int, B: int, pts: dict, tol: Decimal) -> GramCertificate:
    """gram_certify for non-torsion points on the integral model
    y^2 = x^3 + Ax + B, handed its HeightModel, once per memo key
    (A, B, tol, *point_ints of each); the memo keeps that model once per
    key (A, B).  pts maps each point's point_ints on the model to the
    point on the fiber, which the certificate carries."""
    key = (A, B, tol, *(n for P in pts for n in P))
    cert = memo.get(key)
    if cert is None:
        model = memo.get((A, B))
        if model is None:
            model = memo[(A, B)] = HeightModel(A, B)
        cert = memo[key] = gram_certify(model.curve, [point_from_ints(P) for P in pts], tol, model)
    return replace(cert, points=tuple(pts.values()))


def certify_fiber(
    f: Family, w: TotalSpacePoint, tol=DEFAULT_SCAN_TOL, memo: Optional[dict] = None
) -> WitnessCertificate:
    """Assemble and certify the point set {specialized sections} + {witness}
    on the candidate's fiber w.curve.

    A torsion witness never makes a jump: only the non-torsion sections are
    certified, each once, however many sections meet at it.  So the point at
    infinity O as the witness certifies the live sections alone (that is
    neron_check's use).  Otherwise the full Gram certificate is attempted
    and, on failure, retried on the witness singleton (a partial certificate
    beats none); a set with P = -Q has determinant exactly 0, so then only
    the singleton is tried.  Gram refinement may go down to tol/10; it stops at
    the first positive determinant, so most independent sets resolve well
    above that depth.

    The torsion screens and the Gram steps run on the fiber's integral
    model, which w carries with its scale u and the witness on it as ints
    (TotalSpacePoint); only the sections are mapped there, by
    (x, y) -> (u^2 x, u^3 y).  Candidates certified with one memo dict
    compute each torsion status and each Gram outcome once per integral
    model and integral points, and each model's height constants (its
    HeightModel) once per (A, B): the map preserves torsion, canonical
    heights and the group law, so a shared answer is the one this fiber
    would compute.  A curve or point on the model is built only on a miss.
    A Gram is handed the HeightModel and gets only points screened
    non-torsion here, so it runs on the model as given and skips their
    torsion screen (see gram_certify).  The certificate keeps the fiber's
    curve, sections and witness, read off w.

    No point is checked on the fiber here.  A miss checks it on the model
    (torsion_order and gram_certify require their points on the curve), and
    a hit means an earlier call checked this very integral point on this
    very model.  The map is a bijection from the fiber onto the model, so
    either way a point off the fiber raises PointNotOnCurve.
    """
    gram_tol = _gram_tol(tol)
    memo = {} if memo is None else memo
    declared = f.declared_generic_rank
    C, W, A, B = w.curve, w.witness, w.A, w.B
    sections = f.sections_at(w.param, C)
    live = [(point_ints(point_to_integral(P, w.u)), P) for P in sections]
    live = [(Pi, P) for Pi, P in live if not _torsion(memo, A, B, Pi)]
    torsion = _torsion(memo, A, B, w.model_witness)
    # The points to certify, keyed by their point_ints on the model.  Sections
    # may meet at this parameter; a bound from distinct points is sound.
    keyed = dict(live + ([] if torsion else [(w.model_witness, W)]))
    # -P's point_ints flip y's numerator.  No point matches itself: y = 0
    # makes a point 2-torsion, and torsion points are never keyed.
    if not torsion and any((xn, xd, -yn, yd) in keyed for xn, xd, yn, yd in keyed):
        keyed = {w.model_witness: W}
    gram = _gram(memo, A, B, keyed, gram_tol) if keyed else None
    if not torsion and not gram.certified and len(keyed) > 1:
        keyed = {w.model_witness: W}
        gram = _gram(memo, A, B, keyed, gram_tol)
    lb = len(keyed) if gram is not None and gram.certified else 0
    if torsion:
        status = "torsion-witness"
    else:
        status = "certified" if gram.certified else "inconclusive"
    return WitnessCertificate(
        family_id=f.family_id,
        param=w.param,
        curve=C,
        section_points=tuple(sections),
        witness=W,
        gram=gram,
        certified_rank_lb=lb,
        declared_generic_rank=declared,
        jump=not torsion and lb > declared,
        status=status,
    )


@dataclass(frozen=True)
class ScanReport:
    family_id: str
    bound: int
    mode: str
    tol: str
    certificates: tuple[WitnessCertificate, ...]
    candidates: int
    degenerate: int
    torsion_witness: int
    certified: int
    inconclusive: int
    distinct_params: int

    def to_json(self) -> dict:
        return {
            "family_id": self.family_id,
            "config": {"bound": self.bound, "mode": self.mode, "tol": self.tol},
            "stats": {
                "candidates": self.candidates,
                "degenerate": self.degenerate,
                "torsion_witness": self.torsion_witness,
                "certified": self.certified,
                "inconclusive": self.inconclusive,
                "distinct_params": self.distinct_params,
            },
            "certificates": self.certificates,
        }

    def certified_params(self) -> list[Fraction]:
        return [c.param for c in self.certificates if c.status == "certified"]


def _certify_param(
    f: Family, ws: list[TotalSpacePoint], tol: Decimal, memo: dict
) -> tuple[Optional[WitnessCertificate], int, int]:
    """One param's candidates in stream order: (kept certificate, torsion
    witnesses, section poles).

    certify_fiber runs until a candidate certifies; the report never keeps
    a later candidate's certificate, so after that only its torsion status
    counts, read from its integral form with no fiber built.  No pole can
    follow: the sections depend only on the param.
    """
    kept: Optional[WitnessCertificate] = None
    torsion = poles = 0
    for w in ws:
        if kept is not None and kept.status == "certified":
            torsion += _torsion(memo, w.A, w.B, w.model_witness)
            continue
        try:
            cert = certify_fiber(f, w, tol, memo)
        except PoleAtPoint:
            poles += 1
            continue
        torsion += cert.status == "torsion-witness"
        if kept is None or cert.status == "certified":
            kept = cert
    return kept, torsion, poles


def _certify_share(args) -> list[tuple[Optional[WitnessCertificate], int, int]]:
    """_certify_param over one share of param groups with one memo, which
    holds an entry per distinct integral key the share meets and goes when
    the share ends."""
    f, groups, tol = args
    memo: dict = {}
    return [_certify_param(f, ws, tol, memo) for ws in groups]


def scan(
    f: Family,
    bound: int,
    mode: str = "total-first",
    tol=DEFAULT_SCAN_TOL,
    jobs: int = 1,
) -> ScanReport:
    """Certify the witness candidates and keep one certificate per param.

    First certified wins; params never certified keep their first attempt
    (status shows why).  Each param's candidates are run in stream order
    until one certifies; later ones are only screened for torsion.  The
    params go in stream order in min(jobs, params) contiguous shares whose
    sizes differ by at most 1, so one share (and no pool) when jobs = 1;
    each share is one pool.map item, and the pool starts one worker per
    share up to the CPU count.  The shares depend on jobs alone, not on the
    machine.  The walk hands each candidate over in integral form
    (TotalSpacePoint), so no fiber is mapped to its model here, and the
    workers receive ints and params.  A share's candidates use one memo
    (see certify_fiber), keyed by those ints, so isomorphic fibers are
    certified once per share.  A memo only saves work and never changes an
    answer, and the tally depends only on the order within a param, so
    sequential and parallel runs produce identical reports.
    """
    require_valid(f)
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    tol_d = tolerance(tol)
    points, stats = witness_stream(f, bound, mode)
    by_param: dict[Fraction, list[TotalSpacePoint]] = {}
    for w in points:
        by_param.setdefault(w.param, []).append(w)
    groups = list(by_param.values())
    n, k = len(groups), min(jobs, len(groups))
    shares = [(f, groups[i * n // k : (i + 1) * n // k], tol_d) for i in range(k)]

    if len(shares) > 1:
        import multiprocessing as mp

        with mp.Pool(min(len(shares), os.cpu_count() or 1)) as pool:
            per_share = pool.map(_certify_share, shares)
    else:
        per_share = [_certify_share(s) for s in shares]
    results = [r for rs in per_share for r in rs]

    kept = [cert for cert, _, _ in results if cert is not None]
    torsion_count = sum(n for _, n, _ in results)
    degenerate_cert = sum(n for _, _, n in results)

    ordered = sorted(kept, key=lambda c: (rat_height(c.param), c.param))
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


@dataclass(frozen=True)
class NeronCheckReport:
    """Empirical specialization check: how often do the declared sections
    stay certified-independent in the fibers?  The theory predicts failures
    are confined to a thin set; the report states fractions, never a verdict.
    """

    family_id: str
    bound: int
    tol: str
    sampled: int
    certified_independent: int
    inconclusive: tuple[Fraction, ...]
    exact_dependent: tuple[tuple[Fraction, tuple[int, ...]], ...]

    def to_json(self) -> dict:
        return {
            "family_id": self.family_id,
            "config": {"bound": self.bound, "tol": self.tol},
            "sampled": self.sampled,
            "certified_independent": self.certified_independent,
            "inconclusive": [format_rational(q) for q in self.inconclusive],
            "exact_dependent": [
                {"param": format_rational(q), "relation": list(rel)}
                for q, rel in self.exact_dependent
            ],
        }


def neron_check(f: Family, bound: int, tol=DEFAULT_SCAN_TOL) -> NeronCheckReport:
    """Are the declared sections certified independent at each param of
    height <= bound with a smooth fiber and no section pole?

    Each fiber goes through certify_fiber with O as the witness, one memo
    for the whole check.  It counts as certified independent when the
    certified bound is the section count (so none is torsion and no two
    meet); otherwise small_relation_search (|n_i| <= 12) tells
    exact_dependent from inconclusive.
    """
    if not f.sections:
        raise ValueError("neron_check needs a Weierstrass pencil with >= 1 section")
    require_valid(f)
    if bound < 1:
        raise ValueError("bound must be >= 1")
    tol_d = tolerance(tol)
    memo: dict = {}
    certified = 0
    inconclusive: list[Fraction] = []
    dependent: list[tuple[Fraction, tuple[int, ...]]] = []
    sampled = 0
    for lam in iter_rationals(bound):
        try:
            C = fiber_at(f, lam)
            w = TotalSpacePoint.on_model(lam, *integral_model(C), INFINITY)
            cert = certify_fiber(f, w, tol_d, memo)
        except (DegenerateFiber, PoleAtPoint):
            continue
        sampled += 1
        pts = cert.section_points
        if cert.certified_rank_lb == len(pts):
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


@dataclass(frozen=True)
class BillingWitness:
    x0: Fraction
    s: Fraction
    point: Point
    twist_curve: Curve

    def to_json(self) -> dict:
        return {
            "x0": format_rational(self.x0),
            "s": format_rational(self.s),
            "point": str(self.point),
            "twist_curve": _curve_json(self.twist_curve),
        }


@dataclass(frozen=True)
class BillingCertificate:
    """Certifies rank E(Q(sqrt d_1, ..., sqrt d_r)) >= r.

    Each class d_i comes with a certified non-torsion point on the twist
    Y^2 = X^3 + A d^2 X + B d^3; independence of the classes in Q*/(Q*)^2
    makes the compositum have degree 2^r.
    """

    curve: Curve
    r: int
    classes: tuple[int, ...]
    witnesses: tuple[BillingWitness, ...]
    rank_bound: int

    def to_json(self) -> dict:
        _, basis = class_vectors(self.classes)
        proof = {
            "prime_basis": basis,
            "vectors": [
                {"class": c, "sign": int(c < 0), "odd_primes": list(factorize(abs(c)))}
                for c in self.classes
            ],
            "f2_rank": len(self.classes),
        }
        return {
            "curve": _curve_json(self.curve),
            "r": self.r,
            "classes": list(self.classes),
            "witnesses": self.witnesses,
            "independence_proof": proof,
            "rank_bound": self.rank_bound,
            "field_degree": 2**self.r,
        }

    def revalidate(self) -> None:
        """Re-check every exact claim; raises InvalidCertificate on any failure."""
        _require(
            len(self.classes) == len(self.witnesses) == self.r == self.rank_bound,
            "class, witness, r and rank_bound counts disagree",
        )
        _require(
            all(c not in (0, 1) and squarefree_part(c) == c for c in self.classes),
            "a class is 0, 1 or not squarefree",
        )
        _require(square_class_independent(self.classes), "classes are not independent")
        A, B = self.curve.A, self.curve.B
        for cls, wit in zip(self.classes, self.witnesses):
            d = Fraction(cls)
            _require(
                wit.twist_curve.A == A * d * d and wit.twist_curve.B == B * d**3,
                "twist curve does not match its class",
            )
            _require(on_curve(wit.twist_curve, wit.point), "witness off its twist")
            _require(not is_torsion(wit.twist_curve, wit.point), "witness is torsion")
            # d * s^2 = q(X/d) on the depressed base model: the twist equation
            # pulled back through (x, y) -> (d x, d^2 y).
            xq = wit.point.x / d
            _require(d * wit.s**2 == xq**3 + A * xq + B, "twist pullback failed")


def _require(holds: bool, claim: str) -> None:
    if not holds:
        raise InvalidCertificate(claim)


def billing_build(p: Poly, r: int, bound: int) -> BillingCertificate:
    """Find r independent square classes d with a certified non-torsion
    point on each twist, by walking x0 = 1, 2, ..., bound.

    Each hit p(x0) = d * s^2 (d squarefree, d not in {0, 1}) is the
    point (x0, s) on the fiber t = d of twist_linear t y^2 = p(x), mapped
    by the family's `point` to the integral form of its point on
    Y^2 = X^3 + A d^2 X + B d^3, which w.witness and w.curve read back.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    f = TwistLinear(p=p)
    require_valid(f)
    if bound < 1:
        raise ValueError("bound must be >= 1")
    classes: list[int] = []
    witnesses: list[BillingWitness] = []
    for n in range(1, bound + 1):
        x0 = Fraction(n)
        val = poly_eval(p, x0)
        if val == 0:
            continue
        cls = squarefree_part_of_rational(val)
        if cls == 1:
            continue
        d = Fraction(cls)
        s = is_rational_square(val / d)
        _require(s is not None, f"p({n}) / {cls} is not a square")
        w = f.point(d, d, f.fiber_model(d), x0, s, val)
        if is_torsion(w.curve, w.witness):
            continue
        if not square_class_independent(classes + [cls]):
            continue
        classes.append(cls)
        witnesses.append(BillingWitness(x0=x0, s=s, point=w.witness, twist_curve=w.curve))
        if len(classes) == r:
            break
    if len(classes) < r:
        raise SearchExhausted(
            f"found {len(classes)} of {r} independent twist classes with x0 <= {bound}"
        )
    cert = BillingCertificate(
        curve=f.cubic,
        r=r,
        classes=tuple(classes),
        witnesses=tuple(witnesses),
        rank_bound=r,
    )
    cert.revalidate()
    return cert
