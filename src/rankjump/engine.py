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
    Curve,
    Point,
    integral_model,
    is_torsion,
    on_curve,
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
from .heights import GramCertificate, gram_certify, tolerance
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


def _ints(P: Point) -> tuple[int, int, int, int]:
    """P as four ints, the form memo keys take; (0, 0, 0, 0) is the point
    at infinity (no affine coordinate has denominator 0)."""
    if P.is_infinity:
        return 0, 0, 0, 0
    return P.x.numerator, P.x.denominator, P.y.numerator, P.y.denominator


def _torsion(memo: dict, Cm: Curve, u: int, P: Point) -> bool:
    """Whether P, on the curve with integral model Cm and scale u, is
    torsion: is_torsion on Cm, once per memo key (A, B, four ints of the
    integral point)."""
    Pm = point_to_integral(P, u)
    key = (Cm.A.numerator, Cm.B.numerator, *_ints(Pm))
    known = memo.get(key)
    if known is None:
        known = memo[key] = is_torsion(Cm, Pm)
    return known


def _gram(memo: dict, Cm: Curve, u: int, pts: list[Point], tol: Decimal) -> GramCertificate:
    """gram_certify for pts on the curve with integral model Cm and scale u,
    once per memo key (A, B, tol, four ints per integral point); the
    certificate carries pts themselves."""
    ipts = [point_to_integral(P, u) for P in pts]
    key = (Cm.A.numerator, Cm.B.numerator, tol, *(n for P in ipts for n in _ints(P)))
    cert = memo.get(key)
    if cert is None:
        cert = memo[key] = gram_certify(Cm, ipts, tol)
    return replace(cert, points=tuple(pts))


def certify_fiber(
    f: Family, w: TotalSpacePoint, tol=DEFAULT_SCAN_TOL, memo: Optional[dict] = None
) -> WitnessCertificate:
    """Assemble and certify the point set {specialized sections} + {witness}
    on the candidate's fiber w.curve.

    A torsion witness never makes a jump: only the non-torsion sections are
    certified.  Otherwise the full Gram certificate is attempted and, on
    failure, retried on the witness singleton (a partial certificate beats
    none).  Gram refinement may go down to tol/10; it stops at the first
    positive determinant, so most independent sets resolve well above that
    depth.

    The points are mapped once to the fiber's integral model Cm, where the
    torsion screens and the Gram steps run.  Candidates certified with one
    memo dict compute each torsion status and each Gram outcome once per
    integral model and integral points: (x, y) -> (u^2 x, u^3 y) preserves
    torsion, canonical heights and the group law, so a shared answer is the
    one this fiber would compute.  The certificate keeps its own curve,
    sections and witness.

    No point is checked on the fiber here.  A miss checks it on Cm
    (torsion_order and gram_certify require their points on the curve), and
    a hit means an earlier call checked this very integral point on this
    very Cm.  The map is a bijection from the fiber onto Cm, so either way
    a point off the fiber raises PointNotOnCurve.
    """
    gram_tol = _gram_tol(tol)
    memo = {} if memo is None else memo
    declared = f.declared_generic_rank
    C = w.curve
    sections = f.sections_at(w.param, C)
    Cm, u = integral_model(C)
    live_sections = [P for P in sections if not _torsion(memo, Cm, u, P)]
    torsion = _torsion(memo, Cm, u, w.witness)
    # Sections may meet at this parameter; a bound from distinct points is sound.
    pts = list(dict.fromkeys(live_sections + ([] if torsion else [w.witness])))
    gram = _gram(memo, Cm, u, pts, gram_tol) if pts else None
    if not torsion and not gram.certified and len(pts) > 1:
        pts = [w.witness]
        gram = _gram(memo, Cm, u, pts, gram_tol)
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
    counts.  No pole can follow: the sections depend only on the param.
    """
    kept: Optional[WitnessCertificate] = None
    torsion = poles = 0
    for w in ws:
        if kept is not None and kept.status == "certified":
            torsion += _torsion(memo, *integral_model(w.curve), w.witness)
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


def _certify_batch(args) -> list[tuple[Optional[WitnessCertificate], int, int]]:
    """_certify_param over a batch of param groups with one memo, which
    holds an entry per distinct integral key the batch meets and goes when
    the batch ends."""
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
    params go in contiguous batches: one batch when jobs = 1, else about
    four per worker (pool.map's own chunking), one pool.map item each.  The
    pool starts at most one worker per batch and per CPU; the batches
    depend on jobs alone, not on the machine.  A batch's candidates share
    one memo (see certify_fiber), so isomorphic fibers are certified once
    per batch.  A memo only saves work and never changes an answer, and the
    tally depends only on the order within a param, so sequential and
    parallel runs produce identical reports.
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
    # about four batches per worker, as pool.map would chunk the groups
    size = max(1, len(groups) if jobs == 1 else -(-len(groups) // (4 * jobs)))
    batches = [(f, groups[i : i + size], tol_d) for i in range(0, len(groups), size)]

    if len(batches) > 1:
        import multiprocessing as mp

        with mp.Pool(min(jobs, len(batches), os.cpu_count() or 1)) as pool:
            per_batch = pool.map(_certify_batch, batches)
    else:
        per_batch = [_certify_batch(b) for b in batches]
    results = [r for rs in per_batch for r in rs]

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
    if not f.sections:
        raise ValueError("neron_check needs a Weierstrass pencil with >= 1 section")
    require_valid(f)
    if bound < 1:
        raise ValueError("bound must be >= 1")
    tol_d = tolerance(tol)
    gram_tol = _gram_tol(tol_d)
    certified = 0
    inconclusive: list[Fraction] = []
    dependent: list[tuple[Fraction, tuple[int, ...]]] = []
    sampled = 0
    for lam in iter_rationals(bound):
        try:
            C = fiber_at(f, lam)
            pts = f.sections_at(lam, C)
        except (DegenerateFiber, PoleAtPoint):
            continue
        sampled += 1
        # Sections that meet at lam are dependent; only the relation search applies.
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
    into Y^2 = X^3 + A d^2 X + B d^3 by the family's `point`.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    f = TwistLinear(p=p)
    require_valid(f)
    if bound < 1:
        raise ValueError("bound must be >= 1")
    base = Curve(*f.depressed[:2])
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
        w = f.point(f.fiber(d), d, d, x0, s, val)
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
        curve=base,
        r=r,
        classes=tuple(classes),
        witnesses=tuple(witnesses),
        rank_bound=r,
    )
    cert.revalidate()
    return cert
