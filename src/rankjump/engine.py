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

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Optional

from .curves import Curve, Point, is_torsion, on_curve, small_relation_search
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
            "heights": [] if self.gram is None else [h.to_json() for h in self.gram.heights],
            "gram": self.gram.to_json() if self.gram is not None else None,
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


def certify_fiber(f: Family, w: TotalSpacePoint, tol=DEFAULT_SCAN_TOL) -> WitnessCertificate:
    """Assemble and certify the point set {specialized sections} + {witness}
    on the candidate's fiber w.curve.

    A torsion witness never makes a jump: only the non-torsion sections are
    certified.  Otherwise the full Gram certificate is attempted and, on
    failure, retried on the witness singleton (a partial certificate beats
    none).  Gram refinement may go down to tol/10; it stops at the first
    positive determinant, so most independent sets resolve well above that
    depth.
    """
    gram_tol = _gram_tol(tol)
    declared = f.declared_generic_rank
    C = w.curve
    sections = f.sections_at(w.param, C)
    live_sections = [P for P in sections if not is_torsion(C, P)]
    torsion = is_torsion(C, w.witness)  # raises PointNotOnCurve off the fiber
    # Sections may meet at this parameter; a bound from distinct points is sound.
    pts = list(dict.fromkeys(live_sections + ([] if torsion else [w.witness])))
    gram = gram_certify(C, pts, gram_tol) if pts else None
    if not torsion and not gram.certified and len(pts) > 1:
        pts = [w.witness]
        gram = gram_certify(C, pts, gram_tol)
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
            "certificates": [c.to_json() for c in self.certificates],
        }

    def certified_params(self) -> list[Fraction]:
        return [c.param for c in self.certificates if c.status == "certified"]


def _certify_candidate(args) -> Optional[WitnessCertificate]:
    f, w, tol = args
    try:
        return certify_fiber(f, w, tol)
    except PoleAtPoint:
        return None


def scan(
    f: Family,
    bound: int,
    mode: str = "total-first",
    tol=DEFAULT_SCAN_TOL,
    jobs: int = 1,
) -> ScanReport:
    """Certify every witness candidate and keep one certificate per param.

    First certified wins; params never certified keep their first attempt
    (status shows why).  Every candidate is attempted regardless of jobs,
    so sequential and parallel runs produce identical reports.
    """
    require_valid(f)
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    tol_d = tolerance(tol)
    points, stats = witness_stream(f, bound, mode)

    if jobs > 1 and len(points) > 1:
        import multiprocessing as mp

        with mp.Pool(min(jobs, len(points))) as pool:
            results = pool.map(_certify_candidate, [(f, w, tol_d) for w in points])
    else:
        results = [_certify_candidate((f, w, tol_d)) for w in points]

    kept: dict[Fraction, WitnessCertificate] = {}
    torsion_count = 0
    degenerate_cert = 0
    for cert in results:
        if cert is None:  # pole of a section coordinate at this parameter
            degenerate_cert += 1
            continue
        if cert.status == "torsion-witness":
            torsion_count += 1
        prev = kept.get(cert.param)
        if prev is None:
            kept[cert.param] = cert
        elif prev.status != "certified" and cert.status == "certified":
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
            "witnesses": [w.to_json() for w in self.witnesses],
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
