"""The concrete fibrations: twist families d(t)y^2 = p(x) over the t-line,
the Fermat cubic pencil x^3 + y^3 + (lam^3+1)t^3 = 0, and user-declared
Weierstrass pencils with sections.

Twist fibers are standardized by depressing p to X^3 + AX + B and
multiplying d0*y^2 = p(x) through by d0^3:

    Y^2 = X^3 + A*d0^2*X + B*d0^3,   X = d0*(x + s),  Y = d0^2*y

with s the depression shift.  The cubic pencil fiber x^3 + y^3 = c,
c = -(lam^3 + 1), becomes Y^2 = X^3 - 432c^2 under the classical map
X = 12c/(x+y), Y = 36c(x-y)/(x+y); x + y = 0 lands on the 3-torsion
packet of the zero section and is rejected.

Each family kind is one frozen dataclass that answers every fact about
itself: identifier, declared generic rank, sections, validation findings,
fiber at a parameter, witness walks, the map `point` from a walk's point
into its fiber's integral form, and sign regions.  Its JSON fields are
its dataclass fields.  What depends on the family alone (its identifier,
a twist's depressed cubic and its curve, d(t) and the integer forms of p
and d) is computed once per family object and cached on it;
the cache is not a field, so equality, hashing and the JSON form ignore
it.  Module-level code is what no single kind owns: the JSON decoder
`family_from_json` (family files are read, never written),
the `witness_stream` driver, and the public entry points `validate_family`,
`require_valid` (the admission rule that `scan`, `neron_check` and
`billing_build` apply before any work) and `fiber_at`.

A candidate is emitted in integral form (`TotalSpacePoint`): the walk that
finds a witness hands over the fiber's integral model, its scale and the
witness on the model as ints, which is where certification runs.  The
scale is decided by one rule, `curves.integral_scale`: the twist walks
apply it to the fiber's two reduced denominators, built from integers
alone, and the other kinds map each fiber once with `integral_model`,
which applies it too.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Callable, Iterator, Optional

from .curves import (
    Curve,
    Point,
    integral_model,
    integral_scale,
    on_curve,
    point_from_ints,
    point_ints,
    point_to_integral,
)
from .errors import (
    DegenerateFiber,
    FamilyFormatError,
    PoleAtPoint,
    SingularCurve,
)
from .factorization import squarefree_part
from .polynomials import (
    IntForm,
    Poly,
    RatFunc,
    degree,
    depress_cubic,
    int_form,
    int_form_eval,
    is_squarefree,
    parse_poly,
    poly,
    poly_eval,
    poly_text,
    ratfunc,
    ratfunc_from_json,
)
from .rationals import (
    format_rational,
    int_pair_is_square,  # unused here; perfbench's tracer counts calls through this binding
    is_rational_square,
    iter_rationals,
    parse_rational,
)


@dataclass(frozen=True)
class TotalSpacePoint:
    """A rational point of the total space in integral form: its param, the
    integral model y^2 = x^3 + Ax + B (A, B ints) of the standardized fiber
    there and its scale u, as integral_model gives them, and the
    witness on the model as `point_ints`.  The fiber `curve` and the
    `witness` on it, which a report row shows, are read back from these
    ints: (A/u^4, B/u^6) and (x/u^2, y/u^3)."""

    param: Fraction
    A: int
    B: int
    u: int
    model_witness: tuple[int, int, int, int]

    @classmethod
    def on_model(cls, param: Fraction, A: int, B: int, u: int, P: Point) -> "TotalSpacePoint":
        """P on the fiber at param, given the fiber's integral model and
        scale (A, B, u) = integral_model(fiber)."""
        return cls(param, A, B, u, point_ints(point_to_integral(P, u)))

    @property
    def curve(self) -> Curve:
        u = self.u
        return Curve(Fraction(self.A, u**4), Fraction(self.B, u**6))

    @property
    def witness(self) -> Point:
        xn, xd, yn, yd = self.model_witness
        u = self.u
        return point_from_ints((xn, xd * u * u, yn, yd * u**3))


@dataclass(frozen=True)
class Finding:
    severity: str  # "error" | "warning"
    code: str
    message: str


def _error(code: str, message: str) -> Finding:
    return Finding("error", code, message)


@dataclass
class StreamStats:
    """Counters of one witness walk.

    - `enumerated`: the candidates the walk looked at.  The pencil
      fiber-first walk counts every (param, X0) pair it square-tests; the
      twist total-first walk counts every (x0, y0) pair and the cubic walk
      every Euler pair.  The twist fiber-first walk counts only the
      (param, x0) pairs its square-class join returns, each a witness, so
      there it equals `emitted`.
    - `degenerate_skipped`: on fiber-first walks, the params whose fiber is
      degenerate (d(param) = 0 on twists); on the twist total-first walk,
      the (x0, y0) pairs with p(x0) = 0.  Only this counter reaches the
      report.
    - `emitted`: the points the walk yielded, set by `witness_stream`.
    """

    enumerated: int = 0
    degenerate_skipped: int = 0
    emitted: int = 0


class Family:
    """Base of the family kinds.  The defaults fit a kind whose identifier
    is its kind name, with no sections, sign regions or total-space walk."""

    sections: tuple[tuple[RatFunc, RatFunc], ...] = ()

    def __post_init__(self) -> None:
        rank = self.generic_rank
        # None is allowed only where it is the default: a pencil that
        # declares no rank declares its section count.
        if rank is None and type(self).generic_rank is None:
            return
        if type(rank) is not int or rank < 0:
            raise FamilyFormatError(f"generic_rank must be an integer >= 0, got {rank!r}")

    @cached_property
    def family_id(self) -> str:
        return self.kind

    @property
    def declared_generic_rank(self) -> int:
        """The declared generic rank, else the number of declared sections."""
        return len(self.sections) if self.generic_rank is None else self.generic_rank

    def findings(self) -> list[Finding]:
        return []

    def sign_regions(self) -> Optional[list[tuple[str, int, Callable[[Fraction], bool]]]]:
        """(name, sign of the twist coefficient, membership) for each sign
        region of the t-line; None for kinds without such a report."""
        return None

    def sections_at(self, lam: Fraction, C: Curve) -> list[Point]:
        """The declared sections at lam, each verified on the fiber C."""
        out = []
        for X, Y in self.sections:
            P = Point(X.eval(lam), Y.eval(lam))
            if not on_curve(C, P):
                raise ValueError(f"section specializes off the fiber at {lam}")
            out.append(P)
        return out

    def total_first(self, bound: int, stats: StreamStats) -> Iterator[TotalSpacePoint]:
        return self.fiber_first(bound, stats)

    def fiber_first(self, bound: int, stats: StreamStats) -> Iterator[TotalSpacePoint]:
        """Search x on the standardized fiber directly."""
        rats = list(iter_rationals(bound))
        for lam in rats:
            try:
                C = self.fiber(lam)
            except DegenerateFiber:
                stats.degenerate_skipped += 1
                continue
            model = integral_model(C)
            A, B = C.A, C.B
            for X0 in rats:
                stats.enumerated += 1
                Y0 = is_rational_square(X0**3 + A * X0 + B)
                if Y0 is not None:
                    yield TotalSpacePoint.on_model(lam, *model, Point(X0, Y0))


class _Twist(Family):
    """d(t) y^2 = p(x), with d(t) a polynomial `d` on every twist kind."""

    @cached_property
    def depressed(self) -> tuple[Fraction, Fraction, Fraction]:
        """(A, B, s): p(x - s) = x^3 + Ax + B."""
        return depress_cubic(self.p)

    @cached_property
    def forms(self) -> tuple[IntForm, IntForm]:
        """The integer forms (int_form) of p and d, which the walks evaluate."""
        return int_form(self.p), int_form(self.d)

    @cached_property
    def cubic(self) -> Curve:
        """y^2 = x^3 + Ax + B for the depressed cubic; SingularCurve for an
        inseparable p."""
        A, B, _ = self.depressed
        return Curve(A, B)

    def fiber(self, lam: Fraction) -> Curve:
        d0 = poly_eval(self.d, lam)
        if d0 == 0:
            raise DegenerateFiber(f"d({format_rational(lam)}) = 0")
        A, B, _ = self.depressed
        try:
            return Curve(A * d0 * d0, B * d0**3)
        except SingularCurve as exc:
            raise DegenerateFiber(str(exc)) from exc

    def fiber_model(self, d0: Fraction) -> tuple[int, int, int]:
        """(A, B, u): the integral model of the fiber where d(t) = d0 = a/b
        and its scale, as integral_model gives them, from ints: the fiber is
        y^2 = x^3 + (A a^2/b^2) x + B a^3/b^3 for the cubic's A and B, and u
        is integral_scale of the reduced denominators of its coefficients."""
        if d0 == 0:
            raise DegenerateFiber("d(t) = 0")
        A, B = self.cubic.A, self.cubic.B
        a, b = d0.numerator, d0.denominator
        nA, dA = A.numerator * a * a, A.denominator * b * b
        nB, dB = B.numerator * a**3, B.denominator * b**3
        u = integral_scale(dA // gcd(nA, dA), dB // gcd(nB, dB))
        return nA * u**4 // dA, nB * u**6 // dB, u

    def point(
        self, lam: Fraction, d0: Fraction, model: tuple, x0: Fraction, y0: Fraction, v: Fraction
    ) -> TotalSpacePoint:
        """(x0, y0) at lam in integral form, given d0 = d(lam), the fiber's
        model = fiber_model(d0) and v = p(x0).  On the fiber the point is
        X = d0 (x0 + s), Y = d0^2 y0, and on the model (u^2 X, u^3 Y).
        Raises ValueError unless d0 y0^2 = v, an identity of ints."""
        a, b = d0.numerator, d0.denominator
        yn, yd = y0.numerator, y0.denominator
        if a * yn * yn * v.denominator != v.numerator * b * yd * yd:
            raise ValueError(
                f"d({format_rational(lam)})*y0^2 != p(x0) at ({format_rational(x0)}, {format_rational(y0)})"
            )
        A, B, u = model
        s = self.depressed[2]
        xn, xd = x0.numerator, x0.denominator
        X, Xd = u * u * a * (xn * s.denominator + s.numerator * xd), b * xd * s.denominator
        Y, Yd = u**3 * a * a * yn, b * b * yd
        g, h = gcd(X, Xd), gcd(Y, Yd)
        return TotalSpacePoint(lam, A, B, u, (X // g, Xd // g, Y // h, Yd // h))

    def findings(self) -> list[Finding]:
        out: list[Finding] = []
        if degree(self.p) != 3:
            out.append(_error("p-degree", f"p must be a cubic, got degree {degree(self.p)}"))
        elif self.p[3] != 1:
            out.append(
                _error("p-monic", "p must be monic (non-monic twists are rejected, not normalized)")
            )
        elif not is_squarefree(self.p):
            out.append(_error("p-separable", "p must be separable: its discriminant vanishes"))
        return out + self._d_findings()

    def _d_findings(self) -> list[Finding]:
        return []

    def fiber_first(self, bound: int, stats: StreamStats) -> Iterator[TotalSpacePoint]:
        """(lam, x0) pairs with d(lam) * y0^2 = p(x0), joined on square classes.

        For d0 != 0, v/d0 is a rational square exactly when v = 0 or v and
        d0 lie in the same class of Q*/(Q*)^2, i.e. have the same signed
        squarefree part.  So each x0 is filed once under the class of p(x0),
        and each lam reads the one list filed under the class of d(lam): one
        factorization per rational, and the work per lam is its witnesses.
        The rational roots of p (v = 0) square with every d0.  They are
        merged once into every list at their place in walk order, and are
        the whole list of a class no other x0 fills.  So each lam yields its
        witnesses in the order of a (lam, x0) double loop over the rationals.

        p and d are evaluated as integer forms: a value N / D has the class
        of N D, and a Fraction is built only for each value kept.  A lam
        with no witness gets no fiber model.
        """
        rats = list(iter_rationals(bound))
        pf, df = self.forms
        roots: list[tuple[int, Fraction, Fraction]] = []
        buckets: dict[int, list[tuple[int, Fraction, Fraction]]] = {}
        for i, x0 in enumerate(rats):
            N, D = int_form_eval(pf, x0)
            if N == 0:
                roots.append((i, x0, Fraction(0)))
            else:
                buckets.setdefault(squarefree_part(N * D), []).append((i, x0, Fraction(N, D)))
        for xs in buckets.values():
            xs += roots
            xs.sort()
        for lam in rats:
            N, D = int_form_eval(df, lam)
            if N == 0:
                stats.degenerate_skipped += 1
                continue
            xs = buckets.get(squarefree_part(N * D), roots)
            if not xs:
                continue
            d0 = Fraction(N, D)
            model = self.fiber_model(d0)
            for _, x0, v in xs:
                stats.enumerated += 1
                yield self.point(lam, d0, model, x0, is_rational_square(v / d0), v)

    def total_first(self, bound: int, stats: StreamStats) -> Iterator[TotalSpacePoint]:
        """Rationals x0 and y0 > 0 with p(x0) != 0, read in the fiber at each
        rational t the kind's `_params` solves from d(t) = d0 = p(x0)/y0^2.
        A param and x0 fix y0^2, so walking y0 > 0 emits each point once.
        p(x0) = N / D is evaluated as p's integer form, and d0 is built
        straight from N, D and y0.  A d0 with params gets one fiber model,
        which its params share."""
        rats = list(iter_rationals(bound))
        ys = [(y0, y0.numerator**2, y0.denominator**2) for y0 in rats if y0 > 0]
        pf = self.forms[0]
        for x0 in rats:
            N, D = int_form_eval(pf, x0)
            stats.enumerated += len(ys)
            if N == 0:  # a root of p: no fiber for any y0
                stats.degenerate_skipped += len(ys)
                continue
            v = Fraction(N, D)
            for y0, n2, d2 in ys:
                d0 = Fraction(N * d2, D * n2)
                ts = self._params(d0)
                if not ts:
                    continue
                model = self.fiber_model(d0)
                for t in ts:
                    yield self.point(t, d0, model, x0, y0, v)


@dataclass(frozen=True)
class TwistLinear(_Twist):
    """Fiber at t0: t0 * y^2 = p(x)."""

    p: Poly
    generic_rank: int = 0
    kind = "twist_linear"
    d = poly([0, 1])  # d(t) = t

    @cached_property
    def family_id(self) -> str:
        return f"twist_linear[p={poly_text(self.p)}]"

    @staticmethod
    def _params(d0: Fraction) -> tuple[Fraction, ...]:
        return (d0,)


@dataclass(frozen=True)
class TwistQuadratic(_Twist):
    """d(t) = c(t^2 - a); fiber at t0: d(t0) * y^2 = p(x)."""

    c: Fraction
    a: Fraction
    p: Poly
    generic_rank: int = 0
    kind = "twist_quadratic"

    @cached_property
    def d(self) -> Poly:
        return poly([-self.c * self.a, 0, self.c])

    @cached_property
    def family_id(self) -> str:
        return (
            f"twist_quadratic[c={format_rational(self.c)},a={format_rational(self.a)},"
            f"p={poly_text(self.p)}]"
        )

    def sign_regions(self) -> list[tuple[str, int, Callable[[Fraction], bool]]]:
        """For a < 0, d never changes sign and there is a single region.
        For a > 0, testing t^2 against a is exact although +-sqrt(a) are
        irrational."""
        a = self.a
        c_sign = 1 if self.c > 0 else -1
        if a < 0:
            return [("all t", c_sign, lambda q: True)]
        return [
            ("t < -sqrt(a)", c_sign, lambda q: q < 0 and q * q > a),
            ("-sqrt(a) < t < sqrt(a)", -c_sign, lambda q: q * q < a),
            ("t > sqrt(a)", c_sign, lambda q: q > 0 and q * q > a),
        ]

    def _d_findings(self) -> list[Finding]:
        out = []
        if self.c == 0:
            out.append(_error("d-degree", "c = 0 makes d(t) identically zero"))
        if self.a == 0:
            out.append(
                _error(
                    "d-separable",
                    "a = 0 makes d(t) = c*t^2 inseparable; the degree-2 twist hypothesis requires two distinct roots",
                )
            )
        return out

    def _params(self, d0: Fraction) -> tuple[Fraction, ...]:
        # c(t^2 - a) = d0; t = s and -s are one point when s = 0
        s = is_rational_square(d0 / self.c + self.a)
        return () if s is None else (s, -s) if s != 0 else (s,)


@dataclass(frozen=True)
class TwistPoly(_Twist):
    """General polynomial twist d(t) * y^2 = p(x)."""

    d: Poly
    p: Poly
    generic_rank: int = 0
    kind = "twist_poly"

    @cached_property
    def family_id(self) -> str:
        return f"twist_poly[d={poly_text(self.d, 't')},p={poly_text(self.p)}]"

    total_first = Family.total_first  # d(t) = d0 has no general solver: walk fiber-first

    def _d_findings(self) -> list[Finding]:
        if degree(self.d) < 1:
            return [_error("d-degree", "d must be non-constant")]
        if not is_squarefree(self.d):
            return [_error("d-separable", "d must be separable")]
        return []


@dataclass(frozen=True)
class CubicPencil(Family):
    """x^3 + y^3 + (lam^3 + 1) t^3 = 0 with zero section (1, -1, 0)."""

    generic_rank: int = 0
    kind = "cubic_pencil"

    @staticmethod
    def fiber(lam: Fraction) -> Curve:
        c = -(lam**3 + 1)
        if c == 0:
            raise DegenerateFiber("lam^3 + 1 = 0")
        return Curve(Fraction(0), -432 * c * c)

    @classmethod
    def point(cls, lam: Fraction, x: Fraction, y: Fraction) -> TotalSpacePoint:
        """Map (x, y) with x^3 + y^3 = -(lam^3+1) into the standardized fiber.

        Raises ValueError when x + y = 0 or (x, y) is off the surface."""
        lam, x, y = Fraction(lam), Fraction(x), Fraction(y)
        C = cls.fiber(lam)  # raises DegenerateFiber
        c = -(lam**3 + 1)
        if x + y == 0:
            raise ValueError("x + y = 0 maps to the zero section's 3-torsion packet")
        if x**3 + y**3 != c:
            raise ValueError(
                f"x^3 + y^3 != -(lam^3+1) at ({format_rational(x)}, {format_rational(y)})"
            )
        P = Point(12 * c / (x + y), 36 * c * (x - y) / (x + y))
        return TotalSpacePoint.on_model(lam, *integral_model(C), P)

    def total_first(self, bound: int, stats: StreamStats) -> Iterator[TotalSpacePoint]:
        for a, b in _euler_pairs(bound):
            stats.enumerated += 1
            yield self.point(*euler_parametrize(a, b))


@dataclass(frozen=True)
class WeierstrassPencil(Family):
    """Y^2 = X^3 + A(lam) X + B(lam) with declared sections."""

    A: RatFunc
    B: RatFunc
    sections: tuple[tuple[RatFunc, RatFunc], ...] = ()
    generic_rank: Optional[int] = None
    kind = "weierstrass_pencil"

    @cached_property
    def family_id(self) -> str:
        return f"weierstrass_pencil[{len(self.sections)} sections]"

    def findings(self) -> list[Finding]:
        out: list[Finding] = []
        disc = ratfunc([4]) * self.A * self.A * self.A + ratfunc([27]) * self.B * self.B
        if disc.is_zero():
            out.append(_error("pencil-singular", "4A^3 + 27B^2 = 0 identically in Q(lam)"))
        for i, (X, Y) in enumerate(self.sections):
            # Both sides are normalized RatFuncs, whose form is unique.
            if Y * Y != X * X * X + self.A * X + self.B:
                out.append(
                    _error(
                        "section-invalid",
                        f"section {i} does not satisfy Y^2 = X^3 + A X + B identically",
                    )
                )
        return out

    def fiber(self, lam: Fraction) -> Curve:
        try:
            return Curve(self.A.eval(lam), self.B.eval(lam))
        except (PoleAtPoint, SingularCurve) as exc:
            raise DegenerateFiber(str(exc)) from exc


_KINDS = {
    cls.kind: cls
    for cls in (TwistLinear, TwistQuadratic, TwistPoly, CubicPencil, WeierstrassPencil)
}


def validate_family(f: Family) -> list[Finding]:
    """Hypothesis checks; problems are returned as findings, never raised.

    One rule holds for every kind: a declared generic rank above the
    section count is a warning.  A certified rank lower bound counts at
    most the live sections plus the witness, so it cannot exceed such a
    rank and no scan row can claim a jump.
    """
    out = f.findings()
    rank, n = f.declared_generic_rank, len(f.sections)
    if rank > n:
        out.append(
            Finding(
                "warning",
                "generic-rank",
                f"declared generic rank {rank} exceeds the section count {n}; a certified rank "
                f"lower bound is at most {n} + 1 <= {rank}, so no scan row can claim a jump",
            )
        )
    return out


def require_valid(f: Family) -> None:
    """Raise FamilyFormatError naming each error finding of validate_family(f)."""
    errors = [x for x in validate_family(f) if x.severity == "error"]
    if errors:
        raise FamilyFormatError("; ".join(f"[{x.code}] {x.message}" for x in errors))


def fiber_at(f: Family, lam: Fraction) -> Curve:
    """The standardized fiber at a parameter; raises DegenerateFiber."""
    return f.fiber(Fraction(lam))


# Verified once by symbolic expansion (and re-verified per call in tests):
# (3a^2+5ab-5b^2)^3 + (4a^2-4ab+6b^2)^3 + (5a^2-5ab-3b^2)^3 = (6a^2-4ab+4b^2)^3
def euler_parametrize(a: int, b: int) -> tuple[Fraction, Fraction, Fraction]:
    """Euler's parametrization of x^3 + y^3 + z^3 + t^3 = 0: for (a, b) != 0,
    (lam, x, y) = (Z/T, X/T, Y/T) has T != 0, x + y != 0 and lam != -1, as
    T = -(6a^2 - 4ab + 4b^2), X + Y = 7a^2 + ab + b^2 and T + Z =
    -(a^2 + ab + 7b^2) are definite (discriminants -80, -27, -27).  Only
    +-(a, b) repeat a point: X, Y, Z are independent in (a^2, ab, b^2)
    (determinant 336), so (a : b) -> point is injective on P^1(Q).  Points
    sharing (lam, witness.x) share x + y, so are (x, y) and (y, x); Euler
    points lie in T = -X/4 - Y - Z/4, swapped ones in T = -Y/4 - X - Z/4,
    and these planes meet only where X = Y, i.e. a^2 - 9ab + 11b^2 = 0,
    which has no rational root (discriminant 37)."""
    if a == 0 and b == 0:
        raise ValueError("(a, b) must be nonzero")
    X = 3 * a * a + 5 * a * b - 5 * b * b
    Y = 4 * a * a - 4 * a * b + 6 * b * b
    Z = 5 * a * a - 5 * a * b - 3 * b * b
    T = -(6 * a * a - 4 * a * b + 4 * b * b)
    return Fraction(Z, T), Fraction(X, T), Fraction(Y, T)


def _euler_pairs(bound: int) -> Iterator[tuple[int, int]]:
    """Coprime (a, b) by height max(|a|, |b|), lexicographic within a height;
    of (a, b) and (-a, -b), which give one point, only the one < (0, 0)."""
    for m in range(1, bound + 1):
        for a in range(-m, 1):
            for b in range(-m, m + 1):
                if max(-a, abs(b)) == m and (a, b) < (0, 0) and gcd(a, b) == 1:
                    yield a, b


def witness_stream(
    f: Family, bound: int, mode: str = "total-first"
) -> tuple[list[TotalSpacePoint], StreamStats]:
    """Deterministic witness enumeration.

    total-first walks rational points of the total space and projects them
    to fibers; fiber-first walks (param, x) pairs and solves for y.  Kinds
    without a total-space parametrization (TwistPoly, WeierstrassPencil)
    fall back to fiber-first.  No walk emits a (param, witness.x) twice;
    the tests check this for each kind.  Each point comes in integral form
    (TotalSpacePoint), the form certification reads.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if mode not in ("total-first", "fiber-first"):
        raise ValueError(f"unknown mode {mode!r}")
    stats = StreamStats()
    walk = f.total_first if mode == "total-first" else f.fiber_first
    points = list(walk(bound, stats))
    stats.emitted = len(points)
    return points, stats


# ---------------------------------------------------------------------------
# JSON (External Interfaces): a kind's fields are exactly its dataclass
# fields plus "kind".  Each field name has one decoder.

_CODECS = {
    "p": parse_poly,
    "d": parse_poly,
    "c": lambda v: parse_rational(str(v)),
    "a": lambda v: parse_rational(str(v)),
    "A": ratfunc_from_json,
    "B": ratfunc_from_json,
    "sections": lambda v: tuple((ratfunc_from_json(X), ratfunc_from_json(Y)) for X, Y in v),
    "generic_rank": lambda v: v,  # checked by the family itself
}


def family_from_json(obj: dict) -> Family:
    if not isinstance(obj, dict):
        raise FamilyFormatError("family description must be a JSON object")
    kind = obj.get("kind")
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise FamilyFormatError(f"unknown family kind {kind!r}")
    extra = set(obj) - {f.name for f in fields(cls)} - {"kind"}
    if extra:
        raise FamilyFormatError(f"unknown fields for {kind}: {sorted(extra)}")
    kwargs = {}
    try:
        for f in fields(cls):
            if f.name in obj:
                kwargs[f.name] = _CODECS[f.name](obj[f.name])
            elif f.default is MISSING:
                raise FamilyFormatError(f"missing field {f.name!r} for {kind}")
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise FamilyFormatError(str(exc)) from exc
    return cls(**kwargs)

