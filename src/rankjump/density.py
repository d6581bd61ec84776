"""Desk-scale density proxies for certified parameter sets.

The underlying theorems are asymptotic density statements; a finite scan
can only report coverage, so everything here is descriptive: equal-width
real histograms, residue coverage mod p^k, and the sign-region report for
degree-2 twists.  Binning is exact rational arithmetic end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import WrongFamilyKind
from .families import Family, TwistQuadratic
from .rationals import format_rational

DEFAULT_RANGE = (Fraction(-10), Fraction(10))
DEFAULT_BINS = 20
DEFAULT_PRIMES = (2, 3, 5, 7)
DEFAULT_PADIC_DEPTH = 2


@dataclass(frozen=True)
class Histogram:
    lo: Fraction
    hi: Fraction
    counts: tuple[int, ...]
    in_range: int
    coverage: Fraction  # fraction of nonempty bins

    def to_json(self) -> dict:
        return {
            "lo": format_rational(self.lo),
            "hi": format_rational(self.hi),
            "bins": len(self.counts),
            "counts": list(self.counts),
            "in_range": self.in_range,
            "coverage": format_rational(self.coverage),
        }

    def csv_rows(self) -> list[list[str]]:
        width = (self.hi - self.lo) / len(self.counts)
        rows = []
        for i, c in enumerate(self.counts):
            rows.append(
                [
                    format_rational(self.lo + i * width),
                    format_rational(self.lo + (i + 1) * width),
                    str(c),
                ]
            )
        return rows


def real_histogram(
    params: Sequence[Fraction], lo: Fraction, hi: Fraction, bins: int
) -> Histogram:
    """Counts per equal-width bin over [lo, hi); exact rational binning."""
    if not lo < hi:
        raise ValueError("need lo < hi")
    if bins < 1:
        raise ValueError("need bins >= 1")
    lo, hi = Fraction(lo), Fraction(hi)
    counts = [0] * bins
    in_range = 0
    for q in params:
        if lo <= q < hi:
            t = (q - lo) * bins / (hi - lo)
            counts[t.numerator // t.denominator] += 1
            in_range += 1
    nonempty = sum(1 for c in counts if c)
    return Histogram(
        lo=lo,
        hi=hi,
        counts=tuple(counts),
        in_range=in_range,
        coverage=Fraction(nonempty, bins),
    )


@dataclass(frozen=True)
class PadicCoverage:
    p: int
    k: int
    residues: tuple[int, ...]
    non_integral: int
    coverage: Fraction

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "k": self.k,
            "residues_hit": len(self.residues),
            "modulus": self.p**self.k,
            "non_integral": self.non_integral,
            "coverage": format_rational(self.coverage),
        }


def padic_coverage(params: Sequence[Fraction], p: int, k: int) -> PadicCoverage:
    """Distinct residues of p-integral params mod p^k, as a fraction of p^k."""
    if k < 1:
        raise ValueError("need k >= 1")
    mod = p**k
    residues = set()
    non_integral = 0
    for q in params:
        if q.denominator % p == 0:
            non_integral += 1
            continue
        residues.add(q.numerator * pow(q.denominator, -1, mod) % mod)
    return PadicCoverage(
        p=p,
        k=k,
        residues=tuple(sorted(residues)),
        non_integral=non_integral,
        coverage=Fraction(len(residues), mod),
    )


@dataclass(frozen=True)
class Region:
    """A sign region of d(t) = c(t^2 - a) on the real line."""

    name: str
    d_sign: int
    count: int
    hit: bool
    bin_coverage: Optional[Fraction]  # over default-grid bins inside the region

    def to_json(self) -> dict:
        return {
            "region": self.name,
            "d_sign": self.d_sign,
            "count": self.count,
            "hit": self.hit,
            "bin_coverage": None if self.bin_coverage is None else format_rational(self.bin_coverage),
        }


@dataclass(frozen=True)
class ComponentReport:
    regions: tuple[Region, ...]

    def to_json(self) -> dict:
        return {"regions": [r.to_json() for r in self.regions]}


def component_report(f: Family, params: Sequence[Fraction]) -> ComponentReport:
    """Partition the t-line by the sign of d(t) = c(t^2 - a) and report
    which regions the certified parameters reach.

    For a < 0 the twist coefficient never changes sign and there is a
    single region.  For a > 0 the rational boundary tests t^2 vs a are
    exact even though the roots +-sqrt(a) are irrational.
    """
    if not isinstance(f, TwistQuadratic):
        raise WrongFamilyKind("component_report needs a quadratic twist family")
    c_sign = 1 if f.c > 0 else -1

    def in_region(q: Fraction, name: str) -> bool:
        if name == "all t":
            return True
        if name == "t < -sqrt(a)":
            return q < 0 and q * q > f.a
        if name == "-sqrt(a) < t < sqrt(a)":
            return q * q < f.a
        return q > 0 and q * q > f.a  # "t > sqrt(a)"

    if f.a < 0:
        names = [("all t", c_sign)]
    else:
        names = [
            ("t < -sqrt(a)", c_sign),
            ("-sqrt(a) < t < sqrt(a)", -c_sign),
            ("t > sqrt(a)", c_sign),
        ]

    lo, hi = DEFAULT_RANGE
    width = (hi - lo) / DEFAULT_BINS
    regions = []
    for name, sign in names:
        members = [q for q in params if in_region(q, name)]
        # Bins of the default grid lying fully inside the region.
        inner = []
        for i in range(DEFAULT_BINS):
            b0, b1 = lo + i * width, lo + (i + 1) * width
            if in_region(b0, name) and in_region(b1, name):
                inner.append((b0, b1))
        cov: Optional[Fraction] = None
        if inner:
            hit_bins = sum(1 for b0, b1 in inner if any(b0 <= q < b1 for q in members))
            cov = Fraction(hit_bins, len(inner))
        regions.append(
            Region(name=name, d_sign=sign, count=len(members), hit=bool(members), bin_coverage=cov)
        )
    return ComponentReport(regions=tuple(regions))


@dataclass(frozen=True)
class DensityReport:
    distinct_params: int
    histogram: Histogram
    padic: tuple[PadicCoverage, ...]
    component: Optional[ComponentReport]

    def to_json(self) -> dict:
        return {
            "distinct_params": self.distinct_params,
            "real_histogram": self.histogram.to_json(),
            "padic": [c.to_json() for c in self.padic],
            "component": None if self.component is None else self.component.to_json(),
        }


def density_report(f: Family, params: Sequence[Fraction]) -> DensityReport:
    """The default diagnostic grid: [-10, 10] in 20 bins, p in {2,3,5,7}, k <= 2."""
    hist = real_histogram(params, DEFAULT_RANGE[0], DEFAULT_RANGE[1], DEFAULT_BINS)
    padic = tuple(
        padic_coverage(params, p, k)
        for p in DEFAULT_PRIMES
        for k in range(1, DEFAULT_PADIC_DEPTH + 1)
    )
    try:
        comp = component_report(f, params)
    except WrongFamilyKind:
        comp = None
    return DensityReport(
        distinct_params=len(set(params)),
        histogram=hist,
        padic=padic,
        component=comp,
    )
