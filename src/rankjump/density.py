"""Desk-scale density proxies for certified parameter sets.

The underlying theorems are asymptotic density statements; a finite scan
can only report coverage, so everything here is descriptive: equal-width
real histograms, residue coverage mod p^k, and the sign-region report for
degree-2 twists.

One binning rule, in exact rational arithmetic: q lies in bin
i = (q - lo) // width, one floor with width = (hi - lo) / bins, when the
bin's range test 0 <= i < bins (that is, lo <= q < hi) holds.  Only
`real_histogram` applies it; the sign-region report reads its bin hits
off the default-grid histogram.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .families import Family
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

    def edges(self) -> list[Fraction]:
        """lo + i * width for i = 0..bins."""
        bins = len(self.counts)
        width = (self.hi - self.lo) / bins
        return [self.lo + i * width for i in range(bins + 1)]

    def csv_rows(self) -> list[list[str]]:
        """The .histogram.csv rows, header first."""
        e = [format_rational(b) for b in self.edges()]
        rows = [[e[i], e[i + 1], str(c)] for i, c in enumerate(self.counts)]
        return [["bin_lo", "bin_hi", "count"]] + rows


def real_histogram(
    params: Sequence[Fraction], lo: Fraction, hi: Fraction, bins: int
) -> Histogram:
    """Counts per equal-width bin of [lo, hi): one floor i = (q - lo) // width, in range iff 0 <= i < bins."""
    if not lo < hi:
        raise ValueError("need lo < hi")
    if bins < 1:
        raise ValueError("need bins >= 1")
    lo, hi = Fraction(lo), Fraction(hi)
    width = (hi - lo) / bins
    counts = [0] * bins
    for q in params:
        i = (q - lo) // width
        if 0 <= i < bins:
            counts[i] += 1
    nonempty = sum(1 for c in counts if c)
    return Histogram(
        lo=lo,
        hi=hi,
        counts=tuple(counts),
        in_range=sum(counts),
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
    """A sign region of the twist coefficient d(t) on the real line."""

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


def component_report(
    f: Family, params: Sequence[Fraction], hist: Histogram
) -> Optional[tuple[Region, ...]]:
    """Report which of the family's sign regions (`Family.sign_regions`)
    the certified parameters reach; None for a kind without them.

    A region's inner bins are the bins of `hist`, the default-grid
    histogram of params, with both edges inside it.  Each region is an
    interval, so every param in an inner bin is a member, and the bin is
    hit exactly when its histogram count is non-zero.
    """
    regions = f.sign_regions()
    if regions is None:
        return None
    e = hist.edges()
    out = []
    for name, sign, inside in regions:
        count = sum(1 for q in params if inside(q))
        inner = [n for i, n in enumerate(hist.counts) if inside(e[i]) and inside(e[i + 1])]
        cov = Fraction(sum(1 for n in inner if n), len(inner)) if inner else None
        out.append(Region(name=name, d_sign=sign, count=count, hit=count > 0, bin_coverage=cov))
    return tuple(out)


@dataclass(frozen=True)
class DensityReport:
    distinct_params: int
    histogram: Histogram
    padic: tuple[PadicCoverage, ...]
    component: Optional[tuple[Region, ...]]

    def to_json(self) -> dict:
        return {
            "distinct_params": self.distinct_params,
            "real_histogram": self.histogram,
            "padic": self.padic,
            "component": None if self.component is None else {"regions": self.component},
        }


def density_report(f: Family, params: Sequence[Fraction]) -> DensityReport:
    """The default diagnostic grid: [-10, 10] in 20 bins, p in {2,3,5,7}, k <= 2."""
    hist = real_histogram(params, DEFAULT_RANGE[0], DEFAULT_RANGE[1], DEFAULT_BINS)
    padic = tuple(
        padic_coverage(params, p, k)
        for p in DEFAULT_PRIMES
        for k in range(1, DEFAULT_PADIC_DEPTH + 1)
    )
    return DensityReport(
        distinct_params=len(set(params)),
        histogram=hist,
        padic=padic,
        component=component_report(f, params, hist),
    )
