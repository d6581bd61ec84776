import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oracles import reference_histogram
from rankjump import density
from rankjump.density import (
    DEFAULT_BINS,
    DEFAULT_RANGE,
    component_report,
    density_report,
    padic_coverage,
    real_histogram,
)
from rankjump.families import CubicPencil, TwistLinear, TwistQuadratic, family_from_json
from rankjump.polynomials import poly

X3_PLUS_1 = poly([1, 0, 0, 1])


def _grid(params):
    """The default-grid histogram that `density_report` passes on."""
    return real_histogram(params, *DEFAULT_RANGE, DEFAULT_BINS)


def test_histogram_examples():
    h = real_histogram([Fraction(-5, 6), Fraction(3, 4)], Fraction(-1), Fraction(1), 2)
    assert h.counts == (1, 1)
    assert h.coverage == 1
    h = real_histogram([], Fraction(-1), Fraction(1), 2)
    assert h.coverage == 0
    h = real_histogram([Fraction(1, 3)] * 5, Fraction(0), Fraction(1), 4)
    assert sum(1 for c in h.counts if c) == 1


def test_histogram_bin_edges_exact():
    # values exactly on bin boundaries fall into the right-hand bin
    h = real_histogram([Fraction(0), Fraction(1, 2), Fraction(1)], Fraction(0), Fraction(1), 2)
    assert h.counts == (1, 1)  # 1 is outside [0, 1)
    assert h.in_range == 2


@given(
    st.lists(st.fractions(-20, 20, max_denominator=12), min_size=2, max_size=2, unique=True),
    st.integers(1, 25),
    st.lists(st.fractions(-25, 25, max_denominator=60), max_size=30),
)
def test_histogram_matches_the_fraction_reference(ends, bins, drawn):
    # lo, hi, every interior edge, and the points just either side of each
    lo, hi = sorted(ends)
    edges = [lo + i * (hi - lo) / bins for i in range(bins + 1)]
    eps = Fraction(1, 10**9)
    params = drawn + edges + [e - eps for e in edges] + [e + eps for e in edges]
    h = real_histogram(params, lo, hi, bins)
    assert (h.counts, h.in_range) == reference_histogram(params, lo, hi, bins)


def test_histogram_bad_args():
    with pytest.raises(ValueError):
        real_histogram([], Fraction(1), Fraction(0), 2)
    with pytest.raises(ValueError):
        real_histogram([], Fraction(0), Fraction(1), 0)


@given(st.lists(st.fractions(max_denominator=40), max_size=40), st.randoms())
def test_histogram_permutation_invariant(params, rng):
    a = real_histogram(params, Fraction(-10), Fraction(10), 20)
    shuffled = list(params)
    rng.shuffle(shuffled)
    b = real_histogram(shuffled, Fraction(-10), Fraction(10), 20)
    assert a == b
    assert sum(a.counts) == a.in_range


def test_padic_examples():
    cov = padic_coverage([Fraction(n) for n in range(5)], 5, 1)
    assert cov.coverage == 1
    cov = padic_coverage([Fraction(1, 5)], 5, 1)
    assert cov.non_integral == 1 and cov.coverage == 0
    cov = padic_coverage([Fraction(6)], 5, 1)
    assert Fraction(len(cov.residues), 5) == Fraction(1, 5)
    assert cov.residues == (1,)


@given(st.lists(st.fractions(max_denominator=30), max_size=30))
def test_padic_projection_compatibility(params):
    # residues mod p^(k+1) project onto residues mod p^k
    for p in (2, 3, 5):
        fine = padic_coverage(params, p, 2)
        coarse = padic_coverage(params, p, 1)
        projected = {r % p for r in fine.residues}
        assert projected == set(coarse.residues)


def test_component_report_single_region():
    f = TwistQuadratic(c=Fraction(1), a=Fraction(-1), p=X3_PLUS_1)  # d = t^2 + 1
    params = [Fraction(1), Fraction(-3)]
    rep = component_report(f, params, _grid(params))
    assert len(rep) == 1
    assert rep[0].hit and rep[0].count == 2
    assert rep[0].d_sign == 1


def test_component_report_sign_regions():
    f = TwistQuadratic(c=Fraction(1), a=Fraction(1), p=X3_PLUS_1)  # d = t^2 - 1
    params = [Fraction(2), Fraction(-2)]
    rep = component_report(f, params, _grid(params))
    names = [r.name for r in rep]
    assert len(rep) == 3
    outer = [r for r in rep if "sqrt(a) < t" not in r.name or "t <" in r.name]
    middle = [r for r in rep if r.name == "-sqrt(a) < t < sqrt(a)"][0]
    assert not middle.hit
    hits = [r.hit for r in rep]
    assert hits.count(True) == 2
    assert middle.d_sign == -1


PENCIL = family_from_json(
    {
        "kind": "weierstrass_pencil",
        "A": {"num": ["1"], "den": ["1"]},
        "B": {"num": ["0", "-1", "1", "-1"], "den": ["1"]},
        "sections": [[["0", "1"], ["0", "1"]]],
    }
)


def test_component_report_wrong_kind():
    for f in (TwistLinear(p=X3_PLUS_1), CubicPencil(), PENCIL):
        params = [Fraction(1), Fraction(-3, 2)]
        assert component_report(f, params, _grid(params)) is None
        assert density_report(f, [Fraction(1)]).to_json()["component"] is None


def _reference_regions(f, params):
    """The region rule written out by brute force: a default-grid bin
    [b0, b1) is inner when both edges satisfy the region's inequality, and
    hit when some param q has b0 <= q < b1."""
    a = f.a
    c_sign = 1 if f.c > 0 else -1
    if a < 0:
        regions = [("all t", c_sign, lambda q: True)]
    else:
        regions = [
            ("t < -sqrt(a)", c_sign, lambda q: q < 0 and q * q > a),
            ("-sqrt(a) < t < sqrt(a)", -c_sign, lambda q: q * q < a),
            ("t > sqrt(a)", c_sign, lambda q: q > 0 and q * q > a),
        ]
    out = []
    for name, sign, inside in regions:
        members = [q for q in params if inside(q)]
        inner = [(Fraction(b), Fraction(b + 1)) for b in range(-10, 10)]
        inner = [(b0, b1) for b0, b1 in inner if inside(b0) and inside(b1)]
        cov = None
        if inner:
            hit = sum(1 for b0, b1 in inner if any(b0 <= q < b1 for q in members))
            cov = Fraction(hit, len(inner))
        out.append((name, sign, len(members), bool(members), cov))
    return out


@st.composite
def _twist_and_params(draw):
    c = draw(st.fractions(min_value=-6, max_value=6, max_denominator=4).filter(lambda c: c != 0))
    roots = []
    if draw(st.booleans()):
        s = draw(st.fractions(min_value=0, max_value=12, max_denominator=4).filter(lambda s: s != 0))
        a = s * s
        roots = [s, -s]
    else:
        a = draw(st.fractions(min_value=-150, max_value=150, max_denominator=9).filter(lambda a: a != 0))
    edges = [Fraction(n) for n in range(-10, 11)]
    q = st.one_of(
        st.fractions(min_value=-12, max_value=12, max_denominator=12),
        st.sampled_from(edges + roots),
    )
    return TwistQuadratic(c=c, a=a, p=X3_PLUS_1), draw(st.lists(q, max_size=40))


@given(_twist_and_params())
def test_component_report_matches_bruteforce(case):
    f, params = case
    got = [
        (r.name, r.d_sign, r.count, r.hit, r.bin_coverage)
        for r in component_report(f, params, _grid(params))
    ]
    assert got == _reference_regions(f, params)


@given(st.fractions(max_denominator=25), st.fractions(max_denominator=9).filter(lambda a: a != 0))
def test_component_regions_partition(q, a):
    f = TwistQuadratic(c=Fraction(1), a=a, p=X3_PLUS_1)
    rep = component_report(f, [q], _grid([q]))
    total = sum(r.count for r in rep)
    if q * q == a:  # boundary points lie in no region (degenerate params)
        assert total == 0
    else:
        assert total == 1


def test_density_report_bins_once(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return real_histogram(*args)

    monkeypatch.setattr(density, "real_histogram", counting)
    f = TwistQuadratic(c=Fraction(1), a=Fraction(1), p=X3_PLUS_1)
    rep = density_report(f, [Fraction(2), Fraction(-2)])
    assert rep.component is not None and len(calls) == 1


def test_density_report_shape():
    f = TwistQuadratic(c=Fraction(1), a=Fraction(-1), p=X3_PLUS_1)
    rep = density_report(f, [Fraction(1), Fraction(7), Fraction(1, 7)])
    assert rep.distinct_params == 3
    assert len(rep.padic) == 8  # p in {2,3,5,7} x k in {1,2}
    assert rep.component is not None
    js = rep.to_json()
    assert set(js) == {"distinct_params", "real_histogram", "padic", "component"}
