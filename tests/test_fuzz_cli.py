"""Fuzz of family JSON through the command line: `validate` and `scan` never
raise, exit 0 or 2, and a report that is written never claims a jump its
certified lower bound does not carry."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from rankjump.cli import main

RATIONAL = st.builds(
    lambda n, d: str(n) if d == 1 else f"{n}/{d}", st.integers(-3, 3), st.integers(1, 3)
)
POLY = st.lists(RATIONAL, min_size=1, max_size=4)
MONIC_CUBIC = st.lists(RATIONAL, min_size=3, max_size=3).map(lambda c: c + ["1"])
RATFUNC = POLY | st.fixed_dictionaries({"num": POLY, "den": POLY})
JUNK = (
    st.none() | st.booleans() | st.integers(-5, 5) | st.floats(allow_nan=True) | st.text(max_size=4)
    | st.lists(st.integers(-2, 2) | st.text(max_size=2), max_size=3)
    | st.dictionaries(st.text(max_size=3), st.integers(), max_size=2)
)

KINDS = {
    "twist_linear": {"p": MONIC_CUBIC | POLY},
    "twist_quadratic": {"c": RATIONAL, "a": RATIONAL, "p": MONIC_CUBIC | POLY},
    "twist_poly": {"d": POLY, "p": MONIC_CUBIC | POLY},
    "cubic_pencil": {},
    "weierstrass_pencil": {
        "A": RATFUNC,
        "B": RATFUNC,
        "sections": st.lists(st.tuples(RATFUNC, RATFUNC).map(list), max_size=2),
    },
}
SMALL_POLY = st.lists(st.integers(-2, 2), min_size=1, max_size=2)


def _pmul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _psub(f, g):
    n = max(len(f), len(g))
    return [(f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0) for i in range(n)]


def _text(f):
    return [str(c) for c in f]


@st.composite
def pencil_through_section(draw):
    """y^2 = x^3 + A x + B with B chosen so that (X, Y) is a section."""
    X, Y, A = draw(SMALL_POLY), draw(SMALL_POLY), draw(SMALL_POLY)
    B = _psub(_pmul(Y, Y), _pmul(X, _psub(_pmul(X, X), [-a for a in A])))
    return {"A": _text(A), "B": _text(B), "sections": [[_text(X), _text(Y)]]}


GENERIC_RANK = st.integers(0, 3) | st.integers(0, 3) | st.sampled_from([-1, None, True, 1.5, "1"])


@st.composite
def family_dicts(draw):
    kind = draw(st.sampled_from(sorted(KINDS)))
    fam = {"kind": kind}
    for name, values in KINDS[kind].items():
        fam[name] = draw(values)
    if kind == "weierstrass_pencil" and draw(st.booleans()):
        fam.update(draw(pencil_through_section()))
    if draw(st.booleans()):
        fam["generic_rank"] = draw(GENERIC_RANK)
    fault = draw(st.sampled_from(["none"] * 5 + ["drop", "extra", "junk", "kind", "top"]))
    if fault == "drop" and len(fam) > 1:
        del fam[draw(st.sampled_from(sorted(set(fam) - {"kind"})))]
    elif fault == "extra":
        fam[draw(st.sampled_from(["q", "sections", "c", "p"]))] = draw(RATIONAL)
    elif fault == "junk":
        fam[draw(st.sampled_from(sorted(fam)))] = draw(JUNK)
    elif fault == "kind":
        fam["kind"] = draw(JUNK)
    elif fault == "top":
        return draw(JUNK)
    return fam


def _declared(fam):
    rank = fam.get("generic_rank")
    if rank is None and fam["kind"] == "weierstrass_pencil":
        return len(fam.get("sections", []))
    return 0 if rank is None else rank


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fam=family_dicts(), bound=st.sampled_from([1, 2]))
def test_family_json_and_cli_fuzz(fam, bound):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "family.json")
        path.write_text(json.dumps(fam))
        assert _run(["validate", str(path)]) in (0, 2)
        for mode in ("total-first", "fiber-first"):
            out = Path(tmp, f"{mode}.json")
            rc = _run(["scan", "--family", str(path), "--bound", str(bound), "--mode", mode,
                       "--format", "json", "--out", str(out)])
            assert rc in (0, 2)
            if rc == 2:
                continue
            for row in json.loads(out.read_text())["certificates"]:
                assert row["declared_generic_rank"] == _declared(fam)
                if row["jump"]:
                    assert row["certified_rank_lb"] > row["declared_generic_rank"]
