"""Golden values for every family kind: identifier strings, the JSON wire
form that family_from_json decodes, validation finding codes and the
schema errors of family_from_json.

The family_id strings land in every report, so a change to any of them
changes report bytes.
"""

import re
from dataclasses import fields
from fractions import Fraction

import pytest

from rankjump.errors import FamilyFormatError
from rankjump.families import (
    CubicPencil,
    TwistLinear,
    TwistPoly,
    TwistQuadratic,
    WeierstrassPencil,
    _CODECS,
    _KINDS,
    family_from_json,
    validate_family,
)
from rankjump.polynomials import poly, ratfunc

PENCIL_JSON = {
    "kind": "weierstrass_pencil",
    "A": {"num": ["1"], "den": ["1"]},
    "B": {"num": ["0", "-1", "1", "-1"], "den": ["1"]},
    "sections": [[{"num": ["0", "1"], "den": ["1"]}, {"num": ["0", "1"], "den": ["1"]}]],
}

# (family, family_id, JSON wire form, validate_family codes)
GOLDEN = [
    (
        TwistLinear(p=poly([0, 2, 3, 1]), generic_rank=1),
        "twist_linear[p=x^3 + 3*x^2 + 2*x]",
        {"kind": "twist_linear", "p": ["0", "2", "3", "1"], "generic_rank": 1},
        [("warning", "generic-rank")],
    ),
    (
        TwistQuadratic(c=Fraction(-2), a=Fraction(3, 4), p=poly([1, 0, 0, 1])),
        "twist_quadratic[c=-2,a=3/4,p=x^3 + 1]",
        {"kind": "twist_quadratic", "c": "-2", "a": "3/4", "p": ["1", "0", "0", "1"], "generic_rank": 0},
        [],
    ),
    (
        TwistPoly(d=poly([0, 0, 1]), p=poly([0, 0, 0, 1])),
        "twist_poly[d=t^2,p=x^3]",
        {"kind": "twist_poly", "d": ["0", "0", "1"], "p": ["0", "0", "0", "1"], "generic_rank": 0},
        [("error", "p-separable"), ("error", "d-separable")],
    ),
    (
        CubicPencil(),
        "cubic_pencil",
        {"kind": "cubic_pencil", "generic_rank": 0},
        [],
    ),
    (
        WeierstrassPencil(
            A=ratfunc([1]), B=ratfunc([0, -1, 1, -1]), sections=((ratfunc([0, 1]), ratfunc([0, 1])),)
        ),
        "weierstrass_pencil[1 sections]",
        PENCIL_JSON,
        [],
    ),
    (
        WeierstrassPencil(
            A=ratfunc([0, 0, 1]),
            B=ratfunc([-1], [1, 1]),
            sections=((ratfunc([0, 1]), ratfunc([1])),),
            generic_rank=2,
        ),
        "weierstrass_pencil[1 sections]",
        {
            "kind": "weierstrass_pencil",
            "A": {"num": ["0", "0", "1"], "den": ["1"]},
            "B": {"num": ["-1"], "den": ["1", "1"]},
            "sections": [[{"num": ["0", "1"], "den": ["1"]}, {"num": ["1"], "den": ["1"]}]],
            "generic_rank": 2,
        },
        [("error", "section-invalid"), ("warning", "generic-rank")],
    ),
    (
        TwistQuadratic(c=Fraction(0), a=Fraction(0), p=poly([0, -1, 0, 2])),
        "twist_quadratic[c=0,a=0,p=2*x^3 - x]",
        {"kind": "twist_quadratic", "c": "0", "a": "0", "p": ["0", "-1", "0", "2"], "generic_rank": 0},
        [("error", "p-monic"), ("error", "d-degree"), ("error", "d-separable")],
    ),
    (
        TwistPoly(d=poly([5]), p=poly([0, 0, 1])),
        "twist_poly[d=5,p=x^2]",
        {"kind": "twist_poly", "d": ["5"], "p": ["0", "0", "1"], "generic_rank": 0},
        [("error", "p-degree"), ("error", "d-degree")],
    ),
    (
        WeierstrassPencil(A=ratfunc([]), B=ratfunc([])),
        "weierstrass_pencil[0 sections]",
        {"kind": "weierstrass_pencil", "A": {"num": [], "den": ["1"]}, "B": {"num": [], "den": ["1"]}, "sections": []},
        [("error", "pencil-singular")],
    ),
]


@pytest.mark.parametrize("fam, fid, wire, codes", GOLDEN, ids=[g[1] for g in GOLDEN])
def test_family_golden(fam, fid, wire, codes):
    assert fam.family_id == fid
    assert family_from_json(wire) == fam
    assert [(f.severity, f.code) for f in validate_family(fam)] == codes


def test_every_field_has_one_decoder():
    assert {f.name for cls in _KINDS.values() for f in fields(cls)} == set(_CODECS)
    assert {wire["kind"] for _, _, wire, _ in GOLDEN} == set(_KINDS)


def test_rationals_read_json_integers_but_refuse_floats():
    # The decoders read str(v): a JSON integer is a rational, a float is not.
    strings = {"kind": "twist_quadratic", "c": "1", "a": "-1", "p": ["1", "0", "0", "1"]}
    integers = {"kind": "twist_quadratic", "c": 1, "a": -1, "p": [1, 0, 0, 1]}
    assert family_from_json(integers) == family_from_json(strings)
    _format_error({**integers, "c": 0.5}, "not a rational: '0.5'")


def _format_error(obj, message):
    with pytest.raises(FamilyFormatError, match=f"^{re.escape(message)}$"):
        family_from_json(obj)


def test_family_format_errors():
    _format_error({"kind": "nope"}, "unknown family kind 'nope'")
    _format_error({"p": ["1"]}, "unknown family kind None")
    _format_error([], "family description must be a JSON object")
    for _, _, wire, _ in GOLDEN[:5]:
        kind = wire["kind"]
        _format_error({**wire, "bogus": 1}, f"unknown fields for {kind}: ['bogus']")
    _format_error({"kind": "twist_linear"}, "missing field 'p' for twist_linear")
    _format_error(
        {"kind": "twist_quadratic", "c": "1", "p": ["1", "0", "0", "1"]},
        "missing field 'a' for twist_quadratic",
    )
    _format_error({"kind": "twist_poly", "p": ["1", "0", "0", "1"]}, "missing field 'd' for twist_poly")
    _format_error({"kind": "weierstrass_pencil", "A": ["1"]}, "missing field 'B' for weierstrass_pencil")
