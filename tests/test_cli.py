import json
import operator
import tracemalloc
from decimal import Context, Inexact, Rounded, localcontext
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from rankjump import billing_build, cli, neron_check, scan
from rankjump.cli import _json, _pieces, main
from rankjump.density import density_report
from rankjump.families import family_from_json
from rankjump.polynomials import poly

TWIST_LINEAR = {"kind": "twist_linear", "p": ["0", "-1", "0", "1"], "generic_rank": 0}
TWIST_QUADRATIC = {"kind": "twist_quadratic", "c": "1", "a": "-1", "p": ["1", "0", "0", "1"]}
CUBIC = {"kind": "cubic_pencil", "generic_rank": 0}
PENCIL = {
    "kind": "weierstrass_pencil",
    "A": {"num": ["1"], "den": ["1"]},
    "B": {"num": ["0", "-1", "1", "-1"], "den": ["1"]},
    "sections": [[["0", "1"], ["0", "1"]]],
}


def _write(tmp_path: Path, name: str, obj) -> str:
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def test_validate_ok(tmp_path, capsys):
    path = _write(tmp_path, "f.json", TWIST_LINEAR)
    assert main(["validate", path]) == 0
    assert "valid" in capsys.readouterr().out


def test_validate_inseparable(tmp_path, capsys):
    path = _write(tmp_path, "f.json", {"kind": "twist_linear", "p": ["0", "0", "0", "1"]})
    assert main(["validate", path]) == 2
    assert "separable" in capsys.readouterr().out


@pytest.mark.parametrize(
    "family",
    [{**CUBIC, "generic_rank": 1}, {**TWIST_LINEAR, "generic_rank": 2}, {**PENCIL, "generic_rank": 2}],
    ids=["cubic_pencil", "twist_linear", "weierstrass_pencil"],
)
def test_validate_warns_generic_rank_above_sections(tmp_path, capsys, family):
    # A certified lower bound counts at most the sections plus the witness,
    # so it cannot exceed such a rank: every kind warns, and none refuses.
    path = _write(tmp_path, "f.json", family)
    assert main(["validate", path]) == 0
    out = capsys.readouterr().out
    n = len(family.get("sections", []))
    rank = family["generic_rank"]
    assert out == (
        f"warning: [generic-rank] declared generic rank {rank} exceeds the section count {n}; "
        f"a certified rank lower bound is at most {n} + 1 <= {rank}, so no scan row can claim a jump\n"
    )


@pytest.mark.parametrize(
    "data",
    [
        b"{nope",
        b'{"kind": "twist_linear", "p": ["\xff"]}',
        json.dumps({**TWIST_LINEAR, "extra": True}).encode(),
    ],
    ids=["malformed", "non-utf8", "unknown-field"],
)
def test_validate_malformed_json(tmp_path, capsys, data):
    # a load error is not a finding: it leaves through main, on stderr only
    p = tmp_path / "bad.json"
    p.write_bytes(data)
    assert main(["validate", str(p)]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.startswith("error: ") and cap.err.count("\n") == 1


@pytest.mark.parametrize(
    "family",
    [
        {"kind": "twist_linear", "p": "1001"},
        {**PENCIL, "A": {"num": "17"}},
    ],
    ids=["twist-p", "pencil-num"],
)
def test_polynomial_must_be_an_array(tmp_path, capsys, family):
    # a string is not read one character per coefficient
    fam = _write(tmp_path, "f.json", family)
    assert main(["validate", fam]) == 2
    assert "array" in capsys.readouterr().err
    out = str(tmp_path / "scan.csv")
    assert main(["scan", "--family", fam, "--bound", "2", "--out", out]) == 2
    assert not Path(out).exists()


@pytest.mark.parametrize("value", ["1", 7], ids=["string", "int"])
def test_rational_function_must_be_an_object_or_array(tmp_path, capsys, value):
    # a bare scalar is not read as a constant rational function
    fam = _write(tmp_path, "f.json", {**PENCIL, "A": value})
    assert main(["validate", fam]) == 2
    assert "not a rational function" in capsys.readouterr().err


def test_scan_csv_and_density(tmp_path, capsys):
    fam = _write(tmp_path, "f.json", TWIST_LINEAR)
    out = str(tmp_path / "scan.csv")
    rc = main(
        ["scan", "--family", fam, "--bound", "2", "--mode", "total-first", "--out", out]
    )
    assert rc == 0
    lines = Path(out).read_text().splitlines()
    assert lines[0] == "param,curve_A,curve_B,witness,n_sections,certified_rank_lb,jump,gram_det_lb,status"
    six = [l for l in lines if l.startswith("6,")]
    assert six and '"12,36"' in six[0] and "true" in six[0]
    dens = json.loads(Path(out + ".density.json").read_text())
    assert "real_histogram" in dens
    hist_csv = Path(out + ".histogram.csv").read_text().splitlines()
    assert hist_csv[0] == "bin_lo,bin_hi,count"
    assert len(hist_csv) == 21
    assert "certified" in capsys.readouterr().err


def test_scan_json_format(tmp_path):
    fam = _write(tmp_path, "f.json", CUBIC)
    out = str(tmp_path / "scan.json")
    rc = main(
        ["scan", "--family", fam, "--bound", "1", "--format", "json", "--out", out]
    )
    assert rc == 0
    rep = json.loads(Path(out).read_text())
    params = [c["param"] for c in rep["certificates"]]
    assert "-5/6" in params and "3/4" in params


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_scan_stdout_is_the_report(tmp_path, capsys, fmt):
    # without --out, stdout carries the --out bytes and nothing else
    fam = _write(tmp_path, "f.json", TWIST_LINEAR)
    out = tmp_path / "scan.out"
    argv = ["scan", "--family", fam, "--bound", "3", "--format", fmt]
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    cap = capsys.readouterr()
    assert cap.out == out.read_text()
    assert "certified" in cap.err and "scan took" in cap.err


def test_scan_report_is_streamed(tmp_path, monkeypatch):
    # Emission holds no copy of the report, textual or as dicts: with
    # certification done beforehand, writing the report and its density
    # files allocates less than the report's size at peak, since each
    # certificate's dict or row is built as it is written and then dropped.
    # Each csv.writer holds a fixed 128 KiB record buffer, more than the
    # whole bound-6 CSV report, so the CSV case writes the bound-8 one.
    fam = _write(tmp_path, "f.json", TWIST_LINEAR)
    for fmt, bound, size in (("json", 6, 801_430), ("csv", 8, 335_748)):
        report = scan(family_from_json(TWIST_LINEAR), bound, "total-first")
        monkeypatch.setattr(cli, "scan", lambda *args, **kwargs: report)
        out = tmp_path / f"scan.{fmt}"
        tracemalloc.start()
        try:
            assert main(["scan", "--family", fam, "--bound", str(bound), "--format", fmt, "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.stat().st_size == size
        assert peak < size, f"{fmt}: peak {peak} B is {peak / size:.2f}x the report"


class _Obj:
    """A report object: the writer expands it through to_json()."""

    def __init__(self, fields):
        self.fields = fields

    def to_json(self):
        return self.fields


# Strings weighted toward what JSON escapes: quote, backslash, control
# characters, DEL and non-ASCII (BMP and astral).
_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\n\t\x7f\u00e9\u2028\U0001f600'), st.characters()))
_SCALARS = st.one_of(
    _TEXT,
    st.integers(),
    st.integers(-(2**200), 2**200),
    st.none(),
    st.sampled_from([0, 1, -1, True, False]),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=4),
    ),
    max_leaves=30,
)
_REPORT_FIELDS = st.one_of(_VALUES, _VALUES.map(_Obj), st.lists(_VALUES.map(_Obj), max_size=3))


@given(_VALUES)
def test_writer_matches_stdlib(v):
    assert _json(v) == json.dumps(v, indent=2, sort_keys=True)


@given(st.dictionaries(_TEXT, _REPORT_FIELDS, min_size=1))
def test_streamed_writer_matches_stdlib(data):
    # _emit's pieces, report objects at the top two levels included, join
    # to the stdlib text with its to_json default and a newline.
    text = json.dumps(data, indent=2, sort_keys=True, default=operator.methodcaller("to_json")) + "\n"
    assert "".join(_pieces(data)) == text
    assert _json(_Obj(data)) + "\n" == text


def test_library_recipe_writes_the_out_bytes(tmp_path):
    # README's library recipe: to_json() keeps the report objects a field
    # holds, and json.dumps expands them with the same default as the CLI.
    def dumps(x) -> bytes:
        text = json.dumps(x.to_json(), default=operator.methodcaller("to_json"), sort_keys=True, indent=2)
        return (text + "\n").encode("ascii")

    fam, pencil = _write(tmp_path, "f.json", TWIST_QUADRATIC), _write(tmp_path, "p.json", PENCIL)
    out = tmp_path / "out"
    f = family_from_json(TWIST_QUADRATIC)
    report = scan(f, 8, "fiber-first")
    dens = density_report(f, report.certified_params())
    assert dens.component is not None
    assert any(c.gram is None for c in report.certificates)
    cases = [
        (["scan", "--family", fam, "--bound", "8", "--mode", "fiber-first", "--format", "json"], report),
        (["billing", "--p", "0,-1,0,1", "--rank", "3", "--bound", "10"], billing_build(poly([0, -1, 0, 1]), 3, 10)),
        (["neron", "--family", pencil, "--bound", "3"], neron_check(family_from_json(PENCIL), 3)),
    ]
    for argv, obj in cases:
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == dumps(obj)
    assert Path(f"{out}.density.json").read_bytes() == dumps(dens)


@pytest.mark.parametrize("command", ["scan", "billing", "neron"])
def test_unwritable_out_exits_2(tmp_path, capsys, command):
    # --out inside a missing directory: one error line, nothing on stdout.
    argv = {
        "scan": ["scan", "--family", _write(tmp_path, "f.json", TWIST_LINEAR), "--bound", "3"],
        "billing": ["billing", "--p", "0,-1,0,1", "--rank", "3", "--bound", "10"],
        "neron": ["neron", "--family", _write(tmp_path, "p.json", PENCIL), "--bound", "3"],
    }[command]
    assert main(argv + ["--out", str(tmp_path / "missing" / "out.json")]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.startswith("error: ") and cap.err.count("\n") == 1
    assert "No such file or directory" in cap.err
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("prec", [3, 50])
@pytest.mark.parametrize(
    "family,argv",
    [(TWIST_LINEAR, ["--bound", "4"]), (PENCIL, ["--bound", "4", "--mode", "fiber-first"])],
    ids=["x3-x", "pencil"],
)
def test_scan_bytes_ignore_caller_context(tmp_path, capsys, family, argv, prec):
    # Every Decimal operation names its own context: none rounds in the
    # caller's, so none trips these traps.
    argv = ["scan", "--family", _write(tmp_path, "f.json", family), "--format", "json"] + argv
    assert main(argv) == 0
    default = capsys.readouterr().out
    with localcontext(Context(prec=prec, traps=[Inexact, Rounded])):
        assert main(argv) == 0
    assert capsys.readouterr().out == default


def test_scan_refusal_is_one_error_line(tmp_path, capsys):
    # c = 0 and a = 0: two error findings, one line
    family = {"kind": "twist_quadratic", "c": "0", "a": "0", "p": ["1", "0", "0", "1"]}
    fam = _write(tmp_path, "f.json", family)
    assert main(["scan", "--family", fam, "--bound", "3"]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.startswith("error: [d-degree] ") and cap.err.count("\n") == 1
    assert "; [d-separable] " in cap.err


def test_billing_roundtrip(tmp_path):
    out = str(tmp_path / "bill.json")
    rc = main(["billing", "--p", "0,-1,0,1", "--rank", "3", "--bound", "10", "--out", out])
    assert rc == 0
    cert = json.loads(Path(out).read_text())
    assert cert["classes"] == [6, 15, 30]
    assert cert["field_degree"] == 8


def test_billing_exhausted_exit_code(tmp_path):
    assert main(["billing", "--p", "0,-1,0,1", "--rank", "3", "--bound", "2"]) == 3


@pytest.mark.parametrize(
    "p,message",
    [
        ("0,1,1", "p must be a cubic, got degree 2"),
        ("0,-1,0,2", "p must be monic"),
        ("0,0,0,1", "p must be separable"),
    ],
)
def test_billing_bad_p_exits_2(capsys, p, message):
    # billing rejects p with the findings `validate` gives twist_linear p.
    assert main(["billing", "--p", p, "--rank", "1", "--bound", "5"]) == 2
    assert message in capsys.readouterr().err


def test_neron(tmp_path):
    fam = _write(tmp_path, "p.json", PENCIL)
    out = str(tmp_path / "neron.json")
    rc = main(["neron", "--family", fam, "--bound", "4", "--out", out])
    assert rc == 0
    rep = json.loads(Path(out).read_text())
    assert rep["sampled"] == rep["certified_independent"] + len(rep["inconclusive"]) + len(
        rep["exact_dependent"]
    )


def test_neron_needs_pencil(tmp_path):
    fam = _write(tmp_path, "f.json", TWIST_LINEAR)
    assert main(["neron", "--family", fam, "--bound", "3"]) == 2


def test_neron_skips_section_pole(tmp_path, capsys):
    # Y^2 = X^3 + lam^2 X - 1 with section (1/lam^2, 1/lam^3): the fiber at
    # lam = 0 is smooth, but the section has a pole there.
    fam = _write(tmp_path, "p.json", {
        "kind": "weierstrass_pencil",
        "A": {"num": ["0", "0", "1"], "den": ["1"]},
        "B": {"num": ["-1"], "den": ["1"]},
        "sections": [[{"num": ["1"], "den": ["0", "0", "1"]},
                      {"num": ["1"], "den": ["0", "0", "0", "1"]}]],
    })
    assert main(["validate", fam]) == 0
    out = str(tmp_path / "neron.json")
    assert main(["neron", "--family", fam, "--bound", "5", "--out", out]) == 0
    rep = json.loads(Path(out).read_text())
    assert rep["sampled"] == 38  # all 39 parameters of height <= 5 but lam = 0
    scan_out = str(tmp_path / "scan.csv")
    assert main(["scan", "--family", fam, "--bound", "3", "--out", scan_out]) == 0
    assert not any(l.startswith("0,") for l in Path(scan_out).read_text().splitlines())


def test_neron_rejects_what_validate_rejects(tmp_path, capsys):
    # A = B = 0 is singular in every fiber; validate rejects it.
    fam = _write(tmp_path, "p.json", {
        "kind": "weierstrass_pencil",
        "A": {"num": ["0"], "den": ["1"]},
        "B": {"num": ["0"], "den": ["1"]},
        "sections": [[{"num": ["0", "0", "1"], "den": ["1"]},
                      {"num": ["0", "0", "0", "1"], "den": ["1"]}]],
    })
    assert main(["validate", fam]) == 2
    capsys.readouterr()
    out = str(tmp_path / "neron.json")
    assert main(["neron", "--family", fam, "--bound", "3", "--out", out]) == 2
    assert "[pencil-singular]" in capsys.readouterr().err
    assert not Path(out).exists()


# Sections (0, 1) and (lam, 1 + lam) meet at lam = 0 in a non-torsion point.
MEETING_PENCIL = {
    "kind": "weierstrass_pencil",
    "A": ["2", "1", "-1"],
    "B": ["1"],
    "sections": [[["0"], ["1"]], [["0", "1"], ["1", "1"]]],
}


def test_scan_sections_meeting(tmp_path):
    fam = _write(tmp_path, "p.json", MEETING_PENCIL)
    assert main(["validate", fam]) == 0
    out = str(tmp_path / "scan.json")
    args = ["scan", "--family", fam, "--bound", "2", "--mode", "fiber-first"]
    assert main(args + ["--format", "json", "--out", out]) == 0
    at0 = [c for c in json.loads(Path(out).read_text())["certificates"] if c["param"] == "0"]
    assert [(c["status"], c["certified_rank_lb"], c["jump"]) for c in at0] == [
        ("certified", 1, False)
    ]


@pytest.mark.parametrize(
    "family, relation",
    [
        (MEETING_PENCIL, [-12, 12]),
        # (lam, lam) and (lam, -lam) are both (0, 0) at lam = 0.
        ({**PENCIL, "sections": PENCIL["sections"] + [[["0", "1"], ["0", "-1"]]]}, [-12, -12]),
    ],
)
def test_neron_sections_meeting(tmp_path, family, relation):
    fam = _write(tmp_path, "p.json", family)
    assert main(["validate", fam]) == 0
    out = str(tmp_path / "neron.json")
    assert main(["neron", "--family", fam, "--bound", "2", "--out", out]) == 0
    rep = json.loads(Path(out).read_text())
    at0 = [d for d in rep["exact_dependent"] if d["param"] == "0"]
    assert [d["relation"] for d in at0] == [relation]


# y^2 = x^3 + 17 with eight constant sections: a witness makes a 9-point
# Gram matrix.
MORDELL_17 = {
    "kind": "weierstrass_pencil",
    "A": ["0"],
    "B": ["17"],
    "sections": [
        [[x], [y]]
        for x, y in (
            ("-2", "3"), ("2", "5"), ("4", "9"), ("8", "23"),
            ("43", "282"), ("52", "375"), ("5234", "378661"), ("-2", "-3"),
        )
    ],
}


def test_scan_pencil_with_eight_sections(tmp_path, capsys):
    fam = _write(tmp_path, "p.json", MORDELL_17)
    assert main(["validate", fam]) == 0
    assert capsys.readouterr().out == "valid\n"
    assert main(["scan", "--family", fam, "--bound", "1", "--mode", "fiber-first"]) == 0
    assert "certified 3 of 3 candidates" in capsys.readouterr().err


def test_height_command(capsys):
    rc = main(["height", "--curve=-16,16", "--point", "0,4", "--tol", "1e-5"])
    assert rc == 0
    est = json.loads(capsys.readouterr().out)
    assert abs(float(est["value"]) - 0.0511114) < 1e-4
    assert float(est["err"]) <= 1e-5


def test_height_torsion(capsys):
    rc = main(["height", "--curve", "0,1", "--point", "2,3", "--tol", "1e-6"])
    assert rc == 0
    est = json.loads(capsys.readouterr().out)
    assert abs(float(est["value"])) <= float(est["err"])


def test_height_off_curve():
    assert main(["height", "--curve", "0,1", "--point", "1,1"]) == 2


def test_height_off_curve_names_the_point(capsys):
    assert main(["height", "--curve=0,8", "--point", "1,2"]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == "error: 1,2 not on y^2 = x^3 + (0)x + (8)\n"


def test_scan_determinism_bytes(tmp_path):
    fam = _write(tmp_path, "f.json", CUBIC)
    outs = []
    for name in ("a.csv", "b.csv"):
        out = str(tmp_path / name)
        assert main(["scan", "--family", fam, "--bound", "2", "--out", out]) == 0
        outs.append(Path(out).read_bytes())
        outs.append(Path(out + ".density.json").read_bytes())
    assert outs[0] == outs[2]
    assert outs[1] == outs[3]


@pytest.mark.parametrize("rank", [-3, 2.7, "1", True])
def test_bad_generic_rank_exits_2(tmp_path, capsys, rank):
    fam = _write(tmp_path, "f.json", {**TWIST_LINEAR, "generic_rank": rank})
    out = str(tmp_path / "scan.csv")
    assert main(["scan", "--family", fam, "--bound", "3", "--tol", "1e-4", "--out", out]) == 2
    assert not Path(out).exists()
    assert main(["validate", fam]) == 2
    assert main(["neron", "--family", _write(tmp_path, "p.json", {**PENCIL, "generic_rank": rank}), "--bound", "2"]) == 2
    assert "generic_rank" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "abc", "0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--family", "f.json", "--bound", "2"],
        ["neron", "--family", "p.json", "--bound", "2"],
        ["height", "--curve", "0,1", "--point", "2,3"],
    ],
)
def test_bad_tol_exits_2(capsys, argv, tol):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--tol", tol])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


# Large values are not tried: each would start that many worker processes.
@pytest.mark.parametrize("jobs", ["0", "-1", "abc"])
def test_bad_jobs_exits_2(capsys, jobs):
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--family", "f.json", "--bound", "2", "--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("curve", ["1", "1,2,3", "a,b"])
def test_bad_curve_exits_2(capsys, curve):
    with pytest.raises(SystemExit) as exc:
        main(["height", "--curve", curve, "--point", "2,3"])
    assert exc.value.code == 2
    assert "--curve" in capsys.readouterr().err


@pytest.mark.parametrize("bound", ["0", "-1"])
@pytest.mark.parametrize("command", ["scan", "neron", "billing"])
def test_bad_bound_exits_2(tmp_path, capsys, command, bound):
    if command == "billing":
        argv = ["billing", "--p", "0,-1,0,1", "--rank", "1"]
    else:
        argv = [command, "--family", _write(tmp_path, "p.json", PENCIL)]
    assert main(argv + ["--bound", bound]) == 2
    assert "bound must be >= 1" in capsys.readouterr().err
