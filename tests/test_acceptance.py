"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Thresholds marked heuristic in the comments are coverage/count
floors on finite scans, not theorems.
"""

import hashlib
import importlib.util
import json
import random
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import doubling_limit_height, small_good_primes
from test_cli import MEETING_PENCIL
from rankjump.cli import main as cli_main
from rankjump.curves import (
    Curve,
    add,
    curve,
    mul,
    neg,
    point,
    reduce_mod_p,
    is_torsion,
)
from rankjump.engine import billing_build, certify_fiber, neron_check
from rankjump.families import TwistLinear, WeierstrassPencil, witness_stream
from rankjump.heights import canonical_height, gram_certify
from rankjump.polynomials import poly, ratfunc

X3_MINUS_X = poly([0, -1, 0, 1])


def _report(n: int, detail: str) -> None:
    print(f"ACCEPTANCE {n}: PASS — {detail}")


def _random_curve_with_points(rng: random.Random):
    """A nonsingular curve through two small random rational points."""
    while True:
        x1, y1 = Fraction(rng.randint(-9, 9)), Fraction(rng.randint(1, 9))
        x2, y2 = Fraction(rng.randint(-9, 9)), Fraction(rng.randint(1, 9))
        if x1 == x2:
            continue
        A = (y1**2 - y2**2 - x1**3 + x2**3) / (x1 - x2)
        B = y1**2 - x1**3 - A * x1
        if 4 * A**3 + 27 * B**2 == 0:
            continue
        return Curve(A, B), point(x1, y1), point(x2, y2)


# ---------------------------------------------------------------------------
# 1. Group-law suite


def test_criterion_1_group_law():
    t0 = time.monotonic()
    rng = random.Random(101)
    triples_checked = 0
    for _ in range(20):
        C, P, Q = _random_curve_with_points(rng)
        primes = small_good_primes(C, 3, 3)
        # a pool of bounded-height points on C to draw triples from
        pool = [P, Q, add(C, P, Q), mul(C, 2, P), add(C, P, neg(Q)), mul(C, 2, Q)]
        pool = [T for T in pool if not T.is_infinity]
        for _ in range(50):
            T1, T2, T3 = (rng.choice(pool) for _ in range(3))
            # commutativity and associativity, exactly
            assert add(C, T1, T2) == add(C, T2, T1)
            assert add(C, add(C, T1, T2), T3) == add(C, T1, add(C, T2, T3))
            # reduction is a homomorphism at good primes
            S = add(C, T1, T2)
            for p in primes:
                cfp, Sp = reduce_mod_p(C, S, p)
                _, T1p = reduce_mod_p(C, T1, p)
                _, T2p = reduce_mod_p(C, T2, p)
                assert cfp.add(T1p, T2p) == Sp
            triples_checked += 1
    elapsed = time.monotonic() - t0
    assert triples_checked == 1000
    assert elapsed < 30
    _report(1, f"1000 triples on 20 curves, mod-p at 3 good primes, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Height suite

ORACLE_DEPTH12 = 0.05111149078389563  # frozen output of tests/oracles.py


def test_criterion_2_heights():
    t0 = time.monotonic()
    bench = canonical_height(curve(-16, 16), point(0, 4), Decimal("1e-5"))
    assert abs(bench.value - Decimal("0.0511114")) < Decimal("1e-4")
    fresh_oracle = doubling_limit_height(-16, 16, Fraction(0), Fraction(4), 12)
    assert abs(fresh_oracle - ORACLE_DEPTH12) < 1e-15
    assert abs(float(bench.value) - fresh_oracle) < float(bench.error_bound) + 1e-6

    rng = random.Random(202)
    tol = Decimal("1e-2")
    checked = 0
    while checked < 100:
        C, P, Q = _random_curve_with_points(rng)
        if is_torsion(C, P) or is_torsion(C, Q):
            continue
        hP = canonical_height(C, P, tol)
        h2P = canonical_height(C, mul(C, 2, P), tol)
        assert abs(h2P.value - 4 * hP.value) <= h2P.error_bound + 4 * hP.error_bound
        S, D = add(C, P, Q), add(C, P, neg(Q))
        hQ = canonical_height(C, Q, tol)
        hS = canonical_height(C, S, tol)
        hD = canonical_height(C, D, tol)
        lhs = hS.value + hD.value - 2 * hP.value - 2 * hQ.value
        budget = hS.error_bound + hD.error_bound + 2 * hP.error_bound + 2 * hQ.error_bound
        assert abs(lhs) <= budget
        checked += 1
    elapsed = time.monotonic() - t0
    _report(
        2,
        f"benchmark {bench.value:.9f}±{float(bench.error_bound):.1e} vs oracle "
        f"{ORACLE_DEPTH12:.9f}; quadraticity+parallelogram on {checked} points, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3-6 run through the CLI; outputs are kept for the determinism criterion.


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("acceptance")
    (d / "cubic.json").write_text(json.dumps({"kind": "cubic_pencil", "generic_rank": 0}))
    (d / "twistlin.json").write_text(
        json.dumps({"kind": "twist_linear", "p": ["0", "-1", "0", "1"], "generic_rank": 0})
    )
    (d / "twistquad.json").write_text(
        json.dumps(
            {
                "kind": "twist_quadratic",
                "c": "1",
                "a": "-1",
                "p": ["1", "0", "0", "1"],
                "generic_rank": 0,
            }
        )
    )
    for name, family in RATIONAL_TWISTS.items():
        (d / name).write_text(json.dumps(family))
    return d


def _run_scan(workdir, family_file, bound, mode, out_name, jobs=1):
    out = str(workdir / out_name)
    args = [
        "scan",
        "--family",
        str(workdir / family_file),
        "--bound",
        str(bound),
        "--mode",
        mode,
        "--format",
        "json",
        "--out",
        out,
    ]
    if jobs > 1:
        args += ["--jobs", str(jobs)]
    rc = cli_main(args)
    assert rc == 0
    return Path(out).read_bytes(), Path(out + ".density.json").read_bytes()


def _certified_params(report_bytes) -> list[Fraction]:
    rep = json.loads(report_bytes)
    out = []
    for c in rep["certificates"]:
        if c["status"] == "certified":
            n, _, d = c["param"].partition("/")
            out.append(Fraction(int(n), int(d) if d else 1))
    return out


def _digests(out) -> dict[str, str]:
    """sha256 of a scan's report and its two sidecar files."""
    return {
        suffix: hashlib.sha256(Path(f"{out}{suffix}").read_bytes()).hexdigest()
        for suffix in ("", ".density.json", ".histogram.csv")
    }


CUBIC12_DIGESTS = {
    "": "8fcfce24626bedf6aeebc071b60a28ff9fbda276d8df70a1cdf73927c18979f9",
    ".density.json": "bcf473b9dcf19e38f07f9a2b26b13a8be67d75b3e7113e2848ac4ff3482904a4",
    ".histogram.csv": "75ee1611b40b213f82d2a4b371a0c1055643e64e628adedc1c7f8f696e8d1f8a",
}


def test_criterion_3_cubic_pencil(workdir):
    t0 = time.monotonic()
    data, _ = _run_scan(workdir, "cubic.json", 12, "total-first", "cubic12.json")
    elapsed = time.monotonic() - t0
    params = _certified_params(data)
    rep = json.loads(data)
    jumps = [c for c in rep["certificates"] if c["jump"]]
    assert len(params) >= 30  # heuristic floor; the two named params are exact
    assert Fraction(-5, 6) in params
    assert Fraction(3, 4) in params
    assert all(c["declared_generic_rank"] == 0 for c in rep["certificates"])
    assert len(jumps) >= 30
    assert elapsed < 120
    # No benchmark workload reaches the Euler walk, so these digests are its byte gate.
    out = workdir / "cubic12.json"
    assert _digests(out) == CUBIC12_DIGESTS
    _report(3, f"{len(params)} certified cubic-pencil params (incl. -5/6, 3/4), {elapsed:.1f}s")


# The twist fiber-first walk has no other tier-1 byte gate.
TWISTLIN20_DIGESTS = {
    "": "ac4d86253b5d1ef2d2bf770061ea4685f6327c87f43ec0d1dd0914f6bc2a9d16",
    ".density.json": "95cdc14f3c42c8147817072a0caab94c949a0bde58bd5dcdd67c065515cd289d",
    ".histogram.csv": "8ac3fc988edad36c058d81c552e88ce32b51ca3c11ce5bb032ca8ec414d0cb55",
}


def test_criterion_4_twist_linear(workdir):
    t0 = time.monotonic()
    data, dens_bytes = _run_scan(workdir, "twistlin.json", 20, "fiber-first", "twistlin20.json")
    elapsed = time.monotonic() - t0
    params = _certified_params(data)
    dens = json.loads(dens_bytes)
    # heuristic count floor (distinct certified params; squarefree classes
    # among them are reported for inspection)
    assert len(params) >= 50
    assert Fraction(6) in params
    # the (12, 36) witness at t0 = 6 is produced by the total-space walk
    pts, _ = witness_stream(TwistLinear(p=X3_MINUS_X), 2, "total-first")
    assert any(w.param == 6 and str(w.witness) == "12,36" for w in pts)
    cert6 = certify_fiber(TwistLinear(p=X3_MINUS_X), [w for w in pts if w.param == 6][0])
    assert cert6.status == "certified" and str(cert6.witness) == "12,36"
    # histogram coverage >= 60% of 20 bins on [-10, 10]
    num, _, den = dens["real_histogram"]["coverage"].partition("/")
    coverage = Fraction(int(num), int(den) if den else 1)
    assert coverage >= Fraction(3, 5)
    # residue coverage mod 5 = 100%
    mod5 = [c for c in dens["padic"] if c["p"] == 5 and c["k"] == 1]
    assert mod5 and mod5[0]["coverage"] == "1"
    assert _digests(workdir / "twistlin20.json") == TWISTLIN20_DIGESTS
    _report(
        4,
        f"{len(params)} certified twist params, t0=6 via (12,36), "
        f"coverage {coverage}, mod-5 full, {elapsed:.1f}s",
    )


TWISTQUAD40_DIGESTS = {
    "": "147150dac927013242b5d0e0ee4a75cf99e9462245287988b6f45a7c2f8f7c24",
    ".density.json": "00d10c028916a8844cc9cdd2f58702a3ec1026e037e2307bc8060d9e7c4aef57",
    ".histogram.csv": "10173a7638fce7301dd58633913e4297e312dcdca5a7f3adefe0e3ae82283c44",
}


def test_criterion_5_twist_quadratic(workdir):
    t0 = time.monotonic()
    data, dens_bytes = _run_scan(workdir, "twistquad.json", 40, "fiber-first", "twistquad40.json")
    elapsed = time.monotonic() - t0
    params = _certified_params(data)
    rep = json.loads(data)
    assert len(params) >= 10
    assert Fraction(1) in params
    lam1 = [c for c in rep["certificates"] if c["param"] == "1"][0]
    assert lam1["status"] == "certified"
    assert lam1["witness"] == "2,4"
    assert lam1["curve"] == {"A": "0", "B": "8"}
    dens = json.loads(dens_bytes)
    regions = dens["component"]["regions"]
    assert len(regions) == 1 and regions[0]["hit"]
    assert _digests(workdir / "twistquad40.json") == TWISTQUAD40_DIGESTS
    _report(
        5,
        f"{len(params)} certified quadratic-twist params, lam=1 via (2,4) on Y^2=X^3+8, "
        f"single sign region hit, {elapsed:.1f}s",
    )


# The twist total-first walks: family file -> (bound, digests).
TWIST_TOTAL_FIRST_DIGESTS = {
    "twistlin.json": (
        6,
        {
            "": "25be17c3646c728e86d4ae7217f7bf3c2b0b2c3ee1873e75427c66359ebb5053",
            ".density.json": "10357724fb77c5dd92b09105816b9a98f999d5e6846b30e43297474fc114650d",
            ".histogram.csv": "dfc0edc347d13a0ef7f600a2efd288869cc7befbf972c7f44a1d7090a7f510e6",
        },
    ),
    "twistquad.json": (
        8,
        {
            "": "e27cc04d0fffa2cffda1dbb2938de3f708da4f1416bfef09456b7d8a9d577f4f",
            ".density.json": "d41ee512532d909bf53c8be3e20823f7d4800dad25aac0ea69f358891332b85f",
            ".histogram.csv": "4670a66a341229210aec42389c72d7ce66a774a55c848081a540fb071b2a519a",
        },
    ),
}


@pytest.mark.parametrize("family_file", sorted(TWIST_TOTAL_FIRST_DIGESTS))
def test_twist_total_first_bytes(workdir, family_file):
    bound, want = TWIST_TOTAL_FIRST_DIGESTS[family_file]
    out_name = f"total_first_{family_file}"
    _run_scan(workdir, family_file, bound, "total-first", out_name)
    assert _digests(workdir / out_name) == want


# Twists with non-integer coefficients: every fiber needs a scale u > 1 to
# reach its integral model.  twist_quadratic with c = 3/2, a = -5/4 and
# p = x^3 + x^2/3 - x + 1/2 (depression shift 1/9); twist_poly with
# d = (t - 1/2)(t + 3)/2 (two degenerate params) and p = x^3 + x^2 - x
# (shift 1/3, and the root x = 0 puts a 2-torsion witness on every fiber);
# twist_linear with p = x^3 - 13x^2/6 + x/6 + 1/3 = (x - 1/2)(x + 1/3)(x - 2)
# (shift -13/18, so the depressed cubic itself needs a scale u0 > 1, and
# three rational roots).
RATIONAL_TWISTS = {
    "twistlin_rational.json": {
        "kind": "twist_linear",
        "p": ["1/3", "1/6", "-13/6", "1"],
    },
    "twistquad_rational.json": {
        "kind": "twist_quadratic",
        "c": "3/2",
        "a": "-5/4",
        "p": ["1/2", "-1", "1/3", "1"],
    },
    "twistpoly_rational.json": {
        "kind": "twist_poly",
        "d": ["-3/4", "5/4", "1/2"],
        "p": ["0", "-1", "1", "1"],
    },
}

# (family file, mode) -> (bound, digests of the scan).  The twist_linear
# walk meets far more fibers per bound: 3,612 candidates at bound 8
# total-first.
RATIONAL_TWIST_DIGESTS = {
    ("twistlin_rational.json", "fiber-first"): (
        8,
        {
            "": "582d1d25e5b1ab103429bfa49373614cccd72504198bd7a62925598a4d913b73",
            ".density.json": "b4f4f334ec422b54e81a357399f1c58d974ea34680a72fda056efa7b04c2fde9",
            ".histogram.csv": "72aa8ce820b7818e1c71aaf8ac2d3c065d4548073408b824e93be0fea8a69480",
        },
    ),
    ("twistlin_rational.json", "total-first"): (
        8,
        {
            "": "67412ea88efdd5bb530365080654d4747238ff8e4110fd2c9beb4fb8c8e62f17",
            ".density.json": "4fcdd0c44aae86395e2b402c39b467cb06e0324a17d766d94c3b7b14ea498a38",
            ".histogram.csv": "11e3ad2fd3005de8625ae880bd6113c12a3e99e5979058590ae11a0d56b3149a",
        },
    ),
    ("twistquad_rational.json", "fiber-first"): (
        16,
        {
            "": "aeb0d1c7fc41e0296f5534ff2c2ac1943aaa5dccb435b371b2a4e62a8191b49f",
            ".density.json": "f469ab1c78bade1c929e8ca63699c37977335bf43b6fcb9c80480f0ce868aa31",
            ".histogram.csv": "0cd4d2c422db1829282abfe18d5f5709be1d38b13efee187ca97dc8463bd2f75",
        },
    ),
    ("twistquad_rational.json", "total-first"): (
        16,
        {
            "": "6afa8cee1d4a098a2ef1d62d9414ae2e4749021dea13310169d1d24dfc992761",
            ".density.json": "24ef48da13f10a9408a1acec22881a381dc2def15667b10ad463f4dd40254bee",
            ".histogram.csv": "f80822b1dc3cc7ebe8be440e2e2c1461409336a86ebc269ff3269fb6baf1214e",
        },
    ),
    ("twistpoly_rational.json", "fiber-first"): (
        16,
        {
            "": "23e791aabda1d350c420b9926dfd013d03ac7f6e9a779b41d694d1a988d5d0d5",
            ".density.json": "40769325cfe713301d9b346c366cc79515b372f7c28267f5ca7a50bb0646b2ec",
            ".histogram.csv": "ce7c376f0cfbc3da65c4adeed7c561b3a73015eaaab072b7726f7b6267521030",
        },
    ),
    ("twistpoly_rational.json", "total-first"): (
        16,
        {
            "": "952cc08df0f89020c7f326cafdf70480d3682fc8117431d6094a5fbb80fb108e",
            ".density.json": "40769325cfe713301d9b346c366cc79515b372f7c28267f5ca7a50bb0646b2ec",
            ".histogram.csv": "ce7c376f0cfbc3da65c4adeed7c561b3a73015eaaab072b7726f7b6267521030",
        },
    ),
}


@pytest.mark.parametrize("family_file, mode", sorted(RATIONAL_TWIST_DIGESTS))
def test_rational_coefficient_twist_bytes(workdir, family_file, mode):
    bound, want = RATIONAL_TWIST_DIGESTS[(family_file, mode)]
    out_name = f"rational_{mode}_{family_file}"
    _run_scan(workdir, family_file, bound, mode, out_name)
    assert _digests(workdir / out_name) == want


# sha256 of the default-format (CSV) scan report: n_sections 0 and 1, rank
# bounds 0, 1 and 2, jump true and false, and an empty gram_det_lb on
# torsion-witness rows.  The JSON digests above do not read these bytes.
CSV_REPORT_DIGESTS = {
    ("pencil.json", 4, "fiber-first"): (
        "57468594e88a30c750ec6221d7d0bbad8bf9ee690e75a18bd8544659968ff58f"
    ),
    ("twistlin.json", 6, "total-first"): (
        "8d96cb676f9d6583b70ec2027fd0927a4e1c4ac282997a9e3e3f3a78bf299076"
    ),
    ("twistquad.json", 10, "fiber-first"): (
        "2b2e834a4b6d2c176bae0ccbc8f2266f99345ff5affbca3ff46ce5dc4da3f2fe"
    ),
}

# The benchmark's reference pencil y^2 = x^3 + x - t + t^2 - t^3, section (t, t).
PENCIL_JSON = {
    "kind": "weierstrass_pencil",
    "A": {"num": ["1"], "den": ["1"]},
    "B": {"num": ["0", "-1", "1", "-1"], "den": ["1"]},
    "sections": [[["0", "1"], ["0", "1"]]],
}


@pytest.mark.parametrize("family_file, bound, mode", sorted(CSV_REPORT_DIGESTS))
def test_csv_report_bytes(workdir, family_file, bound, mode):
    (workdir / "pencil.json").write_text(json.dumps(PENCIL_JSON))
    out = workdir / f"csv_{family_file}_{bound}.csv"
    args = ["scan", "--family", str(workdir / family_file), "--bound", str(bound)]
    assert cli_main([*args, "--mode", mode, "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == CSV_REPORT_DIGESTS[(family_file, bound, mode)]


def test_criterion_6_billing(workdir):
    t0 = time.monotonic()
    out = str(workdir / "billing.json")
    rc = cli_main(["billing", "--p", "0,-1,0,1", "--rank", "3", "--bound", "10", "--out", out])
    assert rc == 0
    cert = json.loads(Path(out).read_text())
    assert cert["classes"] == [6, 15, 30]
    assert [w["point"] for w in cert["witnesses"]] == ["12,36", "60,450", "150,1800"]
    # end-to-end exact revalidation (twist membership, non-torsion, F2 rank)
    rebuilt = billing_build(X3_MINUS_X, 3, 10)
    rebuilt.revalidate()
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    _report(6, f"classes (6, 15, 30) with pinned witnesses, revalidated, {elapsed:.1f}s")


# sha256 of the `billing --out` JSON: classes with several primes, the class
# -1 (sign bit, no primes) and the class -6 (sign bit and primes).
BILLING_DIGESTS = {
    ("--p", "0,-1,0,1", "--rank", "3", "--bound", "10"): (
        "9fb698d89182c2947d247ce539585bd4bf9fc580eb425745a340e0a2f343d196"
    ),
    ("--p=-2,0,0,1", "--rank", "2", "--bound", "10"): (
        "385c9d5de2014b24fbdc5ed5528364eb83646385992d24f8d794bca9d6ac3968"
    ),
    ("--p=-7,0,0,1", "--rank", "3", "--bound", "12"): (
        "ac96b0174b62d6197ad65478c4b85fa4e0e5d86b3596782d3e87197194b36c41"
    ),
}


@pytest.mark.parametrize("argv", sorted(BILLING_DIGESTS))
def test_billing_bytes(workdir, argv):
    out = workdir / f"billing_pin_{argv[1]}.json"
    assert cli_main(["billing", *argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BILLING_DIGESTS[argv]


NERON_FAMILIES = {
    "pencil": PENCIL_JSON,
    "meeting": MEETING_PENCIL,
    # (0, 1) and (0, -1): negatives at every lam.
    "negatives": {**MEETING_PENCIL, "sections": [[["0"], ["1"]], [["0"], ["-1"]]]},
}

# sha256 of the `neron --out` JSON: the reference pencil's certified and
# exact-dependent fibers at two tolerances, and both pencils above.
NERON_DIGESTS = {
    ("pencil", "--bound", "15"): (
        "17b96ae7a94981642bf2ca44ff20e73dc6f21cfb3adc5dd583566a6879b99784"
    ),
    ("pencil", "--bound", "6", "--tol", "1e-7"): (
        "b05234aa1af7ed69b658170c9c6f583d9dd34a1c6ba1d22f0ae3b09c22a23092"
    ),
    ("meeting", "--bound", "8"): (
        "7f2b588542bbaddd03361021c057c161990fe661352a34464ab1429883fd1e7e"
    ),
    ("negatives", "--bound", "4"): (
        "487ddbb04608b3b3093e4a02b6d4adb7b51ca1219608c2f38108aeb4ae62fff6"
    ),
}


@pytest.mark.parametrize("argv", sorted(NERON_DIGESTS))
def test_neron_bytes(workdir, argv):
    family, *args = argv
    fam = workdir / f"neron_pin_{family}.json"
    fam.write_text(json.dumps(NERON_FAMILIES[family]))
    out = workdir / f"neron_pin_{'_'.join(argv)}.json"
    assert cli_main(["neron", "--family", str(fam), *args, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == NERON_DIGESTS[argv]


# ---------------------------------------------------------------------------
# 7. Negative controls


def test_criterion_7_negative_controls():
    t0 = time.monotonic()
    rng = random.Random(707)
    tol = Decimal("1e-2")
    cases = 0
    while cases < 40:
        C, P, Q = _random_curve_with_points(rng)
        if is_torsion(C, P) or is_torsion(C, Q):
            continue
        kind = cases % 4
        if kind in (0, 1):
            pts = [P, mul(C, 2, P)]
        elif kind == 2:
            if neg(P) == Q or P == Q:
                continue
            pts = [P, neg(P), Q]
        else:
            S = add(C, P, Q)
            if S.is_infinity or S in (P, Q):
                continue
            pts = [P, Q, S]
        g = gram_certify(C, pts, tol)
        assert not g.certified, f"false certificate on dependent set {pts}"
        # the honest independent subset is never beaten: {P} alone certifies
        g1 = gram_certify(C, [P], tol)
        assert g1.certified
        cases += 1
    # torsion witnesses always report jump = false
    f = TwistLinear(p=X3_MINUS_X)
    torsion_cases = 0
    for t0_param in (2, 3, 5, 7, 10, -2, -3, -5, -7, -10):
        t = Fraction(t0_param)
        w = f.point(t, t, f.fiber_model(t), Fraction(1), Fraction(0), Fraction(0))  # p(1) = 0
        cert = certify_fiber(f, w)
        assert cert.status == "torsion-witness" and not cert.jump
        torsion_cases += 1
    elapsed = time.monotonic() - t0
    assert cases + torsion_cases == 50
    _report(7, f"{cases} dependent Gram sets + {torsion_cases} torsion witnesses, 0 false certificates, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 8. Neron specialization check


def test_criterion_8_neron():
    t0 = time.monotonic()
    pencil = WeierstrassPencil(
        A=ratfunc([1]),
        B=ratfunc([0, -1, 1, -1]),
        sections=((ratfunc([0, 1]), ratfunc([0, 1])),),
    )
    rep = neron_check(pencil, 15)
    not_certified = rep.sampled - rep.certified_independent
    frac = Fraction(not_certified, rep.sampled)
    # heuristic thinness proxy: failures under 20% of sampled good fibers
    assert frac < Fraction(1, 5)
    elapsed = time.monotonic() - t0
    _report(
        8,
        f"{rep.certified_independent}/{rep.sampled} fibers certified independent "
        f"({not_certified} failures: {len(rep.exact_dependent)} exact, "
        f"{len(rep.inconclusive)} inconclusive), {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 9. Determinism


def test_criterion_9_determinism(workdir):
    t0 = time.monotonic()
    runs = {}
    for tag, jobs in (("a", 1), ("b", 1), ("j", 4)):
        runs[tag] = [
            _run_scan(workdir, "cubic.json", 12, "total-first", f"det_cubic_{tag}.json", jobs),
            _run_scan(workdir, "twistlin.json", 20, "fiber-first", f"det_tl_{tag}.json", jobs),
            _run_scan(workdir, "twistquad.json", 40, "fiber-first", f"det_tq_{tag}.json", jobs),
        ]
        out = str(workdir / f"det_billing_{tag}.json")
        rc = cli_main(["billing", "--p", "0,-1,0,1", "--rank", "3", "--bound", "10", "--out", out])
        assert rc == 0
        runs[tag].append((Path(out).read_bytes(), b""))
    assert runs["a"] == runs["b"], "repeated runs differ"
    assert runs["a"] == runs["j"], "--jobs 4 run differs"
    elapsed = time.monotonic() - t0
    _report(9, f"criteria 3-6 outputs byte-identical across reruns and --jobs 4, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# The benchmark tracer wraps module attributes by name; a probe whose
# binding is gone silently measures nothing, so every one must resolve.


def test_benchmark_probes_resolve():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [t for _, t in tracer.PROBES if t != "multiprocessing:Pool"]
    assert targets
    for target in targets:
        module_name, _, attr = target.partition(":")
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), f"probe target {target} is absent"
            owner = getattr(owner, part)
