"""Deterministic command-line front end: family configs in, certificates
and reports out.

Exit codes: 0 success, 2 config/input error, 3 search exhausted.  Data
files carry no timestamps; identical invocations write identical bytes.
stdout (or --out) carries only a command's data; every error and run note
goes to stderr, and errors leave only through `main`.  Every output is
written as it is encoded, so no command holds a second copy of what it
writes: a report's `to_json()` holds its own fields only, and the one
encoder, `_JSON`, expands each report object it meets (a certificate, a
Gram, a height) into its dict as it reaches it and drops that dict once
written.
"""

from __future__ import annotations

import argparse
import csv
import json
import operator
import sys
import time
from contextlib import nullcontext
from decimal import Decimal
from fractions import Fraction
from itertools import chain

from .curves import Curve, parse_point
from .density import density_report
from .engine import (
    CSV_COLUMNS,
    DEFAULT_SCAN_TOL,
    billing_build,
    neron_check,
    scan,
)
from .errors import RankJumpError, SearchExhausted
from .families import family_from_json, validate_family
from .heights import DEFAULT_HEIGHT_TOL, canonical_height, tolerance
from .polynomials import parse_poly
from .rationals import parse_rational


_JSON = json.JSONEncoder(sort_keys=True, indent=2, default=operator.methodcaller("to_json"))


def _tol(text: str) -> Decimal:
    """--tol: a finite decimal > 0."""
    try:
        return tolerance(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"must be a finite decimal > 0, got {text!r}") from exc


def _curve(text: str) -> tuple[Fraction, Fraction]:
    """--curve: two rationals "A,B"."""
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"must be two rationals A,B, got {text!r}")
    try:
        return parse_rational(parts[0]), parse_rational(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _jobs(text: str) -> int:
    """--jobs: an integer >= 1."""
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return jobs


def _load_family(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    return family_from_json(obj)


def _emit(data, out: str | None) -> None:
    """Encode data onto out (stdout if None) as it goes: a dict as JSON, with
    each report object in it expanded only when reached, else CSV rows."""
    sink = nullcontext(sys.stdout) if out is None else open(out, "w", encoding="ascii", newline="\n")
    with sink as fh:
        if isinstance(data, dict):
            fh.writelines(chain(_JSON.iterencode(data), "\n"))
        else:
            csv.writer(fh, lineterminator="\n").writerows(data)


def cmd_validate(args) -> int:
    findings = validate_family(_load_family(args.family))
    for f in findings:
        print(f"{f.severity}: [{f.code}] {f.message}")
    if any(f.severity == "error" for f in findings):
        return 2
    if not findings:
        print("valid")
    return 0


def cmd_scan(args) -> int:
    fam = _load_family(args.family)
    t0 = time.monotonic()
    report = scan(fam, args.bound, args.mode, args.tol, jobs=args.jobs)
    if args.format == "json":
        _emit(report.to_json(), args.out)
    else:
        _emit(chain([CSV_COLUMNS], (c.csv_row() for c in report.certificates)), args.out)
    if args.out is not None:
        dens = density_report(fam, report.certified_params())
        _emit(dens.to_json(), args.out + ".density.json")
        _emit(dens.histogram.csv_rows(), args.out + ".histogram.csv")
    print(
        f"certified {report.certified} of {report.candidates} candidates, "
        f"{report.distinct_params} distinct params",
        file=sys.stderr,
    )
    print(f"scan took {time.monotonic() - t0:.1f}s", file=sys.stderr)
    return 0


def cmd_billing(args) -> int:
    p = parse_poly(args.p.split(","))
    cert = billing_build(p, args.rank, args.bound)
    _emit(cert.to_json(), args.out)
    return 0


def cmd_neron(args) -> int:
    fam = _load_family(args.family)
    report = neron_check(fam, args.bound, args.tol)
    _emit(report.to_json(), args.out)
    return 0


def cmd_height(args) -> int:
    est = canonical_height(Curve(*args.curve), parse_point(args.point), args.tol)
    _emit(est.to_json(), None)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rankjump",
        description="Certified Mordell-Weil rank jumps on elliptic fibrations over Q.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="check a family JSON against its hypotheses")
    v.add_argument("family")
    v.set_defaults(fn=cmd_validate)

    s = sub.add_parser("scan", help="enumerate witnesses and certify rank jumps")
    s.add_argument("--family", required=True)
    s.add_argument("--bound", required=True, type=int)
    s.add_argument("--mode", choices=["total-first", "fiber-first"], default="total-first")
    s.add_argument("--tol", type=_tol, default=DEFAULT_SCAN_TOL)
    s.add_argument("--out", default=None)
    s.add_argument("--format", choices=["csv", "json"], default="csv")
    s.add_argument("--jobs", type=_jobs, default=1)
    s.set_defaults(fn=cmd_scan)

    b = sub.add_parser("billing", help="multiquadratic rank-growth certificate")
    b.add_argument("--p", required=True, help="ascending coefficients, e.g. 0,-1,0,1 for x^3-x")
    b.add_argument("--rank", required=True, type=int)
    b.add_argument("--bound", required=True, type=int)
    b.add_argument("--out", default=None)
    b.set_defaults(fn=cmd_billing)

    n = sub.add_parser("neron", help="empirical specialization-injectivity check")
    n.add_argument("--family", required=True)
    n.add_argument("--bound", required=True, type=int)
    n.add_argument("--tol", type=_tol, default=DEFAULT_SCAN_TOL)
    n.add_argument("--out", default=None)
    n.set_defaults(fn=cmd_neron)

    h = sub.add_parser("height", help="canonical height of one point")
    h.add_argument("--curve", required=True, type=_curve, help="A,B as rationals")
    h.add_argument("--point", required=True, help='"x,y" or "inf"')
    h.add_argument("--tol", type=_tol, default=DEFAULT_HEIGHT_TOL)
    h.set_defaults(fn=cmd_height)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except SearchExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (RankJumpError, OSError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
