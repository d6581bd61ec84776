"""Scan benchmark for rankjump: end-to-end metrics per workload and, with
--trace 1, per-layer metrics from an outside-in span trace.

Run from the repository root:

    python3 perfbench/run.py --workload twistlin-total --seed 0 --seconds 20 --trace 0

Every scan runs in a fresh process through the real command line
(rankjump.cli.main(["scan", ...])) on a family JSON generated from the
seed.  Each scan's report, density and histogram bytes are hashed and
compared with the digest recorded in digests.json for that input, and the
JSON report is checked for sound jump rows.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload NAME --record

re-records the digests of every instance in the workload's pool (only
after a change that is meant to alter the output bytes).
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DIGESTS = HERE / "digests.json"

# Set-up probes (processes that only start, import and validate) before
# each untraced scan, so the set-up samples spread over the run like the
# scans do instead of catching the machine's speed at one moment.
PROBES_PER_SCAN = 3
# Every run ends within this many seconds, whatever --seconds says.
HARD_LIMIT_S = 170.0
OUTPUT_SUFFIXES = ("", ".density.json", ".histogram.csv")


# ---------------------------------------------------------------------------
# Inputs.  Each pool's first instance is the reference (seed 0); the others
# are the same kind and shape, chosen to certify within a few percent of the
# reference so that a seed changes the input but not the size of the work.


def _poly(coeffs) -> list[str]:
    return [str(c) for c in coeffs]


def _twistquad(c: int, a: int, k: int) -> dict:
    """d(t) = c(t^2 - a), p = x^3 + k^3."""
    return {"kind": "twist_quadratic", "c": str(c), "a": str(a), "p": _poly([k**3, 0, 0, 1])}


def _twistlin(r1: int, r2: int, r3: int) -> dict:
    """t y^2 = (x - r1)(x - r2)(x - r3)."""
    p = [-r1 * r2 * r3, r1 * r2 + r1 * r3 + r2 * r3, -(r1 + r2 + r3), 1]
    return {"kind": "twist_linear", "p": _poly(p)}


def _pencil(a: int) -> dict:
    """y^2 = x^3 + a x + (-a t + t^2 - t^3) with the section (t, t)."""
    return {
        "kind": "weierstrass_pencil",
        "A": {"num": [str(a)], "den": ["1"]},
        "B": {"num": _poly([0, -a, 1, -1]), "den": ["1"]},
        "sections": [[["0", "1"], ["0", "1"]]],
    }


POOLS = {
    "twistquad": [_twistquad(1, -1, 1), _twistquad(4, -1, 1), _twistquad(1, -1, 2), _twistquad(9, -1, 1)],
    "twistlin": [_twistlin(-1, 0, 1), _twistlin(-2, 0, 1), _twistlin(-1, 1, 2), _twistlin(-1, 0, 2)],
    "pencil": [_pencil(1), _pencil(2), _pencil(3), _pencil(4), _pencil(5)],
}


@dataclass(frozen=True)
class Workload:
    pool: str
    bound: int
    mode: str
    jobs: int

    def digest_key(self, instance: int) -> str:
        return f"{self.pool}-b{self.bound}-{self.mode}/{instance}"


WORKLOADS = {
    "twistquad-fiber": Workload("twistquad", 40, "fiber-first", 1),
    "twistlin-total": Workload("twistlin", 8, "total-first", 1),
    "pencil-fiber": Workload("pencil", 8, "fiber-first", 1),
    "twistlin-total-jobs2": Workload("twistlin", 8, "total-first", 2),
}

# The workloads BENCHMARK.json lists.  pencil-fiber stays runnable by name
# for work on heights, but on a shared 2-core machine its run-to-run spread
# (12-38% of the median over ten runs) is too wide for the benchmark's
# bounds, and leaving it out buys the other workloads longer runs.
GATED = ("twistquad-fiber", "twistlin-total", "twistlin-total-jobs2")


def instance_for(wl: Workload, seed: int) -> tuple[int, dict]:
    pool = POOLS[wl.pool]
    i = seed % len(pool)
    return i, pool[i]


# ---------------------------------------------------------------------------
# Metrics.  (name, unit, kind): "time" values are medians over the run's
# samples; "count" values must repeat exactly in every sample.

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("certified_params", "count"),
    ("ok_ratio", "fraction"),
]

PER_LAYER = [
    ("families.stream_s", "s", "time"),
    ("families.pairs_tested", "count", "count"),
    ("families.emitted", "count", "count"),
    ("families.hit_ratio", "fraction", "count"),
    ("rationals.square_tests", "count", "count"),
    ("rationals.square_test_s", "s", "time"),
    ("families.fiber_at_calls", "count", "count"),
    ("families.fiber_at_s", "s", "time"),
    ("curves.torsion_tests", "count", "count"),
    ("curves.torsion_tests.engine", "count", "count"),
    ("curves.torsion_tests.heights", "count", "count"),
    ("curves.torsion_tests_per_candidate", "ratio", "count"),
    ("curves.torsion_s", "s", "time"),
    ("curves.add_calls", "count", "count"),
    ("curves.on_curve_calls", "count", "count"),
    ("heights.gram_calls", "count", "count"),
    ("heights.gram_per_candidate", "ratio", "count"),
    ("heights.gram_certified_ratio", "fraction", "count"),
    ("heights.gram_self_s", "s", "time"),
    ("heights.chain_steps", "count", "count"),
    ("heights.chain_step_s", "s", "time"),
    ("heights.max_chain_bits", "bits", "count"),
    ("intervals.ln_calls", "count", "count"),
    ("intervals.ln_s", "s", "time"),
    ("intervals.det_calls", "count", "count"),
    ("intervals.det_s", "s", "time"),
    ("engine.certify_s", "s", "time"),
    ("engine.cert_ms.p50", "ms", "time"),
    ("engine.cert_ms.p90", "ms", "time"),
    ("engine.cert_ms.p99", "ms", "time"),
    ("engine.serial_prefix_s", "s", "time"),
    ("engine.pool_s", "s", "time"),
    ("engine.candidates", "count", "count"),
    ("engine.status_certified", "count", "count"),
    ("engine.status_inconclusive", "count", "count"),
    ("engine.status_torsion_witness", "count", "count"),
    ("density.report_s", "s", "time"),
    ("cli.emit_s", "s", "time"),
    ("cli.report_bytes", "bytes", "count"),
    ("trace.spans", "count", "count"),
    ("trace.wall_s", "s", "time"),
    ("trace.overhead_s", "s", "time"),
]


def _ratio(num: float, den: float) -> float:
    """num/den, and 0 when nothing was attempted on this side of the pool."""
    return num / den if den else 0.0


def _percentile_ms(durations: list[float], pct: int) -> float:
    """Nearest-rank percentile in milliseconds; 0 with no samples."""
    if not durations:
        return 0.0
    ordered = sorted(durations)
    return 1000.0 * ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def layer_metrics(summary: dict, check: "OutputCheck") -> dict[str, float]:
    """Per-layer values of one traced scan.  A metric whose probe is absent
    at this commit is left out."""
    spans, ctr = summary["spans"], summary["counters"]

    def count(name: str) -> int:
        return spans[name]["count"]

    def total(name: str) -> float:
        return spans[name]["total_s"]

    def torsion_tests() -> int:
        return count("curves.is_torsion@engine") + count("curves.is_torsion@heights")

    def cert_window() -> tuple[float, float]:
        """Start and end of certification: the serial certify_fiber calls,
        or the worker pool from its creation to the end of its map."""
        starts = [spans[n]["first_start"] for n in ("engine.certify_fiber", "engine.pool.start") if n in spans]
        ends = [spans[n]["last_end"] for n in ("engine.certify_fiber", "engine.pool.map") if n in spans]
        starts = [s for s in starts if s is not None]
        ends = [e for e in ends if e is not None]
        if not starts:
            raise KeyError("certification")
        return min(starts), max(ends)

    def max_chain_bits() -> int:
        count("heights.XChain.step")  # KeyError when the probe is absent
        return ctr.get("heights.max_chain_bits", 0)

    cand = check.candidates
    recipes = {
        "families.stream_s": lambda: total("families.witness_stream"),
        "families.pairs_tested": lambda: ctr["families.pairs_tested"],
        "families.emitted": lambda: ctr["families.emitted"],
        "families.hit_ratio": lambda: _ratio(ctr["families.emitted"], ctr["families.pairs_tested"]),
        "rationals.square_tests": lambda: count("rationals.int_pair_is_square")
        + count("rationals.is_rational_square"),
        "rationals.square_test_s": lambda: total("rationals.int_pair_is_square")
        + total("rationals.is_rational_square"),
        "families.fiber_at_calls": lambda: count("families.fiber_at"),
        "families.fiber_at_s": lambda: total("families.fiber_at"),
        "curves.torsion_tests": torsion_tests,
        "curves.torsion_tests.engine": lambda: count("curves.is_torsion@engine"),
        "curves.torsion_tests.heights": lambda: count("curves.is_torsion@heights"),
        "curves.torsion_tests_per_candidate": lambda: _ratio(torsion_tests(), cand),
        "curves.torsion_s": lambda: total("curves.is_torsion@engine") + total("curves.is_torsion@heights"),
        "curves.add_calls": lambda: count("curves.add"),
        "curves.on_curve_calls": lambda: count("curves.on_curve"),
        "heights.gram_calls": lambda: count("heights.gram_certify"),
        "heights.gram_per_candidate": lambda: _ratio(count("heights.gram_certify"), cand),
        "heights.gram_certified_ratio": lambda: _ratio(
            ctr.get("heights.gram_certified", 0), count("heights.gram_certify")
        ),
        "heights.gram_self_s": lambda: spans["heights.gram_certify"]["self_s"],
        "heights.chain_steps": lambda: count("heights.XChain.step"),
        "heights.chain_step_s": lambda: total("heights.XChain.step"),
        "heights.max_chain_bits": max_chain_bits,
        "intervals.ln_calls": lambda: count("intervals.ln_int_interval"),
        "intervals.ln_s": lambda: total("intervals.ln_int_interval"),
        "intervals.det_calls": lambda: count("intervals.det_interval"),
        "intervals.det_s": lambda: total("intervals.det_interval"),
        "engine.certify_s": lambda: total("engine.certify_fiber"),
        "engine.cert_ms.p50": lambda: _percentile_ms(spans["engine.certify_fiber"]["durations_s"], 50),
        "engine.cert_ms.p90": lambda: _percentile_ms(spans["engine.certify_fiber"]["durations_s"], 90),
        "engine.cert_ms.p99": lambda: _percentile_ms(spans["engine.certify_fiber"]["durations_s"], 99),
        "engine.serial_prefix_s": lambda: cert_window()[0] - spans["engine.scan"]["first_start"],
        "engine.pool_s": lambda: cert_window()[1] - cert_window()[0],
        "engine.candidates": lambda: cand,
        "engine.status_certified": lambda: check.statuses.get("certified", 0),
        "engine.status_inconclusive": lambda: check.statuses.get("inconclusive", 0),
        "engine.status_torsion_witness": lambda: check.statuses.get("torsion-witness", 0),
        "density.report_s": lambda: total("density.report"),
        "cli.emit_s": lambda: total("cli.main") - total("engine.scan") - total("density.report"),
        "cli.report_bytes": lambda: check.report_bytes,
        "trace.spans": lambda: summary["span_count"],
    }
    out = {}
    for name, recipe in recipes.items():
        try:
            out[name] = recipe()
        except (KeyError, TypeError):
            pass  # probe absent at this commit, or never reached
    return out


# ---------------------------------------------------------------------------
# Output check


@dataclass
class OutputCheck:
    digest: str
    candidates: int
    certified_params: int
    statuses: dict[str, int]
    report_bytes: int
    problems: list[str] = field(default_factory=list)


def check_outputs(report_path: Path) -> OutputCheck:
    """Hash the three output files and check every jump row of the JSON
    report: certified_rank_lb > declared_generic_rank and a positive Gram
    determinant lower bound.  Raises OSError/ValueError on unreadable output."""
    blobs = [Path(str(report_path) + s).read_bytes() for s in OUTPUT_SUFFIXES]
    h = hashlib.sha256()
    for blob in blobs:
        h.update(len(blob).to_bytes(8, "big"))
        h.update(blob)
    report = json.loads(blobs[0])
    statuses: dict[str, int] = {}
    certified: set[str] = set()
    problems = []
    for cert in report["certificates"]:
        statuses[cert["status"]] = statuses.get(cert["status"], 0) + 1
        if cert["status"] == "certified":
            certified.add(cert["param"])
        if cert["jump"]:
            if not cert["certified_rank_lb"] > cert["declared_generic_rank"]:
                problems.append(f"jump at {cert['param']} without a rank bound above the generic rank")
            gram = cert["gram"]
            try:
                positive = gram is not None and Decimal(gram["det_lower_bound"]) > 0
            except InvalidOperation:
                positive = False
            if not positive:
                problems.append(f"jump at {cert['param']} without a positive Gram determinant")
    return OutputCheck(
        digest=h.hexdigest(),
        candidates=report["stats"]["candidates"],
        certified_params=len(certified),
        statuses=statuses,
        report_bytes=len(blobs[0]),
        problems=problems,
    )


# ---------------------------------------------------------------------------
# Running scans


@dataclass
class Sample:
    """One child process: a set-up probe or a scan."""

    setup_s: Optional[float] = None
    wall_s: Optional[float] = None
    peak_rss_mib: Optional[float] = None
    check: Optional[OutputCheck] = None
    trace: Optional[dict] = None
    error: Optional[str] = None


class Runner:
    """Starts child processes in one working directory and checks outputs."""

    def __init__(self, rundir: Path, family: dict, deadline: float):
        self.rundir = rundir
        self.deadline = deadline
        rundir.mkdir(parents=True, exist_ok=True)
        self.family = rundir / "family.json"
        self.family.write_text(json.dumps(family, indent=2) + "\n", encoding="utf-8")
        self.report = rundir / "report.json"

    def _child(self, argv: Optional[list[str]], trace: bool) -> tuple[Optional[dict], Optional[str]]:
        result = self.rundir / "result.json"
        result.unlink(missing_ok=True)
        spec = {
            "src": str(SRC),
            "family": str(self.family),
            "argv": argv,
            "trace": trace,
            "spans": str(self.rundir / "spans.bin"),
            "result": str(result),
        }
        with open(self.rundir / "child.log", "ab") as log:
            spec["spawned"] = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                stdout=log,
                stderr=log,
                stdin=subprocess.DEVNULL,
                cwd=str(self.rundir),
                start_new_session=True,
            )
            try:
                rc = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                return None, "timed out"
        if rc != 0 or not result.exists():
            return None, f"child exited with code {rc}"
        return json.loads(result.read_text(encoding="utf-8")), None

    def setup_probe(self) -> Sample:
        res, err = self._child(None, False)
        if err:
            return Sample(error=err)
        return Sample(setup_s=res["setup_s"])

    def scan(self, wl: Workload, expected: Optional[str], trace: bool = False) -> Sample:
        for suffix in OUTPUT_SUFFIXES:
            Path(str(self.report) + suffix).unlink(missing_ok=True)
        argv = ["scan", "--family", str(self.family), "--bound", str(wl.bound), "--mode", wl.mode]
        argv += ["--jobs", str(wl.jobs), "--format", "json", "--out", str(self.report)]
        res, err = self._child(argv, trace)
        if err:
            return Sample(error=err)
        s = Sample(
            setup_s=res["setup_s"],
            wall_s=res["wall_s"],
            peak_rss_mib=res["peak_rss_mib"],
            trace=res.get("trace"),
        )
        if res["rc"] != 0:
            s.error = f"scan exited with code {res['rc']}"
            return s
        try:
            s.check = check_outputs(self.report)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            s.error = f"unreadable output: {exc!r}"
            return s
        if s.check.problems:
            s.error = "; ".join(s.check.problems[:3])
        elif expected is not None and s.check.digest != expected:
            s.error = f"output digest {s.check.digest} differs from the recorded {expected}"
        return s


def _repeat(step, seconds: float, deadline: float) -> list:
    """Call step() at least once and again while the next call, estimated
    by the median duration so far, still ends within seconds."""
    begin = time.monotonic()
    out, took = [], []
    while True:
        t = time.monotonic()
        out.append(step())
        took.append(time.monotonic() - t)
        now = time.monotonic()
        nxt = statistics.median(took)
        if now - begin + nxt > seconds or now + nxt > deadline:
            return out


def _same(values: list) -> bool:
    return all(v == values[0] for v in values)


def measure(wl: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, int, int, bool]:
    """Run one benchmark run; returns (metrics, attempted, failed, correct)."""
    deadline = time.monotonic() + HARD_LIMIT_S
    instance, family = instance_for(wl, seed)
    digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
    expected = digests.get(wl.digest_key(instance))
    rundir = WORK / f"{os.getpid()}"
    runner = Runner(rundir, family, deadline)
    correct = expected is not None
    if expected is None:
        print(f"error: no recorded digest for {wl.digest_key(instance)}", file=sys.stderr)

    probes: list[Sample] = []
    if trace:
        pairs = _repeat(lambda: (runner.scan(wl, expected), runner.scan(wl, expected, trace=True)), seconds, deadline)
        plain = [p[0] for p in pairs]
        traced = [p[1] for p in pairs]
    else:

        def probed_scan() -> Sample:
            probes.extend(runner.setup_probe() for _ in range(PROBES_PER_SCAN))
            return runner.scan(wl, expected)

        plain = _repeat(probed_scan, seconds, deadline)
        traced = []
    scans = plain + traced
    for s in probes + scans:
        if s.error:
            print(f"error: {s.error}", file=sys.stderr)
    ok_plain = [s for s in plain if not s.error]
    ok_traced = [s for s in traced if not s.error]
    if not ok_plain or (trace and not ok_traced):
        raise RuntimeError("no scan completed")
    failed = sum(1 for s in scans if s.error)
    attempted = len(scans)
    if not _same([s.check.digest for s in ok_plain + ok_traced]):
        correct = False
        print("error: output bytes differ between scans of one input", file=sys.stderr)
    correct = correct and failed == 0

    if not trace:
        setups = [s.setup_s for s in probes + scans if s.setup_s is not None]
        params = [s.check.certified_params for s in ok_plain]
        values = {
            "wall_s": statistics.median(s.wall_s for s in ok_plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mib": statistics.median(s.peak_rss_mib for s in ok_plain),
            "certified_params": params[0],
            "ok_ratio": (attempted - failed) / attempted,
        }
        correct = correct and _same(params)
        units = dict(END_TO_END)
        walls = ", ".join(f"{s.wall_s:.3f}" for s in ok_plain)
        print(f"wall_s over {len(ok_plain)} scans: {walls}; {len(setups)} set-up samples", file=sys.stderr)
    else:
        per_scan = [layer_metrics(s.trace, s.check) for s in ok_traced]
        values = {}
        for name, unit, kind in PER_LAYER:
            samples = [m[name] for m in per_scan if name in m]
            if len(samples) != len(per_scan) or not samples:
                continue
            if kind == "count":
                if not _same(samples):
                    correct = False
                    print(f"error: {name} differs between traced scans: {samples}", file=sys.stderr)
                values[name] = samples[0]
            else:
                values[name] = statistics.median(samples)
        values["trace.wall_s"] = statistics.median(s.wall_s for s in ok_traced)
        values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(s.wall_s for s in ok_plain)
        absent = sorted(set(ok_traced[0].trace["absent"]))
        if absent:
            print(f"absent probes: {', '.join(absent)}", file=sys.stderr)
        units = {name: unit for name, unit, _ in PER_LAYER}
        print(f"{len(ok_traced)} traced and {len(ok_plain)} untraced scans", file=sys.stderr)
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    shutil.rmtree(rundir, ignore_errors=True)
    return metrics, attempted, failed, correct


def record(wl: Workload) -> None:
    """Scan every instance of the workload's pool once and store its digest."""
    digests = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    for i, family in enumerate(POOLS[wl.pool]):
        runner = Runner(WORK / f"record-{os.getpid()}", family, time.monotonic() + 3600)
        s = runner.scan(wl, None)
        if s.error:
            raise RuntimeError(f"instance {i}: {s.error}")
        digests[wl.digest_key(i)] = s.check.digest
        print(f"{wl.digest_key(i)}: {s.check.digest} ({s.check.certified_params} certified params)")
        shutil.rmtree(runner.rundir, ignore_errors=True)
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", action="store_true", help="re-record the pool's output digests")
    args = ap.parse_args(argv)
    if not (SRC / "rankjump" / "cli.py").is_file():
        print(f"error: no rankjump sources under {SRC}", file=sys.stderr)
        return 2
    # Byte-compile up front so no scan pays for it.
    compileall.compile_dir(str(SRC / "rankjump"), quiet=1)
    wl = WORKLOADS[args.workload]
    if args.record:
        record(wl)
        return 0
    try:
        metrics, attempted, failed, correct = measure(wl, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
