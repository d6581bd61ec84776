"""Tests of the benchmark itself, at tiny bounds.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run
from tracer import Tracer, load_spans

TINY = {
    "twistquad": run.Workload("twistquad", 6, "fiber-first", 1),
    "twistlin": run.Workload("twistlin", 3, "total-first", 1),
    "pencil": run.Workload("pencil", 3, "fiber-first", 1),
}
REPEATED_COUNTS = [
    "families.pairs_tested",
    "curves.torsion_tests",
    "curves.add_calls",
    "heights.chain_steps",
    "heights.gram_calls",
    "intervals.ln_calls",
]


def _runner(tmp_path: Path, pool: str, seed: int = 0) -> run.Runner:
    _, family = run.instance_for(TINY[pool], seed)
    return run.Runner(tmp_path / pool, family, deadline=float("inf"))


def _ok(sample: run.Sample) -> run.Sample:
    assert sample.error is None, sample.error
    return sample


def test_seed_picks_reference_then_pool():
    for wl in run.WORKLOADS.values():
        pool = run.POOLS[wl.pool]
        assert run.instance_for(wl, 0) == (0, pool[0])
        assert run.instance_for(wl, 1) == run.instance_for(wl, 1 + len(pool))
        assert len({json.dumps(f, sort_keys=True) for f in pool}) == len(pool)


def test_every_pool_instance_has_a_recorded_digest():
    digests = json.loads(run.DIGESTS.read_text())
    for wl in run.WORKLOADS.values():
        for i in range(len(run.POOLS[wl.pool])):
            assert wl.digest_key(i) in digests


def test_benchmark_json_lists_the_metrics_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.GATED)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, u) for n, u, _ in run.PER_LAYER]


def test_digests_repeat(tmp_path):
    runner = _runner(tmp_path, "twistlin")
    first = _ok(runner.scan(TINY["twistlin"], None))
    second = _ok(runner.scan(TINY["twistlin"], first.check.digest))
    assert first.check.digest == second.check.digest
    assert first.check.certified_params > 0


@pytest.mark.parametrize("pool", sorted(TINY))
def test_traced_counts_repeat_and_bytes_match_untraced(tmp_path, pool):
    wl = TINY[pool]
    runner = _runner(tmp_path, pool)
    plain = _ok(runner.scan(wl, None))
    traced = [_ok(runner.scan(wl, plain.check.digest, trace=True)) for _ in range(2)]
    a, b = (run.layer_metrics(s.trace, s.check) for s in traced)
    assert traced[0].trace["absent"] == []
    for name, _, kind in run.PER_LAYER:
        if name in ("trace.wall_s", "trace.overhead_s"):
            continue  # measure() adds these from whole scans
        assert name in a, name
        if kind == "count":
            assert a[name] == b[name], name
    for name in REPEATED_COUNTS:
        assert a[name] > 0, name


def test_jobs_two_gives_the_bytes_of_jobs_one(tmp_path):
    runner = _runner(tmp_path, "twistlin", seed=1)
    serial = _ok(runner.scan(TINY["twistlin"], None))
    parallel = run.Workload("twistlin", 3, "total-first", 2)
    _ok(runner.scan(parallel, serial.check.digest))
    traced = _ok(runner.scan(parallel, serial.check.digest, trace=True))
    metrics = run.layer_metrics(traced.trace, traced.check)
    assert metrics["engine.pool_s"] > 0
    assert metrics["engine.certify_s"] == 0  # certification ran in the workers


def test_absent_probe_is_reported_not_fatal():
    sys.path.insert(0, str(run.SRC))
    try:
        from rankjump import rationals

        tracer = Tracer()
        tracer.install(
            [
                ("rationals.is_rational_square", "rankjump.rationals:is_rational_square"),
                ("gone.span", "rankjump.rationals:no_such_function"),
            ]
        )
        try:
            assert rationals.is_rational_square(Fraction(9, 4)) == Fraction(3, 2)
        finally:
            tracer.uninstall()
    finally:
        sys.path.remove(str(run.SRC))
    summary = tracer.summary()
    assert summary["absent"] == ["gone.span"]
    assert summary["spans"]["rationals.is_rational_square"]["count"] == 1
    check = run.OutputCheck(digest="", candidates=1, certified_params=0, statuses={}, report_bytes=1)
    metrics = run.layer_metrics(summary, check)
    assert "families.stream_s" not in metrics and "rationals.square_tests" not in metrics
    assert metrics["engine.candidates"] == 1


def test_self_time_excludes_children_and_spans_round_trip(tmp_path):
    tracer = Tracer()

    def leaf():
        return 1

    leaf_t = tracer.wrap(leaf, "leaf")
    outer = tracer.wrap(lambda: leaf_t() + leaf_t(), "outer")
    assert outer() == 2
    summary = tracer.summary()
    spans = summary["spans"]
    assert spans["leaf"]["count"] == 2 and spans["outer"]["count"] == 1
    assert spans["outer"]["self_s"] == pytest.approx(spans["outer"]["total_s"] - spans["leaf"]["total_s"])
    path = tmp_path / "spans.bin"
    tracer.dump(path)
    names, arrays = load_spans(path)
    assert [names[i] for i in arrays["name"]] == ["outer", "leaf", "leaf"]
    assert list(arrays["parent"]) == [-1, 0, 0]


def test_check_flags_unsound_jump_rows(tmp_path):
    report = tmp_path / "r.json"
    cert = {
        "param": "2",
        "status": "certified",
        "jump": True,
        "certified_rank_lb": 1,
        "declared_generic_rank": 1,
        "gram": {"det_lower_bound": "-0.5"},
    }
    report.write_text(json.dumps({"stats": {"candidates": 1}, "certificates": [cert]}))
    for suffix in run.OUTPUT_SUFFIXES[1:]:
        Path(str(report) + suffix).write_text("")
    check = run.check_outputs(report)
    assert len(check.problems) == 2
    assert check.certified_params == 1
