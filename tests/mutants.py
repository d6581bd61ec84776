"""Mutants that the tests must kill.

Each mutant is one small patch to `src/` that breaks a rule a certificate
rests on: (file under src/rankjump, old text, new text, test node ids).
The old text must occur exactly once in the file.  For each mutant the
runner copies `src/` to a temporary directory, applies the patch there
and runs the mutant's tests against the copy; the mutant is killed when
they fail.  First it runs every named test against an unpatched copy, so
that a test failing for some other reason is not read as a kill.

Run from the repository root (stdlib only; pytest must be installed):

    python tests/mutants.py

It prints one line per mutant and exits 1 when a mutant survives, when a
patch does not apply, or when the unpatched copy fails a named test.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Seconds a mutant's tests may run before the mutant counts as survived.
TIMEOUT_S = 120

MUTANTS = (
    (
        "engine.py",
        "jump=not torsion and lb > declared,",
        "jump=not torsion and lb >= declared,",
        ["tests/test_engine.py::test_jump_needs_a_bound_above_the_generic_rank"],
    ),
    (
        "intervals.py",
        "return self.lo > 0",
        "return self.lo >= 0",
        ["tests/test_heights.py::test_strictly_positive_excludes_zero"],
    ),
    (
        "curves.py",
        "return n if n is not None and _mul(C, n, P).is_infinity else None",
        "return n",
        ["tests/test_curves.py::test_torsion_screen_point_reducing_to_infinity_at_1009"],
    ),
    (
        "engine.py",
        "if not torsion and any((xn, xd, -yn, yd) in keyed for xn, xd, yn, yd in keyed):",
        "if any((xn, xd, -yn, yd) in keyed for xn, xd, yn, yd in keyed):",
        ["tests/test_engine.py::test_torsion_witness_keeps_its_section_gram"],
    ),
    (
        "engine.py",
        "if not torsion and any((xn, xd, -yn, yd) in keyed for xn, xd, yn, yd in keyed):",
        "if not torsion and len(keyed) > 1:",
        ["tests/test_engine.py::test_dependent_pair_goes_straight_to_the_witness"],
    ),
    # neron_check counting a fiber as certified independent when only some
    # of its sections certified (two meet, or one is torsion).
    (
        "engine.py",
        "if cert.certified_rank_lb == len(pts):",
        "if cert.certified_rank_lb >= 1:",
        [
            "tests/test_cli.py::test_neron_sections_meeting[family0-relation0]",
            "tests/test_engine.py::test_neron_check_matches_the_fiber_gram_reference[meeting]",
        ],
    ),
    (
        "factorization.py",
        "if p * p > n:",
        "if p * p >= n:",
        [
            "tests/test_factorization.py::"
            "test_factorize_trusts_only_a_cofactor_that_trial_division_proves_prime"
        ],
    ),
    (
        "curves.py",
        "require_on_curve(C, P)\n    if P.y == 0:\n        return 2\n",
        "if P.y == 0:\n        return 2\n    require_on_curve(C, P)\n",
        ["tests/test_curves.py::test_off_curve_point_with_y_zero_still_raises"],
    ),
    (
        "engine.py",
        "model = memo.get((A, B))\n        if model is None:\n"
        "            model = memo[(A, B)] = HeightModel(A, B)",
        "model = memo.get((A,))\n        if model is None:\n"
        "            model = memo[(A,)] = HeightModel(A, B)",
        ["tests/test_engine.py::test_height_models_are_kept_per_integral_curve"],
    ),
    # The one scale rule of every integral model (curves.integral_scale):
    # u taken from the primes of one denominator only, and a ceiling
    # written as a floor.
    (
        "curves.py",
        "for p in eA.keys() | eB.keys():",
        "for p in eA.keys():",
        [
            "tests/test_curves.py::test_integral_model_takes_the_least_scale",
            "tests/test_families.py::test_twist_walks_emit_each_fibers_integral_model",
        ],
    ),
    (
        "curves.py",
        "-(-eA.get(p, 0) // 4)",
        "eA.get(p, 0) // 4",
        [
            "tests/test_curves.py::test_integral_model_takes_the_least_scale",
            "tests/test_families.py::test_twist_walks_emit_each_fibers_integral_model",
        ],
    ),
    (
        "intervals.py",
        "return Interval(_down(CTX.add(self.lo, other.lo)), _up(CTX.add(self.hi, other.hi)))",
        "return Interval(CTX.add(self.lo, other.lo), _up(CTX.add(self.hi, other.hi)))",
        ["tests/test_heights_golden.py::test_height_interval_golden"],
    ),
    # The k = 1 skip rule.  Its variant at bits(S) - 1 is left out: 3 bits(H)
    # <= bits(S) - 1 still gives 3 ln H < ln S <= alpha, so it differs from
    # the rule only where the enclosure's last-digit rounding decides, and no
    # test can be expected to kill it.
    (
        "heights.py",
        "3 * live[0].size_bits() <= m.s_bits - 2",
        "3 * live[0].size_bits() <= m.s_bits + 3",
        ["tests/test_heights.py::test_gram_skip_rule_matches_every_round_reference"],
    ),
    (
        "engine.py",
        '_require(square_class_independent(self.classes), "classes are not independent")',
        "pass",
        ["tests/test_engine.py::test_revalidate_rejects_dependent_classes"],
    ),
    # A memo hit read as non-torsion.
    (
        "engine.py",
        "known = memo[key] = is_torsion(curve(A, B), point_from_ints(P))\n    return known",
        "known = memo[key] = is_torsion(curve(A, B), point_from_ints(P))\n"
        "        return known\n    return False",
        ["tests/test_engine.py::test_a_memo_hit_keeps_its_torsion_answer"],
    ),
    # A twist admitted with an inseparable p.
    (
        "families.py",
        "elif not is_squarefree(self.p):",
        "elif False:",
        [
            "tests/test_families.py::test_validate_rejections",
            "tests/test_engine.py::test_scan_refuses_what_validate_rejects",
        ],
    ),
    # One integer form per curve fact: the bad part without den(B), the
    # singular form cleared by den(B)^3, and a fiber model that pairs B's
    # numerator with A's denominator.
    (
        "curves.py",
        "return 2 * C.A.denominator * C.B.denominator * C.singular_form",
        "return 2 * C.A.denominator * C.singular_form",
        ["tests/test_curves.py::test_screen_primes_follow_the_fraction_bad_part"],
    ),
    (
        "curves.py",
        "4 * A.numerator**3 * B.denominator**2",
        "4 * A.numerator**3 * B.denominator**3",
        [
            "tests/test_curves.py::test_curve_construction",
            "tests/test_curves.py::test_screen_primes_follow_the_fraction_bad_part",
        ],
    ),
    (
        "families.py",
        "nB, dB = B.numerator * a**3, B.denominator * b**3",
        "nB, dB = B.numerator * a**3, A.denominator * b**3",
        [
            "tests/test_families.py::test_twist_walks_emit_each_fibers_integral_model",
            "tests/test_families.py::test_fiber_model_is_the_fibers_integral_model",
        ],
    ),
    # The parameter line by formula: a height block's positive half read
    # forward, a param at hi counted in a bin, and a root of p counted as
    # one degenerate pair instead of one per y0.
    (
        "rationals.py",
        "yield from (-q for q in reversed(negative))",
        "yield from (-q for q in negative)",
        [
            "tests/test_rationals.py::test_enumerate_small",
            "tests/test_rationals.py::test_enumerate_matches_the_set_and_sort_reference",
        ],
    ),
    (
        "density.py",
        "if 0 <= i < bins:",
        "if 0 <= i <= bins:",
        ["tests/test_density.py::test_histogram_bin_edges_exact"],
    ),
    (
        "families.py",
        "stats.degenerate_skipped += len(ys)",
        "stats.degenerate_skipped += 1",
        ["tests/test_families.py::test_twist_total_first_matches_double_loop"],
    ),
    # O in the witness slot sent through the torsion screen.  No answer
    # changes, so only the test that counts the screens can kill it.
    (
        "engine.py",
        "torsion = W.is_infinity or _torsion(memo, A, B, w.model_witness)",
        "torsion = _torsion(memo, A, B, w.model_witness)",
        ["tests/test_engine.py::test_infinity_witness_takes_no_torsion_lookup"],
    ),
)


def _copy_src(dest: Path) -> Path:
    src = dest / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def _pytest(src: Path, tests: list[str]) -> tuple[bool, float]:
    """Run tests against the package under src; (all passed, seconds)."""
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    cmd += ["-o", f"pythonpath={src}", *tests]
    t0 = time.perf_counter()
    try:
        done = subprocess.run(
            cmd,
            cwd=ROOT,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return True, time.perf_counter() - t0
    return done.returncode == 0, time.perf_counter() - t0


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="rankjump-mutants-") as tmp:
        named = sorted({t for *_, tests in MUTANTS for t in tests})
        passed, secs = _pytest(_copy_src(Path(tmp) / "clean"), named)
        print(f"unpatched copy: named tests {'pass' if passed else 'FAIL'} ({secs:.1f} s)")
        if not passed:
            return 1
        for i, (name, old, new, tests) in enumerate(MUTANTS):
            src = _copy_src(Path(tmp) / str(i))
            path = src / "rankjump" / name
            text = path.read_text()
            label = f"{name}: {old!r} -> {new!r}"
            if text.count(old) != 1:
                print(f"NOT APPLIED {label} (old text occurs {text.count(old)} times)")
                failures += 1
                continue
            path.write_text(text.replace(old, new))
            passed, secs = _pytest(src, tests)
            print(f"{'SURVIVED' if passed else 'killed'} ({secs:.1f} s) {label}")
            failures += passed
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
