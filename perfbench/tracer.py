"""Span tracer installed from outside the program.

The tracer replaces public module attributes of ``rankjump`` (and
``multiprocessing.Pool``, which the engine's parallel path calls through)
with timing wrappers, so nothing under ``src/`` has to change.  Every
wrapped call records one span: name, start, end and the index of the
enclosing span.  Spans live in compact arrays until the run ends; the
caller then asks for a per-name summary and may write the raw spans out.

A probe whose module attribute does not exist at the measured commit is
skipped and reported in ``Tracer.absent``; metrics built on it are then
left out instead of crashing the run.
"""

from __future__ import annotations

import array
import importlib
import json
import time
from typing import Callable, Optional

# (span name, "module:attribute" the program calls through).  Each probe
# wraps exactly that binding: "curves.is_torsion@engine" and "@heights"
# split the torsion screen by caller, and curves.add / curves.on_curve
# count the calls made inside the curves module (the torsion screen's
# group law), as named in the benchmark README.
PROBES = [
    ("cli.main", "rankjump.cli:main"),
    ("engine.scan", "rankjump.cli:scan"),
    ("density.report", "rankjump.cli:density_report"),
    ("families.witness_stream", "rankjump.engine:witness_stream"),
    ("rationals.int_pair_is_square", "rankjump.families:int_pair_is_square"),
    ("rationals.is_rational_square", "rankjump.families:is_rational_square"),
    ("families.fiber_at", "rankjump.engine:fiber_at"),
    ("engine.certify_fiber", "rankjump.engine:certify_fiber"),
    ("curves.is_torsion@engine", "rankjump.engine:is_torsion"),
    ("curves.is_torsion@heights", "rankjump.heights:is_torsion"),
    ("curves.add", "rankjump.curves:add"),
    ("curves.on_curve", "rankjump.curves:on_curve"),
    ("heights.gram_certify", "rankjump.engine:gram_certify"),
    ("heights.XChain.step", "rankjump.heights:XChain.step"),
    ("intervals.ln_int_interval", "rankjump.heights:ln_int_interval"),
    ("intervals.det_interval", "rankjump.heights:det_interval"),
    ("engine.pool.start", "multiprocessing:Pool"),
]

# Spans whose individual durations are kept for percentiles.
KEEP_DURATIONS = ("engine.certify_fiber",)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("H")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack = [-1]
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def _bump(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def wrap(self, fn: Callable, span: str, after: Optional[Callable] = None) -> Callable:
        """Return fn wrapped so each call records a span; after(result, args)
        runs once the span has closed."""
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        nid = self._ids[span]
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(out, args)
            return out

        return traced

    # -- hooks that read counts off return values -------------------------

    def _after_stream(self, out, args) -> None:
        stats = out[1]
        self._bump("families.pairs_tested", stats.enumerated)
        self._bump("families.emitted", stats.emitted)

    def _after_gram(self, out, args) -> None:
        self._bump("heights.gram_certified", 1 if out.certified else 0)

    def _after_step(self, out, args) -> None:
        bits = args[0].size_bits()
        if bits > self.counters.get("heights.max_chain_bits", 0):
            self.counters["heights.max_chain_bits"] = bits

    def _after_pool(self, pool, args) -> None:
        pool.map = self.wrap(pool.map, "engine.pool.map")

    def _guarded(self, hook: Callable) -> Callable:
        def after(out, args) -> None:
            try:
                hook(self, out, args)
            except (AttributeError, TypeError, IndexError):
                pass  # the return value changed shape: its counters stay absent

        return after

    _AFTER = {
        "families.witness_stream": _after_stream,
        "heights.gram_certify": _after_gram,
        "heights.XChain.step": _after_step,
        "engine.pool.start": _after_pool,
    }

    def install(self, probes=PROBES) -> None:
        for span, target in probes:
            module_name, _, attr = target.partition(":")
            owner_path, _, leaf = attr.rpartition(".")
            try:
                owner = importlib.import_module(module_name)
                for part in owner_path.split(".") if owner_path else ():
                    owner = getattr(owner, part)
                fn = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.append(span)
                continue
            hook = self._AFTER.get(span)
            after = self._guarded(hook) if hook is not None else None
            self._undo.append((owner, leaf, fn))
            setattr(owner, leaf, self.wrap(fn, span, after))

    def uninstall(self) -> None:
        while self._undo:
            owner, leaf, original = self._undo.pop()
            setattr(owner, leaf, original)

    # -- reading the spans ------------------------------------------------

    def summary(self) -> dict:
        """Per span name: count, inclusive seconds, self seconds (duration
        minus the time its direct child spans cover), first start and last
        end; plus the counters and the names of absent probes."""
        n = len(self.start)
        start, end, parent, name = self.start, self.end, self.parent, self.name
        covered = array.array("d", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        k = len(self.names)
        count = [0] * k
        total = [0.0] * k
        self_s = [0.0] * k
        first = [float("inf")] * k
        last = [float("-inf")] * k
        keep = {self._ids[s]: [] for s in KEEP_DURATIONS if s in self._ids}
        for i in range(n):
            j = name[i]
            d = end[i] - start[i]
            count[j] += 1
            total[j] += d
            self_s[j] += d - covered[i]
            if start[i] < first[j]:
                first[j] = start[i]
            if end[i] > last[j]:
                last[j] = end[i]
            if j in keep:
                keep[j].append(d)
        spans = {}
        for j, span in enumerate(self.names):
            spans[span] = {
                "count": count[j],
                "total_s": total[j],
                "self_s": self_s[j],
                "first_start": first[j] if count[j] else None,
                "last_end": last[j] if count[j] else None,
            }
            if j in keep:
                spans[span]["durations_s"] = keep[j]
        return {
            "spans": spans,
            "span_count": n,
            "counters": dict(self.counters),
            "absent": list(self.absent),
        }

    def dump(self, path) -> None:
        """Write every span: one JSON header line, then the name, parent,
        start and end arrays in native byte order."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": [["name", "H"], ["parent", "i"], ["start", "d"], ["end", "d"]],
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode("ascii"))
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


def load_spans(path) -> tuple[list[str], dict[str, array.array]]:
    """Read a file written by Tracer.dump back into its arrays."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = {}
        for field, code in header["arrays"]:
            arr = array.array(code)
            arr.fromfile(fh, header["spans"])
            arrays[field] = arr
    return header["names"], arrays
