"""One benchmark process: start, import rankjump, parse and validate the
family, then (unless this is a set-up probe) run one scan through the
real command line, ``rankjump.cli.main(["scan", ...])``.

Usage: python3 child.py SPEC_JSON, where SPEC_JSON holds
  spawned  time.monotonic() in the parent just before this process started
  src      directory that holds the rankjump package
  family   path of the family JSON
  argv     CLI arguments of the scan, or null for a set-up probe
  trace    install the tracer around the scan
  spans    where the tracer writes its spans
  result   where this process writes its result JSON
"""

import json
import resource
import sys
import time


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    from rankjump import cli
    from rankjump.families import family_from_json, validate_family

    with open(spec["family"], "r", encoding="utf-8") as fh:
        fam = family_from_json(json.load(fh))
    if any(f.severity == "error" for f in validate_family(fam)):
        print("family fails validation", file=sys.stderr)
        return 2
    result = {"setup_s": time.monotonic() - spec["spawned"]}
    if spec["argv"] is not None:
        tracer = None
        if spec["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        t0 = time.monotonic()
        rc = cli.main(spec["argv"])
        sys.stdout.flush()
        result["wall_s"] = time.monotonic() - t0
        result["rc"] = rc
        peak_kib = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        result["peak_rss_mib"] = peak_kib / 1024
        if tracer is not None:
            tracer.dump(spec["spans"])
            result["trace"] = tracer.summary()
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
