"""Golden bytes of the density files that `rankjump scan --out` writes next
to its report, for two twist_quadratic families with three sign regions.

The perfbench digests cover only a = -1 (one region), so these are the
only pins on the region split and the bin coverage of a two-root d(t).
The readable fields say what the digests mean; the digests pin the bytes.
"""

import hashlib
import json
from pathlib import Path

import pytest

from rankjump.cli import main

# (family, mode, sha256 of .density.json, sha256 of .histogram.csv,
#  histogram counts, (region, d_sign, count, bin_coverage) per region)
GOLDEN = [
    (
        {"kind": "twist_quadratic", "c": "1", "a": "2", "p": ["1", "0", "0", "1"]},
        "fiber-first",
        "4e4faf5a20be999d87cf21d84560176f0f541f66fc9eb438b68acea1d2ccc3a9",
        "31cda9fe6c9c6d198f694eff567687db0fbd9f8d819c91104edc2e3996f55174",
        [0, 0, 0, 0, 0, 0, 1, 1, 4, 2, 2, 3, 1, 1, 1, 0, 0, 0, 0, 0],
        [
            ("t < -sqrt(a)", 1, 5, "1/4"),
            ("-sqrt(a) < t < sqrt(a)", -1, 6, "1"),
            ("t > sqrt(a)", 1, 5, "3/8"),
        ],
    ),
    (
        {"kind": "twist_quadratic", "c": "-3", "a": "5", "p": ["0", "-1", "0", "1"]},
        "total-first",
        "fdc7e02228ca7e15414e27e4e1f2a00c1d434e7f5b467ca7df450aab3186468a",
        "ff5a3335727a71233f381e7c2176b7de9c2f49cf04fb5df1a45f1ca0020161f0",
        [0, 0, 0, 0, 0, 1, 0, 3, 1, 0, 1, 1, 3, 0, 0, 1, 0, 0, 0, 0],
        [
            ("t < -sqrt(a)", -1, 2, "1/7"),
            ("-sqrt(a) < t < sqrt(a)", 1, 7, "3/4"),
            ("t > sqrt(a)", -1, 2, "1/7"),
        ],
    ),
]


@pytest.mark.parametrize("family,mode,dens_sha,hist_sha,counts,regions", GOLDEN)
def test_density_files_golden(tmp_path, family, mode, dens_sha, hist_sha, counts, regions):
    fam = tmp_path / "f.json"
    fam.write_text(json.dumps(family))
    out = str(tmp_path / "scan.csv")
    argv = ["scan", "--family", str(fam), "--bound", "8", "--mode", mode, "--out", out]
    assert main(argv) == 0
    dens_bytes = Path(out + ".density.json").read_bytes()
    hist_bytes = Path(out + ".histogram.csv").read_bytes()

    dens = json.loads(dens_bytes)
    assert dens["real_histogram"]["counts"] == counts
    got = [
        (r["region"], r["d_sign"], r["count"], r["bin_coverage"])
        for r in dens["component"]["regions"]
    ]
    assert got == regions
    rows = hist_bytes.decode("ascii").splitlines()
    assert rows[0] == "bin_lo,bin_hi,count"
    assert rows[1] == "-10,-9,0" and rows[-1] == "9,10,0"
    assert [int(r.rsplit(",", 1)[1]) for r in rows[1:]] == counts

    assert hashlib.sha256(dens_bytes).hexdigest() == dens_sha
    assert hashlib.sha256(hist_bytes).hexdigest() == hist_sha
