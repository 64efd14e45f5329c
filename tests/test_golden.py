"""Golden digests: refactors must not move a single bit of report.json.

A deliberate change to the numbers updates these digests and says why in
CHANGES.md.
"""
import hashlib

from adaptkit.harness import run_experiment
from test_harness import tiny_config

GOLDEN_REPORT_SHA256 = {
    0: "7325e67a7e9893744ab464f5ce66d82acf7801fdb5a6aae0c95993562f2a7c7c",
    1: "3590fb475fd6c504bdbe8c3927c3f777b0baa32526f3f756c5805616e53960c0",
}


def test_report_digests_pinned(tmp_path):
    run_experiment(tiny_config(outdir=str(tmp_path)))
    got = {seed: hashlib.sha256((tmp_path / f"seed_{seed}" / "report.json").read_bytes())
           .hexdigest() for seed in (0, 1)}
    assert got == GOLDEN_REPORT_SHA256
