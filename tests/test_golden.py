"""Golden digests: refactors must not move a single bit of report.json or of
the checkpoint files.

A deliberate change to the numbers or to the checkpoint layout updates these
digests and says why in CHANGES.md.
"""
import hashlib

import pytest

from adaptkit.harness import run_experiment
from test_harness import tiny_config

GOLDEN_REPORT_SHA256 = {
    0: "7325e67a7e9893744ab464f5ce66d82acf7801fdb5a6aae0c95993562f2a7c7c",
    1: "3590fb475fd6c504bdbe8c3927c3f777b0baa32526f3f756c5805616e53960c0",
}

GOLDEN_CHECKPOINT_SHA256 = {
    "seed_0/source.ckpt": "ca7cd33049bffa5178d924b62762966f8fdc680765e14841ac6589f242bab0fb",
    "seed_0/stage1.ckpt": "8f03c68c41e820a3ee6be0d16826458521e9ee948048ba4df941ffcc85158d78",
    "seed_0/backbone.ckpt": "55ba0e7e312b7c4c1c34a5fadfec3e6199332607a551f1e3edeadff41e93bc9b",
    "seed_0/stage3.ckpt": "2de2889bdbf9f088ccdcce854fa4d01b5468e3b8e05a394631d337d9c629d023",
    "seed_1/source.ckpt": "d6bdcfd369e09b06c52cde280aa92ec32bde8bd4f0205f36857acccd5849c194",
    "seed_1/stage1.ckpt": "4045a23a1847d49501a8a6d85022a437d59aa1eaaa751b90a41b917cf9b05079",
    "seed_1/backbone.ckpt": "2dbd93575939b80e815cd21e33160407129c1cdd6c3151d28df27760c64052cd",
    "seed_1/stage3.ckpt": "0c1391adc875fa7c5fc664f7eb7e2919699f78b43770221bb1d0d5c3b0695aa5",
}

# one seed with calibration on: its report and the calibrated checkpoint
GOLDEN_CALIBRATED_SHA256 = {
    "seed_0/report.json": "1e3673c4750984553419fa4fbf843bcd7dfccf3040d241978e30a57f9088e40d",
    "seed_0/calibrated.ckpt": "d6ed8404b94dfe6dcbea5858e156b25dbf7e61d017096ba6da6fe532c261568b",
}


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("golden")
    run_experiment(tiny_config(outdir=str(outdir)))
    return outdir


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_report_digests_pinned(tiny_run):
    got = {seed: _sha256(tiny_run / f"seed_{seed}" / "report.json") for seed in (0, 1)}
    assert got == GOLDEN_REPORT_SHA256


def test_checkpoint_digests_pinned(tiny_run):
    written = sorted(str(p.relative_to(tiny_run)) for p in tiny_run.glob("seed_*/*.ckpt"))
    assert written == sorted(GOLDEN_CHECKPOINT_SHA256)
    got = {name: _sha256(tiny_run / name) for name in GOLDEN_CHECKPOINT_SHA256}
    assert got == GOLDEN_CHECKPOINT_SHA256


def test_calibrated_run_digests_pinned(tmp_path):
    run_experiment(tiny_config(seeds=(0,), calibrate=True, outdir=str(tmp_path)))
    got = {name: _sha256(tmp_path / name) for name in GOLDEN_CALIBRATED_SHA256}
    assert got == GOLDEN_CALIBRATED_SHA256
