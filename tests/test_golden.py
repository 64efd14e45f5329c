"""Golden digests: refactors must not move a single bit of report.json or of
the checkpoint files.

A deliberate change to the numbers or to the checkpoint layout updates these
digests and says why in CHANGES.md.
"""
import hashlib
import json
from dataclasses import replace

import pytest

from adaptkit.distill import PhaseSchedule
from adaptkit.harness import ExperimentConfig, make_datasets, run_experiment, stream
from adaptkit.layers import ArchSpec
from adaptkit.selfsup import pretrain
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


# Stage 2 at the default shapes (backbone widths 32, batch 128 and a trailing
# 8-row block from 5000 target rows), two epochs, seed 0: SHA-256 over the
# sorted backbone tensors and the loss history.
GOLDEN_DEFAULT_PRETRAIN_SHA256 = "08244b8bdf18539010e81b80de89c4e05a63d9e7d84c17073e5f357176c833c7"


def test_default_shape_pretrain_digest_pinned():
    cfg = ExperimentConfig()
    src, tgt = make_datasets(cfg, 0)
    student = pretrain(ArchSpec(src.dim, cfg.student_hidden, src.num_classes),
                       tgt.unlabeled_view(), replace(cfg.contrastive_cfg, epochs=2),
                       stream(0, "stage2"))
    h = hashlib.sha256()
    for name, arr in sorted(student.tensors.items()):
        h.update(name.encode())
        h.update(arr.astype("<f8").tobytes())
    h.update(json.dumps(student.loss_history, sort_keys=True).encode())
    assert h.hexdigest() == GOLDEN_DEFAULT_PRETRAIN_SHA256


# The long-tailed benchmark (imbalance ratio 10) at the default shapes, seed 0,
# with stage 3 and calibration on short budgets: evaluate, pseudo_label and the
# calibration passes each predict on the full 5000-row target.
GOLDEN_DEFAULT_LONGTAIL_SHA256 = {
    "seed_0/report.json": "8b0c20bf95ff91241a1f2b3a7b961d5a2250f65e769df010d156b17e4227d493",
    "seed_0/per_class.csv": "697f792c1302ae2bec8ca65c33c3dc290414ced19a157c089442ed31bd983971",
    "seed_0/trace.csv": "3ede7ccacf2c512cf3a938d5418abde68ea4a1f98657e9df46485cb9ca56ded5",
    "seed_0/source.ckpt": "e5d4ab2508da3ff3f263894511e2e867af449f204a44b39cf33f32b005bcb760",
    "seed_0/stage3.ckpt": "a3cde1f35e33fa67790bbe393dea239a46eda0fd24c73b1613e9e44f8e1b4928",
    "seed_0/calibrated.ckpt": "e1a7fa3a68a78b25654c0467ffe37c14a72111dda00f1b4ce72a789f47fa2e74",
}


def test_default_shape_longtail_calibrated_digests_pinned(tmp_path):
    d = ExperimentConfig()
    run_experiment(ExperimentConfig(
        imbalance_ratio=10.0, stage1=False, stage2=False, stage3=True, calibrate=True,
        source_cfg=replace(d.source_cfg, epochs=2),
        distill_cfg=replace(d.distill_cfg, schedule=PhaseSchedule(num_phases=1,
                                                                  epochs_per_phase=1)),
        calibrate_cfg=replace(d.calibrate_cfg, rounds=1, epochs=1),
        seeds=(0,), outdir=str(tmp_path)))
    written = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.glob("seed_0/*.ckpt"))
    assert written == sorted(k for k in GOLDEN_DEFAULT_LONGTAIL_SHA256 if k.endswith(".ckpt"))
    got = {name: _sha256(tmp_path / name) for name in GOLDEN_DEFAULT_LONGTAIL_SHA256}
    assert got == GOLDEN_DEFAULT_LONGTAIL_SHA256
