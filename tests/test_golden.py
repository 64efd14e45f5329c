"""Golden digests: refactors must not move a single bit of report.json,
summary.json or the checkpoint files.

A deliberate change to the numbers or to the checkpoint layout updates these
digests and says why in CHANGES.md. To regenerate one, run its test at the
change, take the digest that the failing assert prints as the new constant,
and check that every digest it did not mean to move still passes.
"""
import hashlib
import json
from dataclasses import replace

import pytest

from adaptkit.distill import PhaseSchedule, distill
from adaptkit.harness import ExperimentConfig, make_datasets, run_experiment, stream
from adaptkit.layers import ArchSpec, build_network
from adaptkit.selfsup import pretrain
from adaptkit.source import train_source
from test_harness import ABORT_TRIGGERS, tiny_config

GOLDEN_REPORT_SHA256 = {
    0: "dcaa5666fbb756432d4276c90b8bff0dbee8e24080a6c584fb242885218bd020",
    1: "34e586bab0d3245ed50f810506b9c2801bcbb3107b62f7c83fcddae008321cb6",
}

GOLDEN_CHECKPOINT_SHA256 = {
    "seed_0/source.ckpt": "b349730abe727e29db6353805839306701d122bc4077e98976c58fdb5e845417",
    "seed_0/stage1.ckpt": "7bf76c34a28681e833a49a37d96b5f67d8b7bbdc5c589a3c8f533c713c02cbad",
    "seed_0/backbone.ckpt": "1adcb65a233d1d09bba288a8c960b02da0d39455acfdd4abefb74c5d0d5c7291",
    "seed_0/stage3.ckpt": "df05484d47ca87ef361ae40ac8f5c9b6327ef1e9704bc23afcdb7cc8ebe332d7",
    "seed_1/source.ckpt": "d8914cd17339c76f8fc0b284b9ad27a5d3a13358ae1e019ea1aba1ffe448dc60",
    "seed_1/stage1.ckpt": "81ff02dcac0d8ed42232c61de23897adf28762a1475fbabd9c0755f3a7efda58",
    "seed_1/backbone.ckpt": "e8861551526b83f338b7b8ef404af90145770e54f789b8ade5e8963f5b8b8fdd",
    "seed_1/stage3.ckpt": "9c005efc68f07bd959248345c9823c189c62f4ad28272b33c31e3d4551f925ab",
}

# one seed with calibration on: its report and the calibrated checkpoint
GOLDEN_CALIBRATED_SHA256 = {
    "seed_0/report.json": "002ee0dd24583ec4d44e88f65dee56e1695a26d5d9d2020cd590b99d20f17d03",
    "seed_0/calibrated.ckpt": "a90ab9ed9d83ddf6b29d303b60c01c0689373c0349fdb39279a9a5f13aa7dbb7",
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


# the tiny run's summary.json with config.outdir (the run's temporary directory)
# removed, dumped as summary.json is written
GOLDEN_SUMMARY_SHA256 = "15a920e7c8cabe67034bd6588f5be60ea6d3a2037d912154534f06db38623842"


def test_summary_digest_pinned(tiny_run):
    summary = json.loads((tiny_run / "summary.json").read_text())
    del summary["config"]["outdir"]
    text = json.dumps(summary, sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SUMMARY_SHA256


def test_calibrated_run_digests_pinned(tmp_path):
    run_experiment(tiny_config(seeds=(0,), calibrate=True, outdir=str(tmp_path)))
    got = {name: _sha256(tmp_path / name) for name in GOLDEN_CALIBRATED_SHA256}
    assert got == GOLDEN_CALIBRATED_SHA256


DEFAULT = ExperimentConfig()


@pytest.fixture(scope="module")
def default_data():
    return make_datasets(DEFAULT, 0)


def _tensors_digest(tensors, record) -> str:
    """SHA-256 over the tensors sorted by name, then the JSON of `record`."""
    h = hashlib.sha256()
    for t in sorted(tensors, key=lambda t: t.name):
        h.update(t.name.encode())
        h.update(t.data.astype("<f8").tobytes())
    h.update(json.dumps(record, sort_keys=True).encode())
    return h.hexdigest()


# Stages 0, 2 and 3 at the default shapes (batch 128 and a trailing 8-row block
# from 5000 rows), two epochs each, seed 0. Stage 0 trains the default teacher on
# the source: its tensors and loss history. Stage 2: the backbone tensors and
# loss history. Stage 3 distils that teacher into random students over one hard
# and one soft phase of two epochs: the last student's tensors and the trace.
GOLDEN_DEFAULT_SOURCE_SHA256 = "bc47f908e51f1611da03315267cd37bba42cd412d19b7e50f8322494ef553f4f"
GOLDEN_DEFAULT_PRETRAIN_SHA256 = "7421acf52d25cfb079c09b0228eb6625bf6450f1cb8e3e93896e0a2e63d36afd"
GOLDEN_DEFAULT_DISTILL_SHA256 = "0bc27600c31cbbb820a9dd119161fee157660551c794f9a4428f35f4adbbb026"


@pytest.fixture(scope="module")
def default_teacher(default_data):
    src, _ = default_data
    net = build_network(ArchSpec(src.dim, DEFAULT.teacher_hidden, src.num_classes),
                        stream(0, "stage0"))
    return train_source(net, src, replace(DEFAULT.source_cfg, epochs=2), stream(0, "stage0"))


def test_default_shape_source_digest_pinned(default_teacher):
    net, history, _ = default_teacher
    assert _tensors_digest(net.all_tensors(), history) == GOLDEN_DEFAULT_SOURCE_SHA256


def test_default_shape_pretrain_digest_pinned(default_data):
    src, tgt = default_data
    backbone, history, _ = pretrain(ArchSpec(src.dim, DEFAULT.student_hidden, src.num_classes),
                                    tgt.unlabeled_view(),
                                    replace(DEFAULT.contrastive_cfg, epochs=2), stream(0, "stage2"))
    assert _tensors_digest(backbone.backbone_tensors(), history) == GOLDEN_DEFAULT_PRETRAIN_SHA256


def test_default_shape_distill_digest_pinned(default_data, default_teacher):
    src, tgt = default_data
    schedule = PhaseSchedule(num_phases=2, epochs_per_phase=2, soft_label_interleave=True,
                             soft_phase_epochs=2)
    student, trace = distill(default_teacher[0],
                             ArchSpec(src.dim, DEFAULT.student_hidden, src.num_classes), None,
                             tgt.unlabeled_view(), replace(DEFAULT.distill_cfg, schedule=schedule),
                             stream(0, "stage3"))
    assert _tensors_digest(student.all_tensors(), trace) == GOLDEN_DEFAULT_DISTILL_SHA256


# The long-tailed benchmark (imbalance ratio 10) at the default shapes, seed 0,
# with stage 3 and calibration on short budgets: evaluate, pseudo_label and the
# calibration passes each predict on the full 5000-row target.
GOLDEN_DEFAULT_LONGTAIL_SHA256 = {
    "seed_0/report.json": "829939936fe14c9c72cfa6799cde0ef9f5f3b91c957006053b7cfdd87ebd74b0",
    "seed_0/per_class.csv": "1cca466fdada411fb4e0a84d9c73ece88f7c69c6fdcaa4dc0c56ed8f182b899a",
    "seed_0/trace.csv": "21adc461bdcc1ae01a8d7c7e88e37d294e89f9a499189b053d4dc52222b4356d",
    "seed_0/source.ckpt": "52f1b7da1d881089d463f94384e6923516b0656e121557b0e2e48b9953534533",
    "seed_0/stage3.ckpt": "070a931b7086b63b13db861918ea9d4c1c4a193989f6382dd4336cc1c3f97a57",
    "seed_0/calibrated.ckpt": "3660482bd0ccc89acb5f3123e5a4b7097c86e382f9f14914ebdea8bf4ba16062",
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


# The features and labels that make_datasets draws for the default benchmark at
# seed 0, and for the long-tailed one (ratio 100) at seed 1000.
DATASET_CASES = {"default": ({}, 0), "longtail_100": ({"imbalance_ratio": 100.0}, 1000)}
GOLDEN_DATASET_SHA256 = {
    "default": {
        "source.features": "94fa34c4a875b72d3396c1b5daa71c1c3ee9af50af3399101516bda87e15a185",
        "source.labels": "c3556f4a243d7dc7c1fb41d5302fb5050146cd15b4b1e72e41d57339c79a1367",
        "target.features": "c9586515dde899a668af89b0f82d2a0f89b594bfbd5557c721e09e84d3852738",
        "target.labels": "c3556f4a243d7dc7c1fb41d5302fb5050146cd15b4b1e72e41d57339c79a1367",
    },
    "longtail_100": {
        "source.features": "f9992108faae19950bb813c0d0300e4455a49f7f60357f203843595d0624f3fc",
        "source.labels": "df0b20a305468719b7db67fc281f47c37aee540935321a20e7cffc477fc20766",
        "target.features": "0f7a937e90feb425d3c3c9380d1199b233fc9cc5f8dda5c7a49e7575da582711",
        "target.labels": "c3556f4a243d7dc7c1fb41d5302fb5050146cd15b4b1e72e41d57339c79a1367",
    },
}


@pytest.mark.parametrize("case", sorted(DATASET_CASES))
def test_dataset_digests_pinned(case):
    kw, seed = DATASET_CASES[case]
    src, tgt = make_datasets(ExperimentConfig(**kw), seed)
    got = {f"{role}.{attr}": hashlib.sha256(getattr(ds, attr).tobytes()).hexdigest()
           for role, ds in (("source", src), ("target", tgt)) for attr in ("features", "labels")}
    assert got == GOLDEN_DATASET_SHA256[case]


# Variants of the tiny config on seed 0, one for each path the 2-seed run leaves
# out: a batchnorm-only stage 1, soft-label phases, a source model read from a
# checkpoint (seed 1's, so stage 0 is skipped), each abort trigger of
# test_harness with calibration on, and the stage toggles (source only, stage 1
# only, stages 1 and 3, calibration alone). Every file of the seed's directory
# is pinned.
_TINY = tiny_config()
TINY_VARIANTS = {
    **{f"{case}_abort": {"calibrate": True, section: replace(getattr(_TINY, section), lr=lr)}
       for case, (section, lr, _) in ABORT_TRIGGERS.items()},
    "batchnorm_only": {"adapt_cfg": replace(_TINY.adapt_cfg, update_set="batchnorm_only")},
    "soft_phases": {"distill_cfg": replace(_TINY.distill_cfg, schedule=replace(
        _TINY.distill_cfg.schedule, soft_label_interleave=True))},
    "source_checkpoint": {"source_checkpoint": "seed_1/source.ckpt"},  # in tiny_run
    "source_only": {"stage1": False, "stage2": False, "stage3": False},
    "stage1_only": {"stage2": False, "stage3": False},
    "stage1_3": {"stage2": False},
    "calibrate_only": {"stage1": False, "stage2": False, "stage3": False, "calibrate": True},
}
GOLDEN_VARIANT_SHA256 = {
    "stage0_abort": {
        "seed_0/backbone.ckpt": "1adcb65a233d1d09bba288a8c960b02da0d39455acfdd4abefb74c5d0d5c7291",
        "seed_0/calibrated.ckpt": "1a0fb92a379c91a7b5ed40ecce054ca0ef2e802b1e0764d82f5bf7af5b652f1a",
        "seed_0/per_class.csv": "fcb775f5d49f45a7308314667d74cc2499232ab55079c114c3e69b782c930041",
        "seed_0/report.json": "782a5dcb7c4939a98bcb0b7e99d4e99e8887381ca6fc2931b213a054aafae268",
        "seed_0/source.ckpt": "45909b6253f05096477a34dfb80915263bf23d7c5e3a9a26a73869762f859d8a",
        "seed_0/stage1.ckpt": "1ba3b3285a07baafb3776ff6e257b9522997a8abd92791fbd3e5ad57ecdbeaea",
        "seed_0/stage3.ckpt": "6f7f0b3fd88bd6c96dd572278a5044f25fc7113bc0ebffd16f4241acbee7659f",
        "seed_0/trace.csv": "3b42c30e5d923bf0e24fd57d8ce938f993a0d888ab8073ba1fbb4a4e1489492f",
    },
    "stage2_abort": {
        "seed_0/backbone.ckpt": "23c7cb97326e35b8272262f390ecb98505616c26bf6221727abd48389ed859e2",
        "seed_0/calibrated.ckpt": "9f63eaa01aaa3accf74280110265a1dffca63b3b4f7d7a38786d450ca86e9682",
        "seed_0/per_class.csv": "8889c469a239ca06cad530ebd64d4ebc3af2a6f598155746593be9788ccb2666",
        "seed_0/report.json": "1bf6fb28c1d50715c7ff525c33528d7e56d005aa7160e47f70d06b6ac395dabc",
        "seed_0/source.ckpt": "b349730abe727e29db6353805839306701d122bc4077e98976c58fdb5e845417",
        "seed_0/stage1.ckpt": "7bf76c34a28681e833a49a37d96b5f67d8b7bbdc5c589a3c8f533c713c02cbad",
        "seed_0/stage3.ckpt": "1bad201a0875a3d81751913287ca27c10ffff7dbb176ab1d9e31c22e935f51a8",
        "seed_0/trace.csv": "8ff8ba0dc1aaa55525f2f596b375b644afbc42bda73724e378fbe519241ed424",
    },
    "stage3_abort": {
        "seed_0/backbone.ckpt": "1adcb65a233d1d09bba288a8c960b02da0d39455acfdd4abefb74c5d0d5c7291",
        "seed_0/calibrated.ckpt": "c9e6324c1d5355cd2489ce7883481e68967aa37f4ff9b8548d652eeb3351b7ff",
        "seed_0/per_class.csv": "60e56f8879ccd0c83ec381d34b675359f181e8e14ff15bb10f7a38c426f67b7d",
        "seed_0/report.json": "7f3ff54cea1340a80acc4f1ca3adf201f9875ef175c4d5b540c5ca65a772c49d",
        "seed_0/source.ckpt": "b349730abe727e29db6353805839306701d122bc4077e98976c58fdb5e845417",
        "seed_0/stage1.ckpt": "7bf76c34a28681e833a49a37d96b5f67d8b7bbdc5c589a3c8f533c713c02cbad",
        "seed_0/stage3.ckpt": "84fae78fff16665a2f6024d925ae0761637271e0f4ce7482e1bae4e2fc0a4243",
        "seed_0/trace.csv": "49c95a0d88cadd96176a49cd8c7850f6bd9b3cbb5417dd29fa2706185f538c30",
    },
    "calibrate_abort": {
        "seed_0/backbone.ckpt": "1adcb65a233d1d09bba288a8c960b02da0d39455acfdd4abefb74c5d0d5c7291",
        "seed_0/calibrated.ckpt": "df05484d47ca87ef361ae40ac8f5c9b6327ef1e9704bc23afcdb7cc8ebe332d7",
        "seed_0/per_class.csv": "f4c4fad98b8ebdcacabceeb91d258a7880cf43c22e54b02fdf982561b7562bb9",
        "seed_0/report.json": "943e0c4f082ad5d81d4672c287e91a5d9dbcbac1ea587cb1b493b561c29dfa1b",
        "seed_0/source.ckpt": "b349730abe727e29db6353805839306701d122bc4077e98976c58fdb5e845417",
        "seed_0/stage1.ckpt": "7bf76c34a28681e833a49a37d96b5f67d8b7bbdc5c589a3c8f533c713c02cbad",
        "seed_0/stage3.ckpt": "df05484d47ca87ef361ae40ac8f5c9b6327ef1e9704bc23afcdb7cc8ebe332d7",
        "seed_0/trace.csv": "73d4c50d31971998be4f8aadffb4b11638f2090249d81c672b432395a4dd3b7e",
    },
    "calibrate_overflow_abort": {
        "seed_0/backbone.ckpt": "1adcb65a233d1d09bba288a8c960b02da0d39455acfdd4abefb74c5d0d5c7291",
        "seed_0/calibrated.ckpt": "df05484d47ca87ef361ae40ac8f5c9b6327ef1e9704bc23afcdb7cc8ebe332d7",
        "seed_0/per_class.csv": "f4c4fad98b8ebdcacabceeb91d258a7880cf43c22e54b02fdf982561b7562bb9",
        "seed_0/report.json": "cf355e761d6df66474d7cde8a531ee83936232808a76b0c96f11556e725395bf",
        "seed_0/source.ckpt": "b349730abe727e29db6353805839306701d122bc4077e98976c58fdb5e845417",
        "seed_0/stage1.ckpt": "7bf76c34a28681e833a49a37d96b5f67d8b7bbdc5c589a3c8f533c713c02cbad",
        "seed_0/stage3.ckpt": "df05484d47ca87ef361ae40ac8f5c9b6327ef1e9704bc23afcdb7cc8ebe332d7",
        "seed_0/trace.csv": "73d4c50d31971998be4f8aadffb4b11638f2090249d81c672b432395a4dd3b7e",
    },
    "batchnorm_only": {
        "seed_0/backbone.ckpt": "1adcb65a233d1d09bba288a8c960b02da0d39455acfdd4abefb74c5d0d5c7291",
        "seed_0/per_class.csv": "68b09ff8aca08ea96556163a1be01242c4e9841f42e78fa5b505bf7f44fff1fb",
        "seed_0/report.json": "7543b9d504dcabd049068050304414b62014c609b654231c65986ca85c9aa927",
        "seed_0/source.ckpt": "b349730abe727e29db6353805839306701d122bc4077e98976c58fdb5e845417",
        "seed_0/stage1.ckpt": "b40faeecf3cc738261381c5cc189bb8a675ab004235d640193af8d833be87fd6",
        "seed_0/stage3.ckpt": "df05484d47ca87ef361ae40ac8f5c9b6327ef1e9704bc23afcdb7cc8ebe332d7",
        "seed_0/trace.csv": "556e572b8c50fb573c415fc5f731ad9bb9e3bc96e46adcb276acc246eb4fdf37",
    },
    "soft_phases": {
        "seed_0/backbone.ckpt": "1adcb65a233d1d09bba288a8c960b02da0d39455acfdd4abefb74c5d0d5c7291",
        "seed_0/per_class.csv": "944a2a1bb1e9917d63075ade30b47a9d56f39d2a254445e0af558d5a93235425",
        "seed_0/report.json": "a0ede32383ae33876827afb92271136445c261e5f2497741feadfa0139fc9fe7",
        "seed_0/source.ckpt": "b349730abe727e29db6353805839306701d122bc4077e98976c58fdb5e845417",
        "seed_0/stage1.ckpt": "7bf76c34a28681e833a49a37d96b5f67d8b7bbdc5c589a3c8f533c713c02cbad",
        "seed_0/stage3.ckpt": "62e248d54d248ee5d71f227cad25de97ee9eb1579a33b2b30f0deaa36bf7ea57",
        "seed_0/trace.csv": "90f8170232882a1ff2214279926e5d77c16530cb5afc18f1bdeca7759503f1aa",
    },
    "source_checkpoint": {
        "seed_0/backbone.ckpt": "1adcb65a233d1d09bba288a8c960b02da0d39455acfdd4abefb74c5d0d5c7291",
        "seed_0/per_class.csv": "d7a6adeae452583f8b9aee13f5fa9a00b9c313c3476476f1945fe463cdc0ae43",
        "seed_0/report.json": "9118c58aa450207c32790582c3355cd54b5725ff4fdd09414aac6369c6b1efec",
        "seed_0/stage1.ckpt": "204e5b78a760d3c43bf5a41eff68bfaf5f78d588dbd8f47df6db2f92d61fb5a4",
        "seed_0/stage3.ckpt": "6c6da1443aba4d16b8c57df3288ba45c0789a3d41fb1c6c90b2b03d2ffca1a08",
        "seed_0/trace.csv": "3b73c49510a7098b023f9324ccd27dcd778b426076cee5fe103f98dda1b2cfe0",
    },
    "stage1_abort": {
        "seed_0/backbone.ckpt": "1adcb65a233d1d09bba288a8c960b02da0d39455acfdd4abefb74c5d0d5c7291",
        "seed_0/calibrated.ckpt": "4dcee46eb708bcc15220029f52859e4aea66baedbcebdb3ab5998636b7bae0a3",
        "seed_0/per_class.csv": "2b837f955650a0e6dab173e7dc208bae2dabefc99213a95297709aba9cec4f9d",
        "seed_0/report.json": "741d83351fc5eb1822cebbe1f559feb687cfc0e29de90729ed244485a38de99c",
        "seed_0/source.ckpt": "b349730abe727e29db6353805839306701d122bc4077e98976c58fdb5e845417",
        "seed_0/stage1.ckpt": "b349730abe727e29db6353805839306701d122bc4077e98976c58fdb5e845417",
        "seed_0/stage3.ckpt": "a87221c71f8cc7ad4e407793547b5422e049f90a93825f468442c32597477ec2",
        "seed_0/trace.csv": "8bf36bbe76a40db013e36d31c2b7531f8604ac7d040fca9ac0cdf7653b09693d",
    },
    "source_only": {
        "seed_0/per_class.csv": "bb5a6c50952f165d01c113ce0e69b7e3896c202ae2c0be66f6fbc0f218cd8ec1",
        "seed_0/report.json": "9a87111de6ef798dd04619390304ac7bb9cef290da5c90e0a959b1fa7ef1608f",
        "seed_0/source.ckpt": "b349730abe727e29db6353805839306701d122bc4077e98976c58fdb5e845417",
        "seed_0/trace.csv": "41f652148d4e94464d106b3d89a6b09b533e1269c28eb24b6c674570a497256b",
    },
    "stage1_only": {
        "seed_0/per_class.csv": "b9f1dcf34532b9a34981f7139c628041406c1d7e855d576656c56e4a761fd89c",
        "seed_0/report.json": "65f6d8d62f5a5dd175ee560d39a0a4ab5e1e60df30d4eb1142cdf0e5022a6020",
        "seed_0/source.ckpt": "b349730abe727e29db6353805839306701d122bc4077e98976c58fdb5e845417",
        "seed_0/stage1.ckpt": "7bf76c34a28681e833a49a37d96b5f67d8b7bbdc5c589a3c8f533c713c02cbad",
        "seed_0/trace.csv": "62ced4e461a74a8a7537e2b59b2c39ae50956442e9825fe4a97e2859e04ee682",
    },
    "stage1_3": {
        "seed_0/per_class.csv": "2f6bee2f68f9d238dbc81f884ca3210cf230221c989da31173ec022e6f4e793f",
        "seed_0/report.json": "2ea98857c0df6a9921398673f56a69e56e13a3335a4ab28d72d86d7063b1ecd8",
        "seed_0/source.ckpt": "b349730abe727e29db6353805839306701d122bc4077e98976c58fdb5e845417",
        "seed_0/stage1.ckpt": "7bf76c34a28681e833a49a37d96b5f67d8b7bbdc5c589a3c8f533c713c02cbad",
        "seed_0/stage3.ckpt": "310b446a7a3f0a8946d15cf97f6bb5cf0ac483c119f56c0eee9a16bad48c89fb",
        "seed_0/trace.csv": "6ff45f6c720c9c37ca060c8d628d4228cc6621520effd571d563005e27d8f236",
    },
    "calibrate_only": {
        "seed_0/calibrated.ckpt": "70ae6eb0eee348cf27252c916889ea7e2f99995365668a99aa5530acd209e0a2",
        "seed_0/per_class.csv": "cd128da8e0949c78c32a3be2fb262ca6c37a8bab26173dfa44dbca028e622ccc",
        "seed_0/report.json": "9988137cb13dd684286355af8c8db73d503d895bedb099d2d080f47cc535ac37",
        "seed_0/source.ckpt": "b349730abe727e29db6353805839306701d122bc4077e98976c58fdb5e845417",
        "seed_0/trace.csv": "41f652148d4e94464d106b3d89a6b09b533e1269c28eb24b6c674570a497256b",
    },
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", sorted(TINY_VARIANTS))
def test_tiny_variant_digests_pinned(tiny_run, tmp_path, case):
    kw = dict(TINY_VARIANTS[case])
    if "source_checkpoint" in kw:
        kw["source_checkpoint"] = str(tiny_run / kw["source_checkpoint"])
    run_experiment(tiny_config(seeds=(0,), outdir=str(tmp_path), **kw))
    written = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.glob("seed_0/*"))
    assert written == sorted(GOLDEN_VARIANT_SHA256[case])
    got = {name: _sha256(tmp_path / name) for name in written}
    assert got == GOLDEN_VARIANT_SHA256[case]
