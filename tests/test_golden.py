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
    0: "329fd03f8267d038101d892412bec72a38e70e7861e163394d929d3729198b08",
    1: "d2e14a1e9732a7cae933d38ef91fa0c018d24d59119e2e57676bcba41b5a16c6",
}

GOLDEN_CHECKPOINT_SHA256 = {
    "seed_0/source.ckpt": "78fcade2bba9468125e2b6ead6879d7e58e828d77e4ae3c964f5e53000cb1576",
    "seed_0/stage1.ckpt": "8dea4a7d6aa0eed164a574b1017dc3a0792882c910bcfb7e04f8c4dd2743e5cc",
    "seed_0/backbone.ckpt": "db8f846b0339dcb9692ceb45b009250d4471751cf995da709eeaf0b83bb99636",
    "seed_0/stage3.ckpt": "62a590af5887e81144aff5591813e421485b62ff2052736be35ecaccf05f8a01",
    "seed_1/source.ckpt": "9dec683c918a54ec29aec74088aefcc4a25d05d98f6e7455a18c87d5ae895496",
    "seed_1/stage1.ckpt": "42befe44d5c1d48e5001562520ab4c059b7b56d5c7cc44124e952cc332545ba9",
    "seed_1/backbone.ckpt": "75908b8ce77accaf986f116bc0e3401fb529802372a77555a02224dc6bd68fd3",
    "seed_1/stage3.ckpt": "b721910c486e0d5db0ea7cb244ed2cd5fe82eafca44e721ce8c13e527c5c68aa",
}

# one seed with calibration on: its report and the calibrated checkpoint
GOLDEN_CALIBRATED_SHA256 = {
    "seed_0/report.json": "5a822d73f1d36bbd045d08ccb272e68dfbc42451f39844e6c049aeb9174622d7",
    "seed_0/calibrated.ckpt": "c25af44b8cac8cb037e3ae61cb84b8c9f253a40eba81613c80801b50d829a7f7",
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
GOLDEN_DEFAULT_SOURCE_SHA256 = "0ccc6a741074d80d1a47cdc5c11d484d2e76399159df5cf0577dfa3267ab6400"
GOLDEN_DEFAULT_PRETRAIN_SHA256 = "9db52c9e423759bf9fbde67583c6cbb1f52031d01ebacc5c66cb161349ba4376"
GOLDEN_DEFAULT_DISTILL_SHA256 = "44bd19f691d916cb60752143b99e8d4069bd9c4ee60ecf6d0ee020ff891fca88"


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
    "seed_0/report.json": "b2e44f31f4ff518156b1944b1311566310b22cd3d1a3a2a7dd06ec00ed2da173",
    "seed_0/per_class.csv": "1cca466fdada411fb4e0a84d9c73ece88f7c69c6fdcaa4dc0c56ed8f182b899a",
    "seed_0/trace.csv": "21adc461bdcc1ae01a8d7c7e88e37d294e89f9a499189b053d4dc52222b4356d",
    "seed_0/source.ckpt": "48bbf0253af1de16714494a16878153e8bde8434c77d6dc7ca46e1309f48858b",
    "seed_0/stage3.ckpt": "ed3f806f9a62d3677ce3b44e207fe7fd482708ffcf6fcdda42ffe79d2201e5f1",
    "seed_0/calibrated.ckpt": "42dc124ab28f36d11a7557abf69d75ff079da7d32f8fa340704b581c9c8979ee",
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
        "seed_0/backbone.ckpt": "db8f846b0339dcb9692ceb45b009250d4471751cf995da709eeaf0b83bb99636",
        "seed_0/calibrated.ckpt": "66b0a2156a0f893e74e21d80bf7089242df9616b429967de05bf554cb4a4d9c5",
        "seed_0/per_class.csv": "fcb775f5d49f45a7308314667d74cc2499232ab55079c114c3e69b782c930041",
        "seed_0/report.json": "26beee7995bffeb361316d44e8db411f3950538d6c91f38a25f25121755ca144",
        "seed_0/source.ckpt": "45909b6253f05096477a34dfb80915263bf23d7c5e3a9a26a73869762f859d8a",
        "seed_0/stage1.ckpt": "f7ec1e0579f3ff5ebb7195b184c4017aed8eca5e9f7f4eb3de22f5f4b1a64012",
        "seed_0/stage3.ckpt": "c4c68a279174ff73d643dcbc0493a0b1a0eea873c5096246a6a2918e75f04885",
        "seed_0/trace.csv": "3b42c30e5d923bf0e24fd57d8ce938f993a0d888ab8073ba1fbb4a4e1489492f",
    },
    "stage2_abort": {
        "seed_0/backbone.ckpt": "23c7cb97326e35b8272262f390ecb98505616c26bf6221727abd48389ed859e2",
        "seed_0/calibrated.ckpt": "1b9cd002d1ebed6f18e80235e2d8f2448a9e2262fd7a722b2522d0541e9bfa7f",
        "seed_0/per_class.csv": "8889c469a239ca06cad530ebd64d4ebc3af2a6f598155746593be9788ccb2666",
        "seed_0/report.json": "bf88cf3208e67b294b5ae360ad4af6b4a637becb1c1029cd395220a9076c2a27",
        "seed_0/source.ckpt": "78fcade2bba9468125e2b6ead6879d7e58e828d77e4ae3c964f5e53000cb1576",
        "seed_0/stage1.ckpt": "8dea4a7d6aa0eed164a574b1017dc3a0792882c910bcfb7e04f8c4dd2743e5cc",
        "seed_0/stage3.ckpt": "d0da2d8e7c0198825d2771cf94778d5a45d9a1e6a59ba8a885a79acee26daf30",
        "seed_0/trace.csv": "8ff8ba0dc1aaa55525f2f596b375b644afbc42bda73724e378fbe519241ed424",
    },
    "stage3_abort": {
        "seed_0/backbone.ckpt": "db8f846b0339dcb9692ceb45b009250d4471751cf995da709eeaf0b83bb99636",
        "seed_0/calibrated.ckpt": "35a7000b29e4e5c2f3e4ce49f8ddd526a3547e7c5add810398c7011478bc62e2",
        "seed_0/per_class.csv": "60e56f8879ccd0c83ec381d34b675359f181e8e14ff15bb10f7a38c426f67b7d",
        "seed_0/report.json": "ab7e95ce6d08b985be437e51ade7f875f24282c37e3a2e7b0cebb1d4f74e3dc7",
        "seed_0/source.ckpt": "78fcade2bba9468125e2b6ead6879d7e58e828d77e4ae3c964f5e53000cb1576",
        "seed_0/stage1.ckpt": "8dea4a7d6aa0eed164a574b1017dc3a0792882c910bcfb7e04f8c4dd2743e5cc",
        "seed_0/stage3.ckpt": "3749bc8846e410bfd3010f76ade6a63461a53530b2f3ef8dfe2449b0352f73a3",
        "seed_0/trace.csv": "49c95a0d88cadd96176a49cd8c7850f6bd9b3cbb5417dd29fa2706185f538c30",
    },
    "calibrate_abort": {
        "seed_0/backbone.ckpt": "db8f846b0339dcb9692ceb45b009250d4471751cf995da709eeaf0b83bb99636",
        "seed_0/calibrated.ckpt": "62a590af5887e81144aff5591813e421485b62ff2052736be35ecaccf05f8a01",
        "seed_0/per_class.csv": "f4c4fad98b8ebdcacabceeb91d258a7880cf43c22e54b02fdf982561b7562bb9",
        "seed_0/report.json": "0afdc105b2fb6d7e2c29a8a10188e58eb132a97ce8b63187926ed32ab59059ae",
        "seed_0/source.ckpt": "78fcade2bba9468125e2b6ead6879d7e58e828d77e4ae3c964f5e53000cb1576",
        "seed_0/stage1.ckpt": "8dea4a7d6aa0eed164a574b1017dc3a0792882c910bcfb7e04f8c4dd2743e5cc",
        "seed_0/stage3.ckpt": "62a590af5887e81144aff5591813e421485b62ff2052736be35ecaccf05f8a01",
        "seed_0/trace.csv": "73d4c50d31971998be4f8aadffb4b11638f2090249d81c672b432395a4dd3b7e",
    },
    "calibrate_overflow_abort": {
        "seed_0/backbone.ckpt": "db8f846b0339dcb9692ceb45b009250d4471751cf995da709eeaf0b83bb99636",
        "seed_0/calibrated.ckpt": "62a590af5887e81144aff5591813e421485b62ff2052736be35ecaccf05f8a01",
        "seed_0/per_class.csv": "f4c4fad98b8ebdcacabceeb91d258a7880cf43c22e54b02fdf982561b7562bb9",
        "seed_0/report.json": "b7bb972342ec089a2810ebcc0f8fe6ad80151e6dbf0bc7ac5fafe4ed1c7daba4",
        "seed_0/source.ckpt": "78fcade2bba9468125e2b6ead6879d7e58e828d77e4ae3c964f5e53000cb1576",
        "seed_0/stage1.ckpt": "8dea4a7d6aa0eed164a574b1017dc3a0792882c910bcfb7e04f8c4dd2743e5cc",
        "seed_0/stage3.ckpt": "62a590af5887e81144aff5591813e421485b62ff2052736be35ecaccf05f8a01",
        "seed_0/trace.csv": "73d4c50d31971998be4f8aadffb4b11638f2090249d81c672b432395a4dd3b7e",
    },
    "batchnorm_only": {
        "seed_0/backbone.ckpt": "db8f846b0339dcb9692ceb45b009250d4471751cf995da709eeaf0b83bb99636",
        "seed_0/per_class.csv": "68b09ff8aca08ea96556163a1be01242c4e9841f42e78fa5b505bf7f44fff1fb",
        "seed_0/report.json": "029cc294bf340d1a7d6f85c283ba659da1400b7f087c7824bd7e022e204ab736",
        "seed_0/source.ckpt": "78fcade2bba9468125e2b6ead6879d7e58e828d77e4ae3c964f5e53000cb1576",
        "seed_0/stage1.ckpt": "ed1ed28edb41f9da793af70d6cc5d437f092242984e4b13f4d80ac3fdec6d117",
        "seed_0/stage3.ckpt": "62a590af5887e81144aff5591813e421485b62ff2052736be35ecaccf05f8a01",
        "seed_0/trace.csv": "556e572b8c50fb573c415fc5f731ad9bb9e3bc96e46adcb276acc246eb4fdf37",
    },
    "soft_phases": {
        "seed_0/backbone.ckpt": "db8f846b0339dcb9692ceb45b009250d4471751cf995da709eeaf0b83bb99636",
        "seed_0/per_class.csv": "944a2a1bb1e9917d63075ade30b47a9d56f39d2a254445e0af558d5a93235425",
        "seed_0/report.json": "ed81fe99ee78aa16c8bc77a5eaf444c8b0a882e3555a5103cc05c668a78d6160",
        "seed_0/source.ckpt": "78fcade2bba9468125e2b6ead6879d7e58e828d77e4ae3c964f5e53000cb1576",
        "seed_0/stage1.ckpt": "8dea4a7d6aa0eed164a574b1017dc3a0792882c910bcfb7e04f8c4dd2743e5cc",
        "seed_0/stage3.ckpt": "db3f4fb4a529b4c44720b58a68cc4067e76e85fce544300666d1dafd82a1deea",
        "seed_0/trace.csv": "90f8170232882a1ff2214279926e5d77c16530cb5afc18f1bdeca7759503f1aa",
    },
    "source_checkpoint": {
        "seed_0/backbone.ckpt": "db8f846b0339dcb9692ceb45b009250d4471751cf995da709eeaf0b83bb99636",
        "seed_0/per_class.csv": "d7a6adeae452583f8b9aee13f5fa9a00b9c313c3476476f1945fe463cdc0ae43",
        "seed_0/report.json": "c61209e4c3ca8b00d32625d49b9fad2d4ef6a04b2b262d38e3d9b771390f50ef",
        "seed_0/stage1.ckpt": "51932c4758e1b44e02fd1d427b2a82443dbd876612b48aeed66de064c2d8e324",
        "seed_0/stage3.ckpt": "70b14344745f691b73d17a6976a85957838ac7fd2c248663c2c95f65575d7ecf",
        "seed_0/trace.csv": "3b73c49510a7098b023f9324ccd27dcd778b426076cee5fe103f98dda1b2cfe0",
    },
    "stage1_abort": {
        "seed_0/backbone.ckpt": "db8f846b0339dcb9692ceb45b009250d4471751cf995da709eeaf0b83bb99636",
        "seed_0/calibrated.ckpt": "bdae3677cafc8f7c964c32aa3ef155c1f5567939641d8bf4fc33b01d34d164ac",
        "seed_0/per_class.csv": "2b837f955650a0e6dab173e7dc208bae2dabefc99213a95297709aba9cec4f9d",
        "seed_0/report.json": "ffc2cd093ae7d080e73bbcfe37d0b5d10d2a20627e8a66f3626bade1d7abfb0b",
        "seed_0/source.ckpt": "78fcade2bba9468125e2b6ead6879d7e58e828d77e4ae3c964f5e53000cb1576",
        "seed_0/stage1.ckpt": "78fcade2bba9468125e2b6ead6879d7e58e828d77e4ae3c964f5e53000cb1576",
        "seed_0/stage3.ckpt": "7b9d3f50ecd7f96644be60673897cceafe111808c5f98510dc177e947cf891ac",
        "seed_0/trace.csv": "8bf36bbe76a40db013e36d31c2b7531f8604ac7d040fca9ac0cdf7653b09693d",
    },
    "source_only": {
        "seed_0/per_class.csv": "bb5a6c50952f165d01c113ce0e69b7e3896c202ae2c0be66f6fbc0f218cd8ec1",
        "seed_0/report.json": "9a87111de6ef798dd04619390304ac7bb9cef290da5c90e0a959b1fa7ef1608f",
        "seed_0/source.ckpt": "78fcade2bba9468125e2b6ead6879d7e58e828d77e4ae3c964f5e53000cb1576",
        "seed_0/trace.csv": "41f652148d4e94464d106b3d89a6b09b533e1269c28eb24b6c674570a497256b",
    },
    "stage1_only": {
        "seed_0/per_class.csv": "b9f1dcf34532b9a34981f7139c628041406c1d7e855d576656c56e4a761fd89c",
        "seed_0/report.json": "9f52f977c9a72c6a6897f50a0c2712c84f3f852283849cd73fac60ce58206c28",
        "seed_0/source.ckpt": "78fcade2bba9468125e2b6ead6879d7e58e828d77e4ae3c964f5e53000cb1576",
        "seed_0/stage1.ckpt": "8dea4a7d6aa0eed164a574b1017dc3a0792882c910bcfb7e04f8c4dd2743e5cc",
        "seed_0/trace.csv": "62ced4e461a74a8a7537e2b59b2c39ae50956442e9825fe4a97e2859e04ee682",
    },
    "stage1_3": {
        "seed_0/per_class.csv": "2f6bee2f68f9d238dbc81f884ca3210cf230221c989da31173ec022e6f4e793f",
        "seed_0/report.json": "d2cc2ea0e723c97c4ba5c438553ece5e89eeaf24560d50715ba22d9bb14407b9",
        "seed_0/source.ckpt": "78fcade2bba9468125e2b6ead6879d7e58e828d77e4ae3c964f5e53000cb1576",
        "seed_0/stage1.ckpt": "8dea4a7d6aa0eed164a574b1017dc3a0792882c910bcfb7e04f8c4dd2743e5cc",
        "seed_0/stage3.ckpt": "09585bd8e9a648c3328c358719f532feeb79403186d654bf7eb1cc6e676b4a71",
        "seed_0/trace.csv": "6ff45f6c720c9c37ca060c8d628d4228cc6621520effd571d563005e27d8f236",
    },
    "calibrate_only": {
        "seed_0/calibrated.ckpt": "52126737625c1f84ee2eb397a652db2504087fd9b889f10bb76c704e08f13d0a",
        "seed_0/per_class.csv": "cd128da8e0949c78c32a3be2fb262ca6c37a8bab26173dfa44dbca028e622ccc",
        "seed_0/report.json": "508213d744f2b219b27a7783896fc3d1c9ff58163766c33cb1802495912b2421",
        "seed_0/source.ckpt": "78fcade2bba9468125e2b6ead6879d7e58e828d77e4ae3c964f5e53000cb1576",
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
