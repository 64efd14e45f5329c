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


# the tiny run's summary.json with config.outdir (the run's temporary directory)
# removed, dumped as summary.json is written
GOLDEN_SUMMARY_SHA256 = "af5982c558af51f03f7f49394c7b54499a62cafa55b8024c515e3ca46b762356"


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
GOLDEN_DEFAULT_SOURCE_SHA256 = "e1f17c2d144a21465187e9ef5a2236ab4e051313345ec5fa57b58c3d3cbb0cbd"
GOLDEN_DEFAULT_PRETRAIN_SHA256 = "08244b8bdf18539010e81b80de89c4e05a63d9e7d84c17073e5f357176c833c7"
GOLDEN_DEFAULT_DISTILL_SHA256 = "dc1675912394164f911ae92d6e623ee30dde88fd479633fdabf4d4247d5c21b1"


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
    "seed_0/report.json": "f2f7756d74295d7fc38695b8a1bf9a10117e5f1f9d9b5c4ab6bd3619e6d460f6",
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
        "seed_0/backbone.ckpt": "55ba0e7e312b7c4c1c34a5fadfec3e6199332607a551f1e3edeadff41e93bc9b",
        "seed_0/calibrated.ckpt": "4a272ae848d99754f587b19c510a038a26c76e534d61fefc4b85793749af4986",
        "seed_0/per_class.csv": "54546472c375458c9e64e2887bb547c7bb733bc9686bede45a7593b4924e4f1b",
        "seed_0/report.json": "0b3bbf8ae8df5ba3f05c6cb4bc66cb364d14af1481ddaa2595127a158e003d4c",
        "seed_0/source.ckpt": "45909b6253f05096477a34dfb80915263bf23d7c5e3a9a26a73869762f859d8a",
        "seed_0/stage1.ckpt": "f1a853623b30b0d833a930f6d3b0565d69109b9f394e8ed4092db33203bd4635",
        "seed_0/stage3.ckpt": "434f8ae677550a02742d1573a37f7c8f80ee73d1221d1ced7934a2392f6af3fb",
        "seed_0/trace.csv": "71632ff30bf8de88dc1a6dffee7ff6b41139b1e30f6ab92ac615e5403b671095",
    },
    "stage2_abort": {
        "seed_0/backbone.ckpt": "23c7cb97326e35b8272262f390ecb98505616c26bf6221727abd48389ed859e2",
        "seed_0/calibrated.ckpt": "5379a0ef5ef18ae8916199d9b6af30a07c029066bb1841d8193139a4e091ecf7",
        "seed_0/per_class.csv": "724caab33af47baf4f18000b2ca4194b35f9a21ab8748e12f625b4724e99d19a",
        "seed_0/report.json": "bad87a1719ce8e70699c77d531067d32d391f31dccef006a362fe1fcb01e1e36",
        "seed_0/source.ckpt": "ca7cd33049bffa5178d924b62762966f8fdc680765e14841ac6589f242bab0fb",
        "seed_0/stage1.ckpt": "8f03c68c41e820a3ee6be0d16826458521e9ee948048ba4df941ffcc85158d78",
        "seed_0/stage3.ckpt": "1fbd7c2a9663999bfdb89dd508121a93cfeaf629f24ef75a1f5def34395a1873",
        "seed_0/trace.csv": "3feb95a94a782d5146283208ad724cfde2cfeee6581dc0cb96e1788efe2d4522",
    },
    "stage3_abort": {
        "seed_0/backbone.ckpt": "55ba0e7e312b7c4c1c34a5fadfec3e6199332607a551f1e3edeadff41e93bc9b",
        "seed_0/calibrated.ckpt": "d7f43191129da9b6c1a766c13970eddcd62bcec2e54b7ddeb9b4c52b2be39631",
        "seed_0/per_class.csv": "dd16ad7fa443c7b3899758056c3bd5b02dfd1d882341da2cb26083c4521349ec",
        "seed_0/report.json": "767f88efcbf83e52ff966b96af128043e62134966f2cfdc179d41c777b16e158",
        "seed_0/source.ckpt": "ca7cd33049bffa5178d924b62762966f8fdc680765e14841ac6589f242bab0fb",
        "seed_0/stage1.ckpt": "8f03c68c41e820a3ee6be0d16826458521e9ee948048ba4df941ffcc85158d78",
        "seed_0/stage3.ckpt": "8e41c237ce7569adf1538c2ba411094f4b2c70dc6ce65061cbcfd9c48f0773bf",
        "seed_0/trace.csv": "9d41f43b7873d2bd2867d22027d1f8ec32dd36d5fa7023fdeb7a89b5b11f2253",
    },
    "calibrate_abort": {
        "seed_0/backbone.ckpt": "55ba0e7e312b7c4c1c34a5fadfec3e6199332607a551f1e3edeadff41e93bc9b",
        "seed_0/calibrated.ckpt": "2de2889bdbf9f088ccdcce854fa4d01b5468e3b8e05a394631d337d9c629d023",
        "seed_0/per_class.csv": "e710d649234b22a14b610e015a01d32eaba18898952cdfddec723bb3282273c1",
        "seed_0/report.json": "ac6552366bb1834c8a4faaeb9f836ee98707cfadac573a0cee3a3b0d95855c9c",
        "seed_0/source.ckpt": "ca7cd33049bffa5178d924b62762966f8fdc680765e14841ac6589f242bab0fb",
        "seed_0/stage1.ckpt": "8f03c68c41e820a3ee6be0d16826458521e9ee948048ba4df941ffcc85158d78",
        "seed_0/stage3.ckpt": "2de2889bdbf9f088ccdcce854fa4d01b5468e3b8e05a394631d337d9c629d023",
        "seed_0/trace.csv": "1068ec9703ef559e33590868d6d5a7747851865611c9ede6467c0cbb0074a05c",
    },
    "calibrate_overflow_abort": {
        "seed_0/backbone.ckpt": "55ba0e7e312b7c4c1c34a5fadfec3e6199332607a551f1e3edeadff41e93bc9b",
        "seed_0/calibrated.ckpt": "2de2889bdbf9f088ccdcce854fa4d01b5468e3b8e05a394631d337d9c629d023",
        "seed_0/per_class.csv": "e710d649234b22a14b610e015a01d32eaba18898952cdfddec723bb3282273c1",
        "seed_0/report.json": "3d36d19d0f4a44e9b05fb585190b58d508b48b429dae0b87185ed8a5a2e66f81",
        "seed_0/source.ckpt": "ca7cd33049bffa5178d924b62762966f8fdc680765e14841ac6589f242bab0fb",
        "seed_0/stage1.ckpt": "8f03c68c41e820a3ee6be0d16826458521e9ee948048ba4df941ffcc85158d78",
        "seed_0/stage3.ckpt": "2de2889bdbf9f088ccdcce854fa4d01b5468e3b8e05a394631d337d9c629d023",
        "seed_0/trace.csv": "1068ec9703ef559e33590868d6d5a7747851865611c9ede6467c0cbb0074a05c",
    },
    "batchnorm_only": {
        "seed_0/backbone.ckpt": "55ba0e7e312b7c4c1c34a5fadfec3e6199332607a551f1e3edeadff41e93bc9b",
        "seed_0/per_class.csv": "79efa26dd1961f176ce2b68faf1c3eccdba4f8c8c0955060fe79a19c32d7fd3e",
        "seed_0/report.json": "87ddd79fd390137c9186b8a8ec753a2bc0eb3b5d7a8ce0fb1edec35b37613676",
        "seed_0/source.ckpt": "ca7cd33049bffa5178d924b62762966f8fdc680765e14841ac6589f242bab0fb",
        "seed_0/stage1.ckpt": "36983c26659701f08e9cccae45c797a0213197cbf6035f1813ecca9cb65ffb8f",
        "seed_0/stage3.ckpt": "2de2889bdbf9f088ccdcce854fa4d01b5468e3b8e05a394631d337d9c629d023",
        "seed_0/trace.csv": "c7fdb1fe979f32d317b0b78f9a96133ff9a226c8910eb4878e30ea461136f87e",
    },
    "soft_phases": {
        "seed_0/backbone.ckpt": "55ba0e7e312b7c4c1c34a5fadfec3e6199332607a551f1e3edeadff41e93bc9b",
        "seed_0/per_class.csv": "51aaf343a285c724bf6e7324fd69ab6839ee4da3ea4d6897224b256f5ddcc635",
        "seed_0/report.json": "9b09f43c5e27e7685dfc77548d8360475001390bdced50cbc76c19d9ec3841cd",
        "seed_0/source.ckpt": "ca7cd33049bffa5178d924b62762966f8fdc680765e14841ac6589f242bab0fb",
        "seed_0/stage1.ckpt": "8f03c68c41e820a3ee6be0d16826458521e9ee948048ba4df941ffcc85158d78",
        "seed_0/stage3.ckpt": "dfe126a69f64d3ea7867acfa37b6eb8d9c8de2817e8c06bfebb3938f4354daa4",
        "seed_0/trace.csv": "6c9b67448f3cb53d1d6e65dc726ffb8f11e13608ae64c2dbce0ab5b711baa78e",
    },
    "source_checkpoint": {
        "seed_0/backbone.ckpt": "55ba0e7e312b7c4c1c34a5fadfec3e6199332607a551f1e3edeadff41e93bc9b",
        "seed_0/per_class.csv": "03f2a197f797f6d6fc46346c4a8dd44d7b9d694bf00ae6380ea4aa7dafbcbc7a",
        "seed_0/report.json": "af27e61fb97275615511951da60e27b927e9e753df1337cff75fafae61e42bcf",
        "seed_0/stage1.ckpt": "8080e8977b1613ce142efe6ad1b340022536daaacd552c074a1ff90c8a41dab5",
        "seed_0/stage3.ckpt": "0eba93feade4e39797b27bc424f5cceeac56eaa0be515fc16add7078e4dfa47d",
        "seed_0/trace.csv": "a93d3d4d53e97460d4b9be54e33fc54ef055cfa1300ed9b0a2f5ccea09526581",
    },
    "stage1_abort": {
        "seed_0/backbone.ckpt": "55ba0e7e312b7c4c1c34a5fadfec3e6199332607a551f1e3edeadff41e93bc9b",
        "seed_0/calibrated.ckpt": "d6ed8404b94dfe6dcbea5858e156b25dbf7e61d017096ba6da6fe532c261568b",
        "seed_0/per_class.csv": "339f84c9f5e1b4b44b666487bc2ae7d5cac866efb7485e2a4865b17370ffcd7f",
        "seed_0/report.json": "d57d3d464879d4de2807f577f44c578929d786856855fc15ee10ef635428c071",
        "seed_0/source.ckpt": "ca7cd33049bffa5178d924b62762966f8fdc680765e14841ac6589f242bab0fb",
        "seed_0/stage1.ckpt": "ca7cd33049bffa5178d924b62762966f8fdc680765e14841ac6589f242bab0fb",
        "seed_0/stage3.ckpt": "2de2889bdbf9f088ccdcce854fa4d01b5468e3b8e05a394631d337d9c629d023",
        "seed_0/trace.csv": "400d3a9e4fba2132252ae7543b72b7831a69f05f354b4ced93b12484cbe3ea70",
    },
    "source_only": {
        "seed_0/per_class.csv": "531297ffafdd08e355d2630990f7a0c7a6b2a1569c9558295e9bc9d4797dd36a",
        "seed_0/report.json": "985576611a41d7805ae64afc60bbb943311091f32946798691a9c46590076dd5",
        "seed_0/source.ckpt": "ca7cd33049bffa5178d924b62762966f8fdc680765e14841ac6589f242bab0fb",
        "seed_0/trace.csv": "41f652148d4e94464d106b3d89a6b09b533e1269c28eb24b6c674570a497256b",
    },
    "stage1_only": {
        "seed_0/per_class.csv": "a80b0cb980eb393ab3dc88424640b04da9215478f487d2439327553290894060",
        "seed_0/report.json": "cc04a07a93c51be657ee3350e6645889cbb91fa10ef8d9669db83575ba84de37",
        "seed_0/source.ckpt": "ca7cd33049bffa5178d924b62762966f8fdc680765e14841ac6589f242bab0fb",
        "seed_0/stage1.ckpt": "8f03c68c41e820a3ee6be0d16826458521e9ee948048ba4df941ffcc85158d78",
        "seed_0/trace.csv": "3162566b3d168e1987650a115e6c3b9415cda8051f6a39000ee769b055d5ea63",
    },
    "stage1_3": {
        "seed_0/per_class.csv": "0503c4f64e07e404bb3acf40aa587c71fc7065784f916a3b55a055e1269cb327",
        "seed_0/report.json": "89c5baf0867010d388e8f9188bd671597eff7994991d35786f480b6c37347566",
        "seed_0/source.ckpt": "ca7cd33049bffa5178d924b62762966f8fdc680765e14841ac6589f242bab0fb",
        "seed_0/stage1.ckpt": "8f03c68c41e820a3ee6be0d16826458521e9ee948048ba4df941ffcc85158d78",
        "seed_0/stage3.ckpt": "a45f7dafbc604506d663c5edf656c25291c1fde3a7d0c8dc47df3e549283e6bc",
        "seed_0/trace.csv": "fc82e212f349336ab7abba22704282593e908c2531aee9ae0037bdc5d50789a7",
    },
    "calibrate_only": {
        "seed_0/calibrated.ckpt": "e2ca47894166294a4e49a8cdb534250ab1ba3ae7f9f223402fdfaa2083dd02a4",
        "seed_0/per_class.csv": "5bcfc4bc80d3cae58bde7fd329a5c44b0b024941e64fdc6a1485de5eaf83af3d",
        "seed_0/report.json": "bb1a6fc8d6a3d7275c405f7e18fa9f24415bc4f0ff50fa57741e58ae4fcd30dc",
        "seed_0/source.ckpt": "ca7cd33049bffa5178d924b62762966f8fdc680765e14841ac6589f242bab0fb",
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
