import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptkit import store
from adaptkit.data import (AugmentationPolicy, Dataset, GeneratorSpec,
                           ShiftSpec, apply_shift, augment,
                           bucket_thresholds, generate, load_dataset,
                           longtail_counts, save_dataset, subsample_longtail)
from adaptkit.errors import ConfigError, NumericalError, ShapeError, StorageError


def small_spec(**kw):
    defaults = dict(n_per_class=20, num_classes=4, input_dim=8)
    defaults.update(kw)
    return GeneratorSpec(**defaults)


# ---------------------------------------------------------------------------
# generation


def test_generate_minimal():
    ds = generate(GeneratorSpec(n_per_class=1, num_classes=2, input_dim=4), 5)
    assert len(ds) == 2
    assert sorted(ds.labels) == [0, 1]


def test_generate_deterministic():
    a, b = generate(small_spec(), 0), generate(small_spec(), 0)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_generate_balanced_counts():
    ds = generate(small_spec(), 0)
    assert np.array_equal(ds.class_counts, [20, 20, 20, 20])


def test_generate_rejects_degenerate_params():
    for kw in (dict(num_classes=1), dict(input_dim=1), dict(n_per_class=0)):
        with pytest.raises(ConfigError):
            generate(small_spec(**kw), 0)


# the spec's geometry seed, and the seed each draw takes
@pytest.mark.parametrize("make", [
    lambda: generate(small_spec(), -1), lambda: GeneratorSpec(geometry_seed=-1),
    lambda: generate(small_spec(), 1.5),
    lambda: apply_shift(generate(small_spec(), 0), ShiftSpec(), -1),
    lambda: subsample_longtail(generate(small_spec(), 0), 10.0, -1)],
    ids=["seed", "geometry_seed", "float_seed", "shift_seed", "imbalance_seed"])
def test_specs_reject_negative_or_non_integer_seeds(make):
    with pytest.raises(ConfigError, match="non-negative integer"):
        make()


def test_source_linear_probe_separable():
    # train a least-squares one-vs-all probe on half, test on the other half
    ds = generate(GeneratorSpec(n_per_class=500, num_classes=10, input_dim=32), 3)
    rng = np.random.default_rng(0)
    idx = rng.permutation(len(ds))
    half = len(ds) // 2
    tr, te = idx[:half], idx[half:]
    x = np.hstack([ds.features, np.ones((len(ds), 1))])
    y = np.eye(10)[ds.labels]
    w, *_ = np.linalg.lstsq(x[tr], y[tr], rcond=None)
    acc = (np.argmax(x[te] @ w, axis=1) == ds.labels[te]).mean()
    assert acc > 0.95


# ---------------------------------------------------------------------------
# shift


def test_zero_magnitude_same_seed_reproduces_source():
    src = generate(small_spec(), 9)
    tgt = apply_shift(src, ShiftSpec("rotation", 0.0), 9)
    assert np.array_equal(src.features, tgt.features)
    assert tgt.domain_tag == "target"


def test_rotation_is_periodic():
    src = generate(small_spec(), 0)
    t0 = apply_shift(src, ShiftSpec("rotation", 0.0), 4)
    t360 = apply_shift(src, ShiftSpec("rotation", 360.0), 4)
    assert np.abs(t0.features - t360.features).max() < 1e-9


def test_shift_preserves_labels_and_order():
    src = generate(small_spec(), 0)
    for kind in ("rotation", "scale", "translate", "composite"):
        tgt = apply_shift(src, ShiftSpec(kind, 30.0), 0)
        assert np.array_equal(src.labels, tgt.labels)


# sha256 of the target features of small_spec() at magnitude 30, source seed 0, target seed 4
SHIFTED_FEATURES_SHA256 = {
    "scale": "9c9cb3a11bfdcead2cdb9f4ae149d8515e6699958ddfec314933d1e519717eaf",
    "translate": "fea46c21e18a03a2ec126e2e406c75d85bf1ee0f38002f2ba78dc365d3f1c110",
    "composite": "c5dd43abd4495aaef663e5a2e23863169ad88b3957e3318f81d77b7d51fc94f6",
}


@pytest.mark.parametrize("kind", sorted(SHIFTED_FEATURES_SHA256))
def test_non_rotation_shift_features_are_pinned(kind):
    tgt = apply_shift(generate(small_spec(), 0), ShiftSpec(kind, 30.0), 4)
    assert hashlib.sha256(tgt.features.tobytes()).hexdigest() == SHIFTED_FEATURES_SHA256[kind]


def test_unknown_shift_kind_rejected():
    src = generate(small_spec(), 0)
    with pytest.raises(ConfigError):
        apply_shift(src, ShiftSpec("shear", 10.0), 0)


def test_unlabeled_view_hides_labels():
    view = generate(small_spec(), 0).unlabeled_view()
    assert not hasattr(view, "labels")
    assert len(view) == 80 and view.dim == 8


# ---------------------------------------------------------------------------
# long tail


def test_longtail_ratio_one_keeps_everything():
    src = generate(small_spec(), 0)
    ds = subsample_longtail(src, 1.0, 0)
    assert np.array_equal(ds.class_counts, src.class_counts)


def test_longtail_two_class_endpoints():
    src = generate(GeneratorSpec(n_per_class=100, num_classes=2, input_dim=4), 0)
    ds = subsample_longtail(src, 10.0, 0)
    assert list(ds.class_counts) == [100, 10]


def test_longtail_decay_formula():
    counts = longtail_counts(500, 10, 100.0)
    expected = np.round(500 * 100.0 ** (-np.arange(10) / 9)).astype(int)
    assert np.array_equal(counts, expected)
    assert counts[9] == 5
    # a ratio that leaves the rarest class exactly one row is accepted
    assert list(longtail_counts(100, 3, 100.0)) == [100, 10, 1]


def test_longtail_counts_non_increasing_and_total():
    src = generate(GeneratorSpec(n_per_class=200, num_classes=6, input_dim=4), 1)
    ds = subsample_longtail(src, 40.0, 2)
    counts = ds.class_counts
    assert np.all(np.diff(counts) <= 0)
    assert counts.sum() == len(ds)
    assert counts.max() / counts.min() == pytest.approx(40.0, rel=0.25)


def test_longtail_zero_class_rejected():
    src = generate(GeneratorSpec(n_per_class=3, num_classes=5, input_dim=4), 0)
    with pytest.raises(ConfigError):
        subsample_longtail(src, 1e6, 0)


def test_bucket_thresholds_rescaled():
    assert bucket_thresholds(1280) == (100, 20)
    assert bucket_thresholds(500) == (40, 8)


# ---------------------------------------------------------------------------
# augmentation


def test_identity_policy_is_identity():
    x = np.random.default_rng(0).normal(size=(5, 6))
    pol = AugmentationPolicy(0.0, 0.0, 0.0, (1.0, 1.0))
    rng = np.random.default_rng(1)
    assert np.array_equal(augment(x, pol, "weak", rng), x)
    assert np.array_equal(augment(x, pol, "strong", rng), x)


@pytest.mark.parametrize("mode", ["weak", "strong"])
@pytest.mark.parametrize("shape", [(5,), (2, 4, 5)], ids=["1d", "3d"])
def test_augment_rejects_a_batch_that_is_not_2d(mode, shape):
    with pytest.raises(ShapeError):
        augment(np.zeros(shape), AugmentationPolicy(), mode, np.random.default_rng(0))


def test_full_dropout_zeroes_everything():
    x = np.ones((4, 5))
    pol = AugmentationPolicy(0.0, 0.0, 1.0, (1.0, 1.0))
    out = augment(x, pol, "strong", np.random.default_rng(0))
    assert np.all(out == 0)


def test_weak_perturbation_norm_monte_carlo():
    # E||z|| for z ~ N(0, sigma^2 I_D) is close to sigma * sqrt(D) at D=32
    d, sigma = 32, 0.02
    x = np.zeros((10_000, d))
    pol = AugmentationPolicy(weak_sigma=sigma)
    out = augment(x, pol, "weak", np.random.default_rng(7))
    mean_norm = np.linalg.norm(out, axis=1).mean()
    assert mean_norm == pytest.approx(sigma * np.sqrt(d), rel=0.05)


def test_strong_perturbs_more_than_weak():
    rng = np.random.default_rng(0)
    x = generate(small_spec(), 0).features
    pol = AugmentationPolicy()
    weak = np.linalg.norm(augment(np.tile(x, (50, 1)), pol, "weak",
                                  np.random.default_rng(1)) - np.tile(x, (50, 1)), axis=1)
    strong = np.linalg.norm(augment(np.tile(x, (50, 1)), pol, "strong",
                                    np.random.default_rng(2)) - np.tile(x, (50, 1)), axis=1)
    assert strong.mean() > 2 * weak.mean()


def test_independent_rng_states_give_distinct_views():
    x = np.ones((3, 4))
    pol = AugmentationPolicy()
    a = augment(x, pol, "strong", np.random.default_rng(1))
    b = augment(x, pol, "strong", np.random.default_rng(2))
    assert not np.array_equal(a, b)


def test_invalid_policies_rejected():
    with pytest.raises(ConfigError):
        AugmentationPolicy(weak_sigma=0.5, strong_sigma=0.1)
    with pytest.raises(ConfigError):
        AugmentationPolicy(dropout_prob=1.5)


@pytest.mark.parametrize("mode,dropout_prob", [("weak", 0.2), ("strong", 0.2), ("strong", 0.0)])
def test_augment_matches_its_expressions_and_leaves_x_alone(mode, dropout_prob):
    x = np.random.default_rng(0).normal(size=(128, 32))
    kept = x.copy()
    pol = AugmentationPolicy(dropout_prob=dropout_prob)
    out = augment(x, pol, mode, np.random.default_rng(3))
    rng = np.random.default_rng(3)
    if mode == "weak":
        expected = x + rng.normal(0.0, 1.0, size=x.shape) * pol.weak_sigma
    else:
        expected = x + rng.normal(0.0, 1.0, size=x.shape) * pol.strong_sigma
        if pol.dropout_prob > 0:
            expected = expected * (rng.random(size=x.shape) >= pol.dropout_prob)
        lo, hi = pol.scale_range
        expected = expected * rng.uniform(lo, hi, size=(x.shape[0], 1))
    assert out.tobytes() == expected.tobytes()
    assert x.tobytes() == kept.tobytes()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_augment_deterministic_in_seed(seed):
    x = np.random.default_rng(0).normal(size=(4, 6))
    pol = AugmentationPolicy()
    a = augment(x, pol, "strong", np.random.default_rng(seed))
    b = augment(x, pol, "strong", np.random.default_rng(seed))
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# file format


def test_dataset_file_round_trip(tmp_path):
    src = generate(small_spec(), 0)
    ds = apply_shift(src, ShiftSpec("rotation", 45.0), 2)
    path = tmp_path / "target.ds"
    save_dataset(ds, path)
    loaded = load_dataset(path)
    assert np.array_equal(loaded.features, ds.features)
    assert np.array_equal(loaded.labels, ds.labels)
    assert loaded.num_classes == ds.num_classes
    assert loaded.domain_tag == "target"
    assert loaded.shift == ds.shift
    assert loaded.spec == ds.spec


def test_dataset_file_older_header_keys_are_ignored(tmp_path):
    # files written before the class count and domain came from `generator` and
    # `shift` also carry `c` and `domain_tag`; they load as before
    ds = apply_shift(generate(small_spec(), 0), ShiftSpec("rotation", 45.0), 2)
    ds = subsample_longtail(ds, 10.0, 3)
    path = tmp_path / "old.ds"
    save_dataset(ds, path)
    _edit_header(lambda h, t: h.update(c=4, domain_tag="target"))(path)
    loaded = load_dataset(path)
    for attr in ("features", "labels"):
        assert getattr(loaded, attr).tobytes() == getattr(ds, attr).tobytes()
    assert (loaded.spec, loaded.shift, loaded.bucket_thresholds) == (
        ds.spec, ds.shift, ds.bucket_thresholds)
    assert (loaded.num_classes, loaded.domain_tag) == (4, "target")


def test_dataset_file_unlabeled(tmp_path):
    ds = generate(small_spec(), 0)
    ds.labels = None
    path = tmp_path / "x.ds"
    save_dataset(ds, path)
    assert load_dataset(path).labels is None


def test_non_finite_features_rejected(tmp_path):
    ds = generate(small_spec(), 0)
    ds.features[3, 1] = np.nan
    path = tmp_path / "nan.ds"
    save_dataset(ds, path)
    with pytest.raises(NumericalError):
        load_dataset(path)
    with pytest.raises(NumericalError):
        Dataset(ds.features, ds.labels, ds.spec)


def test_empty_dataset_rejected():
    for labels in (np.zeros(0, dtype=np.int64), None):
        with pytest.raises(ConfigError, match="at least one row"):
            Dataset(np.zeros((0, 8)), labels, small_spec())


def _relabel(ds, labels):
    return Dataset(ds.features, labels, ds.spec)


# in-memory datasets that load_dataset would reject; each used to be accepted and then
# fail later with a raw TypeError, ValueError or IndexError, or not at all
BAD_DATASETS = {
    "float_labels": lambda ds: _relabel(ds, ds.labels.astype(np.float64)),
    "two_d_labels": lambda ds: _relabel(ds, ds.labels[:, None]),
    "label_equal_to_class_count": lambda ds: _relabel(ds, np.full(len(ds), ds.num_classes)),
    "one_d_features": lambda ds: Dataset(ds.features[:, 0], ds.labels, ds.spec),
    "features_narrower_than_input_dim": lambda ds: Dataset(ds.features[:, :-1], ds.labels,
                                                           ds.spec),
}


@pytest.mark.parametrize("case", sorted(BAD_DATASETS))
def test_in_memory_dataset_checks_what_a_file_is_checked_for(case):
    ds = generate(small_spec(), 0)
    with pytest.raises(ConfigError):
        BAD_DATASETS[case](ds)


def _edit_header(edit):
    """Rewrite the JSON header of a container file, leaving the blob alone."""
    def apply(path):
        raw = path.read_bytes()
        hlen = int.from_bytes(raw[8:12], "little")
        header = json.loads(raw[12 : 12 + hlen])
        edit(header, {e["name"]: e for e in header["tensors"]})
        payload = json.dumps(header).encode()
        path.write_bytes(raw[:8] + len(payload).to_bytes(4, "little") + payload
                         + raw[12 + hlen :])
    return apply


def _edit_arrays(edit):
    """Store edited arrays under the same header; the container stays valid."""
    def apply(path):
        header, arrays = store.read(path, b"OTAD")
        edit(arrays)
        store.write(path, b"OTAD", header, arrays)
    return apply


DATASET_EDITS = {
    "input_dim_not_features_width": _edit_header(
        lambda h, t: h["generator"].update(input_dim=9)),
    "unknown_shift_kind": _edit_header(lambda h, t: h.update(
        shift={"kind": "warp", "magnitude": 1.0})),
    "negative_shift_seed": _edit_header(lambda h, t: h.update(
        shift={"kind": "rotation", "magnitude": 1.0, "seed": -1})),
    "negative_generator_seed": _edit_header(lambda h, t: h["generator"].update(seed=-1)),
    "generator_seed": _edit_header(lambda h, t: h["generator"].update(seed=0)),
    "str_ring_radius": _edit_header(lambda h, t: h["generator"].update(ring_radius="x")),
    "three_bucket_thresholds": _edit_header(lambda h, t: h.update(bucket_thresholds=[1, 2, 3])),
    "negative_bucket_threshold": _edit_header(lambda h, t: h.update(bucket_thresholds=[-1, 2])),
    "float_geometry_seed": _edit_header(lambda h, t: h["generator"].update(geometry_seed=7.5)),
    "one_class_generator": _edit_header(lambda h, t: h["generator"].update(num_classes=1)),
    "negative_n": _edit_header(lambda h, t: t["features"].update(shape=[-1, 8])),
    "float_d": _edit_header(lambda h, t: t["features"].update(shape=[80, 2.5])),
    "no_features": _edit_header(lambda h, t: t["features"].update(name="feature")),
    "wrong_offset": _edit_header(lambda h, t: t["labels"].update(offset=0)),
    "format_version_99": _edit_header(lambda h, t: h.update(format_version=99)),
    "no_format_version": _edit_header(lambda h, t: h.pop("format_version")),
    "trailing_bytes": lambda path: path.write_bytes(path.read_bytes() + bytes(8)),
    "old_layout": lambda path: path.write_bytes(path.read_bytes()[8:]),
    "no_d": _edit_arrays(lambda a: a.update(features=a["features"][:, 0])),
    "extra_array": _edit_arrays(lambda a: a.update(weights=np.ones(80))),
    "fractional_labels": _edit_arrays(lambda a: a.update(labels=a["labels"] + 0.5)),
    "negative_labels": _edit_arrays(lambda a: a.update(labels=a["labels"] - 1)),
    "out_of_range_labels": _edit_arrays(lambda a: a.update(labels=a["labels"] + 1)),
    "nan_labels": _edit_arrays(lambda a: a.update(labels=a["labels"] * np.nan)),
    "wrong_length_labels": _edit_arrays(lambda a: a.update(labels=a["labels"][:-1])),
}


@pytest.mark.parametrize("case", sorted(DATASET_EDITS))
def test_malformed_dataset_header_rejected(tmp_path, case):
    path = tmp_path / "x.ds"
    save_dataset(generate(small_spec(), 0), path)
    DATASET_EDITS[case](path)
    with pytest.raises(StorageError):
        load_dataset(path)
