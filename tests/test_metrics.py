import numpy as np
import pytest

from adaptkit.data import Dataset, GeneratorSpec, generate
from adaptkit.errors import ConfigError
from adaptkit.layers import ArchSpec, build_network
from adaptkit.metrics import bucket_split, evaluate


class FixedPredictor:
    """Stand-in model emitting one-hot logits for a fixed prediction list."""

    def __init__(self, preds, num_classes):
        self.preds = np.asarray(preds)
        self.num_classes = num_classes

    def forward(self, x):
        return np.eye(self.num_classes)[self.preds[: len(x)]]


def labeled_dataset(labels, num_classes, dim=4):
    labels = np.asarray(labels, dtype=np.int64)
    feats = np.zeros((len(labels), dim))
    spec = GeneratorSpec(n_per_class=1, num_classes=num_classes, input_dim=dim)
    return Dataset(feats, labels, num_classes, "target", spec)


def test_two_class_oracle():
    # class 0: 1 of 2 correct, class 1: 4 of 4 correct
    # overall = 5/6, class-mean = (0.5 + 1.0) / 2 = 0.75
    ds = labeled_dataset([0, 0, 1, 1, 1, 1], 2)
    model = FixedPredictor([0, 1, 1, 1, 1, 1], 2)
    rep = evaluate(model, ds)
    assert rep.overall_acc == pytest.approx(5 / 6)
    assert rep.class_mean_acc == pytest.approx(0.75)
    assert rep.per_class == [0.5, 1.0]
    assert rep.per_class_counts == [2, 4]
    assert rep.n == 6


def test_all_wrong_and_all_right():
    ds = labeled_dataset([0, 1, 2], 3)
    assert evaluate(FixedPredictor([0, 1, 2], 3), ds).overall_acc == 1.0
    assert evaluate(FixedPredictor([1, 2, 0], 3), ds).overall_acc == 0.0


def test_absent_class_excluded_from_class_mean():
    # class 2 never appears in the evaluation set
    ds = labeled_dataset([0, 0, 1, 1], 3)
    rep = evaluate(FixedPredictor([0, 0, 0, 1], 3), ds)
    assert rep.class_mean_acc == pytest.approx((1.0 + 0.5) / 2)
    assert rep.per_class_counts == [2, 2, 0]


def test_row_permutation_invariance():
    ds = generate(GeneratorSpec(n_per_class=30, num_classes=4, input_dim=8, seed=2))
    net = build_network(ArchSpec(8, (12,), 4), np.random.default_rng(0))
    base = evaluate(net, ds)
    perm = np.random.default_rng(1).permutation(len(ds))
    shuffled = Dataset(ds.features[perm], ds.labels[perm], 4, "target", ds.spec)
    rep = evaluate(net, shuffled)
    assert rep.overall_acc == base.overall_acc
    assert rep.class_mean_acc == base.class_mean_acc
    assert rep.per_class == base.per_class


def test_evaluate_rejects_bad_inputs():
    ds = labeled_dataset([0, 1], 2)
    ds.labels = None
    with pytest.raises(ConfigError, match="labels"):
        evaluate(FixedPredictor([0, 1], 2), ds)
    empty = labeled_dataset([0], 2)
    empty.features = empty.features[:0]
    empty.labels = empty.labels[:0]
    with pytest.raises(ConfigError, match="empty"):
        evaluate(FixedPredictor([], 2), empty)


# ---------------------------------------------------------------------------
# buckets


def test_bucket_split_thresholds():
    counts = np.array([500, 120, 100, 50, 20, 19, 5, 1])
    split = bucket_split(counts, (100, 20))
    assert split["many"] == [0, 1]  # strictly above 100
    assert split["few"] == [5, 6, 7]  # strictly below 20
    assert split["medium"] == [2, 3, 4]


def test_bucket_accuracies_reported():
    ds = labeled_dataset([0, 0, 1, 1, 2, 2], 3)
    model = FixedPredictor([0, 0, 1, 0, 2, 1], 3)
    rep = evaluate(model, ds, train_counts=np.array([500, 50, 3]),
                   thresholds=(100, 20))
    assert rep.bucket_classes == {"many": [0], "medium": [1], "few": [2]}
    assert rep.buckets["many"] == 1.0
    assert rep.buckets["medium"] == 0.5
    assert rep.buckets["few"] == 0.5


def test_buckets_need_counts():
    ds = labeled_dataset([0, 1], 2)
    rep = evaluate(FixedPredictor([0, 1], 2), ds)
    assert rep.buckets is None
    assert "buckets" not in rep.to_dict()
