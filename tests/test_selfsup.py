import numpy as np
import pytest

from adaptkit.data import (AugmentationPolicy, GeneratorSpec, ShiftSpec,
                           apply_shift, generate)
from adaptkit.errors import ConfigError
from adaptkit.layers import ArchSpec, build_network
from adaptkit.selfsup import ContrastiveConfig, make_student, pretrain
from fdcheck import forward_layers

ARCH = ArchSpec(32, (32, 32), 10)


def default_target(seed=100, shift_seed=200):
    return apply_shift(generate(GeneratorSpec(), seed), ShiftSpec("rotation", 45.0), shift_seed)


def linear_probe(student, dataset):
    """Least-squares probe on frozen features, half train / half test."""
    feats = forward_layers(student.layers[:-1], dataset.features, False)[0]
    x = np.hstack([feats, np.ones((len(feats), 1))])
    y = np.eye(dataset.num_classes)[dataset.labels]
    rng = np.random.default_rng(0)
    idx = rng.permutation(len(feats))
    half = len(feats) // 2
    w, *_ = np.linalg.lstsq(x[idx[:half]], y[idx[:half]], rcond=None)
    preds = np.argmax(x[idx[half:]] @ w, axis=1)
    return (preds == dataset.labels[idx[half:]]).mean()


# ---------------------------------------------------------------------------
# pretraining basics


def test_zero_epochs_equals_random_init():
    tgt = default_target()
    view = tgt.unlabeled_view()
    pre, history, _ = pretrain(ARCH, view, ContrastiveConfig(epochs=0), np.random.default_rng(5))
    fresh = build_network(ARCH, np.random.default_rng(5))
    for t, p in zip(fresh.backbone_tensors(), pre.backbone_tensors()):
        assert t.name == p.name
        assert np.array_equal(p.data, t.data)
    assert history == []


def test_pretrain_deterministic():
    view = default_target().unlabeled_view()
    cfg = ContrastiveConfig(epochs=2)
    a, a_history, _ = pretrain(ARCH, view, cfg, np.random.default_rng(3))
    b, b_history, _ = pretrain(ARCH, view, cfg, np.random.default_rng(3))
    for ta, tb in zip(a.backbone_tensors(), b.backbone_tensors()):
        assert np.array_equal(ta.data, tb.data)
    assert a_history == b_history


def test_pretrain_never_sees_labels():
    # two datasets with identical features but different labels give the
    # same backbone, since pretraining only consumes the unlabeled view
    tgt = default_target()
    relabeled = default_target()
    relabeled.labels = (relabeled.labels + 1) % relabeled.num_classes
    cfg = ContrastiveConfig(epochs=1)
    a, _, _ = pretrain(ARCH, tgt.unlabeled_view(), cfg, np.random.default_rng(0))
    b, _, _ = pretrain(ARCH, relabeled.unlabeled_view(), cfg, np.random.default_rng(0))
    for ta, tb in zip(a.backbone_tensors(), b.backbone_tensors()):
        assert np.array_equal(ta.data, tb.data)


def test_small_target_rejected():
    src = generate(GeneratorSpec(n_per_class=10, num_classes=4, input_dim=8), 0)
    with pytest.raises(ConfigError, match="too small"):
        pretrain(ArchSpec(8, (8,), 4), src.unlabeled_view(),
                 ContrastiveConfig(epochs=1, batch_size=128), np.random.default_rng(0))


def test_invalid_configs_rejected():
    view = default_target().unlabeled_view()
    with pytest.raises(ConfigError):
        pretrain(ARCH, view, ContrastiveConfig(temperature=0.0), np.random.default_rng(0))
    with pytest.raises(ConfigError):
        pretrain(ARCH, view, ContrastiveConfig(embedding_dim=1), np.random.default_rng(0))


def test_loss_decreases_thirty_percent_median():
    # 5-seed median of the relative improvement after 50 epochs
    drops = []
    for seed in range(5):
        tgt = default_target(seed=100 + seed, shift_seed=200 + seed)
        _, history, _ = pretrain(ARCH, tgt.unlabeled_view(), ContrastiveConfig(epochs=50),
                                 np.random.default_rng(seed))
        first = history[0]["infonce"]
        last = history[-1]["infonce"]
        drops.append((first - last) / first)
    assert np.median(drops) >= 0.30


def test_probe_gap_vs_random_backbone():
    tgt = default_target()
    view = tgt.unlabeled_view()
    pre, _, _ = pretrain(ARCH, view, ContrastiveConfig(epochs=100), np.random.default_rng(0))
    contrastive = make_student(ARCH, pre, np.random.default_rng(1))
    random_student = make_student(ARCH, None, np.random.default_rng(1))
    gap = linear_probe(contrastive, tgt) - linear_probe(random_student, tgt)
    assert gap >= 0.15


def test_identity_augmentation_gives_no_representation_benefit():
    # negative control: with both views identical, the invariance signal is
    # gone; the loss bottoms out quickly and the learned backbone probes no
    # better than a random one
    tgt = default_target()
    view = tgt.unlabeled_view()
    cfg = ContrastiveConfig(epochs=10, policy=AugmentationPolicy(0.0, 0.0, 0.0, (1.0, 1.0)))
    pre, _, _ = pretrain(ARCH, view, cfg, np.random.default_rng(0))
    degenerate = make_student(ARCH, pre, np.random.default_rng(1))
    random_student = make_student(ARCH, None, np.random.default_rng(1))
    assert linear_probe(degenerate, tgt) <= linear_probe(random_student, tgt) + 0.05


# ---------------------------------------------------------------------------
# student construction


def test_make_student_contrastive_copies_backbone_not_classifier():
    view = default_target().unlabeled_view()
    pre, _, _ = pretrain(ARCH, view, ContrastiveConfig(epochs=1), np.random.default_rng(0))
    student = make_student(ARCH, pre, np.random.default_rng(9))
    for t, p in zip(student.backbone_tensors(), pre.backbone_tensors()):
        assert t.name == p.name
        assert np.array_equal(t.data, p.data)
    fresh = build_network(ARCH, np.random.default_rng(9))
    assert np.array_equal(student.classifier.weight.data, fresh.classifier.weight.data)


def test_make_student_arch_mismatch_rejected():
    pre = build_network(ArchSpec(32, (16,), 10), np.random.default_rng(0))
    with pytest.raises(ConfigError, match="backbone is for"):
        make_student(ARCH, pre, np.random.default_rng(0))
