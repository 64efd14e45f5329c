import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from adaptkit.data import (AugmentationPolicy, GeneratorSpec, ShiftSpec, UnlabeledView,
                           apply_shift, augment, generate, subsample_longtail)
from adaptkit.distill import (CalibrateConfig, DistillConfig, PhaseSchedule, PseudoLabels,
                              _scaled, calibrate_classifier, distill, pseudo_label,
                              run_phase)
from adaptkit.errors import ConfigError
from adaptkit.harness import ExperimentConfig, make_datasets
from adaptkit.layers import ArchSpec, Dense, Network, build_network
from adaptkit.losses import cross_entropy_grad, softmax
from adaptkit.metrics import evaluate
from adaptkit.optim import SGD, fit
from adaptkit.selfsup import ContrastiveConfig, pretrain
from adaptkit.tensor import Tensor, fingerprint_all
from fdcheck import fd_grad, forward_layers, max_rel_error

IDENTITY = AugmentationPolicy(0.0, 0.0, 0.0, (1.0, 1.0))  # no jitter, dropout or scaling


def constant_logit_net(logit_row):
    """A network whose output is the given row for every input."""
    logits = np.asarray(logit_row, float)
    net = build_network(ArchSpec(4, (), len(logits), batchnorm=False),
                        np.random.default_rng(0))
    net.classifier.weight.data[:] = 0.0
    net.classifier.bias.data[:] = logits
    return net


def small_benchmark():
    src = generate(GeneratorSpec(n_per_class=80, num_classes=4, input_dim=8), 1)
    tgt = apply_shift(src, ShiftSpec("rotation", 45.0), 2)
    return src, tgt


# ---------------------------------------------------------------------------
# pseudo-labels


def test_argmax_label():
    net = constant_logit_net([0.2, 1.5, -0.3])
    x = np.zeros((5, 4))
    labels = pseudo_label(net, type("V", (), {"features": x, "__len__": lambda s: 5})(),
                          IDENTITY, np.random.default_rng(0))
    assert np.all(labels.hard == 1)


def test_tie_breaks_to_lowest_index():
    net = constant_logit_net([1.0, 1.0])
    x = np.zeros((3, 4))
    labels = pseudo_label(net, type("V", (), {"features": x, "__len__": lambda s: 3})(),
                          IDENTITY, np.random.default_rng(0))
    assert np.all(labels.hard == 0)


def test_identity_weak_policy_matches_raw_eval():
    _, tgt = small_benchmark()
    net = build_network(ArchSpec(8, (12,), 4), np.random.default_rng(3))
    labels = pseudo_label(net, tgt.unlabeled_view(), IDENTITY,
                          np.random.default_rng(0))
    raw = np.argmax(net.forward(tgt.features), axis=1)
    assert np.array_equal(labels.hard, raw)
    assert np.array_equal(labels.hard, np.argmax(labels.soft, axis=1))
    assert np.allclose(labels.soft.sum(axis=1), 1.0)


# ---------------------------------------------------------------------------
# phases


def test_run_phase_zero_epochs_is_identity():
    _, tgt = small_benchmark()
    view = tgt.unlabeled_view()
    student = build_network(ArchSpec(8, (12,), 4), np.random.default_rng(0))
    before = fingerprint_all(student.parameters())
    labels = pseudo_label(student, view, AugmentationPolicy(), np.random.default_rng(0))
    out, _ = run_phase(student, labels, view, 0, "hard", DistillConfig(batch_size=32),
                       np.random.default_rng(0))
    assert fingerprint_all(out.parameters()) == before


def test_run_phase_rejects_bad_inputs():
    _, tgt = small_benchmark()
    view = tgt.unlabeled_view()
    student = build_network(ArchSpec(8, (12,), 4), np.random.default_rng(0))
    labels = pseudo_label(student, view, AugmentationPolicy(), np.random.default_rng(0))
    with pytest.raises(ConfigError):
        run_phase(student, labels, view, 1, "medium", DistillConfig(),
                  np.random.default_rng(0))
    short = PseudoLabels(hard=labels.hard[:5], soft=labels.soft[:5],
                         teacher_fingerprint="x")
    with pytest.raises(ConfigError):
        run_phase(student, short, view, 1, "hard", DistillConfig(),
                  np.random.default_rng(0))


def test_schedule_modes_and_budgets():
    sched = PhaseSchedule(num_phases=4, epochs_per_phase=10,
                          soft_label_interleave=True, soft_phase_epochs=1)
    assert [sched.mode_for(p) for p in (1, 2, 3, 4)] == ["hard", "soft", "hard", "soft"]
    assert [sched.epochs_for(p) for p in (1, 2, 3, 4)] == [10, 1, 10, 1]
    plain = PhaseSchedule(num_phases=3)
    assert all(plain.mode_for(p) == "hard" for p in (1, 2, 3))
    with pytest.raises(ConfigError):
        PhaseSchedule(num_phases=0)
    with pytest.raises(ConfigError):
        PhaseSchedule(epochs_per_phase=0)


def test_distill_trace_bookkeeping():
    _, tgt = small_benchmark()
    view = tgt.unlabeled_view()
    teacher = build_network(ArchSpec(8, (12, 12), 4), np.random.default_rng(1))
    cfg = DistillConfig(schedule=PhaseSchedule(num_phases=3, epochs_per_phase=1,
                                               soft_label_interleave=True),
                        batch_size=32)
    student, trace = distill(teacher, ArchSpec(8, (10,), 4), None, view,
                             cfg, np.random.default_rng(0))
    assert [e["phase"] for e in trace] == [1, 2, 3]
    assert [e["mode"] for e in trace] == ["hard", "soft", "hard"]
    assert [e["epochs"] for e in trace] == [1, 1, 1]
    assert trace[0]["pseudo_label_agreement"] is None
    for e in trace[1:]:
        assert 0.0 <= e["pseudo_label_agreement"] <= 1.0
    # teacher changes between phases once promotion happens
    assert trace[1]["teacher_fingerprint"] != trace[0]["teacher_fingerprint"]


def test_student_reset_each_phase():
    # a backbone resets every phase's student to the same tensors; without one
    # each phase draws a fresh backbone
    _, tgt = small_benchmark()
    view = tgt.unlabeled_view()
    teacher = build_network(ArchSpec(8, (12, 12), 4), np.random.default_rng(1))
    cfg = DistillConfig(schedule=PhaseSchedule(num_phases=2, epochs_per_phase=1),
                        batch_size=32)
    arch = ArchSpec(8, (10,), 4)
    pre = build_network(arch, np.random.default_rng(5))
    for backbone, same in ((pre, True), (None, False)):
        _, trace = distill(teacher, arch, backbone, view, cfg, np.random.default_rng(0))
        fps = [e["backbone_reset_fingerprint"] for e in trace]
        assert (fps[0] == fps[1]) == same


def test_cross_architecture_distillation():
    src, tgt = small_benchmark()
    view = tgt.unlabeled_view()
    teacher = build_network(ArchSpec(8, (16, 16), 4), np.random.default_rng(1))
    cfg = DistillConfig(schedule=PhaseSchedule(num_phases=1, epochs_per_phase=1),
                        batch_size=32)
    student, _ = distill(teacher, ArchSpec(8, (6,), 4), None, view, cfg,
                         np.random.default_rng(0))
    assert student.arch == ArchSpec(8, (6,), 4)
    evaluate(student, tgt)  # forward path intact


def test_distill_deterministic():
    _, tgt = small_benchmark()
    view = tgt.unlabeled_view()
    cfg = DistillConfig(schedule=PhaseSchedule(num_phases=2, epochs_per_phase=1),
                        batch_size=32)
    fps = []
    for _ in range(2):
        teacher = build_network(ArchSpec(8, (12,), 4), np.random.default_rng(1))
        student, _ = distill(teacher, ArchSpec(8, (10,), 4), None, view,
                             cfg, np.random.default_rng(4))
        fps.append(fingerprint_all(student.parameters()))
    assert fps[0] == fps[1]


# ---------------------------------------------------------------------------
# classifier rescaling


def longtail_model_and_target(seed=0):
    src = subsample_longtail(generate(GeneratorSpec(), 10 + seed), 100.0, seed)
    tgt = apply_shift(src, ShiftSpec("rotation", 45.0), 20 + seed)  # src's bucket cutoffs
    from adaptkit.source import SourceConfig, train_source
    net = build_network(ArchSpec(32, (64, 64), 10), np.random.default_rng(seed))
    net, _, _ = train_source(net, src, SourceConfig(), np.random.default_rng(seed))
    return net, src, tgt


def test_unit_scales_leave_predictions_unchanged():
    net, _, tgt = longtail_model_and_target()
    scaled = net.copy()
    scaled.classifier.weight.data = 1.0 * scaled.classifier.weight.data
    assert np.array_equal(net.forward(tgt.features),
                          scaled.forward(tgt.features))


def test_uniform_doubling_preserves_argmax_zero_bias():
    net, _, tgt = longtail_model_and_target()
    net.classifier.bias.data[:] = 0.0
    doubled = net.copy()
    doubled.classifier.weight.data = 2.0 * doubled.classifier.weight.data
    a = np.argmax(net.forward(tgt.features), axis=1)
    b = np.argmax(doubled.forward(tgt.features), axis=1)
    assert np.array_equal(a, b)


def test_calibration_touches_only_the_scales():
    net, _, tgt = longtail_model_and_target()
    before = {t.name: t.data.copy() for t in net.backbone_tensors()}
    before["classifier.bias"] = net.classifier.bias.data.copy()
    w_before = net.classifier.weight.data.copy()
    scale, cal, _ = calibrate_classifier(net, tgt.unlabeled_view(), CalibrateConfig(),
                                         np.random.default_rng(0))
    assert fingerprint_all(cal.backbone_tensors()) == fingerprint_all(net.backbone_tensors())
    assert np.array_equal(cal.classifier.bias.data, before["classifier.bias"])
    # weight rows are exactly the original rows times the learned scales
    assert np.allclose(cal.classifier.weight.data, scale[:, None] * w_before)
    assert np.all(scale > 0)


def test_calibration_improves_few_shot_bucket():
    net, src, tgt = longtail_model_and_target()
    counts = src.class_counts
    thresholds = src.bucket_thresholds
    pre = evaluate(net, tgt, train_counts=counts, thresholds=thresholds)
    _, cal, _ = calibrate_classifier(net, tgt.unlabeled_view(), CalibrateConfig(),
                                     np.random.default_rng(0))
    post = evaluate(cal, tgt, train_counts=counts, thresholds=thresholds)
    assert post.buckets["few"] > pre.buckets["few"]
    assert post.overall_acc >= pre.overall_acc - 0.01


def test_scaled_copy_predicts_the_scaled_head_of_the_features_bit_for_bit():
    # calibration's pseudo-labels: the blocked walk of a copy whose classifier rows are
    # scaled gives feats @ (s * w).T + bias exactly, over the whole default target
    cfg = ExperimentConfig()
    _, tgt = make_datasets(cfg, 0)
    net = build_network(ArchSpec(32, cfg.teacher_hidden, 10), np.random.default_rng(0))
    s = np.random.default_rng(1).uniform(0.5, 2.0, size=10)
    w, bias = net.classifier.weight.data, net.classifier.bias.data
    want = forward_layers(net.layers[:-1], tgt.features, False)[0] @ (s[:, None] * w).T + bias
    assert np.array_equal(_scaled(net, s).forward(tgt.features).view(np.int64),
                          want.view(np.int64))
    assert np.array_equal(net.classifier.weight.data, w)  # the copy owns its weights


def test_calibration_memory_is_the_features_and_one_view():
    # the default teacher on the default target: never more than the N x 64
    # features and one N x 32 view (the row-block passes need far less)
    cfg = ExperimentConfig()
    _, tgt = make_datasets(cfg, 0)
    net = build_network(ArchSpec(32, cfg.teacher_hidden, 10), np.random.default_rng(0))
    run = lambda: calibrate_classifier(net, tgt.unlabeled_view(), cfg.calibrate_cfg,  # noqa: E731
                                       np.random.default_rng(0))
    run()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= len(tgt) * (64 + 32) * 8


def test_calibration_memory_is_its_per_row_arrays_and_a_few_blocks():
    # 50,000 rows: the raw scores, labels and weights of every row, plus a few
    # 1024-row blocks; whole-target passes would add an N x 64 and an N x 32 array
    net = build_network(ArchSpec(32, (64, 64), 10), np.random.default_rng(0))
    view = UnlabeledView(np.random.default_rng(1).normal(size=(50_000, 32)))
    run = lambda: calibrate_classifier(net, view, CalibrateConfig(rounds=2, epochs=1),  # noqa: E731
                                       np.random.default_rng(0))
    run()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 50_000 * (10 + 2) * 8 + 4 * 1024 * 64 * 8


def test_calibration_deterministic():
    net, _, tgt = longtail_model_and_target()
    s1, _, _ = calibrate_classifier(net, tgt.unlabeled_view(), CalibrateConfig(),
                                    np.random.default_rng(3))
    s2, _, _ = calibrate_classifier(net, tgt.unlabeled_view(), CalibrateConfig(),
                                    np.random.default_rng(3))
    assert np.array_equal(s1, s2)


@pytest.mark.parametrize("kind", ["random", "contrastive"])
def test_distill_trains_copies_of_its_inputs(kind):
    # SGD updates parameters in place: the student must own its arrays, so neither
    # the teacher nor the backbone it was initialized from moves
    _, tgt = small_benchmark()
    view = tgt.unlabeled_view()
    arch = ArchSpec(8, (12,), 4)
    teacher = build_network(arch, np.random.default_rng(0))
    pretrained = (pretrain(arch, view, ContrastiveConfig(epochs=1, batch_size=64),
                           np.random.default_rng(1))[0] if kind == "contrastive" else None)
    backbone = {} if pretrained is None else {t.name: t.data.copy()
                                              for t in pretrained.backbone_tensors()}
    teacher_before = fingerprint_all(teacher.all_tensors())
    student, _ = distill(teacher, arch, pretrained, view,
                         DistillConfig(schedule=PhaseSchedule(num_phases=2, epochs_per_phase=1),
                                       batch_size=32), np.random.default_rng(2))
    assert fingerprint_all(teacher.all_tensors()) == teacher_before
    if pretrained is not None:
        assert [t.name for t in pretrained.backbone_tensors()] == list(backbone)
        for t in pretrained.backbone_tensors():
            assert t.data.tobytes() == backbone[t.name].tobytes(), t.name
    assert (fingerprint_all(student.backbone_tensors())
            != fingerprint_all(teacher.backbone_tensors()))


# ---------------------------------------------------------------------------
# whole-target passes in row blocks: the bits of the whole-array expressions

STREAM_ROWS = [1, 2, 511, 512, 513, 1023, 1024, 1025, 5000]


def _teacher_and_target(rows):
    """The default teacher with drawn running statistics, and `rows` target rows."""
    rng = np.random.default_rng(rows)
    net = build_network(ArchSpec(32, (64, 64), 10), rng)
    for layer in net.layers:
        if layer.kind == "batchnorm":
            layer.running_mean.data = rng.normal(size=layer.dim)
            layer.running_var.data = rng.uniform(0.5, 2.0, size=layer.dim)
    return net, UnlabeledView(rng.normal(size=(rows, 32)))


@pytest.mark.parametrize("rows", STREAM_ROWS)
def test_pseudo_label_matches_the_whole_target_pass_bit_for_bit(rows):
    net, view = _teacher_and_target(rows)
    rng, whole_rng = np.random.default_rng(7), np.random.default_rng(7)
    labels = pseudo_label(net, view, AugmentationPolicy(), rng)
    x = augment(view.features, AugmentationPolicy(), "weak", whole_rng)
    soft = softmax(forward_layers(net.layers, x, False)[0])  # one pass over all rows
    assert labels.soft.tobytes() == soft.tobytes()
    assert labels.hard.tobytes() == np.argmax(soft, axis=1).astype(np.int64).tobytes()
    assert rng.bit_generator.state == whole_rng.bit_generator.state


def _scale_grad(p, scores, hard, weights):
    """A step's scale gradient as one weighted product, weights @ ((p - onehot) * scores) / B."""
    p[np.arange(len(hard)), hard] -= 1.0
    return weights @ (p * scores) / len(hard)


def _old_scale_grad(p, scores, hard, weights):
    """The expression read before the step was one product: the weighted cross-entropy
    logit gradient times the scores, summed over rows; the same numbers to rounding."""
    return (cross_entropy_grad(p, hard) * weights[:, None] * scores).sum(axis=0)


def _whole_target_scales(model, target, cfg, rng, scale_grad=_scale_grad):
    """calibrate_classifier's scales from one pass over all rows per whole-target
    pass (no abort)."""
    w, bias = model.classifier.weight.data, model.classifier.bias.data
    s = Tensor(np.ones(len(bias)), "scale")
    opt = SGD([s], cfg.lr, cfg.momentum)
    raw_scores = forward_layers(model.layers[:-1], target.features, False)[0] @ w.T

    def forward(idx, train):
        s.data = np.maximum(s.data, 1e-3)
        return raw_scores[idx] * s.data + bias, idx

    def backward(idx, p):
        s.add_grad(scale_grad(p, raw_scores[idx], hard[idx], weights[idx]))

    scales = SimpleNamespace(all_tensors=lambda: [s], forward=forward, backward=backward)

    for _ in range(cfg.rounds):
        x = augment(target.features, cfg.policy, "weak", rng)
        logits = forward_layers(_scaled(model, s.data).layers, x, False)[0]
        hard = np.argmax(softmax(logits), axis=1).astype(np.int64)
        counts = np.bincount(hard, minlength=len(bias)).astype(float)
        weights = np.where(counts[hard] > 0, 1.0 / counts[hard], 0.0)
        weights *= len(hard) / weights.sum()
        _, abort = fit(opt, scales, cfg.epochs, len(target), cfg.batch_size, rng,
                       lambda idx: idx, lambda logits, idx: ({}, softmax(logits)))
        assert abort is None
        s.data = np.maximum(s.data, 1e-3)
    return s.data


def _old_whole_target_scales(model, target, cfg, rng):
    return _whole_target_scales(model, target, cfg, rng, _old_scale_grad)


@pytest.mark.parametrize("rows", STREAM_ROWS)
def test_calibration_matches_the_whole_target_passes_bit_for_bit(rows):
    net, view = _teacher_and_target(rows)
    cfg = CalibrateConfig(rounds=2, epochs=1, batch_size=64)
    rng, whole_rng = np.random.default_rng(3), np.random.default_rng(3)
    scales, _, abort = calibrate_classifier(net, view, cfg, rng)
    assert abort is None
    assert scales.tobytes() == _whole_target_scales(net, view, cfg, whole_rng).tobytes()
    assert rng.bit_generator.state == whole_rng.bit_generator.state
    old = _old_whole_target_scales(net, view, cfg, np.random.default_rng(3))
    np.testing.assert_allclose(scales, old, rtol=1e-12)


def test_calibration_scale_gradient_matches_finite_differences():
    # one full-batch step without momentum from unit scales: s1 = 1 - lr * g, where g
    # is the gradient of the class-weighted mean cross-entropy over the scales
    net, view = _teacher_and_target(513)
    cfg = CalibrateConfig(rounds=1, epochs=1, momentum=0.0, batch_size=len(view), policy=IDENTITY)
    scales, _, abort = calibrate_classifier(net, view, cfg, np.random.default_rng(0))
    assert abort is None
    g = (1.0 - scales) / cfg.lr

    w, bias = net.classifier.weight.data, net.classifier.bias.data
    raw = forward_layers(net.layers[:-1], view.features, False)[0] @ w.T
    hard = np.argmax(raw + bias, axis=1)
    counts = np.bincount(hard, minlength=len(bias))
    weights = len(hard) / counts[hard] / (1.0 / counts[hard]).sum()
    assert len(set(counts[hard])) > 1  # unequal classes: the weights matter

    def loss(s):
        logp = np.log(softmax(raw * s + bias))
        return -(weights * logp[np.arange(len(hard)), hard]).mean()

    assert max_rel_error([g], [fd_grad(loss, np.ones(len(bias)))]) < 1e-6


def test_pseudo_label_memory_is_its_labels_and_a_few_blocks():
    # 50,000 rows: the soft and hard labels plus a few 1024-row blocks; one
    # whole-target pass would add an N x 32 view and N x 64 activations
    net = build_network(ArchSpec(32, (64, 64), 10), np.random.default_rng(0))
    view = UnlabeledView(np.random.default_rng(1).normal(size=(50_000, 32)))
    run = lambda: pseudo_label(net, view, AugmentationPolicy(), np.random.default_rng(0))  # noqa: E731
    run()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 50_000 * (10 + 1) * 8 + 4 * 1024 * 64 * 8
