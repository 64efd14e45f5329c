"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

The staged-pipeline criteria share one set of five-seed runs through the
experiment harness; the verdict lines are collected by conftest.py and
printed in the terminal summary so they survive pytest's output capture.
"""
import json
import time
from pathlib import Path

import numpy as np
import pytest

import conftest

from fdcheck import fd_grad, fd_param_grads, forward_layers, max_rel_error

import adaptkit.checkpoint as checkpoint
from adaptkit.adapt import AdaptConfig, adapt
from adaptkit.data import GeneratorSpec, ShiftSpec, apply_shift, generate
from adaptkit.distill import DistillConfig, PhaseSchedule
from adaptkit.harness import ExperimentConfig, make_datasets, run_experiment, stream
from adaptkit.layers import ArchSpec, build_network
from adaptkit.losses import (cross_entropy, cross_entropy_grad, diversity_loss,
                             entropy_loss, infomax_loss, infomax_loss_grad,
                             infonce_loss, infonce_loss_grad, kl_soft_loss,
                             kl_soft_loss_grad, softmax)
from adaptkit.selfsup import ContrastiveConfig, make_student
from adaptkit.source import SourceConfig


def verdict(num: int, ok: bool, detail: str) -> None:
    line = f"acceptance criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    conftest.VERDICTS.append(line)
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared five-seed pipeline runs


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    """Median accuracies and traces for the four staged-pipeline variants."""
    root = tmp_path_factory.mktemp("pipeline")
    variants = {
        "source-only": dict(stage1=False, stage2=False, stage3=False),
        "stage1": dict(stage1=True, stage2=False, stage3=False),
        "stage1+3": dict(stage1=True, stage2=False, stage3=True),
        "stage1+2+3": dict(stage1=True, stage2=True, stage3=True),
    }
    out = {"outdirs": {}, "median": {}, "reports": {}}
    t0 = time.perf_counter()
    for name, kw in variants.items():
        cfg = ExperimentConfig(outdir=str(root / name), **kw)
        result = run_experiment(cfg)
        final = [k for k in ("stage3", "stage1", "source_only")
                 if k in result["summary"]["stages"]][0]
        out["median"][name] = result["summary"]["stages"][final]["overall_acc"]["median"]
        out["reports"][name] = result["reports"]
        out["outdirs"][name] = root / name
    out["elapsed"] = time.perf_counter() - t0
    return out


# ---------------------------------------------------------------------------


def test_criterion_01_gradient_correctness():
    t0 = time.perf_counter()
    worst = 0.0
    n_configs = 0
    for trial in range(100):
        rng = np.random.default_rng(5000 + trial)
        c = int(rng.integers(2, 6))
        depth = int(rng.integers(0, 3))
        hidden = tuple(int(rng.integers(3, 14)) for _ in range(depth))
        bn = bool(rng.integers(0, 2)) if depth else False
        net = build_network(ArchSpec(int(rng.integers(2, 8)), hidden, c, batchnorm=bn),
                            np.random.default_rng(int(rng.integers(1 << 30))))
        train = bool(bn and rng.integers(0, 2))
        b = int(rng.integers(2, 6))
        x = rng.normal(size=(b, net.arch.input_dim))
        targets = rng.integers(0, c, b)
        teacher = rng.random((b, c)) + 1e-3
        teacher /= teacher.sum(axis=1, keepdims=True)
        value_fn, grad_fn = [
            (lambda p: cross_entropy(p, targets, 0.1).scalar,
             lambda p: cross_entropy_grad(p, targets, 0.1)),
            (lambda p: infomax_loss(p).scalar, infomax_loss_grad),
            (lambda p: kl_soft_loss(p, teacher).scalar,
             lambda p: kl_soft_loss_grad(p, teacher)),
        ][trial % 3]
        for p in net.parameters():
            p.zero_grad()
        # train: through batch statistics; else through the frozen running statistics
        logits, caches = (net.forward(x, train=True) if train
                          else forward_layers(net.layers, x, False))
        net.backward(caches, grad_fn(softmax(logits)))
        analytic = [p.grad for p in net.parameters()]
        numeric = fd_param_grads(
            lambda: value_fn(softmax(net.forward(x, train=True)[0] if train else net.forward(x))),
            net.parameters())
        worst = max(worst, max_rel_error(analytic, numeric))
        n_configs += 1
    for seed in range(8):  # InfoNCE in embedding space
        rng = np.random.default_rng(seed)
        q, k = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        _, (dq, dk) = infonce_loss_grad(q, k, 0.2)
        worst = max(worst, max_rel_error(
            [dq, dk], [fd_grad(lambda v: infonce_loss(v, k, 0.2).scalar, q.copy()),
                       fd_grad(lambda v: infonce_loss(q, v, 0.2).scalar, k.copy())]))
        n_configs += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 30 and n_configs >= 100
    verdict(1, ok, f"{n_configs} configs, max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_loss_oracles():
    mixed = np.array([[0.9, 0.1], [0.5, 0.5]])
    eye = np.array([[1.0, 0.0], [0.0, 1.0]])
    checks = [
        ("smoothed ce", cross_entropy(np.array([[0.7, 0.2, 0.1]]),
                                      np.array([0]), 0.1).scalar, 0.463298),
        ("entropy", entropy_loss(np.array([[0.9, 0.1]])).scalar, 0.325083),
        ("entropy batch", entropy_loss(mixed).scalar, 0.509115),
        ("diversity", diversity_loss(mixed).scalar, -0.610864),
        ("kl", kl_soft_loss(np.array([[0.5, 0.5]]), np.array([[0.7, 0.3]])).scalar,
         0.082282),
        ("infonce", infonce_loss(eye, eye, 1.0).scalar, 0.313262),
    ]
    worst = max(abs(got - want) for _, got, want in checks)
    additive = abs(infomax_loss(mixed).scalar
                   - entropy_loss(mixed).scalar - diversity_loss(mixed).scalar)
    ok = worst < 1e-6 and additive < 1e-12
    verdict(2, ok, f"{len(checks)} oracle values, max abs err {worst:.2e}")


def test_criterion_03_frozen_classifier():
    frozen = 0
    for trial in range(20):
        rng = np.random.default_rng(trial)
        c = int(rng.integers(3, 6))
        src = generate(GeneratorSpec(n_per_class=60, num_classes=c, input_dim=8), trial)
        view = apply_shift(src, ShiftSpec("rotation", 30.0), trial + 100).unlabeled_view()
        net = build_network(ArchSpec(8, (10, 10), c), rng)
        _, report, _ = adapt(net, view, AdaptConfig(epochs=1, lr=0.01, batch_size=32),
                             np.random.default_rng(trial))
        if report.classifier_fingerprint_before == report.classifier_fingerprint_after:
            frozen += 1
    verdict(3, frozen == 20, f"classifier fingerprint unchanged in {frozen}/20 runs")


def test_criterion_04_stage_ordering(pipeline):
    m = pipeline["median"]
    chain = [m["source-only"], m["stage1"], m["stage1+3"], m["stage1+2+3"]]
    gaps = [100 * (b - a) for a, b in zip(chain, chain[1:])]
    ok = all(g >= 2.0 for g in gaps) and pipeline["elapsed"] < 300
    verdict(4, ok, "medians " + " < ".join(f"{100 * v:.1f}" for v in chain)
            + f", gaps {['%.1f' % g for g in gaps]}, {pipeline['elapsed']:.0f}s")


def test_criterion_05_phase_monotonicity(pipeline):
    traces = np.array([[e["accuracy"] for e in r["distill"]["trace"]]
                       for r in pipeline["reports"]["stage1+2+3"]])
    med = np.median(traces, axis=0)
    drops = np.diff(med)
    ok = bool(np.all(drops >= -0.01))
    verdict(5, ok, "median phase trace " + " -> ".join(f"{100 * v:.1f}" for v in med))


def test_criterion_06_contrastive_initialization(pipeline):
    gap = 100 * (pipeline["median"]["stage1+2+3"] - pipeline["median"]["stage1+3"])
    cfg = ExperimentConfig()
    probe_gaps = []
    for seed in cfg.seeds:
        _, tgt = make_datasets(cfg, seed)
        arch = ArchSpec(tgt.dim, cfg.student_hidden, tgt.num_classes)
        ckpt = pipeline["outdirs"]["stage1+2+3"] / f"seed_{seed}" / "backbone.ckpt"
        contrastive = make_student(arch, checkpoint.load_backbone(ckpt), stream(seed, "probe"))
        rand = make_student(arch, None, stream(seed, "probe"))
        probe_gaps.append(_probe(contrastive, tgt) - _probe(rand, tgt))
    probe_gap = 100 * float(np.median(probe_gaps))
    ok = gap >= 2.0 and probe_gap >= 15.0
    verdict(6, ok, f"accuracy gap {gap:.1f} pts, probe gap {probe_gap:.1f} pts")


def _probe(student, dataset):
    feats = forward_layers(student.layers[:-1], dataset.features, False)[0]
    x = np.hstack([feats, np.ones((len(feats), 1))])
    y = np.eye(dataset.num_classes)[dataset.labels]
    rng = np.random.default_rng(0)
    idx = rng.permutation(len(feats))
    half = len(feats) // 2
    w, *_ = np.linalg.lstsq(x[idx[:half]], y[idx[:half]], rcond=None)
    return (np.argmax(x[idx[half:]] @ w, axis=1) == dataset.labels[idx[half:]]).mean()


def test_criterion_07_smaller_student(pipeline):
    cfg = ExperimentConfig()
    teacher = build_network(ArchSpec(32, cfg.teacher_hidden, 10),
                            np.random.default_rng(0))
    student = build_network(ArchSpec(32, cfg.student_hidden, 10),
                            np.random.default_rng(0))
    n_t = sum(p.data.size for p in teacher.parameters())
    n_s = sum(p.data.size for p in student.parameters())
    margin = 100 * (pipeline["median"]["stage1+2+3"] - pipeline["median"]["stage1"])
    ok = n_s <= 0.5 * n_t and margin >= 2.0
    verdict(7, ok, f"student {n_s}/{n_t} params ({100 * n_s / n_t:.0f}%), "
            f"+{margin:.1f} pts over the stage-1 teacher")


def test_criterion_08_longtail_calibration(tmp_path):
    cfg = ExperimentConfig(imbalance_ratio=100.0, stage1=False, stage2=False,
                           stage3=False, calibrate=True, outdir=str(tmp_path / "lt"))
    result = run_experiment(cfg)
    pre_few, post_few, pre_all, post_all = [], [], [], []
    for r in result["reports"]:
        pre_few.append(r["metrics"]["source_only"]["buckets"]["few"])
        post_few.append(r["metrics"]["calibrated"]["buckets"]["few"])
        pre_all.append(r["metrics"]["source_only"]["overall_acc"])
        post_all.append(r["metrics"]["calibrated"]["overall_acc"])
    few_before, few_after = np.median(pre_few), np.median(post_few)
    all_before, all_after = np.median(pre_all), np.median(post_all)
    ok = few_after > few_before and all_after >= all_before - 0.01
    verdict(8, ok, f"few-shot {100 * few_before:.1f} -> {100 * few_after:.1f}, "
            f"overall {100 * all_before:.1f} -> {100 * all_after:.1f}")


def test_criterion_09_run_determinism(tmp_path):
    base = dict(
        source_cfg=SourceConfig(epochs=5),
        adapt_cfg=AdaptConfig(epochs=1),
        contrastive_cfg=ContrastiveConfig(epochs=3),
        distill_cfg=DistillConfig(
            schedule=PhaseSchedule(num_phases=2, epochs_per_phase=1)),
        seeds=(0, 1),
    )
    cfg = ExperimentConfig(outdir=str(tmp_path / "run"), **base)
    files = ["summary.json", "seed_0/report.json", "seed_0/per_class.csv",
             "seed_0/trace.csv", "seed_1/report.json"]
    run_experiment(cfg)
    first = {f: (tmp_path / "run" / f).read_bytes() for f in files}
    run_experiment(cfg)
    same = all((tmp_path / "run" / f).read_bytes() == first[f] for f in files)
    verdict(9, same, f"{len(files)} report files byte-identical across two runs")


def test_criterion_10_checkpoint_round_trip(tmp_path):
    net = build_network(ArchSpec(32, (64, 64), 10), np.random.default_rng(3))
    path = tmp_path / "net.ckpt"
    checkpoint.save_checkpoint(net, path)
    loaded = checkpoint.load_checkpoint(path)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(10):
        x = rng.normal(size=(int(rng.integers(2, 33)), 32))
        diff = np.abs(net.forward(x) - loaded.forward(x)).max()
        worst = max(worst, float(diff))
    verdict(10, worst == 0.0, f"max abs logit diff {worst} over 10 batches")
