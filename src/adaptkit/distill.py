"""Phased teacher-student pseudo-label transfer (stage 3) and test-time
classifier rescaling for long-tailed targets.

Each phase: generate pseudo-labels with the current teacher on weakly
augmented data, reset the student backbone to its initial checkpoint, train
the student on strongly augmented data against the pseudo-labels, then
promote the student to teacher. Phases are numbered from 1; with soft-label
interleaving, even-numbered phases swap cross-entropy for KL against the
teacher's full distribution and run a shorter epoch budget.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .data import AugmentationPolicy, augment
from .errors import ConfigError
from .layers import ArchSpec, Network
from .losses import cross_entropy_grad, kl_soft_loss_grad, softmax
from .optim import SGD, check_fit_args, fit
from .selfsup import make_student
from .tensor import Tensor, fingerprint_all, row_blocks


@dataclass
class PhaseSchedule:
    num_phases: int = 3
    epochs_per_phase: int = 10
    soft_label_interleave: bool = False
    soft_phase_epochs: int = 1

    def __post_init__(self):
        if self.num_phases < 1 or self.epochs_per_phase < 1 or self.soft_phase_epochs < 1:
            raise ConfigError("phase counts and epoch budgets must be at least 1")

    def mode_for(self, phase: int) -> str:
        """Phase numbering starts at 1; even phases run soft when interleaving."""
        if self.soft_label_interleave and phase % 2 == 0:
            return "soft"
        return "hard"

    def epochs_for(self, phase: int) -> int:
        return self.soft_phase_epochs if self.mode_for(phase) == "soft" else self.epochs_per_phase


@dataclass
class DistillConfig:
    schedule: PhaseSchedule = field(
        default_factory=lambda: PhaseSchedule(epochs_per_phase=4))
    batch_size: int = 128
    lr: float = 0.015
    momentum: float = 0.9
    weight_decay: float = 1e-4
    policy: AugmentationPolicy = field(default_factory=AugmentationPolicy)

    def __post_init__(self):
        check_fit_args(self.batch_size, self.lr, momentum=self.momentum,
                       weight_decay=self.weight_decay)


@dataclass
class PseudoLabels:
    hard: np.ndarray  # int64[N], argmax of soft with lowest-index ties
    soft: np.ndarray  # N x C
    teacher_fingerprint: str
    agreement_with_previous: float | None = None


def pseudo_label(teacher: Network, target: np.ndarray, policy: AugmentationPolicy,
                 rng: np.random.Generator) -> PseudoLabels:
    """Predict on one weakly augmented view of the whole target set, by row blocks."""
    soft = np.empty((len(target), teacher.classifier.out_dim))
    for rows in row_blocks(len(soft)):
        soft[rows] = softmax(teacher.forward(augment(target[rows], policy, "weak", rng)))
    return PseudoLabels(hard=np.argmax(soft, axis=1).astype(np.int64), soft=soft,
                        teacher_fingerprint=fingerprint_all(teacher.parameters()))


def run_phase(student: Network, labels: PseudoLabels, target: np.ndarray,
              epochs: int, mode: str, cfg: DistillConfig,
              rng: np.random.Generator) -> tuple[Network, dict | None]:
    """Fit the student to pseudo-labels on strong augmentations; returns it and its abort."""
    if mode not in ("hard", "soft"):
        raise ConfigError(f"unknown phase mode {mode!r}")
    if len(labels.hard) != len(target):
        raise ConfigError("pseudo-labels and target data are not aligned")

    def loss(logits, idx):
        probs = softmax(logits)
        return {}, (cross_entropy_grad(probs, labels.hard[idx]) if mode == "hard"
                    else kl_soft_loss_grad(probs, labels.soft[idx]))

    opt = SGD(student.parameters(), cfg.lr, cfg.momentum, cfg.weight_decay)
    _, abort = fit(opt, student, epochs, target, cfg.batch_size, rng, loss,
                   lambda x: augment(x, cfg.policy, "strong", rng), cosine=True)
    return student, abort


def distill(teacher: Network, arch: ArchSpec, backbone: Network | None,
            target: np.ndarray, cfg: DistillConfig, rng: np.random.Generator,
            eval_fn=None) -> tuple[Network, list[dict]]:
    """Run the full phase loop; returns the final student and the trace. Each phase
    starts a new `arch` student from `backbone`, or without one from a random draw.

    eval_fn, when given, maps a Network to an accuracy in [0, 1]; it is the
    only place evaluation labels may enter, and it never feeds training.
    """
    trace = []
    prev_hard = None
    student = None
    for phase in range(1, cfg.schedule.num_phases + 1):
        labels = pseudo_label(teacher, target, cfg.policy, rng)
        if prev_hard is not None:
            labels.agreement_with_previous = float((labels.hard == prev_hard).mean())
        prev_hard = labels.hard
        student = make_student(arch, backbone, rng)
        reset_fp = fingerprint_all(student.backbone_tensors())
        mode = cfg.schedule.mode_for(phase)
        epochs = cfg.schedule.epochs_for(phase)
        student, abort = run_phase(student, labels, target, epochs, mode, cfg, rng)
        entry = {"phase": phase, "mode": mode, "epochs": epochs,
                 "backbone_reset_fingerprint": reset_fp,
                 "teacher_fingerprint": labels.teacher_fingerprint,
                 "pseudo_label_agreement": labels.agreement_with_previous}
        if abort:
            entry["abort"] = abort
        if eval_fn is not None:
            entry["accuracy"] = float(eval_fn(student))
        trace.append(entry)
        teacher = student
    return student, trace


# ---------------------------------------------------------------------------
# test-time classifier rescaling for long-tailed sources


@dataclass
class CalibrateConfig:
    rounds: int = 3
    epochs: int = 10
    lr: float = 0.01
    momentum: float = 0.9
    batch_size: int = 128
    policy: AugmentationPolicy = field(default_factory=AugmentationPolicy)

    def __post_init__(self):
        check_fit_args(self.batch_size, self.lr, self.epochs, self.momentum)
        if self.rounds < 0:
            raise ConfigError(f"rounds must be non-negative, got {self.rounds}")


def calibrate_classifier(model: Network, target: np.ndarray, cfg: CalibrateConfig,
                         rng: np.random.Generator) -> tuple[np.ndarray, Network, dict | None]:
    """Learn per-class classifier scales from pseudo-labels; everything else frozen.
    Returns the scales, the model with its classifier rows scaled, and the abort.
    The raw scores x w^T that every step reuses are one eval forward of a zero-bias copy;
    a step's scale gradient is one product, weights @ ((p - onehot(hard)) * scores) / B.

    Each pseudo-label class contributes equally to the fit regardless of how
    often it is predicted. Without that reweighting the head classes dominate
    the objective and the scales drift further toward them; with it the
    rarely-predicted classes get the larger scales, which is what rebalances
    the class prior at test time. Scales are floored at 1e-3 before each use.
    An abort (see optim.fit) ends the rounds, and so do scales whose calibrated logits
    overflow at a round's end, which count as an abort. The scales kept are those of
    the latest round end whose calibrated logits are finite, else unit scales.
    """
    bias = model.classifier.bias.data
    s = Tensor(np.ones(len(bias)), "scale")
    good = s.data.copy()  # the latest scales whose calibrated logits are finite
    opt = SGD([s], cfg.lr, cfg.momentum)
    raw_scores = _scaled(model, np.ones(len(bias)), np.zeros(len(bias))).forward(target)
    hard = np.empty(len(target), np.int64)
    abort = None

    def forward(idx, train):  # the logits at the floored scales; the rows' scores and weights
        s.data = np.maximum(s.data, 1e-3)
        return (scores := raw_scores[idx]) * s.data + bias, (scores, weights[idx])

    def loss(logits, idx):
        p = softmax(logits)
        p[np.arange(len(idx)), hard[idx]] -= 1.0  # each row's CE logit gradient
        return {}, p

    # what fit trains, from closures: a class made per call would be a reference cycle
    scaler = SimpleNamespace(all_tensors=lambda: [s], forward=forward, backward=lambda cache, p: (
        s.add_grad(cache[1] @ np.multiply(p, cache[0], out=p) / len(p))))
    for _ in range(cfg.rounds):
        scaled = _scaled(model, s.data)  # refresh pseudo-labels with the current scales
        for rows in row_blocks(len(hard)):
            hard[rows] = np.argmax(softmax(scaled.forward(
                augment(target[rows], cfg.policy, "weak", rng))), axis=1)
        counts = np.bincount(hard, minlength=len(bias)).astype(float)
        weights = 1.0 / counts[hard]  # every predicted class has a count of at least 1
        weights *= len(hard) / weights.sum()
        _, abort = fit(opt, scaler, cfg.epochs, np.arange(len(hard)), cfg.batch_size, rng, loss)
        s.data = np.maximum(s.data, 1e-3)
        with np.errstate(over="ignore", invalid="ignore"):  # by row blocks, as memory allows
            if all(np.isfinite(raw_scores[r] * s.data + bias).all() for r in row_blocks(len(hard))):
                good = s.data.copy()
            else:
                abort = abort or {"epoch": cfg.epochs - 1, "reason": "non-finite calibrated logits"}
        if abort:
            break
    s.data = good
    return s.data, _scaled(model, s.data), abort


def _scaled(model: Network, scales: np.ndarray, bias: np.ndarray | None = None) -> Network:
    """A copy of `model` with its classifier rows scaled by `scales`, and bias `bias` if given."""
    net = model.copy()
    net.classifier.weight.data = scales[:, None] * net.classifier.weight.data
    if bias is not None:
        net.classifier.bias.data = bias
    return net
