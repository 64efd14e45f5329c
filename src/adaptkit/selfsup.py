"""Contrastive initialization of the student representation (stage 2).

The backbone is trained with in-batch InfoNCE over two independently
strong-augmented views per sample, through a small projection head that is
discarded afterwards. The initializer interface is deliberately pluggable:
make_student accepts contrastive, source_copy, or random backbones.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import AugmentationPolicy, UnlabeledView, augment
from .errors import ConfigError, NumericalError
from .layers import (ArchSpec, Dense, Network, ReLU, backward_layers, build_network,
                     forward_layers)
from .losses import infonce_loss, infonce_loss_grad
from .optim import SGD, check_fit_args, fit

INIT_KINDS = ("contrastive", "source_copy", "random")


@dataclass
class ContrastiveConfig:
    epochs: int = 100
    batch_size: int = 128
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 1e-4
    temperature: float = 0.2
    embedding_dim: int = 32
    policy: AugmentationPolicy = field(default_factory=AugmentationPolicy)

    def __post_init__(self):
        check_fit_args(self.batch_size, self.lr, self.epochs)
        if self.temperature <= 0:
            raise ConfigError("temperature must be positive")
        if self.embedding_dim < 2:
            raise ConfigError("embedding dim must be at least 2")


@dataclass
class InitializedStudent:
    """Representation-only checkpoint: no classifier parameters."""

    arch: ArchSpec
    tensors: dict[str, np.ndarray]  # representation params + batchnorm stats
    provenance: str  # "contrastive" | "source_copy" | "random"
    loss_history: list[dict] = field(default_factory=list)
    abort: dict | None = None  # pretrain's abort record (see optim.fit)


def _backbone_snapshot(net: Network) -> dict[str, np.ndarray]:
    out = {}
    for t in net.representation_parameters() + net.state_tensors():
        out[t.name] = t.data.copy()
    return out


def pretrain(arch: ArchSpec, target: UnlabeledView, cfg: ContrastiveConfig,
             rng: np.random.Generator) -> InitializedStudent:
    """Train the backbone of `arch` on unlabeled target data with InfoNCE."""
    if len(target) < 2 * cfg.batch_size:
        raise ConfigError(
            f"target too small for contrastive pretraining: {len(target)} rows, "
            f"need at least {2 * cfg.batch_size}")
    net = build_network(arch, rng)
    # dense-relu-dense projection head: hidden -> embedding_dim -> embedding_dim // 2
    head = [Dense(arch.hidden[-1], cfg.embedding_dim, rng, prefix="head.0"), ReLU(),
            Dense(cfg.embedding_dim, max(2, cfg.embedding_dim // 2), rng, prefix="head.1")]
    head_params = [p for layer in head for p in layer.parameters()]

    def grads(idx):
        x = target.features[idx]
        v1 = augment(x, cfg.policy, "strong", rng)
        v2 = augment(x, cfg.policy, "strong", rng)
        f1, c1 = net.forward_features(v1, record=True)
        q, hc1 = forward_layers(head, f1, train=True)
        f2, c2 = net.forward_features(v2, record=True)
        k, hc2 = forward_layers(head, f2, train=True)
        loss = infonce_loss(q, k, cfg.temperature)
        if not np.isfinite(loss.scalar):
            raise NumericalError("non-finite contrastive loss")
        dq, dk = infonce_loss_grad(q, k, cfg.temperature)
        net.backward_features(c1, backward_layers(head, hc1, dq))
        net.backward_features(c2, backward_layers(head, hc2, dk))
        return {"infonce": loss.scalar}

    opt = SGD(net.representation_parameters() + head_params, cfg.lr, cfg.momentum, cfg.weight_decay)
    net.train()
    history, abort = fit(opt, net.all_tensors() + head_params, cfg.epochs, len(target),
                         cfg.batch_size, rng, grads)
    net.eval()
    return InitializedStudent(arch, _backbone_snapshot(net), "contrastive", history, abort)


def random_backbone(arch: ArchSpec, rng: np.random.Generator) -> InitializedStudent:
    return InitializedStudent(arch, _backbone_snapshot(build_network(arch, rng)), "random")


def backbone_from_teacher(teacher: Network) -> InitializedStudent:
    return InitializedStudent(teacher.arch, _backbone_snapshot(teacher), "source_copy")


def make_student(init_kind: str, teacher: Network | None,
                 pretrained: InitializedStudent | None, arch: ArchSpec,
                 rng: np.random.Generator) -> Network:
    """Build a student: chosen backbone plus a freshly initialized classifier."""
    if init_kind not in INIT_KINDS:
        raise ConfigError(f"unknown student init {init_kind!r}")
    student = build_network(arch, rng)  # classifier init comes from this draw
    if init_kind == "random":
        return student
    if init_kind == "source_copy":
        if teacher is None:
            raise ConfigError("source_copy needs a teacher")
        if teacher.arch != arch:
            raise ConfigError(
                f"source_copy needs matching architectures: {teacher.arch} vs {arch}")
        source = backbone_from_teacher(teacher)
    else:
        if pretrained is None:
            raise ConfigError("contrastive init needs a pretrained backbone")
        if pretrained.arch != arch:
            raise ConfigError(
                f"pretrained backbone is for {pretrained.arch}, student is {arch}")
        source = pretrained
    for t in student.representation_parameters() + student.state_tensors():
        if t.name not in source.tensors:
            raise ConfigError(f"backbone is missing tensor {t.name!r}")
        t.data = source.tensors[t.name].copy()
    return student


def backbone_fingerprint(net: Network) -> str:
    from .tensor import fingerprint_all
    return fingerprint_all(net.representation_parameters() + net.state_tensors())
