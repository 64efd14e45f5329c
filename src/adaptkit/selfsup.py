"""Contrastive initialization of the student representation (stage 2).

The backbone is trained with in-batch InfoNCE over two independently
strong-augmented views per sample, through a small projection head that is
discarded afterwards. Stage 3 starts each student from this backbone or, without
one, from a random draw.
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
    tensors: dict[str, np.ndarray]  # name -> array, over Network.backbone_tensors()
    loss_history: list[dict] = field(default_factory=list)
    abort: dict | None = None  # pretrain's abort record (see optim.fit)


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
        # both views go through backbone and head as one 2 x B x d stack
        views = np.stack([augment(x, cfg.policy, "strong", rng),
                          augment(x, cfg.policy, "strong", rng)])
        feats, caches = net.forward_features(views, train=True)
        (q, k), head_caches = forward_layers(head, feats, train=True)
        loss = infonce_loss(q, k, cfg.temperature)
        if not np.isfinite(loss.scalar):
            raise NumericalError("non-finite contrastive loss")
        dq, dk = infonce_loss_grad(q, k, cfg.temperature)
        net.backward_features(caches, backward_layers(head, head_caches, np.stack([dq, dk])))
        return {"infonce": loss.scalar}

    opt = SGD(net.representation_parameters() + head_params, cfg.lr, cfg.momentum, cfg.weight_decay)
    history, abort = fit(opt, net.all_tensors() + head_params, cfg.epochs, len(target),
                         cfg.batch_size, rng, grads)
    return InitializedStudent(arch, {t.name: t.data.copy() for t in net.backbone_tensors()},
                              history, abort)


def make_student(arch: ArchSpec, backbone: InitializedStudent | None,
                 rng: np.random.Generator) -> Network:
    """Build a student from `rng`; with a backbone, its tensors replace the drawn ones
    and only the classifier keeps the draw."""
    student = build_network(arch, rng)
    if backbone is not None:
        if backbone.arch != arch:
            raise ConfigError(f"backbone is for {backbone.arch}, student is {arch}")
        for t in student.backbone_tensors():
            if t.name not in backbone.tensors:
                raise ConfigError(f"backbone is missing tensor {t.name!r}")
            t.data = backbone.tensors[t.name].copy()
    return student
