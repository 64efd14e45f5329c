"""Contrastive initialization of the student representation (stage 2).

The backbone is trained with in-batch InfoNCE over two independently
strong-augmented views per sample. The Network trained is the backbone's hidden
layers, shared with it, then a small projection head that is discarded afterwards.
The backbone is the trained Network; its classifier is the untrained draw, never
saved or copied. Stage 3 starts each student from this backbone or, without one,
from a random draw.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import AugmentationPolicy, augment
from .errors import ConfigError
from .layers import ArchSpec, Dense, Network, ReLU, build_network
from .losses import infonce_loss_grad
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
        check_fit_args(self.batch_size, self.lr, self.epochs, self.momentum, self.weight_decay)
        if not 0 < self.temperature < np.inf:
            raise ConfigError(f"temperature must be finite and positive, got {self.temperature}")
        if self.embedding_dim < 2:
            raise ConfigError("embedding dim must be at least 2")


def pretrain(arch: ArchSpec, target: np.ndarray, cfg: ContrastiveConfig,
             rng: np.random.Generator) -> tuple[Network, list[dict], dict | None]:
    """Train the backbone of an `arch` network on unlabeled target data with InfoNCE;
    returns the network, its per-epoch losses and its abort (see optim.fit)."""
    if not arch.hidden:
        raise ConfigError("contrastive pretraining needs an architecture with a hidden layer")
    if len(target) < 2 * cfg.batch_size:
        raise ConfigError(
            f"target too small for contrastive pretraining: {len(target)} rows, "
            f"need at least {2 * cfg.batch_size}")
    net = build_network(arch, rng)
    # the backbone's hidden layers, then a dense-relu-dense head: hidden -> emb -> emb // 2
    trainer = Network(net.layers[:-1] + [
        Dense(arch.hidden[-1], cfg.embedding_dim, rng, prefix="head.0"), ReLU(),
        Dense(cfg.embedding_dim, max(2, cfg.embedding_dim // 2), rng, prefix="head.1")], arch)

    def views(x):  # both go through the trainer as one 2 x B x d stack
        return np.stack([augment(x, cfg.policy, "strong", rng) for _ in range(2)])

    def loss(out, idx):
        value, (dq, dk) = infonce_loss_grad(out[0], out[1], cfg.temperature)
        return {"infonce": value.scalar}, np.stack([dq, dk])

    opt = SGD(trainer.parameters(), cfg.lr, cfg.momentum, cfg.weight_decay)
    history, abort = fit(opt, trainer, cfg.epochs, target, cfg.batch_size, rng, loss,
                         views)
    return net, history, abort


def make_student(arch: ArchSpec, backbone: Network | None,
                 rng: np.random.Generator) -> Network:
    """Build a student from `rng`; with a backbone, copies of its backbone tensors
    replace the drawn ones and only the classifier keeps the draw."""
    student = build_network(arch, rng)
    if backbone is not None:
        if backbone.arch != arch:
            raise ConfigError(f"backbone is for {backbone.arch}, student is {arch}")
        for t, b in zip(student.backbone_tensors(), backbone.backbone_tensors()):
            t.data = b.data.copy()
    return student
