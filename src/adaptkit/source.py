"""Supervised training on the labeled source domain (pipeline stage 0)."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ConfigError
from .layers import Network
from .losses import cross_entropy_grad, softmax
from .optim import SGD, check_fit_args, fit


@dataclass
class SourceConfig:
    epochs: int = 30
    batch_size: int = 128
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 1e-4
    smoothing: float = 0.1

    def __post_init__(self):
        check_fit_args(self.batch_size, self.lr, self.epochs, self.momentum, self.weight_decay)
        if not 0 <= self.smoothing < 1:
            raise ConfigError(f"smoothing must be in [0, 1), got {self.smoothing}")


def train_source(net: Network, dataset: Dataset, cfg: SourceConfig,
                 rng: np.random.Generator) -> tuple[Network, list[dict], dict | None]:
    """Minimize label-smoothed cross-entropy; returns the net, its history and its abort.
    The loss value is not computed, so the history holds epochs only."""
    if dataset.labels is None:
        raise ConfigError("source training needs labels")

    def loss(logits, idx):
        return {}, cross_entropy_grad(softmax(logits), dataset.labels[idx], cfg.smoothing)

    opt = SGD(net.parameters(), cfg.lr, cfg.momentum, cfg.weight_decay)
    history, abort = fit(opt, net, cfg.epochs, dataset.features, cfg.batch_size, rng, loss,
                         cosine=True)
    return net, history, abort
