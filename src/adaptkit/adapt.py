"""Test-time adaptation (stage 1): InfoMax descent over the representation
with the classifier frozen.

Only representation parameters receive optimizer updates; gradients still
flow *through* the classifier weights. Batchnorm running statistics drift
toward the target distribution as a side effect of train-mode forwards,
which is intended -- it happens even at lr=0.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .data import UnlabeledView
from .errors import ConfigError, NumericalError
from .layers import Network
from .losses import (diversity_loss, diversity_loss_grad, entropy_loss,
                     entropy_loss_grad, softmax)
from .optim import SGD
from .source import minibatches

UPDATE_SETS = ("batchnorm_only", "representation_all")


@dataclass
class AdaptConfig:
    epochs: int = 2
    steps_per_epoch: int | None = None  # None = one full pass
    batch_size: int = 128
    lr: float = 5e-4  # desk-scale; reference recipe uses 1e-4 at full scale
    momentum: float = 0.9
    weight_decay: float = 1e-4
    update_set: str = "representation_all"

    def validate(self) -> "AdaptConfig":
        if self.lr < 0:
            raise ConfigError("lr must be non-negative")
        if self.batch_size < 2:
            raise ConfigError("batch size must be at least 2 (batchnorm)")
        if self.update_set not in UPDATE_SETS:
            raise ConfigError(f"unknown update set {self.update_set!r}")
        return self


@dataclass
class AdaptReport:
    epochs: list[dict] = field(default_factory=list)
    param_delta_norm: float = 0.0
    classifier_fingerprint_before: str = ""
    classifier_fingerprint_after: str = ""
    aborted: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


def partition_parameters(net: Network, update_set: str):
    """Split parameters into (trainable, frozen); the classifier is always frozen."""
    if update_set == "representation_all":
        trainable = net.representation_parameters()
    elif update_set == "batchnorm_only":
        trainable = [p for layer in net.layers[: net.classifier_index]
                     if layer.kind == "batchnorm" for p in layer.parameters()]
    else:
        raise ConfigError(f"unknown update set {update_set!r}")
    chosen = {id(p) for p in trainable}
    frozen = [p for p in net.parameters() if id(p) not in chosen]
    return trainable, frozen


def adapt(source: Network, target: UnlabeledView, cfg: AdaptConfig,
          rng: np.random.Generator) -> tuple[Network, AdaptReport]:
    """Return an adapted copy of the source model plus a run report."""
    cfg.validate()
    net = source.copy()
    report = AdaptReport(classifier_fingerprint_before=net.classifier_fingerprint())
    trainable, _ = partition_parameters(net, cfg.update_set)
    opt = SGD(trainable, cfg.lr, cfg.momentum, cfg.weight_decay)
    before = [p.data.copy() for p in net.parameters()]
    net.train()
    last_good = net.copy()
    for epoch in range(cfg.epochs):
        ent_vals, div_vals = [], []
        try:
            batches = list(minibatches(len(target), cfg.batch_size, rng))
            if cfg.steps_per_epoch is not None:
                batches = batches[: cfg.steps_per_epoch]
            for idx in batches:
                logits, caches = net.forward(target.features[idx], record=True)
                probs = softmax(logits)
                dlogits = entropy_loss_grad(probs) + diversity_loss_grad(probs)
                ent_vals.append(entropy_loss(probs).scalar)
                div_vals.append(diversity_loss(probs).scalar)
                net.zero_grad()
                net.backward(caches, dlogits)
                opt.step()
        except NumericalError:
            report.aborted = True
            net = last_good
            break
        ent, div = float(np.mean(ent_vals)), float(np.mean(div_vals))
        report.epochs.append({"epoch": epoch, "entropy": ent, "diversity": div,
                              "infomax": ent + div})
        last_good = net.copy()
    after = [p.data for p in net.parameters()]
    with np.errstate(over="ignore"):  # delta can overflow after an abort
        report.param_delta_norm = float(np.sqrt(sum(
            float(((a - b) ** 2).sum()) for a, b in zip(after, before))))
    report.classifier_fingerprint_after = net.classifier_fingerprint()
    net.eval()
    return net, report
