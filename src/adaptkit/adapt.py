"""Test-time adaptation (stage 1): InfoMax descent over the representation
with the classifier frozen.

Only representation parameters receive optimizer updates; gradients still
flow *through* the classifier weights. Batchnorm running statistics drift
toward the target distribution as a side effect of the train=True forwards,
which is intended -- it happens even at lr=0.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import UnlabeledView
from .errors import ConfigError
from .layers import Network
from .losses import diversity_loss_grad, entropy_loss_grad, softmax
from .optim import SGD, check_fit_args, fit
from .tensor import fingerprint_all

UPDATE_SETS = ("representation_all", "batchnorm_only")


@dataclass
class AdaptConfig:
    epochs: int = 2
    batch_size: int = 128
    lr: float = 5e-4  # desk-scale; reference recipe uses 1e-4 at full scale
    momentum: float = 0.9
    weight_decay: float = 1e-4
    update_set: str = "representation_all"

    def __post_init__(self):
        check_fit_args(self.batch_size, self.lr, self.epochs, self.momentum, self.weight_decay)
        if self.update_set not in UPDATE_SETS:
            raise ConfigError(f"unknown update set {self.update_set!r}")


@dataclass
class AdaptReport:
    epochs: list[dict] = field(default_factory=list)
    param_delta_norm: float = 0.0
    classifier_fingerprint_before: str = ""
    classifier_fingerprint_after: str = ""
    aborted: bool = False


def partition_parameters(net: Network, update_set: str):
    """Split parameters into (trainable, frozen); the classifier is always frozen."""
    if update_set == "representation_all":
        trainable = net.representation_parameters()
    elif update_set == "batchnorm_only":
        trainable = [p for layer in net.layers[:-1]
                     if layer.kind == "batchnorm" for p in layer.parameters()]
    else:
        raise ConfigError(f"unknown update set {update_set!r}")
    chosen = {id(p) for p in trainable}
    frozen = [p for p in net.parameters() if id(p) not in chosen]
    return trainable, frozen


def adapt(source: Network, target: UnlabeledView, cfg: AdaptConfig,
          rng: np.random.Generator) -> tuple[Network, AdaptReport, dict | None]:
    """Return an adapted copy of the source model, its report and its abort record."""
    net = source.copy()
    report = AdaptReport(classifier_fingerprint_before=fingerprint_all(net.classifier.parameters()))
    trainable, _ = partition_parameters(net, cfg.update_set)

    def loss(logits, idx):
        probs = softmax(logits)
        (ent, g_ent), (div, g_div) = entropy_loss_grad(probs), diversity_loss_grad(probs)
        return {"entropy": ent.scalar, "diversity": div.scalar}, g_ent + g_div

    opt = SGD(trainable, cfg.lr, cfg.momentum, cfg.weight_decay)
    before = [p.data.copy() for p in net.parameters()]
    report.epochs, abort = fit(opt, net, cfg.epochs, len(target), cfg.batch_size, rng,
                               lambda idx: target.features[idx], loss)
    for e in report.epochs:
        e["infomax"] = e["entropy"] + e["diversity"]
    report.aborted = abort is not None
    after = [p.data for p in net.parameters()]
    with np.errstate(over="ignore"):  # delta can overflow after an abort
        report.param_delta_norm = float(np.sqrt(sum(
            float(((a - b) ** 2).sum()) for a, b in zip(after, before))))
    report.classifier_fingerprint_after = fingerprint_all(net.classifier.parameters())
    return net, report, abort
