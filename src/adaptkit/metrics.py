"""Evaluation metrics: overall accuracy, class-mean accuracy, and
many/medium/few shot buckets when imbalance metadata is available.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .data import Dataset
from .errors import ConfigError
from .layers import Network


@dataclass
class MetricsReport:
    overall_acc: float  # (sum_c correct_c) / (sum_c n_c)
    class_mean_acc: float  # mean_c correct_c / n_c
    per_class: list[float]
    per_class_counts: list[int]
    n: int
    buckets: dict[str, float | None] | None = None  # None: no evaluated class in the bucket
    bucket_classes: dict[str, list[int]] | None = None

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


def bucket_split(train_counts: np.ndarray, thresholds: tuple[int, int]) -> dict[str, list[int]]:
    """Partition class ids by their training-set frequency."""
    t_many, t_few = thresholds
    out = {"many": [], "medium": [], "few": []}
    for c, count in enumerate(train_counts):
        if count > t_many:
            out["many"].append(c)
        elif count < t_few:
            out["few"].append(c)
        else:
            out["medium"].append(c)
    return out


def evaluate(model: Network, dataset: Dataset, train_counts: np.ndarray | None = None,
             thresholds: tuple[int, int] | None = None) -> MetricsReport:
    """Deterministic accuracy report on a labeled evaluation set."""
    if len(dataset) == 0:
        raise ConfigError("empty evaluation set")
    if dataset.labels is None:
        raise ConfigError("evaluation needs labels")
    logits = model.forward(dataset.features)
    c = dataset.num_classes
    if logits.shape[1] != c:
        raise ConfigError(f"the model predicts {logits.shape[1]} classes, "
                          f"the dataset has {c}")
    if train_counts is not None and len(train_counts) != c:
        raise ConfigError(f"train counts cover {len(train_counts)} classes, the dataset has {c}")
    preds = np.argmax(logits, axis=1)
    labels = dataset.labels
    counts = np.bincount(labels, minlength=c)
    correct = np.bincount(labels[preds == labels], minlength=c)
    per_class = np.where(counts > 0, correct / np.maximum(counts, 1), 0.0)
    present = counts > 0
    report = MetricsReport(
        overall_acc=float(correct.sum() / counts.sum()),
        class_mean_acc=float(per_class[present].mean()),
        per_class=[float(v) for v in per_class],
        per_class_counts=[int(v) for v in counts],
        n=len(dataset),
    )
    if thresholds is None:
        thresholds = dataset.bucket_thresholds
    if train_counts is not None and thresholds is not None:
        split = bucket_split(np.asarray(train_counts), thresholds)
        buckets = {}
        for name, classes in split.items():
            live = [cc for cc in classes if present[cc]]
            buckets[name] = float(np.mean([per_class[cc] for cc in live])) if live else None
        report.buckets = buckets
        report.bucket_classes = split
    return report
