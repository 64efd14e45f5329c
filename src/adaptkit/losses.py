"""Training objectives with analytic gradients.

Value functions operate on probabilities (rows summing to 1); the *_grad
helpers return gradients with respect to the pre-softmax logits, already
averaged over the batch, which is what the layer-stack backward expects.
Probabilities are clamped at 1e-12 before any log; when clamping fires the
returned LossValue is flagged instead of silently swallowing the issue.

InfoNCE takes embeddings. `infonce_loss_grad` runs `infonce_loss`, input checks
included, and returns `(value, (dq, dk))` built from the arrays the value keeps
in `LossValue.saved`, so a step makes one pass over the similarities.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericalError, ShapeError

P_CLAMP = 1e-12


@dataclass
class LossValue:
    scalar: float
    per_sample: np.ndarray | None = None
    clamped: bool = False
    saved: tuple = field(default=(), repr=False, compare=False)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Max-shifted softmax over the last axis."""
    logits = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(logits)):
        raise NumericalError("non-finite logits in softmax")
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _safe_log(p: np.ndarray) -> tuple[np.ndarray, bool]:
    clamped = bool(np.any(p < P_CLAMP))
    return np.log(np.maximum(p, P_CLAMP)), clamped


def _check_probs(probs: np.ndarray) -> np.ndarray:
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2:
        raise ShapeError(f"expected B x C probabilities, got shape {probs.shape}")
    if np.any(probs < 0) or np.any(np.abs(probs.sum(axis=1) - 1.0) > 1e-9):
        raise ConfigError("rows must be non-negative and sum to 1")
    return probs


def smoothed_targets(targets: np.ndarray, num_classes: int, smoothing: float) -> np.ndarray:
    if not 0 <= smoothing < 1:
        raise ConfigError(f"smoothing must be in [0, 1), got {smoothing}")
    targets = np.asarray(targets)
    if targets.min() < 0 or targets.max() >= num_classes:
        raise ConfigError("target label out of range")
    q = np.full((len(targets), num_classes), smoothing / num_classes)
    q[np.arange(len(targets)), targets] += 1.0 - smoothing
    return q


def cross_entropy(probs: np.ndarray, targets: np.ndarray, smoothing: float = 0.0) -> LossValue:
    """-sum_c q_c ln p_c with label-smoothed targets q; mean over the batch."""
    probs = _check_probs(probs)
    q = smoothed_targets(targets, probs.shape[1], smoothing)
    logp, clamped = _safe_log(probs)
    per = -(q * logp).sum(axis=1)
    return LossValue(float(per.mean()), per, clamped)


def cross_entropy_grad(probs: np.ndarray, targets: np.ndarray, smoothing: float = 0.0) -> np.ndarray:
    """d(mean CE)/d(logits) = (p - q) / B."""
    q = smoothed_targets(targets, probs.shape[1], smoothing)
    return (probs - q) / probs.shape[0]


def entropy_loss(probs: np.ndarray) -> LossValue:
    """Mean per-sample Shannon entropy, natural log."""
    probs = _check_probs(probs)
    logp, clamped = _safe_log(probs)
    per = -(probs * logp).sum(axis=1)
    return LossValue(float(per.mean()), per, clamped)


def entropy_loss_grad(probs: np.ndarray) -> np.ndarray:
    logp, _ = _safe_log(probs)
    h = -(probs * logp).sum(axis=1, keepdims=True)
    return -probs * (logp + h) / probs.shape[0]


def diversity_loss(probs: np.ndarray) -> LossValue:
    """KL(batch-mean prediction || uniform) - ln C, i.e. -H(p_bar); in [-ln C, 0]."""
    probs = _check_probs(probs)
    pbar = probs.mean(axis=0)
    logp, clamped = _safe_log(pbar)
    return LossValue(float((pbar * logp).sum()), None, clamped)


def diversity_loss_grad(probs: np.ndarray) -> np.ndarray:
    b = probs.shape[0]
    pbar = probs.mean(axis=0)
    logp, _ = _safe_log(pbar)
    g = logp + 1.0  # dL/d(pbar)
    # chain through the per-row softmax jacobian
    return probs * (g - (probs * g).sum(axis=1, keepdims=True)) / b


def infomax_loss(probs: np.ndarray) -> LossValue:
    """Per-sample entropy plus batch diversity, unit weights."""
    ent = entropy_loss(probs)
    div = diversity_loss(probs)
    return LossValue(ent.scalar + div.scalar, None, ent.clamped or div.clamped)


def infomax_loss_grad(probs: np.ndarray) -> np.ndarray:
    return entropy_loss_grad(probs) + diversity_loss_grad(probs)


def kl_soft_loss(student: np.ndarray, teacher: np.ndarray) -> LossValue:
    """Mean KL(teacher || student); the teacher is a constant for gradients."""
    student = _check_probs(student)
    teacher = _check_probs(teacher)
    if student.shape != teacher.shape:
        raise ShapeError(f"shape mismatch: student {student.shape}, teacher {teacher.shape}")
    logs, c1 = _safe_log(student)
    logt, c2 = _safe_log(teacher)
    per = (teacher * (np.where(teacher > 0, logt, 0.0) - logs)).sum(axis=1)
    return LossValue(float(per.mean()), per, c1 or c2)


def kl_soft_loss_grad(student: np.ndarray, teacher: np.ndarray) -> np.ndarray:
    """d(mean KL)/d(student logits) = (s - t) / B."""
    return (student - teacher) / student.shape[0]


def _normalize_rows(x: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    norms = np.sqrt((x * x).sum(axis=1, keepdims=True))
    if np.any(norms == 0):
        raise NumericalError(f"zero-norm row in {what}")
    return x / norms, norms


def infonce_loss(queries: np.ndarray, keys: np.ndarray, temperature: float) -> LossValue:
    """In-batch InfoNCE: CE over cosine similarities / tau with positive j=i."""
    queries = np.asarray(queries, dtype=np.float64)
    keys = np.asarray(keys, dtype=np.float64)
    if temperature <= 0:
        raise ConfigError(f"temperature must be positive, got {temperature}")
    if queries.shape != keys.shape:
        raise ShapeError("queries and keys must have identical shape")
    if queries.shape[0] < 2:
        raise ConfigError("InfoNCE needs a batch of at least 2")
    q, qn = _normalize_rows(queries, "queries")
    k, kn = _normalize_rows(keys, "keys")
    sims = q @ k.T / temperature
    top = sims.max(axis=1, keepdims=True)
    e = np.exp(sims - top)
    total = e.sum(axis=1)
    per = np.log(total) + top[:, 0] - np.diag(sims)
    return LossValue(float(per.mean()), per, saved=(q, qn, k, kn, e, total))


def infonce_loss_grad(queries: np.ndarray, keys: np.ndarray, temperature: float
                      ) -> tuple[LossValue, tuple[np.ndarray, np.ndarray]]:
    """infonce_loss and its gradients w.r.t. the raw (pre-normalization) inputs, from
    the value's own normalized rows and exponentials."""
    value = infonce_loss(queries, keys, temperature)
    if not np.isfinite(value.scalar):
        raise NumericalError("non-finite contrastive loss")
    q, qn, k, kn, e, total = value.saved
    b = q.shape[0]
    ds = e / total[:, None]  # the row softmax of the similarities
    ds[np.diag_indices(b)] -= 1.0
    ds /= b * temperature
    dqhat, dkhat = ds @ k, ds.T @ q
    # project through the row-normalization jacobian
    dq = (dqhat - (dqhat * q).sum(axis=1, keepdims=True) * q) / qn
    dk = (dkhat - (dkhat * k).sum(axis=1, keepdims=True) * k) / kn
    return value, (dq, dk)
