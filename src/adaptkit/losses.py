"""Training objectives with analytic gradients.

Value functions operate on probabilities (rows summing to 1) and targets with one
row per batch row (ShapeError otherwise); the *_grad helpers return gradients with
respect to the pre-softmax logits, averaged over the batch, as the layer-stack
backward expects. Probabilities are clamped at 1e-12 before any log; when clamping
fires the returned LossValue is flagged instead of silently swallowing the issue.

`entropy_loss_grad` and `diversity_loss_grad` return `(value, grad)`, the value
built from the grad's own log and sums; `entropy_loss` and `diversity_loss` are
the probability check plus that value, so each formula is written once.

InfoNCE takes embeddings. `infonce_loss_grad` runs `infonce_loss`, input checks
included, and returns `(value, (dq, dk))` built from the arrays the value keeps
in `LossValue.saved`, so a step makes one pass over the similarities, which it holds
as S^T = k (q / tau)^T and scales only through B x e arrays (never forming dS).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericalError, ShapeError

P_CLAMP = 1e-12


@dataclass
class LossValue:
    scalar: float
    clamped: bool = False
    saved: tuple = field(default=(), repr=False, compare=False)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Max-shifted softmax over the last axis; the logits are not written."""
    logits = np.asarray(logits, dtype=np.float64)
    if not np.isfinite(logits).all():
        raise NumericalError("non-finite logits in softmax")
    e = np.subtract(logits, np.maximum.reduce(logits, axis=-1, keepdims=True))
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


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


def _same_shape(probs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    if np.shape(targets) != probs.shape:  # one target row per row, never broadcast
        raise ShapeError(f"targets of shape {np.shape(targets)} for probabilities {probs.shape}")
    return targets


def smoothed_targets(targets: np.ndarray, num_classes: int, smoothing: float) -> np.ndarray:
    if not 0 <= smoothing < 1:
        raise ConfigError(f"smoothing must be in [0, 1), got {smoothing}")
    targets = np.asarray(targets)
    if targets.ndim != 1 or targets.dtype.kind not in "iu":
        raise ConfigError(f"labels must be 1-d integers, got {targets.dtype} {targets.shape}")
    if targets.min() < 0 or targets.max() >= num_classes:
        raise ConfigError("target label out of range")
    q = np.full((len(targets), num_classes), smoothing / num_classes)
    q[np.arange(len(targets)), targets] += 1.0 - smoothing
    return q


def cross_entropy(probs: np.ndarray, targets: np.ndarray, smoothing: float = 0.0) -> LossValue:
    """-sum_c q_c ln p_c with label-smoothed targets q; mean over the batch."""
    probs = _check_probs(probs)
    q = _same_shape(probs, smoothed_targets(targets, probs.shape[1], smoothing))
    logp, clamped = _safe_log(probs)
    per = -(q * logp).sum(axis=1)
    return LossValue(float(per.mean()), clamped)


def cross_entropy_grad(probs: np.ndarray, targets: np.ndarray, smoothing: float = 0.0) -> np.ndarray:
    """d(mean CE)/d(logits) = (p - q) / B, the KL grad against the smoothed targets q."""
    return kl_soft_loss_grad(probs, smoothed_targets(targets, probs.shape[1], smoothing))


def entropy_loss(probs: np.ndarray) -> LossValue:
    """Mean per-sample Shannon entropy, natural log."""
    return entropy_loss_grad(_check_probs(probs))[0]


def entropy_loss_grad(probs: np.ndarray) -> tuple[LossValue, np.ndarray]:
    logp, clamped = _safe_log(probs)
    h = -(probs * logp).sum(axis=1, keepdims=True)
    return LossValue(float(h.mean()), clamped), -probs * (logp + h) / probs.shape[0]


def diversity_loss(probs: np.ndarray) -> LossValue:
    """KL(batch-mean prediction || uniform) - ln C, i.e. -H(p_bar); in [-ln C, 0]."""
    return diversity_loss_grad(_check_probs(probs))[0]


def diversity_loss_grad(probs: np.ndarray) -> tuple[LossValue, np.ndarray]:
    pbar = probs.mean(axis=0)
    logp, clamped = _safe_log(pbar)
    g = logp + 1.0  # dL/d(pbar), chained below through the per-row softmax jacobian
    return (LossValue(float((pbar * logp).sum()), clamped),
            probs * (g - (probs * g).sum(axis=1, keepdims=True)) / probs.shape[0])


def infomax_loss(probs: np.ndarray) -> LossValue:
    """Per-sample entropy plus batch diversity, unit weights."""
    ent = entropy_loss(probs)
    div = diversity_loss(probs)
    return LossValue(ent.scalar + div.scalar, ent.clamped or div.clamped)


def infomax_loss_grad(probs: np.ndarray) -> np.ndarray:
    return entropy_loss_grad(probs)[1] + diversity_loss_grad(probs)[1]


def kl_soft_loss(student: np.ndarray, teacher: np.ndarray) -> LossValue:
    """Mean KL(teacher || student); the teacher is a constant for gradients."""
    student = _check_probs(student)
    teacher = _same_shape(student, _check_probs(teacher))
    logs, c1 = _safe_log(student)
    logt, c2 = _safe_log(teacher)
    per = (teacher * (np.where(teacher > 0, logt, 0.0) - logs)).sum(axis=1)
    return LossValue(float(per.mean()), c1 or c2)


def kl_soft_loss_grad(student: np.ndarray, teacher: np.ndarray) -> np.ndarray:
    """d(mean KL)/d(student logits) = (s - t) / B."""
    return (student - _same_shape(student, teacher)) / student.shape[0]


def _normalize_rows(x: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    norms = np.sqrt(np.einsum("ij,ij->i", x, x))[:, None]
    if not norms.all():
        raise NumericalError(f"zero-norm row in {what}")
    return x / norms, norms


def infonce_loss(queries: np.ndarray, keys: np.ndarray, temperature: float) -> LossValue:
    """In-batch InfoNCE: CE over cosine similarities / tau with positive j=i."""
    queries = np.asarray(queries, dtype=np.float64)
    keys = np.asarray(keys, dtype=np.float64)
    if not 0 < temperature < np.inf:
        raise ConfigError(f"temperature must be finite and positive, got {temperature}")
    if queries.shape != keys.shape:
        raise ShapeError("queries and keys must have identical shape")
    if queries.shape[0] < 2:
        raise ConfigError("InfoNCE needs a batch of at least 2")
    q, qn = _normalize_rows(queries, "queries")
    k, kn = _normalize_rows(keys, "keys")
    sims_t = k @ (q / temperature).T
    pos = sims_t.diagonal().copy()
    top = sims_t.max(axis=0)
    e = np.exp(np.subtract(sims_t, top, out=sims_t), out=sims_t)
    total = e.sum(axis=0)
    per = np.log(total) + top - pos
    return LossValue(float(per.mean()), saved=(q, qn, k, kn, e, total))


def infonce_loss_grad(queries: np.ndarray, keys: np.ndarray, temperature: float
                      ) -> tuple[LossValue, tuple[np.ndarray, np.ndarray]]:
    """infonce_loss and its gradients w.r.t. the raw (pre-normalization) inputs, from
    the value's own normalized rows and exponentials."""
    value = infonce_loss(queries, keys, temperature)
    if not np.isfinite(value.scalar):
        raise NumericalError("non-finite contrastive loss")
    q, qn, k, kn, e, total = value.saved
    b = q.shape[0]
    # dS = (E / total - I) / (B tau), its row scale w and identity taken on the B x e sides
    w = (1 / (total * (b * temperature)))[:, None]
    dqhat = w * (e.T @ k) - k / (b * temperature)
    dkhat = e @ (w * q) - q / (b * temperature)
    # project through the row-normalization jacobian
    dq = (dqhat - np.einsum("ij,ij->i", dqhat, q)[:, None] * q) / qn
    dk = (dkhat - np.einsum("ij,ij->i", dkhat, k)[:, None] * k) / kn
    return value, (dq, dk)
