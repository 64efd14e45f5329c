"""Dense float64 tensor with an optional gradient slot.

Activations and dataset features are plain numpy arrays; Tensor wraps a
network's parameters and batchnorm running statistics so that gradients,
checkpointing, and fingerprinting have a single carrier type.
"""
from __future__ import annotations

import hashlib

import numpy as np

from .errors import NumericalError, ShapeError


def check_finite(arr: np.ndarray, what: str = "tensor") -> np.ndarray:
    """NaN/Inf is an error surface, never a silent state."""
    if not np.all(np.isfinite(arr)):
        raise NumericalError(f"non-finite values in {what}")
    return arr


class Tensor:
    """A named float64 buffer with an optional same-shape gradient."""

    __slots__ = ("data", "grad", "name")

    def __init__(self, data, name: str = ""):
        self.data = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        self.grad: np.ndarray | None = None
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        self.grad = None

    def add_grad(self, g: np.ndarray) -> None:
        """Accumulate g. The first call keeps g itself and later calls add into it,
        so g must be a fresh array that the caller does not hold on to."""
        g = np.asarray(g, dtype=np.float64)
        if g.shape != self.data.shape:
            raise ShapeError(
                f"grad shape {g.shape} does not match parameter shape {self.data.shape}"
            )
        if self.grad is None:
            self.grad = g
        else:
            self.grad += g

    def copy(self) -> "Tensor":
        t = Tensor(self.data.copy(), self.name)
        if self.grad is not None:
            t.grad = self.grad.copy()
        return t

    def __repr__(self) -> str:
        nm = f" {self.name!r}" if self.name else ""
        return f"Tensor{nm}(shape={self.shape})"


def fingerprint_all(tensors) -> str:
    """Joint fingerprint over an iterable of Tensors, order-sensitive."""
    h = hashlib.sha256()
    for t in tensors:
        h.update(t.name.encode())
        h.update(t.data.astype("<f8").tobytes())
    return h.hexdigest()
