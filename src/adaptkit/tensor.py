"""Dense float64 tensor with an optional gradient slot, and the row-block rule.

Activations and dataset features are plain numpy arrays; Tensor wraps a
network's parameters and batchnorm running statistics so that gradients,
checkpointing, and fingerprinting have a single carrier type.

Every inference pass over a whole dataset writes `row_blocks(n)` one at a time
into its output, so it needs a few blocks beside the output however many rows
there are: the eval-mode `Network.forward`, `pseudo_label`, each calibration
round and the raw scores of `calibrate_classifier`.
"""
from __future__ import annotations

import hashlib

import numpy as np

from .errors import NumericalError, ShapeError


BLOCK_ROWS = 512


def row_blocks(n: int) -> list[slice]:
    """Slices over rows 0..n in blocks of BLOCK_ROWS, a short tail joined to the last
    block. On a block of at least BLOCK_ROWS rows (or all n) BLAS runs the gemm kernel
    it runs on all n, so every row gets the bits of one pass; below about a hundred
    rows OpenBLAS picks other kernels whose rounding differs."""
    stops = [*range(BLOCK_ROWS, n - BLOCK_ROWS + 1, BLOCK_ROWS), n]
    return [slice(start, stop) for start, stop in zip([0, *stops], stops)]


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
        """Accumulate g. The first call after zero_grad keeps g itself, not a copy,
        and later calls add into it, so the caller hands g over: a fresh array, or
        an array of the `layers.Workspace` of `optim.fit`, which clears every grad
        before the loop's next step writes that array again, and when it returns."""
        g = np.asarray(g, dtype=np.float64)
        if g.shape != self.data.shape:
            raise ShapeError(
                f"grad shape {g.shape} does not match parameter shape {self.data.shape}"
            )
        if self.grad is None:
            self.grad = g
        else:
            self.grad += g

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
