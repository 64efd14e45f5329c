"""Dense float64 tensor with an optional gradient slot, and the row-block rule.

Activations and dataset features are plain numpy arrays; Tensor wraps a
network's parameters and batchnorm running statistics so that gradients,
checkpointing, and fingerprinting have a single carrier type.

Every inference pass over a whole dataset writes `row_blocks(n)` one at a time
into its output, so it needs a few blocks beside the output however many rows
there are: the eval-mode `Network.forward`, which also gives `calibrate_classifier`
its raw scores, `pseudo_label` and each calibration round.
"""
from __future__ import annotations

import ctypes
import hashlib
from contextlib import contextmanager
from functools import cache
from pathlib import Path

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


@cache
def _openblas():
    """numpy's bundled OpenBLAS, loaded on first use; None for any other BLAS."""
    libs = (Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*")
    for lib in map(ctypes.CDLL, map(str, sorted(libs))):
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
            lib.scipy_openblas_get_corename64_.restype = ctypes.c_char_p
            return lib


@contextmanager
def one_blas_thread():
    """Run the block's BLAS on the calling thread alone, restoring the count on exit: on
    the pipeline's small gemms a second thread mostly spins, burning a core. Yields
    {"threads", "core"} of the BLAS; without numpy's bundled OpenBLAS, None and no-op."""
    if (lib := _openblas()) is None:
        yield None
        return
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield {"threads": lib.scipy_openblas_get_num_threads64_(),
               "core": lib.scipy_openblas_get_corename64_().decode()}
    finally:
        lib.scipy_openblas_set_num_threads64_(before)


@cache
def keep_freed_memory() -> None:
    """Have glibc keep freed memory for reuse, once per process: heap blocks up to 32 MiB
    (M_MMAP_THRESHOLD) and up to 64 MiB of free heap top (M_TRIM_THRESHOLD), the caps
    its dynamic thresholds reach on 64-bit. Otherwise a train step that frees its
    batch-sized arrays has the heap trimmed and page-faulted back every step. Without
    glibc's `mallopt`, a no-op. No bit depends on it."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(-3, 32 << 20)
        mallopt(-1, 64 << 20)


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
        and later calls add into it, so the caller hands g over: a fresh array that
        nothing else holds."""
        g = np.asarray(g, dtype=np.float64)
        if g.shape != self.data.shape:
            raise ShapeError(f"grad shape {g.shape} does not match parameter shape "
                             f"{self.data.shape}")
        if self.grad is None:
            self.grad = g
        else:
            self.grad += g


def fingerprint_all(tensors) -> str:
    """Joint fingerprint over an iterable of Tensors, order-sensitive."""
    h = hashlib.sha256()
    for t in tensors:
        h.update(t.name.encode())
        h.update(t.data.astype("<f8").tobytes())
    return h.hexdigest()
