"""The golden digests do not depend on the BLAS thread count.

Row-block passes (`tensor.row_blocks`) give the bits of one pass over all rows
because BLAS runs the same gemm kernel on a block of at least BLOCK_ROWS rows
as on the whole array. OpenBLAS splits a large gemm between its threads, so the
golden module runs once more here in a subprocess with one BLAS thread and must
pass unchanged.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_golden_module_passes_with_one_blas_thread():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/test_golden.py"],
        cwd=ROOT, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
