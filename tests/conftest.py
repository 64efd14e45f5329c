"""Shared pytest hooks: surface acceptance verdict lines in the summary, and one line
naming what the golden pins depend on: the numpy version and the OpenBLAS core."""
import numpy as np

from adaptkit.tensor import one_blas_thread

VERDICTS: list[str] = []


def pytest_terminal_summary(terminalreporter):
    with one_blas_thread() as blas:
        core = blas["core"] if blas else "none (numpy without its bundled OpenBLAS)"
    terminalreporter.write_line(f"golden pins depend on: numpy {np.__version__}, "
                                f"OpenBLAS core {core}")
    if VERDICTS:
        terminalreporter.section("acceptance verdicts")
        for line in VERDICTS:
            terminalreporter.write_line(line)
