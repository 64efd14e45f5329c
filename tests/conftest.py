"""Shared pytest hooks: surface acceptance verdict lines in the summary, one line
naming what the golden pins depend on (the numpy version and the OpenBLAS core),
and one giving src/adaptkit's line count beside its budget. Nothing here gates."""
from pathlib import Path

import numpy as np

import adaptkit
from adaptkit.tensor import one_blas_thread

VERDICTS: list[str] = []
LINE_BUDGET = 2448  # ROADMAP item 9: `cat src/adaptkit/*.py | wc -l` at most this


def pytest_terminal_summary(terminalreporter):
    with one_blas_thread() as blas:
        core = blas["core"] if blas else "none (numpy without its bundled OpenBLAS)"
    terminalreporter.write_line(f"golden pins depend on: numpy {np.__version__}, "
                                f"OpenBLAS core {core}")
    lines = sum(p.read_bytes().count(b"\n") for p in Path(adaptkit.__file__).parent.glob("*.py"))
    terminalreporter.write_line(f"src/adaptkit: {lines} lines "
                                f"(ROADMAP item 9 budget {LINE_BUDGET})")
    if VERDICTS:
        terminalreporter.section("acceptance verdicts")
        for line in VERDICTS:
            terminalreporter.write_line(line)
