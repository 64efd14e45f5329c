"""List the `src/adaptkit` statements that no test runs: a line map of tier-1.

    python tools/lines.py [PYTEST_ARGS...]

The checkout's working tree is copied to a temporary directory (without `.git` and
caches), and pytest runs there on the copy, with tier-1's arguments unless others are
given. A plugin in that run sets a `sys.settrace` tracer (stdlib only) that records
each line of `src/adaptkit` that runs, in the main thread and in threads the tests
start; code run in a child process is not seen. The plugin arms the tracer again
before every test (`pytest_runtest_call`), because a test may set its own tracer and
clear it (Hypothesis does), and a tracer set once then sees nothing after that test.

Each statement of `src/adaptkit/*.py` (from `ast`, docstrings left out) whose first
line did not run is printed as `path:line: source`, sorted, then one count line. The
exit code is pytest's. Nothing is written into the checkout.
"""
from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIER1 = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                "_runs", "*.pyc")

PLUGIN = '''
import json, os, sys, threading
from pathlib import Path

import pytest

PACKAGE = str(Path(os.environ["LINEMAP_PACKAGE"]).resolve()) + os.sep
seen = set()


def _lines(frame, event, arg):
    if event == "line":
        seen.add((frame.f_code.co_filename, frame.f_lineno))
    return _lines


def _calls(frame, event, arg):
    if frame.f_code.co_filename.startswith(PACKAGE):
        seen.add((frame.f_code.co_filename, frame.f_lineno))
        return _lines
    return None


def _arm():
    sys.settrace(_calls)
    threading.settrace(_calls)


_arm()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    _arm()
    yield


def pytest_sessionfinish(session):
    sys.settrace(None)
    Path(os.environ["LINEMAP_OUT"]).write_text(json.dumps(sorted(seen)))
'''


def statements(path: Path) -> dict[int, str]:
    """First line -> source line of each statement in `path`, docstrings left out."""
    text = path.read_text()
    source = text.splitlines()
    lines = {}
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue  # a docstring runs no code
        lines[node.lineno] = source[node.lineno - 1].strip()
    return lines


def main(argv: list[str]) -> int:
    with tempfile.TemporaryDirectory(prefix="linemap-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        (Path(tmp) / "linemap_plugin.py").write_text(PLUGIN)
        out = Path(tmp) / "seen.json"
        env = {**os.environ, "LINEMAP_PACKAGE": str(copy / "src" / "adaptkit"),
               "LINEMAP_OUT": str(out), "PYTHONDONTWRITEBYTECODE": "1",
               "PYTHONPATH": os.pathsep.join([str(copy / "src"), tmp])}
        code = subprocess.run([sys.executable, "-m", "pytest", "-p", "linemap_plugin",
                               *(argv or TIER1)], cwd=copy, env=env).returncode
        if not out.exists():
            print("pytest wrote no line map", file=sys.stderr)
            return code or 1
        seen = {(Path(f).resolve(), line) for f, line in json.loads(out.read_text())}
        missed = []
        for path in sorted((copy / "src" / "adaptkit").glob("*.py")):
            for line, text in sorted(statements(path).items()):
                if (path.resolve(), line) not in seen:
                    missed.append(f"src/adaptkit/{path.name}:{line}: {text}")
    print("\n".join(missed))
    print(f"{len(missed)} statements of src/adaptkit that no test runs")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
