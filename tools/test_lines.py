"""tools/lines.py on one test: `python -m pytest tools/test_lines.py` (tier-1 collects
only `tests/`). The tool runs in a subprocess, so its tracer stays out of this process."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _checkout_files():
    return {p: p.stat().st_mtime_ns for p in ROOT.rglob("*")
            if ".git" not in p.relative_to(ROOT).parts}


def test_map_of_one_test_lists_what_it_does_not_run_and_writes_nothing(tmp_path):
    before = _checkout_files()
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "lines.py"), "-q",
                           "-p", "no:cacheprovider", "tests/test_optim.py::test_constant_schedule"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert _checkout_files() == before
    missed = [line for line in done.stdout.splitlines() if line.startswith("src/adaptkit/")]
    # the test runs fit's loop but none of check_fit_args' raises, and never imports the CLI
    assert not any("optim.py" in m and "opt.step(" in m for m in missed)
    assert any(m.startswith("src/adaptkit/optim.py:") and "batch_size must be at least 2" in m
               for m in missed)
    assert any(m.startswith("src/adaptkit/cli.py:") and "def main(" in m for m in missed)
    assert done.stdout.splitlines()[-1] == (f"{len(missed)} statements of src/adaptkit "
                                            "that no test runs")
