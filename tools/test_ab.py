"""tools/ab.py at tiny shapes: `python -m pytest tools/test_ab.py` (tier-1 collects
only `tests/`). Each case runs the tool in a subprocess, so its imports, its BLAS
setting and its heap setting stay out of this process."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TINY = {"benchmark": {"n_per_class": 40, "num_classes": 4, "input_dim": 8},
        "teacher_hidden": [16, 16], "student_hidden": [8], "seeds": [3], "calibrate": True,
        "source_cfg": {"epochs": 2, "batch_size": 32},
        "adapt_cfg": {"epochs": 2, "batch_size": 32},
        "contrastive_cfg": {"epochs": 1, "batch_size": 32},
        "distill_cfg": {"schedule": {"epochs_per_phase": 1}, "batch_size": 32},
        "calibrate_cfg": {"rounds": 2, "batch_size": 32}}


def _checkout_files():
    return {p: p.stat().st_mtime_ns for p in ROOT.rglob("*")
            if ".git" not in p.relative_to(ROOT).parts}


def _ab(tmp_path, *args):
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(TINY))
    return subprocess.run([sys.executable, str(ROOT / "tools" / "ab.py"), "--config",
                           str(config), *args], capture_output=True, text=True, cwd=tmp_path,
                          timeout=60)


@pytest.mark.parametrize("stage", ["stage1", "calibrate"])
def test_a_a_run_reads_equal_outputs_and_writes_nothing_into_the_checkout(tmp_path, stage):
    # calibrate is the last stage: its inputs come from every stage before it
    before = _checkout_files()
    done = _ab(tmp_path, "--parent", "HEAD", "--change", "HEAD", "--stage", stage,
               "--pairs", "5")
    assert done.returncode == 0, done.stderr
    assert _checkout_files() == before
    out = json.loads(done.stdout)
    assert (out["stage"], out["pairs"], out["seed"]) == (stage, 5, 3)
    assert out["inputs_equal"] and out["outputs_equal"]
    for kind in ("wall", "thread"):
        assert len(out["ratios"][kind]) == 5 and min(out["ratios"][kind]) > 0
        lo, hi = out[f"{kind}_ratio"]["ci95"]
        assert lo <= out[f"{kind}_ratio"]["median"] <= hi


def test_change_side_defaults_to_the_checkout_tree(tmp_path):
    done = _ab(tmp_path, "--parent", "HEAD", "--stage", "stage0", "--pairs", "2")
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert out["change"] == "checkout" and len(out["ratios"]["thread"]) == 2


def test_unknown_stage_is_refused(tmp_path):
    done = _ab(tmp_path, "--parent", "HEAD", "--stage", "stage9", "--pairs", "2")
    assert done.returncode != 0 and "unknown stage 'stage9'" in done.stderr
