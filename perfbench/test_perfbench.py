"""Self-checks of the benchmark: tracer coverage, trace transparency and the
bypass predictions of each workload.

    python3 -m pytest perfbench/test_perfbench.py

The workload checks run each workload's real experiment once untraced and
once traced (about a minute on two cores).
"""
from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import micro  # noqa: E402
import run  # noqa: E402
from tracer import TARGETS, Tracer, layer_metrics, span_totals  # noqa: E402
from workloads import WORKLOADS, thread_env  # noqa: E402

SEED = 1


def _originals():
    out = []
    for modname, attr, _, _ in TARGETS:
        mod = importlib.import_module(f"adaptkit.{modname}")
        owner, _, fn = attr.rpartition(".")
        out.append(getattr(getattr(mod, owner), fn) if owner else getattr(mod, fn))
    return out


def test_tracer_wraps_every_binding_and_restores_them():
    import adaptkit
    # the package re-exports functions named like their modules (adapt, distill)
    data, distill, harness, selfsup, source = (
        importlib.import_module(f"adaptkit.{m}")
        for m in ("data", "distill", "harness", "selfsup", "source"))
    originals = _originals()
    tracer = Tracer().install()
    try:
        for mod in (adaptkit, data, distill, harness, selfsup, source):
            leftovers = [k for k, v in vars(mod).items()
                         if any(v is o for o in originals)]
            assert leftovers == [], f"{mod.__name__} still binds {leftovers}"
        assert selfsup.augment is distill.augment is data.augment is adaptkit.augment
        assert harness.train_source is source.train_source
        assert distill.make_student is selfsup.make_student
    finally:
        tracer.uninstall()
    assert _originals() == originals
    assert data.augment is originals[[t[1] for t in TARGETS].index("augment")]


def test_self_time_subtracts_direct_children():
    spans = [("a", 0.0, 10.0, -1, None), ("b", 2.0, 5.0, 0, None),
             ("c", 3.0, 4.0, 1, None), ("b", 6.0, 7.0, 0, None)]
    tot = span_totals([spans])
    assert tot["a"] == {"calls": 1, "incl": 10.0, "self": 6.0}
    assert tot["b"]["calls"] == 2 and tot["b"]["self"] == pytest.approx(3.0)
    assert tot["c"]["self"] == pytest.approx(1.0)


def test_thread_budget_is_enforced():
    w = WORKLOADS["multiseed-par"]
    assert thread_env(w, 2) == {"OTA_THREADS": "2", "OPENBLAS_NUM_THREADS": "1",
                                "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    with pytest.raises(ValueError):
        thread_env(w, 2, seed_workers=3)
    with pytest.raises(ValueError):
        thread_env(WORKLOADS["full-1seed"], 2, seed_workers=2)


def test_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    layers = layer_metrics([], {}, 1.0, 0.0)
    layers.update({"harness.serial_seed_sum_s": (0, "s"), "trace.overhead_s": (0, "s"),
                   "metrics.few_acc": (0, "fraction")})
    import numpy as np
    for name, _, _, flop, _ in micro.kernels(np.random.default_rng(0), tmp_path):
        layers[f"micro.{name}.us"] = (0, "us")
        if flop is not None:
            layers[f"micro.{name}.computed_flop"] = (0, "flop")
        layers[f"micro.{name}.computed_bytes"] = (0, "B")
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: unit for k, (_, unit) in layers.items()}


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def workload_runs(request):
    bench = run.Bench(WORKLOADS[request.param], SEED, 0.0, time.monotonic())
    plain = bench.spawn("run")
    traced = bench.spawn("trace")
    return bench, plain, traced


def test_traced_run_matches_untraced_and_covers_spans(workload_runs):
    bench, plain, traced = workload_runs
    bench.check_digests()
    bench.check_spans({k: v["calls"] for k, v in traced["spans"].items()})
    assert bench.problems == []
    assert [s["digest"] for s in plain["seeds"]] == [s["digest"] for s in traced["seeds"]]


def test_bypass_predictions(workload_runs):
    bench, _, traced = workload_runs
    calls = {k: v["calls"] for k, v in traced["spans"].items()}
    pretrain = sum(v for k, v in calls.items() if k.startswith("selfsup."))
    if "stage2" in bench.w.stages:
        share = traced["spans"]["selfsup.pretrain"]["incl"] / traced["run_s"]
        assert share > 0.5, f"selfsup.pretrain is {share:.0%} of the run"
    else:
        assert pretrain == 0
    if "stage3" not in bench.w.stages:
        assert calls.get("distill.run_phase", 0) == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "longtail-cal",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
