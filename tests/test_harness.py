import argparse
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import asdict, fields, is_dataclass, replace
from functools import reduce
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptkit import checkpoint, cli, harness, store, tensor
from adaptkit.adapt import UPDATE_SETS, AdaptConfig
from adaptkit.data import (SHIFT_KINDS, Dataset, GeneratorSpec, ShiftSpec, generate,
                           load_dataset, save_dataset, subsample_longtail)
from adaptkit.distill import DistillConfig, PhaseSchedule
from adaptkit.errors import AdaptkitError, ConfigError, StorageError
from adaptkit.harness import (_STREAMS, SCHEMA_VERSION, STAGES, ExperimentConfig, _percentile,
                              compare, load_config, make_datasets, run_experiment, run_seed,
                              stream, stream_seed, summarize)
from adaptkit.layers import ArchSpec, build_network
from adaptkit.metrics import evaluate
from adaptkit.selfsup import ContrastiveConfig
from adaptkit.source import SourceConfig


# the config sections: ExperimentConfig's fields that are config dataclasses
SECTIONS = {k: v for k, v in get_type_hints(ExperimentConfig).items() if is_dataclass(v)}


def tiny_config(**kw):
    defaults = dict(
        benchmark=GeneratorSpec(n_per_class=70, num_classes=4, input_dim=8),
        shift=ShiftSpec("rotation", 45.0),
        teacher_hidden=(12,),
        student_hidden=(8,),
        source_cfg=SourceConfig(epochs=3, batch_size=32),
        adapt_cfg=AdaptConfig(epochs=1, batch_size=32),
        contrastive_cfg=ContrastiveConfig(epochs=2, batch_size=64),
        distill_cfg=DistillConfig(
            schedule=PhaseSchedule(num_phases=2, epochs_per_phase=1), batch_size=32),
        seeds=(0, 1),
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


# ---------------------------------------------------------------------------
# seed streams


def test_stage_table_matches_streams_sections_and_cli():
    assert [st.name for st in STAGES] == ["stage0", "stage1", "stage2", "stage3", "calibrate"]
    assert set(_STREAMS) - {st.name for st in STAGES} \
        == {"source_data", "target_data", "imbalance", "probe"}
    assert {st.section for st in STAGES} == set(SECTIONS) - {"benchmark", "shift"}
    hints = get_type_hints(ExperimentConfig)
    for st in STAGES:
        assert st.flag is None or hints[st.flag] is bool
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert {sp.get_default("stage").name: command for command, sp in commands.items()
            if sp.get_default("stage")} == {
        "stage0": "train-source", "stage1": "adapt", "stage2": "pretrain", "stage3": "distill",
        "calibrate": "calibrate"}


def test_stream_seed_stable_and_stage_scoped():
    assert stream_seed(0, "stage1") == stream_seed(0, "stage1")
    assert stream_seed(0, "stage1") != stream_seed(0, "stage2")
    assert stream_seed(0, "stage1") != stream_seed(1, "stage1")
    for seed, name in ((0, "stage9"), (-1, "stage1")):
        for draw in (stream, stream_seed):
            with pytest.raises(ConfigError):
                draw(seed, name)


# ---------------------------------------------------------------------------
# config handling


def test_stage2_requires_stage3():
    with pytest.raises(ConfigError):
        ExperimentConfig(stage2=True, stage3=False)


def test_cli_run_with_stage2_and_no_student_hidden_is_config_error(tmp_path, capsys):
    # stage 2 trains the student's hidden layers; without one it used to fail with a raw
    # IndexError after stages 0 and 1 had written their checkpoints
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"student_hidden": []}))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "exp")]) == 1
    assert "student_hidden needs at least one width" in capsys.readouterr().err
    assert not list(tmp_path.glob("exp/seed_*"))


@pytest.mark.parametrize("argv", [["run"], ["nosuchcmd"], [], ["train-source", "--data", "x"],
                                  ["evaluate", "--model", "m", "--data", "d", "--bogus"],
                                  ["gen-data", "--seed", "one", "--source", "s", "--target", "t"]],
                         ids=["no_config", "unknown_command", "no_command", "no_out",
                              "unknown_flag", "bad_int"])
def test_cli_usage_error_is_config_error_exit_1(argv, capsys):
    # exit 2 is a numerical failure; argparse's own usage errors would exit 2
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("config error: adaptkit")


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]], ids=["top", "command"])
def test_cli_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(argv)
    assert e.value.code == 0 and "usage: adaptkit" in capsys.readouterr().out


@pytest.mark.parametrize("config", [{}, {"stage2": False}], ids=["stage2_on", "stage2_off"])
def test_cli_pretrain_without_student_hidden_is_config_error(tmp_path, capsys, config):
    argv = stage_argv(tmp_path, "pretrain", "--target", {
        "student_hidden": [], "contrastive_cfg": {"batch_size": 32}, **config})
    assert cli.main(argv) == 1
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "x.ckpt").exists()


def test_no_hidden_layers_stay_legal_without_stage2(tmp_path):
    result = run_experiment(tiny_config(seeds=(0,), teacher_hidden=(), outdir=str(tmp_path)))
    assert result["errors"] == [] and "stage3" in result["reports"][0]["metrics"]
    result = run_experiment(tiny_config(seeds=(0,), student_hidden=(), stage2=False,
                                        outdir=str(tmp_path)))
    assert result["errors"] == [] and "stage3" in result["reports"][0]["metrics"]


def test_unknown_config_keys_rejected():
    with pytest.raises(ConfigError, match="unknown config keys"):
        ExperimentConfig.from_dict({"stage_one": True})
    with pytest.raises(ConfigError, match="unknown AdaptConfig keys"):
        ExperimentConfig.from_dict({"adapt_cfg": {"learning_rate": 0.1}})


def test_half_specified_data_files_rejected():
    with pytest.raises(ConfigError, match="together"):
        ExperimentConfig(source_data="src.ds")
    with pytest.raises(ConfigError, match="together"):
        ExperimentConfig.from_dict({"target_data": "tgt.ds"})


def test_config_round_trip_via_dict():
    cfg = tiny_config()
    again = ExperimentConfig.from_dict(asdict(cfg))
    assert again == cfg


def test_load_config_json_and_yaml(tmp_path):
    d = {"seeds": [3], "stage2": False, "stage3": False,
         "adapt_cfg": {"epochs": 1, "lr": 0.001}}
    j = tmp_path / "cfg.json"
    j.write_text(json.dumps(d))
    cfg = load_config(j)
    assert cfg.seeds == (3,) and cfg.adapt_cfg.lr == 0.001
    y = tmp_path / "cfg.yaml"
    y.write_text("seeds: [3]\nstage2: false\nstage3: false\n"
                 "adapt_cfg:\n  epochs: 1\n  lr: 0.001\n")
    assert load_config(y) == cfg


def test_stage_labels():
    assert tiny_config(stage1=False, stage2=False, stage3=False).stage_label() \
        == "source-only"
    assert tiny_config().stage_label() == "stage1+2+3"
    assert tiny_config(stage2=False).stage_label() == "stage1+3"


# ---------------------------------------------------------------------------
# execution


def test_run_seed_byte_identical(tmp_path):
    cfg = tiny_config()
    run_seed(cfg, 0, tmp_path / "a")
    run_seed(cfg, 0, tmp_path / "b")
    assert (tmp_path / "a" / "report.json").read_bytes() \
        == (tmp_path / "b" / "report.json").read_bytes()
    assert (tmp_path / "a" / "per_class.csv").read_bytes() \
        == (tmp_path / "b" / "per_class.csv").read_bytes()
    assert (tmp_path / "a" / "trace.csv").read_bytes() \
        == (tmp_path / "b" / "trace.csv").read_bytes()


def test_stage_streams_isolated(tmp_path):
    # toggling later stages must not change earlier-stage results
    full = run_seed(tiny_config(), 0, tmp_path / "full")
    st1 = run_seed(tiny_config(stage2=False, stage3=False), 0, tmp_path / "st1")
    assert full["metrics"]["stage1"] == st1["metrics"]["stage1"]
    assert full["metrics"]["source_only"] == st1["metrics"]["source_only"]


def test_run_experiment_outputs(tmp_path):
    cfg = tiny_config(outdir=str(tmp_path / "exp"))
    result = run_experiment(cfg)
    assert len(result["reports"]) == 2
    summary = json.loads((tmp_path / "exp" / "summary.json").read_text())
    assert summary["num_seeds"] == 2 and summary["num_failed"] == 0
    assert "stage3" in summary["stages"]
    # wall-clock timings live outside the deterministic report
    timings = json.loads((tmp_path / "exp" / "timings.json").read_text())
    assert set(timings["seconds_per_seed"]) == {"0", "1"}
    per_seed = json.loads((tmp_path / "exp" / "seed_0" / "report.json").read_text())
    assert "seconds" not in json.dumps(per_seed)


def test_rerun_that_cannot_write_keeps_the_old_files(tmp_path, monkeypatch):
    # every file of a run is renamed into place whole: when the renames fail, a rerun
    # whose files would differ leaves the first run's bytes and no temporary file
    cfg = tiny_config(seeds=(0,), stage2=False, stage3=False, outdir=str(tmp_path))
    run_experiment(cfg)
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}

    def no_replace(src, dst):
        raise OSError("rename refused")
    monkeypatch.setattr(store.os, "replace", no_replace)
    with pytest.raises(StorageError, match="report.json"):
        run_experiment(replace(cfg, stage1=False))
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


# A learning rate that drives a stage's training non-finite, and the epoch it aborts
# in. The floored calibration scales stayed finite through epoch 0 at every finite lr
# tried; at 1.7e308 the scales they are restored to overflow the calibrated logits.
ABORT_TRIGGERS = {"stage0": ("source_cfg", 1e305, 0), "stage1": ("adapt_cfg", 1e305, 0),
                  "stage2": ("contrastive_cfg", 1e305, 0), "stage3": ("distill_cfg", 1e305, 0),
                  "calibrate": ("calibrate_cfg", float("inf"), 0),
                  "calibrate_overflow": ("calibrate_cfg", 1.7e308, 1)}


def stage_of(section: str) -> str:
    return next(st.name for st in STAGES if st.section == section)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", sorted(ABORT_TRIGGERS))
def test_stage_abort_restores_and_records(tmp_path, case):
    section, lr, epoch = ABORT_TRIGGERS[case]
    stage = stage_of(section)
    base = tiny_config(calibrate=True)
    cfg = replace(base, **{section: replace(getattr(base, section), lr=lr)})
    report = run_seed(cfg, 0, tmp_path)
    assert list(report["aborts"]) == [stage]
    assert report["aborts"][stage]["epoch"] == epoch
    assert "non-finite" in report["aborts"][stage]["reason"]
    assert report["adapt"]["aborted"] == (stage == "stage1")
    # the later stages still ran, on finite models
    assert set(report["metrics"]) == {"source_only", "stage1", "stage3", "calibrated"}
    written = sorted(p.name for p in tmp_path.glob("*.ckpt"))
    assert written == ["backbone.ckpt", "calibrated.ckpt", "source.ckpt", "stage1.ckpt",
                       "stage3.ckpt"]
    _, tgt = make_datasets(cfg, 0)
    for name in written:
        _, arrays = store.read(tmp_path / name, b"OTAC")
        assert all(np.all(np.isfinite(a)) for a in arrays.values()), name
        if name != "backbone.ckpt":
            evaluate(checkpoint.load_checkpoint(tmp_path / name), tgt)


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_empty_buckets_are_json_null(tmp_path):
    # at imbalance ratio 10 every class has more rows than the "many" cutoff
    run_experiment(tiny_config(seeds=(0,), imbalance_ratio=10.0, stage2=False, stage3=False,
                               outdir=str(tmp_path)))
    report = json.loads((tmp_path / "seed_0" / "report.json").read_text(),
                        parse_constant=_no_constant)
    buckets = report["metrics"]["source_only"]["buckets"]
    assert buckets["medium"] is None and buckets["few"] is None
    assert 0 <= buckets["many"] <= 1
    json.loads((tmp_path / "summary.json").read_text(), parse_constant=_no_constant)


def test_longtail_target_is_the_balanced_benchmarks_target():
    # the target draw reads only the generator spec: subsampling the source moves
    # none of its bits, and the target takes the long-tailed source's bucket cutoffs
    cfg = ExperimentConfig(imbalance_ratio=100.0)
    src, tgt = make_datasets(cfg, 3)
    _, balanced = make_datasets(replace(cfg, imbalance_ratio=None), 3)
    assert tgt.features.tobytes() == balanced.features.tobytes()
    assert np.array_equal(tgt.labels, balanced.labels)
    assert src.bucket_thresholds is not None
    assert tgt.bucket_thresholds == src.bucket_thresholds


def _make_datasets_peak(cfg) -> float:
    """make_datasets' tracemalloc peak at seed 1000, in target feature arrays."""
    make_datasets(cfg, 1000)
    tracemalloc.start()
    try:
        _, tgt = make_datasets(cfg, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / tgt.features.nbytes


def test_longtail_make_datasets_memory_is_about_two_target_arrays():
    # each draw embeds its latent buffer in place: the balanced source while it is
    # subsampled, then the target beside the much smaller long-tailed source
    assert _make_datasets_peak(ExperimentConfig(imbalance_ratio=100.0)) <= 1.6


def test_balanced_make_datasets_memory_is_its_two_datasets_and_a_block():
    assert _make_datasets_peak(ExperimentConfig()) <= 2.4


def test_a_seed_that_raises_any_other_exception_gets_an_error_report(tmp_path, monkeypatch,
                                                                      capsys):
    # stage 1 raises a RuntimeError for seed 0 only: seed 0 gets an error report, seed 1
    # still runs, summary.json is written, and `run` exits 4
    def stage1(c, seed, s):
        if seed == 0:
            raise RuntimeError("boom")
        return harness._stage1(c, seed, s)
    monkeypatch.setattr(harness, "STAGES", tuple(replace(st, step=stage1) if st.name == "stage1"
                                                 else st for st in STAGES))
    cfg = tiny_config(stage2=False, stage3=False, outdir=str(tmp_path / "exp"))
    result = run_experiment(cfg)
    assert [type(e) for e in result["errors"]] == [RuntimeError]
    seed0, seed1 = (json.loads((tmp_path / "exp" / f"seed_{seed}" / "report.json").read_text())
                    for seed in (0, 1))
    assert seed0["error"] == "RuntimeError: boom" and "metrics" not in seed0
    assert set(seed1["metrics"]) == {"source_only", "stage1"}
    summary = json.loads((tmp_path / "exp" / "summary.json").read_text())
    assert (summary["num_seeds"], summary["num_failed"]) == (2, 1)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(asdict(cfg)))
    capsys.readouterr()
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "cli")]) == 4
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: boom" in err


# ---------------------------------------------------------------------------
# one BLAS thread for every run and every CLI command

OPENBLAS = tensor._openblas()
needs_openblas = pytest.mark.skipif(OPENBLAS is None,
                                    reason="numpy's BLAS is not its bundled OpenBLAS")


def blas_threads() -> int:
    return OPENBLAS.scipy_openblas_get_num_threads64_()


@pytest.fixture
def two_blas_threads():
    before = blas_threads()
    OPENBLAS.scipy_openblas_set_num_threads64_(2)
    yield
    OPENBLAS.scipy_openblas_set_num_threads64_(before)


@needs_openblas
@pytest.mark.parametrize("raises", [False, True], ids=["ok", "seed_raises"])
def test_run_experiment_runs_its_stages_on_one_blas_thread(tmp_path, monkeypatch,
                                                           two_blas_threads, raises):
    # every stage step sees one thread, and the caller's two are back on return, also
    # when a seed raises a RuntimeError (seed 0's stage 1, as above)
    seen = []

    def recording(st):
        def step(c, seed, s):
            seen.append((st.name, blas_threads()))
            if raises and seed == 0 and st.name == "stage1":
                raise RuntimeError("boom")
            return st.step(c, seed, s)
        return replace(st, step=step)
    monkeypatch.setattr(harness, "STAGES", tuple(map(recording, STAGES)))
    cfg = tiny_config(calibrate=True, outdir=str(tmp_path / "exp"))
    result = run_experiment(cfg)
    assert [type(e) for e in result["errors"]] == ([RuntimeError] if raises else [])
    assert {name for name, _ in seen} == {st.name for st in STAGES}
    assert {n for _, n in seen} == {1}
    assert blas_threads() == 2
    blas = json.loads((tmp_path / "exp" / "timings.json").read_text())["blas"]
    assert blas["threads"] == 1 and blas["core"]


def test_without_openblas_the_pin_changes_nothing(tmp_path, monkeypatch):
    monkeypatch.setattr(tensor, "_openblas", lambda: None)
    run_experiment(tiny_config(stage2=False, stage3=False, seeds=(0,),
                               outdir=str(tmp_path / "exp")))
    assert json.loads((tmp_path / "exp" / "timings.json").read_text())["blas"] is None


@needs_openblas
def test_cli_gives_back_the_blas_thread_count_after_a_config_error(monkeypatch, capsys,
                                                                   two_blas_threads):
    seen = []

    def compare(paths):
        seen.append(blas_threads())
        raise ConfigError("bad report")
    monkeypatch.setattr(harness, "compare", compare)
    assert cli.main(["compare", "r.json"]) == 1
    assert "config error: bad report" in capsys.readouterr().err
    assert seen == [1] and blas_threads() == 2


# A tiny benchmark with every stage on: each drawn config runs in well under a second
HYPOTHESIS_BASE = {
    "benchmark": {"n_per_class": 10, "num_classes": 3, "input_dim": 4},
    "teacher_hidden": [6], "student_hidden": [4], "calibrate": True, "seeds": [0],
    "source_cfg": {"epochs": 2, "batch_size": 8}, "adapt_cfg": {"epochs": 1, "batch_size": 8},
    "contrastive_cfg": {"epochs": 1, "batch_size": 8, "embedding_dim": 4},
    "distill_cfg": {"schedule": {"num_phases": 2, "epochs_per_phase": 1}, "batch_size": 8},
    "calibrate_cfg": {"rounds": 1, "epochs": 1, "batch_size": 8}}
EDGE_VALUES = st.sampled_from([float("nan"), float("inf"), -float("inf"), 0, -1])
# ExperimentConfig's own fields left at the base: the paths, and the seeds (one is enough)
FIXED_FIELDS = {"outdir", "source_data", "target_data", "source_checkpoint", "seeds"}


def values_of(hint):
    """Values of a config field's annotated type, counts capped small, and the edge values."""
    if get_origin(hint) is UnionType:
        return st.one_of(*map(values_of, get_args(hint)))
    if get_origin(hint) is tuple:
        args = get_args(hint)
        if args[-1:] == (...,):
            return st.lists(values_of(args[0]), max_size=3)
        return st.tuples(*map(values_of, args)).map(list)
    return {int: st.integers(-1, 6), float: st.floats() | st.floats(0, 2), bool: st.booleans(),
            str: st.sampled_from([*SHIFT_KINDS, *UPDATE_SETS, ""]),
            type(None): st.none()}[hint] | EDGE_VALUES


def leaf_fields(cls, prefix=()):
    """(key path, annotation) of each field of a config, those of its sections included."""
    for key, hint in get_type_hints(cls).items():
        if is_dataclass(hint):
            yield from leaf_fields(hint, prefix + (key,))
        elif key not in FIXED_FIELDS:
            yield prefix + (key,), hint


EDITS = st.lists(st.sampled_from(list(leaf_fields(ExperimentConfig))).flatmap(
    lambda f: values_of(f[1]).map(lambda v: (f[0], v))), min_size=1, max_size=3)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None, derandomize=True)
@given(EDITS)
def test_no_config_value_escapes_as_a_raw_exception(edits):
    # one to three fields of the tiny config set to drawn values: either the config is
    # rejected as a ConfigError, or every seed ends in a report or an AdaptkitError
    d = json.loads(json.dumps(HYPOTHESIS_BASE))
    for path, v in edits:
        reduce(lambda node, key: node.setdefault(key, {}), path[:-1], d)[path[-1]] = v
    try:
        cfg = ExperimentConfig.from_dict(d)
    except ConfigError:
        return
    with tempfile.TemporaryDirectory() as out:
        result = run_experiment(replace(cfg, outdir=out))
    assert all(isinstance(e, AdaptkitError) for e in result["errors"]), result["errors"]
    assert [("metrics" in r, "error" in r).count(True) for r in result["reports"]] == [1]


# ---------------------------------------------------------------------------
# summaries and comparison


def test_summarize_median_and_iqr():
    def rep(seed, acc):
        return {"seed": seed, "metrics": {"stage1": {
            "overall_acc": acc, "class_mean_acc": acc}}}
    out = summarize([rep(0, 0.2), rep(1, 0.4), rep(2, 0.6),
                     {"seed": 3, "error": "boom"}])
    assert out["stages"]["stage1"]["overall_acc"]["median"] == pytest.approx(0.4)
    assert out["stages"]["stage1"]["overall_acc"]["iqr"] == pytest.approx(0.2)
    assert out["num_seeds"] == 4 and out["num_failed"] == 1


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=12),
       st.sampled_from([0.25, 0.5, 0.75]))
def test_percentile_equals_numpys(values, q):
    assert _percentile(values, q) == float(np.percentile(values, 100 * q))


_RUN_WITHOUT_NUMPY_MA = """
import sys, tempfile
from test_harness import tiny_config
from adaptkit.harness import run_experiment
assert "numpy.ma" not in sys.modules
with tempfile.TemporaryDirectory() as out:
    run_experiment(tiny_config(seeds=(0,), calibrate=True, outdir=out))
assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
"""


def test_a_run_never_imports_numpy_ma():
    # numpy.ma costs ~1.3 MB of pages: summarize takes its quartiles without it
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "tests")])}
    proc = subprocess.run([sys.executable, "-c", _RUN_WITHOUT_NUMPY_MA], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_compare_renders_missing_cells(tmp_path):
    a = {"schema_version": SCHEMA_VERSION, "seed": 0, "label": "stage1",
         "metrics": {"stage1": {"overall_acc": 0.5, "class_mean_acc": 0.4}}}
    b = {"schema_version": SCHEMA_VERSION, "seed": 0, "label": "stage1+3",
         "metrics": {"stage3": {"overall_acc": 0.7, "class_mean_acc": 0.6}},
         "distill": {"trace": [{"phase": 1, "accuracy": 0.65},
                               {"phase": 2, "accuracy": 0.7}]}}
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    text, table = compare([str(pa), str(pb)])
    assert "-" in text  # stage1 run has no phase columns
    assert table[0][:3] == ["config", "acc", "avg"]
    assert any("50.0" in " ".join(row) for row in table)


@pytest.mark.parametrize("d, key", [
    ({"stages": {"x": {}}}, "no stages.x.overall_acc.median"),
    ({"metrics": {"stage3": {"overall_acc": "a"}}, "distill": {"trace": [{"accuracy": "z"}]}},
     "distill.trace.0.accuracy is a str"),
    ({"metrics": [1]}, "metrics is a list"),
], ids=["summary_without_medians", "text_accuracies", "metrics_list"])
def test_cli_compare_malformed_input_is_a_config_error(tmp_path, capsys, d, key):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema_version": SCHEMA_VERSION, **d}))
    assert cli.main(["compare", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith(f"config error: {path}: {key}")


def test_compare_rejects_schema_mismatch(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"schema_version": 99, "metrics": {}}))
    with pytest.raises(ConfigError, match="schema"):
        compare([str(p)])
    with pytest.raises(ConfigError):
        compare([])


# ---------------------------------------------------------------------------
# CLI exit codes


@pytest.mark.parametrize("d, section", [({"adapt_cfg": None}, "AdaptConfig"),
                                        ({"distill_cfg": {"schedule": None}}, "PhaseSchedule")])
def test_null_section_is_a_config_error_not_the_defaults(d, section):
    with pytest.raises(ConfigError, match=f"{section} must be a mapping, got NoneType"):
        ExperimentConfig.from_dict(d)


@pytest.mark.parametrize("edit", [{"input_dim": 9}, {"num_classes": 2},
                                  {"input_dim": 9, "num_classes": 2}],
                         ids=["wider_input", "fewer_classes", "both"])
def test_dataset_header_must_agree_with_itself(tmp_path, capsys, edit):
    # a 15-row, 3-class, 4-wide dataset rewritten through store.write: the container
    # is valid, but its generator's input_dim is not the features' width, or its
    # num_classes leaves labels out of range
    path = tmp_path / "x.ds"
    save_dataset(generate(GeneratorSpec(n_per_class=5, num_classes=3, input_dim=4), 0), path)
    header, arrays = store.read(path, b"OTAD")
    store.write(path, b"OTAD", {**header, "generator": {**header["generator"], **edit}},
                arrays)
    with pytest.raises(StorageError):
        load_dataset(path)
    assert cli.main(["train-source", "--data", str(path), "--out",
                     str(tmp_path / "m.ckpt")]) == 3
    assert "x.ds" in capsys.readouterr().err
    assert not (tmp_path / "m.ckpt").exists()


def test_cli_gen_data_and_evaluate_flow(tmp_path):
    cfg, src, tgt = tmp_path / "cfg.json", str(tmp_path / "src.ds"), str(tmp_path / "tgt.ds")
    cfg.write_text(json.dumps({"benchmark": {"n_per_class": 40, "num_classes": 4,
                                             "input_dim": 8},
                               "stage2": False, "teacher_hidden": [10]}))
    ckpt = str(tmp_path / "net.ckpt")
    assert cli.main(["gen-data", "--config", str(cfg), "--source", src, "--target", tgt]) == 0
    assert cli.main(["train-source", "--data", src, "--out", ckpt, "--config", str(cfg)]) == 0
    assert cli.main(["evaluate", "--model", ckpt, "--data", tgt, "--train-data", src]) == 0


def test_cli_evaluate_class_count_mismatch_is_config_error(tmp_path, capsys):
    # a 7-class checkpoint on a 3-class, 15-row dataset
    data, model = tmp_path / "d.ds", tmp_path / "m.ckpt"
    save_dataset(generate(GeneratorSpec(n_per_class=5, num_classes=3, input_dim=4), 0), data)
    checkpoint.save_checkpoint(build_network(ArchSpec(4, (6,), 7), np.random.default_rng(0)),
                               model)
    assert cli.main(["evaluate", "--model", str(model), "--data", str(data)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "config error:" in err and "7 classes" in err


@pytest.mark.parametrize("source_classes", [6, 2])
def test_cli_evaluate_train_data_class_count_mismatch_is_config_error(tmp_path, capsys,
                                                                       source_classes):
    # a 4-class long-tailed target (bucket thresholds set) with a source of more or
    # fewer classes: more crashed in the bucket split, fewer left classes out silently
    data, model, train = tmp_path / "t.ds", tmp_path / "m.ckpt", tmp_path / "s.ds"
    spec = GeneratorSpec(n_per_class=40, num_classes=4, input_dim=8)
    target = subsample_longtail(generate(spec, 0), 10.0, 1)
    assert target.bucket_thresholds is not None
    save_dataset(target, data)
    save_dataset(generate(replace(spec, num_classes=source_classes), 2), train)
    checkpoint.save_checkpoint(build_network(ArchSpec(8, (6,), 4), np.random.default_rng(0)),
                               model)
    assert cli.main(["evaluate", "--model", str(model), "--data", str(data),
                     "--train-data", str(train)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "config error:" in err and f"{source_classes} classes" in err
    assert "Traceback" not in err


def test_cli_missing_file_is_io_error(tmp_path):
    assert cli.main(["evaluate", "--model", str(tmp_path / "nope.ckpt"),
                     "--data", str(tmp_path / "nope.ds")]) == 3
    assert cli.main(["run", "--config", str(tmp_path / "nope.json")]) == 3
    assert cli.main(["compare", str(tmp_path / "nope.json")]) == 3


def test_cli_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"stage_one": True}))
    assert cli.main(["run", "--config", str(bad)]) == 1
    bad.write_text('{"schema_version": 1,')
    assert cli.main(["compare", str(bad)]) == 1
    # not UTF-8, and nested deeper than the parser recurses
    for raw in [b'\xff\xfe{"schema_version": 1}', b"[" * 200_000 + b"]" * 200_000]:
        bad.write_bytes(raw)
        assert cli.main(["compare", str(bad)]) == 1
        assert cli.main(["gen-data", "--config", str(bad), "--source", str(tmp_path / "s.ds"),
                         "--target", str(tmp_path / "t.ds")]) == 1


def test_cli_run_failed_seed_exit_code(tmp_path):
    # every seed fails to load its stage-0 checkpoint: a storage error
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "benchmark": {"n_per_class": 10, "num_classes": 3, "input_dim": 4},
        "stage1": False, "stage2": False, "stage3": False, "seeds": [0, 1],
        "source_checkpoint": str(tmp_path / "nope.ckpt")}))
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "exp")]) == 3
    summary = json.loads((tmp_path / "exp" / "summary.json").read_text())
    assert summary["num_failed"] == 2


TINY_RUN = {"benchmark": {"n_per_class": 10, "num_classes": 3, "input_dim": 4},
            "stage1": False, "stage2": False, "stage3": False, "seeds": [0]}


@pytest.mark.parametrize("name,text", [
    ("bad.json", '{"seeds": [0,'),
    ("bad.yaml", "seeds: [0\nstage2: false\n"),
    ("list.json", "[1, 2]"),
    ("section.json", json.dumps({"adapt_cfg": 5})),
    ("bench.json", json.dumps({"benchmark": {"bogus": 1}})),
    ("shift.yaml", "shift:\n  bogus: 1\n"),
    ("epochs.json", json.dumps({"source_cfg": {"epochs": "ten"}})),
    ("lr.json", json.dumps({"adapt_cfg": {"lr": [1]}})),
    ("classes.json", json.dumps({"benchmark": {"num_classes": None}})),
    ("seeds.json", json.dumps({"seeds": "ab"})),
    ("stage1.json", json.dumps({"stage1": "no"})),
    ("c.json", json.dumps({"source_cfg": {"batch_size": 0}})),
    ("c.json", json.dumps({"source_cfg": {"batch_size": 1}})),
    ("c.json", json.dumps({"calibrate_cfg": {"batch_size": 0}})),
    ("c.json", json.dumps({"source_cfg": {"epochs": -3}})),
    ("c.json", json.dumps({"calibrate_cfg": {"rounds": -1}})),
    ("c.json", json.dumps({"distill_cfg": {"policy": {"scale_range": [1.25, 0.8]}}})),
    ("c.json", json.dumps({"teacher_hidden": [0]})),
    ("c.json", json.dumps({"seeds": []})),
    ("c.json", json.dumps({"seeds": [0, 0]})),
    ("c.json", json.dumps({"seeds": [-1]})),
    ("c.json", json.dumps({"contrastive_cfg": {"temperature": -1}})),
    ("c.json", json.dumps({"shift": {"kind": "warp"}})),
    ("c.json", json.dumps({"distill_cfg": {"policy": {"dropout_prob": 2}}})),
    ("c.json", json.dumps({"imbalance_ratio": 0.5})),
    ("c.json", json.dumps({"distill_cfg": {"schedule": {"num_phases": 0}}})),
    ("c.json", json.dumps({"source_cfg": {"lr": -1}})),
    ("c.json", json.dumps({"adapt_cfg": {"lr": -1}})),
    ("c.json", json.dumps({"contrastive_cfg": {"lr": -1}})),
    ("c.json", json.dumps({"distill_cfg": {"lr": -1}})),
    ("c.json", json.dumps({"calibrate_cfg": {"lr": -1}})),
    ("c.json", json.dumps({"adapt_cfg": {"lr": float("nan")}})),
    ("c.json", json.dumps({"adapt_cfg": {"update_set": "classifier"}})),
    ("c.json", json.dumps({"benchmark": {"n_per_class": 10, "num_classes": 4},
                           "contrastive_cfg": {"batch_size": 21}})),
    ("c.json", json.dumps({"benchmark": {"seed": -1}})),
    ("c.json", json.dumps({"benchmark": {"seed": 5}})),
    ("c.json", json.dumps({"shift": {"seed": 9}})),
    ("c.json", json.dumps({"benchmark": {"n_per_class": 60}, "imbalance_ratio": 1000})),
    ("c.json", json.dumps({"source_data": "s.ds", "target_data": "t.ds",
                           "imbalance_ratio": 10})),
    ("c.json", json.dumps({"adapt_cfg": None})),
    ("c.json", json.dumps({"distill_cfg": {"schedule": None}})),
    ("c.yaml", "benchmark:\nstage2: false\n"),
    ("bad.json", b'\xff\xfe{"seeds": [0]}'),
    ("bad.yaml", b"\xff\xfeseeds: [0]\n"),
    ("deep.json", "[" * 200_000 + "]" * 200_000),
    ("deep.yaml", "[" * 200_000 + "]" * 200_000),
    ("c.yaml", "1: 2\nb: 3\n"),
    ("c.yaml", "seeds: [0]\n1.5: 3\nx: 2\n"),
    # values that raised a raw exception in a seed, or ran on, before each config
    # object checked them; on a tiny one-seed run, so that a missed check fails fast
    *(("c.json", json.dumps({**TINY_RUN, **edit})) for edit in [
        {"shift": {"magnitude": float("inf")}},
        {"benchmark": {**TINY_RUN["benchmark"], "cluster_sigma": -1}},
        {"distill_cfg": {"policy": {"scale_range": [float("nan"), 1.0]}}},
        {"source_cfg": {"momentum": float("nan")}},
        {"adapt_cfg": {"momentum": -5}},
        {"source_cfg": {"weight_decay": float("inf")}},
        {"calibrate_cfg": {"policy": {"weak_sigma": -1}}},
        {"contrastive_cfg": {"temperature": float("inf")}},
        {"source_cfg": {"smoothing": 2}},
        {"distill_cfg": {"policy": {"scale_range": [-1e308, 1e308]}}}]),
], ids=["bad_json", "bad_yaml", "non_mapping", "non_mapping_section", "unknown_benchmark_key",
     "unknown_shift_key", "str_epochs", "list_lr", "null_num_classes", "str_seeds",
     "str_stage1", "zero_batch", "one_row_batch", "zero_calibrate_batch", "negative_epochs",
     "negative_rounds", "reversed_scale_range", "zero_width", "no_seeds", "repeated_seeds",
     "negative_seed", "negative_temperature", "unknown_shift_kind", "dropout_above_one",
     "imbalance_below_one", "zero_phases", "negative_source_lr", "negative_adapt_lr",
     "negative_contrastive_lr", "negative_distill_lr", "negative_calibrate_lr", "nan_lr",
     "unknown_update_set", "contrastive_batch_above_half_target", "negative_benchmark_seed",
     "nonzero_benchmark_seed", "nonzero_shift_seed", "imbalance_empties_a_class",
     "imbalance_with_source_data", "null_section", "null_nested_section",
     "yaml_empty_section", "non_utf8_json", "non_utf8_yaml", "json_nested_too_deep",
     "yaml_nested_too_deep", "int_and_str_unknown_keys", "float_and_str_unknown_keys",
     "inf_shift_magnitude", "negative_cluster_sigma", "nan_scale_range",
     "nan_momentum", "negative_momentum", "inf_weight_decay", "negative_weak_sigma",
     "inf_temperature", "smoothing_above_one", "overflowing_scale_range"])
def test_cli_malformed_config_is_config_error(tmp_path, capsys, name, text):
    path = tmp_path / name
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "exp")]) == 1
    assert "config error:" in capsys.readouterr().err
    assert not list(tmp_path.glob("exp/seed_*"))


@pytest.mark.parametrize("key", sorted(SECTIONS))
def test_sections_reject_untrainable_loop_sizes(key):
    names = {f.name for f in fields(SECTIONS[key])}
    for field_name, bad in (("batch_size", 1), ("epochs", -1), ("momentum", float("nan")),
                            ("momentum", -5), ("momentum", 1), ("weight_decay", float("inf")),
                            ("weight_decay", -1)):
        if field_name in names:
            with pytest.raises(ConfigError, match=field_name):
                store.from_dict(SECTIONS[key], {field_name: bad})


def test_cli_distill_takes_schedule_from_config(tmp_path):
    data, teacher = tmp_path / "d.ds", tmp_path / "teacher.ckpt"
    save_dataset(generate(GeneratorSpec(n_per_class=40, num_classes=4, input_dim=8), 0), data)
    checkpoint.save_checkpoint(build_network(ArchSpec(8, (8,), 4), np.random.default_rng(0)),
                               teacher)
    cfg, trace = tmp_path / "cfg.json", tmp_path / "trace.json"
    cfg.write_text(json.dumps({"student_hidden": [8], "distill_cfg": {
        "schedule": {"num_phases": 1, "epochs_per_phase": 1}}}))
    assert cli.main(["distill", "--teacher", str(teacher), "--target", str(data),
                     "--out", str(tmp_path / "student.ckpt"), "--config", str(cfg),
                     "--trace", str(trace)]) == 0
    assert len(json.loads(trace.read_text())) == 1


ONE_PHASE = {"schedule": {"num_phases": 1, "epochs_per_phase": 1}}


@pytest.mark.parametrize("config,code,phases", [
    ({"distill_cfg": ONE_PHASE}, 0, 1), (ONE_PHASE, 1, None),
    ({"seeds": [0], "stage2": False}, 0, 3), ({}, 0, 3), ({"seeds": [0], "lr": 0.1}, 1, None),
], ids=["full", "section", "full_without_section", "empty", "mixed"])
def test_cli_stage_reads_section_or_full_config(tmp_path, capsys, config, code, phases):
    # --config is run's experiment config: a full config without the stage's section gives
    # the section's defaults, as in run, and a section's own keys are unknown config keys
    trace = tmp_path / "trace.json"
    argv = stage_argv(tmp_path, "distill", "--target", config)
    assert cli.main(argv + ["--trace", str(trace)]) == code
    assert (len(json.loads(trace.read_text())) if code == 0 else None) == phases
    assert ("config error: unknown config keys" in capsys.readouterr().err) == (code == 1)


CHAIN_CONFIGS = {"tiny": {}, "longtail": {"imbalance_ratio": 10.0}}


def check_cli_chain_matches_run(tmp_path, case):
    """gen-data and the five stage commands, each reading the files the previous
    ones wrote, give run's seed_1 checkpoints byte for byte; gen-data's files are
    make_datasets' datasets."""
    cfg = tiny_config(seeds=(1,), calibrate=True, outdir=str(tmp_path / "exp"),
                      source_cfg=SourceConfig(epochs=2, batch_size=32), **CHAIN_CONFIGS[case])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(asdict(cfg)))
    assert cli.main(["run", "--config", str(path)]) == 0
    ran, cli_dir = tmp_path / "exp" / "seed_1", tmp_path / "cli"
    cli_dir.mkdir()
    src, tgt = cli_dir / "src.ds", cli_dir / "tgt.ds"
    common = ["--config", str(path), "--seed", "1"]
    assert cli.main(["gen-data", "--source", str(src), "--target", str(tgt), *common]) == 0
    for ds, file in zip(make_datasets(cfg, 1), (src, tgt)):
        save_dataset(ds, tmp_path / "expected.ds")
        assert file.read_bytes() == (tmp_path / "expected.ds").read_bytes(), file.name
    commands = {
        "source.ckpt": ["train-source", "--data", src],
        "stage1.ckpt": ["adapt", "--source", cli_dir / "source.ckpt", "--target", tgt],
        "backbone.ckpt": ["pretrain", "--target", tgt],
        "stage3.ckpt": ["distill", "--teacher", cli_dir / "stage1.ckpt", "--target", tgt,
                        "--student-init", cli_dir / "backbone.ckpt"],
        "calibrated.ckpt": ["calibrate", "--model", cli_dir / "stage3.ckpt", "--target", tgt]}
    for name, argv in commands.items():
        out = cli_dir / name
        assert cli.main([*map(str, argv), "--out", str(out), *common]) == 0
        assert out.read_bytes() == (ran / name).read_bytes(), name


def test_cli_train_source_matches_run(tmp_path):
    check_cli_chain_matches_run(tmp_path, "tiny")


def test_cli_longtail_chain_matches_run(tmp_path):
    check_cli_chain_matches_run(tmp_path, "longtail")


# (command, its config section, its data flag); MODEL_FLAGS names the model flag of
# the commands that take one
STAGE_COMMANDS = [("train-source", "source_cfg", "--data"),
                  ("pretrain", "contrastive_cfg", "--target"),
                  ("adapt", "adapt_cfg", "--target"), ("distill", "distill_cfg", "--target"),
                  ("calibrate", "calibrate_cfg", "--target")]
MODEL_FLAGS = {"adapt": "--source", "distill": "--teacher", "calibrate": "--model"}


def stage_argv(tmp_path, command, data_flag, config=None) -> list[str]:
    """argv for a stage command on a 160-row dataset and, if it takes one, an
    untrained 8-wide network; its --config file asks for 8-wide networks and
    holds the keys of `config`."""
    data, model = tmp_path / "d.ds", tmp_path / "m.ckpt"
    save_dataset(generate(GeneratorSpec(n_per_class=40, num_classes=4, input_dim=8), 0), data)
    argv = [command, data_flag, str(data), "--out", str(tmp_path / "x.ckpt")]
    if command in MODEL_FLAGS:
        checkpoint.save_checkpoint(
            build_network(ArchSpec(8, (8,), 4), np.random.default_rng(0)), model)
        argv += [MODEL_FLAGS[command], str(model)]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"teacher_hidden": [8], "student_hidden": [8], **(config or {})}))
    return argv + ["--config", str(path)]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command,section,data_flag", STAGE_COMMANDS)
def test_cli_prints_abort_record(tmp_path, capsys, command, section, data_flag):
    cfg = {"lr": ABORT_TRIGGERS[stage_of(section)][1], "batch_size": 32}
    cfg.update({"schedule": {"num_phases": 1, "epochs_per_phase": 2}}
               if section == "distill_cfg" else {"epochs": 2})
    assert cli.main(stage_argv(tmp_path, command, data_flag, {section: cfg})) == 0
    err = capsys.readouterr().err
    assert f"{command} aborted: " in err
    record = json.loads(err.split(" aborted: ", 1)[1])
    assert record["epoch"] == 0 and "non-finite" in record["reason"]
    # distill prints run's record: the phase folded into the epoch's record
    assert set(record) == {"epoch", "reason"} | ({"phase"} if command == "distill" else set())


@pytest.mark.parametrize("command,arch,flag", [
    ("adapt", ArchSpec(8, (8,), 3), None), ("calibrate", ArchSpec(8, (8,), 3), None),
    ("distill", ArchSpec(8, (8,), 3), None), ("distill", ArchSpec(8, (8,), 5), None),
    ("distill", ArchSpec(6, (8,), 4), None), ("distill", ArchSpec(8, (8,), 3), "--student-init"),
], ids=["adapt_3_classes", "calibrate_3_classes", "distill_3_classes", "distill_5_classes",
     "distill_6_features", "student_init_3_classes"])
def test_cli_stage_rejects_a_checkpoint_that_does_not_fit_the_data(tmp_path, capsys, command,
                                                                    arch, flag):
    # the data has 4 classes and 8 features; the checkpoint given by MODEL_FLAGS, or with
    # `flag` the student-init backbone, is for `arch`
    argv = stage_argv(tmp_path, command, "--target", {"distill_cfg": ONE_PHASE})
    net, bad = build_network(arch, np.random.default_rng(0)), tmp_path / "bad.ckpt"
    if flag:
        checkpoint.save_backbone(arch, {t.name: t.data for t in net.backbone_tensors()}, bad)
        argv += [flag, str(bad)]
    else:
        checkpoint.save_checkpoint(net, bad)
        argv[argv.index(MODEL_FLAGS[command]) + 1] = str(bad)
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert f"config error: {bad} is for {arch.input_dim} features and {arch.num_classes}" in err
    assert not (tmp_path / "x.ckpt").exists()


@pytest.mark.parametrize("command,data_flag", [(c, f) for c, _, f in STAGE_COMMANDS])
def test_cli_negative_seed_is_config_error(tmp_path, capsys, command, data_flag):
    assert cli.main(stage_argv(tmp_path, command, data_flag) + ["--seed", "-1"]) == 1
    assert "config error: seed must be non-negative" in capsys.readouterr().err
    assert not (tmp_path / "x.ckpt").exists()


# a data seed is no config key: the data draws take theirs from the master seed
@pytest.mark.parametrize("flags,config,message", [
    (["--seed", "-1"], {}, "non-negative"),
    ([], {"benchmark": {"geometry_seed": -1}}, "non-negative"),
    ([], {"shift": {"seed": -1}}, "unknown ShiftSpec keys: ['seed']")],
    ids=["seed", "geometry_seed", "shift_seed"])
def test_cli_gen_data_negative_seed_is_config_error(tmp_path, capsys, flags, config, message):
    path, src, tgt = tmp_path / "cfg.json", tmp_path / "s.ds", tmp_path / "t.ds"
    path.write_text(json.dumps(config))
    assert cli.main(["gen-data", "--config", str(path), "--source", str(src),
                     "--target", str(tgt)] + flags) == 1
    err = capsys.readouterr().err
    assert "config error: " in err and message in err
    assert not src.exists() and not tgt.exists()


@pytest.mark.parametrize("unwritable", ["--source", "--target"])
def test_cli_gen_data_writes_both_datasets_or_neither(tmp_path, capsys, unwritable):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"benchmark": {"n_per_class": 40, "num_classes": 4,
                                             "input_dim": 8}, "stage2": False}))
    paths = {"--source": tmp_path / "s.ds", "--target": tmp_path / "t.ds"}
    paths[unwritable] = tmp_path / "nodir" / paths[unwritable].name
    argv = ["gen-data", "--config", str(cfg)] + [str(v) for kv in paths.items() for v in kv]
    assert cli.main(argv) == 3
    assert "i/o error:" in capsys.readouterr().err
    assert not any(p.exists() for p in paths.values())
    assert list(tmp_path.iterdir()) == [cfg]  # no temporary file left behind either


def test_cli_gen_data_shared_path_is_a_config_error(tmp_path, capsys):
    cfg, path = tmp_path / "cfg.json", tmp_path / "x.ds"
    cfg.write_text(json.dumps({"benchmark": {"n_per_class": 40, "num_classes": 4,
                                             "input_dim": 8}, "stage2": False}))
    for target in (path, tmp_path / "d" / ".." / "x.ds"):  # one file, spelled two ways
        assert cli.main(["gen-data", "--config", str(cfg), "--source", str(path),
                         "--target", str(target)]) == 1
        assert "config error: --source and --target" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]  # no dataset and no temporary file


def test_cli_numerical_error(tmp_path):
    ds = generate(GeneratorSpec(n_per_class=40, num_classes=4, input_dim=8), 0)
    ds.features[0, 0] = np.inf
    path = tmp_path / "inf.ds"
    save_dataset(ds, path)
    assert cli.main(["train-source", "--data", str(path),
                     "--out", str(tmp_path / "x.ckpt")]) == 2


@pytest.mark.parametrize("command", ["run", "adapt", "distill", "compare"])
def test_cli_unwritable_output_is_io_error(tmp_path, capsys, command):
    (tmp_path / "afile").write_text("")
    missing = str(tmp_path / "nodir" / "x")
    if command == "run":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(asdict(tiny_config(seeds=(0,)))))
        argv = ["run", "--config", str(cfg), "--out", str(tmp_path / "afile" / "sub")]
    elif command == "compare":
        report = tmp_path / "report.json"
        report.write_text(json.dumps({"schema_version": SCHEMA_VERSION, "metrics": {}}))
        argv = ["compare", str(report), "--csv", missing]
    else:
        flag = "--report" if command == "adapt" else "--trace"
        argv = stage_argv(tmp_path, command, "--target") + [flag, missing]
    assert cli.main(argv) == 3
    assert "i/o error:" in capsys.readouterr().err
    # a stage command writes its report before its checkpoint
    assert not (tmp_path / "x.ckpt").exists()
