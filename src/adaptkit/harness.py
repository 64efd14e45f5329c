"""Experiment orchestration: declarative configs, stage composition,
multi-seed runs, and machine-readable outputs.

All randomness flows from one master seed per run through named, stage-scoped
substreams, so toggling one stage never perturbs another stage's draws.
report.json carries only deterministic content; wall-clock timings go to a
separate timings.json that is excluded from determinism guarantees.
"""
from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from time import perf_counter
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import checkpoint
from .adapt import AdaptConfig, adapt
from .data import (Dataset, GeneratorSpec, ImbalanceSpec, ShiftSpec, apply_shift,
                   generate, load_dataset, subsample_longtail)
from .distill import CalibrateConfig, DistillConfig, calibrate_classifier, distill
from .errors import AdaptkitError, ConfigError, StorageError
from .layers import ArchSpec, build_network
from .metrics import MetricsReport, evaluate
from .selfsup import ContrastiveConfig, pretrain
from .source import SourceConfig, train_source

SCHEMA_VERSION = 1

_STREAMS = {
    "source_data": 11, "target_data": 12, "imbalance": 13,
    "stage0": 21, "stage1": 22, "stage2": 23, "stage3": 24, "calibrate": 25,
    "probe": 31,
}


def stream_seed(master_seed: int, name: str) -> int:
    if name not in _STREAMS:
        raise ConfigError(f"unknown rng stream {name!r}")
    return int(np.random.SeedSequence([master_seed, _STREAMS[name]]).generate_state(1)[0])


def stream(master_seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([master_seed, _STREAMS[name]]))


_SECTIONS = {"benchmark": GeneratorSpec, "shift": ShiftSpec, "source_cfg": SourceConfig,
             "adapt_cfg": AdaptConfig, "contrastive_cfg": ContrastiveConfig,
             "distill_cfg": DistillConfig, "calibrate_cfg": CalibrateConfig}


def _fits(v, hint) -> bool:
    """Whether a parsed config value fits a field's annotation: int (not bool),
    float (int allowed), bool, str, a config section, `X | None` or a tuple."""
    if get_origin(hint) is UnionType:
        return any(_fits(v, h) for h in get_args(hint))
    if get_origin(hint) is tuple:
        args = get_args(hint)
        if isinstance(v, tuple) and args[-1:] == (...,):
            args = args[:1] * len(v)
        return isinstance(v, tuple) and len(v) == len(args) and all(map(_fits, v, args))
    if hint in (int, float):
        return isinstance(v, (int, hint)) and not isinstance(v, bool)
    return isinstance(v, hint)


def _subconfig(cls, d: dict | None, what: str = ""):
    """Build config dataclass `cls` from a parsed mapping, nested sections
    included; an unknown key or a value of the wrong type is a ConfigError."""
    what = what or cls.__name__
    if d is not None and not isinstance(d, dict):
        raise ConfigError(f"{what} must be a mapping, got {type(d).__name__}")
    hints, written = get_type_hints(cls), {f.name: f.type for f in fields(cls)}
    unknown = set(d or {}) - set(hints)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    kw = {}
    for key, v in (d or {}).items():
        if is_dataclass(hints[key]) and not isinstance(v, hints[key]):
            v = _subconfig(hints[key], v)
        elif isinstance(v, list):
            v = tuple(v)
        if not _fits(v, hints[key]):
            raise ConfigError(f"{what}.{key} must be {written[key]}, got {v!r}")
        kw[key] = v
    return cls(**kw)


@dataclass
class ExperimentConfig:
    benchmark: GeneratorSpec = field(default_factory=GeneratorSpec)
    shift: ShiftSpec = field(default_factory=ShiftSpec)
    imbalance_ratio: float | None = None  # set for the long-tailed benchmark
    stage1: bool = True
    stage2: bool = True
    stage3: bool = True
    calibrate: bool = False
    teacher_hidden: tuple[int, ...] = (64, 64)
    student_hidden: tuple[int, ...] = (32, 32)
    source_cfg: SourceConfig = field(default_factory=SourceConfig)
    adapt_cfg: AdaptConfig = field(default_factory=AdaptConfig)
    contrastive_cfg: ContrastiveConfig = field(default_factory=ContrastiveConfig)
    distill_cfg: DistillConfig = field(default_factory=DistillConfig)
    calibrate_cfg: CalibrateConfig = field(default_factory=CalibrateConfig)
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    outdir: str = "runs/default"
    source_data: str | None = None  # dataset file overrides the generator
    target_data: str | None = None
    source_checkpoint: str | None = None  # skip stage 0

    def __post_init__(self):
        if self.stage2 and not self.stage3:
            raise ConfigError("stage 2 output is only consumed by stage 3")
        if bool(self.source_data) != bool(self.target_data):
            raise ConfigError("source_data and target_data must be given together")

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        return _subconfig(ExperimentConfig, d, "config")

    def stage_label(self) -> str:
        on = [n for n, f in [("1", self.stage1), ("2", self.stage2),
                             ("3", self.stage3), ("cal", self.calibrate)] if f]
        return "source-only" if not on else "stage" + "+".join(on)


def _read_mapping(path) -> dict:
    """Parse a JSON or (by suffix) YAML file whose top level is a mapping."""
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise StorageError(f"cannot read {path}: {e}") from e
    if str(path).endswith((".yaml", ".yml")):
        import yaml
        parse, parse_error = yaml.safe_load, yaml.YAMLError
    else:
        parse, parse_error = json.loads, json.JSONDecodeError
    try:
        d = parse(text)
    except parse_error as e:
        raise ConfigError(f"{path}: cannot parse: {e}") from e
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: top level must be a mapping, got {type(d).__name__}")
    return d


def load_config(path) -> ExperimentConfig:
    return ExperimentConfig.from_dict(_read_mapping(path))


def load_section(path, key: str):
    """One sub-config (a key of _SECTIONS) from a config file holding either a
    full experiment config or just that section; defaults when path is None."""
    d = _read_mapping(path) if path else {}
    return _subconfig(_SECTIONS[key], d.get(key, d))


# ---------------------------------------------------------------------------


def make_datasets(cfg: ExperimentConfig, seed: int) -> tuple[Dataset, Dataset]:
    """Build (or load) the source and target datasets for one master seed."""
    if cfg.source_data:
        return load_dataset(cfg.source_data), load_dataset(cfg.target_data)
    spec = replace(cfg.benchmark, seed=stream_seed(seed, "source_data"))
    src = generate(spec)
    if cfg.imbalance_ratio is not None:
        src = subsample_longtail(src, ImbalanceSpec(cfg.imbalance_ratio,
                                                    stream_seed(seed, "imbalance")))
    shift = replace(cfg.shift, seed=stream_seed(seed, "target_data"))
    tgt = apply_shift(src if cfg.imbalance_ratio is None else generate(spec), shift)
    tgt.bucket_thresholds = src.bucket_thresholds
    return src, tgt


def _eval(model, tgt: Dataset, src: Dataset) -> MetricsReport:
    counts = src.class_counts if src.bucket_thresholds else None
    return evaluate(model, tgt, train_counts=counts, thresholds=src.bucket_thresholds)


def run_seed(cfg: ExperimentConfig, seed: int, outdir: Path) -> dict:
    """Execute the enabled stages for one seed and write its artifacts."""
    outdir.mkdir(parents=True, exist_ok=True)
    src, tgt = make_datasets(cfg, seed)
    view = tgt.unlabeled_view()
    report: dict = {"schema_version": SCHEMA_VERSION, "seed": seed,
                    "label": cfg.stage_label(), "metrics": {}}
    aborts: dict = {}  # stage -> abort record (see optim.fit)

    teacher_arch = ArchSpec(src.dim, cfg.teacher_hidden, src.num_classes)
    if cfg.source_checkpoint:
        model, _ = checkpoint.load_checkpoint(cfg.source_checkpoint, expect_arch=teacher_arch)
    else:
        model = build_network(teacher_arch, stream(seed, "stage0"))
        model, _, aborts["stage0"] = train_source(model, src, cfg.source_cfg,
                                                  stream(seed, "stage0"))
        checkpoint.save_checkpoint(model, outdir / "source.ckpt")
    report["metrics"]["source_only"] = _eval(model, tgt, src).to_dict()

    if cfg.stage1:
        model, adapt_report, aborts["stage1"] = adapt(model, view, cfg.adapt_cfg,
                                                      stream(seed, "stage1"))
        checkpoint.save_checkpoint(model, outdir / "stage1.ckpt")
        report["adapt"] = asdict(adapt_report)
        report["metrics"]["stage1"] = _eval(model, tgt, src).to_dict()
    teacher = model

    pretrained = None
    if cfg.stage2:
        student_arch = ArchSpec(src.dim, cfg.student_hidden, src.num_classes)
        pretrained = pretrain(student_arch, view, cfg.contrastive_cfg, stream(seed, "stage2"))
        checkpoint.save_backbone(student_arch, pretrained.tensors, outdir / "backbone.ckpt")
        report["contrastive"] = {"loss_history": pretrained.loss_history}
        aborts["stage2"] = pretrained.abort

    if cfg.stage3:
        student_arch = ArchSpec(src.dim, cfg.student_hidden, src.num_classes)
        init_kind = "contrastive" if cfg.stage2 else "random"
        model, trace = distill(teacher, init_kind, student_arch, pretrained, view,
                               cfg.distill_cfg, stream(seed, "stage3"),
                               eval_fn=lambda net: _eval(net, tgt, src).overall_acc)
        checkpoint.save_checkpoint(model, outdir / "stage3.ckpt")
        report["distill"] = {"init_kind": init_kind, "trace": trace}
        aborts["stage3"] = next(({"phase": e["phase"], **e["abort"]}
                                 for e in trace if "abort" in e), None)
        report["metrics"]["stage3"] = _eval(model, tgt, src).to_dict()

    if cfg.calibrate:
        scale, model, aborts["calibrate"] = calibrate_classifier(
            model, view, cfg.calibrate_cfg, stream(seed, "calibrate"))
        checkpoint.save_checkpoint(model, outdir / "calibrated.ckpt")
        report["calibration"] = {"scales": [float(v) for v in scale.s]}
        report["metrics"]["calibrated"] = _eval(model, tgt, src).to_dict()

    if any(aborts.values()):
        report["aborts"] = {stage: a for stage, a in aborts.items() if a}
    _write_report_files(report, outdir)
    return report


def _write_report_files(report: dict, outdir: Path) -> None:
    (outdir / "report.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    with open(outdir / "per_class.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["stage", "class", "eval_count", "accuracy"])
        for stage, m in report["metrics"].items():
            for c, (acc, cnt) in enumerate(zip(m["per_class"], m["per_class_counts"])):
                w.writerow([stage, c, cnt, f"{acc:.6f}"])
    with open(outdir / "trace.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["section", "index", "metric", "value"])
        for e in report.get("adapt", {}).get("epochs", []):
            for k in ("entropy", "diversity", "infomax"):
                w.writerow(["adapt", e["epoch"], k, f"{e[k]:.9f}"])
        for e in report.get("contrastive", {}).get("loss_history", []):
            w.writerow(["contrastive", e["epoch"], "infonce", f"{e['infonce']:.9f}"])
        for e in report.get("distill", {}).get("trace", []):
            if "accuracy" in e:
                w.writerow(["distill", e["phase"], "accuracy", f"{e['accuracy']:.9f}"])


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run every seed, one after another, and summarize. A seed that raises an
    AdaptkitError gets an error report; its exception is kept under "errors"."""
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    timings = {}
    reports, errors = [], []
    for seed in cfg.seeds:
        t0 = perf_counter()
        try:
            rep = run_seed(cfg, seed, outdir / f"seed_{seed}")
        except AdaptkitError as e:
            errors.append(e)
            rep = {"schema_version": SCHEMA_VERSION, "seed": seed,
                   "label": cfg.stage_label(), "error": str(e)}
            (outdir / f"seed_{seed}").mkdir(parents=True, exist_ok=True)
            (outdir / f"seed_{seed}" / "report.json").write_text(
                json.dumps(rep, sort_keys=True, indent=2) + "\n")
        timings[seed] = perf_counter() - t0
        reports.append(rep)

    summary = summarize(reports)
    summary["config"] = asdict(cfg)
    (outdir / "summary.json").write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    (outdir / "timings.json").write_text(json.dumps(
        {"seconds_per_seed": {str(k): round(v, 3) for k, v in sorted(timings.items())}},
        sort_keys=True, indent=2) + "\n")
    return {"reports": reports, "summary": summary, "errors": errors}


def summarize(reports: list[dict]) -> dict:
    """Median and IQR per stage metric over the successful seeds."""
    ok = [r for r in reports if "error" not in r]
    stages: dict[str, dict] = {}
    for stage in sorted({s for r in ok for s in r["metrics"]}):
        entry = {}
        for metric in ("overall_acc", "class_mean_acc"):
            vals = [r["metrics"][stage][metric] for r in ok if stage in r["metrics"]]
            q1, med, q3 = np.percentile(vals, [25, 50, 75])
            entry[metric] = {"median": float(med), "iqr": float(q3 - q1)}
        stages[stage] = entry
    return {"schema_version": SCHEMA_VERSION, "stages": stages,
            "num_seeds": len(reports), "num_failed": len(reports) - len(ok)}


# ---------------------------------------------------------------------------
# stage-ablation comparison tables


def compare(paths: list[str]) -> tuple[str, list[list[str]]]:
    """Align reports/summaries into a text table plus CSV rows."""
    if not paths:
        raise ConfigError("compare needs at least one report")
    rows = []
    max_phases = 0
    for path in paths:
        d = _read_mapping(path)
        if d.get("schema_version") != SCHEMA_VERSION:
            raise ConfigError(f"{path}: schema version mismatch")
        if "stages" in d:  # summary file
            for stage, m in sorted(d["stages"].items()):
                rows.append({"config": f"{Path(path).parent.name}:{stage}",
                             "acc": m["overall_acc"]["median"],
                             "avg": m["class_mean_acc"]["median"], "phases": []})
        else:  # single-seed report
            metrics = d.get("metrics", {})
            final = _final_stage(metrics)
            phases = [e["accuracy"] for e in d.get("distill", {}).get("trace", [])
                      if "accuracy" in e]
            rows.append({"config": f"{d.get('label', Path(path).parent.name)}"
                                   f"(seed {d.get('seed')})",
                         "acc": metrics.get(final, {}).get("overall_acc"),
                         "avg": metrics.get(final, {}).get("class_mean_acc"),
                         "phases": phases})
            max_phases = max(max_phases, len(phases))
    rows.sort(key=lambda r: r["config"])
    header = ["config", "acc", "avg"] + [f"phase{i + 1}" for i in range(max_phases)]
    table = [header]
    for r in rows:
        cells = [r["config"], _fmt(r["acc"]), _fmt(r["avg"])]
        cells += [_fmt(r["phases"][i]) if i < len(r["phases"]) else "-"
                  for i in range(max_phases)]
        table.append(cells)
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    text = "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
                     for row in table)
    return text, table


def _final_stage(metrics: dict) -> str:
    for stage in ("calibrated", "stage3", "stage1", "source_only"):
        if stage in metrics:
            return stage
    return "source_only"


def _fmt(v) -> str:
    return "-" if v is None else f"{100 * v:.1f}"
