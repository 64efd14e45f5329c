"""Experiment orchestration: declarative configs, stage composition,
multi-seed runs, and machine-readable outputs.

All randomness flows from one master seed per run through named, stage-scoped
substreams, so toggling one stage never perturbs another stage's draws.
report.json carries only deterministic content; wall-clock timings go to a
separate timings.json that is excluded from determinism guarantees.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from . import checkpoint, store
from .adapt import AdaptConfig, adapt
from .data import (Dataset, GeneratorSpec, ShiftSpec, apply_shift, generate,
                   load_dataset, longtail_counts, subsample_longtail)
from .distill import CalibrateConfig, DistillConfig, calibrate_classifier, distill
from .errors import AdaptkitError, ConfigError, StorageError
from .layers import ArchSpec, Network, build_network
from .metrics import evaluate
from .selfsup import ContrastiveConfig, pretrain
from .source import SourceConfig, train_source
from .tensor import one_blas_thread

SCHEMA_VERSION = 1

_STREAMS = {
    "source_data": 11, "target_data": 12, "imbalance": 13,
    "stage0": 21, "stage1": 22, "stage2": 23, "stage3": 24, "calibrate": 25,
    "probe": 31,
}


def _seed_sequence(master_seed: int, name: str) -> np.random.SeedSequence:
    if name not in _STREAMS:
        raise ConfigError(f"unknown rng stream {name!r}")
    if master_seed < 0:
        raise ConfigError(f"seed must be non-negative, got {master_seed}")
    return np.random.SeedSequence([master_seed, _STREAMS[name]])


def stream_seed(master_seed: int, name: str) -> int:
    return int(_seed_sequence(master_seed, name).generate_state(1)[0])


def stream(master_seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng(_seed_sequence(master_seed, name))


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
        if not self.seeds or min(self.seeds) < 0 or len(set(self.seeds)) < len(self.seeds):
            raise ConfigError("seeds must be distinct non-negative integers, at least one, "
                              f"got {list(self.seeds)}")
        if any(w < 1 for w in (*self.teacher_hidden, *self.student_hidden)):
            raise ConfigError("hidden widths must be at least 1")
        if self.stage2 and not self.student_hidden:
            raise ConfigError("stage 2 trains the student's hidden layers: student_hidden "
                              "needs at least one width")
        if self.imbalance_ratio is not None:
            if self.source_data:
                raise ConfigError("imbalance_ratio does not apply to source_data")
            longtail_counts(self.benchmark.n_per_class, self.benchmark.num_classes,
                            self.imbalance_ratio)  # raises on a ratio that empties a class
        rows = self.benchmark.n_per_class * self.benchmark.num_classes  # a generated target
        if self.stage2 and not self.target_data and 2 * self.contrastive_cfg.batch_size > rows:
            raise ConfigError(f"contrastive_cfg.batch_size {self.contrastive_cfg.batch_size} "
                              f"needs at least twice as many target rows, the target has {rows}")

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        return store.from_dict(ExperimentConfig, d, "config")

    def stage_label(self) -> str:
        on = [n for n, f in [("1", self.stage1), ("2", self.stage2),
                             ("3", self.stage3), ("cal", self.calibrate)] if f]
        return "source-only" if not on else "stage" + "+".join(on)


def _read_mapping(path) -> dict:
    """Parse a JSON or (by suffix) YAML file whose top level is a mapping."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise StorageError(f"cannot read {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text: {e}") from e
    if str(path).endswith((".yaml", ".yml")):
        import yaml
        parse, parse_error = yaml.safe_load, yaml.YAMLError
    else:
        parse, parse_error = json.loads, json.JSONDecodeError
    try:
        d = parse(text)
    except (parse_error, RecursionError) as e:  # nested deeper than the parser recurses
        raise ConfigError(f"{path}: cannot parse: {e}") from e
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: top level must be a mapping, got {type(d).__name__}")
    return d


def load_config(path=None) -> ExperimentConfig:
    """The experiment config in file `path`; the defaults without one."""
    return ExperimentConfig.from_dict(_read_mapping(path) if path else {})


# ---------------------------------------------------------------------------


def make_datasets(cfg: ExperimentConfig, seed: int) -> tuple[Dataset, Dataset]:
    """Build (or load) the source and target datasets for one master seed."""
    if cfg.source_data:
        return load_dataset(cfg.source_data), load_dataset(cfg.target_data)
    src = generate(cfg.benchmark, stream_seed(seed, "source_data"))
    if cfg.imbalance_ratio is not None:
        src = subsample_longtail(src, cfg.imbalance_ratio, stream_seed(seed, "imbalance"))
    return src, apply_shift(src, cfg.shift, stream_seed(seed, "target_data"))


@dataclass
class StageInputs:
    """What the stage steps read and hand on: the labeled data that stage 0 trains on,
    the target's feature rows, the hidden widths, and what the last steps made. Every new
    network takes its input width and class count from the labeled data, read once
    here, so stage 0 can let go of the rows."""
    data: Dataset | None  # stage 0 takes it and leaves None
    target: np.ndarray  # N x D
    teacher_hidden: tuple[int, ...]
    student_hidden: tuple[int, ...]
    model: Network | None = None  # the latest classifier; a given one stands in for stage 0
    pretrained: Network | None = None  # stage 2's backbone
    phase_acc: Callable[[Network], float] | None = None  # stage 3's eval_fn
    input_dim: int = field(init=False)
    num_classes: int = field(init=False)

    def __post_init__(self):
        self.input_dim, self.num_classes = self.data.dim, self.data.num_classes

    def arch(self, hidden) -> ArchSpec:
        return ArchSpec(self.input_dim, tuple(hidden), self.num_classes)


# Each step(section config, master seed, inputs) draws from its stage's stream, runs
# the stage, updates `inputs` and returns (what to save, report fragment, abort record).
# Steps look the stage functions up by name when called, so tracers can swap them.

def _stage0(c: SourceConfig, seed: int, s: StageInputs):
    data, s.data = s.data, None  # no later stage reads the labeled rows
    if s.model is not None:
        return None, {}, None
    net = build_network(s.arch(s.teacher_hidden), stream(seed, "stage0"))
    s.model, _, abort = train_source(net, data, c, stream(seed, "stage0"))
    return s.model, {}, abort


def _stage1(c: AdaptConfig, seed: int, s: StageInputs):
    s.model, rep, abort = adapt(s.model, s.target, c, stream(seed, "stage1"))
    return s.model, {"adapt": asdict(rep)}, abort


def _stage2(c: ContrastiveConfig, seed: int, s: StageInputs):
    s.pretrained, history, abort = pretrain(s.arch(s.student_hidden), s.target, c,
                                            stream(seed, "stage2"))
    return s.pretrained, {"contrastive": {"loss_history": history}}, abort


def _stage3(c: DistillConfig, seed: int, s: StageInputs):
    kind, arch = (("random", s.arch(s.student_hidden)) if s.pretrained is None
                  else ("contrastive", s.pretrained.arch))
    s.model, trace = distill(s.model, arch, s.pretrained, s.target, c, stream(seed, "stage3"),
                             eval_fn=s.phase_acc)
    abort = next(({"phase": e["phase"], **e["abort"]} for e in trace if "abort" in e), None)
    return s.model, {"distill": {"init_kind": kind, "trace": trace}}, abort


def _calibrate(c: CalibrateConfig, seed: int, s: StageInputs):
    scale, s.model, abort = calibrate_classifier(s.model, s.target, c, stream(seed, "calibrate"))
    return s.model, {"calibration": {"scales": [float(v) for v in scale]}}, abort


@dataclass(frozen=True)
class Stage:
    name: str  # its rng stream and its key under report["aborts"]
    section: str  # its config section, an ExperimentConfig field
    flag: str | None  # the ExperimentConfig switch that enables it; None: always on
    ckpt: str  # the file `run` saves its product to
    metric: str | None  # its key under report["metrics"]; None: it makes no classifier
    step: Callable


STAGES = (
    Stage("stage0", "source_cfg", None, "source.ckpt", "source_only", _stage0),
    Stage("stage1", "adapt_cfg", "stage1", "stage1.ckpt", "stage1", _stage1),
    Stage("stage2", "contrastive_cfg", "stage2", "backbone.ckpt", None, _stage2),
    Stage("stage3", "distill_cfg", "stage3", "stage3.ckpt", "stage3", _stage3),
    Stage("calibrate", "calibrate_cfg", "calibrate", "calibrated.ckpt", "calibrated",
          _calibrate),
)


def save_product(stage: Stage, product: Network | None, path) -> None:
    """Save what `stage` made to `path`: the backbone of a stage that makes no
    classifier, else the whole network; nothing for a given source model."""
    if stage.metric is None:
        checkpoint.save_backbone(product.arch, {t.name: t.data for t in
                                                product.backbone_tensors()}, path)
    elif product is not None:
        checkpoint.save_checkpoint(product, path)


def run_seed(cfg: ExperimentConfig, seed: int, outdir: Path) -> dict:
    """Execute the enabled stages for one seed and write its artifacts."""
    outdir.mkdir(parents=True, exist_ok=True)
    src, tgt = make_datasets(cfg, seed)
    # evaluate's source class counts and bucket thresholds; the source rows go with stage 0
    buckets = (src.class_counts if src.bucket_thresholds else None), src.bucket_thresholds
    s = StageInputs(src, tgt.features, cfg.teacher_hidden, cfg.student_hidden,
                    phase_acc=lambda net: evaluate(net, tgt, *buckets).overall_acc)
    del src
    if cfg.source_checkpoint:
        s.model = checkpoint.load_checkpoint(cfg.source_checkpoint,
                                             expect_arch=s.arch(cfg.teacher_hidden))
    report: dict = {"schema_version": SCHEMA_VERSION, "seed": seed,
                    "label": cfg.stage_label(), "metrics": {}}
    aborts: dict = {}  # stage -> abort record (see optim.fit)
    for stage in STAGES:
        if stage.flag and not getattr(cfg, stage.flag):
            continue
        product, fragment, aborts[stage.name] = stage.step(getattr(cfg, stage.section), seed, s)
        save_product(stage, product, outdir / stage.ckpt)
        report.update(fragment)
        if stage.metric:
            report["metrics"][stage.metric] = evaluate(s.model, tgt, *buckets).to_dict()
    if any(aborts.values()):
        report["aborts"] = {stage: a for stage, a in aborts.items() if a}
    _write_report_files(report, outdir)
    return report


def _write_report_files(report: dict, outdir: Path) -> None:
    store.write_json(outdir / "report.json", report)
    rows = [["stage", "class", "eval_count", "accuracy"]]
    for stage, m in report["metrics"].items():
        for c, (acc, cnt) in enumerate(zip(m["per_class"], m["per_class_counts"])):
            rows.append([stage, c, cnt, f"{acc:.6f}"])
    store.write_csv(outdir / "per_class.csv", rows)
    rows = [["section", "index", "metric", "value"]]
    for e in report.get("adapt", {}).get("epochs", []):
        for k in ("entropy", "diversity", "infomax"):
            rows.append(["adapt", e["epoch"], k, f"{e[k]:.9f}"])
    for e in report.get("contrastive", {}).get("loss_history", []):
        rows.append(["contrastive", e["epoch"], "infonce", f"{e['infonce']:.9f}"])
    for e in report.get("distill", {}).get("trace", []):
        if "accuracy" in e:
            rows.append(["distill", e["phase"], "accuracy", f"{e['accuracy']:.9f}"])
    store.write_csv(outdir / "trace.csv", rows)


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run every seed, one after another, and summarize. A seed that raises gets an error
    report, the message of an AdaptkitError or "<Type>: <message>" of any other
    exception, and the remaining seeds still run; its exception is kept under "errors"."""
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    timings = {}
    reports, errors = [], []
    with one_blas_thread() as blas:
        for seed in cfg.seeds:
            t0 = perf_counter()
            try:
                rep = run_seed(cfg, seed, outdir / f"seed_{seed}")
            except Exception as e:
                errors.append(e)
                rep = {"schema_version": SCHEMA_VERSION, "seed": seed,
                       "label": cfg.stage_label(), "error": str(e) if isinstance(e, AdaptkitError)
                       else f"{type(e).__name__}: {e}"}
                (outdir / f"seed_{seed}").mkdir(parents=True, exist_ok=True)
                store.write_json(outdir / f"seed_{seed}" / "report.json", rep)
            timings[seed] = perf_counter() - t0
            reports.append(rep)

    summary = summarize(reports)
    summary["config"] = asdict(cfg)
    store.write_json(outdir / "summary.json", summary)
    store.write_json(outdir / "timings.json", {
        "seconds_per_seed": {str(k): round(v, 3) for k, v in sorted(timings.items())},
        "blas": blas})
    return {"reports": reports, "summary": summary, "errors": errors}


def _percentile(values: list[float], q: float) -> float:
    """float(np.percentile(values, 100 * q)) bit for bit, without numpy: np.percentile
    imports numpy.ma, which adds ~1.3 MB to a run that has finished its seeds."""
    v = sorted(map(float, values))
    i = (len(v) - 1) * q
    lo = int(i)
    a, b, t = v[lo], v[min(lo + 1, len(v) - 1)], i - lo
    return a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t)


def summarize(reports: list[dict]) -> dict:
    """Median and IQR per stage metric over the successful seeds."""
    ok = [r for r in reports if "error" not in r]
    stages: dict[str, dict] = {}
    for stage in sorted({s for r in ok for s in r["metrics"]}):
        entry = {}
        for metric in ("overall_acc", "class_mean_acc"):
            vals = [r["metrics"][stage][metric] for r in ok if stage in r["metrics"]]
            q1, med, q3 = (_percentile(vals, q) for q in (0.25, 0.5, 0.75))
            entry[metric] = {"median": med, "iqr": q3 - q1}
        stages[stage] = entry
    return {"schema_version": SCHEMA_VERSION, "stages": stages,
            "num_seeds": len(reports), "num_failed": len(reports) - len(ok)}


# ---------------------------------------------------------------------------
# stage-ablation comparison tables


def compare(paths: list[str]) -> tuple[str, list[list[str]]]:
    """Align reports/summaries into a text table plus CSV rows."""
    if not paths:
        raise ConfigError("compare needs at least one report")
    rows = []  # (config, acc, avg, phase accuracies)
    for path in paths:
        d = _read_mapping(path)
        if d.get("schema_version") != SCHEMA_VERSION:
            raise ConfigError(f"{path}: schema version mismatch")
        if "stages" in d:  # summary file
            rows += [(f"{Path(path).parent.name}:{stage}",
                      *(_read(path, d, ("stages", stage, m, "median")) for m in _ACCS), [])
                     for stage in sorted(_read(path, d, ("stages",), dict), key=str)]
        else:  # single-seed report: its last stage's accuracies
            metrics = _read(path, d, ("metrics",), dict, {})
            final = next((st.metric for st in reversed(STAGES) if st.metric in metrics), None)
            phases = [_read(path, d, ("distill", "trace", i, "accuracy"), float, None)
                      for i in range(len(_read(path, d, ("distill", "trace"), list, [])))]
            rows.append((f"{d.get('label', Path(path).parent.name)}(seed {d.get('seed')})",
                         *(_read(path, d, ("metrics", final, m), float, None) for m in _ACCS),
                         [v for v in phases if v is not None]))
    rows.sort(key=lambda r: r[0])
    n = max((len(r[3]) for r in rows), default=0)
    table = [["config", "acc", "avg"] + [f"phase{i + 1}" for i in range(n)]]
    table += [[config, *("-" if v is None else f"{100 * v:.1f}" for v in (acc, avg, *phases))]
              + ["-"] * (n - len(phases)) for config, acc, avg, phases in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    text = "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
                     for row in table)
    return text, table


_ACCS = ("overall_acc", "class_mean_acc")


def _read(path, d: dict, keys: tuple, kind=float, default=ConfigError):
    """d[keys[0]][keys[1]]... (an int key indexes a list), a number or a `kind`; `default`
    where a mapping lacks a key, if given. Else a ConfigError naming the file and key."""
    name = ".".join(map(str, keys))
    for k in keys:
        if isinstance(d, dict) and k in d or isinstance(d, list) and isinstance(k, int):
            d = d[k]
        elif isinstance(d, dict) and default is not ConfigError:
            return default
        else:
            raise ConfigError(f"{path}: no {name}")
    if isinstance(d, bool) or not isinstance(d, (int, float) if kind is float else kind):
        raise ConfigError(f"{path}: {name} is a {type(d).__name__}, not a {kind.__name__}")
    return d
