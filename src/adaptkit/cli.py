"""Command-line interface.

Exit codes: 0 success, 1 config error, 2 numerical failure, 3 I/O error.
`run` exits with the code of the first failed seed's error.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import checkpoint, harness
from .adapt import adapt
from .data import (GeneratorSpec, ImbalanceSpec, ShiftSpec, apply_shift,
                   generate, load_dataset, save_dataset, subsample_longtail)
from .distill import PhaseSchedule, calibrate_classifier, distill
from .errors import AdaptkitError, ConfigError, NumericalError, StorageError
from .layers import ArchSpec, build_network
from .metrics import evaluate
from .selfsup import InitializedStudent, pretrain
from .source import train_source


def _warn_abort(stage: str, abort: dict | None) -> None:
    if abort:  # the run hit a non-finite value and kept its last good state
        print(f"{stage} aborted: {json.dumps(abort, sort_keys=True)}", file=sys.stderr)


def cmd_gen_data(args) -> int:
    spec = GeneratorSpec(n_per_class=args.n_per_class, num_classes=args.classes,
                         input_dim=args.dim, ring_radius=args.ring_radius,
                         cluster_sigma=args.cluster_sigma, ambient_scale=args.ambient_scale,
                         seed=args.seed, geometry_seed=args.geometry_seed)
    ds = generate(spec)
    if args.imbalance_ratio is not None:
        ds = subsample_longtail(ds, ImbalanceSpec(args.imbalance_ratio, args.seed))
    if args.shift_kind:
        ds = apply_shift(ds, ShiftSpec(args.shift_kind, args.magnitude, args.shift_seed))
    save_dataset(ds, args.out)
    print(f"wrote {args.out}: {len(ds)} rows, {ds.dim} dims, {ds.num_classes} classes, "
          f"domain={ds.domain_tag}")
    return 0


def cmd_train_source(args) -> int:
    ds = load_dataset(args.data)
    cfg = harness.load_section(args.config, "source_cfg")
    arch = ArchSpec(ds.dim, tuple(args.hidden), ds.num_classes)
    rng = harness.stream(args.seed, "stage0")
    net = build_network(arch, rng)
    net, history, abort = train_source(net, ds, cfg, rng)
    _warn_abort("train-source", abort)
    checkpoint.save_checkpoint(net, args.out)
    print(f"wrote {args.out}" + (f": final loss {history[-1]['loss']:.4f}" if history else ""))
    return 0


def cmd_adapt(args) -> int:
    net, _ = checkpoint.load_checkpoint(args.source)
    ds = load_dataset(args.target)
    cfg = harness.load_section(args.config, "adapt_cfg")
    net, report, abort = adapt(net, ds.unlabeled_view(), cfg, harness.stream(args.seed, "stage1"))
    _warn_abort("adapt", abort)
    checkpoint.save_checkpoint(net, args.out)
    payload = json.dumps(asdict(report), sort_keys=True, indent=2)
    if args.report:
        Path(args.report).write_text(payload + "\n")
    else:
        print(payload)
    return 0


def cmd_pretrain(args) -> int:
    ds = load_dataset(args.target)
    cfg = harness.load_section(args.config, "contrastive_cfg")
    arch = ArchSpec(ds.dim, tuple(args.hidden), ds.num_classes)
    student = pretrain(arch, ds.unlabeled_view(), cfg, harness.stream(args.seed, "stage2"))
    _warn_abort("pretrain", student.abort)
    checkpoint.save_backbone(arch, student.tensors, args.out)
    h = [e["infonce"] for e in student.loss_history]
    print(f"wrote {args.out}" + (f": infonce {h[0]:.4f} -> {h[-1]:.4f}" if h else ""))
    return 0


def cmd_distill(args) -> int:
    teacher, _ = checkpoint.load_checkpoint(args.teacher)
    ds = load_dataset(args.target)
    cfg = harness.load_section(args.config, "distill_cfg")
    cfg.schedule = PhaseSchedule(args.phases, args.epochs_per_phase,
                                 args.soft_interleave, args.soft_epochs)
    if args.student_init:
        arch, tensors, _ = checkpoint.load_backbone(args.student_init)
        pretrained = InitializedStudent(arch, tensors, "contrastive")
        init_kind = "contrastive"
    else:
        arch = ArchSpec(ds.dim, tuple(args.hidden), ds.num_classes)
        pretrained, init_kind = None, "random"
    student, trace = distill(teacher, init_kind, arch, pretrained, ds.unlabeled_view(),
                             cfg, harness.stream(args.seed, "stage3"))
    _warn_abort("distill", {e["phase"]: e["abort"] for e in trace if "abort" in e})
    checkpoint.save_checkpoint(student, args.out)
    if args.trace:
        Path(args.trace).write_text(json.dumps(trace, sort_keys=True, indent=2) + "\n")
    print(f"wrote {args.out}: {len(trace)} phases")
    return 0


def cmd_calibrate(args) -> int:
    net, _ = checkpoint.load_checkpoint(args.model)
    ds = load_dataset(args.target)
    cfg = harness.load_section(args.config, "calibrate_cfg")
    scale, net, abort = calibrate_classifier(net, ds.unlabeled_view(), cfg,
                                             harness.stream(args.seed, "calibrate"))
    _warn_abort("calibrate", abort)
    checkpoint.save_checkpoint(net, args.out)
    print(f"wrote {args.out}: scales {np.array2string(scale.s, precision=3)}")
    return 0


def cmd_evaluate(args) -> int:
    net, _ = checkpoint.load_checkpoint(args.model)
    ds = load_dataset(args.data)
    counts = None
    if args.train_data:
        counts = load_dataset(args.train_data).class_counts
    report = evaluate(net, ds, train_counts=counts)
    print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
    return 0


def cmd_run(args) -> int:
    cfg = harness.load_config(args.config)
    if args.out:
        cfg = replace(cfg, outdir=args.out)
    result = harness.run_experiment(cfg)
    summary = result["summary"]
    for stage, m in summary["stages"].items():
        print(f"{stage}: acc median {100 * m['overall_acc']['median']:.1f} "
              f"(IQR {100 * m['overall_acc']['iqr']:.1f})")
    if not result["errors"]:
        return 0
    print(f"{summary['num_failed']} seed(s) failed; see per-seed reports")
    return exit_status(result["errors"][0])[0]


def cmd_compare(args) -> int:
    text, table = harness.compare(args.reports)
    print(text)
    if args.csv:
        with open(args.csv, "w", newline="") as f:
            csv.writer(f).writerows(table)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="adaptkit",
                                description="Test-time adaptation pipeline on synthetic shift benchmarks")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic dataset file")
    g.add_argument("--out", required=True)
    g.add_argument("--classes", type=int, default=10)
    g.add_argument("--dim", type=int, default=32)
    g.add_argument("--n-per-class", type=int, default=500)
    g.add_argument("--ring-radius", type=float, default=5.0)
    g.add_argument("--cluster-sigma", type=float, default=1.0)
    g.add_argument("--ambient-scale", type=float, default=3.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--geometry-seed", type=int, default=7)
    g.add_argument("--shift-kind", choices=["rotation", "scale", "translate", "composite"])
    g.add_argument("--magnitude", type=float, default=45.0)
    g.add_argument("--shift-seed", type=int, default=1)
    g.add_argument("--imbalance-ratio", type=float)
    g.set_defaults(fn=cmd_gen_data)

    t = sub.add_parser("train-source", help="stage 0: supervised source training")
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--config")
    t.add_argument("--hidden", type=int, nargs="+", default=[64, 64])
    t.add_argument("--seed", type=int, default=0)
    t.set_defaults(fn=cmd_train_source)

    a = sub.add_parser("adapt", help="stage 1: InfoMax test-time adaptation")
    a.add_argument("--source", required=True)
    a.add_argument("--target", required=True)
    a.add_argument("--out", required=True)
    a.add_argument("--config")
    a.add_argument("--report")
    a.add_argument("--seed", type=int, default=0)
    a.set_defaults(fn=cmd_adapt)

    pr = sub.add_parser("pretrain", help="stage 2: contrastive backbone pretraining")
    pr.add_argument("--target", required=True)
    pr.add_argument("--out", required=True)
    pr.add_argument("--config")
    pr.add_argument("--hidden", type=int, nargs="+", default=[32, 32])
    pr.add_argument("--seed", type=int, default=0)
    pr.set_defaults(fn=cmd_pretrain)

    d = sub.add_parser("distill", help="stage 3: phased teacher-student transfer")
    d.add_argument("--teacher", required=True)
    d.add_argument("--target", required=True)
    d.add_argument("--out", required=True)
    d.add_argument("--student-init", help="backbone checkpoint (default: random student)")
    d.add_argument("--hidden", type=int, nargs="+", default=[32, 32])
    d.add_argument("--config")
    d.add_argument("--phases", type=int, default=3)
    d.add_argument("--epochs-per-phase", type=int, default=4)
    d.add_argument("--soft-interleave", action="store_true")
    d.add_argument("--soft-epochs", type=int, default=1)
    d.add_argument("--trace")
    d.add_argument("--seed", type=int, default=0)
    d.set_defaults(fn=cmd_distill)

    c = sub.add_parser("calibrate", help="test-time classifier rescaling")
    c.add_argument("--model", required=True)
    c.add_argument("--target", required=True)
    c.add_argument("--out", required=True)
    c.add_argument("--config")
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(fn=cmd_calibrate)

    e = sub.add_parser("evaluate", help="accuracy metrics on a labeled dataset")
    e.add_argument("--model", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--train-data", help="source dataset supplying bucket counts")
    e.set_defaults(fn=cmd_evaluate)

    r = sub.add_parser("run", help="full multi-seed pipeline from a config file")
    r.add_argument("--config", required=True)
    r.add_argument("--out")
    r.set_defaults(fn=cmd_run)

    cp = sub.add_parser("compare", help="stage-ablation table from reports")
    cp.add_argument("reports", nargs="+")
    cp.add_argument("--csv")
    cp.set_defaults(fn=cmd_compare)
    return p


EXIT_STATUS = {ConfigError: (1, "config error"), NumericalError: (2, "numerical failure"),
               StorageError: (3, "i/o error")}


def exit_status(err: AdaptkitError) -> tuple[int, str]:
    """(exit code, message prefix) for an error, from EXIT_STATUS."""
    return next(status for cls, status in EXIT_STATUS.items() if isinstance(err, cls))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except tuple(EXIT_STATUS) as e:
        code, what = exit_status(e)
        print(f"{what}: {e}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
