"""Command-line interface.

Exit codes: 0 success (and `--help`), 1 config error, a usage error included, 2 numerical
failure, 3 I/O error, 4 a `run` seed that raised any other exception, whose traceback
`run` prints. `run` exits with the code of the first failed seed's error. Other commands
let an unexpected exception raise.
"""
from __future__ import annotations

import argparse
import json
import sys
import traceback
from dataclasses import replace
from functools import reduce
from operator import getitem
from pathlib import Path

from . import checkpoint, harness, store
from .data import load_dataset, save_dataset
from .errors import ConfigError, NumericalError, StorageError
from .metrics import evaluate
from .tensor import one_blas_thread


def cmd_gen_data(args) -> int:
    """`run`'s source and target datasets for --seed, from --config or the defaults."""
    paths = Path(args.source), Path(args.target)
    if paths[0].resolve() == paths[1].resolve():
        raise ConfigError(f"--source and --target are the same file: {args.source}")
    outs = dict(zip(paths, harness.make_datasets(harness.load_config(args.config), args.seed)))
    # both files or neither: store.write puts the target in place whole or not at all,
    # and the source, staged under a temporary name, follows only once the target is there
    staged = Path(f"{paths[0]}.tmp")
    try:
        save_dataset(outs[paths[0]], staged)
        save_dataset(outs[paths[1]], paths[1])
        staged.replace(paths[0])
    finally:
        staged.unlink(missing_ok=True)
    for path, ds in outs.items():
        print(f"wrote {path}: {len(ds)} rows, {ds.dim} dims, {ds.num_classes} classes, "
              f"domain={ds.domain_tag}")
    return 0


def _for_data(net, inputs: harness.StageInputs, path: str):
    """`net`, loaded from `path`, if it takes the data's width and predicts its classes."""
    if (net.arch.input_dim, net.arch.num_classes) != (inputs.input_dim, inputs.num_classes):
        raise ConfigError(f"{path} is for {net.arch.input_dim} features and {net.arch.num_classes}"
                          f" classes, the data has {inputs.input_dim} and {inputs.num_classes}")
    return net


def cmd_stage(args) -> int:
    """train-source, adapt, pretrain, distill and calibrate: one step of `run`'s stage
    table on files, so the same --seed and --config give the same checkpoint bytes."""
    stage, data, cfg = args.stage, load_dataset(args.data), harness.load_config(args.config)
    inputs = harness.StageInputs(data, data.features, cfg.teacher_hidden,
                                 cfg.student_hidden)
    if getattr(args, "model", None):
        inputs.model = _for_data(checkpoint.load_checkpoint(args.model), inputs, args.model)
    if getattr(args, "student_init", None):
        inputs.pretrained = _for_data(checkpoint.load_backbone(args.student_init), inputs,
                                      args.student_init)
    product, fragment, abort = stage.step(getattr(cfg, stage.section), args.seed, inputs)
    if abort:  # the stage hit a non-finite value and kept its last good state
        print(f"{args.command} aborted: {json.dumps(abort, sort_keys=True)}", file=sys.stderr)
    if getattr(args, "report", None):  # before --out, so a failed command leaves no checkpoint
        store.write_json(args.report, reduce(getitem, args.report_keys, fragment))
    harness.save_product(stage, product, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    net = checkpoint.load_checkpoint(args.model)
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
    for e in result["errors"]:
        if exit_status(e)[0] == 4:  # a program bug: show where it was raised
            traceback.print_exception(e)
    return exit_status(result["errors"][0])[0]


def cmd_compare(args) -> int:
    text, table = harness.compare(args.reports)
    print(text)
    if args.csv:
        store.write_csv(args.csv, table)
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is a config error (exit 1), not argparse's 2
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="adaptkit",
                description="Test-time adaptation pipeline on synthetic shift benchmarks")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="write run's source and target datasets for a seed")
    g.add_argument("--config", help="experiment config, as for run (default: the default config)")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--source", required=True)
    g.add_argument("--target", required=True)
    g.set_defaults(fn=cmd_gen_data)

    def stage_parser(command, name, help, data_flag="--target"):
        stage = next(st for st in harness.STAGES if st.name == name)
        sp = sub.add_parser(command, help=help)
        sp.add_argument(data_flag, dest="data", metavar=data_flag[2:].upper(), required=True)
        sp.add_argument("--out", required=True)
        sp.add_argument("--config", help=f"experiment config, as for run; its {stage.section} "
                        "and hidden widths apply")
        sp.add_argument("--seed", type=int, default=0)
        sp.set_defaults(fn=cmd_stage, stage=stage)
        return sp

    stage_parser("train-source", "stage0", "stage 0: supervised source training", "--data")

    a = stage_parser("adapt", "stage1", "stage 1: InfoMax test-time adaptation")
    a.add_argument("--source", dest="model", metavar="SOURCE", required=True)
    a.add_argument("--report")
    a.set_defaults(report_keys=("adapt",))

    stage_parser("pretrain", "stage2", "stage 2: contrastive backbone pretraining")

    d = stage_parser("distill", "stage3", "stage 3: phased teacher-student transfer")
    d.add_argument("--teacher", dest="model", metavar="TEACHER", required=True)
    d.add_argument("--student-init", help="backbone checkpoint (default: random student)")
    d.add_argument("--trace", dest="report", metavar="TRACE")
    d.set_defaults(report_keys=("distill", "trace"))

    c = stage_parser("calibrate", "calibrate", "test-time classifier rescaling")
    c.add_argument("--model", required=True)

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
               StorageError: (3, "i/o error"), OSError: (3, "i/o error")}


def exit_status(err: Exception) -> tuple[int, str]:
    """(exit code, message prefix) for an error, from EXIT_STATUS; 4 for any other."""
    return next((status for cls, status in EXIT_STATUS.items() if isinstance(err, cls)),
                (4, "unexpected error"))


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        with one_blas_thread():  # a second BLAS thread mostly spins on the pipeline's gemms
            return args.fn(args)
    except tuple(EXIT_STATUS) as e:
        code, what = exit_status(e)
        print(f"{what}: {e}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
