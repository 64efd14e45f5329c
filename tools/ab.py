"""Time one pipeline stage of two adaptkit trees against each other in one process.

    python tools/ab.py --parent REV --stage NAME [--pairs N] [--change REV] [--config PATH]

The parent side is `src/adaptkit` at git revision REV, extracted with `git archive`.
The change side is the checkout's `src/adaptkit` as it stands, or `--change REV`
(`--parent HEAD --change HEAD` is an A/A run). Both trees are copied into a temporary
directory and imported there under two package names of the same length; the modules
use relative imports, so both load side by side. Nothing is written into the checkout:
bytecode writing is off and the checkout's tree is only read.

Each tree builds its own inputs: its `load_config` reads `--config` (the defaults
without one), its `make_datasets` draws the datasets of the config's first seed,
which must be byte-equal between the trees, and its own stage table runs the enabled
stages before NAME (one of `harness.STAGES`: stage0, stage1, stage2, stage3,
calibrate). Each pair then times one call of NAME's stage step per side on a deep
copy of those inputs, the side that goes first alternating, after
`keep_freed_memory()` and inside `one_blas_thread()`, as `fit` and `run_experiment`
run a stage. One untimed call per side comes first.

It prints one JSON object: the median wall and `time.thread_time` ratios (change /
parent, per pair) with a bootstrap 95% interval, every pair's ratios, and whether every
call's outputs (the product's tensors, the report fragment and the abort record) are
byte-equal; it stops if the inputs are not. Memory is not measured here: heap
placement is per process, so `perfbench/run.py` measures it.
"""
from __future__ import annotations

import argparse
import copy
import gc
import hashlib
import importlib
import io
import json
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def extract(rev: str, dest: Path) -> None:
    """`src/adaptkit` at `rev` as the package directory `dest`."""
    raw = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src/adaptkit"],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(raw)) as tar:
        tar.extractall(dest.parent / "_x", filter="data")
    (dest.parent / "_x" / "src" / "adaptkit").rename(dest)
    shutil.rmtree(dest.parent / "_x")


class Side:
    """One tree: its package, its config and the inputs of the stage it times."""

    def __init__(self, pkg_dir: Path, config: str | None, stage: str):
        name = pkg_dir.name
        self.harness = importlib.import_module(f"{name}.harness")
        self.tensor = importlib.import_module(f"{name}.tensor")
        self.cfg = self.harness.load_config(config)
        self.seed = self.cfg.seeds[0]
        stages = {s.name: s for s in self.harness.STAGES}
        if stage not in stages:
            raise SystemExit(f"unknown stage {stage!r}; this tree has {sorted(stages)}")
        self.stage, self.section = stages[stage], getattr(self.cfg, stages[stage].section)

    def prepare(self) -> bytes:
        """Run the enabled stages before the timed one, as `run_seed` does; returns the
        datasets' bytes."""
        h, cfg, seed = self.harness, self.cfg, self.seed
        src, tgt = h.make_datasets(cfg, seed)
        data_bytes = b"".join(a.tobytes() for d in (src, tgt) for a in (d.features, d.labels)
                              if a is not None)
        buckets = (src.class_counts if src.bucket_thresholds else None), src.bucket_thresholds
        # the target as the tree's StageInputs annotates it: the feature array, or in older
        # trees a wrapper class of that name, which their harness imports
        kind = h.StageInputs.__dataclass_fields__["target"].type
        target = tgt.features if kind.startswith("np.") else getattr(h, kind)(tgt.features)
        self.inputs = s = h.StageInputs(
            src, target, cfg.teacher_hidden, cfg.student_hidden,
            phase_acc=lambda net: h.evaluate(net, tgt, *buckets).overall_acc)
        if cfg.source_checkpoint:
            s.model = h.checkpoint.load_checkpoint(cfg.source_checkpoint,
                                                   expect_arch=s.arch(cfg.teacher_hidden))
        for stage in h.STAGES:
            if stage is self.stage:
                return data_bytes
            if not stage.flag or getattr(cfg, stage.flag):
                stage.step(getattr(cfg, stage.section), seed, s)

    def call(self) -> tuple[float, float, str]:
        """One timed stage step on a fresh copy of the inputs: (wall s, thread s, digest
        of its outputs)."""
        inputs = copy.deepcopy(self.inputs)
        gc.collect()
        w0, c0 = time.perf_counter(), time.thread_time()
        product, fragment, abort = self.stage.step(self.section, self.seed, inputs)
        wall, cpu = time.perf_counter() - w0, time.thread_time() - c0
        h = hashlib.sha256(json.dumps([fragment, abort], sort_keys=True).encode())
        h.update(b"none" if product is None else
                 self.tensor.fingerprint_all(product.all_tensors()).encode())
        return wall, cpu, h.hexdigest()


def interval(ratios: list[float], rng: np.random.Generator, draws: int = 2000) -> dict:
    """The median ratio and a percentile-bootstrap 95% interval of the median."""
    r = np.asarray(ratios)
    meds = np.median(r[rng.integers(0, len(r), (draws, len(r)))], axis=1)
    lo, hi = np.quantile(meds, [0.025, 0.975])
    return {"median": round(float(np.median(r)), 4), "ci95": [round(float(lo), 4),
                                                              round(float(hi), 4)]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent tree")
    ap.add_argument("--change", help="git revision of the change tree (default: the "
                                     "checkout's src/adaptkit as it stands)")
    ap.add_argument("--stage", required=True, help="a harness.STAGES name")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--config", help="experiment config (JSON or YAML), read by each tree")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    sys.dont_write_bytecode = True
    with tempfile.TemporaryDirectory(prefix="adaptkit-ab-") as tmp:
        dirs = {side: Path(tmp) / f"ab_{side}" for side in SIDES}
        extract(args.parent, dirs["parent"])
        if args.change:
            extract(args.change, dirs["change"])
        else:
            shutil.copytree(ROOT / "src" / "adaptkit", dirs["change"],
                            ignore=shutil.ignore_patterns("__pycache__"))
        sys.path.insert(0, tmp)
        sides = {side: Side(dirs[side], args.config, args.stage) for side in SIDES}
        change = sides["change"].tensor
        change.keep_freed_memory()
        with change.one_blas_thread() as blas:
            data = {side: s.prepare() for side, s in sides.items()}
            if data["parent"] != data["change"]:
                raise SystemExit("the trees draw different datasets: no A/B on unequal inputs")
            digests = {sides[side].call()[2] for side in SIDES}  # untimed first calls
            times = {side: [] for side in SIDES}
            for i in range(args.pairs):
                for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                    wall, cpu, digest = sides[side].call()
                    times[side].append((wall, cpu))
                    digests.add(digest)
    rng = np.random.default_rng(0)
    ratios = {kind: [c[k] / p[k] for p, c in zip(times["parent"], times["change"])]
              for k, kind in enumerate(("wall", "thread"))}
    print(json.dumps({
        "parent": args.parent, "change": args.change or "checkout", "stage": args.stage,
        "pairs": args.pairs, "config": args.config or "defaults", "seed": sides["parent"].seed,
        "blas": blas, "inputs_equal": True, "outputs_equal": len(digests) == 1,
        **{f"{side}_median_{kind}_s": round(float(np.median([t[k] for t in times[side]])), 6)
           for side in SIDES for k, kind in enumerate(("wall", "thread"))},
        **{f"{kind}_ratio": interval(r, rng) for kind, r in ratios.items()},
        "ratios": {kind: [round(v, 4) for v in r] for kind, r in ratios.items()},
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
