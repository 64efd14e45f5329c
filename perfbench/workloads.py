"""The benchmark's workloads: what each one runs and its thread budget.

This module is plain data so that the runner can read it without importing
numpy or adaptkit; the experiment process turns a workload into an
ExperimentConfig (see child.py).

Every workload is a batch job driven by one closed-loop client: one
experiment runs at a time, the next starts when the previous one ended.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

# Thread budgets are written in terms of nproc so that seed workers x BLAS
# threads never exceeds the cores this process may run on.
NPROC = "nproc"

# Spans that must run on a workload that enables the stage, and spans that
# must not run at all on a workload that bypasses it.
STAGE_SPANS = {
    "stage0": ["source.train_source", "optim.SGD.step", "losses.cross_entropy_grad"],
    "stage1": ["adapt.adapt", "losses.entropy_loss_grad", "losses.diversity_loss_grad"],
    "stage2": ["selfsup.pretrain", "losses.infonce_loss", "losses.infonce_loss_grad",
               "data.augment.strong", "checkpoint.save_backbone"],
    "stage3": ["distill.pseudo_label", "distill.run_phase", "distill.make_student",
               "data.augment.weak", "data.augment.strong"],
    "calibrate": ["distill.calibrate_classifier", "data.augment.weak"],
}
ALWAYS_SPANS = ["harness.run_seed", "harness.make_datasets", "data.generate",
                "data.apply_shift", "metrics.evaluate", "checkpoint.save_checkpoint",
                "losses.softmax", "layers.Dense.forward", "layers.Dense.backward",
                "layers.BatchNorm.forward", "layers.BatchNorm.backward",
                "layers.ReLU.forward", "layers.ReLU.backward",
                "tensor.Tensor.add_grad", "layers.Network.copy"]
LONGTAIL_SPANS = ["data.subsample_longtail"]
# Report keys each enabled stage must leave in every seed's report.json.
STAGE_REPORT_KEYS = {
    "stage0": [("metrics", "source_only")],
    "stage1": [("adapt",), ("metrics", "stage1")],
    "stage2": [("contrastive",)],
    "stage3": [("distill",), ("metrics", "stage3")],
    "calibrate": [("calibration",), ("metrics", "calibrated")],
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stages: tuple[str, ...]  # subset of STAGE_SPANS keys, stage0 always first
    num_seeds: int
    seed_workers: str | int  # OTA_THREADS
    blas_threads: str | int
    imbalance_ratio: float | None = None

    def threads(self, nproc: int) -> tuple[int, int]:
        """(seed workers, BLAS threads) for a machine with nproc cores."""
        def resolve(v):
            return nproc if v == NPROC else int(v)
        return resolve(self.seed_workers), resolve(self.blas_threads)

    def master_seeds(self, seed: int) -> list[int]:
        """The experiment's master seeds, a pure function of --seed."""
        return [seed * 1000 + i for i in range(self.num_seeds)]

    def config_dict(self, seed: int, outdir: str) -> dict:
        """ExperimentConfig.from_dict input; every field not named is a default."""
        d = {"stage1": "stage1" in self.stages, "stage2": "stage2" in self.stages,
             "stage3": "stage3" in self.stages, "calibrate": "calibrate" in self.stages,
             "seeds": self.master_seeds(seed), "outdir": outdir}
        if self.imbalance_ratio is not None:
            d["imbalance_ratio"] = self.imbalance_ratio
        return d

    def expected_spans(self) -> tuple[set[str], set[str]]:
        """(spans that must be called, spans that must not be called)."""
        on = set(ALWAYS_SPANS)
        off = set()
        for stage, spans in STAGE_SPANS.items():
            (on if stage in self.stages else off).update(spans)
        (on if self.imbalance_ratio is not None else off).update(LONGTAIL_SPANS)
        return on, off - on


WORKLOADS = {w.name: w for w in [
    Workload(
        "full-1seed",
        "default benchmark, stages 0-3 on one seed: stage 2 (InfoNCE, strong augment, "
        "train-mode layers) is ~80% of it and seed scheduling is bypassed",
        ("stage0", "stage1", "stage2", "stage3"), num_seeds=1,
        seed_workers=1, blas_threads=NPROC),
    Workload(
        "multiseed-par",
        "default benchmark, stages 0, 1 and 3 on 4 seeds in parallel: seed scheduling "
        "sets the run time and stage 2 is bypassed",
        ("stage0", "stage1", "stage3"), num_seeds=4,
        seed_workers=NPROC, blas_threads=1),
    Workload(
        "longtail-cal",
        "imbalance 100, stage 0 plus calibration on 10 seeds, single-threaded: small-N "
        "training, eval-mode forwards and per-seed file writes dominate",
        ("stage0", "calibrate"), num_seeds=10,
        seed_workers=1, blas_threads=1, imbalance_ratio=100.0),
]}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def thread_env(workload: Workload, n: int, seed_workers: int | None = None) -> dict[str, str]:
    """Environment variables that fix the workload's thread budget.

    Raises ValueError when seed workers x BLAS threads would exceed n.
    """
    workers, blas = workload.threads(n)
    if seed_workers is not None:
        workers = seed_workers
    if workers < 1 or blas < 1 or workers * blas > n:
        raise ValueError(f"{workload.name}: {workers} seed workers x {blas} BLAS threads "
                         f"exceeds nproc={n}")
    blas_s = str(blas)
    return {"OTA_THREADS": str(workers), "OPENBLAS_NUM_THREADS": blas_s,
            "OMP_NUM_THREADS": blas_s, "MKL_NUM_THREADS": blas_s}
