"""adaptkit benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload full-1seed --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each experiment runs in a fresh process (child.py) whose environment holds
the workload's thread budget. With --trace 0 the run repeats the workload's
experiment until --seconds have passed (at least twice) and reports the
end-to-end metrics as medians over the repeats. With --trace 1 it alternates
untraced and traced experiments, adds a serial reference run when seeds run
in parallel and the kernel microbenchmark, and reports per-layer metrics.

Every run checks the outputs: a seed report with an error or without a stage
the workload enables fails, and so does any report.json digest that differs
between experiments of the same seed. The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, nproc, thread_env  # noqa: E402

CHILD = HERE / "child.py"
RUNS = HERE / "_runs"
MIN_REPEATS = 2  # the digest check needs two experiments of the same seeds
MIN_SETUPS = 5
DEADLINE_S = 170.0
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "seed_s_p50": "s", "seed_s_max": "s",
                    "cpu_s": "s", "peak_rss_mb": "MB", "final_acc": "fraction"}


class BenchError(Exception):
    pass


class Bench:
    """Runs one workload's experiments and checks their outputs."""

    def __init__(self, workload, seed: int, seconds: float, started: float):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.deadline = started + DEADLINE_S
        self.nproc = nproc()
        self.env = thread_env(workload, self.nproc)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, set[str]] = {}
        self._spawned = 0

    def spawn(self, mode: str, seed_workers: int | None = None) -> dict:
        env = dict(os.environ)
        env.update(thread_env(self.w, self.nproc, seed_workers))
        self._spawned += 1
        outdir = RUNS / f"{self.w.name}-{os.getpid()}-{self._spawned}"
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time")
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), mode, self.w.name, str(self.seed), str(outdir)],
                env=env, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired as e:
            raise BenchError(f"{mode} experiment did not end in time") from e
        if proc.returncode != 0:
            raise BenchError(f"{mode} experiment exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if "t_call" in result:
            result["setup_s"] = result["t_call"] - t_spawn
        if "seeds" in result:
            self._check(result["seeds"], mode)
        return result

    def _check(self, seeds: list[dict], mode: str) -> None:
        for s in seeds:
            self.attempted += 1
            acc = s["final_acc"]
            bad = []
            if s["error"]:
                bad.append(f"error {s['error']!r}")
            if s["missing"]:
                bad.append(f"missing {', '.join(s['missing'])}")
            if acc is None or not 0.0 <= acc <= 1.0:
                bad.append(f"final accuracy {acc!r}")
            if bad:
                self.fail(f"seed {s['seed']} ({mode}): {'; '.join(bad)}")
            self.digests.setdefault(str(s["seed"]), set()).add(s["digest"])

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def check_digests(self) -> None:
        for seed, digests in sorted(self.digests.items()):
            if len(digests) != 1:
                self.fail(f"seed {seed}: report.json differs between experiments: "
                          f"{sorted(digests)}")

    def check_spans(self, span_calls: dict[str, int]) -> None:
        on, off = self.w.expected_spans()
        for name in sorted(on):
            if span_calls.get(name, 0) == 0:
                self.fail(f"span {name} was never called")
        for name in sorted(off):
            if span_calls.get(name, 0) != 0:
                self.fail(f"span {name} was called {span_calls[name]} times on a "
                          f"workload that bypasses it")

    def _more(self, started: float, done: int, minimum: int, typical: float) -> bool:
        """Start another experiment? At least `minimum`, then only while one
        more of `typical` seconds still ends within --seconds."""
        now = time.monotonic()
        if now + typical > self.deadline:
            return False
        return done < minimum or now + typical - started <= self.seconds

    def end_to_end(self) -> tuple[dict, list[dict]]:
        self.spawn("setup")  # warm-up: bytecode caches, page cache
        runs: list[dict] = []
        took: list[float] = []
        started = time.monotonic()
        while self._more(started, len(runs), MIN_REPEATS,
                         statistics.median(took) if took else 0.0):
            t0 = time.monotonic()
            runs.append(self.spawn("run"))
            took.append(time.monotonic() - t0)
        setups = [r["setup_s"] for r in runs]
        while len(setups) < MIN_SETUPS:
            setups.append(self.spawn("setup")["setup_s"])
        self.check_digests()
        med = statistics.median
        accs = [s["final_acc"] for s in runs[0]["seeds"] if s["final_acc"] is not None]
        metrics = {
            "setup_s": med(setups),
            "run_s": med(r["run_s"] for r in runs),
            "seed_s_p50": med(med(r["seed_s"]) for r in runs),
            "seed_s_max": med(max(r["seed_s"]) for r in runs),
            "cpu_s": med(r["cpu_s"] for r in runs),
            "peak_rss_mb": med(r["peak_rss_mb"] for r in runs),
            "final_acc": med(accs) if accs else math.nan,
        }
        return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, runs

    def per_layer(self) -> tuple[dict, list[dict]]:
        plain: list[dict] = []
        traced: list[dict] = []
        took: list[float] = []
        started = time.monotonic()
        while self._more(started, len(traced), 1, statistics.median(took) if took else 0.0):
            t0 = time.monotonic()
            plain.append(self.spawn("run"))
            traced.append(self.spawn("trace"))
            took.append(time.monotonic() - t0)
        for t in traced:
            self.check_spans({k: v["calls"] for k, v in t["spans"].items()})
        workers = int(self.env["OTA_THREADS"])
        serial = [self.spawn("run", seed_workers=1)] if workers > 1 else plain
        self.check_digests()
        med = statistics.median
        metrics = {name: (med(t["layers"][name][0] for t in traced), unit)
                   for name, (_, unit) in traced[0]["layers"].items()}
        metrics["harness.serial_seed_sum_s"] = (med(sum(r["seed_s"]) for r in serial), "s")
        metrics["trace.overhead_s"] = (med(t["run_s"] for t in traced)
                                       - med(r["run_s"] for r in plain), "s")
        few = [s["few_acc"] for s in plain[0]["seeds"] if s["few_acc"] is not None]
        metrics["metrics.few_acc"] = (med(few) if few else 0.0, "fraction")
        metrics.update({k: tuple(v) for k, v in self.spawn("micro")["layers"].items()})
        return metrics, plain + traced


def environment(bench: Bench, runs: list[dict]) -> dict:
    blas = runs[0]["blas"]
    return {"nproc": bench.nproc, "python": platform.python_version(),
            "numpy": blas["numpy"], "blas_vendor": blas["vendor"],
            "blas_version": blas["version"], "OTA_THREADS": int(bench.env["OTA_THREADS"]),
            "blas_threads_set": int(bench.env["OPENBLAS_NUM_THREADS"]),
            "blas_threads_live": blas["live_threads"]}


def run_workload(name: str, seed: int, seconds: float, trace: bool, started: float) -> dict:
    bench = Bench(WORKLOADS[name], seed, seconds, started)
    metrics, runs = bench.per_layer() if trace else bench.end_to_end()
    print(f"# workload {name}: {WORKLOADS[name].why}")
    print(f"# environment {json.dumps(environment(bench, runs), sort_keys=True)}")
    print(f"# master seeds {bench.w.master_seeds(seed)}")
    for s, digests in sorted(bench.digests.items()):
        print(f"# report.json sha256 seed {s}: {' '.join(sorted(digests))}")
    for problem in bench.problems:
        print(f"# FAILED {problem}")
    for k, (v, unit) in metrics.items():
        print(f"{name:14s} {k:44s} {v!r:>24} {unit}")
    print(f"{name:14s} {'failed_frac':44s} {bench.failed / bench.attempted!r:>24} fraction")
    return {"correct": bench.failed == 0, "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (ROOT / "src" / "adaptkit" / "__init__.py").is_file():
        print(f"no adaptkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {}
        for name in names:
            # with `all`, each workload gets the time limit of one run
            t0 = time.monotonic() if args.workload == "all" else started
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), t0)
    except (BenchError, ValueError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    if len(results) == 1:
        line = results[names[0]]
    else:
        line = {"correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{n}.{k}": v for n, r in results.items()
                            for k, v in r["metrics"].items()}}
    for m in line["metrics"].values():
        if not math.isfinite(m["value"]):
            print("benchmark failed: non-finite metric", file=sys.stderr)
            return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
