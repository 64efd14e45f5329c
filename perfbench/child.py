"""One experiment process of the benchmark, started by run.py.

Usage: child.py {setup|run|trace|micro} WORKLOAD SEED OUTDIR

The runner sets the thread budget in this process's environment before
numpy is imported. The process prints one JSON object on its last line:

- setup: the CLOCK_MONOTONIC reading when the experiment would be started
  (imports and config done), so that the runner can time set-up from spawn;
- run / trace: that reading plus run time, CPU time, peak RSS, per-seed
  times from timings.json and, per seed, the report.json digest, any error,
  missing stage keys and accuracies; trace adds the per-layer metrics;
- micro: the kernel microbenchmark metrics.
"""
from __future__ import annotations

import ctypes
import hashlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def import_adaptkit():
    sys.path.insert(0, str(SRC))
    import adaptkit
    if Path(adaptkit.__file__).resolve().parent != SRC / "adaptkit":
        raise SystemExit(f"adaptkit imported from {adaptkit.__file__}, not {SRC}")
    return adaptkit


def blas_info() -> dict:
    """BLAS vendor from numpy's build record and its live thread count."""
    import numpy as np
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"vendor": blas.get("name"), "version": blas.get("version"),
            "live_threads": threads, "numpy": np.__version__}


def _usage() -> tuple[float, float]:
    """(CPU seconds, peak RSS MB) of this process plus its children.

    Peak RSS is this process's ru_maxrss plus that of its largest child.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, (own.ru_maxrss + kids.ru_maxrss) / 1024.0


def _dig(d: dict, path: tuple[str, ...]):
    for key in path:
        if not isinstance(d, dict) or key not in d:
            return None
        d = d[key]
    return d


def seed_results(workload, outdir: Path, seeds: list[int]) -> list[dict]:
    from workloads import STAGE_REPORT_KEYS
    out = []
    for seed in seeds:
        raw = (outdir / f"seed_{seed}" / "report.json").read_bytes()
        rep = json.loads(raw)
        metrics = rep.get("metrics", {})
        final = next((s for s in ("calibrated", "stage3", "stage1", "source_only")
                      if s in metrics), None)
        missing = [".".join(p) for stage in workload.stages
                   for p in STAGE_REPORT_KEYS[stage] if _dig(rep, p) is None]
        out.append({
            "seed": seed, "digest": hashlib.sha256(raw).hexdigest(),
            "error": rep.get("error"), "missing": missing,
            "final_acc": metrics[final]["overall_acc"] if final else None,
            "few_acc": _dig(metrics, ("calibrated", "buckets", "few")),
        })
    return out


def run(workload, seed: int, outdir: Path, traced: bool) -> dict:
    from adaptkit import harness
    cfg = harness.ExperimentConfig.from_dict(workload.config_dict(seed, str(outdir)))
    shutil.rmtree(outdir, ignore_errors=True)
    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer().install()
    cpu0, _ = _usage()
    t_call = time.monotonic()
    t0 = time.perf_counter()
    harness.run_experiment(cfg)
    run_s = time.perf_counter() - t0
    cpu1, rss = _usage()
    if tracer is not None:
        tracer.uninstall()
    timings = json.loads((outdir / "timings.json").read_text())["seconds_per_seed"]
    result = {"t_call": t_call, "run_s": run_s, "cpu_s": cpu1 - cpu0, "peak_rss_mb": rss,
              "seed_s": list(timings.values()),
              "seeds": seed_results(workload, outdir, list(cfg.seeds))}
    if tracer is not None:
        from tracer import layer_metrics, span_totals
        spans = tracer.spans()
        result["layers"] = layer_metrics(spans, tracer.counters(), run_s, t0)
        result["spans"] = span_totals(spans)
    return result


def main(argv: list[str]) -> int:
    mode, name, seed, outdir = argv[0], argv[1], int(argv[2]), Path(argv[3])
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    workload = WORKLOADS[name]
    import_adaptkit()
    if mode == "setup":
        from adaptkit import harness
        harness.ExperimentConfig.from_dict(workload.config_dict(seed, str(outdir)))
        result = {"t_call": time.monotonic()}
    elif mode in ("run", "trace"):
        result = run(workload, seed, outdir, traced=mode == "trace")
        result["blas"] = blas_info()
    elif mode == "micro":
        import micro
        result = {"layers": micro.run(seed, outdir)}
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    shutil.rmtree(outdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
