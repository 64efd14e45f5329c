"""In-memory span tracer that times adaptkit's public functions from outside.

The tracer replaces each traced function with a wrapper in every adaptkit
module that binds it: functions imported by name (``from .data import
augment``) live under several module globals, and a call through a binding
left unwrapped would go uncounted. Methods are wrapped once, on their class.

Each call becomes a span (name, start, end, parent span, seed id) appended to
a per-thread list, so seeds running on the harness's worker threads never
share a span stack. Work counts (rows, flops, elements, bytes) go to
per-thread counters. Nothing is written until the run ends.
"""
from __future__ import annotations

import functools
import importlib
import os
import pkgutil
import sys
import threading
from collections import defaultdict
from time import perf_counter

# SGD steps are attributed to the nearest enclosing span with one of these names.
STEP_OWNERS = ("source.train_source", "selfsup.pretrain", "adapt.adapt", "distill.run_phase")
LOSS_VALUE_FUNCTIONS = ("cross_entropy", "entropy_loss", "diversity_loss", "infomax_loss",
                        "kl_soft_loss", "infonce_loss")


def _rows(name, i):
    def count(c, args, kwargs, result):
        c[name] += args[i].shape[0]
    return count


def _dense_forward(c, args, kwargs, result):
    w = args[0].weight.data
    rows = args[1].shape[0]
    c["layers.Dense.rows"] += rows
    c["layers.Dense.flops"] += 2 * rows * w.size


def _dense_backward(c, args, kwargs, result):
    # dW = dy^T x and dx = dy W: two B x in x out products.
    c["layers.Dense.flops"] += 4 * args[2].shape[0] * args[0].weight.data.size


def _sgd_step(c, args, kwargs, result):
    c["optim.SGD.step.elements"] += sum(p.data.size for p in args[0].params)


def _augment_rows(c, args, kwargs, result):
    c["data.augment.rows"] += args[0].shape[0]


def _evaluate_rows(c, args, kwargs, result):
    c["metrics.evaluate.rows"] += len(args[1])


def _file_bytes(i):
    def count(c, args, kwargs, result):
        c["checkpoint.bytes"] += os.path.getsize(args[i])
    return count


def _adapt_aborted(c, args, kwargs, result):
    c["adapt.aborted"] += int(result[1].aborted)


def _loss_value(c, args, kwargs, result):
    c["losses.value_calls"] += 1
    c["losses.clamped"] += int(result.clamped)


def _augment_name(args, kwargs):
    mode = args[2] if len(args) > 2 else kwargs["mode"]
    return "data.augment." + mode


# (module, attribute or Class.method, span name or f(args, kwargs) -> name, counter)
TARGETS = [
    ("harness", "run_seed", "harness.run_seed", None),
    ("harness", "make_datasets", "harness.make_datasets", None),
    ("source", "train_source", "source.train_source", None),
    ("adapt", "adapt", "adapt.adapt", _adapt_aborted),
    ("selfsup", "pretrain", "selfsup.pretrain", None),
    ("selfsup", "make_student", "distill.make_student", None),
    ("distill", "pseudo_label", "distill.pseudo_label", None),
    ("distill", "run_phase", "distill.run_phase", None),
    ("distill", "calibrate_classifier", "distill.calibrate_classifier", None),
    ("layers", "Dense.forward", "layers.Dense.forward", _dense_forward),
    ("layers", "Dense.backward", "layers.Dense.backward", _dense_backward),
    ("layers", "BatchNorm.forward", "layers.BatchNorm.forward", _rows("layers.BatchNorm.rows", 1)),
    ("layers", "BatchNorm.backward", "layers.BatchNorm.backward", None),
    ("layers", "ReLU.forward", "layers.ReLU.forward", _rows("layers.ReLU.rows", 1)),
    ("layers", "ReLU.backward", "layers.ReLU.backward", None),
    ("layers", "Network.copy", "layers.Network.copy", None),
    ("losses", "infonce_loss_grad", "losses.infonce_loss_grad", None),
    ("losses", "softmax", "losses.softmax", None),
    ("losses", "cross_entropy_grad", "losses.cross_entropy_grad", None),
    ("losses", "entropy_loss_grad", "losses.entropy_loss_grad", None),
    ("losses", "diversity_loss_grad", "losses.diversity_loss_grad", None),
    ("optim", "SGD.step", "optim.SGD.step", _sgd_step),
    ("tensor", "Tensor.add_grad", "tensor.Tensor.add_grad", None),
    ("data", "augment", _augment_name, _augment_rows),
    ("data", "generate", "data.generate", None),
    ("data", "apply_shift", "data.apply_shift", None),
    ("data", "subsample_longtail", "data.subsample_longtail", None),
    ("metrics", "evaluate", "metrics.evaluate", _evaluate_rows),
    ("checkpoint", "save_checkpoint", "checkpoint.save_checkpoint", _file_bytes(1)),
    ("checkpoint", "save_backbone", "checkpoint.save_backbone", _file_bytes(2)),
] + [("losses", f, "losses." + f, _loss_value) for f in LOSS_VALUE_FUNCTIONS]


class _ThreadState(threading.local):
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.seed = None
        self.counters: defaultdict = defaultdict(int)
        self.registered = False


class Tracer:
    """Install with install(), run the workload, then read spans()/counters()."""

    def __init__(self):
        self._state = _ThreadState()
        self._threads: list = []
        self._lock = threading.Lock()
        self._patches: list = []

    def _local(self):
        st = self._state
        if not st.registered:
            with self._lock:
                self._threads.append(st.__dict__)
            st.registered = True
        return st

    def _wrap(self, fn, name, count, seed_arg=None):
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = local()
            spans, stack = st.spans, st.stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            outer_seed = st.seed
            if seed_arg is not None:
                st.seed = args[seed_arg]
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name if isinstance(name, str) else name(args, kwargs),
                              t0, t1, parent, st.seed)
                st.seed = outer_seed
            if count is not None:
                count(st.counters, args, kwargs, result)
            return result
        return traced

    def install(self) -> "Tracer":
        import adaptkit
        for info in pkgutil.iter_modules(adaptkit.__path__):
            importlib.import_module(f"adaptkit.{info.name}")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "adaptkit" or n.startswith("adaptkit."))]
        for modname, attr, name, count in TARGETS:
            mod = sys.modules[f"adaptkit.{modname}"]
            owner_name, _, fn_name = attr.rpartition(".")
            seed_arg = 1 if attr == "run_seed" else None
            if owner_name:
                owner = getattr(mod, owner_name)
                original = owner.__dict__[fn_name]
                self._patch(owner, fn_name, self._wrap(original, name, count, seed_arg))
                continue
            original = getattr(mod, fn_name)
            wrapper = self._wrap(original, name, count, seed_arg)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)
        return self

    def _patch(self, owner, key, wrapper):
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def spans(self) -> list[list[tuple]]:
        """One span list per thread that made a traced call."""
        return [t["spans"] for t in self._threads]

    def counters(self) -> dict[str, int]:
        total: defaultdict = defaultdict(int)
        for t in self._threads:
            for k, v in t["counters"].items():
                total[k] += v
        return dict(total)


def span_totals(span_lists) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds.

    Self time is a span's duration minus the durations of its direct
    children; children always run on the parent's thread.
    """
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "incl": 0.0, "self": 0.0})
    for spans in span_lists:
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for (name, t0, t1, _, _), c in zip(spans, child):
            entry = out[name]
            entry["calls"] += 1
            entry["incl"] += t1 - t0
            entry["self"] += t1 - t0 - c
    return dict(out)


def step_counts(span_lists) -> dict[str, int]:
    """SGD steps per owning stage span (see STEP_OWNERS)."""
    steps = dict.fromkeys(STEP_OWNERS, 0)
    for spans in span_lists:
        for name, _, _, parent, _ in spans:
            if name != "optim.SGD.step":
                continue
            while parent >= 0 and spans[parent][0] not in steps:
                parent = spans[parent][3]
            if parent >= 0:
                steps[spans[parent][0]] += 1
    return steps


def seed_spans(span_lists) -> list[tuple[float, float, object]]:
    """(start, end, seed) of every harness.run_seed span."""
    return [(t0, t1, seed) for spans in span_lists
            for name, t0, t1, _, seed in spans if name == "harness.run_seed"]


def layer_metrics(span_lists, counters: dict, run_s: float,
                  run_start: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run: name -> (value, unit).

    `.s` is self time summed over all calls and threads; run_start is the
    perf_counter reading when run_experiment was called.
    """
    tot = span_totals(span_lists)

    def self_s(name):
        return tot[name]["self"] if name in tot else 0.0

    def calls(name):
        return tot[name]["calls"] if name in tot else 0

    steps = step_counts(span_lists)
    seeds = seed_spans(span_lists)
    pretrain_s = tot["selfsup.pretrain"]["incl"] if "selfsup.pretrain" in tot else 0.0
    dense_s = self_s("layers.Dense.forward") + self_s("layers.Dense.backward")
    value_calls = counters.get("losses.value_calls", 0)
    m = {
        "harness.run_seed.s": (self_s("harness.run_seed"), "s"),
        "harness.make_datasets.s": (self_s("harness.make_datasets"), "s"),
        "harness.queue_wait_s": (sum(t0 - run_start for t0, _, _ in seeds), "s"),
        "harness.seed_overlap": (sum(t1 - t0 for t0, t1, _ in seeds) / run_s, "ratio"),
        "source.train_source.s": (self_s("source.train_source"), "s"),
        "source.train_source.steps": (steps["source.train_source"], "count"),
        "adapt.adapt.s": (self_s("adapt.adapt"), "s"),
        "adapt.aborted": (counters.get("adapt.aborted", 0), "count"),
        "selfsup.pretrain.s": (self_s("selfsup.pretrain"), "s"),
        "selfsup.pretrain.steps": (steps["selfsup.pretrain"], "count"),
        "selfsup.steps_per_s": (steps["selfsup.pretrain"] / pretrain_s if pretrain_s else 0.0,
                                "1/s"),
        "distill.pseudo_label.s": (self_s("distill.pseudo_label"), "s"),
        "distill.run_phase.s": (self_s("distill.run_phase"), "s"),
        "distill.run_phase.calls": (calls("distill.run_phase"), "count"),
        "distill.make_student.s": (self_s("distill.make_student"), "s"),
        "distill.calibrate_classifier.s": (self_s("distill.calibrate_classifier"), "s"),
    }
    for layer in ("Dense", "BatchNorm", "ReLU"):
        base = f"layers.{layer}"
        m[f"{base}.forward.s"] = (self_s(f"{base}.forward"), "s")
        m[f"{base}.backward.s"] = (self_s(f"{base}.backward"), "s")
        m[f"{base}.calls"] = (calls(f"{base}.forward"), "count")
        m[f"{base}.rows"] = (counters.get(f"{base}.rows", 0), "count")
    flops = counters.get("layers.Dense.flops", 0)
    m["layers.Dense.flops"] = (flops, "flop")
    m["layers.Dense.gflops"] = (flops / dense_s / 1e9 if dense_s else 0.0, "GFLOP/s")
    m["layers.Network.copy.s"] = (self_s("layers.Network.copy"), "s")
    for name in ("infonce_loss", "infonce_loss_grad", "softmax", "cross_entropy_grad",
                 "entropy_loss_grad", "diversity_loss_grad"):
        m[f"losses.{name}.s"] = (self_s(f"losses.{name}"), "s")
    m["losses.clamped_frac"] = (counters.get("losses.clamped", 0) / value_calls
                                if value_calls else 0.0, "fraction")
    m["optim.SGD.step.s"] = (self_s("optim.SGD.step"), "s")
    m["optim.SGD.step.calls"] = (calls("optim.SGD.step"), "count")
    m["optim.SGD.step.elements"] = (counters.get("optim.SGD.step.elements", 0), "count")
    m["tensor.Tensor.add_grad.s"] = (self_s("tensor.Tensor.add_grad"), "s")
    m["tensor.Tensor.add_grad.calls"] = (calls("tensor.Tensor.add_grad"), "count")
    m["data.augment.strong.s"] = (self_s("data.augment.strong"), "s")
    m["data.augment.weak.s"] = (self_s("data.augment.weak"), "s")
    m["data.augment.rows"] = (counters.get("data.augment.rows", 0), "count")
    for name in ("generate", "apply_shift", "subsample_longtail"):
        m[f"data.{name}.s"] = (self_s(f"data.{name}"), "s")
    m["metrics.evaluate.s"] = (self_s("metrics.evaluate"), "s")
    m["metrics.evaluate.rows"] = (counters.get("metrics.evaluate.rows", 0), "count")
    m["checkpoint.save_checkpoint.s"] = (self_s("checkpoint.save_checkpoint"), "s")
    m["checkpoint.save_backbone.s"] = (self_s("checkpoint.save_backbone"), "s")
    m["checkpoint.bytes"] = (counters.get("checkpoint.bytes", 0), "B")
    return m
