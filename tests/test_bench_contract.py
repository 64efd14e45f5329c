"""The benchmark's contract with the package, checked in the fast suite: every
function the benchmark's tracer wraps still exists under its name, every span a
workload requires is the span of some traced function, and every argument the
tracer's counters read by position still sits at that position. A refactor that
renames a traced function or moves a counted argument fails here, not only in
the benchmark's own tests.

The benchmark's modules are loaded from their files as they are. Beyond their
top-level definitions, only the tracer runs: installed around a tiny one-seed
run of a workload's stages, it must see every span the workload requires and
none that it bypasses, as the benchmark's own multi-minute self-checks do.
"""
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from adaptkit.data import GeneratorSpec
from adaptkit.harness import run_experiment
from test_harness import tiny_config

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while building
    spec.loader.exec_module(module)
    return module


tracer, workloads = _load("tracer"), _load("workloads")


def _resolve(modname: str, attr: str):
    """What the tracer would wrap for `attr` of adaptkit.`modname`: a module attribute,
    or a method defined on the class itself (the tracer patches the class's own
    __dict__); None if there is none."""
    module = importlib.import_module(f"adaptkit.{modname}")
    owner_name, _, fn_name = attr.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name, None)
        return None if owner is None else vars(owner).get(fn_name)
    return getattr(module, fn_name, None)


def test_every_traced_target_exists():
    missing = [f"adaptkit.{m}.{a}" for m, a, _, _ in tracer.TARGETS
               if not callable(_resolve(m, a))]
    assert missing == []


def test_every_required_span_is_a_traced_span():
    names = {name for _, _, name, _ in tracer.TARGETS if isinstance(name, str)}
    # a target whose span name is computed per call (augment's mode) owns the
    # names under its module.attr prefix, such as data.augment.strong
    prefixes = tuple(f"{m}.{a}." for m, a, name, _ in tracer.TARGETS if not isinstance(name, str))
    required = {*workloads.ALWAYS_SPANS, *workloads.LONGTAIL_SPANS,
                *(span for spans in workloads.STAGE_SPANS.values() for span in spans)}
    assert sorted(s for s in required if s not in names and not s.startswith(prefixes)) == []


# The positional arguments that the tracer reads from a traced call, as
# (parameter name, position) per target; a method's `self` is position 0.
COUNTED_SLOTS = {
    ("harness", "run_seed"): [("seed", 1)],
    ("layers", "Dense.forward"): [("x", 1)],
    ("layers", "Dense.backward"): [("dy", 2)],
    ("layers", "BatchNorm.forward"): [("x", 1)],
    ("layers", "ReLU.forward"): [("x", 1)],
    ("data", "augment"): [("x", 0), ("mode", 2)],
    ("metrics", "evaluate"): [("dataset", 1)],
    ("checkpoint", "save_checkpoint"): [("path", 1)],
    ("checkpoint", "save_backbone"): [("path", 2)],
}
# targets whose counter reads only `self` or the call's result
UNSLOTTED_COUNTERS = {("optim", "SGD.step"), ("adapt", "adapt"),
                      *(("losses", f) for f in tracer.LOSS_VALUE_FUNCTIONS)}


def test_every_counted_argument_keeps_its_position():
    counted = {(m, a) for m, a, name, count in tracer.TARGETS
               if count is not None or not isinstance(name, str)}
    assert counted | {("harness", "run_seed")} == set(COUNTED_SLOTS) | UNSLOTTED_COUNTERS
    moved = [f"adaptkit.{m}.{a}: {param} at {pos}"
             for (m, a), slots in COUNTED_SLOTS.items() for param, pos in slots
             if list(inspect.signature(_resolve(m, a)).parameters)[pos:pos + 1] != [param]]
    assert moved == []


# the tiny run's source must keep a row of every class at the workload's imbalance ratio
TINY_SHAPES = {"full-1seed": {}, "multiseed-par": {},
               "longtail-cal": {"benchmark": GeneratorSpec(n_per_class=200, num_classes=4,
                                                           input_dim=8)}}


@pytest.mark.parametrize("name", sorted(TINY_SHAPES))
def test_traced_tiny_run_calls_required_spans_and_no_bypassed_one(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    cfg = {k: v for k, v in workload.config_dict(0, str(tmp_path)).items() if k != "seeds"}
    traced = tracer.Tracer().install()
    try:
        run_experiment(tiny_config(**cfg, **TINY_SHAPES[name], seeds=(0,)))
    finally:
        traced.uninstall()
    called = {span[0] for spans in traced.spans() for span in spans}
    required, bypassed = workload.expected_spans()
    assert sorted(required - called) == []
    assert sorted(bypassed & called) == []
