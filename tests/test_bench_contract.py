"""The benchmark's contract with the package, checked in the fast suite: every
function the benchmark's tracer wraps still exists under its name, and every
span a workload requires is the span of some traced function. A refactor that
renames a traced function fails here, not only in the benchmark's own tests.

The benchmark's modules are loaded from their files as they are; nothing in
them runs beyond their top-level definitions.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while building
    spec.loader.exec_module(module)
    return module


tracer, workloads = _load("tracer"), _load("workloads")


def _target_exists(modname: str, attr: str) -> bool:
    """Whether the tracer can wrap `attr` of adaptkit.`modname`: a callable module
    attribute, or a method defined on the class itself (the tracer patches the
    class's own __dict__)."""
    module = importlib.import_module(f"adaptkit.{modname}")
    owner_name, _, fn_name = attr.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name, None)
        return owner is not None and callable(vars(owner).get(fn_name))
    return callable(getattr(module, fn_name, None))


def test_every_traced_target_exists():
    missing = [f"adaptkit.{m}.{a}" for m, a, _, _ in tracer.TARGETS if not _target_exists(m, a)]
    assert missing == []


def test_every_required_span_is_a_traced_span():
    names = {name for _, _, name, _ in tracer.TARGETS if isinstance(name, str)}
    # a target whose span name is computed per call (augment's mode) owns the
    # names under its module.attr prefix, such as data.augment.strong
    prefixes = tuple(f"{m}.{a}." for m, a, name, _ in tracer.TARGETS if not isinstance(name, str))
    required = {*workloads.ALWAYS_SPANS, *workloads.LONGTAIL_SPANS,
                *(span for spans in workloads.STAGE_SPANS.values() for span in spans)}
    assert sorted(s for s in required if s not in names and not s.startswith(prefixes)) == []
