"""Every module under src/adaptkit uses what it imports, and imports its
package siblings in its import block, not inside a function, so that its
dependencies on them show at the top.

__init__.py is exempt from the first check: its imports are the package's
public re-exports.

No module walks a bare list of layers through `forward_layers` or `backward_layers`:
every stage trains a `Network`, whose `forward` and `backward` walk its own layers.
Only `optim.fit` runs a train step: no other module runs a train-mode forward, calls a
backward or defines a `grads` step of its own (layers.py defines the walk, so it is exempt).
The adaptation stages (adapt.py, selfsup.py, distill.py) take the target's feature array
and never see a label: none of them imports `Dataset` or reads a `labels` attribute.
Only tensor.py loads a library through ctypes: `one_blas_thread` owns numpy's OpenBLAS,
and `keep_freed_memory` the C library's mallopt.
"""
import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "adaptkit"


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def imports_in_functions(path: Path) -> list[str]:
    """Package-internal imports (`from .x import ...`) inside a function body."""
    funcs = [n for n in ast.walk(ast.parse(path.read_text()))
             if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return [f"{path.name}:{node.lineno}: from {'.' * node.level}{node.module or ''}"
            for f in funcs for node in ast.walk(f)
            if isinstance(node, ast.ImportFrom) and node.level > 0]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_package_imports_in_functions(path):
    assert imports_in_functions(path) == []


def calls_to(path: Path, names: set[str]) -> list[str]:
    """Lines that call one of `names`, by its bare or its module-qualified name."""
    return [f"{path.name}:{node.lineno}" for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) in names]


def test_only_layers_walks_a_layer_list():
    # a stage's step is one Network forward, one loss and one Network backward; the
    # layer-list walkers live in the tests' fdcheck as a reference, not in the package
    walkers = {"forward_layers", "backward_layers"}
    defined = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef) and node.name in walkers]
    calls = [c for path in sorted(SRC.glob("*.py")) for c in calls_to(path, walkers)]
    assert defined == calls == []


def test_only_fit_runs_a_train_step():
    # each stage hands fit its batch and its loss; fit runs the train forward and backward
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name not in ("optim.py", "layers.py")]
    backward_calls = [c for path in paths for c in calls_to(path, {"backward"})]
    train_forwards = [
        f"{path.name}:{node.lineno}" for path in paths
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "forward"
        and (any(kw.arg == "train" and getattr(kw.value, "value", None) is True
                 for kw in node.keywords)
             or (len(node.args) > 1 and getattr(node.args[1], "value", None) is True))]
    grads = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.FunctionDef) and node.name == "grads"]
    assert backward_calls == train_forwards == grads == []


def test_adaptation_stages_read_no_labels():
    # the stages learn from target features and the source model's predictions alone; the
    # evaluation labels reach stage 3 only through its eval_fn
    seen = [f"{name}:{node.lineno}" for name in ("adapt.py", "selfsup.py", "distill.py")
            for node in ast.walk(ast.parse((SRC / name).read_text()))
            if (isinstance(node, ast.ImportFrom) and any(a.name == "Dataset" for a in node.names))
            or (isinstance(node, ast.Attribute) and node.attr == "labels")]
    assert seen == []


def test_only_tensor_loads_openblas_and_only_when_first_used():
    # one module holds the ctypes handles; importing adaptkit loads no OpenBLAS and sets
    # no heap setting
    users = [p.name for p in sorted(SRC.glob("*.py")) if "ctypes" in p.read_text()]
    assert users == ["tensor.py"]
    probe = ("import adaptkit; print(adaptkit.tensor._openblas.cache_info().currsize, "
             "adaptkit.tensor.keep_freed_memory.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", probe], cwd=SRC.parent, capture_output=True,
                          text=True, timeout=60)
    assert proc.stdout.split() == ["0", "0"], proc.stderr[-2000:]
