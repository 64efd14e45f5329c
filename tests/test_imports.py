"""Every module under src/adaptkit uses what it imports, and imports its
package siblings in its import block, not inside a function, so that its
dependencies on them show at the top.

__init__.py is exempt from the first check: its imports are the package's
public re-exports.

Only optim.py calls `Workspace(`: `fit` makes each training loop's workspace.
Only layers.py calls the layer-list walkers: every stage trains a `Network`.
"""
import ast
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


def test_only_fit_makes_a_workspace():
    # optim.fit owns each training loop's workspace; no stage builds its own
    calls = [c for path in sorted(SRC.glob("*.py")) for c in calls_to(path, {"Workspace"})]
    assert [c.split(":")[0] for c in calls] == ["optim.py"]


def test_only_layers_walks_a_layer_list():
    # a stage's step is one Network forward, one loss and one Network backward
    walkers = {"forward_layers", "backward_layers"}
    calls = [c for path in sorted(SRC.glob("*.py")) for c in calls_to(path, walkers)]
    assert {c.split(":")[0] for c in calls} == {"layers.py"}, calls
