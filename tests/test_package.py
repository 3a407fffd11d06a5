"""Package surface: every exported name resolves, and modules use each other's public names only."""

import ast
import importlib
from pathlib import Path

import pytest

import sparsedistill

PACKAGE = Path(sparsedistill.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem not in ("__init__", "__main__"))


@pytest.mark.parametrize("name", ["sparsedistill", *(f"sparsedistill.{m}" for m in MODULES)])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    assert [n for n in exported if not hasattr(module, n)] == []


def private_imports(path: Path) -> list[str]:
    """``module.name`` for each ``_``-prefixed name ``path`` imports from the package, or reads
    from a package module it imported whole."""
    tree = ast.parse(path.read_text())
    found, modules = [], set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        inside = node.level > 0 or (node.module or "").split(".")[0] == "sparsedistill"
        for alias in node.names if inside else ():
            if alias.name.startswith("_"):
                found.append(f"{node.module or '.'}.{alias.name}")
            elif node.module in (None, "sparsedistill"):  # ``from . import checkpoint``
                modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append(f"{node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("module", MODULES + ["__init__", "__main__"])
def test_no_module_imports_another_modules_private_names(module):
    assert private_imports(PACKAGE / f"{module}.py") == []


def test_the_scan_sees_private_imports(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from .optim import _score, evaluate_student\nfrom . import checkpoint\n"
                    "from sparsedistill.student import _compact\ncheckpoint._digest()\n")
    assert private_imports(path) == ["optim._score", "sparsedistill.student._compact",
                                     "checkpoint._digest"]
