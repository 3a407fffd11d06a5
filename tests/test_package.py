"""Package surface: every exported name resolves, modules use each other's public names only,
only ``optim`` runs a training loop, and every package name the benchmark scripts read exists."""

import ast
import importlib
from pathlib import Path

import pytest

import sparsedistill

PACKAGE = Path(sparsedistill.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem not in ("__init__", "__main__"))
BENCHMARK = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("name", ["sparsedistill", *(f"sparsedistill.{m}" for m in MODULES)])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    assert [n for n in exported if not hasattr(module, n)] == []


def package_references(path: Path) -> list[str]:
    """``sparsedistill.module.name`` for each name ``path`` imports from the package, and for
    each attribute it reads on a name it imported from the package itself, such as a module
    (``from . import checkpoint``, then ``checkpoint.digest``)."""
    tree = ast.parse(path.read_text())
    found, imported = [], {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level > 0:
            module = ".".join(filter(None, ("sparsedistill", node.module)))
        elif (node.module or "").split(".")[0] == "sparsedistill":
            module = node.module
        else:
            continue
        for alias in node.names:
            found.append(f"{module}.{alias.name}")
            if module == "sparsedistill":
                imported[alias.asname or alias.name] = found[-1]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in imported):
            found.append(f"{imported[node.value.id]}.{node.attr}")
    return found


def private_imports(path: Path) -> list[str]:
    return [ref for ref in package_references(path) if ref.rsplit(".", 1)[1].startswith("_")]


def resolves(ref: str) -> bool:
    """Whether each dotted step of ``ref`` exists, importing package modules on the way."""
    parts = ref.split(".")
    obj = importlib.import_module(parts[0])
    for i, name in enumerate(parts[1:], start=2):
        if not hasattr(obj, name):
            try:  # a submodule that nothing has imported yet
                importlib.import_module(".".join(parts[:i]))
            except ModuleNotFoundError:
                return False
        obj = getattr(obj, name)
    return True


@pytest.mark.parametrize("module", MODULES + ["__init__", "__main__"])
def test_no_module_imports_another_modules_private_names(module):
    assert private_imports(PACKAGE / f"{module}.py") == []


def test_the_scan_sees_private_imports(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from .optim import _score, evaluate_student\nfrom . import checkpoint\n"
                    "from sparsedistill.student import _compact\ncheckpoint._digest()\n")
    assert private_imports(path) == ["sparsedistill.optim._score", "sparsedistill.student._compact",
                                     "sparsedistill.checkpoint._digest"]


def loop_calls(path: Path) -> list[str]:
    """The calls in ``path`` that only a training loop makes: an ``Adam`` constructed, and a
    ``.backward()``, each as ``name:line``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "Adam" or (name == "backward" and isinstance(func, ast.Attribute)):
            found.append(f"{name}:{node.lineno}")
    return found


@pytest.mark.parametrize("module", MODULES + ["__init__", "__main__"])
def test_only_optim_runs_a_training_loop(module):
    calls = sorted(c.split(":")[0] for c in loop_calls(PACKAGE / f"{module}.py"))
    assert calls == (["Adam", "backward"] if module == "optim" else [])


def test_the_loop_scan_sees_adam_and_backward(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from .optim import Adam\nfrom . import optim\nopt = Adam([])\n"
                    "opt2 = optim.Adam([])\nloss.backward()\nloss._backward(g)\nbackward()\n")
    assert sorted(loop_calls(path)) == ["Adam:3", "Adam:4", "backward:5"]


@pytest.mark.parametrize("script", sorted(p.name for p in BENCHMARK.glob("*.py")))
def test_benchmark_reads_only_names_the_package_has(script):
    refs = package_references(BENCHMARK / script)
    assert [ref for ref in refs if not resolves(ref)] == []


def test_the_benchmark_scan_sees_missing_names(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from sparsedistill import student, Tensor\n"
                    "from sparsedistill.tensor import RngStream, no_such_name\n"
                    "def f():\n    from sparsedistill.autograd import Tensor\n"
                    "student.kl_svd_node, student.kl_svd, Tensor.item, Tensor.no_such_method\n")
    refs = package_references(path)
    assert "sparsedistill.autograd.Tensor" in refs
    assert [ref for ref in refs if not resolves(ref)] == [
        "sparsedistill.tensor.no_such_name", "sparsedistill.student.kl_svd",
        "sparsedistill.Tensor.no_such_method"]
