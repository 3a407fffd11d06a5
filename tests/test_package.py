"""Package surface: every exported name resolves, modules use each other's public names only,
only ``optim`` runs a training loop, only ``tensor.derived`` keeps values on a network, float32
appears only where a path computes in it, and every package name the benchmark scripts read
exists."""

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


def kept_uses(path: Path) -> list[str]:
    """``function:line`` for each use in ``path`` of a ``_kept`` attribute (``net._kept``, or
    the name as a string, as ``getattr`` takes it), named by the innermost function around it."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Attribute) and child.attr == "_kept"
                    or isinstance(child, ast.Constant) and child.value == "_kept"):
                found.append(f"{function}:{child.lineno}")
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            visit(child, getattr(child, "name", "<lambda>") if named else function)
    visit(ast.parse(path.read_text()), "<module>")
    return found


@pytest.mark.parametrize("module", MODULES + ["__init__", "__main__"])
def test_only_the_shared_helper_keeps_values(module):
    functions = {use.split(":")[0] for use in kept_uses(PACKAGE / f"{module}.py")}
    assert functions == ({"derived"} if module == "tensor" else set())


def test_the_kept_scan_sees_every_use(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("class Net:\n    _kept: dict = None\n"
                    "def derived(net):\n    return net._kept\n"
                    "def forward(net):\n    net._kept['w'] = 1\n"
                    "    f = lambda: getattr(net, '_kept')\n"
                    "kept = Net()._kept\n")
    assert kept_uses(path) == ["derived:4", "forward:6", "<lambda>:7", "<module>:8"]


FLOAT32 = {"float32", "single", "f4"}
# the student's training products, and the float32 inference that predates them
FLOAT32_OWNERS = {"student": {"student_logits_node"}, "losses": {"total_loss"},
                  "tensor": {"_as_float"}, "teacher": {"forward_logits"}}


def float32_uses(path: Path) -> list[str]:
    """``owner:line`` for each float32 that ``path`` names (``np.float32``, ``np.single``, the bare
    name, or a dtype string), by the module-level function or class around it."""
    found = []
    for top in ast.parse(path.read_text()).body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and node.attr in FLOAT32
                    or isinstance(node, ast.Name) and node.id in FLOAT32
                    or isinstance(node, ast.Constant) and node.value in FLOAT32):
                found.append(f"{getattr(top, 'name', '<module>')}:{node.lineno}")
    return found


@pytest.mark.parametrize("module", MODULES + ["__init__", "__main__"])
def test_float32_only_where_a_path_computes_in_it(module):
    owners = {use.split(":")[0] for use in float32_uses(PACKAGE / f"{module}.py")}
    assert owners == FLOAT32_OWNERS.get(module, set())


def test_the_float32_scan_sees_every_spelling(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import numpy as np\nfrom numpy import float32\n"
                    "def f(x, dtype=np.float32):\n    return x.astype('float32')\n"
                    "class C:\n    def g(self):\n        return [float32(1) for _ in 'f4']\n"
                    "y = np.zeros(3, dtype=np.single)\nz = np.float64(1.0)\n")
    assert float32_uses(path) == ["f:3", "f:4", "C:7", "C:7", "<module>:8"]


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
