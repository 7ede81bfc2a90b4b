"""The package imports exactly the third-party packages it declares."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def test_third_party_imports_match_declared_dependencies():
    imported = set()
    for path in (ROOT / "src" / "aadkit").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"aadkit"}
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower()
                for spec in project["dependencies"]}
    assert third_party == declared == {"numpy", "scipy"}


def _module_level_imports(tree):
    """Import statements outside every function body of ``tree``."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def test_scipy_is_imported_on_first_use():
    """``scipy.linalg`` costs about 0.3 s to import; only the functions
    that solve a Cholesky system may import it, so commands that solve
    none load no SciPy module."""
    offenders = []
    for path in sorted((ROOT / "src" / "aadkit").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in _module_level_imports(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                names = [node.module or ""]
            if any(n.split(".")[0] == "scipy" for n in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def _scipy_subpackages(node):
    """The ``scipy.<name>`` subpackages one import statement loads."""
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    elif node.level == 0 and node.module.split(".")[0] == "scipy":
        names = ([node.module] if "." in node.module
                 else [f"scipy.{a.name}" for a in node.names])
    else:
        names = []
    return {".".join(n.split(".")[:2]) for n in names
            if n.split(".")[0] == "scipy"}


def test_only_the_cholesky_path_imports_scipy():
    """The Cholesky factor and solve of the Wiener filter are the one user
    of SciPy, through ``scipy.linalg``. Filter designs, IIR filtering and
    the gammatone resonators are numpy, so no module imports
    ``scipy.signal``."""
    users = {}
    for path in sorted((ROOT / "src" / "aadkit").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    for sub in _scipy_subpackages(node):
                        users.setdefault(sub, set()).add(
                            f"{path.stem}.{fn.name}")
    assert users == {
        "scipy.linalg": {"kernels.cholesky_inplace", "numerics._cho_solve"},
    }
