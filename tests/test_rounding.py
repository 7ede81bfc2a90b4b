"""Seconds become samples in one place, and rates become header fields in
one place: ``preprocess.to_samples`` and ``dataio.header_rate`` are the
only functions of the package that call ``round``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _round_callers(tree):
    """The innermost enclosing function (None at module level) of each
    ``round(...)`` or ``<x>.round(...)`` call in ``tree``."""
    found = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            callee = node.func
            name = (callee.id if isinstance(callee, ast.Name)
                    else callee.attr if isinstance(callee, ast.Attribute)
                    else None)
            if name == "round":
                found.add(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_round_only_in_the_conversions():
    callers = set()
    for path in sorted((ROOT / "src" / "aadkit").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        callers |= {f"{path.stem}.{f}" for f in _round_callers(tree)}
    assert callers == {"dataio.header_rate", "preprocess.to_samples"}
