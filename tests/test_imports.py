"""Every name a package module imports is read somewhere in that module, and the package keeps its code budget.

A deletion that leaves its import behind (``dataclass`` once the last
dataclass in a module goes, say) fails here. A name listed in a module's
``__all__`` counts as read, so the package's re-exports pass.

The budget counts code lines only: docstrings, comment-only lines and
blank lines are free, so prose can grow while code may not.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "telelocal").rglob("*.py"))
# code lines in src; a change that adds code raises it and says so in CHANGES.md
CODE_BUDGET = 1010


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name each import binds -> its line, without ``from __future__`` imports."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _read(tree: ast.Module) -> set[str]:
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return names


def test_no_module_imports_a_name_it_never_reads():
    assert SOURCES
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        read = _read(tree)
        unread = {name: line for name, line in _imported(tree).items() if name not in read}
        assert not unread, f"{path.name} imports names it never reads: {unread}"


def test_the_check_sees_an_unread_import():
    tree = ast.parse("from dataclasses import dataclass\nimport numpy as np\nimport os.path\n\nx = np.pi\n")
    assert {name for name in _imported(tree) if name not in _read(tree)} == {"dataclass", "os"}
    exported = ast.parse("from . import qcore\n\n__all__ = ['qcore']\n")
    assert _imported(exported).keys() <= _read(exported)


def _code_lines(text: str) -> int:
    """Lines that are not blank, not only a comment and not part of a module, class or function docstring."""
    tree = ast.parse(text)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = enumerate(text.splitlines(), 1)
    return sum(1 for number, line in lines if number not in docstrings and line.strip() and not line.strip().startswith("#"))


def test_src_keeps_its_code_budget():
    count = sum(_code_lines(path.read_text()) for path in SOURCES)
    assert count <= CODE_BUDGET, f"src has {count} code lines, over its budget of {CODE_BUDGET}"


def test_the_budget_counts_only_code():
    text = '''"""Module docstring,
over two lines."""

import os  # a trailing comment stays code

# a comment


def f():
    """One line."""
    x = """not a docstring,
    so both lines count"""
    return x
'''
    # import, def, the two lines of x and return
    assert _code_lines(text) == 5
