"""No module under ``src/repro`` imports a name it never uses.

A module-level import binds a name; the module must read that name
somewhere: in code, in an annotation (a quoted one too), or in ``__all__``.
Package ``__init__.py`` files are exempt: their imports are re-exports.  No
linter is part of the toolchain, so the check is this test.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def module_imports(tree: ast.Module):
    """(bound name, line) of every import at module level, those in a
    top-level ``if`` / ``try`` block (``TYPE_CHECKING``, fallbacks)
    included; ``from __future__`` binds nothing."""
    body = list(tree.body)
    while body:
        node = body.pop(0)
        if isinstance(node, ast.If):
            body[:0] = node.body + node.orelse
        elif isinstance(node, ast.Try):
            body[:0] = node.body + [stmt for handler in node.handlers
                                    for stmt in handler.body]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def names_read(tree: ast.Module):
    """Every name the module reads: loads and attribute roots, the names
    in string annotations, and the entries of ``__all__``."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations += [a.annotation for a in (
                args.posonlyargs + args.args + args.kwonlyargs
                + [args.vararg, args.kwarg]) if a is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.update(names_read(ast.parse(node.value, mode="eval")))
    return used


def unused_imports(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = names_read(tree)
    return [f"{path.relative_to(SRC.parent)}:{line} {name}"
            for name, line in module_imports(tree) if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    found = [entry for path in sorted(SRC.rglob("*.py"))
             if path.name != "__init__.py"
             for entry in unused_imports(path)]
    assert found == []


def test_the_check_sees_every_kind_of_use():
    source = '''
from typing import TYPE_CHECKING, Dict, List, Optional
import os.path
import json as js
from collections import deque
if TYPE_CHECKING:
    from .pilot.session import Session
    from .pilot.task import Task
__all__ = ["deque"]

def f(x: "Optional[Session]") -> Dict[str, int]:
    return os.path.join(x)
'''
    tree = ast.parse(source)
    used = names_read(tree)
    unused = sorted(name for name, _ in module_imports(tree)
                    if name not in used)
    assert unused == ["List", "Task", "js"]
