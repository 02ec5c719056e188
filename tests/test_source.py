"""Source checks: no private module-level definition in ``src/lmpcast`` is dead code."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lmpcast"


def unreferenced_private_definitions(modules):
    """``module:name`` of each private module-level function or class that no
    code outside its own definition names, over ``(module, tree)`` pairs."""
    defined = []
    referenced = set()
    for module, tree in modules:
        for node in tree.body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = node.name
                if own.startswith("_") and not own.startswith("__"):
                    defined.append((module, own))
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    name = sub.id
                elif isinstance(sub, ast.Attribute):
                    name = sub.attr
                elif isinstance(sub, ast.alias):
                    name = sub.name
                else:
                    continue
                if name != own:
                    referenced.add(name)
    return [f"{module}:{name}" for module, name in defined if name not in referenced]


def test_every_private_definition_is_used():
    modules = [(path.name, ast.parse(path.read_text(encoding="utf-8"))) for path in sorted(SRC.glob("*.py"))]
    assert len(modules) > 5
    assert unreferenced_private_definitions(modules) == []


def test_check_sees_a_dead_definition():
    used = ast.parse("def _helper():\n    pass\n\nclass _Shape:\n    pass\n\nvalue = _helper\n")
    other = ast.parse("from .used import _Shape\n\ndef _recursive(n):\n    return _recursive(n - 1)\n")
    assert unreferenced_private_definitions([("used.py", used), ("other.py", other)]) == ["other.py:_recursive"]
