"""Every function, class and method in polydiv is used by the program.

A module-level function or class, or a non-dunder method, of ``src/polydiv``
counts as used when its name occurs as a name or an attribute outside its own
body, in ``src/`` or ``bench/``.  References from ``tests/`` do not count:
code that only tests call belongs in ``tests/``.  Name-based matching cannot
tell two definitions of the same name apart, so this finds helpers that
nothing calls at all, not every unreachable one.
"""

import ast
import glob
import os
from collections import Counter

ROOT = os.path.join(os.path.dirname(__file__), "..")
SOURCES = sorted(glob.glob(os.path.join(ROOT, "src", "polydiv", "*.py")))
FILES = SOURCES + sorted(glob.glob(os.path.join(ROOT, "bench", "*.py")))

Definition = ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef


def definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, Definition):
            yield node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield item


def names(node: ast.AST) -> Counter:
    """How often each name or attribute occurs under ``node``."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def unreferenced() -> list[str]:
    total: Counter = Counter()
    defs = []
    for path in FILES:
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        total += names(tree)
        if path in SOURCES:
            defs += [(os.path.basename(path)[:-3], node) for node in definitions(tree)]
    return sorted(f"{module}.{node.name}" for module, node in defs
                  if total[node.name] == names(node)[node.name])


def test_no_unreferenced_definitions():
    assert unreferenced() == []
