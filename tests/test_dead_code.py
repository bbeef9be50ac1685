"""Every function, class, method and module-level name in polydiv is used
by the program.

References are resolved, not matched by bare name, so a name that two
definitions share cannot hide either of them.  A module-level function or
class ``name`` of module M counts as used only through

- an import of it from M (``from .M import name``),
- an attribute ``X.name`` where X names M: the module name itself, an
  import alias such as ``up`` or ``ser``, or a module table entry
  ``pd["M"]``,
- a use of the bare name inside M, outside its own body.

A non-dunder method or property counts as used only through an attribute
access ``.name`` outside its own body; it still cannot be told apart from a
method of the same name in another class.  A name that a module-level
assignment binds (a constant such as ``_PRIME``, a type alias, a table)
counts as used like a module-level function, its own assignment aside.
References count from ``src/`` and ``bench/``, not from ``tests/``: code
that only tests call belongs in ``tests/``.

Every name an import binds, in ``src/``, ``bench/`` and ``tests/``, is used
in its file: as a name, as the base of an attribute, or inside a quoted
annotation.  ``from __future__`` imports bind no name.
"""

import ast
import glob
import os
from collections import Counter

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
SOURCES = sorted(glob.glob(os.path.join(ROOT, "src", "polydiv", "*.py")))
FILES = SOURCES + sorted(glob.glob(os.path.join(ROOT, "bench", "*.py")))
TESTS = sorted(glob.glob(os.path.join(ROOT, "tests", "*.py")))
MODULES = {os.path.basename(path)[:-3] for path in SOURCES}

Function = ast.FunctionDef | ast.AsyncFunctionDef


def source_module(node: ast.ImportFrom) -> str | None:
    """The polydiv module an import takes names from; "" for the package."""
    if node.level == 1 or node.module == "polydiv":
        return node.module or ""
    if node.module and node.module.startswith("polydiv."):
        return node.module[len("polydiv."):]
    return None


def module_aliases(tree: ast.Module) -> dict[str, str]:
    """Local name -> polydiv module, for every module import in ``tree``."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and source_module(node) == "":
            aliases.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.Import):
            aliases.update((a.asname, a.name[len("polydiv."):]) for a in node.names
                           if a.asname and a.name.startswith("polydiv."))
    return aliases


def module_of(node: ast.expr, aliases: dict[str, str]) -> str | None:
    """The polydiv module an expression names, if it names one."""
    if isinstance(node, ast.Name):
        return aliases.get(node.id, node.id if node.id in MODULES else None)
    if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant) \
            and node.slice.value in MODULES:
        return node.slice.value
    return None


def references(node: ast.AST, module: str | None, aliases: dict[str, str]) -> Counter:
    """(module, name) for every resolved reference under ``node``, and
    (None, name) for every attribute access ``.name``."""
    refs: Counter = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and module is not None:
            refs[module, n.id] += 1
        elif isinstance(n, ast.Attribute):
            refs[None, n.attr] += 1
            if (owner := module_of(n.value, aliases)) is not None:
                refs[owner, n.attr] += 1
        elif isinstance(n, ast.ImportFrom) and source_module(n):
            refs.update((source_module(n), a.name) for a in n.names)
    return refs


def definitions(tree: ast.Module, module: str):
    """(key, label, node): key (module, name) for module-level functions and
    classes, (None, name) for the non-dunder methods and properties."""
    for node in tree.body:
        if isinstance(node, Function | ast.ClassDef):
            yield (module, node.name), f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, Function) \
                        and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield (None, item.name), f"{module}.{node.name}.{item.name}", item


def assignments(tree: ast.Module, module: str):
    """(key, label, node) for every name a module-level assignment binds."""
    for node in tree.body:
        if isinstance(node, ast.Assign | ast.AnnAssign):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name) and not n.id.startswith("__"):
                        yield (module, n.id), f"{module}.{n.id}", node


def unreferenced(bound=definitions) -> list[str]:
    """The labels of the names ``bound`` yields that nothing references
    outside the node that binds them."""
    total: Counter = Counter()
    unused = []
    for path in FILES:
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        module = os.path.basename(path)[:-3] if path in SOURCES else None
        aliases = module_aliases(tree)
        total += references(tree, module, aliases)
        if module is not None:
            unused += [(key, label, references(node, module, aliases)[key])
                       for key, label, node in bound(tree, module)]
    return sorted(label for key, label, own in unused if total[key] == own)


def test_no_unreferenced_definitions():
    assert unreferenced() == []


def test_no_unread_module_names():
    assert unreferenced(assignments) == []


def unused_imports(tree: ast.Module) -> list[str]:
    """The names an import in ``tree`` binds that nothing in it reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update((a.asname or a.name, node.lineno) for a in node.names)
    annotations = [n.annotation for n in ast.walk(tree)
                   if isinstance(n, ast.arg | ast.AnnAssign) and n.annotation] + \
        [n.returns for n in ast.walk(tree) if isinstance(n, Function) and n.returns]
    quoted = [ast.parse(c.value, mode="eval") for a in annotations for c in ast.walk(a)
              if isinstance(c, ast.Constant) and isinstance(c.value, str)]
    used = {n.id for root in [tree] + quoted for n in ast.walk(root) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items()) if name not in used]


@pytest.mark.parametrize("path", FILES + TESTS, ids=lambda path: os.path.relpath(path, ROOT))
def test_no_unused_imports(path):
    with open(path) as fh:
        assert unused_imports(ast.parse(fh.read(), path)) == []
