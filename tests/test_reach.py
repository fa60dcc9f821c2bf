"""Reach guard: no module-level function or class, and no private method, of the
package is dead code.

A module-level function or class is reached when its name is used in ``src/``
outside its own body, when ``__init__._MODULES`` exports it, when
``bench/tracer.py`` names it (the tracer wraps functions by name), or when
``tests/test_acceptance.py`` calls it.
A private method (``_name``, defined in a class body) is reached only when its
name is used in ``src/`` outside its own body.  Unit tests alone do not reach
either.  Names are matched as written, so a method of the same name counts as a
use.  The check reads the sources with ``ast`` and imports nothing; a function
the interpreter calls (a dunder such as the package's PEP 562 ``__getattr__``)
is not checked.

Every name a module imports, at any depth and under ``TYPE_CHECKING`` too, must
be read in that module.  A quoted annotation is a string and is not read, so an
imported name must appear unquoted at least once.

A value class (one deriving from ``_value.Value``) without ``__slots__`` defines no
``__init__``: it validates in ``_check``, which the one constructor runs.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "twistor_pushout"

# functions no command reaches yet, kept on purpose: name -> reason
ALLOWED = {
    "formal_triviality_obstructions": (
        "ROADMAP item 2 makes it a `charge` identity: the formal-triviality obstructions "
        "of the Ward data vanish"
    ),
    "ward_gluing_space_dim": (
        "ROADMAP item 2 makes it a `charge` identity: the Ward gluing space has dimension rank^2"
    ),
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every variable and attribute name used in ``tree``, outside the subtree ``skip``."""
    skipped = {id(node) for node in ast.walk(skip)} if skip else set()
    names = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _exported(init: ast.Module) -> set[str]:
    for node in init.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "_MODULES" for target in node.targets
        ):
            return {name for names in ast.literal_eval(node.value).values() for name in names}
    raise AssertionError("__init__.py assigns no _MODULES table")


def unreached_functions() -> list[str]:
    """``module.name`` for each module-level function or class that nothing above
    reaches, and ``module.Class._method`` for each private method that ``src/`` does
    not name."""
    trees = {path.stem: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    used = {module: _names(tree) for module, tree in trees.items()}
    tracer = _parse(ROOT / "bench" / "tracer.py")
    strings = (node.value for node in ast.walk(tracer) if isinstance(node, ast.Constant))
    traced = _names(tracer) | {value for value in strings if isinstance(value, str)}
    acceptance = _parse(ROOT / "tests" / "test_acceptance.py")
    called = {
        node.func.id if isinstance(node.func, ast.Name) else node.func.attr
        for node in ast.walk(acceptance)
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
    }
    reached_outside = _exported(trees["__init__"]) | traced | called
    unreached = []
    for module, tree in trees.items():
        elsewhere = set().union(*(names for other, names in used.items() if other != module))

        def in_src(node: ast.FunctionDef | ast.ClassDef) -> bool:
            return node.name in _names(tree, skip=node) or node.name in elsewhere

        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                unreached += [
                    f"{module}.{node.name}.{method.name}"
                    for method in node.body
                    if isinstance(method, ast.FunctionDef)
                    and method.name.startswith("_")
                    and not method.name.startswith("__")
                    and not in_src(method)
                ]
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("__"):
                continue
            if not (in_src(node) or node.name in reached_outside):
                unreached.append(f"{module}.{node.name}")
    return unreached


def unread_imports() -> list[str]:
    """``module.name`` for each name a module imports (``from __future__`` aside) but never reads."""
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        read = _names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = ((alias.asname or alias.name).split(".")[0] for alias in node.names)
                unread += [f"{path.stem}.{name}" for name in bound if name not in read]
    return unread


def test_every_module_level_function_is_reached():
    unreached = unreached_functions()
    dead = [name for name in unreached if name.rsplit(".", 1)[1] not in ALLOWED]
    assert not dead, f"no command, export, tracer probe or acceptance test reaches {', '.join(dead)}"
    # an allowed function that something now reaches leaves the list
    assert sorted(name.rsplit(".", 1)[1] for name in unreached) == sorted(ALLOWED)
    unread = unread_imports()
    assert not unread, f"imported but never read: {', '.join(unread)}"


def value_constructors() -> list[str]:
    """``module.Class`` for each class deriving from ``Value``, directly or through another
    package class, that declares no ``__slots__`` and defines ``__init__``."""
    classes = [
        (path.stem, node)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.ClassDef)
    ]
    values = {"Value"}
    for _ in classes:  # a pass per class reaches every subclass, however deep
        values |= {node.name for _, node in classes if values & {getattr(b, "id", None) for b in node.bases}}
    found = []
    for module, node in classes:
        methods = {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
        assigns = (item for item in node.body if isinstance(item, ast.Assign))
        assigned = {getattr(target, "id", None) for item in assigns for target in item.targets}
        if node.name in values and "__init__" in methods and "__slots__" not in assigned:
            found.append(f"{module}.{node.name}")
    return found


def test_value_classes_without_slots_validate_in_check():
    forwarding = value_constructors()
    assert not forwarding, f"define _check instead of __init__ in {', '.join(forwarding)}"
