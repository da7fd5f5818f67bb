"""Every module-level function and class of the library is either used
inside the library or exported by the package, and every non-dunder
method of a library class is used inside the library, so a helper whose
last caller is gone, or that only tests call, fails here.

A use is a name loaded or an attribute read.  A module-level definition's
own body does not count.  Methods are matched by name alone, so a read
anywhere counts, even in a method of the same name that delegates to
another class's (OdsSystem.same_up_to_window)."""

import ast
from pathlib import Path

import pfaffred

SRC = Path(pfaffred.__file__).resolve().parent


def _uses(node):
    """Names loaded and attributes read anywhere under node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _methods(cls):
    return [node for node in cls.body if isinstance(node, ast.FunctionDef)
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def test_every_definition_is_used_or_exported():
    defined = []                     # (name, "module.name")
    methods = []                     # (name, "module.Class.name")
    used = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((node.name, f"{path.stem}.{node.name}"))
                # A definition's own body (recursion) does not count.
                used.update(u for u in _uses(node) if u != node.name)
            else:
                used.update(_uses(node))
            if isinstance(node, ast.ClassDef):
                methods += [(m.name, f"{path.stem}.{node.name}.{m.name}")
                            for m in _methods(node)]
    dead = sorted(qual for name, qual in defined
                  if name not in used and name not in pfaffred.__all__)
    dead += sorted(qual for name, qual in methods if name not in used)
    assert dead == []
