"""Every module-level function and class of the library is either used
inside the library or exported by the package, and every non-dunder
method of a library class is used inside the library, so a helper whose
last caller is gone, or that only tests call, fails here.

A use of a module-level definition is a name loaded or an attribute
read; its own body does not count.  A use of a method is an attribute
read of its name (a local variable of the same name is not one).
Methods are matched by name alone, so a read anywhere counts, even in a
method of the same name that delegates to another class's
(SeriesMatrix.divide_monomial calls BiSeries.divide_monomial).  Public
methods of exported classes that the library itself does not call are
listed in PUBLIC_METHODS."""

import ast
from pathlib import Path

import pfaffred

SRC = Path(pfaffred.__file__).resolve().parent

# Methods that are API of an exported class without a caller inside the
# library, by qualified name.
PUBLIC_METHODS = {
    "ods.ExponentialPart.katz",     # the Katz invariant of one part
    "solutions.SolutionData.phi",   # the paper's factor Phi of a solution
    # The checked entry point for a gauge from outside the library; the
    # library builds its own factors unchecked, with GaugeTransform._of.
    "system.GaugeTransform.of_series",
    # Equality of two systems on their common window; only the tests call
    # it, to compare a system with its round trip through a gauge.
    "system.PfaffianSystem.same_up_to_window",
}


def _uses(node):
    """Names loaded and attributes read anywhere under node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _attributes(node):
    """Attributes read anywhere under node."""
    return {sub.attr for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}


def _methods(cls):
    return [node for node in cls.body if isinstance(node, ast.FunctionDef)
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def test_every_definition_is_used_or_exported():
    defined = []                     # (name, "module.name")
    methods = []                     # (name, "module.Class.name")
    used = set()
    attributes = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        attributes |= _attributes(tree)
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
    dead += sorted(qual for name, qual in methods
                   if name not in attributes and qual not in PUBLIC_METHODS)
    assert dead == []
