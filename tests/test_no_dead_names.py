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
listed in PUBLIC_METHODS.

Every stored value is read too: each dataclass field, and each attribute
that an __init__ assigns on self, is read as an attribute somewhere in
the library (matched by name, like methods), unless it is listed in
PUBLIC_FIELDS."""

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

# Fields of result types that only the tests read, by qualified name.
PUBLIC_FIELDS = {
    # The rank that witnesses both shearing conditions.
    "moser.ShearingForm.rank_kept",
    # The first-kind solve's answer Y = Phi * v^Lambda.
    "ods.FirstKindSolution.phi",
    "ods.FirstKindSolution.exponent",
    # The Q terms that bivariate_shift removed, per axis.
    "solutions.ScalarShift.x_terms",
    "solutions.ScalarShift.y_terms",
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


def _fields(cls):
    """The names cls stores: its annotated (dataclass) fields and the
    attributes its __init__ assigns on self."""
    names = [node.target.id for node in cls.body
             if isinstance(node, ast.AnnAssign)
             and isinstance(node.target, ast.Name)]
    for init in cls.body:
        if isinstance(init, ast.FunctionDef) and init.name == "__init__":
            names += [t.attr for sub in ast.walk(init)
                      if isinstance(sub, ast.Assign) for t in sub.targets
                      if isinstance(t, ast.Attribute)
                      and isinstance(t.value, ast.Name) and t.value.id == "self"]
    return names


def _library():
    """(module stem, parsed tree) of every library module."""
    return [(path.stem, ast.parse(path.read_text(), filename=str(path)))
            for path in sorted(SRC.glob("*.py"))]


def test_every_field_is_read():
    attributes = set()
    fields = []                      # (name, "module.Class.name")
    for stem, tree in _library():
        attributes |= _attributes(tree)
        fields += [(name, f"{stem}.{node.name}.{name}") for node in tree.body
                   if isinstance(node, ast.ClassDef) for name in _fields(node)]
    unread = sorted(qual for name, qual in fields
                    if name not in attributes and qual not in PUBLIC_FIELDS)
    assert unread == []


def test_every_definition_is_used_or_exported():
    defined = []                     # (name, "module.name")
    methods = []                     # (name, "module.Class.name")
    used = set()
    attributes = set()
    for stem, tree in _library():
        attributes |= _attributes(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((node.name, f"{stem}.{node.name}"))
                # A definition's own body (recursion) does not count.
                used.update(u for u in _uses(node) if u != node.name)
            else:
                used.update(_uses(node))
            if isinstance(node, ast.ClassDef):
                methods += [(m.name, f"{stem}.{node.name}.{m.name}")
                            for m in _methods(node)]
    dead = sorted(qual for name, qual in defined
                  if name not in used and name not in pfaffred.__all__)
    dead += sorted(qual for name, qual in methods
                   if name not in attributes and qual not in PUBLIC_METHODS)
    assert dead == []
