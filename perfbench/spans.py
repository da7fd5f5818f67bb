"""Spans around calls into pfaffred's modules, recorded from outside.

``Tracer.install()`` wraps every public function of each pfaffred module,
every public method of the classes they define, and the arithmetic
operators of those classes.  A wrapper is rebound in every ``pfaffred.*``
namespace that holds the original, so calls through ``from .x import f``
names are seen too; ``uninstall()`` puts the originals back.  No file of
the library is edited.

A span is (name, start, end, parent span, command id).  Spans stay in
memory, in flat arrays, until the run ends.  Self time is a span's
duration minus the durations of its direct children, which for nested
single-threaded calls is the time its children do not cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("series", "matrices", "system", "moser", "ods", "solutions",
          "qlinalg", "polyq", "io", "cli")
OPERATORS = {"__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
             "__mul__", "__rmul__"}
# Accessors and coercions called once per coefficient or entry.  They are
# left unwrapped, so their (small) time counts as their caller's own.
CHEAP = {
    "series.q",
    *(f"series.{cls}.{m}" for cls in ("BiSeries", "UniSeries")
      for m in ("coeff", "terms", "is_zero", "val", "val_x", "val_y",
                "eff_window", "zero", "const", "monomial")),
    *(f"matrices.SeriesMatrix.{m}" for m in ("at", "row", "to_rows",
                                             "submatrix", "is_zero")),
}

# Per-layer metrics read from spans: metric prefix -> span names.
# "<prefix>.calls" counts the spans, "<prefix>.s" sums their durations.
SPAN_GROUPS = {
    "series.mul": ("series.BiSeries.__mul__", "series.UniSeries.__mul__"),
    "series.invert": ("series.BiSeries.invert",),
    "matrices.mul": ("matrices.SeriesMatrix.__mul__",),
    "matrices.det": ("matrices.SeriesMatrix.det",),
    "matrices.inverse": ("matrices.LaurentMatrix.inverse",),
    "matrices.echelon": ("matrices.column_echelon",),
    "system.integrability": ("system.check_integrability",),
    "system.apply_gauge": ("system.apply_gauge",),
    "system.compatible": ("system.check_compatible",),
    "moser.theta": ("moser.theta_poly",),
    "moser.step": ("moser.reduce_subsystem_step",),
    "moser.prepare_shearing": ("moser.prepare_shearing",),
    "ods.moser_reduce": ("ods.moser_reduce_ods",),
    "ods.split": ("ods.split_leading",),
    "ods.katz": ("ods.katz_invariant_ods",),
    "ods.expparts": ("ods.exponential_parts_ods",),
    "solutions.splitting": ("solutions.bivariate_splitting",),
    "solutions.shift": ("solutions.bivariate_shift",),
    "solutions.regular": ("solutions.regular_fundamental",),
    "solutions.verify": ("solutions.verify_solution",),
    "qlinalg.sylvester": ("qlinalg.sylvester_solve",),
    "qlinalg.rref": ("qlinalg.rref",),
    "polyq.factor": ("polyq.factor_rational",),
    "io.parse": ("io.parse_system",),
    "io.serialize": ("io.write_system",),
}


# Spans whose calls also add |a| * |b| (|b| = 1 for a scalar) to
# series.mul.term_pairs.
SERIES_MUL = {"series.BiSeries.__mul__", "series.UniSeries.__mul__"}


class Tracer:
    def __init__(self):
        self.names = []                 # span name id -> name
        self.name_ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.cmd = array("i")
        self.term_pairs = Counter()          # command id -> series.mul.term_pairs
        self.command = -1
        self._stack = [-1]
        self._restore = []

    # -- recording ---------------------------------------------------------------

    def _wrap(self, span_name, fn):
        name_id = self.name_ids.setdefault(span_name, len(self.names))
        if name_id == len(self.names):
            self.names.append(span_name)
        names, starts, ends, parents, cmds = (self.name, self.start, self.end,
                                              self.parent, self.cmd)
        stack = self._stack
        term_pairs = self.term_pairs if span_name in SERIES_MUL else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            cmds.append(self.command)
            ends.append(0.0)
            if term_pairs is not None:
                a, b = args
                size_b = len(b.coeffs) if hasattr(b, "coeffs") else 1
                term_pairs[self.command] += len(a.coeffs) * size_b
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        return wrapper

    def install(self):
        """Wrap the library's public callables in every pfaffred namespace."""
        package = importlib.import_module("pfaffred")
        modules = {layer: importlib.import_module(f"pfaffred.{layer}")
                   for layer in LAYERS}
        namespaces = [package, *modules.values()]
        wrapped = {}                     # one wrapper per function, aliases too

        def wrapper_for(layer, fn):
            name = f"{layer}.{fn.__qualname__}"
            if name in CHEAP:
                return None
            if fn not in wrapped:
                wrapped[fn] = self._wrap(name, fn)
            return wrapped[fn]

        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj, wrapper_for)
                elif (inspect.isfunction(obj) and not attr.startswith("_")
                      and not inspect.isgeneratorfunction(obj)):
                    wrapper = wrapper_for(layer, obj)
                    if wrapper is None:
                        continue
                    for ns in namespaces:
                        for key, value in list(vars(ns).items()):
                            if value is obj:
                                self._restore.append((ns, key, value))
                                setattr(ns, key, wrapper)

    def _wrap_class(self, layer, cls, wrapper_for):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            if isinstance(member, (staticmethod, classmethod)):
                wrapper = wrapper_for(layer, member.__func__)
                replacement = wrapper and type(member)(wrapper)
            elif inspect.isfunction(member) and not inspect.isgeneratorfunction(member):
                replacement = wrapper_for(layer, member)
            else:
                continue
            if replacement is None:
                continue
            self._restore.append((cls, attr, member))
            setattr(cls, attr, replacement)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- reading -----------------------------------------------------------------

    def span_count(self):
        return len(self.start)

    def summary(self, commands):
        """Per-layer metrics over the spans of the given command ids."""
        commands = set(commands)
        child = defaultdict(float)
        keep = [i for i in range(len(self.start)) if self.cmd[i] in commands]
        for i in keep:
            if self.parent[i] >= 0:
                child[self.parent[i]] += self.end[i] - self.start[i]
        by_name = defaultdict(lambda: [0, 0.0])
        self_s = Counter()
        for i in keep:
            name = self.names[self.name[i]]
            dur = self.end[i] - self.start[i]
            entry = by_name[name]
            entry[0] += 1
            entry[1] += dur
            self_s[name.split(".", 1)[0]] += dur - child[i]
        out = {}
        for prefix, members in SPAN_GROUPS.items():
            out[f"{prefix}.calls"] = sum(by_name[m][0] for m in members)
            out[f"{prefix}.s"] = sum(by_name[m][1] for m in members)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
        out["series.mul.term_pairs"] = sum(self.term_pairs[c] for c in commands)
        return out

    def rows(self):
        """All spans as [name, start, end, parent, command] rows."""
        return [[self.names[self.name[i]], self.start[i], self.end[i],
                 self.parent[i], self.cmd[i]] for i in range(len(self.start))]
