"""List the library lines that no tier-1 test and no benchmark command runs.

    PYTHONPATH=src python tests/line_trace.py

Runs the test suite in this process under a line tracer (sys.settrace),
then every command of the benchmark's worked, dense and blocks cases at
seeds 1-3 (perfbench/inputs.make_cases) through pfaffred.cli.main, and
prints, per module of src/pfaffred, the line ranges that never ran.  A
line counts when it carries bytecode; def and class headers (decorators
included), imports and docstrings are left out.  Lines that only a
subprocess runs are not seen.  Nothing under perfbench/ is written: the
documents and reports go to a temporary directory.  It takes minutes: the
test suite runs several times slower under the tracer, so the tests' exit
status is printed too (acceptance criterion 7 spends about 50 of its 60 s
there on a 2-vCPU machine).
"""

from __future__ import annotations

import ast
import contextlib
import dis
import io
import json
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pfaffred"
WORKLOADS = ("worked", "dense", "blocks")
SEEDS = (1, 2, 3)

FILES = {str(path): set() for path in sorted(SRC.glob("*.py"))}


def _local(frame, event, arg):
    if event == "line":
        FILES[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    return _local if frame.f_code.co_filename in FILES else None


def _code_lines(code):
    """Lines that carry bytecode, in code and every code object nested in
    it (a module's line 0 holds only its entry instruction)."""
    lines = {line for _, line in dis.findlinestarts(code) if line}
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            lines |= _code_lines(const)
    return lines


def _skipped_lines(tree):
    """Lines of def and class headers, imports and docstrings."""
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            skip.update(range(node.lineno, node.end_lineno + 1))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            skip.update(range(start, node.body[0].lineno))
        if isinstance(node, (ast.Module, ast.FunctionDef,
                             ast.AsyncFunctionDef, ast.ClassDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                skip.update(range(first.lineno, first.end_lineno + 1))
    return skip


def _ranges(lines):
    """'a-b, c, ...' for sorted runs of consecutive line numbers."""
    runs = []
    for line in sorted(lines):
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def run_tests():
    import pytest

    return pytest.main(["-q", "-p", "no:cacheprovider",
                        "--continue-on-collection-errors", str(ROOT / "tests")])


def run_benchmark_commands():
    """Every command of the benchmark cases; returns how many ran."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import inputs

    from pfaffred import cli

    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "report.json"
        for workload in WORKLOADS:
            for seed in SEEDS:
                for index, case in enumerate(inputs.make_cases(workload, seed)):
                    path = Path(tmp) / f"{workload}-{seed}-{index}.json"
                    path.write_text(json.dumps(case.doc), encoding="utf-8")
                    for command in case.commands:
                        argv = [command, str(path), "--report", str(report),
                                *case.flags()]
                        with contextlib.redirect_stdout(io.StringIO()), \
                                contextlib.redirect_stderr(io.StringIO()):
                            cli.main(argv)
                        count += 1
    return count


def main():
    threading.settrace(_global)
    sys.settrace(_global)
    try:
        status = run_tests()
        commands = run_benchmark_commands()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print(f"\ntests exit status {int(status)}; {commands} benchmark commands")
    total = 0
    for name, hit in FILES.items():
        source = Path(name).read_text(encoding="utf-8")
        candidates = (_code_lines(compile(source, name, "exec"))
                      - _skipped_lines(ast.parse(source)))
        never = candidates - hit
        total += len(never)
        if never:
            print(f"{Path(name).name}: {_ranges(never)}")
    print(f"{total} lines never ran")


if __name__ == "__main__":
    main()
