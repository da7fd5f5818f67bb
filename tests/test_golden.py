"""Golden outputs: every command on both fixtures gives the stored exit
code, stdout, stderr, --report JSON and .reduced.json.

Each case runs `pfaffred.cli.main` in-process on a copy of the fixture in a
temporary directory.  The directory is written as `<dir>` in the stored
text, and the report's "input" path is left out.  The stored files live in
tests/golden/, one per case.

Regenerating them is a deliberate step, taken only for an intended change
of output, and each regeneration is recorded in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from pfaffred.cli import main
from pfaffred.io import parse_document, serialize_system

GOLDEN = Path(__file__).resolve().parent / "golden"
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

COMMANDS = ("check", "reduce", "expparts", "katz", "solve")
WINDOWS = {
    "shipped": [],
    "8x8": ["--trunc-x", "8", "--trunc-y", "8"],
    "5x6": ["--trunc-x", "5", "--trunc-y", "6"],
}
CASES = [
    (fixture, window, command)
    for fixture in ("exm", "exmnaive")
    for window in WINDOWS
    for command in COMMANDS
]


def case_id(case):
    return ".".join(case)


def run_case(fixture, window, command):
    """The normalized outputs of one command, as a JSON-ready dict."""
    return run_command(fixture, command, WINDOWS[window])


def run_command(fixture, command, flags):
    """The normalized outputs of `command` with extra `flags` on a copy of
    the fixture, as a JSON-ready dict."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        doc = tmp / f"{fixture}.json"
        shutil.copy(FIXTURES / f"{fixture}.json", doc)
        report_path = tmp / "report.json"
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(doc), *flags,
                         "--report", str(report_path)])
        report = json.loads(report_path.read_text())
        report.pop("input")
        reduced_path = tmp / f"{fixture}.reduced.json"
        reduced = (json.loads(reduced_path.read_text())
                   if reduced_path.exists() else None)
        return {
            "exit": code,
            "stdout": out.getvalue().replace(str(tmp), "<dir>"),
            "stderr": err.getvalue().replace(str(tmp), "<dir>"),
            "report": report,
            "reduced": reduced,
        }


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_golden_output(case):
    expected = json.loads((GOLDEN / f"{case_id(case)}.json").read_text())
    assert run_case(*case) == expected


def test_reduced_documents_parse_back():
    # Every .reduced.json that `reduce` writes is a valid system document
    # (its windows within MAX_WINDOW) and serializes back unchanged.
    reduced = [json.loads(path.read_text())["reduced"]
               for path in sorted(GOLDEN.glob("*.reduce.json"))]
    reduced = [doc for doc in reduced if doc is not None]
    assert reduced
    for doc in reduced:
        assert serialize_system(parse_document(doc)) == doc


def write_all():
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        path = GOLDEN / f"{case_id(case)}.json"
        path.write_text(json.dumps(run_case(*case), indent=1, sort_keys=True)
                        + "\n")
        print(f"wrote {path.name}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    write_all()
