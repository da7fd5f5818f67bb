"""Benchmark cases: every command that perfbench runs on its seeded cases
gives the stored outputs, pinned by digest.

A run is one command, with the case's flags, on one case of
`perfbench/inputs.make_cases(workload, seed)` for the four workloads and
seeds 1..3.  Like tests/test_golden.py it records the exit code, stdout,
stderr, the --report JSON without "input" and the .reduced.json, with the
temporary directory written as `<dir>`; tests/bench_cases.json keeps one
SHA-256 digest of these per run.

Like tests/test_window_sweep.py this pins today's outputs, failures
included, and makes no claim that an output is correct.  It guards
refactors that must not change any output.  A change that means to change
an output regenerates it deliberately, and records that in CHANGES.md;
--write prints the keys whose digests it changed:

    PYTHONPATH=src python tests/test_bench_cases.py --write
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from pfaffred.cli import main

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import inputs  # noqa: E402  (perfbench/inputs.py, imported, never edited)
from conftest import report_changes  # noqa: E402

DIGESTS = Path(__file__).resolve().parent / "bench_cases.json"
WORKLOADS = ("worked", "dense", "blocks", "defects")
SEEDS = (1, 2, 3)


def key(workload, seed, case, command):
    return f"{workload}.{seed}.{case.name}.{command}"


def run(case, command, tmp):
    """The normalized outputs of `command` on the case's document."""
    doc = tmp / f"{case.name}.json"
    doc.write_text(json.dumps(case.doc, indent=1) + "\n", encoding="utf-8")
    report_path = tmp / "report.json"
    reduced_path = tmp / f"{case.name}.reduced.json"
    report_path.unlink(missing_ok=True)
    reduced_path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(doc), "--report", str(report_path),
                     *case.flags()])
    report = (json.loads(report_path.read_text())
              if report_path.exists() else None)
    if report is not None:
        report.pop("input", None)
    reduced = (json.loads(reduced_path.read_text())
               if reduced_path.exists() else None)
    return {
        "exit": code,
        "stdout": out.getvalue().replace(str(tmp), "<dir>"),
        "stderr": err.getvalue().replace(str(tmp), "<dir>"),
        "report": report,
        "reduced": reduced,
    }


def digests(workload, seed):
    """{run key: SHA-256 of its normalized outputs} for one workload and
    seed."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in inputs.make_cases(workload, seed):
            for command in case.commands:
                text = json.dumps(run(case, command, Path(tmp)),
                                  sort_keys=True, separators=(",", ":"))
                out[key(workload, seed, case, command)] = hashlib.sha256(
                    text.encode("utf-8")).hexdigest()
    return out


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_cases(workload, seed):
    stored = {k: v for k, v in json.loads(DIGESTS.read_text()).items()
              if k.startswith(f"{workload}.{seed}.")}
    got = digests(workload, seed)
    assert got.keys() == stored.keys()
    assert [k for k in got if got[k] != stored[k]] == []


def write_all():
    old = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    out = {}
    for workload in WORKLOADS:
        for seed in SEEDS:
            out.update(digests(workload, seed))
    DIGESTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(out)} digests to {DIGESTS.name}")
    report_changes(old, out)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_bench_cases.py --write")
    write_all()
