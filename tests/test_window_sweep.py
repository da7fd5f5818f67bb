"""Window sweep: every command on both fixtures at --trunc-x/-y 1..10
gives the stored outputs, pinned by digest.

Each case runs as in tests/test_golden.py (exit code, stdout, stderr,
--report without "input", and .reduced.json, with the temporary directory
written as `<dir>`); its outputs are hashed, and tests/window_sweep.json
keeps one SHA-256 digest per (fixture, command, trunc_x, trunc_y).

This pins today's outputs, wrong ones included: 84 of its 800 reduce,
expparts, katz and solve runs exit 0 with an answer that is wrong on its
window (ROADMAP item 1 counts them).
The sweep guards refactors that must not change any output; it makes no
claim that an output is correct, with one exception: every failure window
in a report lies within the requested window (tx, ty).  A change that
fixes those answers regenerates it deliberately, and records that in
CHANGES.md; --write prints the keys whose digests it changed:

    PYTHONPATH=src python tests/test_window_sweep.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from conftest import report_changes
from test_golden import COMMANDS, run_command

DIGESTS = Path(__file__).resolve().parent / "window_sweep.json"
FIXTURES = ("exm", "exmnaive")
WINDOWS = [(tx, ty) for tx in range(1, 11) for ty in range(1, 11)]


def key(fixture, command, tx, ty):
    return f"{fixture}.{command}.{tx}x{ty}"


def outcome(fixture, command, tx, ty):
    return run_command(fixture, command,
                       ["--trunc-x", str(tx), "--trunc-y", str(ty)])


def digest(out):
    text = json.dumps(out, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def failure_windows(out):
    return [w["window"] for w in out["report"]["windows"]
            if w["what"] == "failure window"]


@pytest.mark.parametrize("fixture", FIXTURES)
@pytest.mark.parametrize("command", COMMANDS)
def test_window_sweep(fixture, command):
    stored = json.loads(DIGESTS.read_text())
    changed, outside = [], []
    for tx, ty in WINDOWS:
        k = key(fixture, command, tx, ty)
        out = outcome(fixture, command, tx, ty)
        if digest(out) != stored[k]:
            changed.append(k)
        if any(wx > tx or wy > ty for wx, wy in failure_windows(out)):
            outside.append(k)
    assert not outside
    assert not changed


def write_all():
    old = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    digests = {key(f, c, tx, ty): digest(outcome(f, c, tx, ty))
               for f in FIXTURES for c in COMMANDS for tx, ty in WINDOWS}
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS.name}")
    report_changes(old, digests)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_window_sweep.py --write")
    write_all()
