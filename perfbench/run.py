"""End-to-end benchmark of the pfaffred command line.

    python3 perfbench/run.py --workload {worked,dense,blocks,defects,all} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from its src/.
One process plays one closed-loop user: it calls ``pfaffred.cli.main``
in-process with ``--report``, one command at a time, on documents written
to a temporary directory inside the checkout, and checks every report
against answers known without pfaffred (see inputs.py and check.py).
A pass runs check, reduce, expparts, katz and solve on each of the
workload's systems, except the commands that inputs.KNOWN_DEFECTS names
as failing at this version; the `defects` workload runs just those.
Passes repeat while the next one is expected to end within --seconds (at
least one pass is made).

--trace 0 reports the end-to-end metrics: setup_s (median over fresh
interpreters of import + input generation + document writes), each
command's wall time summed over the workload's systems (per system the
mean over passes), total_s (their sum) and peak_rss_mb.  Times are
scaled to a reference machine speed, see REFERENCE_S below.  --trace 1
alternates untraced and traced passes and reports the per-layer metrics
of the traced ones (see spans.py) and the tracing overhead.  Results,
run metadata and, for --trace 1, the spans are also written to
.perfbench-out/ in the checkout.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; correct is true only when every
command exited 0 within its time budget with the expected answer.  A run
of one workload exits 0 once it has printed that line.  --workload all
runs each workload, `defects` too, in a process of its own, prints their
tables and one result line with the metrics named <workload>.<metric>,
and exits 1 when any command failed.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import inputs
from check import COMMANDS, verify
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

SETUP_REPEATS = 7
WORKLOADS = tuple(inputs.WORKLOADS)
COMMAND_BUDGET_S = 60.0
# Commands still waiting this long after measuring started are failed
# without running, so that a run always ends within 180 s.
HARD_DEADLINE_S = 140.0

UNITS = {"peak_rss_mb": "MB", "failed_frac": "ratio", "speed": "ratio",
         "system.integrability.per_command": "1/command"}

# On a shared 2-vCPU VM the speed of all code drifts by up to a half
# between runs a minute apart.  So REFERENCE_SAMPLES runs of a fixed
# pure-Python loop that touches no pfaffred code are timed before every
# command and after the last one (and around each set-up), and a command's
# reported time is its raw time divided by
# speed = (median loop time just before and just after it / REFERENCE_S)
#         ** SPEED_EXPONENT,
# i.e. seconds on a machine where the loop takes REFERENCE_S (that VM when
# idle).  pfaffred slows more than the loop when the VM is busy: over five
# runs of each workload on that VM, dividing by the loop time's ratio to
# the power 1.2 gave about half the run-to-run spread of dividing by the
# ratio itself.  The raw times are kept in the table and in the result
# file.
REFERENCE_LOOPS = 60_000
REFERENCE_SAMPLES = 3
REFERENCE_S = 0.0045
SPEED_EXPONENT = 1.2


def reference_seconds():
    start = time.perf_counter()
    x = 0
    for i in range(REFERENCE_LOOPS):
        x = (x * 31 + i) % 1000003
    return time.perf_counter() - start


def reference_samples():
    return [reference_seconds() for _ in range(REFERENCE_SAMPLES)]


def speed(samples):
    """How much slower than the reference machine, from loop times."""
    return (statistics.median(samples) / REFERENCE_S) ** SPEED_EXPONENT


class CommandTimeout(BaseException):
    """Raised by the interval timer when a command overruns its budget."""


def _on_alarm(signum, frame):
    raise CommandTimeout


# -- set-up -----------------------------------------------------------------------


def write_documents(cases, directory):
    paths = []
    for case in cases:
        path = Path(directory) / f"{case.name}.json"
        path.write_text(json.dumps(case.doc, indent=1) + "\n", encoding="utf-8")
        paths.append(path)
    return paths


def _check_import():
    """Refuse to measure a pfaffred other than the checkout's own."""
    import pfaffred

    if Path(pfaffred.__file__).resolve().parent != (SRC / "pfaffred").resolve():
        raise SystemExit(f"error: imported pfaffred from {pfaffred.__file__}, "
                         f"not from {SRC}")


def setup_child(args):
    """Body of one fresh-interpreter set-up: import, generate, write."""
    start = time.perf_counter()
    import pfaffred.cli  # noqa: F401  (the import is what is measured)
    import_s = time.perf_counter() - start
    _check_import()
    write_documents(inputs.make_cases(args.workload, args.seed), args.setup_only)
    print(json.dumps({"import_s": import_s}))
    return 0


def measure_setup(workload, seed, workdir):
    """Median wall time, each divided by the speed around it, and import
    share of fresh-interpreter set-ups."""
    walls, imports, refs = [], [], [reference_samples()]
    for k in range(SETUP_REPEATS):
        target = workdir / f"setup{k}"
        target.mkdir()
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-only", str(target),
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        wall = time.perf_counter() - start
        refs.append(reference_samples())
        walls.append(wall / speed(refs[-2] + refs[-1]))
        imports.append(json.loads(done.stdout.splitlines()[-1])["import_s"])
        shutil.rmtree(target)
    return statistics.median(walls), statistics.median(imports)


# -- measuring ----------------------------------------------------------------------


class Runner:
    """Runs passes of the five commands over a workload's cases."""

    def __init__(self, cases, paths, workdir, tracer=None):
        from pfaffred import cli

        self.cli = cli
        self.cases = cases
        self.paths = paths
        self.report = workdir / "report.json"
        self.tracer = tracer
        self.command_ids = []           # command id -> (case index, command)
        self.failures = []
        self.deadline = time.perf_counter() + HARD_DEADLINE_S

    def run_command(self, case_index, command):
        """(seconds, report or None, failure reason or None); seconds is
        None when the command did not run to its end."""
        case = self.cases[case_index]
        self.command_ids.append((case_index, command))
        if self.tracer is not None:
            self.tracer.command = len(self.command_ids) - 1
        left = self.deadline - time.perf_counter()
        if left <= 0:
            return None, None, "not run: the run's time limit was reached"
        self.report.unlink(missing_ok=True)
        argv = [command, str(self.paths[case_index]), "--report", str(self.report),
                *case.flags()]
        sink = io.StringIO()
        code, reason = None, None
        signal.setitimer(signal.ITIMER_REAL, min(COMMAND_BUDGET_S, left))
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli.main(argv)
        except CommandTimeout:
            reason = f"overran its {min(COMMAND_BUDGET_S, left):.0f} s budget"
        except (Exception, SystemExit) as exc:  # a crash is a failed command
            reason = f"raised {type(exc).__name__}: {exc}"
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        if reason is not None:
            return None, None, reason
        report = (json.loads(self.report.read_text(encoding="utf-8"))
                  if self.report.exists() else None)
        return elapsed, report, verify(command, code, report, case.expected)

    def run_pass(self):
        """Seconds per (case, command), raw and divided by the speed around
        each command, plus the pass's Moser step count."""
        raw, refs, charged = {}, [reference_samples()], set()
        first_id = len(self.command_ids)
        steps = 0
        for index, case in enumerate(self.cases):
            for command in case.commands:
                seconds, report, reason = self.run_command(index, command)
                refs.append(reference_samples())
                if seconds is None:
                    charged.add((index, command))
                raw[index, command] = COMMAND_BUDGET_S if seconds is None else seconds
                if reason is not None:
                    self.failures.append(f"{case.name} {command}: {reason}")
                elif command == "reduce":
                    steps += len(report["results"]["steps"])
        speeds = [speed(before + after) for before, after in zip(refs, refs[1:])]
        # A command that crashed, overran or did not run is charged the
        # budget, unscaled.
        times = {key: t if key in charged else t / factor
                 for (key, t), factor in zip(raw.items(), speeds)}
        return {"times": times, "raw": raw, "speed": speed(sum(refs, [])),
                "moser_steps": steps,
                "ids": range(first_id, len(self.command_ids))}


def measure(runner, seconds, trace):
    """Passes until the next one is expected to end after `seconds`.
    With trace, passes alternate untraced / traced, starting untraced."""
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        use_trace = trace and len(traced) < len(plain)
        if use_trace:
            runner.tracer.install()
            try:
                traced.append(runner.run_pass())
            finally:
                runner.tracer.uninstall()
        else:
            plain.append(runner.run_pass())
        elapsed = time.perf_counter() - start
        walls = [_wall(p) for p in plain + traced]
        if trace and not traced:
            continue
        if elapsed + statistics.median(walls) > seconds:
            return plain, traced


def _wall(one_pass):
    return sum(one_pass["raw"].values())


def command_seconds(passes, command, kind="times"):
    """A command's time over the workload's systems: the sum over systems
    of the mean over passes.  With the speed scaling, the mean of the few
    passes a run holds spreads less from run to run than their median."""
    return sum(statistics.mean([p[kind][key] for p in passes])
               for key in passes[0][kind] if key[1] == command)


def end_to_end(plain, setup_s):
    out = {"setup_s": setup_s}
    for command in COMMANDS:
        out[f"{command}_s"] = command_seconds(plain, command)
    out["total_s"] = sum(out[f"{c}_s"] for c in COMMANDS)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["raw.total_s"] = sum(command_seconds(plain, c, "raw") for c in COMMANDS)
    out["speed"] = statistics.median([p["speed"] for p in plain])
    return out


def per_layer(runner, plain, traced, import_s):
    tracer = runner.tracer
    samples = [tracer.summary(p["ids"]) for p in traced]
    out = {name: statistics.median([s[name] for s in samples])
           for name in samples[0]}
    n_commands = len(traced[0]["ids"])
    out["system.integrability.per_command"] = (
        out["system.integrability.calls"] / n_commands)
    # Integrability checks made by the pass's first `solve` (on dense, that
    # of the n = 3 system).
    first_solve = next(i for i in traced[0]["ids"]
                       if runner.command_ids[i][1] == "solve")
    out["system.integrability.first_solve"] = (
        tracer.summary([first_solve])["system.integrability.calls"])
    out["moser.steps"] = statistics.median([p["moser_steps"] for p in traced])
    out["import_s"] = import_s
    # Traced minus untraced total_s.  It rests on few passes, so drift of
    # the machine's speed that the scaling misses can make it negative.
    out["trace.overhead_s"] = sum(
        command_seconds(traced, c) - command_seconds(plain, c)
        for c in COMMANDS)
    out["trace.spans"] = tracer.span_count() / len(traced)
    return out


# -- reporting ------------------------------------------------------------------------


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _unit(name):
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith(("_s", ".s")) else "count"


def metadata(workload, seed, seconds, trace, samples, n_commands):
    import sympy

    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": _commit(), "python": platform.python_version(),
        "sympy": sympy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "samples_per_command": samples, "commands_per_pass": n_commands,
        "command_budget_s": COMMAND_BUDGET_S,
        "why": {w["name"]: w["why"] for w in _benchmark()["workloads"]},
    }


def print_table(title, metrics):
    print(f"== {title}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {_unit(name)}")


def run_workload(workload, seed, seconds, trace, workdir):
    setup_s, import_s = measure_setup(workload, seed, workdir)
    cases = inputs.make_cases(workload, seed)
    paths = write_documents(cases, workdir)
    runner = Runner(cases, paths, workdir, Tracer() if trace else None)
    plain, traced = measure(runner, seconds, trace)
    attempted = len(runner.command_ids)
    failed = len(runner.failures)
    if trace:
        metrics = per_layer(runner, plain, traced, import_s)
    else:
        metrics = end_to_end(plain, setup_s)
    meta = metadata(workload, seed, seconds, trace, len(traced if trace else plain),
                    sum(len(c.commands) for c in cases))
    meta["passes"] = {"raw_seconds": [_wall(p) for p in plain + traced],
                      "speed": [p["speed"] for p in plain + traced],
                      "traced": [False] * len(plain) + [True] * len(traced)}
    meta["cases"] = [{"name": c.name, "n": c.system[0], "poles": c.system[1:3],
                      "window": [c.doc["trunc_x"], c.doc["trunc_y"]],
                      "total_degree": inputs.total_degree(c.system),
                      "flags": c.flags(), "commands": c.commands}
                     for c in cases]
    result = {"meta": meta, "attempted": attempted, "failed": failed,
              "failed_frac": failed / attempted, "failures": runner.failures,
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    stem.with_suffix(".json").write_text(json.dumps(result, indent=1) + "\n")
    if trace:
        with gzip.open(f"{stem}-spans.json.gz", "wt", encoding="utf-8") as fh:
            json.dump({"commands": runner.command_ids, "spans": runner.tracer.rows()},
                      fh)
    print_table(f"{workload} seed={seed} trace={int(trace)}", {
        **metrics, "failed_frac": failed / attempted})
    for line in runner.failures:
        print(f"  FAILED {line}")
    print("meta: " + json.dumps(meta))
    return result


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "pfaffred" / "cli.py").is_file():
        print(f"error: no pfaffred sources under {SRC}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        return setup_child(args)
    if args.workload == "all":
        return run_all(args)
    _check_import()
    signal.signal(signal.SIGALRM, _on_alarm)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # The result line carries the metrics BENCHMARK.json names; the table
    # and the result file carry every metric.
    listed = [m["name"] for m in _benchmark()["per_layer" if args.trace
                                              else "end_to_end"]]
    print(json.dumps({
        "correct": result["failed"] == 0, "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": _unit(name)}
                    for name in listed}}))
    return 0


def run_all(args):
    """Every workload, each in a process of its own (so that peak_rss_mb is
    that workload's), and exit code 1 if any command failed."""
    attempted = failed = 0
    metrics = {}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"error: workload {workload} exited {done.returncode}",
                  file=sys.stderr)
            return 2
        last = json.loads(done.stdout.splitlines()[-1])
        attempted += last["attempted"]
        failed += last["failed"]
        metrics.update({f"{workload}.{name}": value
                        for name, value in last["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
