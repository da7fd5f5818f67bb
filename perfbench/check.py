"""Known-answer checks of one command's exit code and --report document.

Each check returns None when the report carries the expected answer, or
a one-line reason.  Expected answers come from ``inputs.Expected``, never
from pfaffred itself.
"""

from __future__ import annotations

import re
from fractions import Fraction

from inputs import COMMANDS, Expected

_TERM = re.compile(r"\(([^)]*)\)\*[xy]\^\(-([^)]*)\)")


def parse_q(text):
    """'(3)*y^(-2) + (2)*y^(-1)' -> ((1, 2), (2, 3)) as sorted (k, c)."""
    if text == "0":
        return ()
    terms = _TERM.findall(text)
    if not terms or _TERM.sub("", text).replace(" + ", ""):
        raise ValueError(f"unreadable exponential part {text!r}")
    return tuple(sorted((Fraction(k), Fraction(c)) for c, k in terms))


def _parts(packed):
    return tuple(sorted(
        (tuple(sorted((Fraction(k), Fraction(c)) for k, c in p["terms"].items())),
         p["multiplicity"])
        for p in packed))


def _check(res, want: Expected):
    if res.get("integrable") is not True:
        return "not reported integrable"
    return None


def _reduce(res, want: Expected):
    got = (res["p"], res["q"])
    if got != want.true_rank:
        return f"reduced to Poincare rank {got}, true rank is {want.true_rank}"
    return None


def _expparts(res, want: Expected):
    for axis, expected in (("x", want.parts_x), ("y", want.parts_y)):
        got = _parts(res[axis])
        if got != expected:
            return f"exponential parts on {axis}: {got} != {expected}"
    return None


def _katz(res, want: Expected):
    katz = (Fraction(res["katz_x"]), Fraction(res["katz_y"]))
    if katz != want.katz:
        return f"Katz pair {katz} != {want.katz}"
    rank = (res["true_rank_x"], res["true_rank_y"])
    if rank != want.true_rank:
        return f"true Poincare rank {rank} != {want.true_rank}"
    return None


def _solve(res, want: Expected):
    if res.get("blocked") is not None or res.get("complete") is not True:
        return f"incomplete solution data (blocked: {res.get('blocked')})"
    if list(res["s"]) != [1, 1]:
        return f"unexpected ramification {res['s']}"
    got = tuple(sorted(zip(map(parse_q, res["q1"]), map(parse_q, res["q2"]))))
    if got != want.solutions:
        return f"exponential integrals {got} != {want.solutions}"
    return None


_CHECKS = {"check": _check, "reduce": _reduce, "expparts": _expparts,
           "katz": _katz, "solve": _solve}


def verify(command, code, report, want: Expected):
    """None if exit code 0 and the report's answer is right, else why not."""
    if code != 0:
        return f"exit code {code}"
    if report is None:
        return "no report written"
    if report.get("error") is not None:
        return f"report carries an error: {report['error']}"
    try:
        return _CHECKS[command](report["results"], want)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"
