"""Batch command-line interface.

Commands: check, reduce, expparts, katz, solve.  Input is a system
document (JSON); output is a human summary on stdout plus an optional
machine-readable report (--report).  Exit codes:

    0  success (for `check`: integrable)
    1  not integrable / integrability violation
    2  parse error, missing file, invariant violation
    3  truncation window exhausted
    4  algebraic extension required
    5  joint resonance in the regular solve
"""

from __future__ import annotations

import argparse
import json
import sys as _sys
from fractions import Fraction

from .errors import (
    AlgebraicExtensionRequired,
    IntegrabilityViolation,
    InvariantViolation,
    JointResonance,
    ParseError,
    PfaffredError,
    TruncationExhausted,
)
from .io import document_digest, parse_system, write_system
from .moser import rank_reduce
from .series import INF_ORDER
from .solutions import _katz_and_rank, exponential_parts, formal_fundamental
from .system import PfaffianSystem, check_integrability, require_integrable

EXIT_OK = 0
EXIT_NOT_INTEGRABLE = 1
EXIT_PARSE = 2
EXIT_TRUNCATION = 3
EXIT_ALGEBRAIC = 4
EXIT_RESONANCE = 5


def _frac(f) -> str:
    f = Fraction(f)
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


def _q_poly_str(terms: dict, var: str) -> str:
    if not terms:
        return "0"
    bits = []
    for k in sorted(terms, reverse=True):
        c = terms[k]
        power = _frac(k)
        bits.append(f"({_frac(c)})*{var}^(-{power})")
    return " + ".join(bits)


def _load(args):
    for flag, value in (("--trunc-x", args.trunc_x), ("--trunc-y", args.trunc_y)):
        if value is not None and not 1 <= value < INF_ORDER:
            raise ParseError(f"{flag} must satisfy 1 <= t < {INF_ORDER}, "
                             f"got {value}", field=flag)
    sys_obj = parse_system(args.path)
    if args.trunc_x is not None or args.trunc_y is not None:
        tx, ty = sys_obj.window
        tx = tx if args.trunc_x is None else args.trunc_x
        ty = ty if args.trunc_y is None else args.trunc_y
        sys_obj = PfaffianSystem.make(
            sys_obj.n,
            sys_obj.p,
            sys_obj.q,
            sys_obj.amat.truncated(tx, ty),
            sys_obj.bmat.truncated(tx, ty),
        )
    with open(args.path, "r", encoding="utf-8") as fh:
        digest = document_digest(json.load(fh))
    return sys_obj, digest


def _emit(args, report):
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")


def _report_base(command, args, digest):
    return {
        "command": command,
        "input": str(args.path),
        "digest": digest,
        "results": {},
        "windows": [],
        "error": None,
    }


def _fmt_window(window):
    if all(w >= INF_ORDER for w in window):
        return "exact (all orders)"
    return str(tuple(window))


def _window_limited(window):
    return any(w < INF_ORDER for w in window)


def cmd_check(args):
    sys_obj, digest = _load(args)
    ok, window = check_integrability(sys_obj)
    report = _report_base("check", args, digest)
    report["results"] = {"integrable": ok}
    report["windows"].append({"what": "integrability residual",
                              "window": list(window)})
    _emit(args, report)
    if ok and args.strict and _window_limited(window):
        print(f"integrability is only certified on window {_fmt_window(window)} "
              "and --strict is set")
        return EXIT_TRUNCATION
    if ok:
        print(f"integrable; residual window: {_fmt_window(window)}")
        return EXIT_OK
    print(f"NOT integrable (residual nonzero; window {_fmt_window(window)})")
    return EXIT_NOT_INTEGRABLE


def cmd_reduce(args):
    sys_obj, digest = _load(args)
    gauge, reduced, red_report = rank_reduce(sys_obj)
    if args.strict:
        limited = [z for z in red_report.zero_acceptances
                   if _window_limited(z["window"])]
        if limited:
            print(f"{len(limited)} zero acceptance(s) are only window-"
                  "certified and --strict is set")
            return EXIT_TRUNCATION
    report = _report_base("reduce", args, digest)
    steps = []
    for s in red_report.steps:
        steps.append(
            {
                "axis": s.axis,
                "kind": s.kind,
                "p": [s.p_before, s.p_after],
                "rank": [s.rank_before, s.rank_after],
                "moser": [_frac(s.moser_before), _frac(s.moser_after)],
                "compatible": s.compatible,
            }
        )
    report["results"] = {
        "p": reduced.p,
        "q": reduced.q,
        "moser_rank_x": _frac(red_report.moser_rank_final["x"]),
        "moser_rank_y": _frac(red_report.moser_rank_final["y"]),
        "steps": steps,
        "gauge_provenance": list(gauge.provenance),
    }
    report["windows"] = red_report.zero_acceptances
    _emit(args, report)
    out_path = _sibling(args.path, ".reduced.json")
    write_system(reduced, out_path)
    print(f"Moser-irreducible form reached: Poincare rank ({reduced.p}, {reduced.q})")
    print(f"moser ranks: x={_frac(red_report.moser_rank_final['x'])} "
          f"y={_frac(red_report.moser_rank_final['y'])}")
    for s in steps:
        print(
            f"  [{s['axis']}] {s['kind']}: p {s['p'][0]}->{s['p'][1]}, "
            f"rank {s['rank'][0]}->{s['rank'][1]}, compatible={s['compatible']}"
        )
    print(f"reduced system written to {out_path}")
    return EXIT_OK


def _sibling(path, suffix):
    import os.path

    stem, _ = os.path.splitext(str(path))
    return stem + suffix


def cmd_expparts(args):
    sys_obj, digest = _load(args)
    px, py = exponential_parts(sys_obj)
    report = _report_base("expparts", args, digest)

    def pack(parts, var):
        return [
            {
                "q": _q_poly_str(dict(p.q_terms), var),
                "terms": {_frac(k): _frac(c) for k, c in p.q_terms},
                "multiplicity": p.multiplicity,
                "ramification": p.ramification,
            }
            for p in parts
        ]

    report["results"] = {"x": pack(px, "x"), "y": pack(py, "y")}
    _emit(args, report)
    for var, parts in (("x", px), ("y", py)):
        for p in parts:
            print(
                f"{var}: Q = {_q_poly_str(dict(p.q_terms), var)} "
                f"(multiplicity {p.multiplicity})"
            )
    return EXIT_OK


def cmd_katz(args):
    sys_obj, digest = _load(args)
    require_integrable(sys_obj)
    (k1, k2), (g1, g2) = _katz_and_rank(sys_obj)
    report = _report_base("katz", args, digest)
    report["results"] = {
        "katz_x": _frac(k1),
        "katz_y": _frac(k2),
        "true_rank_x": g1,
        "true_rank_y": g2,
    }
    _emit(args, report)
    print(f"katz invariant: ({_frac(k1)}, {_frac(k2)})")
    print(f"true poincare rank: ({g1}, {g2})")
    return EXIT_OK


def cmd_solve(args):
    sys_obj, digest = _load(args)
    data = formal_fundamental(sys_obj)
    report = _report_base("solve", args, digest)
    res = {
        "s": list(data.s),
        "q1": [_q_poly_str(q, "x") for q in data.q1],
        "q2": [_q_poly_str(q, "y") for q in data.q2],
        "complete": data.complete(),
        "blocked": data.blocked,
    }
    if data.lambda1 is not None:
        res["lambda1"] = [[_frac(c) for c in row] for row in data.lambda1]
        res["lambda2"] = [[_frac(c) for c in row] for row in data.lambda2]
    if data.retained:
        res["retained"] = [
            {"i": i, "j": j, "row": k, "col": l,
             "x_value": _frac(vx), "y_value": _frac(vy)}
            for (i, j, k, l, vx, vy) in data.retained
        ]
    report["results"] = res
    _emit(args, report)
    print(f"ramification s = {tuple(data.s)}")
    for i, (q1, q2) in enumerate(zip(data.q1, data.q2)):
        print(f"solution {i}: Q1 = {_q_poly_str(q1, 'x')}, "
              f"Q2 = {_q_poly_str(q2, 'y')}")
    if data.lambda1 is not None:
        print("lambda1 =", [[_frac(c) for c in row] for row in data.lambda1])
        print("lambda2 =", [[_frac(c) for c in row] for row in data.lambda2])
    if data.blocked:
        print(f"partial result; blocked at: {data.blocked}")
        if data.blocked == "joint-resonance":
            return EXIT_RESONANCE
        if data.blocked.startswith("algebraic-extension"):
            return EXIT_ALGEBRAIC
    return EXIT_OK


def _error_exit(command, args, err):
    kind = type(err).__name__
    code = EXIT_PARSE
    if isinstance(err, (ParseError, InvariantViolation)):
        code = EXIT_PARSE
    elif isinstance(err, IntegrabilityViolation):
        code = EXIT_NOT_INTEGRABLE
    elif isinstance(err, TruncationExhausted):
        code = EXIT_TRUNCATION
    elif isinstance(err, AlgebraicExtensionRequired):
        code = EXIT_ALGEBRAIC
    elif isinstance(err, JointResonance):
        code = EXIT_RESONANCE
    report = {
        "command": command,
        "input": str(getattr(args, "path", "")),
        "digest": None,
        "results": {},
        "windows": [],
        "error": {"kind": kind, "code": code, "detail": str(err)},
    }
    if getattr(err, "window", None) is not None:
        report["windows"].append({"what": "failure window",
                                  "window": list(err.window)})
    try:
        _emit(args, report)
    except OSError:
        pass
    print(f"error ({kind}): {err}", file=_sys.stderr)
    return code


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pfaffred",
        description=(
            "Exact reduction and formal solutions of completely integrable "
            "Pfaffian systems with normal crossings in two variables."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, help_ in (
        ("check", cmd_check, "test the integrability identity"),
        ("reduce", cmd_reduce, "Moser rank reduction to the true Poincare rank"),
        ("expparts", cmd_expparts, "exponential parts of both axes"),
        ("katz", cmd_katz, "Katz invariant pair and true Poincare rank"),
        ("solve", cmd_solve, "fundamental-matrix data of formal solutions"),
    ):
        p = sub.add_parser(name, help=help_)
        p.add_argument("path", help="system document (JSON)")
        p.add_argument("--trunc-x", type=int, default=None,
                       help=f"override the x truncation order (1 <= t < {INF_ORDER})")
        p.add_argument("--trunc-y", type=int, default=None,
                       help=f"override the y truncation order (1 <= t < {INF_ORDER})")
        p.add_argument("--report", default=None,
                       help="write a JSON report to this path")
        p.add_argument("--strict", action="store_true",
                       help="treat window-limited zero verdicts as errors")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except PfaffredError as err:
        return _error_exit(args.command, args, err)


if __name__ == "__main__":
    raise SystemExit(main())
