import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from pfaffred import cli
from pfaffred.cli import main
from pfaffred.io import (
    MAX_N,
    MAX_POLE,
    MAX_WINDOW,
    parse_document,
    parse_system,
    serialize_system,
)
from pfaffred.series import INF_ORDER

from conftest import fixture_path, random_integrable_system


def copy_fixture(tmp_path, name):
    dst = tmp_path / name
    shutil.copy(fixture_path(name), dst)
    return dst


def perturbed_doc():
    """The non-integrable variant: one coefficient moved from the y^1 to
    the y^0 layer of the second subsystem."""
    with open(fixture_path("exmnaive.json")) as fh:
        doc = json.load(fh)
    for term in doc["B_terms"]:
        if term["i"] == 0 and term["j"] == 0:
            term["matrix"][1][1] = "-3"
        if term["i"] == 0 and term["j"] == 1:
            term["matrix"][1][1] = "0"
    return doc


def test_roundtrip(exm):
    doc = serialize_system(exm)
    again = parse_document(doc)
    assert again.same_up_to_window(exm)
    assert serialize_system(again) == doc


def test_parse_negative_exponent(tmp_path):
    doc = {"n": 1, "p": 0, "q": 0, "trunc_x": 4, "trunc_y": 4,
           "A_terms": [{"i": -1, "j": 0, "matrix": [["1"]]}], "B_terms": []}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 2


def one_entry_doc(value):
    return {"n": 1, "p": 0, "q": 0, "trunc_x": 4, "trunc_y": 4,
            "A_terms": [{"i": 0, "j": 0, "matrix": [[value]]}], "B_terms": []}


@pytest.mark.parametrize("value", [
    True, False, None, 0.5, 2.0, [1], "1e3", "0.5", "1/0", "1/2/3", " 1",
    "1 / 2", "", "/2", "inf", "nan", "1_000", "\u0663",
])
def test_parse_rejects_bad_rational(tmp_path, value, capsys):
    # Rationals are ints or strings "num" / "num/den" with ASCII digits.
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(one_entry_doc(value)))
    assert main(["check", str(path)]) == 2
    assert "ParseError" in capsys.readouterr().err


@pytest.mark.parametrize("value, expected", [
    (3, 3), ("3", 3), ("-3/4", Fraction(-3, 4)), ("+2/6", Fraction(1, 3)),
])
def test_parse_accepts_rational(value, expected):
    sys_obj = parse_document(one_entry_doc(value))
    assert sys_obj.amat.at(0, 0).coeff(0, 0) == expected


# Python refuses int/str conversions of more than 4300 digits.
LONG = "7" * 5000
LONG_DOCS = {
    "matrix entry": json.dumps(one_entry_doc(0)).replace(
        '"matrix": [[0]]', f'"matrix": [[{LONG}]]'),
    "n": json.dumps(one_entry_doc(0)).replace('"n": 1', f'"n": {LONG}'),
    "rational string": json.dumps(one_entry_doc(f"1/{LONG}")),
}


@pytest.mark.parametrize("where", LONG_DOCS)
def test_overlong_integer_is_a_parse_error(tmp_path, where, capsys):
    path = tmp_path / "long.json"
    path.write_text(LONG_DOCS[where])
    assert LONG in path.read_text()
    report = tmp_path / "report.json"
    assert main(["check", str(path), "--report", str(report)]) == 2
    assert "ParseError" in capsys.readouterr().err
    error = json.loads(report.read_text())["error"]
    assert (error["kind"], error["code"]) == ("ParseError", 2)


def test_non_utf8_document_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(one_entry_doc("1"))[:-1].encode()
                     + b', "note": "\xff"}')
    assert main(["check", str(path)]) == 2
    assert "ParseError" in capsys.readouterr().err


def test_parse_accepts_4000_digit_rationals():
    num, den = int("7" * 4000), int("3" * 3999 + "1")
    sys_obj = parse_document(one_entry_doc(f"-{num}/{den}"))
    assert sys_obj.amat.at(0, 0).coeff(0, 0) == Fraction(-num, den)


@pytest.mark.parametrize("key, value", [
    ("n", MAX_N + 1), ("trunc_x", INF_ORDER), ("trunc_y", INF_ORDER),
    ("trunc_x", 0), ("trunc_y", 0),
    ("trunc_x", MAX_WINDOW + 1), ("trunc_y", MAX_WINDOW + 1),
])
def test_parse_rejects_out_of_range_sizes(tmp_path, key, value, capsys):
    # n and the document windows are bounded before any grid is built.
    doc = one_entry_doc("1")
    doc[key] = value
    if key == "n":
        doc["A_terms"] = []
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 2
    assert "ParseError" in capsys.readouterr().err


def test_parse_accepts_largest_sizes():
    doc = one_entry_doc("1")
    doc["trunc_x"] = doc["trunc_y"] = MAX_WINDOW
    assert parse_document(doc).amat.at(0, 0).window == (MAX_WINDOW,) * 2
    doc = one_entry_doc("1")
    doc["n"], doc["A_terms"] = MAX_N, []
    assert parse_document(doc).n == MAX_N


@pytest.mark.parametrize("key", ["p", "q"])
def test_parse_pole_bound(tmp_path, key, capsys):
    # Pole orders up to MAX_POLE parse; one more is a parse error, exit 2.
    doc = one_entry_doc("1")
    doc["B_terms"] = [{"i": 0, "j": 0, "matrix": [["1"]]}]
    doc[key] = MAX_POLE
    sys_obj = parse_document(doc)
    assert (sys_obj.p, sys_obj.q)[key == "q"] == MAX_POLE
    doc[key] = MAX_POLE + 1
    path = tmp_path / "pole.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 2
    assert f"{key} must satisfy" in capsys.readouterr().err


def test_check_fixtures(tmp_path, capsys):
    assert main(["check", str(fixture_path("exm.json"))]) == 0
    assert main(["check", str(fixture_path("exmnaive.json"))]) == 0
    out = capsys.readouterr().out
    assert "integrable" in out


@pytest.mark.parametrize("command", ["check", "reduce", "expparts", "katz", "solve"])
def test_check_perturbed(tmp_path, command):
    path = tmp_path / "perturbed.json"
    path.write_text(json.dumps(perturbed_doc()))
    assert main([command, str(path)]) == 1


def test_check_missing_file(tmp_path):
    assert main(["check", str(tmp_path / "nope.json")]) == 2


def test_unreadable_documents_keep_their_messages(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["check", str(missing)]) == 2
    assert capsys.readouterr().err == f"error (ParseError): no such file: {missing}\n"
    assert main(["check", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error (ParseError): invalid JSON: ")


def test_document_is_read_once(tmp_path, monkeypatch):
    # The digest comes from the dict that was parsed, not a second read.
    path = copy_fixture(tmp_path, "exm.json")
    opened = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        if str(file) == str(path):
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    assert main(["check", str(path), "--trunc-x", "6"]) == 0
    assert len(opened) == 1


def test_reduce_writes_sibling(tmp_path, capsys):
    path = copy_fixture(tmp_path, "exmnaive.json")
    report_path = tmp_path / "report.json"
    assert main(["reduce", str(path), "--report", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert "(0, 0)" in out
    reduced_path = tmp_path / "exmnaive.reduced.json"
    assert reduced_path.exists()
    reduced = parse_system(reduced_path)
    assert (reduced.p, reduced.q) == (0, 0)
    report = json.loads(report_path.read_text())
    assert report["results"]["p"] == 0 and report["results"]["q"] == 0
    assert all(s["compatible"] for s in report["results"]["steps"])
    # Ranks never increase within a step on the sheared axis.
    for s in report["results"]["steps"]:
        assert s["moser"][1] <= s["moser"][0] or s["kind"] != "shearing"


def test_reduce_truncated_theta_is_window_certified(tmp_path):
    # Truncated data: every zero acceptance names its finite window; the
    # second theta_x used to read as exact, at the sentinel.
    path = copy_fixture(tmp_path, "exmnaive.json")
    report_path = tmp_path / "report.json"
    assert main(["reduce", str(path), "--trunc-x", "8", "--trunc-y", "8",
                 "--report", str(report_path)]) == 0
    windows = json.loads(report_path.read_text())["windows"]
    assert windows and all(INF_ORDER not in z["window"] for z in windows)
    theta_x = [z["window"] for z in windows if z["what"] == "theta_x"]
    assert theta_x[1] == [6, 8]


def test_reduce_irreducible_fixture(tmp_path):
    # Airy-like system: already Moser-irreducible, zero steps.
    doc = {
        "n": 2, "p": 1, "q": 0, "trunc_x": 6, "trunc_y": 6,
        "A_terms": [
            {"i": 0, "j": 0, "matrix": [["0", "1"], ["0", "0"]]},
            {"i": 1, "j": 0, "matrix": [["0", "0"], ["1", "0"]]},
        ],
        "B_terms": [],
    }
    path = tmp_path / "irr.json"
    path.write_text(json.dumps(doc))
    report_path = tmp_path / "r.json"
    assert main(["reduce", str(path), "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["results"]["steps"] == []
    assert report["results"]["gauge_provenance"] == ["identity"]


def test_expparts_and_katz(tmp_path, capsys):
    assert main(["expparts", str(fixture_path("exm.json"))]) == 0
    out = capsys.readouterr().out
    assert "(-1)*x^(-1)" in out
    assert "(3)*y^(-2) + (2)*y^(-1)" in out
    assert main(["katz", str(fixture_path("exm.json"))]) == 0
    out = capsys.readouterr().out
    assert "(1, 2)" in out
    assert main(["katz", str(fixture_path("exmnaive.json"))]) == 0
    out = capsys.readouterr().out
    assert "(0, 0)" in out


def test_solve_reports(tmp_path, capsys):
    report_path = tmp_path / "solve.json"
    assert main(["solve", str(fixture_path("exm.json")),
                 "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    res = report["results"]
    assert res["complete"] is True
    assert res["s"] == [1, 1]
    from fractions import Fraction

    lam1 = sorted(Fraction(row[i]) for i, row in enumerate(res["lambda1"]))
    lam2 = sorted(Fraction(row[i]) for i, row in enumerate(res["lambda2"]))
    assert lam1 == [-2, 1]
    assert lam2 == [-2, -1]


def test_solve_exit_codes(tmp_path):
    # Irrational leading eigenvalues: algebraic extension required (4).
    doc = {
        "n": 2, "p": 1, "q": 0, "trunc_x": 6, "trunc_y": 6,
        "A_terms": [
            {"i": 0, "j": 0, "matrix": [["0", "1"], ["2", "0"]]},
        ],
        "B_terms": [],
    }
    path = tmp_path / "irrational.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) == 4
    # Jointly resonant regular system (5).
    doc2 = {
        "n": 2, "p": 0, "q": 0, "trunc_x": 6, "trunc_y": 6,
        "A_terms": [
            {"i": 0, "j": 0, "matrix": [["0", "0"], ["0", "1"]]},
            {"i": 1, "j": 1, "matrix": [["0", "0"], ["1", "0"]]},
        ],
        "B_terms": [
            {"i": 0, "j": 0, "matrix": [["0", "0"], ["0", "1"]]},
            {"i": 1, "j": 1, "matrix": [["0", "0"], ["1", "0"]]},
        ],
    }
    path2 = tmp_path / "resonant.json"
    path2.write_text(json.dumps(doc2))
    assert main(["solve", str(path2)]) == 5


def test_regular_solve_stops_at_irrational_eigenvalues(tmp_path, capsys):
    # A regular system (poles (0, 0)) whose x leading constant has the
    # eigenvalues +-sqrt(2): the exponential parts are 0, but the regular
    # solve cannot triangularize over Q.
    doc = {"n": 2, "p": 0, "q": 0, "trunc_x": 4, "trunc_y": 4,
           "A_terms": [{"i": 0, "j": 0, "matrix": [["0", "1"], ["2", "0"]]}],
           "B_terms": []}
    path = tmp_path / "regular_irrational.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) == 4
    assert capsys.readouterr().out.splitlines()[-1] == (
        "partial result; blocked at: algebraic-extension: regular solve "
        "needs rational eigenvalues of both leading constants")
    assert main(["expparts", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "x: Q = 0 (multiplicity 2)",
        "y: Q = 0 (multiplicity 2)",
    ]


def test_regular_solve_on_a_short_window_is_window_exhaustion(tmp_path,
                                                               capsys):
    # check certifies this system integrable at window (3, 4), but the
    # regular solve's mixed-axis elimination is inconsistent on the window
    # that the splitting leaves: that is window exhaustion (exit 3), not
    # a failed integrability (exit 1).  The exact data solves.
    sys_obj = random_integrable_system(random.Random(12), n=2, p=1, q=1)
    path = tmp_path / "seed12.json"
    path.write_text(json.dumps(serialize_system(sys_obj)))
    flags = ["--trunc-x", "3", "--trunc-y", "4"]
    assert main(["check", str(path), *flags]) == 0
    assert capsys.readouterr().out == "integrable; residual window: (3, 4)\n"
    report = tmp_path / "report.json"
    assert main(["solve", str(path), *flags, "--report", str(report)]) == 3
    assert capsys.readouterr().err.startswith("error (TruncationExhausted): ")
    [failure] = json.loads(report.read_text())["windows"]
    tx, ty = failure["window"]
    assert tx <= 3 and ty <= 4
    assert main(["solve", str(path)]) == 0


@pytest.mark.parametrize("command", ["check", "reduce", "expparts", "katz",
                                     "solve"])
def test_window_that_zeroes_a_side_is_window_exhaustion(tmp_path, capsys,
                                                         command):
    # A = y with pole 1: cut to --trunc-y 1, the x-side is zero on its
    # window, so its pole is unknown there.  That is window exhaustion
    # (exit 3), not a malformed document (exit 2).
    doc = {"n": 1, "p": 1, "q": 0, "trunc_x": 4, "trunc_y": 4,
           "A_terms": [{"i": 0, "j": 1, "matrix": [["1"]]}], "B_terms": []}
    path = tmp_path / "zero_side.json"
    path.write_text(json.dumps(doc))
    report = tmp_path / "report.json"
    assert main([command, str(path), "--trunc-y", "1",
                 "--report", str(report)]) == 3
    assert capsys.readouterr().err.startswith("error (TruncationExhausted): ")
    [failure] = json.loads(report.read_text())["windows"]
    assert failure == {"what": "failure window", "window": [4, 1]}


def test_unwritable_outputs_exit_2(tmp_path, capsys):
    # An output that cannot be written is an error line naming its path
    # (exit 2), never a traceback: the report, the reduced system, and
    # the report of a run that already failed.
    unwritable = tmp_path / "missing-dir" / "r.json"
    exm = copy_fixture(tmp_path, "exm.json")
    assert main(["check", str(exm), "--report", str(unwritable)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error (FileNotFoundError): ") and str(unwritable) in err
    reduced = tmp_path / "exm.reduced.json"
    reduced.mkdir()
    assert main(["reduce", str(exm)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error (IsADirectoryError): ") and str(reduced) in err
    missing = tmp_path / "nope.json"
    assert main(["check", str(missing), "--report", str(unwritable)]) == 2
    assert capsys.readouterr().err == f"error (ParseError): no such file: {missing}\n"


# x^2 dY/dx = [[0, 1], [x, 0]] Y, y^2 dY/dy = 3 Y: a ramified x-axis
# (Katz invariant 1/2) next to a scalar y-axis.
RAMIFIED_DOC = {
    "n": 2, "p": 1, "q": 1, "trunc_x": 8, "trunc_y": 8,
    "A_terms": [{"i": 0, "j": 0, "matrix": [["0", "1"], ["0", "0"]]},
                {"i": 1, "j": 0, "matrix": [["0", "0"], ["1", "0"]]}],
    "B_terms": [{"i": 0, "j": 0, "matrix": [["3", "0"], ["0", "3"]]}],
}


def test_solve_stops_at_the_ramified_assembly(tmp_path, capsys):
    path = tmp_path / "ramified.json"
    path.write_text(json.dumps(RAMIFIED_DOC))
    assert main(["check", str(path)]) == 0
    assert main(["katz", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == ["katz invariant: (1/2, 1)", "true poincare rank: (1, 1)"]
    assert main(["expparts", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "x: Q = (-2)*x^(-1/2) (multiplicity 1)",
        "x: Q = (2)*x^(-1/2) (multiplicity 1)",
        "y: Q = (-3)*y^(-1) (multiplicity 2)",
    ]
    # The y-axis is shifted, then the Moser-irreducible nilpotent x-block
    # stops the assembly with the per-axis data and no exponent matrices.
    report = tmp_path / "report.json"
    assert main(["solve", str(path), "--report", str(report)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "ramification s = (2, 1)",
        "solution 0: Q1 = (-2)*x^(-1/2), Q2 = (-3)*y^(-1)",
        "solution 1: Q1 = (2)*x^(-1/2), Q2 = (-3)*y^(-1)",
        "partial result; blocked at: ramified-bivariate-assembly",
    ]
    res = json.loads(report.read_text())["results"]
    assert res["complete"] is False
    assert res["blocked"] == "ramified-bivariate-assembly"
    assert res["s"] == [2, 1]
    assert "lambda1" not in res


@pytest.mark.parametrize("axis", ["x", "y"])
def test_irrational_leading_constant_on_either_axis(tmp_path, axis, capsys):
    # Leading constant [[0, 1], [2, 0]]: eigenvalues +-sqrt(2).
    term = [{"i": 0, "j": 0, "matrix": [["0", "1"], ["2", "0"]]}]
    doc = {"n": 2, "p": int(axis == "x"), "q": int(axis == "y"),
           "trunc_x": 6, "trunc_y": 6,
           "A_terms": term if axis == "x" else [],
           "B_terms": term if axis == "y" else []}
    path = tmp_path / "irrational.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) == 4
    assert capsys.readouterr().out.splitlines()[-1] == (
        "partial result; blocked at: algebraic-extension: leading-constant "
        f"eigenvalue is irrational on axis {axis}")
    report = tmp_path / "report.json"
    assert main(["expparts", str(path), "--report", str(report)]) == 4
    assert capsys.readouterr().err.startswith(
        "error (AlgebraicExtensionRequired): ")
    # The error object carries the blocking factor t^2 - 2, low degree
    # first.
    assert json.loads(report.read_text())["error"] == {
        "kind": "AlgebraicExtensionRequired", "code": 4,
        "detail": "shift eigenvalue is irrational (irreducible factor of "
                  "degree 2)",
        "factor": ["-2", "0", "1"],
    }


def test_parse_error_report_names_the_field(tmp_path, capsys):
    doc = {"n": 2, "p": 0, "q": 0, "trunc_x": 4, "trunc_y": 4,
           "A_terms": [{"i": 0, "j": 0, "matrix": [["1", "0"], ["1/0", "1"]]}],
           "B_terms": []}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    report = tmp_path / "report.json"
    assert main(["check", str(path), "--report", str(report)]) == 2
    err = capsys.readouterr().err
    assert err == "error (ParseError): bad rational '1/0': zero denominator\n"
    error = json.loads(report.read_text())["error"]
    assert error["field"] == "A_terms[0].matrix[1][0]"
    assert "factor" not in error
    # An error without a field gives the object no "field" key.
    missing = tmp_path / "missing.json"
    assert main(["check", str(missing), "--report", str(report)]) == 2
    capsys.readouterr()
    assert json.loads(report.read_text())["error"] == {
        "kind": "ParseError", "code": 2, "detail": f"no such file: {missing}"}


def test_reports_deterministic(tmp_path):
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["katz", str(fixture_path("exm.json")), "--report", str(r1)]) == 0
    assert main(["katz", str(fixture_path("exm.json")), "--report", str(r2)]) == 0
    assert r1.read_text() == r2.read_text()


def test_trunc_override(tmp_path, capsys):
    assert main(["check", str(fixture_path("exm.json")),
                 "--trunc-x", "5", "--trunc-y", "5"]) == 0
    out = capsys.readouterr().out
    assert "(5, 5)" in out  # the residual window reflects the override


@pytest.mark.parametrize("flags", [
    ["--trunc-x", "0"],
    ["--trunc-x", "-3"],
    ["--trunc-x", "1000000000", "--trunc-y", "1000000000", "--strict"],
    ["--trunc-y", str(MAX_WINDOW + 1)],
], ids=["zero", "negative", "sentinel", "above-bound"])
def test_trunc_out_of_range(flags, capsys):
    # 10**9 is the exactness sentinel: truncated data must never read as
    # exact, so windows must stay below it.  MAX_WINDOW bounds the work.
    assert main(["check", str(fixture_path("exm.json")), *flags]) == 2
    captured = capsys.readouterr()
    assert "ParseError" in captured.err
    assert "exact" not in captured.out


def test_strict_mode():
    # Exact inputs: verdicts are unconditional, strict changes nothing.
    assert main(["check", str(fixture_path("exm.json")), "--strict"]) == 0
    # Truncated inputs: window-limited zero verdicts become exit 3.
    assert main(["check", str(fixture_path("exm.json")), "--strict",
                 "--trunc-x", "6", "--trunc-y", "6"]) == 3


@pytest.mark.parametrize("command, window", [("reduce", "8"), ("check", "6")])
def test_strict_refusal_writes_the_error_report(tmp_path, command, window):
    # A --strict refusal is a TruncationExhausted error: exit 3, and the
    # report (here over a stale one) carries the error.
    doc = copy_fixture(tmp_path, "exmnaive.json")
    report = tmp_path / "r.json"
    report.write_text('{"stale": true}\n')
    code = main([command, str(doc), "--trunc-x", window, "--trunc-y", window,
                 "--strict", "--report", str(report)])
    written = json.loads(report.read_text())
    assert code == 3
    assert written["error"]["code"] == 3
    assert written["error"]["kind"] == "TruncationExhausted"
    assert written["windows"][0]["what"] == "failure window"


def test_y_axis_failure_names_y(tmp_path, capsys):
    # At y-window 1, the y-axis Moser step cannot read B1: the failure
    # names y^1, and its window is reported in (x, y) order.
    doc = copy_fixture(tmp_path, "exm.json")
    report = tmp_path / "r.json"
    code = main(["katz", str(doc), "--trunc-x", "2", "--trunc-y", "1",
                 "--report", str(report)])
    written = json.loads(report.read_text())
    assert code == 3
    assert "coefficient of y^1 outside the window" in capsys.readouterr().err
    assert written["error"]["detail"] == "coefficient of y^1 outside the window"
    assert [w["window"] for w in written["windows"]
            if w["what"] == "failure window"] == [[2, 1]]


def test_invariant_violation_zero_leading(tmp_path):
    doc = {
        "n": 1, "p": 2, "q": 0, "trunc_x": 4, "trunc_y": 4,
        "A_terms": [{"i": 1, "j": 0, "matrix": [["1"]]}],
        "B_terms": [],
    }
    path = tmp_path / "zero_lead.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 2


def test_consecutive_calls_match_single_calls(tmp_path, capsys):
    # One process builds the parser once.  A run of calls with different
    # commands and flags, a failing one and an argument error among them,
    # gives each call's exit code, output and report as a fresh process
    # running that call alone.
    exm = copy_fixture(tmp_path, "exm.json")
    naive = copy_fixture(tmp_path, "exmnaive.json")
    bad = tmp_path / "perturbed.json"
    bad.write_text(json.dumps(perturbed_doc()))
    calls = [
        ["check", exm, "--trunc-x", "5", "--trunc-y", "6"],
        ["reduce", naive, "--strict"],
        ["katz", exm],
        ["check", bad],
        ["expparts", naive, "--trunc-y", "7"],
        ["solve", exm],
        ["check", tmp_path / "nope.json"],
        ["katz"],
        ["check", exm, "--strict"],
    ]
    reports = [tmp_path / f"report{k}.json" if len(call) > 1 else None
               for k, call in enumerate(calls)]
    argvs = [[str(a) for a in call] + (["--report", str(r)] if r else [])
             for call, r in zip(calls, reports)]

    def result(code, out, err, r):
        text = r.read_text() if r and r.exists() else None
        if r:
            r.unlink(missing_ok=True)
        return code, out, err, text

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).parent.parent), os.environ.get("PYTHONPATH", "")]))
    alone = []
    for argv, r in zip(argvs, reports):
        done = subprocess.run([sys.executable, "-m", "pfaffred.cli", *argv],
                              capture_output=True, text=True, env=env)
        alone.append(result(done.returncode, done.stdout, done.stderr, r))
    together = []
    for argv, r in zip(argvs, reports):
        try:
            code = main(argv)
        except SystemExit as stop:
            code = stop.code
        out = capsys.readouterr()
        together.append(result(code, out.out, out.err, r))
    assert [c[0] for c in alone] == [0, 0, 0, 1, 0, 0, 2, 2, 0]
    assert together == alone
    assert cli.build_parser() is cli.build_parser()
