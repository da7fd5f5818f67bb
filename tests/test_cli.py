import json
import shutil

import pytest

from pfaffred.cli import main
from pfaffred.io import parse_document, parse_system, serialize_system

from conftest import fixture_path


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
], ids=["zero", "negative", "sentinel"])
def test_trunc_out_of_range(flags, capsys):
    # 10**9 is the exactness sentinel: truncated data must never read as
    # exact, so windows must stay below it.
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


def test_invariant_violation_zero_leading(tmp_path):
    doc = {
        "n": 1, "p": 2, "q": 0, "trunc_x": 4, "trunc_y": 4,
        "A_terms": [{"i": 1, "j": 0, "matrix": [["1"]]}],
        "B_terms": [],
    }
    path = tmp_path / "zero_lead.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 2
