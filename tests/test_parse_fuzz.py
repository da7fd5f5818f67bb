"""Parser fuzz: a malformed system document gives ParseError and exit 2,
never a traceback.

Each example takes a valid document and breaks it in one way: a value of
the wrong type, a missing required key, a bad exponent, a size beyond its
bound, a matrix of the wrong shape or a string that is not a rational.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from pfaffred.cli import main
from pfaffred.io import MAX_N, MAX_POLE, MAX_WINDOW

REQUIRED = ("n", "p", "q", "trunc_x", "trunc_y")


def valid_doc():
    return {"n": 2, "p": 0, "q": 0, "trunc_x": 4, "trunc_y": 4,
            "A_terms": [{"i": 1, "j": 0, "matrix": [["1", "0"], ["-1/2", "3"]]}],
            "B_terms": [{"i": 0, "j": 2, "matrix": [[0, 2], ["0", "5/3"]]}]}


# JSON values that are no integer (bools are no integer either).
not_int = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=False), st.text(max_size=4),
    st.lists(st.integers(), max_size=2), st.dictionaries(st.text(max_size=2),
                                                         st.integers(), max_size=2))
huge = st.integers(10**6, 10**30)


def not_rational_text(text):
    return not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", text, re.ASCII)


bad_rational = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=False),
    st.lists(st.integers(), max_size=2),
    st.text(max_size=8).filter(not_rational_text),
    st.sampled_from(["1/0", "-3/0", "1e3", "0.5", "1/2/3", " 1", "\u0663"]),
)

bad_size = {
    "n": st.one_of(st.integers(max_value=0), st.integers(MAX_N + 1, 10**9), huge),
    "p": st.one_of(st.integers(max_value=-1), st.integers(MAX_POLE + 1, 10**9), huge),
    "q": st.one_of(st.integers(max_value=-1), st.integers(MAX_POLE + 1, 10**9), huge),
    "trunc_x": st.one_of(st.integers(max_value=0), st.integers(MAX_WINDOW + 1, 10**9),
                         huge),
    "trunc_y": st.one_of(st.integers(max_value=0), st.integers(MAX_WINDOW + 1, 10**9),
                         huge),
}


@st.composite
def malformed(draw):
    doc = valid_doc()
    how = draw(st.sampled_from(["type", "missing", "size", "terms", "term",
                                "exponent", "matrix", "entry", "document"]))
    side = draw(st.sampled_from(["A_terms", "B_terms"]))
    term = doc[side][0]
    if how == "type":
        doc[draw(st.sampled_from(REQUIRED))] = draw(not_int)
    elif how == "missing":
        del doc[draw(st.sampled_from(REQUIRED))]
    elif how == "size":
        key = draw(st.sampled_from(REQUIRED))
        doc[key] = draw(bad_size[key])
    elif how == "terms":
        doc[side] = draw(st.one_of(st.none(), st.integers(), st.text(max_size=3),
                                   st.dictionaries(st.text(max_size=2), st.integers(),
                                                   max_size=2)))
    elif how == "term":
        doc[side][0] = draw(st.one_of(st.none(), st.integers(), st.text(max_size=3),
                                      st.lists(st.integers(), max_size=2)))
    elif how == "exponent":
        key = draw(st.sampled_from(["i", "j"]))
        window = doc["trunc_x" if key == "i" else "trunc_y"]
        term[key] = draw(st.one_of(not_int, st.integers(max_value=-1),
                                   st.integers(window, 10**9), huge))
    elif how == "matrix":
        rows = draw(st.integers(0, 3))
        cols = draw(st.integers(0, 3))
        shape = st.just([["1"] * cols for _ in range(rows)])
        term["matrix"] = draw(shape.filter(lambda m: (rows, cols) != (2, 2))
                              | st.one_of(st.none(), st.text(max_size=3),
                                          st.just([["1", "0"], "1"])))
    elif how == "entry":
        r, c = draw(st.integers(0, 1)), draw(st.integers(0, 1))
        term["matrix"][r][c] = draw(bad_rational)
    else:
        doc = draw(st.one_of(st.none(), st.integers(), st.text(max_size=4),
                             st.lists(st.integers(), max_size=2)))
    return doc


# Nine ways to break a document: more examples than the profile's 40.
@settings(max_examples=300)
@given(malformed())
def test_malformed_document_is_a_parse_error(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["check", str(path)])
    assert code == 2
    assert err.getvalue().startswith("error (ParseError)")


def test_valid_document_parses():
    # The documents the fuzz breaks are themselves valid.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(valid_doc()))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["check", str(path)]) in (0, 1)
