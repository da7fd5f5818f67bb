"""The document boundary reads and writes the stored form of a series.

io._terms_to_matrix reads each rational into a reduced (num, den) pair and
builds every entry with the trusted BiSeries._of; serialize_system writes
each coefficient from an entry's numerators and denominator.  Both must
agree with the Fraction-based reader and writer they replaced
(tests/oracle_io.py): the same entries field for field, byte-identical
JSON, and the same ParseError message and field for each malformed value,
while building no Fraction at all.

The generated documents hold ints, strings "a" and "a/b" with signs and
common factors, values that repeat (so the reader's memo of strings is
read), repeated terms that add up or cancel, and exponents at the edge of
the truncation window.

The digest of a document is the SHA-256 of its canonical JSON, computed
without loading OpenSSL.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracle_io
from conftest import count_fractions
from pfaffred import io
from pfaffred.errors import ParseError
from pfaffred.system import PfaffianSystem

SIDES = ("A_terms", "B_terms")


def _value():
    """One valid rational: an int, or a signed string "a" or "a/b"."""
    sign = st.sampled_from(["", "+", "-"])
    text = st.builds(lambda s, a: f"{s}{a}", sign, st.integers(0, 60))
    ratio = st.builds(lambda s, a, b: f"{s}{a}/{b}", sign, st.integers(0, 60),
                      st.integers(1, 36))
    return st.one_of(st.integers(-10**20, 10**20), st.just("0"), text, ratio)


def _negated(value):
    if type(value) is int:
        return -value
    return value[1:] if value[0] == "-" else "-" + value.lstrip("+")


@st.composite
def documents(draw):
    n = draw(st.integers(1, 3))
    tx, ty = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    # A small pool of values, so that about half of them repeat.
    pool = draw(st.lists(_value(), min_size=1, max_size=2 * n * n))
    values = st.sampled_from(pool)
    doc = {"n": n, "p": 0, "q": 0, "trunc_x": tx, "trunc_y": ty}
    for side in SIDES:
        terms = []
        for _ in range(draw(st.integers(0, 4))):
            i = draw(st.one_of(st.just(tx - 1), st.integers(0, tx - 1)))
            j = draw(st.one_of(st.just(ty - 1), st.integers(0, ty - 1)))
            mat = [[draw(values) for _ in range(n)] for _ in range(n)]
            terms.append({"i": i, "j": j, "matrix": mat})
            how = draw(st.sampled_from(["none", "repeat", "cancel"]))
            if how == "repeat":
                terms.append({"i": i, "j": j, "matrix": [row[:] for row in mat]})
            elif how == "cancel":
                terms.append({"i": i, "j": j,
                              "matrix": [[_negated(v) for v in row] for row in mat]})
        doc[side] = draw(st.permutations(terms))
    return doc


def _read(reader, doc):
    """Both sides of doc as read by reader(terms, side), or the
    (message, field) of the ParseError it raises."""
    n, tx, ty = doc["n"], doc["trunc_x"], doc["trunc_y"]
    try:
        return [reader(doc[side], n, tx, ty, side) for side in SIDES]
    except ParseError as err:
        return (str(err), err.field)


def _new_reader():
    memo = {}
    return lambda terms, n, tx, ty, side: io._terms_to_matrix(terms, n, tx, ty,
                                                               side, memo)


def _fields(m):
    return [(e.num, e.den, e.tx, e.ty, e.exact) for e in m.entries]


@given(documents())
def test_parse_builds_the_oracles_entries_and_no_fraction(doc):
    with pytest.MonkeyPatch.context() as mp:
        built = count_fractions(mp)
        got = _read(_new_reader(), doc)
    assert built == []
    want = _read(oracle_io._terms_to_matrix, doc)
    for g, w in zip(got, want, strict=True):
        assert (g.rows, g.cols) == (w.rows, w.cols)
        assert _fields(g) == _fields(w)
        assert all(type(v) is int for e in g.entries for v in e.num.values())


@st.composite
def systems(draw):
    """A system of generated sides: as read, cut to a smaller window, or
    moved by a monomial so that exact entries reach past the window."""
    doc = draw(documents())
    amat, bmat = _read(_new_reader(), doc)
    how = draw(st.sampled_from(["read", "truncated", "shifted"]))
    if how == "truncated":
        tx, ty = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        amat, bmat = amat.truncated(tx, ty), bmat.truncated(tx, ty)
    elif how == "shifted":
        dx, dy = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        amat, bmat = amat.shift(dx, dy), bmat.shift(dy, dx)
    return PfaffianSystem(doc["n"], draw(st.integers(0, 3)),
                          draw(st.integers(0, 3)), amat, bmat)


@given(systems())
def test_serialize_is_byte_identical_and_builds_no_fraction(sys_obj):
    with pytest.MonkeyPatch.context() as mp:
        built = count_fractions(mp)
        doc = io.serialize_system(sys_obj)
    assert built == []
    want = oracle_io.serialize_system(sys_obj)
    assert json.dumps(doc, indent=1, sort_keys=True) == json.dumps(
        want, indent=1, sort_keys=True)
    with tempfile.TemporaryDirectory() as tmp:
        new, old = Path(tmp) / "new.json", Path(tmp) / "old.json"
        io.write_system(sys_obj, new)
        oracle_io.write_system(sys_obj, old)
        assert new.read_bytes() == old.read_bytes()
    # The written document reads back to the same system.
    again = _read(_new_reader(), doc)
    for g, w in zip(again, (sys_obj.amat, sys_obj.bmat)):
        assert [(e.num, e.den) for e in g.entries] == [
            (e.num, e.den) for e in w.entries]


bad_value = st.one_of(
    st.sampled_from(["1/0", "-0/0", "+7/00", "", "-", "1e3", "0.5", "1/2/3",
                     " 1", "1 ", "\u0663", "1/-2", "1" * 5000, "3/" + "2" * 5000,
                     "9" * 5000 + "/0"]),
    st.none(), st.booleans(), st.floats(allow_nan=False),
    st.lists(st.integers(), max_size=2), st.dictionaries(st.text(max_size=2),
                                                         st.integers(), max_size=1),
)


@settings(max_examples=200)
@given(documents(), bad_value, st.data())
def test_malformed_value_raises_the_oracles_error(doc, bad, data):
    terms = [t for side in SIDES for t in doc[side]]
    if not terms:
        doc["B_terms"] = [{"i": 0, "j": 0,
                           "matrix": [["1"] * doc["n"] for _ in range(doc["n"])]}]
        terms = doc["B_terms"]
    term = data.draw(st.sampled_from(terms))
    n = doc["n"]
    term["matrix"][data.draw(st.integers(0, n - 1))][
        data.draw(st.integers(0, n - 1))] = bad
    with pytest.MonkeyPatch.context() as mp:
        built = count_fractions(mp)
        got = _read(_new_reader(), doc)
    assert built == []
    assert type(got) is tuple
    assert got == _read(oracle_io._terms_to_matrix, doc)


@given(documents())
def test_digest_is_sha256_of_the_canonical_json(doc):
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    want = hashlib.sha256(canon.encode("utf-8")).hexdigest()
    assert io.document_digest(doc) == want


def test_command_line_import_leaves_openssl_unloaded():
    src = Path(io.__file__).resolve().parent.parent
    code = "import sys, pfaffred.cli; print('_hashlib' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "False"
