"""System documents (JSON) and report documents.

A system document is a single JSON object:

    {
      "n": 2, "p": 3, "q": 1,
      "trunc_x": 8, "trunc_y": 8,
      "A_terms": [{"i": 0, "j": 0, "matrix": [["0","0"],["-1","0"]]}, ...],
      "B_terms": [...]
    }

Each term contributes matrix * x^i y^j to the series part of the
corresponding subsystem; rationals are JSON integers or strings "num/den"
(or "num") of ASCII digits with an optional sign, and are written in
lowest terms.  Parsing round-trips losslessly.

Both directions build no Fraction: each distinct string of a document is
read once into a reduced (num, den) pair, and each entry is built in the
stored form of a series (see series.py); a document is written from each
entry's numerators and denominator, one gcd per coefficient.

Limits: 1 <= n <= MAX_N, checked before any n x n grid is allocated,
0 <= p, q <= MAX_POLE, and 1 <= trunc_x, trunc_y <= MAX_WINDOW, the range
of --trunc-x/-y too.  Anything else is a ParseError.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from importlib import import_module
from math import gcd, lcm

from .errors import InvariantViolation, ParseError
from .matrices import SeriesMatrix
from .series import BiSeries
from .system import PfaffianSystem

# SHA-256 from the built-in module that hashlib falls back to, since
# importing hashlib loads OpenSSL: _sha2 on Python 3.12+, _sha256 before.
for _module in ("_sha2", "_sha256", "hashlib"):
    try:
        sha256 = import_module(_module).sha256
        break
    except ImportError:
        pass

_RATIONAL = re.compile(r"[+-]?\d+(/\d+)?", re.ASCII)

# Largest accepted system size.  It bounds the grids allocated while
# parsing.
MAX_N = 32

# Largest accepted truncation order, in the document and on the command
# line.  It bounds the work of every command: a unit inverse fills up to
# tx * ty coefficients.  At 128, `solve` takes about 3 s on either
# fixture (2-vCPU VM, Python 3.11); at 1000 it takes minutes.  It is far
# below INF_ORDER, the internal "exact" sentinel, which is therefore never
# a legal window.
MAX_WINDOW = 128

# Largest accepted pole order.  The work of a command grows faster than
# linearly with p and q: `solve` on fixtures/exm.json with p = 64 takes
# about 3 s, interpreter start included (2-vCPU VM, Python 3.11).
MAX_POLE = 64


def _rat(text, memo, where, r, c):
    """The rational that entry [r][c] of the matrix at `where` spells, as
    (num, den) in lowest terms with den > 0; a string's pair is kept in
    memo, which the caller reads first."""
    if type(text) is int:
        return text, 1
    if isinstance(text, str) and _RATIONAL.fullmatch(text):
        num, _, den = text.partition("/")
        try:
            v, d = int(num), int(den or 1)
        except ValueError:
            # Python's int/str conversion limit.
            problem = f"rational of {len(text)} characters has too many digits"
        else:
            if d:
                g = gcd(v, d)
                memo[text] = rat = (v // g, d // g)
                return rat
            problem = f"bad rational {text!r}: zero denominator"
    else:
        problem = f"rational must be an integer or a string 'num/den': {text!r}"
    raise ParseError(problem, field=f"{where}.matrix[{r}][{c}]")


def rat_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


def _ratio_str(v, d):
    """rat_str of v / d, for ints v and d > 0."""
    g = gcd(v, d)
    return f"{v // g}/{d // g}" if d != g else str(v // g)


def _nonneg_int(doc, key):
    v = doc.get(key)
    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
        raise ParseError(f"{key} must be a nonnegative integer", field=key)
    return v


def check_window(t, where):
    """A truncation order must satisfy 1 <= t <= MAX_WINDOW."""
    if not 1 <= t <= MAX_WINDOW:
        raise ParseError(f"{where} must satisfy 1 <= t <= {MAX_WINDOW}, got {t}",
                         field=where)


def _terms_to_matrix(terms, n, tx, ty, side, memo):
    if not isinstance(terms, list):
        raise ParseError(f"{side} must be a list of terms", field=side)
    cells = [{} for _ in range(n * n)]    # per entry, in row-major order
    for idx, term in enumerate(terms):
        where = f"{side}[{idx}]"
        if not isinstance(term, dict):
            raise ParseError("term must be an object", field=where)
        for key in ("i", "j"):
            v = term.get(key)
            if not isinstance(v, int) or isinstance(v, bool):
                raise ParseError(f"{key} must be an integer", field=where)
            if v < 0:
                raise ParseError(f"negative exponent {key}={v}", field=where)
        i, j = e = term["i"], term["j"]
        if i >= tx or j >= ty:
            raise ParseError(
                f"exponent ({i},{j}) outside the truncation window", field=where
            )
        mat = term.get("matrix")
        if (
            not isinstance(mat, list)
            or len(mat) != n
            or any(not isinstance(row, list) or len(row) != n for row in mat)
        ):
            raise ParseError(f"matrix must be {n}x{n}", field=where)
        for r, row in enumerate(mat):
            for c, text in enumerate(row):
                rat = memo.get(text) if type(text) is str else None
                if rat is None:
                    rat = _rat(text, memo, where, r, c)
                if rat[0]:
                    # Repeated terms add up; a sum that cancels is dropped.
                    cell = cells[r * n + c]
                    old = cell.get(e)
                    if old is not None:
                        v, d = rat
                        rat = (old[0] * d + v * old[1], old[1] * d)
                        if not rat[0]:
                            del cell[e]
                            continue
                    cell[e] = rat
    # Document terms describe a polynomial exactly; the declared truncation
    # orders become the default working precision of derived computations.
    # Each entry is brought over the lcm of its denominators and divided by
    # one gcd: a sum of repeated terms need not be in lowest terms.
    entries = []
    for cell in cells:
        den = lcm(*[d for _, d in cell.values()])
        entries.append(BiSeries._reduced(
            {e: v * (den // d) for e, (v, d) in cell.items()}, den, tx, ty, True))
    return SeriesMatrix(n, n, entries)


def parse_document(doc: dict) -> PfaffianSystem:
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    n = _nonneg_int(doc, "n")
    if not 1 <= n <= MAX_N:
        raise ParseError(f"n must satisfy 1 <= n <= {MAX_N}", field="n")
    p = _nonneg_int(doc, "p")
    q = _nonneg_int(doc, "q")
    for key, pole in (("p", p), ("q", q)):
        if pole > MAX_POLE:
            raise ParseError(f"{key} must satisfy 0 <= {key} <= {MAX_POLE}",
                             field=key)
    tx = _nonneg_int(doc, "trunc_x")
    ty = _nonneg_int(doc, "trunc_y")
    for key, t in (("trunc_x", tx), ("trunc_y", ty)):
        check_window(t, key)
    memo = {}   # each distinct string of the document is read once
    amat = _terms_to_matrix(doc.get("A_terms", []), n, tx, ty, "A_terms", memo)
    bmat = _terms_to_matrix(doc.get("B_terms", []), n, tx, ty, "B_terms", memo)
    if p > 0 and amat.eval_zero_matrix("x").is_zero():
        raise InvariantViolation("A_terms have no x^0 part although p > 0")
    if q > 0 and bmat.eval_zero_matrix("y").is_zero():
        raise InvariantViolation("B_terms have no y^0 part although q > 0")
    return PfaffianSystem.make(n, p, q, amat, bmat)


def read_document(path) -> dict:
    """The decoded JSON document at path; ParseError for a missing file or
    bad JSON, an integer longer than Python's int/str conversion limit
    included."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ParseError(f"no such file: {path}") from None
    except ValueError as exc:
        # JSONDecodeError, or the int/str limit on an integer literal.
        raise ParseError(f"invalid JSON: {exc}", field=str(path)) from None


def parse_system(path) -> PfaffianSystem:
    return parse_document(read_document(path))


def serialize_system(sys: PfaffianSystem) -> dict:
    n, (tx, ty) = sys.n, sys.window

    def side(mat):
        # The text of each nonzero coefficient, per entry.
        texts = [{e: _ratio_str(v, s.den) for e, v in s.num.items()}
                 for s in mat.entries]
        rows = [texts[r * n:(r + 1) * n] for r in range(n)]
        return [{"i": i, "j": j,
                 "matrix": [[t.get((i, j), "0") for t in row] for row in rows]}
                for (i, j) in sorted({e for t in texts for e in t})]

    a, b = side(sys.amat), side(sys.bmat)
    # Exact entries may carry exponents beyond the nominal window; widen
    # the declared orders so the document round-trips.
    for term in (*a, *b):
        tx = max(tx, term["i"] + 1)
        ty = max(ty, term["j"] + 1)
    return {
        "n": n,
        "p": sys.p,
        "q": sys.q,
        "trunc_x": tx,
        "trunc_y": ty,
        "A_terms": a,
        "B_terms": b,
    }


def write_json(obj, path):
    """Write obj to path as indented JSON with sorted keys, in one write."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, indent=1, sort_keys=True) + "\n")


def write_system(sys: PfaffianSystem, path):
    write_json(serialize_system(sys), path)


def document_digest(doc: dict) -> str:
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return sha256(canon.encode("utf-8")).hexdigest()
