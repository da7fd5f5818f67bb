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

Limits: 1 <= n <= MAX_N, checked before any n x n grid is allocated,
0 <= p, q <= MAX_POLE, and 1 <= trunc_x, trunc_y <= MAX_WINDOW, the range
of --trunc-x/-y too.  Anything else is a ParseError.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction

from .errors import InvariantViolation, ParseError
from .matrices import SeriesMatrix
from .series import BiSeries
from .system import PfaffianSystem

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


def _rat(text, where, r, c):
    """The rational that entry [r][c] of the matrix at `where` spells: an
    int, or a Fraction for 'a/b'."""
    if type(text) is int:
        return text
    if isinstance(text, str) and _RATIONAL.fullmatch(text):
        num, _, den = text.partition("/")
        try:
            return Fraction(int(num), int(den)) if den else int(num)
        except ZeroDivisionError:
            problem = f"bad rational {text!r}: zero denominator"
        except ValueError:
            # Python's int/str conversion limit.
            problem = f"rational of {len(text)} characters has too many digits"
    else:
        problem = f"rational must be an integer or a string 'num/den': {text!r}"
    raise ParseError(problem, field=f"{where}.matrix[{r}][{c}]")


def rat_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


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


def _terms_to_matrix(terms, n, tx, ty, side):
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
        i, j = term["i"], term["j"]
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
                val = _rat(text, where, r, c)
                if val:
                    # A first value is stored as it is; repeated terms add up.
                    cell = cells[r * n + c]
                    cell[i, j] = cell[i, j] + val if cell.get((i, j)) else val
    # Document terms describe a polynomial exactly; the declared truncation
    # orders become the default working precision of derived computations.
    return SeriesMatrix(n, n, [BiSeries(cell, tx, ty, exact=True)
                               for cell in cells])


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
    amat = _terms_to_matrix(doc.get("A_terms", []), n, tx, ty, "A_terms")
    bmat = _terms_to_matrix(doc.get("B_terms", []), n, tx, ty, "B_terms")
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
    tx, ty = sys.window
    a, b = sys.amat.coefficients(), sys.bmat.coefficients()
    # Exact entries may carry exponents beyond the nominal window; widen
    # the declared orders so the document round-trips.
    for (i, j) in (*a, *b):
        tx = max(tx, i + 1)
        ty = max(ty, j + 1)

    def side(coeffs):
        return [{"i": i, "j": j,
                 "matrix": [[rat_str(c) for c in row] for row in coeffs[(i, j)]]}
                for (i, j) in sorted(coeffs)]

    return {
        "n": sys.n,
        "p": sys.p,
        "q": sys.q,
        "trunc_x": tx,
        "trunc_y": ty,
        "A_terms": side(a),
        "B_terms": side(b),
    }


def write_system(sys: PfaffianSystem, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(serialize_system(sys), fh, indent=1, sort_keys=True)
        fh.write("\n")


def document_digest(doc: dict) -> str:
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()
