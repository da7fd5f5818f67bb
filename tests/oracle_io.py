"""Reference document boundary: the Fraction-based reader and writer that
io.py replaced, kept verbatim apart from their imports.

_terms_to_matrix reads every rational into an int or a Fraction, adds
repeated terms as Fractions and builds each entry with the validating
BiSeries(...); serialize_system reads each coefficient as a Fraction from
the QMatrix coefficients of the system's sides; write_system streams the
document through json.dump.  The stored-form reader and writer must agree
with them field for field and byte for byte, and raise the same
ParseError for the same malformed value.
"""

import json
import re
from fractions import Fraction

from pfaffred.errors import ParseError
from pfaffred.matrices import SeriesMatrix
from pfaffred.series import BiSeries

_RATIONAL = re.compile(r"[+-]?\d+(/\d+)?", re.ASCII)


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


def serialize_system(sys) -> dict:
    tx, ty = sys.window
    a, b = sys.amat.coefficients(), sys.bmat.coefficients()
    # Exact entries may carry exponents beyond the nominal window; widen
    # the declared orders so the document round-trips.
    for (i, j) in (*a, *b):
        tx = max(tx, i + 1)
        ty = max(ty, j + 1)

    def side(coeffs):
        return [{"i": i, "j": j,
                 "matrix": [[rat_str(c) for c in row]
                            for row in coeffs[(i, j)].fraction_rows()]}
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


def write_system(sys, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(serialize_system(sys), fh, indent=1, sort_keys=True)
        fh.write("\n")
