"""Matrices of truncated bivariate series, and Laurent wrappers.

SeriesMatrix is a dense square-or-rectangular matrix of BiSeries sharing a
common truncation window (the constructor truncates every entry to the
componentwise minimum; the pessimistic window is the contract).

LaurentMatrix is x^(-px) y^(-py) times a SeriesMatrix; it is the carrier
for gauge factors and their inverses, and for gauge results whose
normal-crossings status is not yet known.

Rank and column reduction over the one-variable series ring use exact
elimination with minimal-valuation pivoting (ties: smallest row, then
smallest column), so every verdict is certified on the stated window.
"""

from __future__ import annotations

from itertools import repeat
from math import lcm

from . import qlinalg
from .errors import DimensionMismatch, TruncationExhausted
from .series import ONE, BiSeries, dots, exponent


class SeriesMatrix:
    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        entries = list(entries)
        if len(entries) != rows * cols:
            raise DimensionMismatch("entry count does not match shape")
        # Exact entries are compatible with every window; only truncated
        # entries are normalized to the common (pessimistic) window.
        inexact = [e for e in entries if not e.exact]
        if inexact:
            tx = min(e.tx for e in inexact)
            ty = min(e.ty for e in inexact)
            entries = [e if e.exact else e.truncated(tx, ty) for e in entries]
        self.rows = rows
        self.cols = cols
        self.entries = tuple(entries)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_rows(cls, rows_of_series):
        r = len(rows_of_series)
        c = len(rows_of_series[0]) if r else 0
        flat = [e for row in rows_of_series for e in row]
        return cls(r, c, flat)

    @classmethod
    def from_rational_rows(cls, rows, tx, ty):
        return cls.from_coefficients({(0, 0): qlinalg.QMatrix(rows)}, len(rows),
                                     tx, ty, exact=True)

    @classmethod
    def from_coefficients(cls, coeffs, n, tx, ty, exact=False):
        """The n x n matrix sum coeffs[(i, j)] x^i y^j from QMatrix
        coefficients, truncated to the window (tx, ty) or, with `exact`,
        exact at those nominal orders."""
        if not exact:
            coeffs = {e: m for e, m in coeffs.items() if e[0] < tx and e[1] < ty}
        entries = []
        for r in range(n):
            for c in range(n):
                cells = [(e, m.num[r][c], m.den) for e, m in coeffs.items()
                         if m.num[r][c]]
                den = lcm(*[d for _, _, d in cells])
                entries.append(BiSeries._reduced(
                    {e: v * (den // d) for e, v, d in cells}, den, tx, ty, exact))
        return cls(n, n, entries)

    @classmethod
    def identity(cls, n, tx, ty):
        return cls.from_coefficients({(0, 0): qlinalg.identity(n)}, n, tx, ty,
                                     exact=True)

    @classmethod
    def zeros(cls, r, c, tx, ty):
        return cls(r, c, [BiSeries.zero(tx, ty)] * (r * c))

    # -- access ---------------------------------------------------------------

    def at(self, i, j) -> BiSeries:
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols : (i + 1) * self.cols]

    @property
    def window(self):
        """Common certified window: the minimum over truncated entries, or
        the largest nominal order when every entry is exact."""
        if not self.entries:
            return (0, 0)
        inexact = [e for e in self.entries if not e.exact]
        if inexact:
            return (min(e.tx for e in inexact), min(e.ty for e in inexact))
        return (
            max(e.tx for e in self.entries),
            max(e.ty for e in self.entries),
        )

    @property
    def is_exact(self):
        return all(e.exact for e in self.entries)

    def to_rows(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def submatrix(self, rows, cols):
        return SeriesMatrix(len(rows), len(cols),
                            [self.at(i, j) for i in rows for j in cols])

    def constant_part(self):
        """The matrix of coefficients at (0,0), a qlinalg.QMatrix."""
        return self._qmatrix([(k, e.num[(0, 0)], e.den)
                              for k, e in enumerate(self.entries)
                              if (0, 0) in e.num])

    def coefficients(self):
        """The coefficient matrices over Q, as QMatrix keyed by exponent
        pair (i, j): self = sum coefficients()[(i, j)] x^i y^j, the pairs
        being those with a nonzero coefficient."""
        cells = {}
        for k, e in enumerate(self.entries):
            for exp, v in e.num.items():
                cells.setdefault(exp, []).append((k, v, e.den))
        return {exp: self._qmatrix(c) for exp, c in cells.items()}

    def _qmatrix(self, cells):
        """The QMatrix of self's shape whose entry k, in row-major order,
        is v / d for each cell (k, v, d), and 0 elsewhere."""
        den, c = lcm(*[d for _, _, d in cells]), self.cols
        rows = [[0] * c for _ in range(self.rows)]
        for k, v, d in cells:
            rows[k // c][k % c] = v * (den // d)
        return qlinalg.QMatrix._reduced(rows, den)

    def transpose(self):
        return SeriesMatrix(self.cols, self.rows,
                            [self.at(i, j) for j in range(self.cols)
                             for i in range(self.rows)])

    def is_zero(self):
        return all(e.is_zero() for e in self.entries)

    def __eq__(self, other):
        if not isinstance(other, SeriesMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        return all(a == b for a, b in zip(self.entries, other.entries))

    __hash__ = None

    def __repr__(self):
        body = "; ".join(
            ", ".join(repr(self.at(i, j)) for j in range(self.cols))
            for i in range(self.rows)
        )
        return f"SeriesMatrix[{body}]"

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other):
        self._same_shape(other)
        return SeriesMatrix(
            self.rows, self.cols, [a + b for a, b in zip(self.entries, other.entries)]
        )

    def __sub__(self, other):
        self._same_shape(other)
        return SeriesMatrix(
            self.rows, self.cols, [a - b for a, b in zip(self.entries, other.entries)]
        )

    def __neg__(self):
        return SeriesMatrix(self.rows, self.cols, [-a for a in self.entries])

    def _same_shape(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch")

    def __mul__(self, other):
        if isinstance(other, BiSeries):
            return SeriesMatrix(
                self.rows, self.cols, [e * other for e in self.entries]
            )
        return SeriesMatrix.dot([(1, self, other)])

    @staticmethod
    def dot(terms):
        """The sum of c * a * b over the terms (c, a, b), and of c * m over
        the terms (c, m), c = 1 or -1, of one shape.  Entry (i, j) is one
        fused sum of the products c a_ik b_kj over the terms and k, and of
        c m_ij against the exact 1, with the window of their sequential
        sum (series.dots); each operand entry is prepared and packed once
        per call, however many entries it enters."""
        terms = list(terms)
        rows, cols = terms[0][1].rows, terms[0][-1].cols
        sums = [[] for _ in range(rows * cols)]
        for c, a, *b in terms:
            if not b:
                if (a.rows, a.cols) != (rows, cols):
                    raise DimensionMismatch(
                        f"{a.rows}x{a.cols} added to {rows}x{cols}")
                for cell, e in zip(sums, a.entries):
                    cell.append((c, e, ONE))
                continue
            [b] = b
            if a.cols != b.rows or (a.rows, b.cols) != (rows, cols):
                raise DimensionMismatch(
                    f"{a.rows}x{a.cols} times {b.rows}x{b.cols}")
            b_cols = [b.entries[j::cols] for j in range(cols)]
            cells = iter(sums)
            for i in range(rows):
                a_row = a.row(i)
                for b_col in b_cols:
                    next(cells).extend(zip(repeat(c), a_row, b_col))
        return SeriesMatrix(rows, cols, dots(sums))

    def scale(self, c):
        """c times self, c an int or a Fraction."""
        return SeriesMatrix(self.rows, self.cols, [e * c for e in self.entries])

    def delta(self, var):
        return SeriesMatrix(self.rows, self.cols, [e.delta(var) for e in self.entries])

    def truncated(self, tx, ty):
        return SeriesMatrix(
            self.rows, self.cols, [e.truncated(tx, ty) for e in self.entries]
        )

    def shift(self, dx, dy):
        if dx == 0 and dy == 0:
            return self
        return SeriesMatrix(self.rows, self.cols, [e.shift(dx, dy) for e in self.entries])

    def divide_monomial(self, dx, dy):
        return SeriesMatrix(
            self.rows, self.cols, [e.divide_monomial(dx, dy) for e in self.entries]
        )

    def eval_zero_matrix(self, var):
        """Set one variable to 0 in every entry."""
        return SeriesMatrix(self.rows, self.cols,
                            [e.eval_zero(var) for e in self.entries])

    def coeff_matrix(self, var, k):
        """Matrix of coefficients of var^k, as series in the other variable."""
        for e in self.entries:
            if not e.exact and k >= (e.tx if var == "x" else e.ty):
                raise TruncationExhausted(
                    f"coefficient of {var}^{k} outside the window", window=e.window
                )
        return SeriesMatrix(self.rows, self.cols,
                            [e.coefficient(var, k) for e in self.entries])

    def content(self, var):
        """Largest k with var^k dividing every entry, certified on the window.

        A window-zero matrix has content equal to the window (full strip)."""
        return min(e.val(var) for e in self.entries)


class LaurentMatrix:
    """x^(-px) y^(-py) times a series matrix.  Poles may be negative
    (meaning a net positive monomial factor); normalize() strips certified
    monomial content into the pole bookkeeping."""

    __slots__ = ("series", "px", "py")

    def __init__(self, series: SeriesMatrix, px: int = 0, py: int = 0):
        self.series = series
        self.px = px
        self.py = py

    @property
    def n(self):
        return self.series.rows

    def normalize(self):
        """Strip monomial content; a window-zero matrix normalizes to poles 0."""
        s = self.series
        if s.is_zero():
            return LaurentMatrix(s, 0, 0)
        cx = s.content("x")
        cy = s.content("y")
        if cx == 0 and cy == 0:
            return self
        return LaurentMatrix(s.divide_monomial(cx, cy), self.px - cx, self.py - cy)

    def __add__(self, other):
        px = max(self.px, other.px)
        py = max(self.py, other.py)
        a = self.series.shift(px - self.px, py - self.py)
        b = other.series.shift(px - other.px, py - other.py)
        return LaurentMatrix(a + b, px, py)

    def __sub__(self, other):
        return self + LaurentMatrix(-other.series, other.px, other.py)

    def __mul__(self, other):
        return LaurentMatrix(
            self.series * other.series, self.px + other.px, self.py + other.py
        )

    def delta(self, var):
        # delta(x^-a S) = x^-a (delta S - a S)
        a = self.px if var == "x" else self.py
        d = self.series.delta(var)
        if a:
            d = d - self.series.scale(a)
        return LaurentMatrix(d, self.px, self.py)

    def __eq__(self, other):
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        a, b = self.normalize(), other.normalize()
        if a.series.is_zero() and b.series.is_zero():
            return True
        if (a.px, a.py) != (b.px, b.py):
            # Realign before comparing; differing poles may hide equal values
            # when one side has weaker windows.
            px, py = max(a.px, b.px), max(a.py, b.py)
            return a.series.shift(px - a.px, py - a.py) == b.series.shift(
                px - b.px, py - b.py
            )
        return a.series == b.series

    __hash__ = None

    def __repr__(self):
        return f"x^-{self.px} y^-{self.py} * {self.series!r}"


def embed_block(block: LaurentMatrix, coords, n, tx, ty) -> LaurentMatrix:
    """The n x n identity with `block` on the rows and columns `coords`,
    over the block's poles (px, py >= 0): outside the block, x^px y^py on
    the diagonal, exact at nominal orders (tx, ty).  The lift of a block's
    inverse is the inverse of its lift."""
    px, py, s = block.px, block.py, block.series
    at = {c: k for k, c in enumerate(coords)}
    one = BiSeries.monomial(1, px, py, tx, ty)
    zero = BiSeries.zero(tx, ty)
    return LaurentMatrix(SeriesMatrix.from_rows([
        [s.at(at[i], at[j]) if i in at and j in at
         else one if i == j else zero for j in range(n)]
        for i in range(n)]), px, py)


# -- elimination over the one-variable series ring ---------------------------


def _quotients(es, b: BiSeries, var: str):
    """[e / b for e in es], where each val_var(e) >= val_var(b) and
    b = var^v * unit: the unit is inverted once, and the products by its
    inverse are one call of dots."""
    dx, dy = exponent(var, b.val(var))
    b0 = b.divide_monomial(dx, dy)
    if b0.coeff(0, 0) == 0:
        raise TruncationExhausted(
            "pivot is not monomial times unit on its window", window=b.window
        )
    qs = [e.divide_monomial(dx, dy) for e in es]
    live = [q for q in qs if not q.is_zero()]
    if not live:
        return qs
    inv = b0.invert()
    products = iter(dots([[(1, q, inv)] for q in live]))
    # A window-zero quotient times a unit is itself: the unit's constant
    # term keeps the window at the quotient's.
    return [q if q.is_zero() else next(products) for q in qs]


def column_echelon(m: SeriesMatrix, var: str):
    """Unimodular column reduction over the var-series ring.

    Returns (v, reduced, rank, v_inv): v unimodular (det a unit) with
    m*v = reduced, whose first `rank` columns carry the column space (each
    with a pivot row) and whose remaining columns vanish on the window.
    Pivoting: minimal var-valuation, ties by smallest row then column.

    v_inv is v^(-1), built in the same loop by the inverse operations: a
    column swap of v is the same row swap of v_inv, and col_j(v) -=
    col_p(v)*f is row_p(v_inv) += f*row_j(v_inv).  It agrees with the
    cofactor inverse of v in tests/oracle_cofactor.py, the reference, in
    coefficients, truncated windows and poles, and is exact wherever that
    is.  It can be exact where the cofactor inverse is truncated, since
    the row operations never multiply in an entry whose contribution
    cancels: the zeros below the diagonal of an upper unitriangular v are
    exact.  An exact entry may carry other nominal orders than the
    reference's, e.g. (8, 8) against (8, 9).
    """
    identity = SeriesMatrix.identity(m.cols, *m.window)
    v, v_inv = identity.to_rows(), identity.to_rows()
    work, rank = _eliminate(m, var, v, v_inv)
    reduced = SeriesMatrix(m.rows, m.cols, [e for row in work for e in row])
    return (SeriesMatrix.from_rows(v), reduced, rank,
            SeriesMatrix.from_rows(v_inv))


def series_rank(m: SeriesMatrix, var: str) -> int:
    """Rank over the fraction field of the var-series ring (window-certified):
    column_echelon's pivot loop, without its transforms."""
    return _eliminate(m, var)[1]


def _eliminate(m: SeriesMatrix, var: str, v=None, v_inv=None):
    """The pivot loop of column_echelon: (reduced rows, rank).  The column
    operations are applied to the rows v and v_inv as well, when given."""
    work = m.to_rows()
    nrows, ncols = m.rows, m.cols
    used_rows = []
    placed = 0
    while placed < ncols:
        best = None
        for j in range(placed, ncols):
            for i in range(nrows):
                if i in used_rows:
                    continue
                e = work[i][j]
                if e.is_zero():
                    continue
                val = e.val(var)
                key = (val, i, j)
                if best is None or key < best:
                    best = key
        if best is None:
            break
        _, pi, pj = best
        if pj != placed:
            for row in work:
                row[placed], row[pj] = row[pj], row[placed]
            if v is not None:
                for row in v:
                    row[placed], row[pj] = row[pj], row[placed]
                v_inv[placed], v_inv[pj] = v_inv[pj], v_inv[placed]
        pivot = work[pi][placed]
        # Only not-yet-placed columns: their entries in unused rows have
        # valuation >= the pivot's by pivot selection, so division is exact.
        cols = [j for j in range(placed + 1, ncols)
                if not (work[pi][j].exact and work[pi][j].is_zero())]
        if cols:
            fs = _quotients([work[pi][j] for j in cols], pivot, var)
            # col_j -= col_placed * f_j for every such j, on work and v,
            # and row_placed(v_inv) += sum_j f_j * row_j(v_inv), as one
            # call of dots.
            mats = [work] if v is None else [work, v]
            sums = [[(1, rows[i][j], ONE), (-1, rows[i][placed], f)]
                    for rows in mats for j, f in zip(cols, fs)
                    for i in range(len(rows))]
            if v is not None:
                sums += [[(1, v_inv[placed][i], ONE),
                          *[(1, f, v_inv[j][i]) for j, f in zip(cols, fs)]]
                         for i in range(ncols)]
            out = iter(dots(sums))
            for rows in mats:
                for j in cols:
                    for i in range(len(rows)):
                        rows[i][j] = next(out)
            if v is not None:
                v_inv[placed] = list(out)
        used_rows.append(pi)
        placed += 1
    return work, placed
