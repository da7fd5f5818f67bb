"""Matrices of truncated bivariate series, and Laurent wrappers.

SeriesMatrix is a dense square-or-rectangular matrix of BiSeries sharing a
common truncation window (the constructor truncates every entry to the
componentwise minimum; the pessimistic window is the contract).

LaurentMatrix is x^(-px) y^(-py) times a SeriesMatrix; it is the carrier
for gauge results whose normal-crossings status is not yet known, and for
inverses of monomially scaled gauges.

Rank and column reduction over the one-variable series ring use exact
elimination with minimal-valuation pivoting (ties: smallest row, then
smallest column), so every verdict is certified on the stated window.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    DimensionMismatch,
    SingularMatrix,
    TruncationExhausted,
)
from .series import BiSeries, q


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
        return cls.from_rows(
            [[BiSeries.const(c, tx, ty) for c in row] for row in rows]
        )

    @classmethod
    def identity(cls, n, tx, ty):
        return cls.from_rows(
            [
                [BiSeries.const(1 if i == j else 0, tx, ty) for j in range(n)]
                for i in range(n)
            ]
        )

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
        return SeriesMatrix.from_rows([[self.at(i, j) for j in cols] for i in rows])

    def constant_part(self):
        """The matrix of coefficients at (0,0), as Fraction tuples."""
        return tuple(
            tuple(self.at(i, j).coeff(0, 0) for j in range(self.cols))
            for i in range(self.rows)
        )

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
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if isinstance(other, BiSeries):
            return SeriesMatrix(
                self.rows, self.cols, [e * other for e in self.entries]
            )
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} times {other.rows}x{other.cols}"
            )
        out = []
        for i in range(self.rows):
            for j in range(other.cols):
                s = None
                for k in range(self.cols):
                    t = self.at(i, k) * other.at(k, j)
                    s = t if s is None else s + t
                out.append(s)
        return SeriesMatrix(self.rows, other.cols, out)

    def scale(self, c):
        return SeriesMatrix(self.rows, self.cols, [e * q(c) for e in self.entries])

    def scale_series(self, s: BiSeries):
        return SeriesMatrix(self.rows, self.cols, [e * s for e in self.entries])

    def delta(self, var):
        return SeriesMatrix(self.rows, self.cols, [e.delta(var) for e in self.entries])

    def truncated(self, tx, ty):
        return SeriesMatrix(
            self.rows, self.cols, [e.truncated(tx, ty) for e in self.entries]
        )

    def shift(self, dx, dy):
        return SeriesMatrix(self.rows, self.cols, [e.shift(dx, dy) for e in self.entries])

    def divide_monomial(self, dx, dy):
        return SeriesMatrix(
            self.rows, self.cols, [e.divide_monomial(dx, dy) for e in self.entries]
        )

    def eval_zero_matrix(self, var):
        """Set one variable to 0, keeping BiSeries entries (one-variable support)."""
        out = []
        for e in self.entries:
            u = e.eval_zero(var)
            out.append(u.to_bi("y" if var == "x" else "x",
                               e.tx if var == "x" else e.ty))
        return SeriesMatrix(self.rows, self.cols, out)

    def coeff_matrix(self, var, k):
        """Matrix of coefficients of var^k, as series in the other variable."""
        out = []
        for e in self.entries:
            if not e.exact and k >= (e.tx if var == "x" else e.ty):
                raise TruncationExhausted(
                    f"coefficient of {var}^{k} outside the window", window=e.window
                )
            if var == "x":
                out.append(
                    BiSeries(
                        {(0, j): c for (i, j), c in e.coeffs.items() if i == k},
                        e.tx,
                        e.ty,
                        exact=e.exact,
                    )
                )
            else:
                out.append(
                    BiSeries(
                        {(i, 0): c for (i, j), c in e.coeffs.items() if j == k},
                        e.tx,
                        e.ty,
                        exact=e.exact,
                    )
                )
        return SeriesMatrix(self.rows, self.cols, out)

    def content(self, var):
        """Largest k with var^k dividing every entry, certified on the window.

        A window-zero matrix has content equal to the window (full strip)."""
        return min(e.val(var) for e in self.entries)

    # -- determinants ---------------------------------------------------------

    def det(self) -> BiSeries:
        if self.rows != self.cols:
            raise DimensionMismatch("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            raise DimensionMismatch("empty matrix")
        return _det_expand(self, list(range(n)), 0)

    def adjugate(self):
        n = self.rows
        if n != self.cols:
            raise DimensionMismatch("adjugate of a non-square matrix")
        if n == 1:
            return SeriesMatrix.from_rows([[BiSeries.const(1, *self.window)]])
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                rows = [r for r in range(n) if r != j]
                cols = [c for c in range(n) if c != i]
                minor = self.submatrix(rows, cols).det()
                if (i + j) % 2:
                    minor = -minor
                row.append(minor)
            out.append(row)
        return SeriesMatrix.from_rows(out)


def _det_expand(m, rows, col):
    if not rows:
        return BiSeries.const(1, *m.window)
    acc = None
    sign = 1
    for idx, r in enumerate(rows):
        e = m.at(r, col)
        if not e.is_zero():
            rest = rows[:idx] + rows[idx + 1 :]
            term = e * _det_expand(m, rest, col + 1)
            if sign * (-1) ** idx < 0:
                term = -term
            acc = term if acc is None else acc + term
    if acc is None:
        return BiSeries.zero(*m.window)
    return acc


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

    def __neg__(self):
        return LaurentMatrix(-self.series, self.px, self.py)

    def __mul__(self, other):
        if isinstance(other, LaurentMatrix):
            return LaurentMatrix(
                self.series * other.series, self.px + other.px, self.py + other.py
            )
        return LaurentMatrix(self.series * other, self.px, self.py)

    def delta(self, var):
        # delta(x^-a S) = x^-a (delta S - a S)
        a = self.px if var == "x" else self.py
        d = self.series.delta(var)
        if a:
            d = d - self.series.scale(a)
        return LaurentMatrix(d, self.px, self.py)

    def inverse(self):
        """Inverse via adjugate and monomial-times-unit determinant."""
        s = self.series
        d = s.det()
        if d.is_zero():
            raise SingularMatrix(
                f"determinant vanishes on the window {d.window}"
            )
        vx, vy = d.val_x(), d.val_y()
        unit = d.divide_monomial(vx, vy)
        if unit.coeff(0, 0) == 0:
            # det = x^a y^b * (mixed series with no constant term):
            # no monomial-times-unit factorization on this window.
            raise SingularMatrix(
                "determinant is not monomial times unit within the window"
            )
        inv_series = s.adjugate() * unit.invert()
        return LaurentMatrix(inv_series, vx - self.px, vy - self.py).normalize()

    def poles(self):
        n = self.normalize()
        return (n.px, n.py)

    def equals(self, other):
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

    def __repr__(self):
        return f"x^-{self.px} y^-{self.py} * {self.series!r}"


# -- elimination over the one-variable series ring ---------------------------


def _divide(a: BiSeries, b: BiSeries, var: str) -> BiSeries:
    """a / b where val_var(a) >= val_var(b) and b = var^v * unit."""
    v = b.val(var)
    dx, dy = (v, 0) if var == "x" else (0, v)
    b0 = b.divide_monomial(dx, dy)
    if b0.coeff(0, 0) == 0:
        raise TruncationExhausted(
            "pivot is not monomial times unit on its window", window=b.window
        )
    return a.divide_monomial(dx, dy) * b0.invert()


def column_echelon(m: SeriesMatrix, var: str):
    """Unimodular column reduction over the var-series ring.

    Returns (v, reduced, rank, pivot_rows): v unimodular (det a unit) with
    m*v = reduced, whose first `rank` columns carry the column space (each
    with a pivot row) and whose remaining columns vanish on the window.
    Pivoting: minimal var-valuation, ties by smallest row then column.
    """
    work = m.to_rows()
    nrows, ncols = m.rows, m.cols
    tx, ty = m.window
    v = SeriesMatrix.identity(ncols, tx, ty).to_rows()
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
            for row in v:
                row[placed], row[pj] = row[pj], row[placed]
        pivot = work[pi][placed]
        # Only not-yet-placed columns: their entries in unused rows have
        # valuation >= the pivot's by pivot selection, so division is exact.
        for j in range(placed + 1, ncols):
            e = work[pi][j]
            if e.is_zero():
                continue
            f = _divide(e, pivot, var)
            for i in range(nrows):
                work[i][j] = work[i][j] - work[i][placed] * f
            for i in range(ncols):
                v[i][j] = v[i][j] - v[i][placed] * f
        used_rows.append(pi)
        placed += 1
    rank = placed
    return (
        SeriesMatrix.from_rows(v),
        SeriesMatrix.from_rows(work),
        rank,
        used_rows,
    )


def series_rank(m: SeriesMatrix, var: str) -> int:
    """Rank over the fraction field of the var-series ring (window-certified)."""
    if m.rows == 0 or m.cols == 0:
        return 0
    return column_echelon(m, var)[2]


def kernel_basis(m: SeriesMatrix, var: str) -> SeriesMatrix | None:
    """Saturated right-kernel basis (columns); None if the kernel is zero."""
    v, _, rank, _ = column_echelon(m, var)
    if rank == m.cols:
        return None
    cols = list(range(rank, m.cols))
    basis = v.submatrix(list(range(m.cols)), cols)
    # Saturate each column: divide out its monomial content in var.
    out_cols = []
    for j in range(basis.cols):
        col = [basis.at(i, j) for i in range(basis.rows)]
        c = min(e.val(var) for e in col)
        if c:
            dx, dy = (c, 0) if var == "x" else (0, c)
            col = [e.divide_monomial(dx, dy) for e in col]
        out_cols.append(col)
    return SeriesMatrix.from_rows(
        [[out_cols[j][i] for j in range(len(out_cols))] for i in range(basis.rows)]
    )
