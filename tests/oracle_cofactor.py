"""Reference determinant and inverse of a series matrix: the cofactor
expansion, the adjugate built on it, and the inverse through that
adjugate and the monomial-times-unit determinant.  The library carries
the inverse of every gauge factor it builds instead of computing one;
these are what the carried inverses are compared with.
"""

from pfaffred.errors import DimensionMismatch, SingularMatrix
from pfaffred.matrices import LaurentMatrix, SeriesMatrix
from pfaffred.series import BiSeries


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
            minor = det(self.submatrix(rows, cols))
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
        if not (e.exact and e.is_zero()):
            rest = rows[:idx] + rows[idx + 1 :]
            term = e * _det_expand(m, rest, col + 1)
            if sign * (-1) ** idx < 0:
                term = -term
            acc = term if acc is None else acc + term
    if acc is None:
        return BiSeries.zero(*m.window)
    return acc


def inverse(self):
    """Inverse via adjugate and monomial-times-unit determinant."""
    s = self.series
    d = det(s)
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
    inv_series = adjugate(s) * unit.invert()
    return LaurentMatrix(inv_series, vx - self.px, vy - self.py).normalize()
