"""Reference eliminations: the Fraction bodies that the fraction-free
constant solves replaced, kept verbatim.

_rref is Gauss-Jordan elimination over rows of Fraction, each pivot row
divided by its pivot; qlinalg._rref does the same row operations on
integer rows by Bareiss's one-step fraction-free elimination.
_triangular_solve is the entry-by-entry solve of the order-by-order
solvers over Fraction entries; qlinalg.triangular_solve runs it on the
equations' integer numerators over one growing denominator.

rows_of gives the Fraction rows of a QMatrix, which both bodies index.
"""

from fractions import Fraction

from pfaffred import qlinalg


def rows_of(a):
    """The rows of a QMatrix (or of plain rows) as tuples of Fraction."""
    return qlinalg.QMatrix(a).fraction_rows()


def _rref(rows):
    """rref of rows of Fraction, as lists (reduced rows, pivots, transform)."""
    m = [list(row) for row in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    t = [[int(i == j) for j in range(nr)] for i in range(nr)]
    pivots = []
    row = 0
    for col in range(nc):
        piv = next((r for r in range(row, nr) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        t[row], t[piv] = t[piv], t[row]
        inv = 1 / m[row][col]
        m[row] = [c * inv for c in m[row]]
        t[row] = [c * inv for c in t[row]]
        for r in range(nr):
            if r != row and m[r][col] != 0:
                f = m[r][col]
                m[r] = [c - f * d for c, d in zip(m[r], m[row])]
                t[r] = [c - f * d for c, d in zip(t[r], t[row])]
        pivots.append(col)
        row += 1
        if row == nr:
            break
    return m, pivots, t


def rref(a):
    """(rref, pivot columns, transform) of a, the first and last as QMatrix:
    the public rref before the elimination became fraction-free."""
    m, pivots, t = _rref(rows_of(a))
    return qlinalg.QMatrix(m), pivots, qlinalg.QMatrix(t)


def kernel(a):
    """Basis of the right kernel, as a list of column vectors (tuples)."""
    r, pivots, _ = _rref(rows_of(a))
    nc = len(r[0]) if r else 0
    basis = []
    for f in range(nc):
        if f in pivots:
            continue
        v = [0] * nc
        v[f] = 1
        for row, p in zip(r, pivots):
            v[p] = -row[f]
        basis.append(tuple(v))
    return basis


def _triangular_solve(equations, n):
    """Solve (L - shift) X - X L = R for X, one entry at a time, over the
    equations [(L, shift, R)], each L upper triangular.

    Entries run rows bottom-up, columns left to right, so that the
    couplings through L's off-diagonal entries are known when an entry is
    reached.  Each entry is taken from the first equation whose
    coefficient L[k][k] - L[l][l] - shift is nonzero.  An entry that no
    equation determines is 0 in X and kept: the equations then hold with
    (L - shift) X - X L - K = R, and K[k][l] is its value in each.
    Returns (X, {(k, l): (K value per equation)}), the kept entries with a
    nonzero value, in elimination order.
    """
    equations = [(list(lam), shift, list(r)) for lam, shift, r in equations]
    x = [[0] * n for _ in range(n)]
    kept = {}
    for k in range(n - 1, -1, -1):
        for l in range(n):
            values = []
            for lam, shift, r in equations:
                acc = r[k][l]
                for m in range(k + 1, n):
                    acc -= lam[k][m] * x[m][l]
                for m in range(l):
                    acc += x[k][m] * lam[m][l]
                coef = lam[k][k] - lam[l][l] - shift
                if coef != 0:
                    x[k][l] = acc / coef
                    break
                values.append(-acc)
            else:
                if any(values):
                    kept[(k, l)] = tuple(values)
    return qlinalg.QMatrix(x), kept


def triangular_solve(equations, n):
    """_triangular_solve of equations whose L and R are QMatrix."""
    return _triangular_solve([(rows_of(lam), shift, rows_of(r))
                              for lam, shift, r in equations], n)
