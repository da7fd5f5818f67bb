"""Exact linear algebra over Q for constant matrices.

A matrix is a QMatrix: a tuple of rows, each a tuple of Fraction.  It is
immutable, so its integer numerators over the lcm of its denominators are
computed on its first product and kept with it, as BiSeries keeps its
_num.  Every constructor here returns a QMatrix; dot also accepts a plain
tuple of rows and then converts it on each product.  Elimination is plain
Gaussian elimination over Fraction.  charpoly is division-free and so also
serves matrices of series (the criterion polynomial, the Katz Newton
polygon).

Two kernels carry the order-by-order solvers (splitting, the regular
solve, the first-kind solve), which multiply the same coefficient
matrices at every order:

- dot, the sum of c * A * B over a list of terms, runs on the kept integer
  numerators over one common denominator and normalizes each entry once;
  mul is dot of one pair.
- sylvester_solver inverts the Kronecker operator of a X - X b once, with
  one rref, and returns a solver that costs one product per right-hand
  side.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import lcm

from .errors import DimensionMismatch, SingularMatrix
from .series import q


class QMatrix(tuple):
    """A constant matrix, built from an iterable of rows of Fraction.  Its
    _num attribute is None until its first product (_numerators_once)."""

    _num = None


def qmat(rows):
    return QMatrix(tuple(q(c) for c in row) for row in rows)


def zeros(r, c):
    return QMatrix(tuple(Fraction(0) for _ in range(c)) for _ in range(r))


def identity(n):
    return QMatrix(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def add(a, b):
    return QMatrix(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def sub(a, b):
    return QMatrix(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def scale(a, c):
    c = q(c)
    return QMatrix(tuple(x * c for x in row) for row in a)


def mul(a, b):
    return dot([(1, a, b)])


def dot(terms, shape=None):
    """The sum of c * a * b over terms (c, a, b), c an integer.

    Each matrix is put over the common denominator of its entries, once
    per QMatrix; the products are summed as integer numerators over one
    denominator, so each entry of the sum is normalized once.  `shape`
    (rows, cols) is the shape of the sum when there are no terms.
    """
    prepared = []
    for c, a, b in terms:
        if len(a[0]) != len(b):
            raise DimensionMismatch(
                f"{len(a)}x{len(a[0])} times {len(b)}x{len(b[0])}")
        da, ra, _ = _numerators_once(a)
        db, _, cb = _numerators_once(b)
        prepared.append((c, da * db, ra, cb))
    if not prepared:
        return zeros(*shape)
    rows, cols = len(prepared[0][2]), len(prepared[0][3])
    if any(len(ra) != rows or len(cb) != cols for _, _, ra, cb in prepared):
        raise DimensionMismatch("terms of a dot have different shapes")
    den = lcm(*[d for _, d, _, _ in prepared])
    acc = [[0] * cols for _ in range(rows)]
    for c, d, ra, cb in prepared:
        scale = c * (den // d)
        for acc_row, row in zip(acc, ra):
            for j, col in enumerate(cb):
                acc_row[j] += scale * sum(map(operator.mul, row, col))
    return QMatrix(tuple(Fraction(s, den) for s in row) for row in acc)


def _numerators(m):
    """(d, rows of numerators): entry (i, j) of m is rows[i][j] / d, with d
    the lcm of the denominators."""
    d = lcm(*[x.denominator for row in m for x in row])
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in m]


def _numerators_once(m):
    """(d, rows, columns) of m's _numerators, computed on first use and
    kept in its _num attribute when m is a QMatrix."""
    if not isinstance(m, QMatrix):
        m = QMatrix(m)
    if m._num is None:
        d, rows = _numerators(m)
        m._num = d, rows, list(zip(*rows))
    return m._num


def transpose(a):
    return QMatrix(zip(*a))


def is_zero(a):
    return all(all(c == 0 for c in row) for row in a)


def rref(a):
    """Reduced row echelon form; returns (rref, pivot columns, transform)."""
    m = [list(row) for row in a]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    t = [list(row) for row in identity(nr)]
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
    return qmat(m), pivots, qmat(t)


def rank(a):
    return len(rref(a)[1])


def kernel(a):
    """Basis of the right kernel, as a list of column vectors (tuples)."""
    r, pivots, _ = rref(a)
    nc = len(a[0]) if a else 0
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * nc
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -r[i][f]
        basis.append(tuple(v))
    return basis


def solve(a, b):
    """Solve a x = b (b a column tuple); None if inconsistent."""
    nr, nc = len(a), len(a[0])
    aug = [list(a[i]) + [b[i]] for i in range(nr)]
    r, pivots, _ = rref(aug)
    if nc in pivots:
        return None
    x = [Fraction(0)] * nc
    for i, p in enumerate(pivots):
        x[p] = r[i][nc]
    return tuple(x)


def inverse(a):
    n = len(a)
    r, pivots, t = rref(a)
    if len(pivots) != n:
        raise SingularMatrix("constant matrix not invertible")
    return t


def charpoly(a, one=Fraction(1)):
    """Characteristic polynomial det(tI - a) as coefficients low to high.

    Berkowitz's division-free algorithm (S. J. Berkowitz, IPL 18, 1984):
    entries are only added, subtracted and multiplied, so the rows may hold
    Fractions or the elements of any commutative ring, e.g. BiSeries with
    `one` their unit.  Leading principal blocks grow one row at a time:
    with B the previous block, c the new column above the diagonal, r the
    new row left of it and a the new diagonal entry,
    det(tI - [[B, c], [r, a]]) = (t - a) p_B(t) - r adj(tI - B) c, and
    adj(tI - B) = sum_k p_B[k] sum_(j<k) t^(k-1-j) B^j (Cayley-Hamilton).
    """
    zero = one * 0
    poly = [one]
    for m in range(len(a)):
        # w[j] = r B^j c for j < m.
        col = [a[i][m] for i in range(m)]
        w = []
        for j in range(m):
            if j:
                col = [sum(map(operator.mul, a[i], col), zero)
                       for i in range(m)]
            w.append(sum(map(operator.mul, a[m], col), zero))
        new = [zero] + poly
        for k, c in enumerate(poly):
            new[k] -= a[m][m] * c
        for s in range(m):
            for j in range(m - s):
                new[s] -= poly[s + 1 + j] * w[j]
        poly = new
    return poly


def poly_eval_matrix(coeffs, a):
    """Evaluate a polynomial (coefficients low to high) at a matrix."""
    n = len(a)
    out = zeros(n, n)
    p = identity(n)
    for c in coeffs:
        if c != 0:
            out = add(out, scale(p, c))
        p = mul(p, a)
    return out


def is_nilpotent(a):
    return all(c == 0 for c in charpoly(a)[:-1])


def sylvester_solver(a, b):
    """The solver of a X - X b = c for fixed a (n x n) and b (m x m), as a
    function of c; None when the operator is singular (a and b share an
    eigenvalue), which callers treat as resonance.

    The n*m x n*m Kronecker operator is inverted once, with one rref; each
    solve is then one product with the inverse.
    """
    n, m = len(a), len(b)
    # Row-major vectorization: unknowns X[i][j] at index i*m + j.
    rows = []
    for i in range(n):
        for j in range(m):
            row = [Fraction(0)] * (n * m)
            for k in range(n):
                row[k * m + j] += a[i][k]
            for k in range(m):
                row[i * m + k] -= b[k][j]
            rows.append(tuple(row))
    _, pivots, op_inv = rref(qmat(rows))
    if len(pivots) != n * m:
        return None

    def solution(c):
        vec = QMatrix((c[i][j],) for i in range(n) for j in range(m))
        x = dot([(1, op_inv, vec)])
        return QMatrix(tuple(x[i * m + j][0] for j in range(m)) for i in range(n))

    return solution


def submatrix(a, rows, cols):
    return QMatrix(tuple(a[i][j] for j in cols) for i in rows)

