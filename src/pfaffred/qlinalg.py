"""Exact linear algebra over Q for constant matrices.

A matrix is an immutable QMatrix: integer rows num over one denominator
den, in the canonical form of a BiSeries (den > 0, gcd(den, every entry)
= 1, den = 1 for a zero matrix), so equal matrices have equal fields.
QMatrix(rows) is the one validating constructor; it returns a QMatrix as
it is, so add, sub, scale, dot, transpose, the elimination functions and
sylvester_solver also take plain rows.  Results are built with the
trusted QMatrix._reduced, which divides by one gcd.  All but
elimination (rref, kernel, inverse) runs on the stored integers; indexing
or iterating a QMatrix gives rows of Fraction, for the callers that
divide.  charpoly is division-free and so also serves matrices of series
(the criterion polynomial, the Katz Newton polygon).

Two kernels carry the order-by-order solvers (splitting, the regular
solve, the first-kind solve), which multiply the same coefficient
matrices at every order:

- dot, the sum of c * A * B over a list of terms, takes each entry as
  one integer inner product, of the terms' rows, each scaled to one
  common denominator, with their columns, and divides by one gcd; mul
  is dot of one pair.
- sylvester_solver inverts the Kronecker operator of a X - X b once, with
  one rref, and returns a solver that costs one integer product per
  right-hand side.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import chain, repeat
from math import gcd, lcm

from .errors import DimensionMismatch, SingularMatrix
from .series import ONE, BiSeries, dots, q


class QMatrix:
    """A constant matrix over Q, num / den (see the module docstring)."""

    __slots__ = ("num", "den")

    def __new__(cls, rows):
        if isinstance(rows, QMatrix):
            return rows
        rows = [[c if isinstance(c, int) else q(c) for c in row] for row in rows]
        den = lcm(*[c.denominator for row in rows for c in row])
        return cls._reduced([[c.numerator * (den // c.denominator) for c in row]
                             for row in rows], den)

    @classmethod
    def _reduced(cls, num, den):
        """num / den, num rows of ints and den > 0, divided by their gcd."""
        if den != 1:
            g = gcd(den, *[v for row in num for v in row])
            if g != 1:
                num = [[v // g for v in row] for row in num]
                den //= g
        m = object.__new__(cls)
        m.num, m.den = tuple(map(tuple, num)), den
        return m

    def __len__(self):
        return len(self.num)

    def __getitem__(self, i):
        return tuple(Fraction(v, self.den) for v in self.num[i])

    def __eq__(self, other):
        if isinstance(other, QMatrix):
            return self.num == other.num and self.den == other.den
        # A tuple of rows compares by value.
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented


def zeros(r, c):
    return QMatrix._reduced([[0] * c for _ in range(r)], 1)


def identity(n):
    return QMatrix._reduced([[int(i == j) for j in range(n)] for i in range(n)], 1)


def sub(a, b):
    return add(a, b, -1)


def add(a, b, sign=1):
    """a + sign * b, over the lcm of the two denominators."""
    a, b = QMatrix(a), QMatrix(b)
    den = lcm(a.den, b.den)
    sa, sb = den // a.den, sign * (den // b.den)
    return QMatrix._reduced([[x * sa + y * sb for x, y in zip(ra, rb)]
                             for ra, rb in zip(a.num, b.num)], den)


def scale(a, c):
    a, c = QMatrix(a), c if isinstance(c, int) else q(c)
    return QMatrix._reduced([[v * c.numerator for v in row] for row in a.num],
                            a.den * c.denominator)


def mul(a, b):
    return dot([(1, a, b)])


def dot(terms, shape=None):
    """The sum of c * a * b over terms (c, a, b), c an integer.

    The products are summed as integer numerators over the lcm of their
    denominators da * db: entry (i, j) is one inner product of the terms'
    rows i, each scaled by c * lcm / (da * db), set end to end, with
    their columns j, set end to end.  The sum is divided by one gcd.
    `shape` (rows, cols) is the shape of the sum when there are no terms.
    """
    prepared = []
    for c, a, b in terms:
        a, b = QMatrix(a), QMatrix(b)
        if len(a.num[0]) != len(b.num):
            raise DimensionMismatch(
                f"{len(a.num)}x{len(a.num[0])} times {len(b.num)}x{len(b.num[0])}")
        prepared.append((c, a.den * b.den, a.num, list(zip(*b.num))))
    if not prepared:
        return zeros(*shape)
    rows, cols = len(prepared[0][2]), len(prepared[0][3])
    if any(len(ra) != rows or len(cb) != cols for _, _, ra, cb in prepared):
        raise DimensionMismatch("terms of a dot have different shapes")
    den = lcm(*[d for _, d, _, _ in prepared])
    # Entry (i, j) is the inner product of every term's row i, scaled by
    # c * den / d, with every term's column j.  The scaled rows are made
    # one at a time, so that one row of new integers is alive at a time.
    if len(prepared) == 1:
        [(c, d, ra, right)] = prepared
        scale = c * (den // d)
        left = ra if scale == 1 else ([scale * v for v in r] for r in ra)
    else:
        right = [list(chain.from_iterable(cb))
                 for cb in zip(*[cb for *_, cb in prepared])]
        scaled = [(c * (den // d), ra) for c, d, ra, _ in prepared]
        left = (list(chain.from_iterable(
            ra[i] if scale == 1 else [scale * v for v in ra[i]]
            for scale, ra in scaled)) for i in range(rows))
    return QMatrix._reduced([[sum(map(operator.mul, row, col)) for col in right]
                             for row in left], den)


def transpose(a):
    a = QMatrix(a)
    return QMatrix._reduced(list(zip(*a.num)), a.den)


def is_zero(a):
    return not any(map(any, a.num))


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
    """Reduced row echelon form; returns (rref, pivot columns, transform)."""
    m, pivots, t = _rref(QMatrix(a))
    return QMatrix(m), pivots, QMatrix(t)


def rank(a):
    return len(_rref(QMatrix(a))[1])


def kernel(a):
    """Basis of the right kernel, as a list of column vectors (tuples)."""
    r, pivots, _ = _rref(QMatrix(a))
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


def inverse(a):
    _, pivots, t = _rref(QMatrix(a))
    if len(pivots) != len(t):
        raise SingularMatrix("constant matrix not invertible")
    return QMatrix(t)


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
    A QMatrix runs on its integer rows N: det(tI - N/d) has the
    coefficient c_k(N) / d^(n-k) at t^k.

    Each step's sums are taken together, r B^j c with B^(j+1) c, then the
    new coefficients: calls of series.dots over series.  Each inner
    product keeps the start of the sequential sum, the exact zero
    one * 0, as a term.
    """
    if isinstance(a, QMatrix):
        return [Fraction(c, a.den ** (len(a) - k))
                for k, c in enumerate(charpoly(a.num, 1))]
    if isinstance(one, BiSeries):
        sums, unit = dots, ONE
    else:
        sums, unit = _scalar_sums, 1
    zero = one * 0
    poly = [one]
    for m in range(len(a)):
        # w[j] = r B^j c for j < m.
        col = [a[i][m] for i in range(m)]
        w = []
        for j in range(m):
            # r B^j c, with B^(j + 1) c unless j is the last; zip stops at
            # col, which cuts each row to the block's m columns.
            rows = [a[m]] if j == m - 1 else [a[m], *a[:m]]
            out = sums([[(1, zero, unit), *zip(repeat(1), row, col)]
                        for row in rows])
            w.append(out[0])
            col = out[1:]
        poly = sums([[(1, poly[k - 1] if k else zero, unit),
                      (-1, a[m][m], poly[k]),
                      *[(-1, poly[k + 1 + j], w[j]) for j in range(m - k)]]
                     for k in range(m + 1)]) + [poly[m]]
    return poly


def _scalar_sums(sums):
    """series.dots for rationals: the sum of c * a * b per list of terms."""
    return [sum(c * a * b for c, a, b in terms) for terms in sums]


def poly_eval_matrix(coeffs, a):
    """Evaluate a polynomial (coefficients low to high) at a matrix, by
    Horner's rule."""
    out = zeros(len(a), len(a))
    for c in reversed(coeffs):
        out = add(mul(out, a), scale(identity(len(a)), c))
    return out


def is_nilpotent(a):
    return not any(charpoly(a.num, 1)[:-1])


def sylvester_solver(a, b):
    """The solver of a X - X b = c for fixed a (n x n) and b (m x m), as a
    function of c; None when the operator is singular (a and b share an
    eigenvalue), which callers treat as resonance.

    The n*m x n*m Kronecker operator is inverted once, with one rref; each
    solve is then one integer product with the inverse.
    """
    a, b = QMatrix(a), QMatrix(b)
    n, m = len(a), len(b)
    # Row-major vectorization: unknowns X[i][j] at index i*m + j.
    rows = []
    for i in range(n):
        for j in range(m):
            row = [0] * (n * m)
            for k in range(n):
                row[k * m + j] += a.num[i][k] * b.den
            for k in range(m):
                row[i * m + k] -= b.num[k][j] * a.den
            rows.append(row)
    _, pivots, op_inv = rref(QMatrix._reduced(rows, a.den * b.den))
    if len(pivots) != n * m:
        return None

    def solution(c):
        vec = [v for row in c.num for v in row]
        x = [sum(map(operator.mul, row, vec)) for row in op_inv.num]
        return QMatrix._reduced([x[i * m:(i + 1) * m] for i in range(n)],
                                op_inv.den * c.den)

    return solution


def submatrix(a, rows, cols):
    return QMatrix._reduced([[a.num[i][j] for j in cols] for i in rows], a.den)
