"""Exact linear algebra over Q for constant matrices.

A matrix is an immutable QMatrix: integer rows num over one denominator
den, in the canonical form of a BiSeries (den > 0, gcd(den, every entry)
= 1, den = 1 for a zero matrix), so equal matrices have equal fields.
QMatrix(rows) is the one validating constructor; it returns a QMatrix as
it is, so add, sub, scale, dot, transpose, the elimination functions and
sylvester_solver also take plain rows.  Results are built with the
trusted QMatrix._reduced, which divides by one gcd.  Every function runs
on the stored integers: elimination (rref, rank, kernel, inverse) is
Bareiss's fraction-free elimination, whose rows over one denominator are
those of elimination over Q.  A QMatrix is neither indexed nor iterated;
fraction_rows() is the one read of its values as Fractions, for printing
and substitution.  charpoly is division-free and so also serves matrices
of series (the criterion polynomial, the Katz Newton polygon).

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

common_triangularize finds a triangular eigenbasis of commuting leading
constants; there the regular and first-kind solves take each order from
triangular_solve instead, entry by entry, on the equations' integers.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import chain, repeat
from math import gcd, lcm

from .errors import DimensionMismatch, ReductionError, SingularMatrix
from .polyq import rational_roots
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

    def __eq__(self, other):
        if isinstance(other, QMatrix):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def fraction_rows(self):
        """The rows as tuples of Fraction: the one read of a QMatrix's
        values, for printing and for substitution into series."""
        return tuple(tuple(Fraction(v, self.den) for v in row) for row in self.num)


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


def vstack(mats):
    """The rows of the matrices mats, in order, over one denominator."""
    den = lcm(*[m.den for m in mats])
    return QMatrix._reduced([[v * (den // m.den) for v in row]
                             for m in mats for row in m.num], den)


def _rref(rows, nc):
    """Gauss-Jordan elimination of integer rows, pivots sought in the first
    nc columns, by Bareiss's one-step fraction-free elimination (E. H.
    Bareiss, Math. Comp. 22, 1968).

    The pivot of a column is its first nonzero entry at or below the pivot
    row, as over Q.  Every other row becomes (p * row - f * pivot row) / d,
    p the pivot, f the row's entry in the pivot column and d the previous
    pivot (1 at first); each entry is then a minor of the input, so the
    division is exact.  Returns (rows, pivots, d), d > 0: rows / d are the
    rows that elimination over Q, dividing each pivot row by its pivot,
    makes of the same input.
    """
    m = [list(r) for r in rows]
    nr = len(m)
    pivots = []
    d = 1
    for col in range(nc):
        row = len(pivots)
        piv = next((r for r in range(row, nr) if m[r][col]), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        top = m[row]
        p = top[col]
        for r in range(nr):
            if r == row:
                continue
            f = m[r][col]
            if f:
                m[r] = [(p * c - f * t) // d for c, t in zip(m[r], top)]
            elif p != d:
                m[r] = [p * c // d for c in m[r]]
        pivots.append(col)
        d = p
        if row + 1 == nr:
            break
    if d < 0:
        m = [[-v for v in r] for r in m]
        d = -d
    return m, pivots, d


def _cols(a):
    return len(a.num[0]) if a.num else 0


def _require_square(a):
    if any(len(row) != len(a) for row in a.num):
        raise DimensionMismatch(f"{len(a)}x{_cols(a)} matrix is not square")


def rref(a):
    """Reduced row echelon form; returns (rref, pivot columns, transform),
    the transform T with T a = rref."""
    a = QMatrix(a)
    nr, nc = len(a), _cols(a)
    m, pivots, d = _rref([[*row, *(int(i == j) for j in range(nr))]
                          for i, row in enumerate(a.num)], nc)
    # T num = rref too: a's transform rows that take a pivot are den times
    # those of T, the rest equal them.
    k = len(pivots)
    return (QMatrix._reduced([row[:nc] for row in m], d), pivots,
            QMatrix._reduced([[v * a.den for v in row[nc:]] if i < k else row[nc:]
                              for i, row in enumerate(m)], d))


def rank(a):
    a = QMatrix(a)
    return len(_rref(a.num, _cols(a))[1])


def kernel(a):
    """Basis of the right kernel, as the rows of a QMatrix: per column f
    without a pivot, the vector with 1 at f and minus the rref's column f
    at the pivot columns."""
    a = QMatrix(a)
    nc = _cols(a)
    r, pivots, d = _rref(a.num, nc)
    basis = []
    for f in range(nc):
        if f in pivots:
            continue
        v = [0] * nc
        v[f] = d
        for row, p in zip(r, pivots):
            v[p] = -row[f]
        basis.append(v)
    return QMatrix._reduced(basis, d)


def inverse(a):
    a = QMatrix(a)
    _require_square(a)
    _, pivots, t = rref(a)
    if len(pivots) != len(t):
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
    _require_square(a)
    _require_square(b)
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


def triangular_solve(equations, n):
    """Solve (L - shift) X - X L = R for X, one entry at a time, over the
    equations [(L, shift, R)], each L an upper triangular QMatrix.

    Entries run rows bottom-up, columns left to right, so that the
    couplings through L's off-diagonal entries are known when an entry is
    reached.  Each entry is taken from the first equation whose
    coefficient L[k][k] - L[l][l] - shift is nonzero.  An entry that no
    equation determines is 0 in X and kept: the equations then hold with
    (L - shift) X - X L - K = R, and K[k][l] is its value in each.
    X is solved as integers over one denominator, which grows to the lcm
    of its entries' denominators as they are reached.  Returns (X, K),
    K the tuple of K per equation, or None when no entry is kept with a
    nonzero value.
    """
    d = lcm(*[r.den for _, _, r in equations])
    x = [[0] * n for _ in range(n)]         # X = x / d
    kept = []                               # (k, l, values, d then)
    for k in range(n - 1, -1, -1):
        for l in range(n):
            values = []
            for lam, shift, r in equations:
                ln, ld = lam.num, lam.den
                # The known side, times ld * d.
                acc = (r.num[k][l] * (d // r.den) * ld
                       - sum(ln[k][m] * x[m][l] for m in range(k + 1, n))
                       + sum(x[k][m] * ln[m][l] for m in range(l)))
                coef = ln[k][k] - ln[l][l] - shift * ld
                if coef:
                    # X[k][l] = acc / (d * coef): d grows by the least c
                    # that makes acc * c / coef an integer.
                    c = abs(coef) // gcd(acc, coef)
                    if c != 1:
                        x = [[v * c for v in row] for row in x]
                        d *= c
                    x[k][l] = acc * c // coef
                    break
                values.append(-acc)
            else:
                if any(values):
                    kept.append((k, l, values, d))
    if not kept:
        return QMatrix._reduced(x, d), None
    # A value over L.den * d' is (d / d') times that over L.den * d.
    nums = [[[0] * n for _ in range(n)] for _ in equations]
    for k, l, values, then in kept:
        for num, v in zip(nums, values):
            num[k][l] = v * (d // then)
    return QMatrix._reduced(x, d), tuple(
        QMatrix._reduced(num, lam.den * d)
        for num, (lam, _, _) in zip(nums, equations))


def common_triangularize(mats):
    """Simultaneous upper triangularization of commuting matrices with
    rational eigenvalues; None when an irrational eigenvalue blocks it."""
    n = len(mats[0])
    u_rows = []
    # Build the flag one common eigenvector (a 1 x n QMatrix) at a time,
    # working in the original coordinates with a shrinking complement.
    while len(u_rows) < n:
        sub_basis = _complement(u_rows, n)
        reps = [_restrict(m, u_rows, sub_basis) for m in mats]
        vec_sub = _common_eigvec(reps)
        if vec_sub is None:
            return None
        u_rows.append(mul(vec_sub, sub_basis))
    u = transpose(vstack(u_rows))
    uinv = inverse(u)
    tris = [mul(mul(uinv, m), u) for m in mats]
    for t in tris:
        if any(any(row[:i]) for i, row in enumerate(t.num)):
            raise ReductionError("triangularization failed")
    return u, uinv, tris


def _complement(u_rows, n):
    """The coordinate vectors completing the vectors u_rows to a basis, as
    the rows of a QMatrix."""
    pivots = _rref(vstack(u_rows).num, n)[1] if u_rows else []
    return submatrix(identity(n), [j for j in range(n) if j not in pivots],
                     range(n))


def _restrict(mat, u_rows, sub_basis):
    """Matrix of the action induced on the span of sub_basis's rows modulo
    the span of u_rows."""
    inv = inverse(transpose(vstack([*u_rows, sub_basis])))
    coords = mul(mul(inv, mat), transpose(sub_basis))
    return submatrix(coords, range(len(u_rows), len(coords)),
                     range(len(sub_basis)))


def _common_eigvec(mats):
    """A common eigenvector with rational eigenvalues, as a 1 x n QMatrix;
    None if blocked."""
    n = len(mats[0])
    space = identity(n)
    for m in mats:
        rep = _matrix_on_span(m, space)
        if rep is None:
            return None
        roots = rational_roots(charpoly(rep))
        if not roots:
            return None
        lam = roots[0][0]
        shifted = sub(rep, scale(identity(len(rep)), lam))
        ker = kernel(shifted)
        if not ker:
            return None
        # The vectors sum_j c_j space[j], one per kernel vector c.
        space = mul(ker, space)
    return submatrix(space, [0], range(n))


def _matrix_on_span(mat, span):
    """Matrix of `mat` restricted to the span of the independent rows of
    the QMatrix span; None when the span is not invariant."""
    basis, k = transpose(span), len(span)
    img = mul(mat, basis)
    # rref(basis) = [I; 0]: the first k rows of its transform invert it.
    left = submatrix(rref(basis)[2], range(k), range(len(basis)))
    rep = mul(left, img)
    return rep if mul(basis, rep) == img else None


def submatrix(a, rows, cols):
    return QMatrix._reduced([[a.num[i][j] for j in cols] for i in rows], a.den)
