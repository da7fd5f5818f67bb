"""Exact linear algebra over Q for constant matrices.

Matrices are tuples of tuples of Fraction.  Everything here is plain
fraction-free-enough Gaussian elimination; sizes stay small (the systems
being reduced are a handful of rows), so clarity wins over asymptotics.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionMismatch, SingularMatrix
from .series import q


def qmat(rows):
    return tuple(tuple(q(c) for c in row) for row in rows)


def zeros(r, c):
    return tuple(tuple(Fraction(0) for _ in range(c)) for _ in range(r))


def identity(n):
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def scale(a, c):
    c = q(c)
    return tuple(tuple(x * c for x in row) for row in a)


def mul(a, b):
    if len(a[0]) != len(b):
        raise DimensionMismatch(f"{len(a)}x{len(a[0])} times {len(b)}x{len(b[0])}")
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def transpose(a):
    return tuple(zip(*a))


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


def det(a):
    n = len(a)
    m = [list(row) for row in a]
    d = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            d = -d
        d *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                f = m[r][col] * inv
                m[r] = [c - f * e for c, e in zip(m[r], m[col])]
    return d


def charpoly(a):
    """Characteristic polynomial det(tI - a) as coefficients low to high."""
    n = len(a)
    # Faddeev-LeVerrier: exact over Q.
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    m = identity(n)
    for k in range(1, n + 1):
        mk = mul(a, m)
        c = -Fraction(sum(mk[i][i] for i in range(n))) / k
        coeffs[n - k] = c
        m = add(mk, scale(identity(n), c))
    return coeffs


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


def single_eigenvalue(a):
    """The unique eigenvalue if charpoly = (t - g)^n with g rational, else None."""
    n = len(a)
    cp = charpoly(a)
    g = -cp[n - 1] / n
    shifted = sub(a, scale(identity(n), g))
    return g if is_nilpotent(shifted) else None


def sylvester_solve(a, b, c):
    """Solve a X - X b = c exactly; None if the operator is singular."""
    n, m = len(a), len(b)
    # Row-major vectorization: unknowns X[i][j] at index i*m + j.
    rows = []
    rhs = []
    for i in range(n):
        for j in range(m):
            row = [Fraction(0)] * (n * m)
            for k in range(n):
                row[k * m + j] += a[i][k]
            for k in range(m):
                row[i * m + k] -= b[k][j]
            rows.append(tuple(row))
            rhs.append(c[i][j])
    sol = solve(qmat(rows), tuple(rhs))
    if sol is None:
        return None
    # The operator is square; consistency without uniqueness cannot happen
    # unless it is singular, which callers treat as resonance.
    aug_rank = rank(qmat(rows))
    if aug_rank != n * m:
        return None
    return tuple(tuple(sol[i * m + j] for j in range(m)) for i in range(n))


def submatrix(a, rows, cols):
    return tuple(tuple(a[i][j] for j in cols) for i in rows)

