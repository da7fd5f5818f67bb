"""Reference kernels: the dict-of-Fraction bodies that the integer-numerator
kernels in series, matrices and qlinalg replaced, kept verbatim apart from
taking their operands as arguments.

They multiply term by term in Fraction arithmetic, one gcd per term pair,
and build a matrix product as a sequential sum of series products, so
their windows follow directly from BiSeries.__mul__ and __add__.  The
unit inverse is the graded fill that BiSeries.invert used before it
filled the window in row-major order.

integrability is the four-term residual by which the integrability
check certified the identity before it summed B A - A B in one call.

charpoly, column_echelon and gauge_one_factor are the Moser layer's
kernels as they were before each of their sums became one call of
series.dots: Berkowitz's charpoly adds one series product at a time to
sum(..., one * 0), the column update subtracts one product per entry and
pivot column (its quotient by a fresh inverse of the pivot's unit), and a
gauge factor subtracts delta F from the Laurent product A F.  They run on
the library's own products, so they differ from the fused forms only in
how the sums are grouped.

sylvester_solve is the Sylvester solve that qlinalg.sylvester_solver
replaced (two rrefs of the Kronecker operator per right-hand side), and
accumulate is the chain of qlinalg add/sub/scale over products by which
the order-by-order solvers summed their known parts before qlinalg.dot.
"""

import operator
from fractions import Fraction

from pfaffred.errors import TruncationExhausted, ZeroConstantTerm
from pfaffred.qlinalg import QMatrix, add, rank, rref, scale, sub, zeros
from pfaffred.matrices import SeriesMatrix
from pfaffred.series import INF_ORDER, BiSeries, exponent


def bi_mul(self, other):
    """BiSeries product of two series."""
    if (self.exact and not self.coeffs) or (other.exact and not other.coeffs):
        return BiSeries.zero(max(self.tx, other.tx), max(self.ty, other.ty))
    exact = self.exact and other.exact
    # Unknown terms of one factor enter at the other factor's
    # valuation, per variable.
    tx = min(self.val_x() + other._eff_tx(), other.val_x() + self._eff_tx())
    ty = min(self.val_y() + other._eff_ty(), other.val_y() + self._eff_ty())
    out = {}
    for (i1, j1), c1 in self.coeffs.items():
        for (i2, j2), c2 in other.coeffs.items():
            i, j = i1 + i2, j1 + j2
            if not exact and (i >= tx or j >= ty):
                continue
            e = (i, j)
            s = out.get(e, Fraction(0)) + c1 * c2
            if s:
                out[e] = s
            elif e in out:
                del out[e]
    if exact:
        return BiSeries(out, max(self.tx, other.tx),
                        max(self.ty, other.ty), exact=True)
    return BiSeries(out, min(tx, INF_ORDER), min(ty, INF_ORDER))


def matrix_mul(self, other):
    """SeriesMatrix product as a sequential sum of series products."""
    out = []
    for i in range(self.rows):
        for j in range(other.cols):
            s = None
            for k in range(self.cols):
                t = bi_mul(self.at(i, k), other.at(k, j))
                s = t if s is None else s + t
            out.append(s)
    return SeriesMatrix(self.rows, other.cols, out)


def integrability(sys_obj):
    """(verdict, window) of x dB/dx + B A - y dA/dy - A B, cleared of the
    poles x^p y^q, from reference matrix products."""
    sa, sb = sys_obj.amat, sys_obj.bmat
    r = (sb.delta("x").shift(sys_obj.p, 0) + matrix_mul(sb, sa)
         - sa.delta("y").shift(0, sys_obj.q) - matrix_mul(sa, sb))
    if r.is_exact:
        return r.is_zero(), (INF_ORDER, INF_ORDER)
    return r.is_zero(), r.window


def qmul(a, b):
    """Product of constant Fraction matrices."""
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def _graded(support):
    return sorted(support, key=lambda e: (e[0] + e[1], e))


def invert(self):
    """Multiplicative inverse of a unit series, filled in graded order."""
    c0 = self.coeff(0, 0)
    if c0 == 0:
        raise ZeroConstantTerm("cannot invert a series with zero constant term")
    if self.exact and len(self.coeffs) == 1:
        return BiSeries({(0, 0): 1 / c0}, self.tx, self.ty, exact=True)
    tx, ty = self.tx, self.ty
    inv = {(0, 0): 1 / c0}
    todo = [(i, j) for i in range(tx) for j in range(ty) if (i, j) != (0, 0)]
    for i, j in _graded(todo):
        s = Fraction(0)
        for (k, l), a in self.coeffs.items():
            if (k, l) == (0, 0) or k > i or l > j:
                continue
            b = inv.get((i - k, j - l))
            if b is not None:
                s += a * b
        if s:
            inv[(i, j)] = -s / c0
    return BiSeries(inv, tx, ty)


def accumulate(terms, rows, cols):
    """The sum of c * a * b over terms (c, a, b), as the solvers built it:
    r = add(r, mul(a, b)) for c = 1, sub for c = -1, and a scaled product
    otherwise (the pole terms, once sub(r, scale(t, k)))."""
    r = zeros(rows, cols)
    for c, a, b in terms:
        if c == 1:
            r = add(r, qmul(a, b))
        elif c == -1:
            r = sub(r, qmul(a, b))
        else:
            r = add(r, scale(qmul(a, b), c))
    return r


def solve(a, b):
    """Solve a x = b (b a column tuple); None if inconsistent: the
    qlinalg.solve that the Sylvester solve called."""
    nr, nc = len(a), len(a[0])
    aug = [list(a[i]) + [b[i]] for i in range(nr)]
    r, pivots, _ = rref(aug)
    if nc in pivots:
        return None
    x = [Fraction(0)] * nc
    for i, p in enumerate(pivots):
        x[p] = r[i][nc]
    return tuple(x)


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
    sol = solve(QMatrix(rows), tuple(rhs))
    if sol is None:
        return None
    # The operator is square; consistency without uniqueness cannot happen
    # unless it is singular, which callers treat as resonance.
    aug_rank = rank(QMatrix(rows))
    if aug_rank != n * m:
        return None
    return tuple(tuple(sol[i * m + j] for j in range(m)) for i in range(n))


def charpoly(a, one):
    """det(tI - a), coefficients low to high, over series with unit `one`:
    Berkowitz's algorithm with one product and one merge at a time."""
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


def _divide(a, b, var):
    """a / b where val_var(a) >= val_var(b) and b = var^v * unit."""
    dx, dy = exponent(var, b.val(var))
    b0 = b.divide_monomial(dx, dy)
    if b0.coeff(0, 0) == 0:
        raise TruncationExhausted(
            "pivot is not monomial times unit on its window", window=b.window
        )
    q0 = a.divide_monomial(dx, dy)
    if q0.is_zero():
        return q0
    return q0 * b0.invert()


def _eliminate(m, var, v=None, v_inv=None):
    """column_echelon's pivot loop, one column update at a time."""
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
                key = (e.val(var), i, j)
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
        for j in range(placed + 1, ncols):
            e = work[pi][j]
            if e.exact and e.is_zero():
                continue
            f = _divide(e, pivot, var)
            for i in range(nrows):
                work[i][j] = work[i][j] - work[i][placed] * f
            if v is not None:
                for i in range(ncols):
                    v[i][j] = v[i][j] - v[i][placed] * f
                    v_inv[placed][i] = v_inv[placed][i] + f * v_inv[j][i]
        used_rows.append(pi)
        placed += 1
    return work, placed


def column_echelon(m, var):
    """(v, reduced, rank, v_inv) of matrices.column_echelon."""
    identity = SeriesMatrix.identity(m.cols, *m.window)
    v, v_inv = identity.to_rows(), identity.to_rows()
    work, rank_ = _eliminate(m, var, v, v_inv)
    reduced = SeriesMatrix(m.rows, m.cols, [e for row in work for e in row])
    return (SeriesMatrix.from_rows(v), reduced, rank_,
            SeriesMatrix.from_rows(v_inv))


def series_rank(m, var):
    return _eliminate(m, var)[1]


def gauge_one_factor(ax, by, f, f_inv):
    """F^(-1) (A F - delta F) on both sides, normalized, from the Laurent
    product A F and a Laurent subtraction."""
    new_ax = f_inv * (ax * f - f.delta("x"))
    new_by = f_inv * (by * f - f.delta("y"))
    return new_ax.normalize(), new_by.normalize()
