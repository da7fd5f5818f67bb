"""The stored form of a constant matrix: a QMatrix is integer rows num over
one denominator den, in canonical form.

Every qlinalg operation and each boundary method between series and
constant matrices (SeriesMatrix.constant_part, coefficients and
from_coefficients) must return a matrix that the validating QMatrix(rows)
would leave unchanged: tuples of int rows, den > 0, gcd(den, every entry)
= 1, so den = 1 for a zero matrix.  Equality is then equality of fields,
and it agrees with equality of the values.  The kernel operations run on
the stored integers and build no Fraction.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from conftest import count_fractions
from pfaffred import qlinalg
from pfaffred.matrices import SeriesMatrix
from pfaffred.qlinalg import QMatrix
from pfaffred.series import BiSeries

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
scalars = st.one_of(st.integers(-3, 3), rationals)


def matrices(rows, cols):
    return st.lists(st.lists(rationals, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(QMatrix)


square = st.integers(1, 3).flatmap(
    lambda n: st.tuples(matrices(n, n), matrices(n, n), matrices(n, n)))


def valid(m):
    """m is in canonical form, and is what the validating constructor
    makes of its own values."""
    assert isinstance(m, QMatrix)
    assert type(m.den) is int and m.den > 0
    assert type(m.num) is tuple
    assert all(type(row) is tuple for row in m.num)
    assert all(type(v) is int for row in m.num for v in row)
    assert gcd(m.den, *[v for row in m.num for v in row]) == 1
    v = QMatrix(list(m))
    assert v is not m and (v.num, v.den) == (m.num, m.den)


def results(a, b, c, k):
    """Every qlinalg operation on n x n operands, and the boundary methods
    on series matrices made of them."""
    n = len(a)
    out = [qlinalg.zeros(n, n), qlinalg.identity(n), qlinalg.add(a, b),
           qlinalg.sub(a, b), qlinalg.sub(a, a), qlinalg.scale(a, k),
           qlinalg.mul(a, b), qlinalg.dot([(1, a, b), (-2, b, c), (3, c, a)]),
           qlinalg.dot([], (n, n)), qlinalg.transpose(a),
           qlinalg.submatrix(a, range(n - 1, -1, -1), range(n)),
           qlinalg.poly_eval_matrix([Fraction(1, 2), k, 1], a)]
    r, _, t = qlinalg.rref(a)
    out += [r, t]
    if qlinalg.rank(a) == n:
        out.append(qlinalg.inverse(a))
    solve = qlinalg.sylvester_solver(a, b)
    if solve is not None:
        out.append(solve(c))
    exact = SeriesMatrix.from_coefficients({(0, 0): a, (1, 0): b, (0, 2): c},
                                           n, 3, 3, exact=True)
    cut = SeriesMatrix.from_coefficients({(0, 0): a, (1, 0): b, (0, 2): c},
                                         n, 2, 2)
    for m in (exact, cut, exact * cut):
        out.append(m.constant_part())
        out += m.coefficients().values()
    return out


@given(square, scalars)
def test_operations_keep_the_canonical_form(abc, k):
    for m in results(*abc, k):
        valid(m)


@given(square)
def test_equality_is_equality_of_fields(abc):
    a, b, _ = abc
    for x, y in ((a, b), (qlinalg.add(a, b), qlinalg.add(b, a)),
                 (qlinalg.sub(qlinalg.add(a, b), b), a),
                 (qlinalg.scale(qlinalg.scale(a, 3), Fraction(1, 3)), a)):
        same = (x.num, x.den) == (y.num, y.den)
        assert (x == y) == same == (list(x) == list(y))
    assert a == tuple(a) and a != list(a)


@given(square)
def test_series_boundary_round_trips(abc):
    a, b, c = abc
    n = len(a)
    coeffs = {(0, 0): a, (2, 1): b, (1, 0): c}
    for exact in (True, False):
        m = SeriesMatrix.from_coefficients(coeffs, n, 3, 3, exact=exact)
        back = m.coefficients()
        assert back == {e: v for e, v in coeffs.items() if not qlinalg.is_zero(v)}
        assert m.constant_part() == a
        assert SeriesMatrix.from_coefficients(back, n, 3, 3, exact=exact) == m
        for e in m.entries:
            v = BiSeries(e.coeffs, 3, 3, exact)
            assert (e.num, e.den) == (v.num, v.den)


@given(square, scalars)
def test_kernel_operations_build_no_fraction(abc, k):
    a, b, c = abc
    n = len(a)
    solve = qlinalg.sylvester_solver(a, b)
    rows = [list(row) for row in a]
    with pytest.MonkeyPatch.context() as mp:
        built = count_fractions(mp)
        QMatrix(rows)
        qlinalg.zeros(n, n)
        qlinalg.identity(n)
        qlinalg.add(a, b)
        qlinalg.sub(a, b)
        qlinalg.scale(a, k)
        qlinalg.mul(a, b)
        qlinalg.dot([(1, a, b), (-2, b, c)])
        qlinalg.transpose(a)
        qlinalg.submatrix(a, range(n), range(n - 1))
        qlinalg.is_zero(a)
        qlinalg.is_nilpotent(a)
        if solve is not None:
            solve(c)
        m = SeriesMatrix.from_coefficients({(0, 0): a, (1, 1): b}, n, 3, 3)
        m.constant_part()
        m.coefficients()
        (m * m).coefficients()
    assert built == []
