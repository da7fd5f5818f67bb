"""The trusted constructor BiSeries._of keeps the series invariants.

Every operation that builds its result with _of, instead of the
validating BiSeries(...), must return a series that validation would
leave unchanged: the same coefficients, window and exactness, every
coefficient a nonzero Fraction (never an int), and, for a truncated
series, every term inside the window.  Operands are exact, truncated,
zero on their window (tx or ty == 0) and mixed, on both axes.

The numerator conversion of the products runs once per series: a k x k
SeriesMatrix product converts each operand entry once, and a product
that reuses an operand converts none of its entries again.
"""

from fractions import Fraction

from hypothesis import assume, given, strategies as st

from pfaffred import series
from pfaffred.errors import PfaffredError, TruncationExhausted
from pfaffred.matrices import SeriesMatrix
from pfaffred.moser import theta_poly
from pfaffred.series import BiSeries, dot
from pfaffred.system import PfaffianSystem

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


@st.composite
def bi_series(draw, max_order=5, min_order=0):
    """Exact or truncated, possibly zero on its window (tx or ty == 0
    when truncated and min_order is 0), possibly with exact terms beyond
    its nominal orders."""
    exact = draw(st.booleans())
    tx = draw(st.integers(max(min_order, exact), max_order))
    ty = draw(st.integers(max(min_order, exact), max_order))
    exps = st.tuples(st.integers(0, max_order + 1), st.integers(0, max_order + 1))
    coeffs = draw(st.dictionaries(exps, rationals, max_size=10))
    return BiSeries(coeffs, tx, ty, exact=exact)


axes = st.sampled_from(("x", "y"))


def valid(r):
    """r is what the validating constructor makes of its own fields."""
    assert isinstance(r, BiSeries)
    v = BiSeries(r.coeffs, r.tx, r.ty, exact=r.exact)
    assert r.coeffs == v.coeffs
    assert (r.tx, r.ty, r.exact) == (v.tx, v.ty, v.exact)
    for (i, j), c in r.coeffs.items():
        assert type(c) is Fraction and c
        assert i >= 0 and j >= 0
        assert r.exact or (i < r.tx and j < r.ty)


@given(bi_series(), bi_series())
def test_sum_difference_product(a, b):
    for r in (a + b, a - b, b - a, -a, a * b, dot([(a, b), (b, a)])):
        valid(r)


@given(bi_series(), st.integers(-3, 3) | rationals)
def test_scalar_product(a, c):
    valid(a * c)
    valid(c * a)
    valid(a + c)
    valid(a - c)


def same(r, s):
    """r and s have the same coefficients, window and exactness."""
    assert (r.coeffs, r.tx, r.ty, r.exact) == (s.coeffs, s.tx, s.ty, s.exact)


@given(bi_series(), bi_series())
def test_difference_is_the_sum_with_the_negation(a, b):
    # Differences merge the terms of the subtrahend with their signs
    # flipped, in the loop that sums; the result is that of a + (-b).
    same(a - b, a + (-b))
    same(b - a, b + (-a))


@given(bi_series(), st.integers(-3, 3) | rationals)
def test_scalar_difference_is_the_sum_with_the_negation(a, c):
    valid(c - a)
    same(a - c, a + (-c))
    same(c - a, (-a) + c)


@given(bi_series(), axes)
def test_delta_and_eval_zero(a, var):
    valid(a.delta(var))
    try:
        valid(a.eval_zero(var))
    except TruncationExhausted:
        assert not a.exact


@given(bi_series(), st.integers(0, 6), st.integers(0, 6))
def test_window_cut(a, tx, ty):
    r = a.truncated(tx, ty)
    valid(r)
    assert not r.exact
    if not a.exact and (r.tx, r.ty) == (a.tx, a.ty):
        assert r is a


@given(bi_series(), st.integers(0, 3), st.integers(0, 3))
def test_shift_and_divide(a, dx, dy):
    up = a.shift(dx, dy)
    valid(up)
    valid(up.divide_monomial(dx, dy))
    try:
        valid(a.divide_monomial(dx, dy))
    except TruncationExhausted:
        pass


def series_matrices(rows, cols, min_order=0):
    return st.lists(bi_series(4, min_order), min_size=rows * cols,
                    max_size=rows * cols).map(
        lambda entries: SeriesMatrix(rows, cols, entries))


@given(series_matrices(2, 2), axes, st.integers(0, 4))
def test_coefficient_matrix(m, var, k):
    try:
        coeff = m.coeff_matrix(var, k)
    except TruncationExhausted:
        return
    for e in coeff.entries:
        valid(e)


@given(st.integers(2, 3).flatmap(
    lambda n: st.tuples(st.just(n), series_matrices(n, n, 3),
                        series_matrices(n, n, 3))),
    axes)
def test_theta_coefficients(case, axis):
    n, amat, bmat = case
    try:
        theta = theta_poly(PfaffianSystem.make(n, 2, 2, amat, bmat,
                                               strict=False), axis)
    except PfaffredError:
        assume(False)
    for c in theta.coeffs:
        valid(c)


# -- numerator conversions -------------------------------------------------------


def _distinct_matrix(k, offset):
    """k x k matrix of distinct nonzero truncated entries on one window."""
    return SeriesMatrix(k, k, [
        BiSeries({(0, 0): Fraction(offset + e + 1, 3), (1, e % 2): 1}, 4, 4)
        for e in range(k * k)])


def test_product_converts_each_entry_once(monkeypatch):
    converted = []
    inner = series._numerators

    def counting(coeffs):
        converted.append(id(coeffs))
        return inner(coeffs)

    monkeypatch.setattr(series, "_numerators", counting)
    for k in (1, 2, 3):
        a, b, c = (_distinct_matrix(k, off) for off in (0, 10, 20))
        converted.clear()
        first = a * b
        assert sorted(converted) == sorted(
            id(e.coeffs) for e in a.entries + b.entries)
        converted.clear()
        a * c
        assert sorted(converted) == sorted(id(e.coeffs) for e in c.entries)
        converted.clear()
        assert a * b == first
        assert converted == []
