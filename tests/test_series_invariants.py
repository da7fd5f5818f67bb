"""The trusted constructors BiSeries._of and _reduced keep the series
invariants.

Every operation that builds its result with them, instead of the
validating BiSeries(...), must return a series that validation would
leave unchanged: the same numerators, denominator, window and
exactness, in canonical form (int numerators, none zero, den > 0, the
gcd of den and the numerators 1, den 1 without terms) and, for a
truncated series, every term inside the window.  Operands are exact,
truncated, zero on their window (tx or ty == 0) and mixed, on both axes.

The series kernel runs on the stored integers alone: products read the
operands' numerators as they are and leave them unchanged, and the
arithmetic of an integrability check builds no Fraction, whether dot
packs its operands into one integer each or multiplies term pairs.
"""

import random
from fractions import Fraction

from hypothesis import assume, given, strategies as st

from conftest import count_fractions, random_integrable_system, valid
from pfaffred import series
from pfaffred.errors import PfaffredError, TruncationExhausted
from pfaffred.matrices import SeriesMatrix
from pfaffred.moser import theta_poly
from pfaffred.series import BiSeries, dot
from pfaffred.system import PfaffianSystem, check_integrability

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


@given(bi_series())
def test_valuations_are_the_least_exponents(a):
    # The generator form that _valuations_once replaced.
    want = ((min(i for i, _ in a.num), min(j for _, j in a.num)) if a.num
            else (a._eff_tx(), a._eff_ty()))
    assert (a.val_x(), a.val_y()) == want


@given(bi_series(), series_matrices(2, 3))
def test_shift_by_nothing_is_the_same_object(a, m):
    # Both types are immutable, so the product by x^0 y^0 is the operand.
    assert a.shift(0, 0) is a
    assert m.shift(0, 0) is m


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


# -- the stored integers ---------------------------------------------------------


def _distinct_matrix(k, offset):
    """k x k matrix of distinct nonzero truncated entries on one window."""
    return SeriesMatrix(k, k, [
        BiSeries({(0, 0): Fraction(offset + e + 1, 3), (1, e % 2): 1}, 4, 4)
        for e in range(k * k)])


def stored(m):
    """The stored fields of m's entries: (num dict, its items, den)."""
    return [(e.num, sorted(e.num.items()), e.den) for e in m.entries]


def test_product_reads_the_stored_numerators(monkeypatch):
    # A k x k product, and its repetition, build no Fraction and leave
    # each operand entry's numerators and denominator as they were.
    for k in (1, 2, 3):
        a, b = (_distinct_matrix(k, off) for off in (0, 10))
        before = stored(a) + stored(b)
        built = count_fractions(monkeypatch)
        first = a * b
        assert a * b == first
        monkeypatch.undo()
        assert built == []
        after = stored(a) + stored(b)
        assert all(x[0] is y[0] and x[1:] == y[1:]
                   for x, y in zip(before, after))
        for e in first.entries:
            valid(e)


def test_series_kernel_builds_no_fraction(monkeypatch):
    # A seeded n = 4 system cut to a window, and exact: products (packed
    # into one integer each and term pair by term pair), sums,
    # differences, negation, scalings, Euler derivatives, shifts, window
    # cuts, a unit inverse and the integrability check run on the stored
    # integers alone, and give canonical results.  The sparse exact
    # entries c + k x^121 y^120 spread their products over more slots than
    # term pairs, so their product is multiplied term pair by term pair.
    sys_obj = random_integrable_system(random.Random(4), n=4, p=1, q=1)
    a, b = sys_obj.amat.truncated(6, 6), sys_obj.bmat.truncated(6, 6)
    half = Fraction(1, 2)
    unit = BiSeries.const(3, 6, 6) + a.at(0, 1).shift(1, 0)
    sparse = SeriesMatrix(2, 2, [
        BiSeries({(0, 0): c, (121, 120): Fraction(k, 3)}, 1, 1, exact=True)
        for c, k in ((1, 2), (-2, 5), (3, -1), (0, 4))])
    inner, packs = series._pack, []
    monkeypatch.setattr(series, "_pack",
                        lambda *args: packs.append(args) or inner(*args))
    built = count_fractions(monkeypatch)
    ab = a * b
    exact_ab = sys_obj.amat * sys_obj.bmat
    packed = len(packs)
    sparse_sq = sparse * sparse
    assert packed and len(packs) == packed
    results = [ab, exact_ab, sparse_sq, a + b, a - b, -a, a.scale(3),
               a.scale(half), b.delta("x"), b.delta("y"), a.shift(1, 2),
               ab.truncated(4, 5), a * b - b * a]
    inverse = unit.invert()
    integrable, _ = check_integrability(
        PfaffianSystem.make(4, sys_obj.p, sys_obj.q, a, b, strict=False))
    monkeypatch.undo()
    assert built == []
    assert integrable
    assert inverse * unit == BiSeries.const(1, 6, 6)
    assert all(e.num for e in sparse_sq.entries)
    for e in [inverse] + [e for m in results for e in m.entries]:
        valid(e)
