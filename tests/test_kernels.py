"""Differential tests: the integer-numerator kernels against the
dict-of-Fraction bodies they replaced (tests/oracle_kernels.py).

Each product must give the same coefficients, the same `exact` flag and
the same nominal orders or window as the reference, on exact, truncated,
window-zero and mixed operands, exact zeros with differing nominal orders
included.  A single product with an exact monic monomial factor moves the
other factor's numerators and keeps its denominator, with no gcd; every
other single-term factor goes through the accumulating loop, which ends
in one gcd.  Large sums of products are packed, each operand into one
integer (series._pack): over large operands, at the slot-width bound, at
the crossover and on a sum that cancels on its window, the packed result
equals the reference and, field for field, the term-pair loop's, and
sparse exact operands stay on the loop.  The constant-matrix kernels of
the order-by-order solvers, qlinalg.dot and qlinalg.sylvester_solver,
must give the same matrices as the add/mul chains and the two-rref
Sylvester solve they replaced, singular operators (None) included.  qlinalg.dot reads each QMatrix's
stored integer rows, so it is also checked over chains of calls that
reuse operands on either side, feed results back in and take operands
from every QMatrix constructor.  SeriesMatrix.dot, the signed sum of
matrix products that computes all entries in one call and packs each
operand entry once, must equal the reference products and, field for
field, one series.dot per entry and the term-pair loop.
"""

import random
from contextlib import contextmanager
from fractions import Fraction
from unittest.mock import patch

from hypothesis import given, settings, strategies as st

import oracle_kernels as oracle
from pfaffred import qlinalg, series
from pfaffred.matrices import SeriesMatrix
from pfaffred.ods import _split_order
from pfaffred.series import BiSeries, dot

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


@st.composite
def bi_series(draw, max_order=5):
    """Exact or truncated, possibly zero on its window, possibly with
    exact terms beyond its nominal orders."""
    exact = draw(st.booleans())
    tx = draw(st.integers(0 if not exact else 1, max_order))
    ty = draw(st.integers(0 if not exact else 1, max_order))
    exps = st.tuples(st.integers(0, max_order + 1), st.integers(0, max_order + 1))
    coeffs = draw(st.dictionaries(exps, rationals, max_size=10))
    return BiSeries(coeffs, tx, ty, exact=exact)


def series_matrices(rows, cols):
    return st.lists(bi_series(4), min_size=rows * cols,
                    max_size=rows * cols).map(
        lambda entries: SeriesMatrix(rows, cols, entries))


def same_bi(got, want):
    assert got.coeffs == want.coeffs
    assert got.exact == want.exact
    assert (got.tx, got.ty) == (want.tx, want.ty)


@given(bi_series(), bi_series())
def test_bi_product_matches_reference(a, b):
    same_bi(a * b, oracle.bi_mul(a, b))


@given(st.lists(st.tuples(bi_series(4), bi_series(4)), min_size=1, max_size=4))
def test_dot_matches_sequential_sum(pairs):
    want = None
    for a, b in pairs:
        t = oracle.bi_mul(a, b)
        want = t if want is None else want + t
    same_bi(dot(pairs), want)


@given(st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)).flatmap(
    lambda shape: st.tuples(series_matrices(shape[0], shape[1]),
                            series_matrices(shape[1], shape[2]))))
def test_matrix_product_matches_sequential_sum(ab):
    a, b = ab
    got, want = a * b, oracle.matrix_mul(a, b)
    assert (got.rows, got.cols) == (want.rows, want.cols)
    for g, w in zip(got.entries, want.entries):
        same_bi(g, w)


@given(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda shape: st.tuples(
        st.lists(st.lists(rationals, min_size=shape[1], max_size=shape[1]),
                 min_size=shape[0], max_size=shape[0]),
        st.lists(st.lists(rationals, min_size=shape[2], max_size=shape[2]),
                 min_size=shape[1], max_size=shape[1]))))
def test_constant_product_matches_reference(ab):
    a, b = (qlinalg.QMatrix(m) for m in ab)
    got = qlinalg.mul(a, b)
    assert got == oracle.qmul(a, b)
    assert all(isinstance(c, Fraction) for row in got for c in row)


@given(bi_series(), rationals.filter(bool))
def test_invert_matches_graded_fill(s, c0):
    coeffs = dict(s.coeffs)
    coeffs[(0, 0)] = c0
    u = BiSeries(coeffs, max(s.tx, 1), max(s.ty, 1), exact=s.exact)
    same_bi(u.invert(), oracle.invert(u))


def test_exact_zeros_keep_the_largest_nominal_orders():
    z35 = BiSeries.zero(3, 5)
    z62 = BiSeries.zero(6, 2)
    one = BiSeries.const(1, 2, 2)
    for pairs in ([(z35, one)], [(one, z62)], [(z35, z62), (one, one)]):
        want = None
        for a, b in pairs:
            t = oracle.bi_mul(a, b)
            want = t if want is None else want + t
        same_bi(dot(pairs), want)
    assert dot([(z35, one), (one, z62)]).window == (6, 5)


def test_window_zero_and_exact_mix():
    """A window-zero factor truncates the sum; an exact zero does not."""
    c = BiSeries({}, 3, 3)
    x = BiSeries.monomial(1, 1, 0, 8, 8)
    one = BiSeries.const(1, 8, 8)
    got = dot([(one, one), (c, x)])
    same_bi(got, oracle.bi_mul(one, one) + oracle.bi_mul(c, x))
    assert not got.exact and got.window == (4, 3)
    exact = dot([(one, one), (BiSeries.zero(3, 3), x)])
    assert exact.exact and exact.coeffs == {(0, 0): 1}


def test_matrix_product_of_fixture_data(exm, exmnaive):
    for sys_obj in (exm, exmnaive):
        for a in (sys_obj.amat, sys_obj.bmat):
            for b in (sys_obj.amat, sys_obj.bmat.truncated(5, 4)):
                got, want = a * b, oracle.matrix_mul(a, b)
                for g, w in zip(got.entries, want.entries):
                    same_bi(g, w)


# -- exact monic monomial operands ------------------------------------------


orders = st.integers(1, 5)
monic = st.builds(lambda i, j, tx, ty: BiSeries.monomial(1, i, j, tx, ty),
                  st.integers(0, 3), st.integers(0, 3), orders, orders)


@st.composite
def partners(draw):
    """Exact with terms beyond its nominal orders, truncated, or zero on
    its window (tx or ty possibly 0)."""
    kind = draw(st.sampled_from(("exact", "truncated", "window-zero")))
    tx, ty = draw(orders), draw(orders)
    terms = draw(st.dictionaries(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                                 rationals, min_size=1, max_size=8))
    if kind == "exact":
        return BiSeries(terms, tx, ty, exact=True)
    if kind == "truncated":
        return BiSeries(terms, tx, ty)
    return BiSeries({}, draw(st.integers(0, 5)), draw(st.integers(0, 5)))


exact_zeros = st.builds(BiSeries.zero, st.integers(1, 9), st.integers(1, 9))


@contextmanager
def counting_reductions():
    """The list of gcd reductions (BiSeries._reduced) made inside the
    block; the accumulating loop of dot ends in one."""
    calls = []
    inner = BiSeries._reduced

    def counting(*args):
        calls.append(args)
        return inner(*args)

    with patch.object(BiSeries, "_reduced", counting):
        yield calls


def reference_dot(pairs):
    want = None
    for a, b in pairs:
        t = oracle.bi_mul(a, b)
        want = t if want is None else want + t
    return want


@given(monic, partners(), st.booleans(),
       st.lists(st.tuples(exact_zeros, bi_series(4)).map(
           lambda p: p if p[1].tx % 2 else p[::-1]), max_size=3))
def test_monic_monomial_product_moves_coefficients(m, b, left, zeros):
    # One pair with an exact monic monomial, on either side, among exact
    # zeros with other nominal orders: the partner's numerators are moved,
    # the same int objects, over the partner's denominator, with no gcd.
    pairs = [(m, b) if left else (b, m), *zeros]
    with counting_reductions() as calls:
        got = dot(pairs)
    same_bi(got, reference_dot(pairs))
    assert not calls
    # When b is a monic monomial too, dot may move m's numerator instead.
    if not (b.exact and b.den == 1 and list(b.num.values()) == [1]):
        [(di, dj)] = m.num
        assert got.den == b.den
        assert len(got.num) == len(b.num)
        for (i, j), v in b.num.items():
            assert got.num[(i + di, j + dj)] is v


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.lists(st.tuples(monic, exact_zeros), min_size=n, max_size=n),
    series_matrices(n, n))), st.booleans())
def test_monomial_diagonal_matrix_products(case, left):
    # diag(x^a_i y^b_i), its zeros with their own nominal orders, times a
    # matrix of exact, truncated and window-zero entries, on either side.
    cells, a = case
    n = len(cells)
    d = SeriesMatrix(n, n, [cells[i][0] if i == j else cells[i][1]
                            for i in range(n) for j in range(n)])
    x, y = (d, a) if left else (a, d)
    got, want = x * y, oracle.matrix_mul(x, y)
    for g, w in zip(got.entries, want.entries):
        same_bi(g, w)


@given(st.integers(0, 3), st.integers(0, 3), orders, orders,
       rationals.filter(lambda c: c != 1 and c != 0), partners(), st.booleans())
def test_other_single_terms_take_the_general_loop(i, j, tx, ty, c, b, left):
    # c x^i y^j exact with c != 1, and x^i y^j truncated: the product is
    # accumulated over numerators, divided by one gcd, and equals the
    # reference.  An exact zero partner makes an exact zero, with no loop.
    for t in (BiSeries.monomial(c, i, j, tx, ty),
              BiSeries({(i, j): 1}, i + tx, j + ty)):
        pairs = [(t, b) if left else (b, t)]
        with counting_reductions() as calls:
            got = dot(pairs)
        same_bi(got, reference_dot(pairs))
        assert len(calls) == (not (b.exact and b.is_zero()))


# -- the packed products --------------------------------------------------------


@contextmanager
def counting_packs():
    """The list of operands packed into one integer (series._pack) inside
    the block; a call of dot that packs packs two per product."""
    calls = []
    inner = series._pack

    def counting(terms, stride, bits):
        calls.append(terms)
        return inner(terms, stride, bits)

    with patch.object(series, "_pack", counting):
        yield calls


def fields(s):
    return (s.num, s.den, s.tx, s.ty, s.exact)


def loop_dot(pairs):
    """dot with every call kept on the term-pair loop."""
    with patch.object(series, "_PACK_PAIRS", float("inf")):
        return dot(pairs)


@st.composite
def large_series(draw):
    """Up to 64 terms, numerators up to 10^30 of both signs over the
    operand's own denominator; exact, with terms beyond its nominal orders,
    or truncated."""
    exact = draw(st.booleans())
    tx, ty = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    den = draw(st.integers(1, 10**6))
    size = draw(st.integers(0, 64))
    coeffs = draw(st.dictionaries(
        st.tuples(st.integers(0, 10), st.integers(0, 10)),
        st.integers(-10**30, 10**30), min_size=size, max_size=size))
    return BiSeries({e: Fraction(v, den) for e, v in coeffs.items()}, tx, ty,
                    exact=exact)


def test_packed_dot_matches_sequential_sum():
    # Sums of up to three products of large operands: both paths of dot
    # run over the examples, and each result equals the sequential sum of
    # reference products and, field for field, the term-pair loop's.
    packed = []

    @given(st.lists(st.tuples(large_series(), large_series()), min_size=1,
                    max_size=3))
    def check(pairs):
        with counting_packs() as calls:
            got = dot(pairs)
        packed.append(bool(calls))
        same_bi(got, reference_dot(pairs))
        assert fields(got) == fields(loop_dot(pairs))

    check()
    assert any(packed) and not all(packed)


def _row(coeff, count):
    """The exact series coeff * (1 + x + ... + x^(count - 1))."""
    return BiSeries({(k, 0): coeff for k in range(count)}, 1, 1, exact=True)


def check_packed(pairs, packs):
    """dot(pairs) packs `packs` operands, equals the reference and the
    term-pair loop's result field for field; returns it."""
    with counting_packs() as calls:
        got = dot(pairs)
    assert len(calls) == packs
    same_bi(got, reference_dot(pairs))
    assert fields(got) == fields(loop_dot(pairs))
    return got


def test_slot_at_the_bound():
    # 16 x 16 terms of magnitude M: the slot of x^15 receives 16 term
    # pairs of M^2, exactly the bound, whose bit length 64 is a multiple
    # of 8.  Both signs.
    m = 2**30 - 1
    bound = 16 * m * m
    assert bound.bit_length() == 64
    for sign in (1, -1):
        got = check_packed([(_row(m, 16), _row(sign * m, 16))], 2)
        assert got.den == 1 and got.num[(15, 0)] == sign * bound


def test_sum_cancelling_on_the_window():
    # f (1 + x) times g (1 - x + x^2 - x^3) minus f g is x^4 f g (-1): it
    # vanishes on the x-window 4, while the packed slots beyond it do not.
    f = BiSeries({(i, j): Fraction(i - 2 * j + 5, 7)
                  for i in range(4) for j in range(4)}, 1, 1, exact=True)
    g = BiSeries({(i, j): Fraction(3 * i + j + 1, 11)
                  for i in range(4) for j in range(4)}, 4, 4)
    one_x = BiSeries({(0, 0): 1, (1, 0): 1}, 1, 1, exact=True)
    alt = BiSeries({(k, 0): (-1) ** k for k in range(4)}, 1, 1, exact=True)
    got = check_packed([(f * one_x, g * alt), (-f, g)], 4)
    assert got.num == {} and got.den == 1 and got.window == (4, 4)


def test_crossover():
    # One pair short of the crossover stays on the loop; at the crossover
    # it packs.
    c = series._PACK_PAIRS
    three = BiSeries.const(3, 1, 1)
    check_packed([(three, _row(Fraction(1, 2), c - 1))], 0)
    check_packed([(three, _row(Fraction(1, 2), c))], 2)


def test_sparse_exact_operands_stay_on_the_loop():
    # As many term pairs as the crossover, but spread over more slots than
    # term pairs: exponents 10 k in x.
    c = series._PACK_PAIRS
    a = BiSeries({(10 * k, 0): k + 1 for k in range(c)}, 1, 1, exact=True)
    check_packed([(a, BiSeries.const(Fraction(-5, 3), 1, 1))], 0)


# -- the matrix-level sum of products --------------------------------------------


@st.composite
def dense_series(draw):
    """Exact or truncated, with up to 16 terms in the box [0, 4) x [0, 4):
    products of two of them pack once they have 64 term pairs."""
    exact = draw(st.booleans())
    tx, ty = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    coeffs = draw(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                                  rationals, min_size=8, max_size=16))
    return BiSeries(coeffs, tx, ty, exact=exact)


def mixed_matrices(rows, cols):
    """Entries exact, truncated, exact zero or zero on their window (from
    bi_series), or dense enough to pack."""
    return st.lists(st.one_of(bi_series(4), dense_series(), dense_series()),
                    min_size=rows * cols, max_size=rows * cols).map(
        lambda entries: SeriesMatrix(rows, cols, entries))


# (rows, inner, cols): square, rectangular, an empty inner dimension and
# an empty result.
SHAPES = ((1, 1, 1), (2, 2, 2), (3, 3, 3), (2, 2, 2), (3, 3, 3), (1, 3, 2),
          (3, 2, 1), (2, 1, 3), (2, 0, 3), (2, 2, 0))


@st.composite
def matrix_terms(draw):
    """One or two signed terms (c, a, b) of one shape, empty and
    rectangular shapes included.  A second term has new operands, the
    first term's, or, when they are square, the first term's swapped
    (b a - a b shares every operand entry between the two products)."""
    rows, inner, cols = draw(st.sampled_from(SHAPES))
    a, b = draw(mixed_matrices(rows, inner)), draw(mixed_matrices(inner, cols))
    terms = [(draw(st.sampled_from((1, -1))), a, b)]
    second = draw(st.sampled_from(("none", "new", "same", "swapped")))
    if second == "swapped" and rows == inner == cols:
        terms.append((-terms[0][0], b, a))
    elif second == "same":
        terms.append((draw(st.sampled_from((1, -1))), a, b))
    elif second != "none":
        terms.append((draw(st.sampled_from((1, -1))),
                      draw(mixed_matrices(rows, inner)),
                      draw(mixed_matrices(inner, cols))))
    return terms


def reference_sum(terms):
    """The sum of c a b as sums and differences of reference products."""
    rows, cols = terms[0][1].rows, terms[0][2].cols
    if not terms[0][1].cols:
        return SeriesMatrix(rows, cols, [BiSeries.zero(0, 0)] * (rows * cols))
    out = None
    for c, a, b in terms:
        p = oracle.matrix_mul(a, b)
        p = p if c == 1 else -p
        out = p if out is None else out + p
    return out


def per_entry_sum(terms):
    """The sum of c a b entry by entry: one series.dot per sign."""
    rows, cols = terms[0][1].rows, terms[0][2].cols
    entries = []
    for i in range(rows):
        for j in range(cols):
            sums = {1: [], -1: []}
            for c, a, b in terms:
                sums[c] += zip(a.row(i), b.entries[j::cols])
            entry = dot(sums[1])
            if sums[-1]:
                entry = entry - dot(sums[-1]) if sums[1] else -dot(sums[-1])
            entries.append(entry)
    return SeriesMatrix(rows, cols, entries)


def test_matrix_sum_matches_reference_and_per_entry_dot():
    # SeriesMatrix.dot against the sequential sums of reference products
    # and, field for field, against one series.dot per entry and sign;
    # both the term-pair loop and the packed path run over the examples.
    ran = {"loop": 0, "packed": 0}
    rows = series._Operand.rows

    def counting_rows(self):
        ran["loop"] += 1
        return rows(self)

    @settings(max_examples=100)
    @given(matrix_terms())
    def check(terms):
        with counting_packs() as packs, \
                patch.object(series._Operand, "rows", counting_rows):
            got = SeriesMatrix.dot(terms)
        ran["packed"] += bool(packs)
        assert (got.rows, got.cols) == (terms[0][1].rows, terms[0][2].cols)
        want = reference_sum(terms)
        for g, w in zip(got.entries, want.entries):
            same_bi(g, w)
        assert ([fields(e) for e in got.entries]
                == [fields(e) for e in per_entry_sum(terms).entries])
        with patch.object(series, "_PACK_PAIRS", float("inf")):
            loop = SeriesMatrix.dot(terms)
        assert [fields(e) for e in got.entries] == [fields(e) for e in loop.entries]

    check()
    assert ran["loop"] and ran["packed"]


def test_packed_sums_of_one_call_share_the_widest_slots():
    # f times [g, h]: both entries pack, g's numerators need slots of 13
    # bytes, h's of 2, and h reaches a longer stride in y.  Packed at one
    # width and stride, each entry equals its own series.dot and the loop.
    f = BiSeries({(i, j): 1 + i - j for i in range(4) for j in range(4)}, 1, 1,
                 exact=True)
    g = BiSeries({(i, j): (-1) ** j * (10**30 + i) for i in range(4)
                  for j in range(4)}, 8, 8)
    h = BiSeries({(i, j): i + 2 * j + 1 for i in range(4) for j in range(6)},
                 8, 8)
    a, b = SeriesMatrix(1, 1, [f]), SeriesMatrix(1, 2, [g, h])
    with counting_packs() as packs:
        got = a * b
    assert len(packs) == 3
    with patch.object(series, "_PACK_PAIRS", float("inf")):
        loop = a * b
    for e, l, other in zip(got.entries, loop.entries, (g, h)):
        assert fields(e) == fields(dot([(f, other)])) == fields(l)


@given(st.lists(st.tuples(monic, partners(), st.booleans()), min_size=1,
                max_size=3))
def test_negated_monomial_products_move_negated_numerators(cases):
    # Sums -m b or -b m of one call, m an exact monic monomial: each is
    # b's numerators moved and negated, over b's denominator, with no gcd.
    sums = [[(-1, m, b) if left else (-1, b, m)] for m, b, left in cases]
    with counting_reductions() as calls:
        got = series.dots(sums)
    assert not calls
    for g, [(_, x, y)] in zip(got, sums):
        same_bi(g, -oracle.bi_mul(x, y))


def dense_matrix(rng, n, tx, ty, exact=False):
    """n x n distinct entries with about 3/4 of the box [0, tx) x [0, ty)
    filled: every product of two of them packs."""
    return SeriesMatrix(n, n, [
        BiSeries({(i, j): Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                  for i in range(tx) for j in range(ty) if rng.random() < 0.75},
                 tx, ty, exact=exact) for _ in range(n * n)])


def test_each_operand_entry_is_packed_once_per_call():
    # Every entry pair of these products packs; series.dot per entry
    # would pack each operand entry n times.
    rng = random.Random(3)
    for n in (2, 4):
        a, b = dense_matrix(rng, n, 6, 6), dense_matrix(rng, n, 6, 6, exact=True)
        for terms in ([(1, a, b)], [(1, b, a), (-1, a, b)]):
            with counting_packs() as packs:
                got = SeriesMatrix.dot(terms)
            assert len(packs) == 2 * n * n
            assert [fields(e) for e in got.entries] == [
                fields(e) for e in per_entry_sum(terms).entries]


def const_matrices(rows, cols, values=rationals):
    return st.lists(st.lists(values, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(qlinalg.QMatrix)


@st.composite
def dot_terms(draw):
    rows, inner, cols = (draw(st.integers(1, 4)) for _ in range(3))
    count = draw(st.integers(0, 4))
    terms = [(draw(st.sampled_from((1, -1, 2, -3))),
              draw(const_matrices(rows, inner)),
              draw(const_matrices(inner, cols))) for _ in range(count)]
    return terms, rows, cols


@given(dot_terms())
def test_dot_matches_add_mul_chain(case):
    terms, rows, cols = case
    got = qlinalg.dot(terms, (rows, cols))
    assert got == oracle.accumulate(terms, rows, cols)
    assert all(isinstance(c, Fraction) for row in got for c in row)


def plain(m):
    """m as a plain tuple of Fraction rows, which keeps no numerators."""
    return tuple(tuple(row) for row in m)


# How a chain step makes a new operand from the pool: each QMatrix
# constructor, applied to drawn entries or to pool members.
MAKERS = ("QMatrix", "zeros", "identity", "add", "sub", "scale", "submatrix",
          "transpose", "rref", "inverse", "coefficients", "constant_part",
          "split_order")


def make_operand(draw, how, n, pool):
    pick = lambda: draw(st.sampled_from(pool))
    if how == "QMatrix":
        return draw(const_matrices(n, n))
    if how == "zeros":
        return qlinalg.zeros(n, n)
    if how == "identity":
        return qlinalg.identity(n)
    if how in ("add", "sub"):
        return getattr(qlinalg, how)(pick(), pick())
    if how == "scale":
        return qlinalg.scale(pick(), draw(rationals))
    if how == "submatrix":
        big = draw(const_matrices(n + 1, n + 1))
        cut = draw(st.integers(0, n))
        keep = [i for i in range(n + 1) if i != cut]
        return qlinalg.submatrix(big, keep, keep)
    if how == "transpose":
        return qlinalg.transpose(pick())
    if how == "rref":
        r, _, t = qlinalg.rref(pick())
        return draw(st.sampled_from((r, t)))
    if how == "inverse":
        m = pick()
        return qlinalg.inverse(m) if qlinalg.rank(m) == n else qlinalg.identity(n)
    if how == "split_order":
        # One order of the splitting recursion with blocks [0, 1) and
        # [1, n), its Sylvester solves included; None when resonant.
        lead, offs = pick(), [(0, 1), (1, n)][:1 + (n > 1)]
        blocks0 = [qlinalg.submatrix(lead, range(a, b), range(a, b))
                   for a, b in offs]
        step = _split_order(pick(), offs, blocks0, draw(st.integers(0, 1)), {})
        return qlinalg.identity(n) if step is None else draw(st.sampled_from(step))
    mat = SeriesMatrix.from_coefficients(
        {(0, 0): pick(), (1, 0): pick(), (0, 1): pick()}, n, 3, 3)
    if how == "constant_part":
        return mat.constant_part()
    return draw(st.sampled_from(sorted(mat.coefficients().items())))[1]


@given(st.data())
def test_dot_over_a_chain_of_calls_matches_reference(data):
    # Every operand is a QMatrix from some constructor, reused across the
    # calls on either side; some results of dot join the pool.
    draw = data.draw
    n = draw(st.integers(1, 3))
    pool = [draw(const_matrices(n, n))]
    for _ in range(draw(st.integers(1, 6))):
        for how in draw(st.lists(st.sampled_from(MAKERS), max_size=3)):
            pool.append(make_operand(draw, how, n, pool))
        terms = draw(st.lists(st.tuples(st.sampled_from((1, -1, 2, -3)),
                                        st.sampled_from(pool),
                                        st.sampled_from(pool)), max_size=4))
        got = qlinalg.dot(terms, (n, n))
        want = oracle.accumulate(
            [(c, plain(a), plain(b)) for c, a, b in terms], n, n)
        assert got == want
        if terms:
            a, b = terms[0][1:]
            assert qlinalg.mul(b, a) == oracle.qmul(plain(b), plain(a))
        if draw(st.booleans()):
            pool.append(got)
    assert all(isinstance(m, qlinalg.QMatrix) for m in pool)


small_ints = st.integers(-2, 2).map(Fraction)


@st.composite
def sylvester_cases(draw):
    """a, b with small integer entries (often sharing an eigenvalue, so the
    operator is singular), or b the leading block of a block-triangular a,
    which always shares one."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    a = draw(const_matrices(n, n, small_ints))
    if m <= n and draw(st.booleans()):
        a = tuple(tuple(Fraction(0) if i >= m and j < m else v
                        for j, v in enumerate(row)) for i, row in enumerate(a))
        b = tuple(row[:m] for row in a[:m])
    else:
        b = draw(const_matrices(m, m, small_ints))
    cs = draw(st.lists(const_matrices(n, m), min_size=1, max_size=3))
    return a, b, cs


@given(sylvester_cases())
def test_sylvester_solver_matches_reference(case):
    a, b, cs = case
    solve = qlinalg.sylvester_solver(a, b)
    for c in cs:
        want = oracle.sylvester_solve(a, b, c)
        if solve is None:
            assert want is None
        else:
            assert solve(c) == want


def test_sylvester_solver_singular_operators():
    a = qlinalg.QMatrix([[1, 0], [0, 2]])
    for b in (qlinalg.QMatrix([[2]]), qlinalg.QMatrix([[1]]), a):
        assert qlinalg.sylvester_solver(a, b) is None
    b = qlinalg.QMatrix([[3]])
    c = qlinalg.QMatrix([[1], [2]])
    assert qlinalg.sylvester_solver(a, b)(c) == oracle.sylvester_solve(a, b, c)
