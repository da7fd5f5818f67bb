import random
from fractions import Fraction

import pytest

from pfaffred.errors import (
    DimensionMismatch,
    PreconditionViolated,
    TruncationExhausted,
)
from pfaffred.matrices import (
    LaurentMatrix,
    SeriesMatrix,
    column_echelon,
    series_rank,
)
from pfaffred.series import BiSeries, dot
from pfaffred.system import GaugeTransform

import oracle_cofactor
from conftest import T, poly_series, random_unimodular


def eye(n=2):
    return SeriesMatrix.identity(n, T, T)


def test_mat_mul_identities():
    a = SeriesMatrix.from_rows(
        [
            [poly_series({(0, 0): 1, (1, 0): 2}), poly_series({(0, 1): 3})],
            [poly_series({(2, 1): -1}), poly_series({(0, 0): 5})],
        ]
    )
    assert a * eye() == a
    assert eye() * a == a


def test_mat_mul_dimension_mismatch():
    a = SeriesMatrix.zeros(2, 3, T, T)
    with pytest.raises(DimensionMismatch):
        a * a


def test_involution_square_is_identity():
    # [[1,0],[c,-1]]^2 = I for any series c.
    rng = random.Random(3)
    for _ in range(5):
        c = poly_series(
            {
                (rng.randint(0, 3), rng.randint(0, 3)): Fraction(
                    rng.randint(-4, 4), rng.randint(1, 3)
                )
                for _ in range(3)
            }
        )
        t = SeriesMatrix.from_rows(
            [
                [BiSeries.const(1, T, T), BiSeries.zero(T, T)],
                [c, BiSeries.const(-1, T, T)],
            ]
        )
        assert t * t == eye()


def test_kernel_eliminates_window_zero_entries():
    # c is zero only on its window (3, 3): the kernel of [1, c] is
    # [-c, 1], whose first entry is known on that window, not exactly.
    c = BiSeries({}, 3, 3)
    m = SeriesMatrix.from_rows([[BiSeries.const(1, T, T), c]])
    v, _, rank, _ = column_echelon(m, "y")
    assert rank == 1
    top, bottom = v.at(0, 1), v.at(1, 1)
    assert top.is_zero() and not top.exact and top.window == (3, 3)
    assert bottom.exact and bottom == BiSeries.const(1, T, T)


# A gauge factor from outside the library brings its inverse, and
# GaugeTransform.of_series checks F F^(-1) = I on the product's window.


def external(t, inverse):
    return GaugeTransform.of_series(t, "external", inverse)


def test_invert_identity():
    for g in (external(eye(), LaurentMatrix(eye())),
              GaugeTransform.identity(2, T, T)):
        [inv] = g.inverses
        assert inv.px == 0 and inv.py == 0
        assert inv.series == eye()


def involution():
    c = poly_series({(0, 1): Fraction(1, 3), (3, 0): 2})
    return SeriesMatrix.from_rows(
        [
            [BiSeries.const(1, T, T), BiSeries.zero(T, T)],
            [c, BiSeries.const(-1, T, T)],
        ]
    )


def test_invert_involution_example():
    t = involution()
    [inv] = external(t, LaurentMatrix(t)).inverses
    assert inv.px == 0 and inv.py == 0
    assert inv.series == t  # involution


def test_laurent_matrices_compare_by_value():
    t = involution()
    assert external(t, LaurentMatrix(t)).inverses == (LaurentMatrix(t),)
    assert external(t, LaurentMatrix(t)) == external(t, LaurentMatrix(t))
    # The same value under other poles: x^-1 (x T) = T; x^-1 T differs.
    assert LaurentMatrix(t.shift(1, 0), 1, 0) == LaurentMatrix(t)
    assert LaurentMatrix(t, 1, 0) != LaurentMatrix(t)
    with pytest.raises(TypeError):
        hash(LaurentMatrix(t))


def monomial_scaled():
    # T = [[y x^3, -y], [0, 1]] and its inverse in the 2x2 adjugate form
    # y^-1 x^-3 [[1, y], [0, y x^3]].
    t = SeriesMatrix.from_rows(
        [
            [poly_series({(3, 1): 1}), poly_series({(0, 1): -1})],
            [BiSeries.zero(T, T), BiSeries.const(1, T, T)],
        ]
    )
    inv = SeriesMatrix.from_rows(
        [
            [BiSeries.const(1, T, T), poly_series({(0, 1): 1})],
            [BiSeries.zero(T, T), poly_series({(3, 1): 1})],
        ]
    )
    return t, LaurentMatrix(inv, 3, 1)


def test_invert_monomial_scaled_gauge():
    t, inv = monomial_scaled()
    assert external(t, inv).inverses[0] is inv
    prod = (LaurentMatrix(t) * inv).normalize()
    assert prod.px == 0 and prod.py == 0
    assert prod.series == eye()
    # The same factor cut to a window that holds the product's (0, 0)
    # coefficient, x^3 y^1 of its series, is checked there.
    cut = LaurentMatrix(inv.series.truncated(5, 3), 3, 1)
    assert external(t.truncated(5, 3), cut).inverses[0] is cut


def test_invert_singular():
    s = SeriesMatrix.from_rows(
        [
            [poly_series({(0, 1): 1}), poly_series({(0, 1): 1})],
            [poly_series({(0, 1): 1}), poly_series({(0, 1): 1})],
        ]
    )
    # No inverse exists, so every claimed one is rejected.
    for claimed in (LaurentMatrix(eye()), LaurentMatrix(s, 1, 0),
                    LaurentMatrix(eye(), 1, 1)):
        with pytest.raises(PreconditionViolated):
            external(s, claimed)


def test_of_series_rejects_a_wrong_inverse():
    t, inv = monomial_scaled()
    for wrong in (LaurentMatrix(inv.series, 3, 0), LaurentMatrix(t),
                  LaurentMatrix(inv.series.scale(2), 3, 1)):
        with pytest.raises(PreconditionViolated):
            external(t, wrong)
    # A wrong entry outside the product's window is not seen.
    off = inv.series.at(0, 1) + poly_series({(0, 4): 1})
    rows = inv.series.to_rows()
    rows[0][1] = off
    far = LaurentMatrix(SeriesMatrix.from_rows(rows).truncated(5, 3), 3, 1)
    external(t.truncated(5, 3), far)
    with pytest.raises(PreconditionViolated):
        external(t, LaurentMatrix(SeriesMatrix.from_rows(rows), 3, 1))


def test_of_series_never_passes_on_an_empty_window():
    # The product's series is zero on its window, and the window stops
    # before the x^3 y coefficient that I needs there: the check raises
    # instead of passing.
    t, inv = monomial_scaled()
    for window in ((3, 8), (8, 1), (2, 1)):
        with pytest.raises(TruncationExhausted):
            external(t.truncated(*window), inv)
    with pytest.raises(TruncationExhausted):
        external(eye().truncated(0, 4), LaurentMatrix(eye()))


def test_of_series_rejects_a_non_square_factor():
    with pytest.raises(DimensionMismatch):
        external(SeriesMatrix.zeros(2, 3, T, T),
                 LaurentMatrix(SeriesMatrix.zeros(3, 2, T, T)))


def test_invert_random_unimodular_roundtrip():
    # The inverses a random gauge carries multiply with it to I, both
    # ways, factor by factor and composed.
    rng = random.Random(17)
    for _ in range(10):
        g = random_unimodular(rng)
        m, inv = g.matrix(), g.inverse().matrix()
        prod = (m * inv).normalize()
        assert prod.px == 0 and prod.py == 0
        assert prod.series == eye()
        prod2 = (inv * m).normalize()
        assert prod2.series == eye()


def test_series_rank_varying_kernel():
    # [[y, y^2], [-1, -y]] has rank 1 over the series field in y.
    a0 = SeriesMatrix.from_rows(
        [
            [poly_series({(0, 1): 1}), poly_series({(0, 2): 1})],
            [BiSeries.const(-1, T, T), poly_series({(0, 1): -1})],
        ]
    )
    assert series_rank(a0, "y") == 1
    assert series_rank(eye(), "y") == 2
    assert series_rank(SeriesMatrix.zeros(2, 2, T, T), "y") == 0


def test_empty_blocks_have_rank_zero():
    # The arrangement's empty blocks are 0-row or 0-column matrices.
    for m in (SeriesMatrix.zeros(0, 2, T, T), SeriesMatrix.zeros(2, 0, T, T)):
        assert m.window == (0, 0)
        assert series_rank(m, "y") == 0
        v, red, rank, v_inv = column_echelon(m, "y")
        assert rank == 0 and red == m
        assert (v.rows, v.cols) == (v_inv.rows, v_inv.cols) == (m.cols, m.cols)


def test_empty_inner_dimension_is_an_exact_zero():
    # An r x 0 times a 0 x c matrix is the r x c exact zero, at nominal
    # orders (0, 0), the largest over no operands.
    got = SeriesMatrix(2, 0, []) * SeriesMatrix(0, 3, [])
    assert (got.rows, got.cols) == (2, 3)
    assert all(e.exact and e.is_zero() and e.window == (0, 0)
               for e in got.entries)
    assert dot([]).exact and dot([]).is_zero()


def test_added_matrices_have_the_shape_of_the_sum():
    # SeriesMatrix.dot adds a term (c, m) entry by entry: m has the shape
    # of the products, and the sum equals the product plus m.
    a = SeriesMatrix.from_rows([[poly_series({(1, 0): 1}), poly_series({})]])
    b = SeriesMatrix.from_rows([[poly_series({(0, 1): 2})],
                                [poly_series({(0, 0): 3})]])
    m = SeriesMatrix.from_rows([[poly_series({(0, 0): 5})]])
    assert SeriesMatrix.dot([(1, a, b), (-1, m)]) == a * b - m
    with pytest.raises(DimensionMismatch):
        SeriesMatrix.dot([(1, a, b), (1, a)])


def test_column_echelon_unimodular_and_reduced():
    rng = random.Random(5)
    for _ in range(8):
        rows = []
        for i in range(3):
            row = []
            for j in range(3):
                terms = {}
                if rng.random() < 0.7:
                    terms[(0, rng.randint(0, 2))] = Fraction(rng.randint(-3, 3))
                row.append(BiSeries(terms, T, T, exact=True))
            rows.append(row)
        m = SeriesMatrix.from_rows(rows)
        v, red, rank, v_inv = column_echelon(m, "y")
        # v is unimodular: its determinant is a unit, and v_inv inverts it.
        assert oracle_cofactor.det(v).coeff(0, 0) != 0
        assert v * v_inv == eye(3) and v_inv * v == eye(3)
        assert m * v == red
        for j in range(rank, 3):
            assert all(red.at(i, j).is_zero() for i in range(3))


def test_kernel_basis_annihilates():
    a0 = SeriesMatrix.from_rows(
        [
            [poly_series({(0, 1): 1}), poly_series({(0, 2): 1})],
            [BiSeries.const(-1, T, T), poly_series({(0, 1): -1})],
        ]
    )
    v, _, rank, _ = column_echelon(a0, "y")
    assert rank == 1
    k = v.submatrix([0, 1], [1])
    prod = a0 * k
    assert all(e.is_zero() for e in prod.entries)
