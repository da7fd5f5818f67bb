import random
from fractions import Fraction

import pytest

from pfaffred.errors import DimensionMismatch, SingularMatrix
from pfaffred.matrices import (
    LaurentMatrix,
    SeriesMatrix,
    column_echelon,
    kernel_basis,
    series_rank,
)
from pfaffred.series import BiSeries

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


def test_det_examples():
    assert eye(3).det() == BiSeries.const(1, T, T)
    tri = SeriesMatrix.from_rows(
        [
            [poly_series({(0, 0): 1, (1, 0): 1}), poly_series({(0, 1): 1})],
            [BiSeries.zero(T, T), BiSeries.const(1, T, T)],
        ]
    )
    assert tri.det() == poly_series({(0, 0): 1, (1, 0): 1})
    # Leading matrix of the rank-one example: det vanishes identically.
    a0 = SeriesMatrix.from_rows(
        [
            [poly_series({(0, 1): 1}), poly_series({(0, 2): 1})],
            [BiSeries.const(-1, T, T), poly_series({(0, 1): -1})],
        ]
    )
    # Hand expansion: y*(-y) - y^2*(-1) = 0.
    assert a0.det().is_zero()


def test_invert_identity():
    inv = LaurentMatrix(eye()).inverse()
    assert inv.px == 0 and inv.py == 0
    assert inv.series == eye()


def test_invert_involution_example():
    c = poly_series({(0, 1): Fraction(1, 3), (3, 0): 2})
    t = SeriesMatrix.from_rows(
        [
            [BiSeries.const(1, T, T), BiSeries.zero(T, T)],
            [c, BiSeries.const(-1, T, T)],
        ]
    )
    inv = LaurentMatrix(t).inverse()
    assert inv.px == 0 and inv.py == 0
    assert inv.series == t  # involution


def test_invert_monomial_scaled_gauge():
    # T = [[y x^3, -y], [0, 1]]: inverse has the 2x2 adjugate form
    # y^-1 x^-3 [[1, y], [0, y x^3]].
    t = SeriesMatrix.from_rows(
        [
            [poly_series({(3, 1): 1}), poly_series({(0, 1): -1})],
            [BiSeries.zero(T, T), BiSeries.const(1, T, T)],
        ]
    )
    inv = LaurentMatrix(t).inverse()
    prod = LaurentMatrix(t) * inv
    prod = prod.normalize()
    assert prod.px == 0 and prod.py == 0
    assert prod.series == eye()
    # adjugate oracle
    assert (inv.px, inv.py) == (3, 1)
    assert inv.series.at(0, 0) == BiSeries.const(1, T, T)
    assert inv.series.at(0, 1) == poly_series({(0, 1): 1})
    assert inv.series.at(1, 0).is_zero()
    assert inv.series.at(1, 1) == poly_series({(3, 1): 1})


def test_invert_singular():
    s = SeriesMatrix.from_rows(
        [
            [poly_series({(0, 1): 1}), poly_series({(0, 1): 1})],
            [poly_series({(0, 1): 1}), poly_series({(0, 1): 1})],
        ]
    )
    with pytest.raises(SingularMatrix):
        LaurentMatrix(s).inverse()


def test_invert_random_unimodular_roundtrip():
    rng = random.Random(17)
    for _ in range(10):
        g = random_unimodular(rng)
        m = g.matrix()
        inv = m.inverse()
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
        v, red, rank, _ = column_echelon(m, "y")
        # v is unimodular: determinant is a unit.
        d = v.det()
        assert d.coeff(0, 0) != 0
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
    k = kernel_basis(a0, "y")
    assert k is not None and k.cols == 1
    prod = a0 * k
    assert all(e.is_zero() for e in prod.entries)
