"""Differential tests: bivariate_splitting, run on an ODS (the system
that associated_ods returns, with a zero other side), against the
univariate order loop that the ODS splitting ran before it
(tests/oracle_ods.py).

The blocks must agree in size, poles, coefficients, exact flags, windows
and leading characteristic polynomials, and the gauges factor by factor,
inverses included; the other side of each block must stay zero.  An
input one side rejects, the other must reject with the same error.  Inputs are the splitting inputs of the other suites and
seeded ODS on both axes for n = 2..4, exact and truncated, poles 0..2.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracle_ods
from pfaffred import qlinalg
from pfaffred.errors import PfaffredError
from pfaffred.matrices import SeriesMatrix
from pfaffred.series import BiSeries
from pfaffred.solutions import bivariate_splitting

from conftest import ods_system, random_invertible_const


def same_matrix(got, want):
    assert (got.rows, got.cols) == (want.rows, want.cols)
    for a, b in zip(got.entries, want.entries):
        assert a.coeffs == b.coeffs
        assert a.exact == b.exact
        assert a.window == b.window


def same_split(ods, var="x"):
    try:
        want = oracle_ods.split_leading(ods, var)
    except PfaffredError as err:
        with pytest.raises(type(err)):
            bivariate_splitting(ods)
        return None
    gauge, blocks = bivariate_splitting(ods)
    want_gauge, want_blocks = want
    assert gauge.provenance == want_gauge.provenance
    for got_fs, want_fs in ((gauge.factors, want_gauge.factors),
                            (gauge.inverses, want_gauge.inverses)):
        for f, g in zip(got_fs, want_fs, strict=True):
            assert (f.px, f.py) == (g.px, g.py)
            same_matrix(f.series, g.series)
    assert len(blocks) == len(want_blocks)
    for b, w in zip(blocks, want_blocks):
        assert (b.n, b.p, b.q) == (w.n, w.p, w.q)
        main, other = (b.amat, b.bmat) if var == "x" else (b.bmat, b.amat)
        want_main = w.amat if var == "x" else w.bmat
        same_matrix(main, want_main)
        assert other.is_zero()
        assert (qlinalg.charpoly(main.constant_part())
                == qlinalg.charpoly(want_main.constant_part()))
    return blocks


def test_existing_split_inputs():
    rng = random.Random(7)
    a1 = [[Fraction(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)]
    distinct = ods_system("x", [[{0: 1, 1: a1[0][0]}, {1: a1[0][1]}],
                                [{1: a1[1][0]}, {0: 2, 1: a1[1][1]}]], 1)
    cmat = random_invertible_const(random.Random(11), 3)
    lead = qlinalg.mul(qlinalg.mul(cmat, qlinalg.QMatrix([[0, -1, 0], [1, 0, 0],
                                                       [0, 0, 1]])),
                       qlinalg.inverse(cmat))
    quadratic = ods_system("x", [[{0: lead[i][j], 1: Fraction((i + j) % 3 - 1)}
                                  for j in range(3)] for i in range(3)], 1)
    nilpotent = ods_system("x", [[{}, {0: 1}], [{}, {}]], 1)
    rng = random.Random(17)
    diag = [1, 2, 7]
    three = ods_system("x", [[{0: Fraction(diag[i]) if i == j else Fraction(0),
                              1: Fraction(rng.randint(-2, 2))} for j in range(3)]
                            for i in range(3)], 1)
    assert [b.n for b in same_split(distinct)] == [1, 1]
    assert sorted(b.n for b in same_split(quadratic)) == [1, 2]
    assert same_split(nilpotent) is None
    assert [b.n for b in same_split(three)] == [1, 1, 1]


rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2))


@st.composite
def splittable_ods(draw, var, n):
    """A seeded ODS whose leading matrix is C diag(J_1, ..., J_k) C^(-1)
    with at least two distinct eigenvalues (Jordan blocks allowed), plus
    random higher-order terms on its axis."""
    p = draw(st.integers(0, 2))
    t = draw(st.integers(2, 5))
    exact = draw(st.booleans())
    eigs = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)
                .filter(lambda e: len(set(e)) >= 2))
    eigs.sort()
    rng = random.Random(draw(st.integers(0, 10**6)))
    jordan = [[Fraction(eigs[i]) if i == j else
               Fraction(int(j == i + 1 and eigs[i] == eigs[j] and rng.random() < 0.5))
               for j in range(n)] for i in range(n)]
    c = random_invertible_const(rng, n)
    lead = qlinalg.mul(qlinalg.mul(c, qlinalg.QMatrix(jordan)), qlinalg.inverse(c))
    orders = draw(st.lists(st.integers(1, t), max_size=2 * n))
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            terms = {0: lead[i][j]}
            for k in orders:
                if rng.random() < 0.5:
                    terms[k] = terms.get(k, 0) + draw(rationals)
            row.append(BiSeries({(k, 0) if var == "x" else (0, k): v
                                 for k, v in terms.items()}, t, t, exact=exact))
        rows.append(row)
    return ods_system(var, SeriesMatrix.from_rows(rows), p)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("var", ["x", "y"])
def test_seeded_ods_split_matches_reference(var, n):
    @settings(max_examples=15)
    @given(splittable_ods(var, n))
    def check(ods):
        same_split(ods, var)

    check()
