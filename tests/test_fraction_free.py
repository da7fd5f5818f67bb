"""The fraction-free constant solves against the Fraction bodies they
replaced (tests/oracle_qlinalg.py), field for field.

qlinalg's elimination (rref, rank, kernel, inverse, and through them
sylvester_solver) runs Bareiss's one-step fraction-free elimination on a
QMatrix's integer rows, and qlinalg.triangular_solve solves on the
equations' integer numerators.  Both must give the same values as the
Fraction bodies, as canonical QMatrix fields, on singular,
rank-deficient, zero, 1 x k and k x 1 inputs and on triangular equations
whose shifts are eigenvalue differences, so that entries are kept; both
build no Fraction.
Non-square operands of inverse and sylvester_solver are refused.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import oracle_kernels
import oracle_qlinalg as oracle
from conftest import count_fractions, random_integrable_system
from pfaffred import qlinalg
from pfaffred.errors import DimensionMismatch, SingularMatrix
from pfaffred.qlinalg import QMatrix
from pfaffred.solutions import formal_fundamental
from pfaffred.system import PfaffianSystem

rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
sizes = st.integers(1, 4)


@st.composite
def matrices(draw, rows=None, cols=None):
    """A rows x cols QMatrix: general, zero, or a product through an inner
    size below both sides (1 when a side is 1), so often singular."""
    rows = draw(sizes) if rows is None else rows
    cols = draw(sizes) if cols is None else cols
    kind = draw(st.sampled_from(("general", "zero", "low rank")))
    if kind == "zero":
        return qlinalg.zeros(rows, cols)
    if kind == "general":
        return draw(st.lists(st.lists(rationals, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows).map(QMatrix))
    inner = draw(st.integers(0, min(rows, cols) - 1)) or 1
    left = draw(matrices(rows, inner))
    return qlinalg.mul(left, draw(matrices(inner, cols)))


# Shapes of the 1 x k and k x 1 cases, and of squares.
shaped = st.one_of(
    sizes.flatmap(lambda k: matrices(1, k)),
    sizes.flatmap(lambda k: matrices(k, 1)),
    sizes.flatmap(lambda n: matrices(n, n)),
    matrices(),
)


def fields(m):
    return m.num, m.den


@given(shaped)
def test_elimination_matches_the_fraction_rref(a):
    r, pivots, t = qlinalg.rref(a)
    want_r, want_pivots, want_t = oracle.rref(a)
    assert pivots == want_pivots
    assert fields(r) == fields(want_r)
    assert fields(t) == fields(want_t)
    assert qlinalg.rank(a) == len(want_pivots)
    basis = oracle.kernel(a)
    ker = qlinalg.kernel(a)
    assert len(ker) == len(basis)
    if basis:
        assert fields(ker) == fields(QMatrix(basis))
    if len(a) == len(a.num[0]):
        if len(want_pivots) == len(a):
            assert fields(qlinalg.inverse(a)) == fields(want_t)
        else:
            with pytest.raises(SingularMatrix):
                qlinalg.inverse(a)


@given(st.tuples(sizes, sizes).flatmap(lambda nm: st.tuples(
    matrices(nm[0], nm[0]), matrices(nm[1], nm[1]),
    st.lists(matrices(*nm), min_size=1, max_size=2))))
def test_sylvester_solver_matches_the_fraction_solve(case):
    a, b, cs = case
    solve = qlinalg.sylvester_solver(a, b)
    for c in cs:
        want = oracle_kernels.sylvester_solve(a, b, c)
        if solve is None:
            assert want is None
        else:
            assert fields(solve(c)) == fields(want)


def test_non_square_operands_are_refused():
    for a in ([[1, 0, 0], [0, 2, 0]], [[1, 0], [0, 2], [0, 0]]):
        with pytest.raises(DimensionMismatch):
            qlinalg.inverse(a)
    with pytest.raises(DimensionMismatch):
        qlinalg.sylvester_solver([[1, 0, 5], [0, 2, 7]], [[3]])
    with pytest.raises(DimensionMismatch):
        qlinalg.sylvester_solver([[3]], [[1, 0, 5], [0, 2, 7]])
    with pytest.raises(SingularMatrix):
        qlinalg.inverse([[1, 2], [2, 4]])


@st.composite
def triangular_equations(draw):
    """One or two equations (L, shift, R) of a common size n, L upper
    triangular with eigenvalues c + integer, so that their differences are
    integers, and each shift such a difference (or 0)."""
    n = draw(st.integers(1, 4))
    equations = []
    for _ in range(draw(st.integers(1, 2))):
        base = draw(rationals)
        diag = [base + draw(st.integers(-2, 2)) for _ in range(n)]
        lam = QMatrix([[diag[i] if i == j else draw(rationals) if j > i else 0
                        for j in range(n)] for i in range(n)])
        shift = draw(st.sampled_from(sorted({int(x - y) for x in diag
                                             for y in diag} | {0})))
        equations.append((lam, shift, draw(matrices(n, n))))
    return equations, n


def kept_matrices(kept, count, n):
    """The oracle's kept values as one QMatrix per equation."""
    return tuple(QMatrix([[kept[(k, l)][e] if (k, l) in kept else 0
                           for l in range(n)] for k in range(n)])
                 for e in range(count))


def kept_positions(ks, n):
    """The entries that K keeps, in elimination order."""
    return [(k, l) for k in range(n - 1, -1, -1) for l in range(n)
            if any(m.num[k][l] for m in ks)]


@given(triangular_equations())
def test_triangular_solve_matches_the_fraction_solve(case):
    equations, n = case
    x, ks = qlinalg.triangular_solve(equations, n)
    want_x, want_kept = oracle.triangular_solve(equations, n)
    assert fields(x) == fields(want_x)
    if not want_kept:
        assert ks is None
        return
    assert [fields(m) for m in ks] == [
        fields(m) for m in kept_matrices(want_kept, len(equations), n)]
    assert kept_positions(ks, n) == list(want_kept)


def test_triangular_solve_keeps_resonant_entries():
    # L = diag(1, 0) with shift 1: entry (0, 1) has coefficient 0 in the
    # first equation, and the second equation has coefficient 0 there too.
    lam = QMatrix([[1, Fraction(1, 2)], [0, 0]])
    r = QMatrix([[Fraction(1, 3), 2], [-1, Fraction(5, 7)]])
    equations = [(lam, 1, r), (lam, 1, qlinalg.scale(r, 2))]
    x, ks = qlinalg.triangular_solve(equations, 2)
    want_x, want_kept = oracle.triangular_solve(equations, 2)
    assert list(want_kept) == [(0, 1)]
    assert fields(x) == fields(want_x)
    assert [fields(m) for m in ks] == [
        fields(m) for m in kept_matrices(want_kept, 2, 2)]


@given(shaped, triangular_equations())
def test_constant_solves_build_no_fraction(a, case):
    equations, n = case
    with pytest.MonkeyPatch.context() as mp:
        built = count_fractions(mp)
        qlinalg.rref(a)
        qlinalg.rank(a)
        qlinalg.kernel(a)
        if len(a) == len(a.num[0]):
            if qlinalg.rank(a) == len(a):
                qlinalg.inverse(a)
            qlinalg.sylvester_solver(a, equations[0][0])
        qlinalg.triangular_solve(equations, n)
    assert built == []


def test_formal_fundamental_n6_builds_few_fractions(monkeypatch):
    # n = 6 cut to (8, 8): 5 837 Fractions when elimination and the
    # triangular solves ran on Fraction entries.
    s = random_integrable_system(random.Random(0), 6, p=1, q=1)
    cut = PfaffianSystem.make(6, s.p, s.q, s.amat.truncated(8, 8),
                              s.bmat.truncated(8, 8), strict=False)
    built = count_fractions(monkeypatch)
    data = formal_fundamental(cut)
    monkeypatch.undo()
    assert data.complete()
    assert len(built) < 400
