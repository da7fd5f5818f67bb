"""The ODS functions, on an ODS as associated_ods returns it: a Pfaffian
system whose other side is an exact zero.  The ODS splitting, shift and
Moser reduction are the bivariate ones (bivariate_splitting,
bivariate_shift, rank_reduce) run on that system; the tests named after
the ODS functions those replaced keep their checks."""

import random
from fractions import Fraction

import pytest

from pfaffred.errors import (
    AlgebraicExtensionRequired,
    NotSplittable,
    PreconditionViolated,
)
from pfaffred.matrices import SeriesMatrix
from pfaffred.moser import rank_reduce
from pfaffred.ods import (
    associated_ods,
    exponential_parts_ods,
    first_kind_fundamental_ods,
    katz_invariant_ods,
    ramify_ods,
)
from pfaffred.series import BiSeries
from pfaffred.solutions import bivariate_shift, bivariate_splitting
from pfaffred.system import PfaffianSystem, apply_gauge
from pfaffred import qlinalg

from conftest import T, const_mat, ods_system, poly_series, random_unimodular


def airy_like():
    # x dY/dx = [[0, 1/x], [1, 0]] Y, i.e. x^-1 [[0, 1], [x, 0]].
    return ods_system("x", [[{}, {0: 1}], [{1: 1}, {}]], 1)


def identical(a, b):
    """Same shape, poles, and entries: coefficients, exact flags and
    windows."""
    assert (a.n, a.p, a.q) == (b.n, b.p, b.q)
    for m, w in ((a.amat, b.amat), (a.bmat, b.bmat)):
        assert [(e.coeffs, e.exact, e.window) for e in m.entries] == \
            [(e.coeffs, e.exact, e.window) for e in w.entries]


@pytest.mark.parametrize("axis", ["x", "y"])
def test_associated_ods_is_a_fixed_point(exm, exmnaive, axis):
    for sys_obj in (exm, exmnaive):
        ods = associated_ods(sys_obj, axis)
        identical(associated_ods(ods, axis), ods)
        main, other = ((ods.amat, ods.bmat) if axis == "x"
                       else (ods.bmat, ods.amat))
        assert (ods.q if axis == "x" else ods.p) == 0
        assert other.is_exact and other.is_zero()
        assert other.window == main.window
        # The other variable is frozen at 0 on the axis side.
        assert all(i == 0 if axis == "y" else j == 0
                   for e in main.entries for i, j in e.coeffs)


def test_associated_ods_displays(exm):
    ox = associated_ods(exm, "x")
    assert ox.p == 3
    assert ox.amat.at(0, 0) == poly_series({(2, 0): 1, (3, 0): 1})
    assert ox.amat.at(0, 1).is_zero()
    assert ox.amat.at(1, 0) == BiSeries.const(-1, T, T)
    assert ox.amat.at(1, 1) == poly_series({(2, 0): 1, (3, 0): 1})
    oy = associated_ods(exm, "y")
    assert oy.q == 2
    assert oy.bmat.at(0, 0) == poly_series({(0, 0): -6, (0, 1): -2, (0, 2): 1})
    assert oy.bmat.at(0, 1) == poly_series({(0, 3): 1})
    assert oy.bmat.at(1, 0) == poly_series({(0, 1): -2})
    assert oy.bmat.at(1, 1) == poly_series({(0, 0): -6, (0, 1): -2, (0, 2): -3})


def test_associated_ods_constant():
    sys_obj_mat = const_mat([[1, 2], [0, 1]])
    sys_obj = PfaffianSystem.make(2, 0, 0, sys_obj_mat,
                                  SeriesMatrix.zeros(2, 2, T, T))
    ods = associated_ods(sys_obj, "x")
    assert ods.amat == sys_obj_mat


def test_split_leading_distinct_eigenvalues():
    rng = random.Random(7)
    a1 = [[Fraction(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)]
    ods = ods_system("x", [
        [{0: 1, 1: a1[0][0]}, {1: a1[0][1]}],
        [{1: a1[1][0]}, {0: 2, 1: a1[1][1]}],
    ], 1)
    gauge, blocks = bivariate_splitting(ods)
    assert [b.n for b in blocks] == [1, 1]
    # Off-diagonal residual of the transformed system vanishes.
    res = apply_gauge(ods, gauge).to_system()
    assert res.amat.at(0, 1).is_zero()
    assert res.amat.at(1, 0).is_zero()


def test_split_leading_quadratic_factor_stays_rational():
    # Leading matrix with characteristic polynomial (t^2 + 1)(t - 1).
    a0 = [[0, -1, 0], [1, 0, 0], [0, 0, 1]]
    c = random.Random(11)
    conj = None
    from conftest import random_invertible_const

    cmat = random_invertible_const(c, 3)
    lead = qlinalg.mul(qlinalg.mul(cmat, qlinalg.QMatrix(a0)),
                       qlinalg.inverse(cmat)).fraction_rows()
    terms = [[{0: lead[i][j], 1: Fraction((i + j) % 3 - 1)} for j in range(3)]
             for i in range(3)]
    ods = ods_system("x", terms, 1)
    gauge, blocks = bivariate_splitting(ods)
    assert sorted(b.n for b in blocks) == [1, 2]
    # Characteristic polynomial factors multiply back exactly.
    cp_in = qlinalg.charpoly(ods.amat.constant_part())
    prod = [Fraction(1)]
    for b in blocks:
        cp_b = qlinalg.charpoly(b.amat.constant_part())
        new = [Fraction(0)] * (len(prod) + len(cp_b) - 1)
        for i, x in enumerate(prod):
            for j, y in enumerate(cp_b):
                new[i + j] += x * y
        prod = new
    assert prod == cp_in


def test_split_leading_nilpotent_rejected():
    ods = ods_system("x", [[{}, {0: 1}], [{}, {}]], 1)
    with pytest.raises(NotSplittable):
        bivariate_splitting(ods)


def test_eigenvalue_shift_paper_values(exm):
    # x side, after Moser reduction: leading becomes I at pole 1; the
    # shift by 1 contributes -1/x to the exponential integral.
    ox = associated_ods(exm, "x")
    _, red, _ = rank_reduce(ox)
    assert red.p == 1
    shift, shifted = bivariate_shift(red, gammas_x={1: 1})
    assert shift.x_terms == ((Fraction(1), Fraction(-1)),)
    assert (qlinalg.is_nilpotent(shifted.amat.constant_part())
            or shifted.p < red.p)
    # y side: shifts by -6 at order 2 and -2 at order 1 give 3/y^2 + 2/y.
    oy = associated_ods(exm, "y")
    shift1, s1 = bivariate_shift(oy, gammas_y={2: -6})
    assert shift1.y_terms == ((Fraction(2), Fraction(3)),)
    assert s1.q == 1
    shift2, s2 = bivariate_shift(s1, gammas_y={1: -2})
    assert shift2.y_terms == ((Fraction(1), Fraction(2)),)


def test_eigenvalue_shift_guards(exm):
    oy = associated_ods(exm, "y")
    shift, same = bivariate_shift(oy, gammas_y={2: 0})
    assert same is oy and shift.y_terms == ()
    with pytest.raises(PreconditionViolated):
        bivariate_shift(oy, gammas_y={2: 5})  # 5 is not the eigenvalue of -6 I
    # Pole 3 over a series part divisible by y: the leading matrix at pole
    # 3 is zero, so no gamma != 0 is its eigenvalue.
    with pytest.raises(PreconditionViolated):
        bivariate_shift(PfaffianSystem(2, 0, 3, oy.amat, oy.bmat.shift(0, 1)),
                        gammas_y={3: -6})


def test_moser_reduce_ods(exm):
    ox = associated_ods(exm, "x")
    _, red, _ = rank_reduce(ox)
    assert red.p == 1  # true rank fixed by the exponential part -1/x
    airy = airy_like()
    _, red2, _ = rank_reduce(airy)
    assert red2.same_up_to_window(airy)
    flat = ods_system("x", [[{0: 3}]], 0)
    _, red3, _ = rank_reduce(flat)
    assert red3.p == 0


def newton_polygon_slope_oracle(char_points):
    """Independent max-slope computation on (degree, valuation) points."""
    pts = sorted(char_points)
    best = Fraction(0)
    for i, (x1, y1) in enumerate(pts):
        for x2, y2 in pts[i + 1 :]:
            slope = Fraction(y2 - y1, x2 - x1)
            # Lower-hull edge: no point strictly below the segment.
            below = any(
                y3 < y1 + slope * (x3 - x1)
                for x3, y3 in pts
                if x1 < x3 < x2
            )
            if not below and slope > best:
                best = slope
    return best


def test_katz_airy_half():
    airy = airy_like()
    k = katz_invariant_ods(airy, "x")
    assert k == Fraction(1, 2)
    # Oracle: char poly lambda^2 - 1/x has points (0,-1), (2,0).
    assert newton_polygon_slope_oracle([(0, -1), (2, 0)]) == Fraction(1, 2)


def test_katz_regular_and_exm(exm):
    flat = ods_system("x", [[{0: 3, 1: 1}]], 0)
    assert katz_invariant_ods(flat, "x") == 0
    ox = associated_ods(exm, "x")
    _, red, _ = rank_reduce(ox)
    assert katz_invariant_ods(red, "x") == 1


def test_katz_precondition(exm):
    # The x-ODS of exm is Moser-reducible as given.
    with pytest.raises(PreconditionViolated):
        katz_invariant_ods(exm, "x")


def test_ramify():
    c = ods_system("x", [[{0: 5}]], 1)
    assert ramify_ods(c, "x", 1).same_up_to_window(c)
    r2 = ramify_ods(c, "x", 2)
    assert r2.p == 2
    assert r2.amat.at(0, 0) == BiSeries.const(10, T, T)  # m * C
    airy2 = ramify_ods(airy_like(), "x", 2)
    assert airy2.p == 2
    # After reduction the polygon has integer slope kappa * m = 1.
    _, red, _ = rank_reduce(airy2)
    assert katz_invariant_ods(red, "x") == 1


def test_exponential_parts_paper(exm):
    parts = exponential_parts_ods(exm, "x")
    assert len(parts) == 1
    assert parts[0].multiplicity == 2
    assert parts[0].ramification == 1
    assert dict(parts[0].q_terms) == {Fraction(1): Fraction(-1)}
    parts_y = exponential_parts_ods(exm, "y")
    assert len(parts_y) == 1
    assert parts_y[0].multiplicity == 2
    assert dict(parts_y[0].q_terms) == {Fraction(1): Fraction(2),
                                        Fraction(2): Fraction(3)}


def test_exponential_parts_regular():
    flat = ods_system("x", [[{0: 1, 1: 2}, {1: 1}], [{}, {0: -1}]], 0)
    parts = exponential_parts_ods(flat, "x")
    assert all(p.is_zero() for p in parts)
    assert sum(p.multiplicity for p in parts) == 2


def test_exponential_parts_airy_ramified():
    parts = exponential_parts_ods(airy_like(), "x")
    assert sorted(p.ramification for p in parts) == [2, 2]
    terms = sorted(dict(p.q_terms)[Fraction(1, 2)] for p in parts)
    assert terms == [Fraction(-2), Fraction(2)]
    for p in parts:
        assert p.katz() == Fraction(1, 2)


def test_exponential_parts_irrational_blocked():
    # lambda^2 - 2 requires sqrt(2) for the shift.
    ods = ods_system("x", [[{}, {0: 1}], [{0: 2}, {}]], 1)
    with pytest.raises(AlgebraicExtensionRequired):
        exponential_parts_ods(ods, "x")


def test_exponential_parts_gauge_invariance(exm):
    rng = random.Random(13)
    ox = associated_ods(exm, "x")
    base = [(p.q_terms, p.multiplicity) for p in exponential_parts_ods(ox, "x")]
    for _ in range(5):
        g = random_unimodular(rng, vars_=("x",))
        moved = apply_gauge(ox, g).to_system()
        got = [(p.q_terms, p.multiplicity)
               for p in exponential_parts_ods(moved, "x")]
        assert sorted(got) == sorted(base)


def first_kind_residual(ods, sol):
    """delta(Phi) - A Phi + Phi (Lambda + retained) for an x-ODS: zero if
    correct."""
    tx, ty = ods.amat.window
    lam = SeriesMatrix.from_rational_rows(sol.exponent, tx, ty)
    for k, mat in sol.retained:
        mono = BiSeries.monomial(1, k, 0, tx, ty)
        lam = lam + SeriesMatrix.from_rational_rows(mat, tx, ty) * mono
    phi = sol.phi
    res = phi.delta("x") - ods.amat * phi + phi * lam
    return all(e.is_zero() for e in res.entries)


def test_first_kind_constant_diag():
    ods = ods_system("x", [[{0: -2}, {}], [{}, {0: 1}]], 0)
    sol = first_kind_fundamental_ods(ods, "x")
    assert sol.phi == SeriesMatrix.identity(2, T, T)
    assert sol.exponent == qlinalg.QMatrix(((Fraction(-2), Fraction(0)),
                                            (Fraction(0), Fraction(1))))
    assert not sol.retained


def test_first_kind_nonresonant_sylvester():
    # Eigenvalue difference 1/2 is never an integer: all orders solvable.
    ods = ods_system("x", [[{0: Fraction(1, 2)}, {1: 1}], [{1: -2}, {0: 0}]], 0)
    sol = first_kind_fundamental_ods(ods, "x")
    assert not sol.retained
    assert first_kind_residual(ods, sol)


def test_first_kind_scalar_exponential_series():
    # a(x) = c + x: Phi solves delta(Phi) = x Phi, so Phi = exp(x) as a
    # series; oracle by termwise integration: coefficient 1/k!.
    c = Fraction(5)
    ods = ods_system("x", [[{0: c, 1: 1}]], 0)
    sol = first_kind_fundamental_ods(ods, "x")
    assert sol.exponent == qlinalg.QMatrix([[c]])
    fact = 1
    for k in range(1, T):
        fact *= k
        assert sol.phi.at(0, 0).coeff(k, 0) == Fraction(1, fact)
    assert first_kind_residual(ods, sol)


def test_first_kind_resonant_retained():
    # Eigenvalues 0 and 1 differ by 1: the order-1 coupling is retained.
    ods = ods_system("x", [[{0: 0}, {}], [{1: 1}, {0: 1}]], 0)
    sol = first_kind_fundamental_ods(ods, "x")
    assert sol.retained
    assert first_kind_residual(ods, sol)


def sqrt2_entries():
    """Lambda0 = [[0, 2], [1, 0]] (eigenvalues +-sqrt(2)) with higher
    terms in x, as ods_system rows."""
    return [[{0: 0, 1: 1, 2: -1}, {0: 2, 2: 1}],
            [{0: 1, 1: Fraction(1, 3)}, {1: -1}]]


def test_first_kind_irrational_eigenvalues_solve():
    # +-sqrt(2) differ by no integer: no order is resonant, and without a
    # rational eigenbasis every order is a Sylvester solve.
    ods = ods_system("x", sqrt2_entries(), 0)
    sol = first_kind_fundamental_ods(ods, "x")
    assert sol.exponent == qlinalg.QMatrix([[0, 2], [1, 0]])
    assert not sol.retained
    assert first_kind_residual(ods, sol)


def test_first_kind_irrational_resonance_raises_at_order_one():
    # [[0, 2], [1, 0]] + [[1, 2], [1, 1]]: eigenvalues +-sqrt(2) and
    # 1 +- sqrt(2), whose differences 1 make order 1 resonant, which only
    # a rational eigenbasis could split.
    block = [[{0: 1, 1: 1}, {0: 2}], [{0: 1}, {0: 1, 2: 1}]]
    rows = [row + [{}, {}] for row in sqrt2_entries()]
    rows += [[{}, {}] + row for row in block]
    first_kind_fundamental_ods(ods_system("x", rows, 0, t=1), "x")
    with pytest.raises(AlgebraicExtensionRequired):
        first_kind_fundamental_ods(ods_system("x", rows, 0, t=2), "x")


def test_first_kind_rational_eigenvalues_build_no_sylvester_solver(monkeypatch):
    # Eigenvalues 1/2 and 0: every order is a triangular solve.
    def refuse(a, b):
        raise AssertionError("sylvester_solver called")

    monkeypatch.setattr(qlinalg, "sylvester_solver", refuse)
    for rows in ([[{0: Fraction(1, 2)}, {1: 1}], [{1: -2}, {0: 0}]],
                 [[{0: 0}, {}], [{1: 1}, {0: 1}]]):
        ods = ods_system("x", rows, 0)
        assert first_kind_residual(ods, first_kind_fundamental_ods(ods, "x"))


def test_first_kind_guard():
    with pytest.raises(PreconditionViolated):
        first_kind_fundamental_ods(airy_like(), "x")


def test_split_blocks_recombine_multiplicities():
    # 3x3 with distinct constants on the diagonal: three scalar parts.
    rng = random.Random(17)
    diag = [1, 2, 7]
    terms = [
        [
            {0: Fraction(diag[i]) if i == j else Fraction(0),
             1: Fraction(rng.randint(-2, 2))}
            for j in range(3)
        ]
        for i in range(3)
    ]
    ods = ods_system("x", terms, 1)
    parts = exponential_parts_ods(ods, "x")
    assert sum(p.multiplicity for p in parts) == 3
    ks = sorted(dict(p.q_terms).get(Fraction(1), Fraction(0)) for p in parts)
    assert ks == [Fraction(-7), Fraction(-2), Fraction(-1)]
