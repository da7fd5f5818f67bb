import dataclasses
import random
from fractions import Fraction

import pytest

from pfaffred.errors import (
    JointResonance,
    NotSplittable,
    PreconditionViolated,
    TruncationExhausted,
)
from pfaffred.matrices import LaurentMatrix, SeriesMatrix
from pfaffred.series import BiSeries
from pfaffred.solutions import (
    bivariate_shift,
    bivariate_splitting,
    exponential_parts,
    formal_fundamental,
    katz_pair,
    regular_fundamental,
    true_poincare_rank,
    verify_solution,
)
from pfaffred.system import (
    GaugeTransform,
    PfaffianSystem,
    apply_gauge,
    check_integrability,
)

from conftest import (
    T,
    const_mat,
    poly_series,
    random_invertible_const,
    random_unimodular,
)


def u_system():
    """The hand-checked normal form of the rank-one example: x side
    [[-2, 0], [-y, 1]], y side [[-2, 0], [-2x^3, -1]]."""
    a = SeriesMatrix.from_rows(
        [
            [BiSeries.const(-2, T, T), BiSeries.zero(T, T)],
            [poly_series({(0, 1): -1}), BiSeries.const(1, T, T)],
        ]
    )
    b = SeriesMatrix.from_rows(
        [
            [BiSeries.const(-2, T, T), BiSeries.zero(T, T)],
            [poly_series({(3, 0): -2}), BiSeries.const(-1, T, T)],
        ]
    )
    return PfaffianSystem.make(2, 0, 0, a, b)


def scalar_1x1(a_terms, b_terms, p=0, q=0):
    amat = SeriesMatrix.from_rows([[poly_series(a_terms)]])
    bmat = SeriesMatrix.from_rows([[poly_series(b_terms)]])
    return PfaffianSystem.make(1, p, q, amat, bmat, strict=False)


def test_exponential_parts_paper(exm, exmnaive):
    px, py = exponential_parts(exm)
    assert len(px) == 1 and px[0].multiplicity == 2
    assert dict(px[0].q_terms) == {Fraction(1): Fraction(-1)}
    assert len(py) == 1 and py[0].multiplicity == 2
    assert dict(py[0].q_terms) == {Fraction(1): Fraction(2),
                                   Fraction(2): Fraction(3)}
    nx, ny = exponential_parts(exmnaive)
    assert all(p.is_zero() for p in nx)
    assert all(p.is_zero() for p in ny)


def test_exponential_parts_regular_trivial():
    sys_obj = scalar_1x1({(0, 0): 2}, {(0, 0): -1})
    px, py = exponential_parts(sys_obj)
    assert all(p.is_zero() for p in px) and all(p.is_zero() for p in py)


def test_katz_pair(exm, exmnaive):
    assert katz_pair(exm) == (Fraction(1), Fraction(2))
    assert katz_pair(exmnaive) == (Fraction(0), Fraction(0))
    trivial = scalar_1x1({}, {})
    assert katz_pair(trivial) == (Fraction(0), Fraction(0))


def test_true_poincare_rank(exm, exmnaive):
    assert true_poincare_rank(exmnaive) == (0, 0)
    assert true_poincare_rank(exm) == (1, 2)
    trivial = scalar_1x1({(0, 0): 1}, {(0, 0): 1})
    assert true_poincare_rank(trivial) == (0, 0)


def splittable_system():
    """Leading constants diag(1, 2) and diag(3, 3) with polynomial tails,
    built integrable by construction (diagonal plus a compatible gauge)."""
    a = SeriesMatrix.from_rows(
        [
            [poly_series({(0, 0): 1, (1, 0): 2}), BiSeries.zero(T, T)],
            [BiSeries.zero(T, T), poly_series({(0, 0): 2, (1, 0): -1})],
        ]
    )
    b = SeriesMatrix.from_rows(
        [
            [poly_series({(0, 0): 3, (0, 1): 1}), BiSeries.zero(T, T)],
            [BiSeries.zero(T, T), poly_series({(0, 0): 3, (0, 2): 1})],
        ]
    )
    return PfaffianSystem.make(2, 1, 1, a, b)


def test_bivariate_splitting_diagonalizes():
    rng = random.Random(3)
    base = splittable_system()
    g = random_unimodular(rng)
    sys_obj = apply_gauge(base, g).to_system()
    assert check_integrability(sys_obj)[0]
    gauge, blocks = bivariate_splitting(sys_obj)
    assert [b.n for b in blocks] == [1, 1]
    res = apply_gauge(sys_obj, gauge).to_system()
    for mat in (res.amat, res.bmat):
        assert mat.at(0, 1).is_zero()
        assert mat.at(1, 0).is_zero()
    # Leading constant pair is preserved blockwise.
    assert {res.amat.constant_part()[i][i] for i in range(2)} == {1, 2}


def test_bivariate_splitting_nilpotent_rejected():
    a = const_mat([[0, 1], [0, 0]])
    sys_obj = PfaffianSystem.make(2, 1, 0, a, SeriesMatrix.zeros(2, 2, T, T),
                                  strict=False)
    with pytest.raises(NotSplittable):
        bivariate_splitting(sys_obj)


def test_bivariate_splitting_already_diagonal():
    sys_obj = splittable_system()
    gauge, blocks = bivariate_splitting(sys_obj)
    m = gauge.matrix()
    # No series corrections are needed: the gauge reduces to a constant
    # permutation-like conjugation (zero couplings stay zero).
    assert (m.px, m.py) == (0, 0)
    const = m.series.constant_part()
    for i in range(2):
        for j in range(2):
            assert m.series.at(i, j) == BiSeries.const(const[i][j], T, T)
    res = apply_gauge(sys_obj, gauge).to_system()
    assert res.amat.at(0, 1).is_zero() and res.amat.at(1, 0).is_zero()
    assert res.bmat.at(0, 1).is_zero() and res.bmat.at(1, 0).is_zero()


def test_bivariate_shift_paper(exm, exmnaive):
    shift, shifted = bivariate_shift(exm, gammas_x={1: 1},
                                     gammas_y={2: -6, 1: -2})
    assert shifted.same_up_to_window(exmnaive)
    assert shift.x_terms == ((Fraction(1), Fraction(-1)),)
    assert shift.y_terms == ((Fraction(1), Fraction(2)),
                             (Fraction(2), Fraction(3)))


def test_bivariate_shift_identity_and_guard(exm):
    _, same = bivariate_shift(exm)
    assert same.same_up_to_window(exm)
    with pytest.raises(PreconditionViolated):
        bivariate_shift(exm, gammas_y={2: 17})
    with pytest.raises(PreconditionViolated):
        bivariate_shift(exm, gammas_y={3: -6})   # the y pole is 2


def test_regular_fundamental_u_system():
    reg = regular_fundamental(u_system())
    spec1 = sorted(reg.lambda1[i][i] for i in range(2))
    spec2 = sorted(reg.lambda2[i][i] for i in range(2))
    assert spec1 == [Fraction(-2), Fraction(1)]
    assert spec2 == [Fraction(-2), Fraction(-1)]


def test_external_involution_gauge_diagonalizes_u_system():
    # The involution [[1, 0], [y/3 + 2x^3, -1]] must pass the substitution
    # check as an external gauge: it takes the normal form to constant
    # diagonal matrices on both sides.
    t = SeriesMatrix.from_rows(
        [
            [BiSeries.const(1, T, T), BiSeries.zero(T, T)],
            [poly_series({(0, 1): Fraction(1, 3), (3, 0): 2}),
             BiSeries.const(-1, T, T)],
        ]
    )
    t2 = GaugeTransform.of_series(t, "external", LaurentMatrix(t))
    res = apply_gauge(u_system(), t2).to_system()
    assert res.p == 0 and res.q == 0
    assert res.amat == const_mat([[-2, 0], [0, 1]])
    assert res.bmat == const_mat([[-2, 0], [0, -1]])


def test_regular_fundamental_constant_diagonal():
    sys_obj = PfaffianSystem.make(
        2, 0, 0, const_mat([[2, 0], [0, -1]]), const_mat([[1, 0], [0, 3]])
    )
    reg = regular_fundamental(sys_obj)
    assert sorted(reg.lambda1[i][i] for i in range(2)) == [-1, 2]
    assert sorted(reg.lambda2[i][i] for i in range(2)) == [1, 3]


def test_regular_fundamental_random_nonresonant():
    rng = random.Random(29)
    for _ in range(5):
        lam1 = const_mat([[Fraction(1, 3), 0], [0, 0]])
        lam2 = const_mat([[Fraction(1, 2), 0], [0, 0]])
        seed = PfaffianSystem.make(2, 0, 0, lam1, lam2)
        g = random_unimodular(rng)
        sys_obj = apply_gauge(seed, g).to_system()
        reg = regular_fundamental(sys_obj)  # internally substitution-checked
        assert sorted(reg.lambda1[i][i] for i in range(2)) == [0, Fraction(1, 3)]
        assert sorted(reg.lambda2[i][i] for i in range(2)) == [0, Fraction(1, 2)]


def test_regular_fundamental_joint_resonance():
    # Lambda pair diag(0,1)/diag(0,1) with an x y coupling in row 2:
    # resonant with respect to both axes at the (1,1) monomial.
    a = SeriesMatrix.from_rows(
        [
            [BiSeries.zero(T, T), BiSeries.zero(T, T)],
            [poly_series({(1, 1): 1}), BiSeries.const(1, T, T)],
        ]
    )
    sys_obj = PfaffianSystem.make(2, 0, 0, a, a)
    assert check_integrability(sys_obj)[0]
    with pytest.raises(JointResonance) as err:
        regular_fundamental(sys_obj)
    assert err.value.retained
    (i, j, k, l, vx, vy) = err.value.retained[0]
    assert (i, j) == (1, 1)


def test_formal_fundamental_paper(exm):
    data = formal_fundamental(exm)
    assert data.complete()
    assert data.s == (1, 1)
    for entry in data.q1:
        assert entry == {Fraction(1): Fraction(-1)}
    for entry in data.q2:
        assert entry == {Fraction(1): Fraction(2), Fraction(2): Fraction(3)}
    assert sorted(data.lambda1[i][i] for i in range(2)) == [-2, 1]
    assert sorted(data.lambda2[i][i] for i in range(2)) == [-2, -1]
    assert verify_solution(exm, data)


def _with_entry(matrix, i, j, value):
    """A copy of the constant matrix `matrix` with entry (i, j) set."""
    rows = [list(row) for row in matrix]
    rows[i][j] = value
    return tuple(tuple(row) for row in rows)


def _with_q_term(q, k, c):
    """A copy of the per-coordinate Q terms `q` with c*v^-k added to the
    first coordinate."""
    out = [dict(entry) for entry in q]
    out[0][k] = out[0].get(k, Fraction(0)) + c
    return out


def test_verify_solution_refuses_wrong_data(exm):
    # The substitution check returns False for each corrupted copy of a
    # verified solution.  The x-side that exm's gauge trace gives has pole
    # 1, so a Q term of order 2 lies above it.
    data = formal_fundamental(exm)
    assert verify_solution(exm, data)
    lam = data.lambda1
    wrong = [
        dataclasses.replace(data, lambda1=None),
        dataclasses.replace(data, q1=_with_q_term(data.q1, Fraction(1, 2), 1)),
        dataclasses.replace(data, q1=_with_q_term(data.q1, Fraction(2), 1)),
        dataclasses.replace(data, lambda1=_with_entry(lam, 0, 0, lam[0][0] + 1)),
        dataclasses.replace(data, lambda1=_with_entry(lam, 0, 1, Fraction(1))),
    ]
    assert [verify_solution(exm, w) for w in wrong] == [False] * len(wrong)


def test_verify_solution_checks_a_jordan_block():
    # x dY/dx = [[0, 1], [0, 0]] Y, y dY/dy = Y: Lambda1 is the Jordan
    # block itself, so its off-diagonal entry is checked.
    a = const_mat([[0, 1], [0, 0]], 4, 4)
    sys_obj = PfaffianSystem.make(2, 0, 0, a, const_mat([[1, 0], [0, 1]], 4, 4))
    data = formal_fundamental(sys_obj)
    assert data.lambda1 == _with_entry(((0, 0), (0, 0)), 0, 1, 1)
    assert verify_solution(sys_obj, data)
    # With B = 0 the gauge trace carries the y-side to a zero that is only
    # zero on its window, so its pole, and the check, are undecided.
    zero_b = PfaffianSystem.make(2, 0, 0, a, const_mat([[0, 0], [0, 0]], 4, 4))
    with pytest.raises(TruncationExhausted):
        verify_solution(zero_b, formal_fundamental(zero_b))


def test_formal_fundamental_regular_case(exmnaive):
    data = formal_fundamental(exmnaive)
    assert data.complete()
    assert data.s == (1, 1)
    assert all(not q for q in data.q1)
    assert all(not q for q in data.q2)
    assert verify_solution(exmnaive, data)


def test_formal_fundamental_scalar_closed_form():
    # a = 2 + xy, b = -1 + xy is integrable; the gauge series solves
    # delta Phi = xy Phi on both axes, so Phi = exp(xy) termwise.
    sys_obj = scalar_1x1({(0, 0): 2, (1, 1): 1}, {(0, 0): -1, (1, 1): 1})
    assert check_integrability(sys_obj)[0]
    data = formal_fundamental(sys_obj)
    assert data.complete()
    assert data.lambda1 == ((Fraction(2),),)
    assert data.lambda2 == ((Fraction(-1),),)
    phi = data.phi()
    fact = 1
    for k in range(1, T):
        fact *= k
        assert phi.series.at(0, 0).coeff(k, k) == Fraction(1, fact)
    assert verify_solution(sys_obj, data)


def test_formal_fundamental_scalar_with_poles():
    # a = 3/x + 1, b = -2/y + 4: Q1 = -3/x, Q2 = 2/y.
    sys_obj = scalar_1x1({(0, 0): 3, (1, 0): 1}, {(0, 0): -2, (0, 1): 4},
                         p=1, q=1)
    data = formal_fundamental(sys_obj)
    assert data.complete()
    assert data.q1[0] == {Fraction(1): Fraction(-3)}
    assert data.q2[0] == {Fraction(1): Fraction(2)}
    assert data.lambda1 == ((Fraction(1),),)
    assert data.lambda2 == ((Fraction(4),),)
    assert verify_solution(sys_obj, data)


def test_lambda_spectrum_invariance_under_constant_conjugation():
    rng = random.Random(41)
    base = u_system()
    reg0 = regular_fundamental(base)
    spec1 = sorted(reg0.lambda1[i][i] for i in range(2))
    spec2 = sorted(reg0.lambda2[i][i] for i in range(2))
    for _ in range(5):
        c = random_invertible_const(rng)
        g = GaugeTransform.of_constant(c, T, T)
        moved = apply_gauge(base, g).to_system()
        reg = regular_fundamental(moved)
        assert sorted(reg.lambda1[i][i] for i in range(2)) == spec1
        assert sorted(reg.lambda2[i][i] for i in range(2)) == spec2


def test_commutation_lambda_q(exm):
    data = formal_fundamental(exm)
    n = data.n
    for lam, qd in ((data.lambda1, data.q1), (data.lambda2, data.q2)):
        for i in range(n):
            for j in range(n):
                if lam[i][j] != 0:
                    assert qd[i] == qd[j]


def test_exponential_parts_invariance_under_compatible_gauges(exm, exmnaive):
    rng = random.Random(59)
    for fixture in (exm, exmnaive):
        base_x, base_y = exponential_parts(fixture)
        key = lambda parts: sorted((p.q_terms, p.multiplicity) for p in parts)
        bx, by = key(base_x), key(base_y)
        for _ in range(8):
            g = random_unimodular(rng)
            moved = apply_gauge(fixture, g).to_system()
            gx, gy = exponential_parts(moved)
            assert key(gx) == bx
            assert key(gy) == by


def test_katz_pair_matches_q_poles(exm):
    data = formal_fundamental(exm)
    k1, k2 = katz_pair(exm)
    assert max((k for q in data.q1 for k in q), default=Fraction(0)) == k1
    assert max((k for q in data.q2 for k in q), default=Fraction(0)) == k2
