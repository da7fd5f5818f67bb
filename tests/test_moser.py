import random
from fractions import Fraction

import pytest
import sympy

from pfaffred.errors import PreconditionViolated
from pfaffred.matrices import SeriesMatrix, series_rank
from pfaffred.moser import (
    _certify_split,
    _prepare_shearing,
    _verify_gauss_form,
    column_reduce_leading,
    moser_rank,
    rank_reduce,
    reduce_subsystem_step,
    shearing_matrix,
    theta_poly,
)
from pfaffred.series import BiSeries, exponent
from pfaffred.system import (
    PfaffianSystem,
    apply_gauge,
    check_compatible,
)

from conftest import T, const_mat, poly_series
import oracle_cofactor
import oracle_moser


def test_moser_rank_examples(exmnaive):
    assert moser_rank(exmnaive, "x") == Fraction(7, 2)
    assert moser_rank(exmnaive, "y") == Fraction(3, 2)
    z = SeriesMatrix.zeros(2, 2, T, T)
    regular = PfaffianSystem.make(2, 0, 0, z, z)
    assert moser_rank(regular, "x") == 0


def sympy_theta_oracle(sys_obj):
    """Independent criterion-polynomial oracle via sympy symbols."""
    x, y, lam = sympy.symbols("x y lam")
    n = sys_obj.n
    a0 = sys_obj.amat.coeff_matrix("x", 0)
    a1 = sys_obj.amat.coeff_matrix("x", 1)

    def to_expr(e):
        return sum(
            sympy.Rational(c.numerator, c.denominator) * x**i * y**j
            for (i, j), c in e.coeffs.items()
        )

    m = sympy.zeros(n, n)
    for i in range(n):
        for j in range(n):
            m[i, j] = to_expr(a0.at(i, j)) + x * to_expr(a1.at(i, j))
            if i == j:
                m[i, j] += x * lam
    det = sympy.expand(m.det())
    r = series_rank(a0.eval_zero_matrix("x"), "y")
    coeff = det.coeff(x, n - r)
    return sympy.simplify(coeff) == 0


def test_theta_rank_one_example(exmnaive):
    th = theta_poly(exmnaive, "x")
    assert th.is_zero()
    assert sympy_theta_oracle(exmnaive)


def test_theta_airy_like():
    # A0 = [[0,1],[0,0]], A1 = [[0,0],[1,0]], p = 1: theta = -1, nonzero.
    a = SeriesMatrix.from_rows(
        [
            [BiSeries.zero(T, T), BiSeries.const(1, T, T)],
            [poly_series({(1, 0): 1}), BiSeries.zero(T, T)],
        ]
    )
    sys_obj = PfaffianSystem.make(2, 1, 0, a, SeriesMatrix.zeros(2, 2, T, T))
    th = theta_poly(sys_obj, "x")
    assert not th.is_zero()
    assert th.coeffs[0] == BiSeries.const(-1, T, T)
    assert th.coeffs[1].is_zero()
    assert not sympy_theta_oracle(sys_obj)


def test_theta_scalar_case():
    a = SeriesMatrix.from_rows([[poly_series({(0, 0): 5, (1, 0): 2})]])
    sys_obj = PfaffianSystem.make(1, 1, 0, a, SeriesMatrix.zeros(1, 1, T, T))
    th = theta_poly(sys_obj, "x")
    # Degree 0 (lambda-free) and nonzero: a scalar system is irreducible.
    assert len(th.coeffs) == 1
    assert th.coeffs[0] == BiSeries.const(5, T, T)


def test_theta_precondition():
    z = SeriesMatrix.zeros(2, 2, T, T)
    regular = PfaffianSystem.make(2, 0, 0, const_mat([[1, 0], [0, 2]]), z)
    with pytest.raises(PreconditionViolated):
        theta_poly(regular, "x")


def test_column_reduce_examples(exmnaive):
    gf = column_reduce_leading(exmnaive, "x")
    assert gf.r == 1 and gf.d in (0, 1)
    moved = apply_gauge(exmnaive, gf.gauge).to_system()
    assert _verify_gauss_form(moved, "x", gf.d, gf.r)
    # Already-reduced leading matrix: the gauge is the identity.
    a = SeriesMatrix.from_rows(
        [
            [BiSeries.zero(T, T), BiSeries.zero(T, T)],
            [BiSeries.const(-1, T, T), BiSeries.zero(T, T)],
        ]
    )
    sys2 = PfaffianSystem.make(2, 1, 0, a, SeriesMatrix.zeros(2, 2, T, T))
    gf2 = column_reduce_leading(sys2, "x")
    assert (gf2.d, gf2.r) == (0, 1)
    moved2 = apply_gauge(sys2, gf2.gauge).to_system()
    assert moved2.same_up_to_window(sys2)
    # Zero leading matrix (pole 0): r = 0, d = 0, identity gauge.
    z = SeriesMatrix.zeros(2, 2, T, T)
    sys3 = PfaffianSystem.make(2, 0, 0, z, z)
    gf3 = column_reduce_leading(sys3, "x")
    assert (gf3.d, gf3.r) == (0, 0)


@pytest.mark.parametrize("axis", ["x", "y"])
def test_saturated_stages_divide_by_the_coefficient_variable(axis):
    """A closure column divisible by w^2, w the other variable, is divided
    by w^2.  Its entries are divisible by v^2 too, so dividing by the axis
    variable gives another column, not an error.  The trailing block is
    zero, so the closure stops at its first stage."""
    from pfaffred.moser import _saturated_stages

    def s(coeffs):
        """An exact series from {(exponent of v, exponent of w): value}."""
        return poly_series({exponent(axis, i, j): c
                            for (i, j), c in coeffs.items()})

    col = [s({(2, 2): 1}), s({(2, 3): 3, (3, 2): 1})]
    stages = _saturated_stages([col], SeriesMatrix.zeros(2, 2, T, T), 2, axis)
    assert len(stages) == 1 and stages[0].cols == 1
    assert [stages[0].at(i, 0) for i in range(2)] == [
        s({(2, 0): 1}), s({(2, 1): 3, (3, 0): 1})]


def test_candidate_subspaces_skip_the_whole_space():
    """r = 1, d = 0, n = 3: the column e1 of D closes under E = [[0, 0],
    [1, 0]] to the whole trailing space, which the first candidate (None)
    already stands for, so only the span of e1 follows it.  W is r x 0."""
    from pfaffred.moser import _candidate_subspaces

    one, zero = BiSeries.const(1, T, T), BiSeries.zero(T, T)
    W = SeriesMatrix(1, 0, [])
    D = SeriesMatrix.from_rows([[one], [zero]])
    C = SeriesMatrix.zeros(1, 2, T, T)
    E = SeriesMatrix.from_rows([[zero, zero], [one, zero]])
    got = list(_candidate_subspaces((W, D, C, E), 0, 1, "x"))
    assert got == [None, D]


def certify(d_rows, c_row, e_rows, basis_rows):
    """_certify_split on n = 3, r = 1, d = 0 (W is 1 x 0) with constant
    D (2 x 1), C (1 x 2), E (2 x 2) and a candidate basis (2 x 1), on the
    x-axis; entries are rationals or series."""
    def mat(rows):
        return SeriesMatrix.from_rows(
            [[c if isinstance(c, BiSeries) else BiSeries.const(c, T, T)
              for c in row] for row in rows])

    blocks = (SeriesMatrix(1, 0, []), mat(d_rows), mat([c_row]), mat(e_rows))
    return _certify_split(blocks, 0, 1, mat(basis_rows), "x")


def test_certify_split_accepts_a_kept_subspace():
    # Span of e1: the sheared D row and the stacked rank both vanish.
    ok, rank_kept, q4 = certify([[1], [0]], [0, 0], [[0, 0], [0, 0]], [[1], [0]])
    assert ok and rank_kept == 0 and q4 is not None


def test_certify_split_refuses_without_unimodular_completion():
    # The basis column y e1 has a zero constant part: it spans no direct
    # summand on the window.
    y = poly_series({(0, 1): 1})
    assert certify([[1], [0]], [0, 0], [[0, 0], [0, 0]], [[y], [0]]) == (
        False, -1, None)


def test_certify_split_refuses_a_nonzero_sheared_d_entry():
    # D's second row, outside the kept span, is nonzero in column d..r.
    assert certify([[0], [1]], [0, 0], [[0, 0], [0, 0]], [[1], [0]]) == (
        False, -1, None)


def test_certify_split_refuses_full_rank_x():
    # C's kept column makes [W, C Q4] of rank 1 = r.
    assert certify([[1], [0]], [1, 0], [[0, 0], [0, 0]], [[1], [0]]) == (
        False, -1, None)


def test_certify_split_refuses_a_stacked_rank_mismatch():
    # E maps the kept e1 out of its span: stacking its row raises the rank.
    assert certify([[1], [0]], [0, 0], [[0, 0], [1, 0]], [[1], [0]]) == (
        False, -1, None)


def test_prepare_shearing_postconditions(exmnaive):
    gf = column_reduce_leading(exmnaive, "x")
    work = apply_gauge(exmnaive, gf.gauge).to_system()
    form = _prepare_shearing(work, "x", gf)
    assert 0 <= form.rho <= work.n - gf.r
    assert form.rank_kept < gf.r
    # det Q = +-1 exactly.
    for f in form.gauge.factors:
        d = oracle_cofactor.det(f.series)
        assert d == BiSeries.const(1, T, T) or d == BiSeries.const(-1, T, T)


def test_prepare_shearing_guard():
    # An input not in the reduced leading form its Gauss form claims (here
    # the system before its column-reduce gauge) must be rejected.
    a = SeriesMatrix.from_rows(
        [
            [BiSeries.zero(T, T), BiSeries.const(1, T, T)],
            [poly_series({(1, 0): 1}), BiSeries.zero(T, T)],
        ]
    )
    sys_obj = PfaffianSystem.make(2, 1, 0, a, SeriesMatrix.zeros(2, 2, T, T))
    gf = column_reduce_leading(sys_obj, "x")
    assert not _verify_gauss_form(sys_obj, "x", gf.d, gf.r)
    with pytest.raises(PreconditionViolated):
        _prepare_shearing(sys_obj, "x", gf)


def test_prepare_shearing_exhaustive_2x2():
    # Exhaustive small-case check: every reducible shape with r = 1 admits
    # a certified split with rho in {0, 1}.
    rng = random.Random(55)
    members = oracle_moser.family_members(oracle_moser.constant_candidates())
    found = 0
    for _ in range(60):
        sys_obj = oracle_moser.random_instance(rng, members)
        th = theta_poly(sys_obj, "x")
        if not th.is_zero():
            continue
        gf = column_reduce_leading(sys_obj, "x")
        work = apply_gauge(sys_obj, gf.gauge).to_system()
        if work.p <= 0:
            continue
        form = _prepare_shearing(work, "x", gf)
        assert form.rho in (0, 1)
        found += 1
    assert found >= 10


def test_shearing_matrix_shapes():
    g = shearing_matrix(1, 0, 2, "x", T, T)
    m = g.matrix()
    assert m.series.at(0, 0) == poly_series({(1, 0): 1})
    assert m.series.at(1, 1) == BiSeries.const(1, T, T)
    g2 = shearing_matrix(0, 0, 2, "x", T, T)
    assert g2.matrix().series == SeriesMatrix.identity(2, T, T)
    g3 = shearing_matrix(1, 1, 3, "y", T, T)
    s = g3.matrix().series
    assert s.at(0, 0) == poly_series({(0, 1): 1})
    assert s.at(1, 1) == BiSeries.const(1, T, T)
    assert s.at(2, 2) == poly_series({(0, 1): 1})


def test_reduce_subsystem_step_drops(exmnaive):
    gauge, nxt, steps = reduce_subsystem_step(exmnaive, "x")
    p0, r0 = exmnaive.p, exmnaive.rank_x
    p1, r1 = nxt.p, nxt.rank_x
    assert (p1, r1) < (p0, r0)
    assert all(s.compatible for s in steps)


def test_reduce_subsystem_step_guard():
    # Moser-irreducible input is rejected before the arrangement.
    a = SeriesMatrix.from_rows(
        [
            [BiSeries.zero(T, T), BiSeries.const(1, T, T)],
            [poly_series({(1, 0): 1}), BiSeries.zero(T, T)],
        ]
    )
    sys_obj = PfaffianSystem.make(2, 1, 0, a, SeriesMatrix.zeros(2, 2, T, T))
    with pytest.raises(PreconditionViolated):
        reduce_subsystem_step(sys_obj, "x")


def test_rank_reduce_rank_one_example(exmnaive):
    gauge, reduced, report = rank_reduce(exmnaive)
    assert (reduced.p, reduced.q) == (0, 0)
    assert all(s.compatible for s in report.steps)
    assert check_compatible(exmnaive, gauge)
    # The reduced pair is the hand-checked normal-form system.
    assert reduced.amat.at(0, 0) == BiSeries.const(-2, T, T)
    assert reduced.amat.at(1, 0) == poly_series({(0, 1): -1})
    assert reduced.amat.at(1, 1) == BiSeries.const(1, T, T)
    assert reduced.bmat.at(1, 0) == poly_series({(3, 0): -2})
    assert reduced.bmat.at(1, 1) == BiSeries.const(-1, T, T)
    # Full gauge equals [[x^3 y, -y], [0, 1]].
    m = gauge.matrix()
    assert (m.px, m.py) == (0, 0)
    assert m.series.at(0, 0) == poly_series({(3, 1): 1})
    assert m.series.at(0, 1) == poly_series({(0, 1): -1})
    assert m.series.at(1, 0).is_zero()
    assert m.series.at(1, 1) == BiSeries.const(1, T, T)


def test_rank_reduce_monotonicity(exmnaive):
    _, _, report = rank_reduce(exmnaive)
    per_axis = {}
    for s in report.steps:
        if s.kind != "shearing":
            continue
        prev = per_axis.get(s.axis)
        cur = (s.p_after, s.rank_after)
        if prev is not None:
            assert cur < prev or s.p_after < prev[0]
        per_axis[s.axis] = cur
    for s in report.steps:
        assert s.compatible


def test_rank_reduce_fixed_point():
    # A Moser-irreducible input passes through unchanged.
    a = SeriesMatrix.from_rows(
        [
            [BiSeries.zero(T, T), BiSeries.const(1, T, T)],
            [poly_series({(1, 0): 1}), BiSeries.zero(T, T)],
        ]
    )
    sys_obj = PfaffianSystem.make(2, 1, 0, a, SeriesMatrix.zeros(2, 2, T, T))
    gauge, reduced, report = rank_reduce(sys_obj)
    assert reduced.same_up_to_window(sys_obj)
    assert not report.steps
    assert gauge.provenance == ("identity",)


def test_theta_oracle_agreement_sample():
    # Smaller copy of the acceptance run: theta vanishing must agree with
    # the brute-force family search on every sampled instance.
    rng = random.Random(77)
    members = oracle_moser.family_members(oracle_moser.constant_candidates())
    for _ in range(40)            :
        sys_obj = oracle_moser.random_instance(rng, members)
        predicted = theta_poly(sys_obj, "x").is_zero()
        actual = oracle_moser.family_reduces(sys_obj, members)
        assert predicted == actual


def test_theta_soundness_via_algorithm():
    # Independent cross-check: whenever theta vanishes, one certified
    # reduction step strictly drops the Moser rank.
    rng = random.Random(91)
    members = oracle_moser.family_members(oracle_moser.constant_candidates())
    hits = 0
    for _ in range(30):
        sys_obj = oracle_moser.random_instance(rng, members)
        if not theta_poly(sys_obj, "x").is_zero():
            continue
        m0 = moser_rank(sys_obj, "x")
        _, nxt, _ = reduce_subsystem_step(sys_obj, "x")
        assert moser_rank(nxt, "x") < m0
        hits += 1
    assert hits >= 5
