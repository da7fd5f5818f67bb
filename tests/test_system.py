import random
from fractions import Fraction

import pytest

import oracle_kernels

from pfaffred.errors import InvariantViolation
from pfaffred.matrices import LaurentMatrix, SeriesMatrix
from pfaffred.qlinalg import QMatrix
from pfaffred.series import BiSeries
from pfaffred.system import (
    GaugeTransform,
    PfaffianSystem,
    apply_gauge,
    check_compatible,
    check_integrability,
)

from conftest import (
    T,
    const_mat,
    poly_series,
    random_integrable_system,
    random_unimodular,
)


def naive_gauge():
    # The transformation that destroys normal crossings on the rank-one
    # example: [[x^3, -y^2], [0, y]].
    return GaugeTransform.of_series(
        SeriesMatrix.from_rows(
            [
                [poly_series({(3, 0): 1}), poly_series({(0, 2): -1})],
                [BiSeries.zero(T, T), poly_series({(0, 1): 1})],
            ]
        ),
        "external",
        # Its inverse x^-3 y^-1 [[y, y^2], [0, x^3]].
        LaurentMatrix(SeriesMatrix.from_rows(
            [
                [poly_series({(0, 1): 1}), poly_series({(0, 2): 1})],
                [BiSeries.zero(T, T), poly_series({(3, 0): 1})],
            ]
        ), 3, 1),
    )


def test_leading_data_rank_one_example(exmnaive):
    a0, b0 = exmnaive.leading
    # A0 = [[y, y^2], [-1, -y]]: singular but nonzero, so rank 1.
    assert exmnaive.rank_x == 1
    assert a0.at(0, 0) == poly_series({(0, 1): 1})
    assert a0.at(1, 0) == BiSeries.const(-1, T, T)
    # B0 = [[0, 0], [-2, 0]] by exact elimination: rank 1.
    assert exmnaive.rank_y == 1
    assert b0.constant_part() == QMatrix([[0, 0], [-2, 0]])


def test_leading_data_constant_system():
    c = [[Fraction(2), Fraction(1)], [Fraction(0), Fraction(3)]]
    sys_obj = PfaffianSystem.make(2, 0, 0, const_mat(c), const_mat(c))
    assert sys_obj.leading[0].constant_part() == QMatrix(c)


def test_integrability_fixtures(exm, exmnaive):
    assert check_integrability(exm)[0]
    assert check_integrability(exmnaive)[0]


def test_integrability_trivial_zero():
    z = SeriesMatrix.zeros(2, 2, T, T)
    sys_obj = PfaffianSystem.make(2, 0, 0, z, z)
    assert check_integrability(sys_obj)[0]


def test_integrability_counterexample():
    # A = [[0,1],[0,0]] / x, B = [[0,0],[1,0]] / y: commutator nonzero.
    a = const_mat([[0, 1], [0, 0]])
    b = const_mat([[0, 0], [1, 0]])
    sys_obj = PfaffianSystem.make(2, 1, 1, a, b)
    ok, _ = check_integrability(sys_obj)
    assert not ok


def integrability_cases():
    """Integrable systems exact and cut, with one side exact and the other
    truncated, a dense n = 4 system cut to (8, 8), and perturbed copies of
    each, most of them not integrable."""
    rng = random.Random(17)
    for k in range(6):
        s = random_integrable_system(rng, n=2 + k % 2, p=rng.randint(0, 2),
                                     q=rng.randint(0, 2))
        w = (rng.randint(2, 6), rng.randint(2, 6))
        yield s
        yield PfaffianSystem(s.n, s.p, s.q, s.amat.truncated(*w),
                             s.bmat.truncated(*w))
        yield PfaffianSystem(s.n, s.p, s.q, s.amat, s.bmat.truncated(*w))
        yield PfaffianSystem(s.n, s.p, s.q, s.amat.truncated(*w), s.bmat)
    s = random_integrable_system(random.Random(4), n=4, p=1, q=1)
    yield PfaffianSystem(4, s.p, s.q, s.amat.truncated(8, 8),
                         s.bmat.truncated(8, 8))


def perturbed(s, rng):
    """s with x^i y^j added to one entry of Amat."""
    k = rng.randrange(s.n * s.n)
    bump = BiSeries.monomial(1, rng.randint(0, 2), rng.randint(0, 2), T, T)
    entries = list(s.amat.entries)
    entries[k] = entries[k] + bump
    return PfaffianSystem(s.n, s.p, s.q, SeriesMatrix(s.n, s.n, entries), s.bmat)


def test_integrability_matches_the_four_term_residual():
    # One sum B A - A B gives the verdict and window of the residual built
    # from two reference products and two matrix differences.
    rng = random.Random(5)
    verdicts = []
    for s in integrability_cases():
        for case in (s, perturbed(s, rng)):
            got = check_integrability(case)
            assert got == oracle_kernels.integrability(case)
            verdicts.append(got[0])
    assert any(verdicts) and not all(verdicts)


def test_apply_gauge_identity(exmnaive):
    g = GaugeTransform.identity(2, T, T)
    res = apply_gauge(exmnaive, g).to_system()
    assert res.same_up_to_window(exmnaive)


def test_apply_gauge_reproduces_displayed_result(exmnaive):
    # The known non-compatible transformation must still be computed:
    # x-side [[-2, 0], [-1/y, 1]], y-side y^-2 [[-y^2, 0], [-2x^3, -2y^2]].
    res = apply_gauge(exmnaive, naive_gauge())
    ax = res.ax.normalize()
    assert (ax.px, ax.py) == (0, 1)
    assert ax.series.at(0, 0) == poly_series({(0, 1): -2})
    assert ax.series.at(0, 1).is_zero()
    assert ax.series.at(1, 0) == BiSeries.const(-1, T, T)
    assert ax.series.at(1, 1) == poly_series({(0, 1): 1})
    by = res.by.normalize()
    assert (by.px, by.py) == (0, 2)
    assert by.series.at(0, 0) == poly_series({(0, 2): -1})
    assert by.series.at(0, 1).is_zero()
    assert by.series.at(1, 0) == poly_series({(3, 0): -2})
    assert by.series.at(1, 1) == poly_series({(0, 2): -2})
    assert not res.normal_crossings()
    with pytest.raises(InvariantViolation):
        res.to_system()


def test_check_compatible(exmnaive):
    assert not check_compatible(exmnaive, naive_gauge())
    assert check_compatible(exmnaive, GaugeTransform.identity(2, T, T))
    rng = random.Random(23)
    for _ in range(6):
        assert check_compatible(exmnaive, random_unimodular(rng))


def test_gauge_roundtrip_property():
    rng = random.Random(31)
    for _ in range(6):
        sys_obj = random_integrable_system(rng, p=rng.randint(0, 2),
                                           q=rng.randint(0, 2))
        g = random_unimodular(rng)
        moved = apply_gauge(sys_obj, g).to_system()
        back = apply_gauge(moved, g.inverse()).to_system()
        assert back.same_up_to_window(sys_obj)


def test_gauge_composition_property():
    rng = random.Random(37)
    for _ in range(6):
        sys_obj = random_integrable_system(rng, p=1, q=1)
        g1 = random_unimodular(rng)
        g2 = random_unimodular(rng)
        once = apply_gauge(sys_obj, g1.compose(g2)).to_system()
        twice = apply_gauge(
            apply_gauge(sys_obj, g1).to_system(), g2
        ).to_system()
        assert once.same_up_to_window(twice)


def test_integrability_is_gauge_invariant():
    rng = random.Random(41)
    for _ in range(6):
        sys_obj = random_integrable_system(rng, p=rng.randint(0, 2),
                                           q=rng.randint(0, 2))
        assert check_integrability(sys_obj)[0]
        g = random_unimodular(rng)
        moved = apply_gauge(sys_obj, g).to_system()
        assert check_integrability(moved)[0]


def test_leading_ranks_invariant_under_constant_conjugation(exmnaive):
    rng = random.Random(43)
    from conftest import random_invertible_const

    for _ in range(6):
        c = random_invertible_const(rng)
        g = GaugeTransform.of_constant(c, T, T)
        moved = apply_gauge(exmnaive, g).to_system()
        assert (moved.rank_x, moved.rank_y) == (exmnaive.rank_x, exmnaive.rank_y)


def test_pole_normalization():
    # Series part divisible by x: the pole readjusts downward.
    a = SeriesMatrix.from_rows(
        [
            [poly_series({(1, 0): 1}), BiSeries.zero(T, T)],
            [BiSeries.zero(T, T), poly_series({(2, 0): 1})],
        ]
    )
    sys_obj = PfaffianSystem.make(2, 2, 0, a, SeriesMatrix.zeros(2, 2, T, T))
    assert sys_obj.p == 1
    lead = sys_obj.amat.eval_zero_matrix("x")
    assert not lead.is_zero()
