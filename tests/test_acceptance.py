"""Acceptance suite: one test per criterion, each printing a PASS line.

All arithmetic is exact; equalities are exact unless a truncation window
is part of the statement.  Timing limits are part of the criteria.
"""

import random
import time
from fractions import Fraction

from pfaffred.cli import main
from pfaffred.matrices import LaurentMatrix, SeriesMatrix
from pfaffred.moser import rank_reduce, theta_poly
from pfaffred.series import BiSeries
from pfaffred.solutions import (
    bivariate_splitting,
    exponential_parts,
    formal_fundamental,
    katz_pair,
    regular_fundamental,
    verify_solution,
)
from pfaffred.system import (
    GaugeTransform,
    PfaffianSystem,
    apply_gauge,
    check_compatible,
)
from pfaffred import qlinalg

from conftest import T, const_mat, fixture_path, poly_series, random_unimodular
import oracle_moser


def _announce(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_integrability(capsys):
    start = time.monotonic()
    assert main(["check", str(fixture_path("exm.json"))]) == 0
    t1 = time.monotonic() - start
    start = time.monotonic()
    assert main(["check", str(fixture_path("exmnaive.json"))]) == 0
    t2 = time.monotonic() - start
    assert t1 < 1.0 and t2 < 1.0
    with capsys.disabled():
        _announce(1, f"both fixtures integrable (exit 0) in {t1:.3f}s / {t2:.3f}s")


def test_criterion_2_rank_reduction(exmnaive, capsys):
    start = time.monotonic()
    gauge, reduced, report = rank_reduce(exmnaive)
    elapsed = time.monotonic() - start
    assert (reduced.p, reduced.q) == (0, 0)
    assert report.steps, "reduction must actually run"
    for step in report.steps:
        assert step.compatible
    assert check_compatible(exmnaive, gauge)
    assert elapsed < 5.0
    with capsys.disabled():
        _announce(2, f"true Poincare rank (0,0) reached, every gauge "
                     f"compatible, {elapsed:.3f}s at window (8,8)")


def test_criterion_3_non_compatible_gauge(exmnaive, capsys):
    gauge = GaugeTransform.of_series(
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
    res = apply_gauge(exmnaive, gauge)
    ax = res.ax.normalize()
    # x side: [[-2, 0], [-1/y, 1]] -- exactly, including the 1/y pole.
    assert (ax.px, ax.py) == (0, 1)
    assert ax.series.at(0, 0) == poly_series({(0, 1): -2})
    assert ax.series.at(0, 1).is_zero()
    assert ax.series.at(1, 0) == BiSeries.const(-1, T, T)
    assert ax.series.at(1, 1) == poly_series({(0, 1): 1})
    by = res.by.normalize()
    # y side: y^-2 [[-y^2, 0], [-2x^3, -2y^2]] -- exactly.
    assert (by.px, by.py) == (0, 2)
    assert by.series.at(0, 0) == poly_series({(0, 2): -1})
    assert by.series.at(0, 1).is_zero()
    assert by.series.at(1, 0) == poly_series({(3, 0): -2})
    assert by.series.at(1, 1) == poly_series({(0, 2): -2})
    assert check_compatible(exmnaive, gauge) is False
    with capsys.disabled():
        _announce(3, "displayed transformed pair reproduced exactly "
                     "(with the 1/y entry); compatibility verdict false")


def test_criterion_4_exponential_parts(exm, capsys):
    px, py = exponential_parts(exm)
    assert len(px) == 1 and px[0].multiplicity == 2
    assert dict(px[0].q_terms) == {Fraction(1): Fraction(-1)}
    assert len(py) == 1 and py[0].multiplicity == 2
    assert dict(py[0].q_terms) == {Fraction(1): Fraction(2),
                                   Fraction(2): Fraction(3)}
    assert main(["expparts", str(fixture_path("exm.json"))]) == 0
    with capsys.disabled():
        _announce(4, "Q1 = -1/x * I2 and Q2 = (3/y^2 + 2/y) * I2 exactly")


def test_criterion_5_katz_pair(exm, exmnaive, capsys):
    assert katz_pair(exm) == (Fraction(1), Fraction(2))
    assert katz_pair(exmnaive) == (Fraction(0), Fraction(0))
    assert main(["katz", str(fixture_path("exm.json"))]) == 0
    with capsys.disabled():
        _announce(5, "Katz pair (1, 2) for the irregular fixture and "
                     "(0, 0) for the regular one")


def test_criterion_6_regular_solve(capsys):
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
    u_sys = PfaffianSystem.make(2, 0, 0, a, b)
    reg = regular_fundamental(u_sys)
    assert sorted(reg.lambda1[i][i] for i in range(2)) == [-2, 1]
    assert sorted(reg.lambda2[i][i] for i in range(2)) == [-2, -1]
    # The external involution gauge passes the substitution check: it maps
    # the normal form to constant diagonals on both sides.
    t = SeriesMatrix.from_rows(
        [
            [BiSeries.const(1, T, T), BiSeries.zero(T, T)],
            [poly_series({(0, 1): Fraction(1, 3), (3, 0): 2}),
             BiSeries.const(-1, T, T)],
        ]
    )
    t2 = GaugeTransform.of_series(t, "external", LaurentMatrix(t))
    res = apply_gauge(u_sys, t2).to_system()
    assert res.amat == const_mat([[-2, 0], [0, 1]])
    assert res.bmat == const_mat([[-2, 0], [0, -1]])
    with capsys.disabled():
        _announce(6, "normal-form spectra {-2,1} and {-2,-1}; the external "
                     "involution gauge diagonalizes both sides exactly")


def test_criterion_7_theta_oracle(capsys):
    start = time.monotonic()
    rng = random.Random(20240)
    members = oracle_moser.family_members(oracle_moser.constant_candidates())
    disagreements = 0
    reducible_seen = 0
    for _ in range(200):
        sys_obj = oracle_moser.random_instance(rng, members)
        predicted = theta_poly(sys_obj, "x").is_zero()
        actual = oracle_moser.family_reduces(sys_obj, members)
        if predicted != actual:
            disagreements += 1
        if predicted:
            reducible_seen += 1
    elapsed = time.monotonic() - start
    assert disagreements == 0
    assert reducible_seen >= 40, "corpus must exercise the reducible branch"
    assert elapsed < 60.0
    with capsys.disabled():
        _announce(7, f"200 instances, zero disagreements "
                     f"({reducible_seen} reducible), {elapsed:.1f}s")


def test_criterion_8_property_suites(exm, exmnaive, capsys):
    rng = random.Random(424242)
    # Gauge round-trip and composition.
    for _ in range(10):
        g1 = random_unimodular(rng)
        g2 = random_unimodular(rng)
        moved = apply_gauge(exmnaive, g1).to_system()
        back = apply_gauge(moved, g1.inverse()).to_system()
        assert back.same_up_to_window(exmnaive)
        once = apply_gauge(exm, g1.compose(g2)).to_system()
        twice = apply_gauge(apply_gauge(exm, g1).to_system(),
                            g2).to_system()
        assert once.same_up_to_window(twice)
    # Exponential-part multiset invariance: 50 random compatible gauges
    # per fixture.
    for fixture in (exm, exmnaive):
        base_x, base_y = exponential_parts(fixture)
        key = lambda parts: sorted((p.q_terms, p.multiplicity) for p in parts)
        bx, by = key(base_x), key(base_y)
        for _ in range(50):
            g = random_unimodular(rng)
            moved = apply_gauge(fixture, g).to_system()
            gx, gy = exponential_parts(moved)
            assert key(gx) == bx and key(gy) == by
    # Leibniz rule for the Euler derivative.
    from conftest import rand_frac

    for _ in range(20):
        terms_a = {(rng.randint(0, 4), rng.randint(0, 4)): rand_frac(rng)
                   for _ in range(4)}
        terms_b = {(rng.randint(0, 4), rng.randint(0, 4)): rand_frac(rng)
                   for _ in range(4)}
        a = BiSeries(terms_a, T, T)
        b = BiSeries(terms_b, T, T)
        for var in ("x", "y"):
            assert (a * b).delta(var) == a.delta(var) * b + a * b.delta(var)
    # Characteristic polynomial factorization through the splitting.
    from conftest import ods_system

    diag = [1, 2, 7]
    terms = [
        [{0: Fraction(diag[i]) if i == j else Fraction(0),
          1: rand_frac(rng)} for j in range(3)]
        for i in range(3)
    ]
    ods = ods_system("x", terms, 1)
    _, blocks = bivariate_splitting(ods)
    cp_in = qlinalg.charpoly(ods.amat.constant_part())
    prod = [Fraction(1)]
    for blk in blocks:
        cp_b = qlinalg.charpoly(blk.amat.constant_part())
        new = [Fraction(0)] * (len(prod) + len(cp_b) - 1)
        for i, xc in enumerate(prod):
            for j, yc in enumerate(cp_b):
                new[i + j] += xc * yc
        prod = new
    assert prod == cp_in
    # Lexicographic monotonicity of the reduction loop.
    _, _, report = rank_reduce(exmnaive)
    last = {}
    for s in report.steps:
        if s.kind != "shearing":
            continue
        cur = (s.p_after, s.rank_after)
        if s.axis in last:
            assert cur < last[s.axis]
        last[s.axis] = cur
    # Substitution residuals for every emitted solution.
    for fixture in (exm, exmnaive):
        data = formal_fundamental(fixture)
        assert data.complete()
        assert verify_solution(fixture, data)
    with capsys.disabled():
        _announce(8, "round-trip, composition, 100 exponential-part "
                     "invariance gauges, Leibniz, splitting factorization, "
                     "monotonicity, substitution residuals: all exact")
