"""qlinalg.charpoly (Berkowitz) against two oracles: sympy's determinant,
and the cofactor expansion it replaced in theta_poly and
katz_invariant_ods (kept in oracle_moser)."""

import random

import sympy
from hypothesis import given, strategies as st
from sympy.polys.matrices import DomainMatrix

from pfaffred import qlinalg
from pfaffred.errors import PreconditionViolated
from pfaffred.moser import rank_reduce, reduce_subsystem_step, theta_poly
from pfaffred.ods import associated_ods, katz_invariant_ods
from pfaffred.series import BiSeries

from conftest import T
import oracle_moser

t, x, y = sympy.symbols("t x y")

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)
polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), rationals, max_size=3
)


def square(elements, max_n):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(st.lists(elements, min_size=n, max_size=n),
                           min_size=n, max_size=n)
    )


def sym(value):
    return sympy.Rational(value.numerator, value.denominator)


def sym_series(s):
    return sum((sym(c) * x**i * y**j for (i, j), c in s.coeffs.items()),
               sympy.Integer(0))


def sympy_charpoly(m):
    """Coefficients of det(t I - m), low degree first, by sympy's
    fraction-free elimination over the polynomial ring of the entries."""
    n = m.rows
    dm = DomainMatrix.from_Matrix(t * sympy.eye(n) - m)
    det = sympy.expand(dm.domain.to_sympy(dm.det()))
    return [det.coeff(t, k) for k in range(n + 1)]


@given(square(rationals, 5))
def test_charpoly_matches_sympy_over_q(rows):
    got = qlinalg.charpoly(tuple(tuple(r) for r in rows))
    want = sympy_charpoly(sympy.Matrix([[sym(c) for c in r] for r in rows]))
    assert [sym(c) for c in got] == want


@given(square(polys, 3))
def test_charpoly_matches_sympy_over_polynomials(rows):
    series = [[BiSeries(c, T, T, exact=True) for c in r] for r in rows]
    got = qlinalg.charpoly(series, BiSeries.const(1, T, T))
    want = sympy_charpoly(sympy.Matrix([[sym_series(c) for c in r]
                                        for r in series]))
    assert all(c.exact for c in got)
    assert [sympy.expand(sym_series(c) - w) for c, w in zip(got, want)] == \
        [0] * len(want)


def assert_theta_agrees(sys_obj, axis):
    """theta_poly against the cofactor expansion; returns the theta, or
    None when the subsystem has Moser rank <= 1."""
    try:
        theta = theta_poly(sys_obj, axis)
    except PreconditionViolated:
        return None
    old = oracle_moser.lambda_theta_coeffs(sys_obj, axis,
                                           sys_obj.leading_rank(axis))
    if axis == "y":
        old = [BiSeries({(j, i): v for (i, j), v in c.coeffs.items()},
                        c.ty, c.tx, exact=c.exact) for c in old]
    assert list(theta.coeffs) == old
    if sys_obj.amat.is_exact and sys_obj.bmat.is_exact:
        assert [c.exact for c in theta.coeffs] == [c.exact for c in old]
    return theta


def assert_katz_agrees(sys_obj, axis):
    _, reduced, _ = rank_reduce(associated_ods(sys_obj, axis))
    reduced = associated_ods(reduced, axis)
    assert (katz_invariant_ods(reduced, axis)
            == oracle_moser.lambda_katz(reduced, axis))


def test_theta_and_katz_match_cofactor_expansion_on_fixtures(exm, exmnaive):
    for fixture in (exm, exmnaive):
        current = fixture
        for axis in ("x", "y"):
            # Every system the reduction loop visits, exact or not.
            while True:
                theta = assert_theta_agrees(current, axis)
                if theta is None or not theta.is_zero():
                    break
                _, current, _ = reduce_subsystem_step(current, axis)
            assert_katz_agrees(fixture, axis)


def test_theta_and_katz_match_cofactor_expansion_on_criterion_7_sample():
    rng = random.Random(7)
    members = oracle_moser.family_members(oracle_moser.constant_candidates())
    zeros = 0
    for _ in range(30):
        sys_obj = oracle_moser.random_instance(rng, members)
        assert sys_obj.amat.is_exact
        zeros += assert_theta_agrees(sys_obj, "x").is_zero()
        assert_katz_agrees(sys_obj, "x")
    assert 0 < zeros < 30
