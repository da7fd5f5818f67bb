"""The gauge action against sympy.

On exact polynomial systems and random exact unipotent gauges T = I + N,
N strictly triangular, each brought with its inverse sum_(k<n) (-N)^k,
apply_gauge must give sympy's

    T[A] = T^(-1) (A T - x dT/dx),    T[B] = T^(-1) (B T - y dT/dy),

with A = x^(-p) Amat, B = y^(-q) Bmat and T^(-1) = adj T (det T = 1),
exactly.  So must a composed gauge and the round trip through
gauge.inverse(), and check_integrability must give sympy's verdict on
x dB/dx - y dA/dy + B A - A B = 0 before and after the gauge.  Integrable
inputs are diagonal, with x-only entries on the x side and y-only ones on
the y side; the others are drawn at random and are almost never
integrable.

sympy computes over QQ[x, y] (DomainMatrix), with the poles cleared: a
Laurent matrix x^(-px) y^(-py) M is the polynomial matrix M with its
poles.  The module runs in under 5 s with the derandomized profile.
"""

import random
from fractions import Fraction

import sympy
from hypothesis import given, strategies as st
from sympy.polys.matrices import DomainMatrix

from pfaffred.matrices import LaurentMatrix, SeriesMatrix
from pfaffred.series import BiSeries
from pfaffred.system import PfaffianSystem, apply_gauge, check_integrability

from conftest import T, unipotent_gauge

K = sympy.QQ[sympy.symbols("x y")]
X, Y = K.gens


def poly(rng, dx=2, dy=2):
    """Up to three terms x^i y^j, i <= dx and j <= dy, with small rational
    coefficients."""
    return BiSeries({(rng.randint(0, dx), rng.randint(0, dy)):
                     Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                     for _ in range(rng.randint(0, 3))}, T, T, exact=True)


def sym(m: SeriesMatrix):
    """m over QQ[x, y]."""
    return DomainMatrix(
        [[K.ring.from_dict({e: sympy.QQ(c.numerator, c.denominator)
                            for e, c in m.at(i, j).coeffs.items()})
          for j in range(m.cols)] for i in range(m.rows)],
        (m.rows, m.cols), K)


def laurent(lm: LaurentMatrix):
    assert lm.series.is_exact
    return sym(lm.series), lm.px, lm.py


def same(a, b):
    """Equality of Laurent matrices (M, px, py) = x^(-px) y^(-py) M."""
    (ma, ax, ay), (mb, bx, by) = a, b
    return (ma.mul(X**max(bx - ax, 0) * Y**max(by - ay, 0))
            == mb.mul(X**max(ax - bx, 0) * Y**max(ay - by, 0)))


def euler(m, var):
    return m.applyfunc(lambda e: e.diff(var) * var)


def sym_gauge(a, b, t):
    """T[A] and T[B] for A = x^(-p) amat and B = y^(-q) bmat, given as
    (amat, p) and (bmat, q), and T a polynomial matrix with det T = 1."""
    (amat, p), (bmat, q) = a, b
    assert t.det() == K.one
    t_inv = t.adjugate()
    return ((t_inv * (amat * t - euler(t, X).mul(X**p)), p, 0),
            (t_inv * (bmat * t - euler(t, Y).mul(Y**q)), 0, q))


def sym_system(sys_obj):
    return (sym(sys_obj.amat), sys_obj.p), (sym(sys_obj.bmat), sys_obj.q)


def sym_integrable(sys_obj):
    """x^p y^q (x dB/dx - y dA/dy + B A - A B) = 0."""
    (amat, p), (bmat, q) = sym_system(sys_obj)
    r = (euler(bmat, X).mul(X**p) - euler(amat, Y).mul(Y**q)
         + bmat * amat - amat * bmat)
    return r.is_zero_matrix


# The entries come from a drawn seed: drawing each coefficient through
# hypothesis costs more than the checks themselves.
seeds = st.integers(0, 2**32 - 1).map(random.Random)


@st.composite
def systems(draw):
    n = draw(st.integers(2, 3))
    p, q = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    rng = draw(seeds)
    if draw(st.booleans()):
        a = [poly(rng, dy=0) for _ in range(n)]
        b = [poly(rng, dx=0) for _ in range(n)]
        zero = BiSeries.zero(T, T)
        amat, bmat = (SeriesMatrix(n, n, [d[i] if i == j else zero
                                          for i in range(n) for j in range(n)])
                      for d in (a, b))
    else:
        amat, bmat = (SeriesMatrix(n, n, [poly(rng) for _ in range(n * n)])
                      for _ in range(2))
    return PfaffianSystem.make(n, p, q, amat, bmat, strict=False)


@st.composite
def unipotent(draw, n, upper):
    """T = I + N with N strictly upper (or lower) triangular."""
    rng = draw(seeds)
    return unipotent_gauge(SeriesMatrix(n, n, [
        poly(rng, 1, 1) if i != j and (j > i) == upper
        else BiSeries.const(int(i == j), T, T)
        for i in range(n) for j in range(n)]), "unipotent")


@st.composite
def gauged(draw):
    """A system and a unipotent gauge, or the composition of an upper and
    a lower one."""
    sys_obj = draw(systems())
    gauge = draw(unipotent(sys_obj.n, draw(st.booleans())))
    if draw(st.booleans()):
        gauge = gauge.compose(draw(unipotent(sys_obj.n, False)))
    return sys_obj, gauge


@given(gauged())
def test_apply_gauge_matches_sympy(args):
    sys_obj, gauge = args
    t, _, _ = laurent(gauge.matrix())
    want_a, want_b = sym_gauge(*sym_system(sys_obj), t)
    res = apply_gauge(sys_obj, gauge)
    assert same(laurent(res.ax), want_a)
    assert same(laurent(res.by), want_b)


@given(gauged())
def test_round_trip_matches_sympy(args):
    sys_obj, gauge = args
    t, _, _ = laurent(gauge.matrix())
    moved = apply_gauge(sys_obj, gauge).to_system()
    back = apply_gauge(moved, gauge.inverse())
    want_a, want_b = sym_gauge(*sym_system(moved), t.adjugate())
    assert same(laurent(back.ax), want_a)
    assert same(laurent(back.by), want_b)
    (amat, p), (bmat, q) = sym_system(sys_obj)
    assert same(want_a, (amat, p, 0)) and same(want_b, (bmat, 0, q))


@given(gauged())
def test_gauge_keeps_the_integrability_verdict(args):
    sys_obj, gauge = args
    verdict, _ = check_integrability(sys_obj)
    assert verdict == sym_integrable(sys_obj)
    moved = apply_gauge(sys_obj, gauge).to_system()
    assert check_integrability(moved)[0] == verdict
    assert sym_integrable(moved) == verdict
