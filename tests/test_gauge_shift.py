"""Diagonal factors of monic monomials (identities, shearings and their
inverses) go through the products of series.dot, whose monomial case
moves coefficients instead of multiplying them.  The gauge action must
equal the reference (tests/oracle_gauge.py, products by the
dict-of-Fraction kernel) entry for entry: coefficients, exact flags,
windows, nominal orders and poles.

The inverse that GaugeTransform.monomial carries is read off the
exponents.  It equals the cofactor adjugate's (tests/oracle_cofactor.py)
in coefficients, exact flags and poles, and carries its factor's own
nominal orders, where the adjugate's would be those of its minors."""

from hypothesis import given, strategies as st

from pfaffred.matrices import LaurentMatrix, SeriesMatrix
from pfaffred.moser import shearing_matrix
from pfaffred.series import BiSeries
from pfaffred.system import GaugeTransform, _gauge_one_factor

from oracle_cofactor import inverse as oracle_inverse
from oracle_gauge import _gauge_one_factor as oracle_one_factor

KINDS = ("exact", "zero", "truncated", "window-zero")
orders = st.integers(1, 6)
terms = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
    max_size=3,
)


@st.composite
def entries(draw, kinds):
    kind = draw(st.sampled_from(kinds))
    tx, ty = draw(orders), draw(orders)
    if kind == "exact":
        return BiSeries(draw(terms), tx, ty, exact=True)
    if kind == "zero":
        return BiSeries.zero(tx, ty)
    if kind == "truncated":
        return BiSeries(draw(terms), tx, ty)
    return BiSeries({}, tx, ty)


@st.composite
def laurent(draw, n):
    # One kind, or a mix of kinds, per matrix.  Exact entries come first:
    # their nominal orders are where the two paths can differ.
    kinds = draw(st.sampled_from([("exact", "zero"), KINDS, ("exact",)]
                                 + [(k,) for k in KINDS[1:]]))
    cells = [draw(entries(kinds)) for _ in range(n * n)]
    return LaurentMatrix(SeriesMatrix(n, n, cells),
                         draw(st.integers(-2, 3)), draw(st.integers(-2, 3)))


@st.composite
def monomial_factor(draw, n):
    """diag(x^a_i y^b_i) over x^px y^py, each entry with its own nominal
    orders; sometimes inverted by the cofactor adjugate, as an inverse
    shearing is."""
    cells = []
    for i in range(n):
        for j in range(n):
            tx, ty = draw(orders), draw(orders)
            if i == j:
                cells.append(BiSeries.monomial(
                    1, draw(st.integers(0, 3)), draw(st.integers(0, 3)), tx, ty))
            else:
                cells.append(BiSeries.zero(tx, ty))
    f = LaurentMatrix(SeriesMatrix(n, n, cells),
                      draw(st.integers(-1, 3)), draw(st.integers(-1, 3)))
    return oracle_inverse(f) if draw(st.booleans()) else f


def outcome(fn, *args):
    try:
        return [
            (m.px, m.py, [(e.coeffs, e.exact, e.tx, e.ty) for e in m.series.entries])
            for m in fn(*args)
        ]
    except Exception as exc:  # both paths must fail alike
        return type(exc).__name__


def assert_same_as_products(ax, by, f, f_inv=None):
    if f_inv is None:
        f_inv = oracle_inverse(f)
    want = outcome(oracle_one_factor, ax, by, f, f_inv)
    assert outcome(_gauge_one_factor, ax, by, f, f_inv) == want


@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(laurent(n), laurent(n), monomial_factor(n))))
def test_monomial_factor_matches_products(args):
    assert_same_as_products(*args)


@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(laurent(n), laurent(n), orders, orders)))
def test_identity_factor_matches_products(args):
    ax, by, tx, ty = args
    assert_same_as_products(ax, by, LaurentMatrix(
        SeriesMatrix.identity(ax.n, tx, ty)))


def test_shearing_and_its_inverse_match_products(exmnaive):
    ax, by = exmnaive.a_laurent(), exmnaive.b_laurent()
    for var in ("x", "y"):
        g = shearing_matrix(1, 0, 2, var, *exmnaive.window)
        for h in (g, g.inverse()):
            for f, f_inv in zip(h.factors, h.inverses):
                assert_same_as_products(ax, by, f)
                assert_same_as_products(ax, by, f, f_inv)


def values(m):
    return (m.px, m.py, [(e.coeffs, e.exact) for e in m.series.entries])


def nominal_orders(m):
    return [(e.tx, e.ty) for e in m.series.entries]


@given(st.sampled_from("xy"), st.lists(st.integers(0, 3), min_size=1,
                                       max_size=4), orders, orders)
def test_monomial_inverse_from_exponents(var, exponents, tx, ty):
    g = GaugeTransform.monomial(var, exponents, tx, ty)
    [f], [f_inv] = g.factors, g.inverses
    assert values(f_inv) == values(oracle_inverse(f))
    assert nominal_orders(f_inv) == nominal_orders(f)
