"""The Moser layer's fused sums against their sequential forms
(tests/oracle_kernels.py), field for field: numerators, denominator,
window or nominal orders, and the exact flag.

Berkowitz's charpoly over series, the column update of column_echelon
(and series_rank) and the gauge action of one factor each take their
sums as calls of series.dots, with a term against the exact 1 at nominal
orders (0, 0) (series.ONE) where the sequential form adds a series that
is not a product.  Entries are exact (nominal orders from 0), exact
zeros, truncated and zero on their window, mixed in one matrix; gauge
factors include shearings with their inverses, which have poles, and the
sides of A include negative poles, where A F itself is moved and the
sequential subtraction is kept.

The last test counts the products of two series made outside series.dots
while theta_poly, _katz, column_echelon and apply_gauge run on the worked
fixtures and a blocks benchmark case: there are none.
"""

import contextlib
import io
import json
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

from hypothesis import given, settings, strategies as st

import oracle_kernels as oracle
from pfaffred import cli, matrices, moser, ods, qlinalg, system
from pfaffred.matrices import LaurentMatrix, SeriesMatrix
from pfaffred.series import BiSeries, exponent
from pfaffred.system import GaugeTransform, _gauge_one_factor

from oracle_cofactor import inverse as cofactor_inverse

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import inputs  # noqa: E402  (perfbench/inputs.py, imported, never edited)

KINDS = ("exact", "zero", "truncated", "window-zero")
orders = st.integers(0, 5)
rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def entries(draw, kinds, exps=st.integers(0, 3)):
    kind = draw(st.sampled_from(kinds))
    tx, ty = draw(orders), draw(orders)
    if kind == "zero":
        return BiSeries.zero(tx, ty)
    if kind == "window-zero":
        return BiSeries({}, tx, ty)
    terms = draw(st.dictionaries(st.tuples(exps, exps), rationals, max_size=4))
    return BiSeries(terms, tx, ty, exact=kind == "exact")


@st.composite
def matrices_of(draw, rows, cols, exps=st.integers(0, 3)):
    # One kind, or a mix of kinds, per matrix: all-exact matrices are
    # where nominal orders can differ.
    kinds = draw(st.sampled_from([("exact",), ("exact", "zero"), KINDS,
                                  ("truncated",), ("truncated", "zero")]))
    return SeriesMatrix(rows, cols, [draw(entries(kinds, exps))
                                     for _ in range(rows * cols)])


def fields(s):
    return (s.num, s.den, s.tx, s.ty, s.exact)


def outcome(fn, *args):
    """Fields of every series in fn's result, or the exception it raised."""
    try:
        result = fn(*args)
    except Exception as exc:  # both forms must fail alike
        return type(exc).__name__, str(exc)

    def flat(x):
        if isinstance(x, BiSeries):
            return fields(x)
        if isinstance(x, SeriesMatrix):
            return (x.rows, x.cols, [fields(e) for e in x.entries])
        if isinstance(x, LaurentMatrix):
            return (x.px, x.py, flat(x.series))
        if isinstance(x, (list, tuple)):
            return [flat(e) for e in x]
        return x

    return flat(result)


# -- Berkowitz ----------------------------------------------------------------


@given(st.integers(0, 4).flatmap(lambda n: matrices_of(n, n)), orders, orders)
def test_charpoly_matches_sequential_berkowitz(m, tx, ty):
    rows = m.to_rows()
    one = BiSeries.const(1, tx, ty)
    got = qlinalg.charpoly(rows, one)
    assert [fields(c) for c in got] == [fields(c)
                                        for c in oracle.charpoly(rows, one)]


@given(st.integers(0, 5).flatmap(lambda n: st.lists(
    st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_charpoly_over_q_matches_sequential_berkowitz(rows):
    want = oracle.charpoly(rows, Fraction(1))
    assert qlinalg.charpoly(rows) == want
    assert qlinalg.charpoly(qlinalg.QMatrix(rows)) == want


# -- the column update ----------------------------------------------------------


@st.composite
def echelon_entry(draw, var):
    """Mostly v^k times a unit, v = var, exact or truncated, so that most
    pivots divide on their window; else an exact zero, a window zero or
    any entry."""
    kind = draw(st.sampled_from(("unit",) * 4 + ("zero", "window-zero", "any")))
    if kind == "any":
        return draw(entries(KINDS, st.integers(0, 2)))
    tx, ty = draw(orders), draw(orders)
    if kind == "zero":
        return BiSeries.zero(tx, ty)
    if kind == "window-zero":
        return BiSeries({}, tx, ty)
    k = draw(st.integers(0, 2))
    small = st.integers(0, 2)
    terms = {exponent(var, i + k, j): c for (i, j), c in draw(
        st.dictionaries(st.tuples(small, small), rationals, max_size=3)).items()}
    terms[exponent(var, k)] = draw(rationals.filter(bool))
    wx, wy = exponent(var, k + 1 + draw(small), 1 + draw(small))
    return BiSeries(terms, max(tx, wx), max(ty, wy), exact=draw(st.booleans()))


@st.composite
def echelon_cases(draw):
    var = draw(st.sampled_from("xy"))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return SeriesMatrix(rows, cols, [draw(echelon_entry(var))
                                     for _ in range(rows * cols)]), var


def test_column_echelon_matches_sequential_update():
    # Most examples divide a pivot column into others and update them.
    ran = Counter()
    quotients = matrices._quotients

    def counting(*args):
        ran["updated"] += 1
        return quotients(*args)

    @settings(max_examples=100)
    @given(echelon_cases())
    def check(case):
        m, var = case
        with patch.object(matrices, "_quotients", counting):
            got = outcome(matrices.column_echelon, m, var)
        assert got == outcome(oracle.column_echelon, m, var)
        assert (outcome(matrices.series_rank, m, var)
                == outcome(oracle.series_rank, m, var))
        ran["examples"] += 1

    check()
    assert ran["updated"] >= ran["examples"] // 2


def test_column_echelon_of_the_fixtures_matches_sequential_update(exm,
                                                                  exmnaive):
    for sys_obj in (exm, exmnaive):
        for mat, var in ((sys_obj.leading[0], "y"), (sys_obj.leading[1], "x"),
                         (sys_obj.amat, "y"), (sys_obj.bmat.transpose(), "x")):
            assert (outcome(matrices.column_echelon, mat, var)
                    == outcome(oracle.column_echelon, mat, var))


# -- the gauge action of one factor -------------------------------------------------


@st.composite
def laurent(draw, n, poles=st.integers(-2, 3)):
    return LaurentMatrix(draw(matrices_of(n, n)), draw(poles), draw(poles))


@st.composite
def shearing(draw, n):
    """diag(v^e_i) in one variable with its inverse, which has a pole,
    either way round; or a cofactor inverse of a drawn diagonal factor."""
    var = draw(st.sampled_from("xy"))
    g = GaugeTransform.monomial(var, draw(st.lists(st.integers(0, 3), min_size=n,
                                                   max_size=n)),
                                draw(orders), draw(orders))
    if draw(st.booleans()):
        g = g.inverse()
    return g.factors[0], g.inverses[0]


@st.composite
def gauge_cases(draw):
    n = draw(st.integers(1, 3))
    ax, by = draw(laurent(n)), draw(laurent(n))
    kind = draw(st.sampled_from(("series", "shearing", "cofactor")))
    if kind == "shearing":
        f, f_inv = draw(shearing(n))
    else:
        f = draw(laurent(n, st.integers(-1, 2)))
        f_inv = draw(laurent(n, st.integers(-1, 2)))
        if kind == "cofactor":
            try:
                f_inv = cofactor_inverse(f)
            except Exception:
                pass
    return ax, by, f, f_inv


def test_gauge_factor_matches_sequential_subtraction():
    ran = Counter()

    @given(gauge_cases())
    def check(case):
        ax, by = case[:2]
        got = outcome(_gauge_one_factor, *case)
        assert got == outcome(oracle.gauge_one_factor, *case)
        for a in (ax, by):
            ran["moved" if a.px < 0 or a.py < 0 else "fused"] += 1

    check()
    assert ran["moved"] and ran["fused"]


def test_shearings_of_the_fixtures_match_sequential_subtraction(exmnaive):
    ax, by = exmnaive.a_laurent(), exmnaive.b_laurent()
    for var in ("x", "y"):
        g = moser.shearing_matrix(1, 0, 2, var, *exmnaive.window)
        for h in (g, g.inverse()):
            for f, f_inv in zip(h.factors, h.inverses):
                for pair in ((ax, by), (ax.normalize(), by.normalize()),
                             (LaurentMatrix(ax.series, -1, 0), by)):
                    assert (outcome(_gauge_one_factor, *pair, f, f_inv)
                            == outcome(oracle.gauge_one_factor, *pair, f, f_inv))


# -- no series product outside series.dots ---------------------------------------------


def test_moser_layer_multiplies_series_only_in_dots(monkeypatch, tmp_path):
    watched = {f.__code__: f.__name__ for f in (
        moser.theta_poly, ods._katz, matrices.column_echelon,
        system.apply_gauge)}
    ran, products = Counter(), Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            ran[watched[frame.f_code]] += 1

    inner = BiSeries.__mul__

    def mul(self, other):
        if isinstance(other, BiSeries):
            frame = sys._getframe(1)
            while frame is not None:
                if frame.f_code in watched:
                    products[watched[frame.f_code]] += 1
                    break
                frame = frame.f_back
        return inner(self, other)

    monkeypatch.setattr(BiSeries, "__mul__", mul)
    monkeypatch.setattr(BiSeries, "__rmul__", mul)
    # Copies in tmp_path: reduce writes its .reduced.json next to the input.
    docs = []
    for name in ("exm", "exmnaive"):
        docs.append(tmp_path / f"{name}.json")
        docs[-1].write_text((ROOT / "fixtures" / f"{name}.json").read_text(
            encoding="utf-8"), encoding="utf-8")
    case = inputs.make_cases("blocks", 1)[0]
    docs.append(tmp_path / "blocks.json")
    docs[-1].write_text(json.dumps(case.doc), encoding="utf-8")
    sys.setprofile(profile)
    try:
        for doc in docs:
            for command in ("reduce", "katz", "expparts"):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main([command, str(doc)]) == 0
    finally:
        sys.setprofile(None)
    assert set(ran) == set(watched.values())
    assert not products
