"""One elimination, checked against the cofactor oracle
(tests/oracle_cofactor.py).

column_echelon returns v^(-1) built by the inverse row operations.  It is
the oracle's cofactor inverse in coefficients, truncated windows and
poles, and exact wherever the oracle is exact.  It can be exact where the
oracle is truncated: a cofactor multiplies in truncated entries of v
whose contributions cancel, while the row operations never form them.
"""

import random

from hypothesis import given, strategies as st

from pfaffred import moser
from pfaffred.errors import TruncationExhausted
from pfaffred.matrices import LaurentMatrix, SeriesMatrix, column_echelon
from pfaffred.moser import moser_rank, reduce_subsystem_step
from pfaffred.series import BiSeries
from pfaffred.system import PfaffianSystem, apply_gauge

import oracle_cofactor as oracle
from conftest import T, poly_series, random_unimodular
from test_gauge_shift import KINDS, entries


def certified(e):
    """What a series claims: its coefficients, whether it is exact, and
    the window of a truncated one."""
    return e.coeffs, e.exact, None if e.exact else e.window


def outcome(e):
    """certified(e) and the nominal orders of an exact series."""
    return e.coeffs, e.exact, e.tx, e.ty


@st.composite
def matrices(draw, rows, cols):
    kinds = draw(st.sampled_from([KINDS, ("exact", "zero"), ("truncated",),
                                  ("exact", "window-zero")]))
    return SeriesMatrix(rows, cols,
                        [draw(entries(kinds)) for _ in range(rows * cols)])


shapes = st.tuples(st.integers(1, 3), st.integers(1, 3))


@given(shapes.flatmap(lambda s: st.tuples(matrices(*s), st.sampled_from("xy"))))
def test_echelon_inverse_matches_cofactor_oracle(args):
    m, var = args
    try:
        v, red, rank, v_inv = column_echelon(m, var)
    except TruncationExhausted:
        return      # a pivot that is no monomial times a unit on its window
    assert m * v == red
    assert all(red.at(i, j).is_zero()
               for i in range(m.rows) for j in range(rank, m.cols))
    eye = SeriesMatrix.identity(m.cols, *v.window)
    assert v * v_inv == eye and v_inv * v == eye
    want = oracle.inverse(LaurentMatrix(v))
    assert (want.px, want.py) == (0, 0)
    for got, ref in zip(v_inv.entries, want.series.entries):
        assert got == ref
        if ref.exact or not got.exact:
            assert certified(got) == certified(ref)


def test_echelon_inverse_is_exact_where_the_adjugate_is_not():
    # c is zero on its window (1, 1).  v has c in two entries of its last
    # column; the (0, 0) entry of v^(-1) is an exact 0 by the row
    # operations, while its cofactor multiplies c in and is truncated.
    c = BiSeries({}, 1, 1)
    one, z = BiSeries.const(1, T, T), BiSeries.zero(T, T)
    m = SeriesMatrix.from_rows([[z, one, one], [z, c, c], [c, z, one]])
    v, _, _, v_inv = column_echelon(m, "y")
    want = oracle.inverse(LaurentMatrix(v))
    got, ref = v_inv.at(0, 0), want.series.at(0, 0)
    assert got.exact and got.is_zero()
    assert not ref.exact and ref.window == (1, 1) and ref.is_zero()
    assert v_inv == want.series


def chain_system():
    """The trailing-block chain of test_regression: reducing it on x
    completes a kept subspace to a unimodular Q4."""
    z = BiSeries.zero(T, T)
    x = poly_series({(1, 0): 1})
    rows = [[z, z, z, x], [BiSeries.const(1, T, T), z, z, z],
            [z, z, z, z], [z, z, x, z]]
    return PfaffianSystem.make(4, 2, 0, SeriesMatrix.from_rows(rows),
                               SeriesMatrix.zeros(4, 4, T, T), strict=False)


def chain_inputs():
    """chain_system under y-only unimodular gauges, exact and cut to two
    windows: 12 inputs whose x-step completes a Q4."""
    base = chain_system()
    for seed in range(4):
        rng = random.Random(seed)
        gauge = random_unimodular(rng, n=4, vars_=("y",), max_deg=1)
        gauged = apply_gauge(base, gauge).to_system()
        for window in (None, (8, 8), (6, 7)):
            yield gauged if window is None else PfaffianSystem.make(
                4, gauged.p, gauged.q, gauged.amat.truncated(*window),
                gauged.bmat.truncated(*window), strict=False)


def test_q4_comes_with_its_inverse(monkeypatch):
    built = []
    complete = moser._complete_unimodular

    def record(basis, axis):
        q4 = complete(basis, axis)
        built.append((basis, q4))
        return q4

    monkeypatch.setattr(moser, "_complete_unimodular", record)
    for sys_obj in chain_inputs():
        _, nxt, _ = reduce_subsystem_step(sys_obj, "x")
        assert moser_rank(nxt, "x") < moser_rank(sys_obj, "x")
    builds = [(basis, q4) for basis, q4 in built if q4 is not None]
    assert len(builds) >= 12
    assert not all(q.is_exact for _, (q, _) in builds)
    for basis, (q, q_inv) in builds:
        m, k = basis.rows, basis.cols
        eye = SeriesMatrix.identity(m, *q.window)
        assert q * q_inv == eye and q_inv * q == eye
        # The basis lies in the span of Q's first k columns: its
        # coordinates beyond them vanish.
        coords = q_inv * basis
        assert all(coords.at(i, j).is_zero()
                   for i in range(k, m) for j in range(k))
        # The carried inverse is the adjugate's, nominal orders included.
        want = oracle.inverse(LaurentMatrix(q))
        assert (want.px, want.py) == (0, 0)
        assert ([outcome(e) for e in q_inv.entries]
                == [outcome(e) for e in want.series.entries])
