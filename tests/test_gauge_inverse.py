"""Carried inverses: every gauge factor comes with its inverse, and
apply_gauge never inverts a factor itself.

The inverse a factor carries must be what the cofactor adjugate
(tests/oracle_cofactor.py) gives for it: the same coefficients, exact
flags, windows, nominal orders and poles, compared as
tests/test_gauge_shift.py compares gauge results.  That holds for every
factor apply_gauge receives while reduce, expparts, katz and solve run,
and for every factor those commands emit on the fixtures.  A diagonal
monomial factor (a shearing, its inverse, the identity) is held to the
rule of tests/test_gauge_shift.py instead: its inverse, read off the
exponents, equals the adjugate's in coefficients, exact flags and poles,
and carries the factor's own nominal orders, where the adjugate's would
be those of its minors.

One kind of emitted factor is held to values only: solve lifts the gauges
of a split block to the full space with identity entries outside the
block.  The lift of the block's inverse is the exact inverse there, while
the adjugate of the lifted factor marks those identity entries truncated
and takes other nominal orders.  Such lifts are never applied on the
command path; they are compared on their windows.
"""

import functools
import random

import pytest

from pfaffred import system
from pfaffred.errors import PfaffredError
from pfaffred.matrices import SeriesMatrix
from pfaffred.moser import rank_reduce, reduce_subsystem_step
from pfaffred.series import BiSeries
from pfaffred.solutions import exponential_parts, formal_fundamental, katz_pair
from pfaffred.system import GaugeTransform, PfaffianSystem, apply_gauge

from conftest import random_integrable_system
from oracle_cofactor import inverse as oracle_inverse
from test_echelon_inverse import chain_inputs
from test_gauge_shift import nominal_orders, values


def outcome(m):
    return (m.px, m.py,
            [(e.coeffs, e.exact, e.tx, e.ty) for e in m.series.entries])


def is_monomial(f):
    """f is diagonal, of exact monic monomials, over its poles."""
    return all(e.exact and (list(e.coeffs.values()) == [1] if i == j
                            else not e.coeffs)
               for k, e in enumerate(f.series.entries)
               for i, j in [divmod(k, f.n)])


def assert_adjugate(f, f_inv):
    """f_inv is the cofactor adjugate's inverse of f, in full; for a
    monomial factor, with f's own nominal orders."""
    ref = oracle_inverse(f)
    if is_monomial(f):
        assert values(f_inv) == values(ref)
        assert nominal_orders(f_inv) == nominal_orders(f)
    else:
        assert outcome(f_inv) == outcome(ref)


def run_commands(sys_obj, monkeypatch):
    """(applied, emitted): the (factor, inverse) pairs apply_gauge received
    and those of the gauges that reduce and solve return, over the library
    calls behind reduce, expparts, katz and solve."""
    applied = []
    one_factor = system._gauge_one_factor

    def record(ax, by, f, f_inv):
        applied.append((f, f_inv))
        return one_factor(ax, by, f, f_inv)

    monkeypatch.setattr(system, "_gauge_one_factor", record)
    gauges = []
    for command in (rank_reduce, exponential_parts, katz_pair, formal_fundamental):
        try:
            result = command(sys_obj)
        except PfaffredError:
            continue          # e.g. a 5x6 window is exhausted part way
        if command is rank_reduce:
            gauges.append(result[0])
        elif command is formal_fundamental:
            gauges.extend(result.gauge_trace)
    emitted = [pair for g in gauges for pair in zip(g.factors, g.inverses)]
    return applied, emitted


def windowed(sys_obj, window):
    if window is None:
        return sys_obj
    return PfaffianSystem.make(sys_obj.n, sys_obj.p, sys_obj.q,
                               sys_obj.amat.truncated(*window),
                               sys_obj.bmat.truncated(*window))


@pytest.mark.parametrize("window", [None, (8, 8), (5, 6)],
                         ids=["shipped", "8x8", "5x6"])
@pytest.mark.parametrize("name", ["exm", "exmnaive"])
def test_fixture_inverses_match_adjugate(name, window, request, monkeypatch):
    sys_obj = windowed(request.getfixturevalue(name), window)
    applied, emitted = run_commands(sys_obj, monkeypatch)
    assert applied
    for f, f_inv in applied + emitted:
        assert_adjugate(f, f_inv)


@pytest.mark.parametrize("seed", range(6))
def test_generated_inverses_match_adjugate(seed, monkeypatch):
    rng = random.Random(seed)
    n = rng.choice([2, 3, 4])
    sys_obj = random_integrable_system(rng, n=n, p=rng.choice([1, 2]),
                                       q=rng.choice([0, 1]))
    applied, emitted = run_commands(sys_obj, monkeypatch)
    assert applied and emitted
    for f, f_inv in applied:
        assert_adjugate(f, f_inv)
    for f, f_inv in emitted:
        assert f_inv == oracle_inverse(f)


def direct_sum(s1, s2):
    """s1 and s2 block-diagonally, each pole raised to the larger of the
    two by a monomial factor."""
    p, q, n = max(s1.p, s2.p), max(s1.q, s2.q), s1.n + s2.n

    def side(m1, m2, shift1, shift2):
        a, b = m1.shift(*shift1), m2.shift(*shift2)
        zero = BiSeries.zero(*a.window)
        rows = [[zero] * n for _ in range(n)]
        for m, off in ((a, 0), (b, s1.n)):
            for i in range(m.rows):
                rows[off + i][off:off + m.rows] = m.row(i)
        return SeriesMatrix.from_rows(rows)

    return PfaffianSystem.make(
        n, p, q, side(s1.amat, s2.amat, (p - s1.p, 0), (p - s2.p, 0)),
        side(s1.bmat, s2.bmat, (0, q - s1.q), (0, q - s2.q)))


def test_lifted_block_inverses(exm, exmnaive, monkeypatch):
    # solve splits exm + exmnaive and Moser-reduces one block, so it lifts
    # shearings onto a coordinate subset; their inverses have a pole, and
    # the lifted identity part must carry it.
    applied, emitted = run_commands(direct_sum(exm, exmnaive), monkeypatch)
    assert any(f_inv.px or f_inv.py for _, f_inv in emitted)
    for f, f_inv in applied:
        assert_adjugate(f, f_inv)
    for f, f_inv in emitted:
        assert f_inv == oracle_inverse(f)


def solve_gauge(sys_obj):
    trace = formal_fundamental(sys_obj).gauge_trace
    return functools.reduce(GaugeTransform.compose, trace)


def test_apply_gauge_inverts_no_factor(exm, exmnaive):
    # Reduction gauges, and solve gauges with splittings and lifted blocks,
    # move a system and back by their carried inverses alone.
    generated = random_integrable_system(random.Random(3), n=3, p=1, q=1)
    gauges = [(exmnaive, rank_reduce(exmnaive)[0]), (exm, solve_gauge(exm)),
              (generated, solve_gauge(generated))]
    for sys_obj, gauge in gauges:
        moved = apply_gauge(sys_obj, gauge).to_system()
        back = apply_gauge(moved, gauge.inverse()).to_system()
        assert back.same_up_to_window(sys_obj)


def test_commands_invert_and_expand_nothing(exm, exmnaive, monkeypatch):
    # Every gauge factor the commands build carries its inverse from the
    # code that made it, and the library has no series-matrix inverse or
    # determinant to fall back on: reduce, expparts, katz and solve run,
    # and a Moser step completes a trailing arrangement Q4, on the carried
    # inverses alone.
    for sys_obj in (exm, exmnaive, direct_sum(exm, exmnaive)):
        applied, _ = run_commands(sys_obj, monkeypatch)
        assert applied
    for sys_obj in chain_inputs():
        reduce_subsystem_step(sys_obj, "x")
