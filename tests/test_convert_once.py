"""The order-by-order solvers multiply constant matrices in their stored
form: the qlinalg.dot calls of the splitting recursion, the regular solve
and the first-kind solve read each QMatrix's integer rows and build no
Fraction.  Calls are counted by wrapping, in the style of
test_derive_once.py, and Fractions with conftest.count_fractions."""

import random
from fractions import Fraction

from pfaffred import qlinalg
from pfaffred.ods import _split_system, first_kind_fundamental_ods
from pfaffred.solutions import _regular_fundamental, _split_axis_choice
from pfaffred.system import PfaffianSystem, apply_gauge

from conftest import (
    const_mat,
    count_fractions,
    ods_system,
    random_integrable_system,
    random_unimodular,
)


def count_dot_fractions(monkeypatch):
    """The number of Fractions each qlinalg.dot call builds, one entry per
    call (mul is a dot of one pair, so its calls are among them)."""
    built = count_fractions(monkeypatch)
    per_call, dot = [], qlinalg.dot

    def counted_dot(terms, *args):
        before = len(built)
        out = dot(terms, *args)
        per_call.append(len(built) - before)
        return out

    monkeypatch.setattr(qlinalg, "dot", counted_dot)
    return per_call


def regular_input():
    lam1 = const_mat([[Fraction(1, 3), 0, 0], [0, 0, 0], [0, 0, Fraction(2, 5)]])
    lam2 = const_mat([[Fraction(1, 2), 0, 0], [0, 0, 0], [0, 0, Fraction(1, 7)]])
    seed = PfaffianSystem.make(3, 0, 0, lam1, lam2)
    return apply_gauge(seed, random_unimodular(random.Random(29), n=3)).to_system()


def test_splitting_and_regular_solve_dots_build_no_fraction(monkeypatch):
    split = random_integrable_system(random.Random(7), n=3, p=1, q=1)
    axis, groups = _split_axis_choice(split)
    regular = regular_input()
    per_call = count_dot_fractions(monkeypatch)
    _, blocks = _split_system(split, axis, groups)
    assert len(blocks) >= 2
    split_calls = len(per_call)
    _regular_fundamental(regular)
    assert 0 < split_calls < len(per_call)
    assert set(per_call) == {0}


def test_first_kind_solve_dots_build_no_fraction(monkeypatch):
    # Eigenvalues 1/2 and 0 (never resonant) and 0 and 1 (resonant at
    # order 1, where a term is retained).
    for rows in ([[{0: Fraction(1, 2), 1: 1, 2: 3}, {1: 1, 2: -1}],
                  [{1: -2, 2: 1}, {2: 1}]],
                 [[{0: 0}, {}], [{1: 1}, {0: 1}]]):
        ods = ods_system("x", rows, 0)
        per_call = count_dot_fractions(monkeypatch)
        sol = first_kind_fundamental_ods(ods, "x")
        monkeypatch.undo()
        assert per_call and set(per_call) == {0}
        assert bool(sol.retained) == (rows[0][0] == {0: 0})
