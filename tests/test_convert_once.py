"""The order-by-order solvers convert each constant matrix to integer
numerators at most once: a QMatrix keeps its numerators after its first
product, and the splitting recursion, the regular solve and the
first-kind solve pass QMatrix operands to qlinalg.dot.  Calls are counted
by wrapping, in the style of test_derive_once.py."""

import random
from fractions import Fraction

from pfaffred import qlinalg
from pfaffred.ods import _split_system, first_kind_fundamental_ods
from pfaffred.solutions import _regular_fundamental, _split_axis_choice
from pfaffred.system import PfaffianSystem, apply_gauge

from conftest import (
    const_mat,
    ods_system,
    random_integrable_system,
    random_unimodular,
)


def count_conversions(monkeypatch):
    """(conversions, operands): the matrices converted to numerators, and
    every operand passed to qlinalg.dot, held so that no id is reused."""
    conversions, operands = [], []
    numerators, dot = qlinalg._numerators, qlinalg.dot

    def counted_numerators(m):
        conversions.append(m)
        return numerators(m)

    def counted_dot(terms, *args):
        terms = list(terms)
        operands.extend(m for _, a, b in terms for m in (a, b))
        return dot(terms, *args)

    monkeypatch.setattr(qlinalg, "_numerators", counted_numerators)
    monkeypatch.setattr(qlinalg, "dot", counted_dot)
    return conversions, operands


def regular_input():
    lam1 = const_mat([[Fraction(1, 3), 0, 0], [0, 0, 0], [0, 0, Fraction(2, 5)]])
    lam2 = const_mat([[Fraction(1, 2), 0, 0], [0, 0, 0], [0, 0, Fraction(1, 7)]])
    seed = PfaffianSystem.make(3, 0, 0, lam1, lam2)
    return apply_gauge(seed, random_unimodular(random.Random(29), n=3)).to_system()


def test_solvers_convert_each_matrix_once(monkeypatch):
    split = random_integrable_system(random.Random(7), n=3, p=1, q=1)
    axis, groups = _split_axis_choice(split)
    regular = regular_input()
    conversions, operands = count_conversions(monkeypatch)
    _, blocks = _split_system(split, axis, groups)
    assert len(blocks) >= 2
    _regular_fundamental(regular)
    distinct = len({id(m) for m in operands})
    assert len(conversions) <= distinct < len(operands)


def test_first_kind_solve_converts_each_matrix_once(monkeypatch):
    # Eigenvalues 1/2 and 0 are never resonant, so every order is a
    # Sylvester solve; S_1 and S_2 multiply each stored T_m at two later
    # orders.
    ods = ods_system("x", [[{0: Fraction(1, 2), 1: 1, 2: 3}, {1: 1, 2: -1}],
                           [{1: -2, 2: 1}, {2: 1}]], 0)
    conversions, operands = count_conversions(monkeypatch)
    sol = first_kind_fundamental_ods(ods, "x")
    assert not sol.retained
    distinct = len({id(m) for m in operands})
    assert len(conversions) <= distinct < len(operands)
