import random
from fractions import Fraction

import pytest

from pfaffred.errors import TruncationExhausted, ZeroConstantTerm
from pfaffred.series import BiSeries, UniSeries

T = 8


def bs(coeffs, tx=T, ty=T):
    return BiSeries(coeffs, tx, ty)


def rand_series(rng, tx=5, ty=5, density=0.5):
    coeffs = {}
    for i in range(tx):
        for j in range(ty):
            if rng.random() < density:
                coeffs[(i, j)] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return BiSeries(coeffs, tx, ty)


def test_add_disjoint_supports():
    a = bs({(0, 0): 1, (1, 0): 1})            # 1 + x
    b = bs({(0, 1): 1})                       # y
    assert a + b == bs({(0, 0): 1, (1, 0): 1, (0, 1): 1})


def test_add_identity():
    a = bs({(2, 1): Fraction(3, 7)})
    assert a + BiSeries.zero(T, T) == a


def test_add_min_truncation_rule():
    a = BiSeries({(0, 0): 1, (1, 0): 1}, 2, T)          # 1 + x, tx=2
    b = BiSeries({(2, 0): 1}, 3, T)                     # x^2, tx=3
    s = a + b
    assert s.tx == 2
    # Hand expansion: on the guaranteed window only 1 + x is visible.
    assert s == BiSeries({(0, 0): 1, (1, 0): 1}, 2, T)


def test_mul_direct_expansion():
    a = bs({(0, 0): 1, (1, 0): 1, (0, 1): 1})   # 1 + x + y
    b = bs({(0, 0): 1, (1, 0): -1})             # 1 - x
    # Oracle: direct expansion 1 + y - x^2 - xy.
    assert a * b == bs({(0, 0): 1, (0, 1): 1, (2, 0): -1, (1, 1): -1})


def test_mul_identities():
    rng = random.Random(1)
    a = rand_series(rng)
    one = BiSeries.const(1, T, T)
    zero = BiSeries.zero(T, T)
    assert a * one == a
    assert (a * zero).is_zero()


def test_invert_geometric_series():
    a = bs({(0, 0): 1, (1, 0): -1})             # 1 - x
    inv = a.invert()
    expect = bs({(i, 0): 1 for i in range(T)})  # geometric series oracle
    assert inv == expect
    assert inv.window == a.window


def test_invert_identity_and_nonunit():
    assert BiSeries.const(1, 4, 4).invert() == BiSeries.const(1, 4, 4)
    with pytest.raises(ZeroConstantTerm):
        bs({(1, 0): 1}).invert()


def test_delta_rules():
    assert bs({(2, 1): 1}).delta("x") == bs({(2, 1): 2})
    assert bs({(0, 3): 1}).delta("x").is_zero()
    a = bs({(0, 0): 1, (1, 0): 1, (1, 1): 2})
    assert a.delta("y") == bs({(1, 1): 2})


def test_eval_zero():
    a = bs({(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})
    u = a.eval_zero("y")
    assert u == UniSeries({0: 1, 1: 1}, T)
    assert bs({(0, 2): 1}).eval_zero("y").is_zero()
    # The first-subsystem entry x^3 + x^2 + y at y = 0.
    e = bs({(3, 0): 1, (2, 0): 1, (0, 1): 1})
    assert e.eval_zero("y") == UniSeries({3: 1, 2: 1}, T)


def test_ramify():
    assert UniSeries({1: 1}, 4).ramify(2) == UniSeries({2: 1}, 8)
    u = UniSeries({0: 1, 1: 2, 3: -1}, 5)
    assert u.ramify(1) == u
    assert UniSeries({0: 1, 1: 1, 2: 1}, 4).ramify(3) == UniSeries(
        {0: 1, 3: 1, 6: 1}, 12
    )


def test_ramify_is_ring_morphism():
    rng = random.Random(7)
    for _ in range(20):
        a = UniSeries(
            {i: Fraction(rng.randint(-3, 3)) for i in range(5)}, 5
        )
        b = UniSeries(
            {i: Fraction(rng.randint(-3, 3)) for i in range(5)}, 5
        )
        s = rng.choice([2, 3])
        assert (a * b).ramify(s) == a.ramify(s) * b.ramify(s)


def test_ring_axioms_on_random_series():
    rng = random.Random(42)
    for _ in range(25):
        a, b, c = (rand_series(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_invert_property_random_units():
    rng = random.Random(9)
    for _ in range(15):
        a = rand_series(rng)
        coeffs = dict(a.coeffs)
        coeffs[(0, 0)] = Fraction(rng.randint(1, 5))
        a = BiSeries(coeffs, *a.window)
        assert a * a.invert() == BiSeries.const(1, *a.window)


def test_delta_leibniz():
    rng = random.Random(11)
    for _ in range(15):
        a, b = rand_series(rng), rand_series(rng)
        for var in ("x", "y"):
            lhs = (a * b).delta(var)
            rhs = a.delta(var) * b + a * b.delta(var)
            assert lhs == rhs


def test_monomial_division_and_window():
    a = bs({(2, 1): 3, (3, 1): -1})
    d = a.divide_monomial(2, 1)
    assert d == BiSeries({(0, 0): 3, (1, 0): -1}, T - 2, T - 1)
    with pytest.raises(TruncationExhausted):
        bs({(1, 0): 1}).divide_monomial(2, 0)


def test_equality_is_window_aware():
    a = BiSeries({(0, 0): 1, (5, 0): 9}, 8, 8)
    b = BiSeries({(0, 0): 1}, 3, 3)
    assert a == b              # agree on the common window (3,3)
    assert not (a == BiSeries({(0, 0): 2}, 3, 3))
