"""Pinned outputs of the first-kind solve, ods.first_kind_fundamental_ods.

For each input the pin holds phi's coefficients, exact flags and windows,
the exponent and the retained terms, or the error the solve raises.  The
inputs are the first-kind inputs of tests/test_ods.py and 60 seeded
pole-0 ODS on both axes, n = 1..4, exact and truncated.  Their leading
matrices are C U C^(-1) with U upper triangular over small integers, so
most have integer eigenvalue differences and reach the resonant orders.

The pins live in tests/first_kind_pins.json.  Regenerating them is a
deliberate step, taken only for an intended change of output, and each
regeneration is recorded in CHANGES.md:

    PYTHONPATH=src python tests/test_first_kind_pins.py --write
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from pfaffred import qlinalg
from pfaffred.errors import PfaffredError
from pfaffred.ods import first_kind_fundamental_ods

from conftest import ods_system

PINS = Path(__file__).resolve().parent / "first_kind_pins.json"
SEEDS = range(60)


def uni(var, entries_terms, t=8, exact=True):
    """(var, the ODS of pole 0 on var) from {order: coefficient} entries."""
    return var, ods_system(var, entries_terms, 0, t, exact)


def ods_suite_inputs():
    """The first-kind inputs of tests/test_ods.py."""
    return {
        "constant-diag": uni("x", [[{0: -2}, {}], [{}, {0: 1}]]),
        "nonresonant": uni("x", [[{0: Fraction(1, 2)}, {1: 1}],
                                 [{1: -2}, {0: 0}]]),
        "scalar-exp": uni("x", [[{0: 5, 1: 1}]]),
        "resonant": uni("x", [[{0: 0}, {}], [{1: 1}, {0: 1}]]),
    }


def seeded_ods(seed):
    rng = random.Random(f"first-kind:{seed}")
    var = rng.choice("xy")
    n = rng.randint(1, 4)
    t = rng.randint(3, 7)
    exact = rng.random() < 0.5
    upper = [[Fraction(rng.randint(-1, 2)) if i == j else
              Fraction(rng.randint(-1, 1)) if j > i else Fraction(0)
              for j in range(n)] for i in range(n)]
    while True:
        c = tuple(tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))
                  for _ in range(n))
        if qlinalg.rank(c) == n:
            break
    lead = qlinalg.mul(qlinalg.mul(c, qlinalg.QMatrix(upper)), qlinalg.inverse(c))
    entries = []
    for i in range(n):
        row = []
        for j in range(n):
            terms = {0: lead[i][j]}
            for k in range(1, t):
                if rng.random() < 0.3:
                    terms[k] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            row.append(terms)
        entries.append(row)
    return uni(var, entries, t, exact)


def inputs():
    cases = ods_suite_inputs()
    cases.update((f"seed{s}", seeded_ods(s)) for s in SEEDS)
    return cases


def frac(c):
    return f"{c.numerator}/{c.denominator}"


def qmat_doc(m):
    return [[frac(c) for c in row] for row in m]


def outcome(case):
    """The solve's output on a (var, ODS) case as a JSON-ready dict."""
    var, ods = case
    try:
        sol = first_kind_fundamental_ods(ods, var)
    except PfaffredError as err:
        return {"error": type(err).__name__, "message": str(err)}
    return {
        "phi": [{"coeffs": [[i, j, frac(c)] for (i, j), c in e.terms()],
                 "exact": e.exact, "window": list(e.window)}
                for e in sol.phi.entries],
        "exponent": qmat_doc(sol.exponent),
        "retained": [[k, qmat_doc(m)] for k, m in sol.retained],
    }


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text())


INPUTS = inputs()


@pytest.mark.parametrize("name", list(INPUTS))
def test_first_kind_matches_pin(name, pins):
    assert outcome(INPUTS[name]) == pins[name]


def test_pins_reach_resonant_orders(pins):
    # Most seeded inputs retain a term or need the resonant elimination;
    # the pins would pin little otherwise.
    retained = [name for name, pin in pins.items() if pin.get("retained")]
    assert len(retained) >= 15
    assert "resonant" in retained


def write_all():
    lines = [f"{json.dumps(name)}: {json.dumps(outcome(case), sort_keys=True)}"
             for name, case in INPUTS.items()]
    PINS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {PINS.name}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_first_kind_pins.py "
                 "--write")
    write_all()
