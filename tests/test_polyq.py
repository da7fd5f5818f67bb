"""polyq against sympy, and the laziness of its sympy import.

factor_rational must give sympy's factorization over Q, monic factors in
sympy's order, and rational_roots every rational root that sympy finds.
Only a factor of degree >= 4 without a rational root may import sympy;
the commands on the fixtures and on perfbench's timed cases never do."""

import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import sympy
from hypothesis import given, settings, strategies as st

from pfaffred.polyq import factor_rational, rational_roots

ROOT = Path(__file__).resolve().parent.parent
T = sympy.Symbol("t")


def sympy_factors(coeffs):
    """sympy's factor_list over QQ, each factor made monic, low degree
    first."""
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(coeffs)], T, domain="QQ")
    out = []
    for f, mult in poly.factor_list()[1]:
        fc = [Fraction(int(c.p), int(c.q)) for c in reversed(f.all_coeffs())]
        out.append(([c / fc[-1] for c in fc], mult))
    return out


def poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def agrees_with_sympy(coeffs):
    want = sympy_factors(coeffs)
    assert factor_rational(coeffs) == want
    assert rational_roots(coeffs) == [(-f[0], m) for f, m in want if len(f) == 2]


small = st.fractions(min_value=-6, max_value=6, max_denominator=4)
big = st.integers(2**60, 2**70).flatmap(
    lambda b: st.builds(Fraction, st.integers(-b, b), st.integers(1, b)))
nonzero = st.fractions(min_value=-5, max_value=5, max_denominator=3).filter(bool)
# A factor is a linear t - r (r possibly huge) or a random polynomial of
# degree 2 or 3, which may or may not split; each enters 1 to 3 times.
factor = st.one_of(
    st.builds(lambda r: [-r, Fraction(1)], st.one_of(small, big)),
    st.builds(lambda cs, lead: cs + [lead],
              st.lists(small, min_size=2, max_size=3), nonzero),
)


@settings(max_examples=200)
@given(st.lists(st.tuples(factor, st.integers(1, 3)), max_size=4), nonzero,
       st.integers(0, 3))
def test_factor_rational_matches_sympy(factors, lead, zeros):
    coeffs = [lead]
    for f, mult in factors:
        for _ in range(mult):
            coeffs = poly_mul(coeffs, f)
    agrees_with_sympy([Fraction(0)] * zeros + coeffs)


def test_named_cases():
    f = Fraction
    cases = [
        [f(1)],                                   # charpoly of a 0x0 matrix
        [f(-7, 3)],                               # a constant
        [f(0), f(0), f(4), f(-4), f(1)],          # t^2 (t - 2)^2
        [f(-3), f(0), f(12)],                     # 3 (2t - 1)(2t + 1)
        [f(3, 2), f(-7, 2), f(5, 2), f(-1, 2)],   # -(t - 1)^2 (t - 3) / 2
        [f(1), f(0), f(0), f(0), f(1)],           # t^4 + 1
        [f(2), f(0), f(3), f(0), f(1)],           # (t^2 + 1)(t^2 + 2)
        [f(1), f(0), f(2), f(0), f(1)],           # (t^2 + 1)^2
        [f(0), f(-1), f(1), f(-1), f(1), f(-1), f(1)],  # t (t - 1)(t^4 + t^2 + 1)
        [f(2**64 + 1, 3), f(-(2**61 - 1))],       # a 64-bit root
    ]
    for coeffs in cases:
        agrees_with_sympy(coeffs)


GUARD = """
import contextlib, io, json, shutil, sys, tempfile
from pathlib import Path

sys.path.insert(0, {perfbench!r})
import pfaffred.cli
import inputs

def run(path, command, flags=()):
    with contextlib.redirect_stdout(io.StringIO()):
        pfaffred.cli.main([command, str(path), *flags])
    assert "sympy" not in sys.modules, (path.name, command)

with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    for name in ("exm.json", "exmnaive.json"):
        path = Path(shutil.copy({fixtures!r} + "/" + name, tmp))
        for command in ("expparts", "katz", "solve"):
            run(path, command)
    for workload in ("worked", "dense", "blocks"):
        for seed in (1, 2, 3):
            for case in inputs.make_cases(workload, seed):
                path = tmp / (case.name + ".json")
                path.write_text(json.dumps(case.doc))
                for command in case.commands:
                    run(path, command, case.flags())

from fractions import Fraction
from pfaffred.polyq import factor_rational
factor_rational([Fraction(1), 0, 0, 0, Fraction(1)])
assert "sympy" in sys.modules
"""


def test_sympy_is_imported_only_for_a_leftover_of_degree_four():
    """In a fresh interpreter, no command on the fixtures or on perfbench's
    worked/dense/blocks cases (seeds 1..3) imports sympy, and factoring
    t^4 + 1 does."""
    code = textwrap.dedent(GUARD).format(perfbench=str(ROOT / "perfbench"),
                                         fixtures=str(ROOT / "fixtures"))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert done.returncode == 0, done.stderr
