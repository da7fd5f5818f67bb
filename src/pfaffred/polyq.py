"""Univariate polynomials over Q: factorization and rational roots.

Polynomials are lists of Fraction coefficients, low degree first.  The
heavy lifting (irreducible factorization over Q) is delegated to sympy;
everything else is a few lines of exact arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

import sympy

from .series import q

_T = sympy.Symbol("_t")


def _to_sympy(coeffs):
    return sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)],
        _T,
        domain="QQ",
    )


def _from_sympy(poly):
    cs = poly.all_coeffs()
    return [Fraction(int(c.p), int(c.q)) for c in reversed(cs)]


def factor_rational(coeffs):
    """Irreducible factorization over Q.

    Returns (constant, [(factor_coeffs, multiplicity), ...]) with monic
    factors, low-degree-first coefficient lists.
    """
    coeffs = [q(c) for c in coeffs]
    poly = _to_sympy(coeffs)
    const, factors = poly.factor_list()
    out = []
    for f, mult in factors:
        fc = _from_sympy(sympy.Poly(f, _T))
        lead = fc[-1]
        if lead != 1:
            fc = [c / lead for c in fc]
        out.append((fc, int(mult)))
    return Fraction(int(sympy.Rational(const).p), int(sympy.Rational(const).q)), out


def rational_roots(coeffs):
    """Rational roots with multiplicities: [(root, mult), ...]."""
    _, factors = factor_rational(coeffs)
    out = []
    for fc, mult in factors:
        if len(fc) == 2:  # monic linear: c0 + t
            out.append((-fc[0], mult))
    return out

