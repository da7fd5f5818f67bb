"""Univariate polynomials over Q: factorization and rational roots.

Polynomials are lists of Fraction coefficients, low degree first.  Rational
roots are found with exact integer arithmetic:

1. clear denominators to a primitive integer f and strip its t^k factor;
2. take the squarefree part h = f / gcd(f, f'), the gcd by primitive
   pseudo-remainders over Z; h = f with no gcd when f is squarefree
   modulo the smallest odd prime that does not divide lc(f);
3. take the smallest odd prime p that does not divide lc(h) and for which
   h mod p is squarefree, and find the roots of h mod p by evaluation;
4. Newton-lift each root modulo p^(2^k) > 2 (|lc(h)| + max |h_i|), which
   bounds |lc(h) r| for every root r (Cauchy), and keep the candidate
   r = s / lc(h), s the symmetric residue of lc(h) * root, when h(r) = 0
   exactly;
5. count each root's multiplicity in f by repeated exact division by d t - s.

What is left of f once its rational roots are divided out has no linear
factor over Q.  Of degree 2 or 3 it is therefore irreducible, with
multiplicity 1.  Only a leftover of degree >= 4 is handed to sympy, which
is imported then and not before.

factor_rational lists the factors in sympy's order (polyutils._sort_factors):
by degree, then multiplicity, then the coefficients, highest degree first,
of the factor's primitive integer form with a positive leading coefficient.
rational_roots lists the roots in the order of their linear factors there.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .series import q


def _strip(f):
    """f without its zero high-degree coefficients."""
    while f and not f[-1]:
        f = f[:-1]
    return f


def _derivative(f):
    return [i * c for i, c in enumerate(f)][1:]


def _primitive(f):
    """The primitive integer polynomial with a positive leading coefficient
    that is a rational multiple of f (nonzero, no zero high coefficient;
    integer or Fraction coefficients)."""
    d = lcm(*[c.denominator for c in f])
    ints = [c.numerator * (d // c.denominator) for c in f]
    g = gcd(*ints)
    if ints[-1] < 0:
        g = -g
    return [c // g for c in ints]


def _prem(f, g):
    """A pseudo-remainder of f by g over Z: lc(g)^k f mod g for some k."""
    r, lg, dg = list(f), g[-1], len(g) - 1
    while len(r) > dg:
        c, shift = r[-1], len(r) - 1 - dg
        r = [lg * x for x in r]
        for i, gi in enumerate(g):
            r[shift + i] -= c * gi
        r = _strip(r)
    return r


def _gcd(f, g):
    """The primitive gcd over Z of f and g (g nonzero), by primitive
    pseudo-remainder sequences."""
    f, g = _primitive(f), _primitive(g)
    while True:
        r = _prem(f, g)
        if not r:
            return g
        f, g = g, _primitive(r)


def _quo(f, g):
    """f / g over Z for a primitive g, or None when g does not divide f."""
    r, lg, dg = list(f), g[-1], len(g) - 1
    out = [0] * (len(f) - dg)
    for k in range(len(out) - 1, -1, -1):
        c, rem = divmod(r[k + dg], lg)
        if rem:
            return None
        out[k] = c
        for i, gi in enumerate(g):
            r[k + i] -= c * gi
    return None if any(r) else out


def _eval(f, x, m):
    """f(x) mod m, by Horner."""
    v = 0
    for c in reversed(f):
        v = (v * x + c) % m
    return v


def _squarefree_mod(f, p):
    """Whether f mod p (of the same degree) has no repeated factor: its
    gcd with its derivative over GF(p) is a constant."""
    a = [c % p for c in f]
    b = _strip([c % p for c in _derivative(a)])
    while b:
        inv = pow(b[-1], -1, p)
        r = list(a)
        while len(r) >= len(b):
            c, shift = r[-1] * inv % p, len(r) - len(b)
            for i, bi in enumerate(b):
                r[shift + i] = (r[shift + i] - c * bi) % p
            r = _strip(r)
        a, b = b, r
    return len(a) == 1


def _odd_primes():
    p = 3
    while True:
        if all(p % d for d in range(3, int(p ** 0.5) + 1, 2)):
            yield p
        p += 2


def _simple_roots(h):
    """The rational roots of a squarefree primitive integer polynomial h
    with h(0) != 0, as (d, s) for the root s / d in lowest terms, d > 0."""
    n, lc = len(h) - 1, h[-1]
    p = next(p for p in _odd_primes()
             if lc % p and _squarefree_mod(h, p))
    bound = 2 * (abs(lc) + max(abs(c) for c in h))
    dh = _derivative(h)
    roots = []
    for x in range(p):
        if _eval(h, x, p):
            continue
        m = p
        while m <= bound:
            m *= m
            x = (x - _eval(h, x, m) * pow(_eval(dh, x, m), -1, m)) % m
        c = lc * x % m
        if c > m // 2:
            c -= m
        r = Fraction(c, lc)
        s, d = r.numerator, r.denominator
        if sum(hi * s ** i * d ** (n - i) for i, hi in enumerate(h)) == 0:
            roots.append((d, s))
    return roots


def _split(coeffs):
    """(roots, leftover) of a polynomial over Q: roots [(d, s, mult)] for
    each rational root s / d, d > 0 and s / d in lowest terms, and the
    primitive integer polynomial that is left once they are divided out."""
    f = _strip([q(c) for c in coeffs])
    if not f:
        return [], [1]
    f = _primitive(f)
    k = next(i for i, c in enumerate(f) if c)
    f = f[k:]
    roots = [(1, 0, k)] if k else []
    if len(f) > 1:
        p = next(p for p in _odd_primes() if f[-1] % p)
        h = f if _squarefree_mod(f, p) else _quo(f, _gcd(f, _derivative(f)))
        for d, s in _simple_roots(h):
            mult = 0
            while (g := _quo(f, [-s, d])) is not None:
                f, mult = g, mult + 1
            roots.append((d, s, mult))
    return roots, f


def factor_rational(coeffs):
    """Irreducible factorization over Q, without the constant factor:
    [(factor_coeffs, multiplicity), ...] with monic factors, low-degree-first
    coefficient lists, in sympy's order (see the module docstring)."""
    roots, rest = _split(coeffs)
    factors = [([-s, d], mult) for d, s, mult in roots]
    if len(rest) in (3, 4):
        factors.append((rest, 1))
    elif len(rest) > 4:
        import sympy

        t = sympy.Symbol("t")
        for g, mult in sympy.Poly(rest[::-1], t, domain="ZZ").factor_list()[1]:
            g = _primitive([int(c) for c in reversed(g.all_coeffs())])
            factors.append((g, int(mult)))
    factors.sort(key=lambda fm: (len(fm[0]), fm[1], fm[0][::-1]))
    return [([Fraction(c, f[-1]) for c in f], mult) for f, mult in factors]


def rational_roots(coeffs):
    """Rational roots with multiplicities, [(root, mult), ...], in the order
    of their linear factors in factor_rational."""
    roots, _ = _split(coeffs)
    roots.sort(key=lambda r: (r[2], r[0], -r[1]))
    return [(Fraction(s, d), mult) for d, s, mult in roots]
