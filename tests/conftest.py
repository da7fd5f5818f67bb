import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import settings

from pfaffred.matrices import LaurentMatrix, SeriesMatrix
from pfaffred.ods import associated_ods
from pfaffred.series import BiSeries
from pfaffred.system import GaugeTransform, PfaffianSystem
from pfaffred.io import parse_system

# Property tests draw the same examples on every run, so the suite stays
# deterministic and no example database is written.
settings.register_profile(
    "pfaffred", derandomize=True, deadline=None, max_examples=40, database=None
)
settings.load_profile("pfaffred")

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

T = 8


@pytest.fixture
def exm():
    return parse_system(FIXTURES / "exm.json")


@pytest.fixture
def exmnaive():
    return parse_system(FIXTURES / "exmnaive.json")


def fixture_path(name):
    return FIXTURES / name


def rand_frac(rng, lo=-4, hi=4, den=3):
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def poly_series(coeffs, tx=T, ty=T):
    """Exact polynomial BiSeries from a {(i, j): value} dict."""
    return BiSeries(coeffs, tx, ty, exact=True)


def const_mat(rows, tx=T, ty=T):
    return SeriesMatrix.from_rational_rows(rows, tx, ty)


def ods_system(var, mat, p, t=T, exact=True):
    """The ODS v dY/dv = v^(-p) mat Y on axis var, as the PfaffianSystem
    that associated_ods returns (its other side an exact zero).  mat is a
    SeriesMatrix in var alone, or rows of {order: coefficient} entries,
    each a series on the window (t, t), exact or truncated."""
    if not isinstance(mat, SeriesMatrix):
        mat = SeriesMatrix.from_rows([
            [BiSeries({((k, 0) if var == "x" else (0, k)): c
                       for k, c in terms.items()}, t, t, exact=exact)
             for terms in row] for row in mat])
    n = mat.rows
    zero = SeriesMatrix.zeros(n, n, *mat.window)
    if var == "x":
        return associated_ods(PfaffianSystem(n, p, 0, mat, zero), "x")
    return associated_ods(PfaffianSystem(n, 0, p, zero, mat), "y")


def random_unimodular(rng, n=2, tx=T, ty=T, max_deg=2, vars_=("x", "y")):
    """I + strictly triangular polynomial parts composed both ways, then a
    constant invertible: always unimodular, hence compatible."""
    def tri(upper):
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                if i == j:
                    row.append(BiSeries.const(1, tx, ty))
                elif (j > i) == upper and rng.random() < 0.8:
                    terms = {}
                    for _ in range(2):
                        dx = rng.randint(0, max_deg) if "x" in vars_ else 0
                        dy = rng.randint(0, max_deg) if "y" in vars_ else 0
                        c = rand_frac(rng)
                        if c:
                            terms[(dx, dy)] = terms.get((dx, dy), Fraction(0)) + c
                    row.append(BiSeries(terms, tx, ty, exact=True))
                else:
                    row.append(BiSeries.zero(tx, ty))
            rows.append(row)
        return SeriesMatrix.from_rows(rows)

    g = unipotent_gauge(tri(True)).compose(unipotent_gauge(tri(False)))
    c = random_invertible_const(rng, n)
    return g.compose(GaugeTransform.of_constant(c, tx, ty, kind="constant"))


def unipotent_gauge(m, kind="unimodular"):
    """The gauge factor m = I - N, N nilpotent, with its exact inverse
    sum_(k<n) N^k."""
    eye = SeriesMatrix.identity(m.rows, *m.window)
    nil, inv, power = eye - m, eye, eye
    for _ in range(m.rows - 1):
        power = power * nil
        inv = inv + power
    return GaugeTransform.of_series(m, kind, LaurentMatrix(inv))


def random_invertible_const(rng, n=2):
    from pfaffred import qlinalg

    while True:
        m = tuple(
            tuple(Fraction(rng.randint(-3, 3)) for _ in range(n)) for _ in range(n)
        )
        if qlinalg.rank(m) == len(m):
            return m


def diag_seed_system(rng, n=2, p=1, q=1, tx=T, ty=T):
    """Integrable seed: diagonal matrices of scalar Laurent data (distinct
    or repeated eigenvalues), trivially integrable."""
    def side(pole, var):
        rows = []
        diag_consts = [rand_frac(rng) for _ in range(n)]
        for i in range(n):
            row = []
            for j in range(n):
                if i != j:
                    row.append(BiSeries.zero(tx, ty))
                else:
                    terms = {}
                    for k in range(pole + 1):
                        c = rand_frac(rng) if k < pole else diag_consts[i]
                        if c:
                            e = (k, 0) if var == "x" else (0, k)
                            terms[e] = c
                    row.append(BiSeries(terms, tx, ty, exact=True))
            rows.append(row)
        return SeriesMatrix.from_rows(rows)

    # Shared scalar part keeps the pair commuting and integrable.
    amat = side(p, "x")
    bmat = side(q, "y")
    return PfaffianSystem.make(n, p, q, amat, bmat, strict=False)


def scalar_seed_system(rng, n=2, p=1, q=1, tx=T, ty=T):
    """Seed with SCALAR Laurent parts (multiples of I) plus constant
    commuting tails: regular-singular-style, always integrable."""
    def scalar_side(pole, var, extra):
        rows = []
        coeffs = [rand_frac(rng) for _ in range(pole)]
        for i in range(n):
            row = []
            for j in range(n):
                terms = {}
                if i == j:
                    for k, c in enumerate(coeffs):
                        if c:
                            terms[(k, 0) if var == "x" else (0, k)] = c
                val = extra[i][j]
                if val:
                    e = (pole, 0) if var == "x" else (0, pole)
                    terms[e] = terms.get(e, Fraction(0)) + val
                row.append(BiSeries(terms, tx, ty, exact=True))
            rows.append(row)
        return SeriesMatrix.from_rows(rows)

    lam1 = [[rand_frac(rng) if i == j else Fraction(0) for j in range(n)]
            for i in range(n)]
    lam2 = [[rand_frac(rng) if i == j else Fraction(0) for j in range(n)]
            for i in range(n)]
    amat = scalar_side(p, "x", lam1)
    bmat = scalar_side(q, "y", lam2)
    return PfaffianSystem.make(n, p, q, amat, bmat, strict=False)


def random_integrable_system(rng, n=2, p=1, q=1, gauges=1):
    """Integrable system: a seed normal form moved by random compatible
    (unimodular) gauges; integrability is exact by construction."""
    from pfaffred.system import apply_gauge

    sys_obj = diag_seed_system(rng, n=n, p=p, q=q)
    for _ in range(gauges):
        g = random_unimodular(rng, n=n)
        sys_obj = apply_gauge(sys_obj, g).to_system()
    return sys_obj


def count_fractions(monkeypatch):
    """The list of Fractions constructed from now on, by any code."""
    built = []
    inner = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return inner(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    return built


def valid(r):
    """r is in canonical form, and is what the validating constructor
    makes of its own coefficients."""
    assert isinstance(r, BiSeries)
    assert type(r.den) is int and r.den > 0
    assert gcd(r.den, *r.num.values()) == 1
    for (i, j), v in r.num.items():
        assert type(v) is int and v
        assert i >= 0 and j >= 0
        assert r.exact or (i < r.tx and j < r.ty)
    v = BiSeries(r.coeffs, r.tx, r.ty, exact=r.exact)
    assert (r.num, r.den) == (v.num, v.den)
    assert (r.tx, r.ty, r.exact) == (v.tx, v.ty, v.exact)


def report_changes(old, new):
    """Print how many stored digests a regeneration changed, and which:
    the --write modes of the digest tests show their extent this way."""
    changed = sorted(k for k in new if old.get(k) != new[k])
    print(f"{len(changed)} digest(s) changed")
    for k in changed:
        print(f"  {k}")
