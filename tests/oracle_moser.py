"""Brute-force reducibility oracle for 2x2 subsystems.

The gauge family is {C * S, S * C} where S ranges over the effective
diagonal monomial scalings diag(x^k, 1), diag(1, x^k) with k <= 2 and C
over a fixed seeded list of constant invertible matrices closed under
inverses.  A member succeeds when the Moser rank max(0, p + rank/n)
strictly drops after pole renormalization.  Reducible test instances are
generated as family images of rank-deficient seeds, so every reducible
instance is family-witnessable; theta soundness covers the converse.

The module also keeps the cofactor expansion over lambda-polynomials that
computed theta and the Katz Newton polygon before qlinalg.charpoly did,
as that function's reference, and the x <-> y swap (swap_mat, flip,
flip_gauge) that ran the y-axis Moser step on a swapped copy of the
system before the step read both axes directly: the reference of
tests/test_axis_generic.py.
"""

import random
from fractions import Fraction

from pfaffred import qlinalg
from pfaffred.matrices import LaurentMatrix, SeriesMatrix
from pfaffred.moser import moser_rank
from pfaffred.ods import _max_lower_hull_slope
from pfaffred.series import BiSeries
from pfaffred.system import GaugeTransform, PfaffianSystem, apply_gauge

T = 7


# -- the x <-> y swap -----------------------------------------------------------


def swap_series(e):
    """e with x and y exchanged, exponents and nominal orders."""
    return BiSeries._of({(j, i): v for (i, j), v in e.num.items()}, e.den,
                        e.ty, e.tx, e.exact)


def swap_mat(m):
    return SeriesMatrix(m.rows, m.cols, [swap_series(e) for e in m.entries])


def flip(sys):
    """Swap the roles of the two subsystems (and of x and y)."""
    return PfaffianSystem(sys.n, sys.q, sys.p, swap_mat(sys.bmat),
                          swap_mat(sys.amat))


def flip_gauge(g):
    """g with x and y exchanged in every factor and its inverse."""
    def flip_all(mats):
        return tuple(LaurentMatrix(swap_mat(f.series), f.py, f.px) for f in mats)

    return GaugeTransform(factors=flip_all(g.factors),
                          inverses=flip_all(g.inverses), provenance=g.provenance)


def constant_candidates(seed=2024, count=10):
    rng = random.Random(seed)
    out = [qlinalg.identity(2)]
    while len(out) < count:
        m = tuple(
            tuple(Fraction(rng.randint(-2, 2)) for _ in range(2)) for _ in range(2)
        )
        if qlinalg.rank(m) == len(m):
            out.append(m)
            out.append(qlinalg.inverse(m))
    return out


def shearing_members():
    out = []
    for k in range(0, 3):
        out.append(("x0", k))   # diag(x^k, 1)
        if k:
            out.append(("x1", k))  # diag(1, x^k)
    return out


def _monomial_gauge(kind, k):
    exps = [k, 0] if kind == "x0" else [0, k]
    return GaugeTransform.monomial("x", exps, T, T, kind="shearing")


def family_members(cands):
    members = []
    for c in cands:
        gc = GaugeTransform.of_constant(c, T, T)
        for kind, k in shearing_members():
            gs = _monomial_gauge(kind, k)
            if k == 0:
                members.append(gc)
                continue
            members.append(gc.compose(gs))
            members.append(gs.compose(gc))
    return members


def x_moser_rank(sys_obj):
    return moser_rank(sys_obj, "x")


def family_reduces(sys_obj, members):
    """True iff some family member strictly drops the x Moser rank."""
    m0 = x_moser_rank(sys_obj)
    for g in members:
        try:
            moved = apply_gauge(sys_obj, g).to_system()
        except Exception:
            continue
        if x_moser_rank(moved) < m0:
            return True
    return False


def _poly_entry(rng, deg=2, density=0.7):
    terms = {}
    for i in range(deg + 1):
        if rng.random() < density:
            c = Fraction(rng.randint(-3, 3))
            if c:
                terms[(i, 0)] = c
    return BiSeries(terms, T, T, exact=True)


def random_instance(rng, members):
    """An integrable 2x2 system (second subsystem zero, so integrability is
    automatic) with polynomial entries of degree <= 2 and Moser rank > 1.
    Half the draws are family images of rank-deficient seeds and are
    reducible by construction."""
    while True:
        cand = _random_instance_once(rng, members)
        if cand.p >= 1 and x_moser_rank(cand) > 1:
            return cand


def _random_instance_once(rng, members):
    zero = SeriesMatrix.zeros(2, 2, T, T)
    if rng.random() < 0.5:
        # Seed with a singular leading matrix and a vanishing trailing
        # coupling: theta vanishes, and a family member undoes the gauge.
        a0 = [[Fraction(0), Fraction(0)], [Fraction(rng.randint(1, 3)), Fraction(0)]]
        rows = []
        for i in range(2):
            row = []
            for j in range(2):
                terms = {}
                if a0[i][j]:
                    terms[(0, 0)] = a0[i][j]
                if not (i == 0 and j == 1):
                    c = Fraction(rng.randint(-2, 2))
                    if c:
                        terms[(1, 0)] = terms.get((1, 0), Fraction(0)) + c
                c2 = Fraction(rng.randint(-2, 2))
                if c2:
                    terms[(2, 0)] = terms.get((2, 0), Fraction(0)) + c2
                row.append(BiSeries(terms, T, T, exact=True))
            rows.append(row)
        seed = PfaffianSystem.make(2, rng.randint(1, 2),
                                   0, SeriesMatrix.from_rows(rows), zero,
                                   strict=False)
        g = rng.choice(members)
        try:
            moved = apply_gauge(seed, g.inverse()).to_system()
        except Exception:
            moved = seed
        # Keep only degree <= 2 polynomial instances with positive pole.
        if moved.p >= 1 and _max_degree(moved.amat) <= 2:
            return moved
        return seed
    rows = [[_poly_entry(rng) for _ in range(2)] for _ in range(2)]
    return PfaffianSystem.make(2, rng.randint(1, 2), 0,
                               SeriesMatrix.from_rows(rows), zero,
                               strict=False)


def _max_degree(mat):
    deg = 0
    for e in mat.entries:
        for (i, j) in e.coeffs:
            deg = max(deg, i, j)
    return deg


# -- the cofactor expansion that computed theta and the Katz polygon ----------
# _lambda_det is verbatim; the two readers below are its old callers' bodies.


def _lambda_det(mat_rows, n, zero):
    """Determinant of a matrix of lambda-polynomials with BiSeries
    coefficients (low degree first).  Cofactor expansion; n stays small."""

    def poly_mul(a, b):
        out = [None] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca.is_zero():
                continue
            for j, cb in enumerate(b):
                if cb.is_zero():
                    continue
                t = ca * cb
                out[i + j] = t if out[i + j] is None else out[i + j] + t
        return [zero if c is None else c for c in out]

    def poly_add(a, b):
        m = max(len(a), len(b))
        return [
            (a[k] if k < len(a) else zero) + (b[k] if k < len(b) else zero)
            for k in range(m)
        ]

    def expand(rows, col):
        if not rows:
            return [BiSeries.const(1, zero.tx, zero.ty)]
        acc = None
        for idx, r in enumerate(rows):
            entry = mat_rows[r][col]
            if all(c.is_zero() for c in entry):
                continue
            rest = rows[:idx] + rows[idx + 1 :]
            term = poly_mul(entry, expand(rest, col + 1))
            if idx % 2:
                term = [-c for c in term]
            acc = term if acc is None else poly_add(acc, term)
        return acc if acc is not None else [zero]

    return expand(list(range(n)), 0)


def lambda_theta_coeffs(sys, axis, r):
    """Criterion coefficients of det(A0 + x(A1 + l I)) at x^(n-r), by the
    cofactor expansion (y-axis coefficients come back in x, unswapped)."""
    work = sys if axis == "x" else flip(sys)
    n = work.n
    a0 = work.amat.coeff_matrix("x", 0)
    a1 = work.amat.coeff_matrix("x", 1)
    tx, ty = work.amat.window
    zero = BiSeries.zero(tx, ty)
    x = BiSeries.monomial(1, 1, 0, tx, ty)
    rows = [[[a0.at(i, j) + x * a1.at(i, j), x if i == j else zero]
             for j in range(n)] for i in range(n)]
    det = _lambda_det(rows, n, zero)
    out = []
    for k in range(n - r + 1):
        c = det[k] if k < len(det) else zero
        out.append(BiSeries({(0, j): v for (i, j), v in c.coeffs.items()
                             if i == n - r}, c.tx, c.ty, exact=c.exact))
    return out


def lambda_katz(ods, var):
    """Katz invariant from the Newton polygon of det(l v^p I - A), by the
    cofactor expansion; ods must be an ODS on var (ods.associated_ods) and
    Moser-irreducible."""
    n = ods.n
    p, amat = (ods.p, ods.amat) if var == "x" else (ods.q, ods.bmat)
    if p == 0:
        return Fraction(0)
    tx, ty = amat.window
    zero = BiSeries.zero(tx, ty)
    pole_mon = BiSeries.monomial(1, p if var == "x" else 0,
                                 p if var == "y" else 0, tx, ty)
    rows = [[[-amat.at(i, j), pole_mon if i == j else zero]
             for j in range(n)] for i in range(n)]
    det = _lambda_det(rows, n, zero)
    pts = [(k, c.val(var) - n * p) for k, c in enumerate(det) if not c.is_zero()]
    return _max_lower_hull_slope(pts)
