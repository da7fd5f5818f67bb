"""Univariate formal reduction: ramification, Katz invariant, exponential
parts and the first-kind solve of a linear singular ODS in delta form,

    v dY/dv = v^(-p) * (S0 + S1 v + ...) * Y,

together with the kernels that the bivariate steps share with it: the
splitting recursion (_split_system), the scalar shift (_subtract_scalar)
and the order-by-order solves.

An ODS is a PfaffianSystem: associated_ods(sys, axis) freezes the other
variable of sys at 0, normalizes the pole and puts an exact zero on the
other side, at the window of the axis side.  The Moser reduction, the
splitting and the shift run on that system unchanged; a gauge can leave a
truncated zero on the other side, so the system each of them returns is
embedded again.  The public functions take (sys, axis) and work on the
ODS of sys on that axis.

Exponential parts are returned in integrated form: the diagonal entries of
Q are sums of c * v^(-k) with k a positive rational; the logarithmic
(first-order) term is excluded and feeds the constant exponent matrix
instead.  The Katz invariant is the largest such k (0 for a regular
system).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm

from . import qlinalg
from .errors import (
    AlgebraicExtensionRequired,
    IntegrabilityViolation,
    NotSplittable,
    PreconditionViolated,
    ReductionError,
)
from .matrices import LaurentMatrix, SeriesMatrix
from .moser import reduce_axis, theta_poly
from .polyq import factor_rational
from .series import BiSeries, exponent, other
from .system import GaugeTransform, PfaffianSystem, apply_gauge


def associated_ods(sys: PfaffianSystem, axis: str) -> PfaffianSystem:
    """The ODS of sys on `axis`: the other variable frozen at 0, the pole
    normalized, and an exact zero on the other side at the window of the
    axis side.  It is its own associated ODS."""
    return _embed(axis, sys.n, sys.pole(axis),
                  sys.side(axis).eval_zero_matrix(other(axis)))


def _embed(axis, n, pole, mat):
    """The ODS v dY/dv = v^(-pole) mat Y on `axis`, mat in v alone."""
    zero = SeriesMatrix.zeros(n, n, *mat.window)
    if axis == "x":
        return PfaffianSystem.make(n, pole, 0, mat, zero, strict=False)
    return PfaffianSystem.make(n, 0, pole, zero, mat, strict=False)


# -- splitting ------------------------------------------------------------------


def _eigen_groups(a0):
    """The irreducible factors of the characteristic polynomial, as
    [(factor_coeffs, multiplicity)] (factor_rational)."""
    return factor_rational(qlinalg.charpoly(a0))


def _split_system(sys: PfaffianSystem, axis, groups):
    """Block-decouple both subsystems along the factor groups (from
    _eigen_groups, at least two) of the leading constant on `axis`.

    A constant conjugation block-diagonalizes that leading constant, and
    T = I plus off-diagonal corrections is solved order by order in total
    degree through Sylvester equations on the splitting axis, over the
    cells x^i y^j that the conjugated matrix's support reaches.  Both
    transformed subsystems are certified block diagonal on the window.
    Returns (gauge, [blocks]).
    """
    lead = sys.side(axis).constant_part()
    n = sys.n
    kernels = []
    for fc, mult in groups:
        # The kernel of fc(lead)^mult, the generalized eigenspace.
        f = power = qlinalg.poly_eval_matrix(fc, lead)
        for _ in range(mult - 1):
            power = qlinalg.mul(power, f)
        kernels.append(qlinalg.kernel(power))
    sizes = [len(ker) for ker in kernels]
    if sum(sizes) != n:
        raise ReductionError("kernel projections do not fill the space")
    vmat = qlinalg.transpose(qlinalg.vstack(kernels))
    tx, ty = sys.window
    const_gauge = GaugeTransform.of_constant(vmat, tx, ty, kind="splitting")
    work = apply_gauge(sys, const_gauge).to_system()

    offs = _block_ranges(sizes)
    main = work.side(axis)
    pole = work.pole(axis)
    lead0 = main.constant_part()
    blocks0 = [qlinalg.submatrix(lead0, range(a, b), range(a, b)) for a, b in offs]

    # Solve T = I + sum T_(i,j) x^i y^j (off-diagonal blocks) from the
    # splitting-axis equation; each total-degree slice is triangular in
    # the earlier coefficients.  T stays on the splitting axis and the
    # axes that the support of main moves along.
    eye = qlinalg.identity(n)
    t_coeffs = {(0, 0): eye}
    s_tilde = {(0, 0): lead0}
    solvers = {}
    main_coeffs = main.coefficients()
    nx = tx if axis == "x" or any(a for a, _ in main_coeffs) else 1
    ny = ty if axis == "y" or any(b for _, b in main_coeffs) else 1
    for i, j in sorted(product(range(nx), range(ny)), key=sum)[1:]:
        terms = _known_terms(main_coeffs, t_coeffs, s_tilde, (i, j))
        kv, kw = exponent(axis, i, j)   # exponents of v and the other variable
        shift = 0
        if pole >= 1:
            # -v^p delta(T) has -kk T_key at (i, j), so R gains kk T_key.
            kk = kv - pole
            key = exponent(axis, kk, kw)
            if kk >= 1 and key in t_coeffs:
                terms.append((kk, t_coeffs[key], eye))
        else:
            shift = kv
        step = _split_order(qlinalg.dot(terms, (n, n)), offs, blocks0, shift,
                            solvers)
        if step is None:
            raise NotSplittable(
                f"resonant Sylvester block at order {(i, j)} (pole 0 with "
                "integer eigenvalue difference)"
            )
        t_new, st_new = step
        if not qlinalg.is_zero(t_new):
            t_coeffs[(i, j)] = t_new
        if not qlinalg.is_zero(st_new):
            s_tilde[(i, j)] = st_new
    # The series factor acts on the conjugated system; the gauge of sys
    # is the constant factor, then the series factor.
    series_gauge = unipotent_gauge(t_coeffs, n, tx, ty, "splitting")
    full = apply_gauge(work, series_gauge).to_system()
    for mat in (full.amat, full.bmat):
        for (a, b) in offs:
            for i in range(a, b):
                for j in range(n):
                    if not (a <= j < b) and not mat.at(i, j).is_zero():
                        raise IntegrabilityViolation(
                            "splitting left a coupling block nonzero within "
                            "the window",
                            window=mat.window,
                        )
    blocks = []
    for (a, b) in offs:
        idx = list(range(a, b))
        blocks.append(PfaffianSystem.make(
            b - a, full.p, full.q, full.amat.submatrix(idx, idx),
            full.bmat.submatrix(idx, idx), strict=False))
    return const_gauge.compose(series_gauge), blocks


def _known_terms(s, t, st, k):
    """The qlinalg.dot terms of R_k, the known side of the order-k
    equation of a gauge T = sum T_m with T[S] = S~ and T_0 = I, the
    coefficients of S, T and S~ keyed by exponent pair.

    The coefficient at k of S T - T S~ is S_0 T_k - T_k S~_0 - S~_k, the
    unknowns, plus products of known coefficients; R_k is minus those
    products, so the unknowns equal R_k.  t and st hold the coefficients
    below k.  The delta(T) terms are the caller's.
    """
    i, j = k
    terms = [(-1, s_c, t[(i - a, j - b)]) for (a, b), s_c in s.items()
             if (a, b) != (0, 0) and (i - a, j - b) in t]
    terms += [(1, t_c, st[(i - a, j - b)]) for (a, b), t_c in t.items()
              if (a, b) != (0, 0) and (i - a, j - b) in st]
    return terms


def _block_ranges(sizes):
    """[(start, end)] of consecutive diagonal blocks of the given sizes."""
    offs = []
    off = 0
    for s in sizes:
        offs.append((off, off + s))
        off += s
    return offs


def _split_order(r, offs, blocks0, shift, solvers):
    """One order of a splitting recursion.

    r is the order's known part (_known_terms).  Its diagonal blocks, sign
    flipped, are the order's coefficient of the split system S~; each
    off-diagonal block (a, b) of T solves (N_a - shift) X - X N_b = r[a, b]
    with N the leading diagonal blocks.  `solvers` keeps one Sylvester
    solver per (block pair, shift) across orders.  Returns (T coefficient,
    S~ coefficient), or None when a block is resonant with a nonzero right
    side; a resonant block with a zero right side is solved by 0.
    """
    n = len(r)
    s_num = [[0] * n for _ in range(n)]
    t_blocks = []
    for ai, (a0, a1) in enumerate(offs):
        for bi, (b0, b1) in enumerate(offs):
            if ai == bi:
                for i in range(a0, a1):
                    s_num[i][b0:b1] = [-v for v in r.num[i][b0:b1]]
                continue
            key = (ai, bi, shift)
            if key not in solvers:
                na = blocks0[ai]
                if shift:
                    na = qlinalg.sub(na, qlinalg.scale(qlinalg.identity(len(na)),
                                                       shift))
                solvers[key] = qlinalg.sylvester_solver(na, blocks0[bi])
            blk = qlinalg.submatrix(r, range(a0, a1), range(b0, b1))
            solve = solvers[key]
            if solve is None:
                if qlinalg.is_zero(blk):
                    continue
                return None
            t_blocks.append((a0, b0, solve(blk)))
    den = lcm(*[x.den for _, _, x in t_blocks])
    t_num = [[0] * n for _ in range(n)]
    for a0, b0, x in t_blocks:
        for i, row in enumerate(x.num, a0):
            t_num[i][b0:b0 + len(row)] = [v * (den // x.den) for v in row]
    return (qlinalg.QMatrix._reduced(t_num, den),
            qlinalg.QMatrix._reduced(s_num, r.den))


def unipotent_gauge(t_coeffs, n, tx, ty, kind) -> GaugeTransform:
    """The gauge T = sum T_(i,j) x^i y^j, with T_(0,0) = I, on the window
    (tx, ty), carrying its inverse U = sum U_(i,j) x^i y^j.

    U comes from the coefficient recursion U_(0,0) = I and
    U_k = -sum_(m != 0) T_m U_(k-m), in row-major order of k, each
    coefficient one dot.  Both are truncated to the window, which is where
    the cofactor inverse of tests/oracle_cofactor.py puts T^(-1) too (its
    determinant is a unit).
    """
    steps = [(e, t) for e, t in t_coeffs.items()
             if e != (0, 0) and not qlinalg.is_zero(t)]
    u_coeffs = {(0, 0): t_coeffs[(0, 0)]}
    # The recursion only reaches exponents on the axes that T moves along.
    for i in range(tx if any(a for (a, _), _ in steps) else 1):
        for j in range(ty if any(b for (_, b), _ in steps) else 1):
            terms = [(-1, t, u_coeffs[(i - a, j - b)]) for (a, b), t in steps
                     if (i - a, j - b) in u_coeffs]
            if terms:
                u = qlinalg.dot(terms)
                if not qlinalg.is_zero(u):
                    u_coeffs[(i, j)] = u
    return GaugeTransform._of(
        LaurentMatrix(SeriesMatrix.from_coefficients(t_coeffs, n, tx, ty)),
        LaurentMatrix(SeriesMatrix.from_coefficients(u_coeffs, n, tx, ty)), kind)


# -- eigenvalue shifting ----------------------------------------------------------


def _subtract_scalar(sys, axis, k, gamma):
    """Remove gamma * var^(p-k) from the axis side's series part, p its
    pole and k <= p; for k = p, validate that the leading constant had
    gamma as its single eigenvalue."""
    n = sys.n
    tx, ty = sys.window
    pole = sys.pole(axis)
    if k > pole:
        raise PreconditionViolated(
            f"shift order {k} exceeds the current pole {pole} on {axis}"
        )
    if k == pole:
        lead = sys.side(axis).constant_part()
        shifted = qlinalg.sub(lead, qlinalg.scale(qlinalg.identity(n), gamma))
        if not qlinalg.is_nilpotent(shifted):
            raise PreconditionViolated(
                f"{gamma} is not the single eigenvalue of the {axis} leading "
                "constant"
            )
    gmat = SeriesMatrix.from_coefficients(
        {exponent(axis, pole - k): qlinalg.scale(qlinalg.identity(n), gamma)},
        n, tx, ty, exact=True)
    if axis == "x":
        return PfaffianSystem.make(n, sys.p, sys.q, sys.amat - gmat, sys.bmat,
                                   strict=False)
    return PfaffianSystem.make(n, sys.p, sys.q, sys.amat, sys.bmat - gmat,
                               strict=False)


# -- Moser reduction and Katz invariant --------------------------------------------


def _reduce_ods(ods: PfaffianSystem, axis):
    """The Moser-irreducible form of an ODS, embedded again when a step
    ran; ods itself, with its cached leading ranks, when none did."""
    gauge, out = reduce_axis(ods, axis)
    return ods if gauge is None else associated_ods(out, axis)


def katz_invariant_ods(sys: PfaffianSystem, axis: str) -> Fraction:
    """Largest slope of the characteristic-polynomial Newton polygon of
    the ODS of sys on `axis`, floored at 0.  Requires a Moser-irreducible
    ODS."""
    ods = associated_ods(sys, axis)
    if ods.pole(axis) > 0 and theta_poly(ods, axis).is_zero():
        raise PreconditionViolated("Katz invariant needs a Moser-irreducible input")
    return _katz(ods, axis)


def _katz(ods: PfaffianSystem, axis) -> Fraction:
    """The Katz invariant of an ODS that is Moser-irreducible on `axis`."""
    p = ods.pole(axis)
    if p == 0:
        return Fraction(0)
    mat = ods.side(axis)
    n = ods.n
    # det(l v^p I - A) = sum_k c_k(A) v^(pk) l^k, read relative to v^(np).
    cp = qlinalg.charpoly(mat.to_rows(), BiSeries.const(1, *mat.window))
    pts = [(k, c.val(axis) + p * k - n * p)
           for k, c in enumerate(cp) if not c.is_zero()]
    return _max_lower_hull_slope(pts)


def _max_lower_hull_slope(pts) -> Fraction:
    """Max slope over the lower convex hull of (degree, valuation) points;
    the rightmost point is the monic top coefficient.  Floored at 0."""
    pts = sorted(pts)
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    best = Fraction(0)
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slope = Fraction(y2 - y1, x2 - x1)
        if slope > best:
            best = slope
    return best


def ramify_ods(sys: PfaffianSystem, axis: str, m: int) -> PfaffianSystem:
    """The ODS of sys on `axis` after v = t^m: the matrix becomes
    m * S(t^m) with pole m*p."""
    if m < 1:
        raise PreconditionViolated("ramification index must be >= 1")
    return _ramify(associated_ods(sys, axis), axis, m)


def _ramify(ods: PfaffianSystem, axis, m):
    if m == 1:
        return ods
    mat = SeriesMatrix(ods.n, ods.n, [e.ramify(axis, m) * m
                                      for e in ods.side(axis).entries])
    return _embed(axis, ods.n, ods.pole(axis) * m, mat)


# -- exponential parts ---------------------------------------------------------------


@dataclass(frozen=True)
class ExponentialPart:
    """Integrated exponential behavior of one solution group.

    q_terms maps a positive rational exponent k to the coefficient of
    v^(-k) in Q; the first-order (logarithmic) data is excluded.
    """

    q_terms: tuple          # sorted ((Fraction k, Fraction c), ...)
    multiplicity: int

    @classmethod
    def make(cls, terms: dict, multiplicity: int):
        clean = {Fraction(k): Fraction(c) for k, c in terms.items() if c != 0}
        if any(k <= 0 for k in clean):
            raise ValueError("Q exponents must be positive")
        return cls(tuple(sorted(clean.items())), multiplicity)

    @property
    def ramification(self) -> int:
        return lcm(*(k.denominator for k, _ in self.q_terms))

    def katz(self) -> Fraction:
        return max((k for k, _ in self.q_terms), default=Fraction(0))

    def is_zero(self) -> bool:
        return not self.q_terms


def exponential_parts_ods(sys: PfaffianSystem, axis: str) -> list[ExponentialPart]:
    """Exponential parts of the ODS of sys on `axis`; full recursion:
    split, shift, Moser-reduce, ramify, recurse."""
    out = []
    _exp_recurse(associated_ods(sys, axis), axis, Fraction(1), {}, out, depth=0)
    out.sort(key=lambda p: (p.q_terms, p.multiplicity))
    if sum(p.multiplicity for p in out) != sys.n:
        raise ReductionError("exponential-part multiplicities do not sum to n")
    return out


def _merge_term(collected, k, c):
    if c == 0:
        return
    k = Fraction(k)
    collected[k] = collected.get(k, Fraction(0)) + c
    if collected[k] == 0:
        del collected[k]


def _exp_recurse(ods: PfaffianSystem, axis, scale: Fraction, collected: dict,
                 out, depth):
    """ods is an ODS on `axis` (associated_ods); scale = 1/s where the
    current variable t satisfies t = v^(1/s); collected maps absolute
    exponents of v to Q coefficients."""
    n, p = ods.n, ods.pole(axis)
    if depth > 16 + 4 * n * (p + 2):
        raise ReductionError("exponential-part recursion exceeded its bound")
    if p == 0:
        out.append(ExponentialPart.make(dict(collected), n))
        return
    mat = ods.side(axis)
    if n == 1:
        col = dict(collected)
        e = mat.at(0, 0)
        for j in range(p):
            a_j = e.coeff(*exponent(axis, j))
            if a_j:
                _merge_term(col, Fraction(p - j) * scale, -a_j / (p - j))
        out.append(ExponentialPart.make(col, 1))
        return
    groups = _eigen_groups(mat.constant_part())
    if len(groups) >= 2:
        _, blocks = _split_system(ods, axis, groups)
        for b in blocks:
            _exp_recurse(associated_ods(b, axis), axis, scale, dict(collected),
                         out, depth + 1)
        return
    fc, _ = groups[0]
    if len(fc) > 2:
        raise AlgebraicExtensionRequired(
            "shift eigenvalue is irrational (irreducible factor of degree "
            f"{len(fc) - 1})",
            factor=fc,
        )
    gamma = -fc[0]
    if gamma != 0:
        # The formal integral of gamma * v^(-p) is -(gamma/p) v^(-p).
        col = dict(collected)
        _merge_term(col, p * scale, -gamma / p)
        shifted = _subtract_scalar(ods, axis, p, gamma)
        _exp_recurse(associated_ods(shifted, axis), axis, scale, col, out,
                     depth + 1)
        return
    # Nilpotent leading matrix: Moser-reduce, then ramify by the Katz
    # denominator and recurse (the split is then guaranteed).
    reduced = _reduce_ods(ods, axis)
    if reduced is not ods:
        _exp_recurse(reduced, axis, scale, collected, out, depth + 1)
        return
    kappa = _katz(ods, axis)
    if kappa == 0:
        raise ReductionError(
            "Moser-irreducible system with positive pole has Katz invariant 0"
        )
    m = kappa.denominator
    if m == 1:
        raise ReductionError(
            "nilpotent Moser-irreducible system with integer Katz invariant; "
            "outside the certified recursion"
        )
    _exp_recurse(_reduce_ods(_ramify(ods, axis, m), axis), axis, scale / m,
                 collected, out, depth + 1)


# -- first-kind fundamental solution ---------------------------------------------------


@dataclass(frozen=True)
class FirstKindSolution:
    phi: SeriesMatrix           # unit series factor
    exponent: tuple             # constant matrix Lambda over Q
    retained: tuple             # ((order, matrix), ...) resonant normal-form terms


def first_kind_fundamental_ods(sys: PfaffianSystem, axis: str) -> FirstKindSolution:
    """Solve Y = Phi * v^Lambda for the ODS of sys on `axis`, of pole
    order zero.

    Phi = I + sum Phi_k v^k is found order by order; at resonant orders
    (integer eigenvalue differences) the offending entries are retained in
    the exponent side (upper-triangular coupling) instead of being
    eliminated.
    """
    ods = associated_ods(sys, axis)
    if ods.pole(axis) != 0:
        raise PreconditionViolated("first-kind solve needs pole order 0")
    n, mat = ods.n, ods.side(axis)
    s_coeffs = mat.coefficients()
    lam0 = s_coeffs.get((0, 0), qlinalg.zeros(n, n))
    t_coeffs = {(0, 0): qlinalg.identity(n)}
    retained = {}           # the retained terms, as the S~ of _known_terms
    # Each order is a triangular solve in a rational eigenbasis of Lambda0,
    # if any, else a Sylvester solve, which a resonant order cannot take.
    tri = qlinalg.common_triangularize([lam0])
    for m in range(1, mat.window[0 if axis == "x" else 1]):
        key = exponent(axis, m)
        r = qlinalg.dot(_known_terms(s_coeffs, t_coeffs, retained, key), (n, n))
        if tri is None:
            shifted = qlinalg.sub(lam0, qlinalg.scale(qlinalg.identity(n), m))
            solve = qlinalg.sylvester_solver(shifted, lam0)
            if solve is None:
                raise AlgebraicExtensionRequired(
                    "resonance handling needs rational eigenvalues"
                )
            t_coeffs[key] = solve(r)
            continue
        u, uinv, (lam_t,) = tri
        rr = qlinalg.mul(qlinalg.mul(uinv, r), u)
        t_m, kept = qlinalg.triangular_solve([(lam_t, m, rr)], n)
        t_coeffs[key] = qlinalg.mul(qlinalg.mul(u, t_m), uinv)
        if kept:
            retained[key] = qlinalg.mul(qlinalg.mul(u, kept[0]), uinv)
    phi = SeriesMatrix.from_coefficients(t_coeffs, n, *mat.window)
    return FirstKindSolution(
        phi=phi, exponent=lam0,
        retained=tuple((sum(e), mat) for e, mat in retained.items()))
