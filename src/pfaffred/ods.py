"""Univariate formal reduction: splitting, eigenvalue shifting, Moser
reduction, ramification, Katz invariant and exponential parts of a linear
singular ODS in delta form,

    v dY/dv = v^(-p) * (S0 + S1 v + ...) * Y.

The matrix lives on one variable ("x" or "y") of the bivariate series
ring, so a system with the other subsystem identically zero embeds every
ODS into the bivariate Moser machinery unchanged.

Exponential parts are returned in integrated form: the diagonal entries of
Q are sums of c * v^(-k) with k a positive rational; the logarithmic
(first-order) term is excluded and feeds the constant exponent matrix
instead.  The Katz invariant is the largest such k (0 for a regular
system).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import qlinalg
from .errors import (
    AlgebraicExtensionRequired,
    NotSplittable,
    PreconditionViolated,
    ReductionError,
)
from .matrices import SeriesMatrix
from .moser import _lambda_det, reduce_axis, theta_poly
from .polyq import factor_rational
from .series import BiSeries
from .system import GaugeTransform, PfaffianSystem, apply_gauge


@dataclass(frozen=True)
class OdsSystem:
    var: str                 # "x" or "y"
    n: int
    p: int
    amat: SeriesMatrix       # series part, entries supported on var only

    def __post_init__(self):
        for e in self.amat.entries:
            if not e.only_var(self.var):
                raise PreconditionViolated(
                    f"ODS matrix entry involves the other variable: {e!r}"
                )

    @property
    def trunc(self):
        tx, ty = self.amat.window
        return tx if self.var == "x" else ty

    def leading(self):
        """Constant leading matrix S(0)."""
        m = self.amat.eval_zero_matrix("y" if self.var == "x" else "x")
        return m.constant_part()

    def to_pfaffian(self) -> PfaffianSystem:
        tx, ty = self.amat.window
        zero = SeriesMatrix.zeros(self.n, self.n, tx, ty)
        if self.var == "x":
            return PfaffianSystem.make(self.n, self.p, 0, self.amat, zero,
                                       strict=False)
        return PfaffianSystem.make(self.n, 0, self.p, zero, self.amat,
                                   strict=False)

    @classmethod
    def from_pfaffian(cls, sys: PfaffianSystem, var: str):
        mat = sys.amat if var == "x" else sys.bmat
        p = sys.p if var == "x" else sys.q
        return cls(var, sys.n, p, mat)

    def normalized(self) -> "OdsSystem":
        return OdsSystem.from_pfaffian(self.to_pfaffian(), self.var)

    def same_up_to_window(self, other) -> bool:
        return self.to_pfaffian().same_up_to_window(other.to_pfaffian())


def associated_ods(sys: PfaffianSystem, axis: str) -> OdsSystem:
    """Freeze the other variable at 0, keeping the pole order."""
    if axis == "x":
        return OdsSystem("x", sys.n, sys.p, sys.amat.eval_zero_matrix("y"))
    return OdsSystem("y", sys.n, sys.q, sys.bmat.eval_zero_matrix("x"))


# -- splitting ------------------------------------------------------------------


def _eigen_groups(a0):
    """Pairwise-coprime factor powers of the characteristic polynomial.

    Returns [(factor_coeffs, power_coeffs, multiplicity_total)], one entry
    per irreducible factor; power_coeffs = factor^multiplicity expanded.
    """
    cp = qlinalg.charpoly(a0)
    _, factors = factor_rational(cp)
    groups = []
    for fc, mult in factors:
        power = [Fraction(1)]
        for _ in range(mult):
            power = _poly_mul(power, fc)
        groups.append((fc, power, (len(fc) - 1) * mult))
    return groups


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def split_leading(ods: OdsSystem):
    """Decouple along coprime characteristic factors of the leading matrix.

    Returns (gauge, [blocks]): gauge is a constant conjugation making the
    leading matrix block diagonal, composed with I + higher-order
    corrections solved order by order through Sylvester equations; the
    output blocks' characteristic polynomials are the coprime factors.
    """
    a0 = ods.leading()
    groups = _eigen_groups(a0)
    if len(groups) < 2:
        raise NotSplittable(
            "characteristic polynomial of the leading matrix is a power of "
            "one irreducible factor"
        )
    n = ods.n
    # Kernel projections: basis of ker(power_i(A0)) per group.
    basis_cols = []
    sizes = []
    for _, power, _ in groups:
        ker = qlinalg.kernel(qlinalg.poly_eval_matrix(power, a0))
        basis_cols.extend(ker)
        sizes.append(len(ker))
    if sum(sizes) != n:
        raise ReductionError("kernel projections do not fill the space")
    vmat = tuple(tuple(col[i] for col in basis_cols) for i in range(n))
    vinv = qlinalg.inverse(vmat)
    tx, ty = ods.amat.window
    const_gauge = GaugeTransform.of_constant(vmat, tx, ty, kind="splitting")
    # Series coefficients of the conjugated system.
    conj = qlinalg_conj_series(ods.amat, vmat, vinv)
    trunc = ods.trunc
    s_coeffs = [_coeff_const_matrix(conj, ods.var, k, n) for k in range(trunc)]
    n0 = s_coeffs[0]
    offs = []
    off = 0
    for s in sizes:
        offs.append((off, off + s))
        off += s
    blocks0 = [qlinalg.submatrix(n0, range(a, b), range(a, b)) for a, b in offs]
    # Solve T = I + sum T_k v^k with off-diagonal T_k only.
    t_coeffs = [qlinalg.identity(n)] + [None] * (trunc - 1)
    s_tilde = [n0] + [None] * (trunc - 1)
    p = ods.p
    for m in range(1, trunc):
        r_known = qlinalg.zeros(n, n)
        for i in range(1, m + 1):
            if t_coeffs[m - i] is not None:
                r_known = qlinalg.add(r_known, qlinalg.mul(s_coeffs[i], t_coeffs[m - i]))
        for j in range(1, m):
            if t_coeffs[j] is not None and s_tilde[m - j] is not None:
                r_known = qlinalg.sub(r_known, qlinalg.mul(t_coeffs[j], s_tilde[m - j]))
        if p >= 1 and m - p >= 1 and t_coeffs[m - p] is not None:
            r_known = qlinalg.sub(r_known, qlinalg.scale(t_coeffs[m - p], m - p))
        shift = m if p == 0 else 0
        t_m = [[Fraction(0)] * n for _ in range(n)]
        st_m = [[Fraction(0)] * n for _ in range(n)]
        for ai, (a0_, a1_) in enumerate(offs):
            for bi, (b0_, b1_) in enumerate(offs):
                blk = qlinalg.submatrix(r_known, range(a0_, a1_), range(b0_, b1_))
                if ai == bi:
                    for i in range(a0_, a1_):
                        for j in range(b0_, b1_):
                            st_m[i][j] = blk[i - a0_][j - b0_]
                    continue
                na = blocks0[ai]
                if shift:
                    na = qlinalg.sub(na, qlinalg.scale(qlinalg.identity(len(na)), shift))
                sol = qlinalg.sylvester_solve(na, blocks0[bi], qlinalg.scale(blk, -1))
                if sol is None:
                    raise NotSplittable(
                        "resonant Sylvester block at order "
                        f"{m} (pole 0 with integer eigenvalue difference)"
                        if p == 0
                        else "Sylvester block unexpectedly singular"
                    )
                for i in range(a0_, a1_):
                    for j in range(b0_, b1_):
                        t_m[i][j] = sol[i - a0_][j - b0_]
        t_coeffs[m] = qlinalg.qmat(t_m)
        s_tilde[m] = qlinalg.qmat(st_m)
    var = ods.var
    t_series = _const_coeffs_to_matrix(t_coeffs, var, tx, ty)
    gauge = const_gauge.compose(GaugeTransform.of_series(t_series, "splitting"))
    new_mat = _const_coeffs_to_matrix(s_tilde, var, tx, ty)
    blocks = []
    for (a, b), (_, _, _) in zip(offs, groups):
        sub = new_mat.submatrix(list(range(a, b)), list(range(a, b)))
        blocks.append(OdsSystem(var, b - a, ods.p, sub).normalized())
    # Certify: off-diagonal blocks of the transformed system vanish.
    res = apply_gauge(ods.to_pfaffian(), gauge)
    full = res.to_system(strict=False)
    mat = full.amat if var == "x" else full.bmat
    for (a, b) in offs:
        for i in range(a, b):
            for j in range(n):
                if not (a <= j < b) and not mat.at(i, j).is_zero():
                    raise ReductionError("splitting left a nonzero coupling block")
    return gauge, blocks


def qlinalg_conj_series(mat: SeriesMatrix, vmat, vinv) -> SeriesMatrix:
    tx, ty = mat.window
    v_s = SeriesMatrix.from_rational_rows(vmat, tx, ty)
    vi_s = SeriesMatrix.from_rational_rows(vinv, tx, ty)
    return vi_s * mat * v_s


def _coeff_const_matrix(mat: SeriesMatrix, var, k, n):
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            e = mat.at(i, j)
            c = e.coeff(k, 0) if var == "x" else e.coeff(0, k)
            row.append(c)
        out.append(row)
    return qlinalg.qmat(out)


def _const_coeffs_to_matrix(coeffs, var, tx, ty) -> SeriesMatrix:
    n = len(coeffs[0])
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            terms = {}
            for k, c in enumerate(coeffs):
                if c is None:
                    continue
                val = c[i][j]
                if val:
                    terms[(k, 0) if var == "x" else (0, k)] = val
            row.append(BiSeries(terms, tx, ty))
        rows.append(row)
    return SeriesMatrix.from_rows(rows)


# -- eigenvalue shifting ----------------------------------------------------------


@dataclass(frozen=True)
class ShiftRecord:
    """Scalar term gamma * v^(-p) removed from the system; its formal
    integral contributes -(gamma/p) v^(-p) to Q for p >= 1, and a constant
    exponent gamma for p = 0."""

    gamma: Fraction
    pole: int
    var: str

    def q_term(self):
        if self.pole == 0:
            return None
        return (Fraction(self.pole), -self.gamma / self.pole)


def eigenvalue_shift(ods: OdsSystem, gamma) -> tuple[ShiftRecord, OdsSystem]:
    gamma = Fraction(gamma)
    if gamma == 0:
        return ShiftRecord(gamma, ods.p, ods.var), ods
    a0 = ods.leading()
    shifted0 = qlinalg.sub(a0, qlinalg.scale(qlinalg.identity(ods.n), gamma))
    if not qlinalg.is_nilpotent(shifted0):
        raise PreconditionViolated(
            f"leading matrix minus {gamma} I is not nilpotent"
        )
    tx, ty = ods.amat.window
    gmat = SeriesMatrix.from_rational_rows(
        [
            [gamma if i == j else Fraction(0) for j in range(ods.n)]
            for i in range(ods.n)
        ],
        tx,
        ty,
    )
    new = OdsSystem(ods.var, ods.n, ods.p, ods.amat - gmat).normalized()
    return ShiftRecord(gamma, ods.p, ods.var), new


# -- Moser reduction and Katz invariant --------------------------------------------


def moser_reduce_ods(ods: OdsSystem):
    """Reduce to Moser-irreducible form; (gauge, reduced)."""
    sysp = ods.to_pfaffian()
    gauge, out = reduce_axis(sysp, ods.var)
    if gauge is None:
        tx, ty = ods.amat.window
        gauge = GaugeTransform.identity(ods.n, tx, ty)
    return gauge, OdsSystem.from_pfaffian(out, ods.var)


def is_moser_irreducible(ods: OdsSystem) -> bool:
    ods = ods.normalized()
    if ods.p == 0:
        return True
    return not theta_poly(ods.to_pfaffian(), ods.var).is_zero()


def katz_invariant_ods(ods: OdsSystem) -> Fraction:
    """Largest slope of the characteristic-polynomial Newton polygon,
    floored at 0.  Requires a Moser-irreducible input."""
    ods = ods.normalized()
    if not is_moser_irreducible(ods):
        raise PreconditionViolated("Katz invariant needs a Moser-irreducible input")
    if ods.p == 0:
        return Fraction(0)
    n, p, var = ods.n, ods.p, ods.var
    tx, ty = ods.amat.window
    zero = BiSeries.zero(tx, ty)
    pole_mon = BiSeries.monomial(1, p if var == "x" else 0,
                                 p if var == "y" else 0, tx, ty)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            row.append([-ods.amat.at(i, j), pole_mon if i == j else zero])
        rows.append(row)
    det = _lambda_det(rows, n, zero)
    pts = []
    for k in range(n + 1):
        c = det[k] if k < len(det) else zero
        if c.is_zero():
            continue
        pts.append((k, c.val(var) - n * p))
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


def ramify_ods(ods: OdsSystem, m: int) -> OdsSystem:
    """Substitute v = t^m: the matrix becomes m * S(t^m) with pole m*p."""
    if m < 1:
        raise PreconditionViolated("ramification index must be >= 1")
    if m == 1:
        return ods
    var = ods.var
    other = "y" if var == "x" else "x"
    entries = []
    for e in ods.amat.entries:
        u = e.eval_zero(other)
        other_trunc = e.ty if var == "x" else e.tx
        entries.append((u.ramify(m) * m).to_bi(var, other_trunc))
    return OdsSystem(var, ods.n, ods.p * m,
                     SeriesMatrix(ods.n, ods.n, entries)).normalized()


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
        s = 1
        for k, _ in self.q_terms:
            s = s * k.denominator // _gcd(s, k.denominator)
        return s

    def katz(self) -> Fraction:
        return max((k for k, _ in self.q_terms), default=Fraction(0))

    def is_zero(self) -> bool:
        return not self.q_terms

    def key(self):
        return self.q_terms


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def exponential_parts_ods(ods: OdsSystem) -> list[ExponentialPart]:
    """Full recursion: split, shift, Moser-reduce, ramify, recurse."""
    out = []
    _exp_recurse(ods.normalized(), Fraction(1), {}, out, depth=0)
    out.sort(key=lambda p: (p.key(), p.multiplicity))
    if sum(p.multiplicity for p in out) != ods.n:
        raise ReductionError("exponential-part multiplicities do not sum to n")
    return out


def _merge_term(collected, k, c):
    if c == 0:
        return
    k = Fraction(k)
    collected[k] = collected.get(k, Fraction(0)) + c
    if collected[k] == 0:
        del collected[k]


def _exp_recurse(ods: OdsSystem, scale: Fraction, collected: dict, out, depth):
    """scale = 1/s where the current variable t satisfies t = x^(1/s);
    collected maps absolute exponents of x to Q coefficients."""
    if depth > 16 + 4 * ods.n * (ods.p + 2):
        raise ReductionError("exponential-part recursion exceeded its bound")
    ods = ods.normalized()
    n, p = ods.n, ods.p
    if p == 0:
        out.append(ExponentialPart.make(dict(collected), n))
        return
    if n == 1:
        col = dict(collected)
        e = ods.amat.at(0, 0)
        u = e.eval_zero("y" if ods.var == "x" else "x")
        for j in range(p):
            a_j = u.coeff(j)
            if a_j:
                _merge_term(col, Fraction(p - j) * scale, -a_j / (p - j))
        out.append(ExponentialPart.make(col, 1))
        return
    a0 = ods.leading()
    groups = _eigen_groups(a0)
    if len(groups) >= 2:
        _, blocks = split_leading(ods)
        for b in blocks:
            _exp_recurse(b, scale, dict(collected), out, depth + 1)
        return
    fc, _, _ = groups[0]
    if len(fc) == 2:
        gamma = -fc[0]
    elif all(c == 0 for c in fc[:-1]):
        gamma = Fraction(0)
    else:
        raise AlgebraicExtensionRequired(
            "shift eigenvalue is irrational (irreducible factor of degree "
            f"{len(fc) - 1})",
            factor=fc,
        )
    if gamma != 0:
        rec, shifted = eigenvalue_shift(ods, gamma)
        qt = rec.q_term()
        col = dict(collected)
        if qt is not None:
            _merge_term(col, qt[0] * scale, qt[1])
        _exp_recurse(shifted, scale, col, out, depth + 1)
        return
    # Nilpotent leading matrix: Moser-reduce, then ramify by the Katz
    # denominator and recurse (the split is then guaranteed).
    if not is_moser_irreducible(ods):
        _, reduced = moser_reduce_ods(ods)
        _exp_recurse(reduced, scale, collected, out, depth + 1)
        return
    kappa = katz_invariant_ods(ods)
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
    ram = ramify_ods(ods, m)
    _, reduced = moser_reduce_ods(ram)
    _exp_recurse(reduced, scale / m, collected, out, depth + 1)


# -- first-kind fundamental solution ---------------------------------------------------


@dataclass(frozen=True)
class FirstKindSolution:
    phi: SeriesMatrix           # unit series factor
    exponent: tuple             # constant matrix Lambda over Q
    retained: tuple             # ((order, matrix), ...) resonant normal-form terms


def first_kind_fundamental_ods(ods: OdsSystem) -> FirstKindSolution:
    """Solve Y = Phi * v^Lambda for a pole-order-zero system.

    Phi = I + sum Phi_k v^k is found order by order; at resonant orders
    (integer eigenvalue differences) the offending entries are retained in
    the exponent side (upper-triangular coupling) instead of being
    eliminated.
    """
    ods = ods.normalized()
    if ods.p != 0:
        raise PreconditionViolated("first-kind solve needs pole order 0")
    n, var = ods.n, ods.var
    trunc = ods.trunc
    s_coeffs = [_coeff_const_matrix(ods.amat, var, k, n) for k in range(trunc)]
    lam0 = s_coeffs[0]
    t_coeffs = [qlinalg.identity(n)] + [None] * (trunc - 1)
    retained = []
    tri = None
    for m in range(1, trunc):
        r_known = qlinalg.zeros(n, n)
        for i in range(1, m + 1):
            if t_coeffs[m - i] is not None:
                r_known = qlinalg.add(
                    r_known, qlinalg.mul(s_coeffs[i], t_coeffs[m - i])
                )
        for (k, mat) in retained:
            if m - k >= 1 and t_coeffs[m - k] is not None:
                r_known = qlinalg.sub(r_known, qlinalg.mul(t_coeffs[m - k], mat))
        shifted = qlinalg.sub(lam0, qlinalg.scale(qlinalg.identity(n), m))
        sol = qlinalg.sylvester_solve(shifted, lam0, qlinalg.scale(r_known, -1))
        if sol is not None:
            t_coeffs[m] = sol
            continue
        # Resonant order: split solvable and retained parts in a
        # triangular eigenbasis (requires rational eigenvalues).
        if tri is None:
            tri = _triangularize_single(lam0)
            if tri is None:
                raise AlgebraicExtensionRequired(
                    "resonance handling needs rational eigenvalues"
                )
        u, uinv, diag = tri
        rr = qlinalg.mul(qlinalg.mul(uinv, qlinalg.scale(r_known, -1)), u)
        lam_t = qlinalg.mul(qlinalg.mul(uinv, lam0), u)
        t_m = [[Fraction(0)] * n for _ in range(n)]
        keep = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n - 1, -1, -1):
            for j in range(n):
                acc = rr[i][j]
                for k in range(i + 1, n):
                    acc -= lam_t[i][k] * t_m[k][j]
                for k in range(0, j):
                    acc += t_m[i][k] * lam_t[k][j]
                coef = diag[i] - diag[j] - m
                if coef != 0:
                    t_m[i][j] = acc / coef
                else:
                    keep[i][j] = -acc
        t_coeffs[m] = qlinalg.mul(qlinalg.mul(u, qlinalg.qmat(t_m)), uinv)
        keep_back = qlinalg.mul(qlinalg.mul(u, qlinalg.qmat(keep)), uinv)
        if not qlinalg.is_zero(keep_back):
            retained.append((m, keep_back))
    tx, ty = ods.amat.window
    phi = _const_coeffs_to_matrix(t_coeffs, var, tx, ty)
    return FirstKindSolution(
        phi=phi, exponent=lam0, retained=tuple(retained)
    )


def _triangularize_single(a):
    """Constant U with U^(-1) a U upper triangular over Q; None if some
    eigenvalue is irrational.  Returns (U, U^(-1), diagonal)."""
    us = _common_triangularize([a])
    if us is None:
        return None
    u, uinv, tris = us
    diag = [tris[0][i][i] for i in range(len(a))]
    return u, uinv, diag


def _common_triangularize(mats):
    """Simultaneous upper triangularization of commuting matrices with
    rational eigenvalues; None when an irrational eigenvalue blocks it."""
    n = len(mats[0])
    if n == 0:
        return qlinalg.identity(0), qlinalg.identity(0), [qlinalg.identity(0)
                                                          for _ in mats]
    u_cols = []
    # Build the flag one common eigenvector at a time, working in the
    # original coordinates with a shrinking complement.
    while len(u_cols) < n:
        sub_basis = _complement(u_cols, n)
        reps = [_restrict(m, u_cols, sub_basis, n) for m in mats]
        vec_sub = _common_eigvec(reps)
        if vec_sub is None:
            return None
        vec = [Fraction(0)] * n
        for c, col in zip(vec_sub, sub_basis):
            for i in range(n):
                vec[i] += c * col[i]
        u_cols.append(tuple(vec))
    u = tuple(tuple(u_cols[j][i] for j in range(n)) for i in range(n))
    uinv = qlinalg.inverse(u)
    tris = [qlinalg.mul(qlinalg.mul(uinv, m), u) for m in mats]
    for t in tris:
        for i in range(n):
            for j in range(i):
                if t[i][j] != 0:
                    raise ReductionError("triangularization failed")
    return u, uinv, tris


def _complement(u_cols, n):
    """Coordinate vectors completing u_cols to a basis."""
    if not u_cols:
        return [tuple(Fraction(1 if i == j else 0) for i in range(n))
                for j in range(n)]
    m = tuple(tuple(col[i] for col in u_cols) for i in range(n))
    _, pivots, _ = qlinalg.rref(qlinalg.transpose(m))
    comp = [j for j in range(n) if j not in pivots]
    return [tuple(Fraction(1 if i == j else 0) for i in range(n)) for j in comp]


def _restrict(mat, u_cols, sub_basis, n):
    """Matrix of the action induced on span(sub_basis) modulo span(u_cols)."""
    cols = list(u_cols) + list(sub_basis)
    basis_mat = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
    inv = qlinalg.inverse(basis_mat)
    out = []
    k = len(u_cols)
    for b in sub_basis:
        img = tuple(
            sum(mat[i][j] * b[j] for j in range(n)) for i in range(n)
        )
        coords = tuple(
            sum(inv[i][j] * img[j] for j in range(n)) for i in range(n)
        )
        out.append(coords[k:])
    return tuple(tuple(out[j][i] for j in range(len(sub_basis)))
                 for i in range(len(sub_basis)))


def _common_eigvec(mats):
    """A common eigenvector with rational eigenvalues; None if blocked."""
    n = len(mats[0])
    if n == 0:
        return None
    space = [tuple(Fraction(1 if i == j else 0) for i in range(n))
             for j in range(n)]
    for m in mats:
        rep = _matrix_on_span(m, space, n)
        if rep is None:
            return None
        from .polyq import rational_roots

        roots = rational_roots(qlinalg.charpoly(rep))
        if not roots:
            return None
        lam = roots[0][0]
        shifted = qlinalg.sub(rep, qlinalg.scale(qlinalg.identity(len(rep)), lam))
        ker = qlinalg.kernel(shifted)
        new_space = []
        for kv in ker:
            vec = [Fraction(0)] * n
            for c, col in zip(kv, space):
                for i in range(n):
                    vec[i] += c * col[i]
            new_space.append(tuple(vec))
        space = new_space
        if not space:
            return None
    return space[0]


def _matrix_on_span(mat, span_cols, n):
    """Matrix of `mat` restricted to its invariant subspace span_cols."""
    k = len(span_cols)
    basis = tuple(tuple(span_cols[j][i] for j in range(k)) for i in range(n))
    out = []
    for b in span_cols:
        img = tuple(sum(mat[i][j] * b[j] for j in range(n)) for i in range(n))
        aug_cols = [tuple(basis[i][j] for i in range(n)) for j in range(k)]
        amat = tuple(tuple(aug_cols[j][i] for j in range(k)) for i in range(n))
        sol = qlinalg.solve(amat, img)
        if sol is None:
            return None
        out.append(sol)
    return tuple(tuple(out[j][i] for j in range(k)) for i in range(k))
