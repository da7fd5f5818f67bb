"""Bivariate orchestration: exponential parts, Katz pair, true Poincare
rank via the associated ODS, bivariate splitting and shifting, the regular
(pole-free) solve, and assembly of the fundamental-matrix data

    Phi(x,y) * x^L1 * y^L2 * exp(Q1(1/x)) * exp(Q2(1/y)).

The regular solve eliminates each monomial entry through whichever of the
two commutator equations is nonsingular for it; only monomials resonant
with respect to both axes at once are retained, and integrability makes
the mixed elimination consistent (verified by substitution on every
emitted solution).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import qlinalg
from .errors import (
    AlgebraicExtensionRequired,
    IntegrabilityViolation,
    JointResonance,
    NotSplittable,
    PreconditionViolated,
    ReductionError,
)
from .matrices import LaurentMatrix, SeriesMatrix
from .moser import _rank_reduce
from .ods import (
    _common_triangularize,
    _eigen_groups,
    associated_ods,
    exponential_parts_ods,
    katz_invariant_ods,
    moser_reduce_ods,
)
from .series import BiSeries
from .system import (
    GaugeTransform,
    PfaffianSystem,
    apply_gauge,
    require_integrable,
)

# Each public function below certifies its input once (require_integrable);
# the underscored bodies take systems derived from a certified input.


def exponential_parts(sys: PfaffianSystem):
    """Exponential parts of both axes, via the associated ODS."""
    require_integrable(sys)
    return (
        exponential_parts_ods(associated_ods(sys, "x")),
        exponential_parts_ods(associated_ods(sys, "y")),
    )


def katz_pair(sys: PfaffianSystem):
    """(k1, k2): Katz invariants of the two associated ODS."""
    require_integrable(sys)
    return _katz_and_rank(sys)[0]


def true_poincare_rank(sys: PfaffianSystem):
    """True Poincare rank pair, read off the Moser-irreducible associated
    ODS; cross-checked against the Katz bound k <= rank <= k + 1."""
    require_integrable(sys)
    return _katz_and_rank(sys)[1]


def _katz_and_rank(sys: PfaffianSystem):
    """((k1, k2), (rank1, rank2)) of a system already certified integrable,
    from one Moser reduction of each associated ODS."""
    katz, ranks = [], []
    for axis in ("x", "y"):
        _, reduced = moser_reduce_ods(associated_ods(sys, axis))
        rank = reduced.p
        kappa = katz_invariant_ods(reduced)
        if not (kappa <= rank <= kappa + 1):
            raise ReductionError(
                f"true rank {rank} violates the Katz bound for {kappa}"
            )
        katz.append(kappa)
        ranks.append(rank)
    return tuple(katz), tuple(ranks)


# -- bivariate splitting ----------------------------------------------------------


def _leading_constants(sys):
    a00 = sys.amat.constant_part()
    b00 = sys.bmat.constant_part()
    return a00, b00


def _split_axis_choice(sys, positive_pole_only=False):
    """Choose the splitting axis: coprime factor groups of the leading
    constant with at least two groups; prefer an axis with a positive pole
    (its order-by-order Sylvester solve is never resonant)."""
    a00, b00 = _leading_constants(sys)
    options = []
    for axis, mat, pole in (("x", a00, sys.p), ("y", b00, sys.q)):
        if positive_pole_only and pole == 0:
            continue
        groups = _eigen_groups(mat)
        if len(groups) >= 2:
            options.append((pole == 0, axis, groups))
    if not options:
        return None
    options.sort()    # resonance-safe axes (pole > 0) first
    _, axis, groups = options[0]
    return axis, groups


def bivariate_splitting(sys: PfaffianSystem, positive_pole_only=False):
    """Block-decouple both subsystems at once.

    The chosen leading constant splits into coprime characteristic factor
    groups; a constant conjugation block-diagonalizes it, and T = I plus
    off-diagonal corrections is solved order by order in total degree
    through Sylvester equations on the splitting axis.  Both transformed
    subsystems are certified block diagonal on the window.
    """
    require_integrable(sys)
    return _bivariate_splitting(sys, positive_pole_only)


def _bivariate_splitting(sys: PfaffianSystem, positive_pole_only):
    choice = _split_axis_choice(sys, positive_pole_only)
    if choice is None:
        raise NotSplittable(
            "neither leading constant matrix has two coprime factor groups"
        )
    axis, groups = choice
    lead = _leading_constants(sys)[0 if axis == "x" else 1]
    n = sys.n
    basis_cols = []
    sizes = []
    for _, power, _ in groups:
        ker = qlinalg.kernel(qlinalg.poly_eval_matrix(power, lead))
        basis_cols.extend(ker)
        sizes.append(len(ker))
    if sum(sizes) != n:
        raise ReductionError("kernel projections do not fill the space")
    vmat = tuple(tuple(col[i] for col in basis_cols) for i in range(n))
    tx, ty = sys.window
    const_gauge = GaugeTransform.of_constant(vmat, tx, ty, kind="splitting")
    work = apply_gauge(sys, const_gauge).to_system(strict=False)

    offs = []
    off = 0
    for s in sizes:
        offs.append((off, off + s))
        off += s
    main = work.amat if axis == "x" else work.bmat
    pole = work.p if axis == "x" else work.q
    lead0 = main.constant_part()
    blocks0 = [qlinalg.submatrix(lead0, range(a, b), range(a, b)) for a, b in offs]

    # Solve T = I + sum T_(i,j) x^i y^j (off-diagonal blocks) from the
    # splitting-axis equation; each total-degree slice is triangular in
    # the earlier coefficients.
    t_coeffs = {(0, 0): qlinalg.identity(n)}
    s_tilde = {(0, 0): lead0}
    main_coeffs = _bicoeffs(main, n, tx, ty)
    for total in range(1, tx + ty - 1):
        for i in range(max(0, total - ty + 1), min(total, tx - 1) + 1):
            j = total - i
            r_known = qlinalg.zeros(n, n)
            for (ci, cj), s_c in main_coeffs.items():
                ti, tj = i - ci, j - cj
                if (ti, tj) == (i, j) or ti < 0 or tj < 0:
                    continue
                t_c = t_coeffs.get((ti, tj))
                if t_c is not None:
                    r_known = qlinalg.add(r_known, qlinalg.mul(s_c, t_c))
            for (ti, tj), t_c in list(t_coeffs.items()):
                si, sj = i - ti, j - tj
                if (si, sj) in ((0, 0), (i, j)) or si < 0 or sj < 0:
                    continue
                st = s_tilde.get((si, sj))
                if st is not None:
                    r_known = qlinalg.sub(r_known, qlinalg.mul(t_c, st))
            deriv = i if axis == "x" else j
            shift = Fraction(0)
            if pole >= 1:
                key = (i - pole, j) if axis == "x" else (i, j - pole)
                kk = key[0] if axis == "x" else key[1]
                if kk >= 1 and t_coeffs.get(key) is not None:
                    r_known = qlinalg.sub(
                        r_known, qlinalg.scale(t_coeffs[key], kk)
                    )
            else:
                shift = Fraction(deriv)
            t_new = [[Fraction(0)] * n for _ in range(n)]
            st_new = [[Fraction(0)] * n for _ in range(n)]
            for ai, (a0_, a1_) in enumerate(offs):
                for bi, (b0_, b1_) in enumerate(offs):
                    blk = qlinalg.submatrix(
                        r_known, range(a0_, a1_), range(b0_, b1_)
                    )
                    if ai == bi:
                        for r_ in range(a0_, a1_):
                            for c_ in range(b0_, b1_):
                                st_new[r_][c_] = blk[r_ - a0_][c_ - b0_]
                        continue
                    na = blocks0[ai]
                    if shift:
                        na = qlinalg.sub(
                            na, qlinalg.scale(qlinalg.identity(len(na)), shift)
                        )
                    sol = qlinalg.sylvester_solve(
                        na, blocks0[bi], qlinalg.scale(blk, -1)
                    )
                    if sol is None:
                        raise NotSplittable(
                            "resonant Sylvester block during bivariate "
                            f"splitting at order {(i, j)}"
                        )
                    for r_ in range(a0_, a1_):
                        for c_ in range(b0_, b1_):
                            t_new[r_][c_] = sol[r_ - a0_][c_ - b0_]
            if any(any(v for v in row) for row in t_new):
                t_coeffs[(i, j)] = qlinalg.qmat(t_new)
            if any(any(v for v in row) for row in st_new):
                s_tilde[(i, j)] = qlinalg.qmat(st_new)
    t_series = _bicoeffs_to_matrix(t_coeffs, n, tx, ty)
    gauge = const_gauge.compose(GaugeTransform.of_series(t_series, "splitting"))
    res = apply_gauge(sys, gauge)
    full = res.to_system(strict=False)
    for mat in (full.amat, full.bmat):
        for (a, b) in offs:
            for i_ in range(a, b):
                for j_ in range(n):
                    if not (a <= j_ < b) and not mat.at(i_, j_).is_zero():
                        raise IntegrabilityViolation(
                            "bivariate splitting left a coupling block "
                            "nonzero within the window",
                            window=mat.window,
                        )
    blocks = []
    for (a, b) in offs:
        idx = list(range(a, b))
        blocks.append(
            PfaffianSystem.make(
                b - a,
                full.p,
                full.q,
                full.amat.submatrix(idx, idx),
                full.bmat.submatrix(idx, idx),
                strict=False,
            )
        )
    return gauge, blocks


def _bicoeffs(mat: SeriesMatrix, n, tx, ty):
    out = {}
    for i in range(n):
        for j in range(n):
            for (a, b), c in mat.at(i, j).coeffs.items():
                key = (a, b)
                if key not in out:
                    out[key] = [[Fraction(0)] * n for _ in range(n)]
                out[key][i][j] = c
    return {k: qlinalg.qmat(v) for k, v in out.items()}


def _bicoeffs_to_matrix(coeffs, n, tx, ty) -> SeriesMatrix:
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            terms = {}
            for (a, b), mat in coeffs.items():
                if mat[i][j]:
                    terms[(a, b)] = mat[i][j]
            row.append(BiSeries(terms, tx, ty))
        rows.append(row)
    return SeriesMatrix.from_rows(rows)


# -- bivariate eigenvalue shifting ---------------------------------------------------


@dataclass(frozen=True)
class ScalarShift:
    """Scalar Laurent terms removed from both subsystems: q-integral terms
    (exponent k > 0 mapping to coefficient of var^-k in Q) per axis."""

    x_terms: tuple
    y_terms: tuple


def bivariate_shift(sys: PfaffianSystem, gammas_x=None, gammas_y=None):
    """Subtract scalar terms gamma * x^-k (resp. y^-k) from the subsystems.

    gammas_x maps pole order k >= 1 to gamma; each gamma must be the single
    eigenvalue of the then-current leading constant at that order
    (nilpotency after subtraction is checked exactly).
    """
    require_integrable(sys)
    return _bivariate_shift(sys, gammas_x, gammas_y)


def _bivariate_shift(sys: PfaffianSystem, gammas_x, gammas_y):
    current = sys
    x_q, y_q = {}, {}
    for axis, gammas, store in (("x", gammas_x or {}, x_q),
                                ("y", gammas_y or {}, y_q)):
        for k in sorted(gammas, reverse=True):
            gamma = Fraction(gammas[k])
            if gamma == 0:
                continue
            pole = current.p if axis == "x" else current.q
            if k > pole:
                raise PreconditionViolated(
                    f"shift order {k} exceeds the current pole {pole} on {axis}"
                )
            current = _subtract_scalar(current, axis, k, gamma)
            if k >= 1:
                store[Fraction(k)] = -gamma / k
    return ScalarShift(tuple(sorted(x_q.items())),
                       tuple(sorted(y_q.items()))), current


def _subtract_scalar(sys, axis, k, gamma):
    """Remove gamma * var^(p-k) from the series part and validate that the
    affected leading constant had gamma as its single eigenvalue."""
    n = sys.n
    tx, ty = sys.window
    pole = sys.p if axis == "x" else sys.q
    if k == pole:
        lead = (sys.amat if axis == "x" else sys.bmat).constant_part()
        shifted = qlinalg.sub(lead, qlinalg.scale(qlinalg.identity(n), gamma))
        if not qlinalg.is_nilpotent(shifted):
            raise PreconditionViolated(
                f"{gamma} is not the single eigenvalue of the {axis} leading "
                "constant"
            )
    mono = BiSeries.monomial(
        gamma, (pole - k) if axis == "x" else 0,
        (pole - k) if axis == "y" else 0, tx, ty
    )
    gmat = SeriesMatrix.from_rows(
        [
            [mono if i == j else BiSeries.zero(tx, ty) for j in range(n)]
            for i in range(n)
        ]
    )
    if axis == "x":
        return PfaffianSystem.make(n, sys.p, sys.q, sys.amat - gmat, sys.bmat,
                                   strict=False)
    return PfaffianSystem.make(n, sys.p, sys.q, sys.amat, sys.bmat - gmat,
                               strict=False)


# -- regular solve -------------------------------------------------------------------


@dataclass(frozen=True)
class RegularSolution:
    gauge: GaugeTransform
    lambda1: tuple
    lambda2: tuple
    retained: tuple        # ((i, j, row, col, value_x, value_y), ...)


def regular_fundamental(sys: PfaffianSystem) -> RegularSolution:
    """Normal form of a system with pole pair (0, 0).

    Returns a gauge T with T[A] = L1 and T[B] = L2 constant commuting
    matrices (spectra of the leading constants), built monomial by
    monomial: entry (k,l) of the coefficient at x^i y^j is eliminated by
    the x-equation unless its x-eigenvalue difference equals i, else by
    the y-equation unless the y-difference equals j; jointly resonant
    entries raise JointResonance carrying the retained monomials.
    """
    if sys.p != 0 or sys.q != 0:
        raise PreconditionViolated("regular solve needs pole orders (0, 0)")
    require_integrable(sys)
    return _regular_fundamental(sys)


def _regular_fundamental(sys: PfaffianSystem) -> RegularSolution:
    n = sys.n
    a00, b00 = _leading_constants(sys)
    comm = qlinalg.sub(qlinalg.mul(a00, b00), qlinalg.mul(b00, a00))
    if not qlinalg.is_zero(comm):
        raise IntegrabilityViolation(
            "leading constants do not commute", window=sys.window
        )
    tri = _common_triangularize([a00, b00])
    if tri is None:
        raise AlgebraicExtensionRequired(
            "regular solve needs rational eigenvalues of both leading "
            "constants"
        )
    u, uinv, (l1, l2) = tri
    tx, ty = sys.window
    const_gauge = GaugeTransform.of_constant(u, tx, ty, kind="constant")
    work = apply_gauge(sys, const_gauge).to_system(strict=False)
    d1 = [l1[i][i] for i in range(n)]
    d2 = [l2[i][i] for i in range(n)]
    a_coeffs = _bicoeffs(work.amat, n, tx, ty)
    b_coeffs = _bicoeffs(work.bmat, n, tx, ty)
    t_coeffs = {(0, 0): qlinalg.identity(n)}
    at_coeffs = {(0, 0): l1}
    bt_coeffs = {(0, 0): l2}
    retained = []
    for total in range(1, tx + ty - 1):
        for i in range(max(0, total - ty + 1), min(total, tx - 1) + 1):
            j = total - i
            rx = _conv_residual(a_coeffs, t_coeffs, at_coeffs, i, j, n)
            ry = _conv_residual(b_coeffs, t_coeffs, bt_coeffs, i, j, n)
            t_new = [[Fraction(0)] * n for _ in range(n)]
            keep_here = []
            # Entry order: rows bottom-up, columns left-right, so the
            # triangular couplings are already known when needed.
            for k in range(n - 1, -1, -1):
                for l in range(n):
                    cx = d1[k] - d1[l] - i
                    cy = d2[k] - d2[l] - j
                    accx = -rx[k][l]
                    for kk in range(k + 1, n):
                        accx -= l1[k][kk] * t_new[kk][l]
                    for kk in range(0, l):
                        accx += t_new[k][kk] * l1[kk][l]
                    accy = -ry[k][l]
                    for kk in range(k + 1, n):
                        accy -= l2[k][kk] * t_new[kk][l]
                    for kk in range(0, l):
                        accy += t_new[k][kk] * l2[kk][l]
                    if cx != 0:
                        t_new[k][l] = accx / cx
                    elif cy != 0:
                        t_new[k][l] = accy / cy
                    else:
                        if accx != 0 or accy != 0:
                            keep_here.append((i, j, k, l, -accx, -accy))
            if keep_here:
                retained.extend(keep_here)
                for (ri, rj, rk, rl, vx, vy) in keep_here:
                    at_coeffs.setdefault(
                        (ri, rj), [[Fraction(0)] * n for _ in range(n)]
                    )
                    bt_coeffs.setdefault(
                        (ri, rj), [[Fraction(0)] * n for _ in range(n)]
                    )
                    at_coeffs[(ri, rj)][rk][rl] = vx
                    bt_coeffs[(ri, rj)][rk][rl] = vy
            if any(any(v for v in row) for row in t_new):
                t_coeffs[(i, j)] = qlinalg.qmat(t_new)
    series_gauge = GaugeTransform.of_series(
        _bicoeffs_to_matrix(t_coeffs, n, tx, ty), "regular-solve"
    )
    gauge = const_gauge.compose(series_gauge)
    if retained:
        raise JointResonance(
            "jointly resonant monomials remain in the normal form",
            retained=retained,
            partial=RegularSolution(gauge, qlinalg.qmat(l1), qlinalg.qmat(l2),
                                    tuple(retained)),
        )
    res = apply_gauge(sys, gauge).to_system(strict=False)
    l1_m, l2_m = qlinalg.qmat(l1), qlinalg.qmat(l2)
    expect_a = SeriesMatrix.from_rational_rows(l1_m, *res.window)
    expect_b = SeriesMatrix.from_rational_rows(l2_m, *res.window)
    if res.p != 0 or res.q != 0 or not (res.amat == expect_a and
                                        res.bmat == expect_b):
        raise IntegrabilityViolation(
            "mixed-axis elimination is inconsistent within the window "
            "(substitution check failed)",
            window=res.window,
        )
    return RegularSolution(gauge, l1_m, l2_m, ())


def _conv_residual(s_coeffs, t_coeffs, st_coeffs, i, j, n):
    """Known part of the coefficient at (i,j) in S T - T S~: the terms
    S_00 T_(i,j), T_(i,j) S~_00 and T_00 S~_(i,j) are the unknowns and are
    left out."""
    r = qlinalg.zeros(n, n)
    for (ci, cj), s_c in s_coeffs.items():
        if (ci, cj) == (0, 0):
            continue
        ti, tj = i - ci, j - cj
        if ti < 0 or tj < 0:
            continue
        t_c = t_coeffs.get((ti, tj))
        if t_c is not None:
            r = qlinalg.add(r, qlinalg.mul(s_c, t_c))
    for (si, sj), st in st_coeffs.items():
        if (si, sj) in ((0, 0), (i, j)):
            continue
        ti, tj = i - si, j - sj
        if ti < 0 or tj < 0:
            continue
        t_c = t_coeffs.get((ti, tj))
        if t_c is not None:
            r = qlinalg.sub(r, qlinalg.mul(t_c, st))
    return r


# -- full assembly --------------------------------------------------------------------


@dataclass
class SolutionData:
    n: int
    s: tuple                     # ramification pair
    q1: list                     # per-coordinate dict {exponent: coeff}
    q2: list
    lambda1: tuple | None        # constant matrices (None when blocked)
    lambda2: tuple | None
    gauge_trace: list = field(default_factory=list)
    retained: tuple = ()
    blocked: str | None = None   # name of the blocking step, if any

    def phi(self) -> LaurentMatrix | None:
        if not self.gauge_trace:
            return None
        total = None
        for g in self.gauge_trace:
            total = g if total is None else total.compose(g)
        return total.matrix()

    def complete(self) -> bool:
        return self.blocked is None


def _merge_q(target: dict, terms):
    for k, c in terms:
        target[k] = target.get(k, Fraction(0)) + c
        if target[k] == 0:
            del target[k]


def formal_fundamental(sys: PfaffianSystem) -> SolutionData:
    """Full orchestration of splitting, shifting, rank reduction and the
    regular solve; emits the complete fundamental-matrix data or a partial
    result naming the blocking step."""
    require_integrable(sys)
    data = SolutionData(n=sys.n, s=(1, 1), q1=[{} for _ in range(sys.n)],
                        q2=[{} for _ in range(sys.n)], lambda1=None,
                        lambda2=None)
    try:
        _assemble(sys, list(range(sys.n)), data, depth=0)
    except AlgebraicExtensionRequired as err:
        data.blocked = f"algebraic-extension: {err}"
        return data
    except JointResonance as err:
        data.retained = tuple(err.retained)
        data.blocked = "joint-resonance"
        return data
    lam1 = data.lambda1
    lam2 = data.lambda2
    _verify_commutation(lam1, data.q1)
    _verify_commutation(lam2, data.q2)
    return data


def _verify_commutation(lam, qdiag):
    if lam is None:
        return
    n = len(qdiag)
    for i in range(n):
        for j in range(n):
            if lam[i][j] != 0 and qdiag[i] != qdiag[j]:
                raise ReductionError(
                    "exponent matrix does not commute with the exponential part"
                )


def _embed_gauge(gauge: GaugeTransform, coords, n, tx, ty) -> GaugeTransform:
    """Lift a gauge acting on a coordinate subset to the full space."""
    factors = []
    for f in gauge.factors:
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                if i in coords and j in coords:
                    row.append(f.series.at(coords.index(i), coords.index(j)))
                else:
                    row.append(BiSeries.const(1 if i == j else 0, tx, ty))
            rows.append(row)
        factors.append(LaurentMatrix(SeriesMatrix.from_rows(rows), f.px, f.py))
    return GaugeTransform(factors=tuple(factors), provenance=gauge.provenance)


def _set_lambda_block(data: SolutionData, coords, lam, which):
    n = data.n
    current = getattr(data, which)
    if current is None:
        current = [[Fraction(0)] * n for _ in range(n)]
    else:
        current = [list(row) for row in current]
    for a, i in enumerate(coords):
        for b, j in enumerate(coords):
            current[i][j] = lam[a][b]
    setattr(data, which, qlinalg.qmat(current))


def _assemble(sys: PfaffianSystem, coords, data: SolutionData, depth):
    """Recursive assembly on the block spanned by `coords`."""
    if depth > 8 * (sys.n + sys.p + sys.q + 2):
        raise ReductionError("assembly recursion exceeded its bound")
    n = sys.n
    tx, ty = sys.window
    current = sys
    while True:
        if current.p == 0 and current.q == 0:
            reg = _regular_fundamental(current)
            data.gauge_trace.append(
                _embed_gauge(reg.gauge, coords, data.n, tx, ty)
            )
            _set_lambda_block(data, coords, reg.lambda1, "lambda1")
            _set_lambda_block(data, coords, reg.lambda2, "lambda2")
            return
        a00, b00 = _leading_constants(current)
        # Pole-0 eigenvalue separation belongs to the regular solve; only
        # split along an axis whose pole is positive (never resonant).
        if _split_axis_choice(current, positive_pole_only=True) is not None:
            gauge, blocks = _bivariate_splitting(current, positive_pole_only=True)
            data.gauge_trace.append(_embed_gauge(gauge, coords, data.n, tx, ty))
            off = 0
            for blk in blocks:
                sub = coords[off : off + blk.n]
                _assemble(blk, sub, data, depth + 1)
                off += blk.n
            return
        shifted = False
        for axis, lead in (("x", a00), ("y", b00)):
            pole = current.p if axis == "x" else current.q
            if pole == 0:
                continue
            gamma = qlinalg.single_eigenvalue(lead)
            if gamma is None:
                groups = _eigen_groups(lead)
                fc = groups[0][0]
                raise AlgebraicExtensionRequired(
                    "leading-constant eigenvalue is irrational on axis "
                    f"{axis}",
                    factor=fc,
                )
            if gamma != 0:
                shift, current = _bivariate_shift(
                    current,
                    gammas_x={pole: gamma} if axis == "x" else None,
                    gammas_y={pole: gamma} if axis == "y" else None,
                )
                terms = shift.x_terms if axis == "x" else shift.y_terms
                for i in coords:
                    _merge_q(data.q1[i] if axis == "x" else data.q2[i], terms)
                shifted = True
        if shifted:
            continue
        # Leading pair nilpotent with a positive pole: Moser-reduce.
        before = (current.p, current.q)
        gauge, reduced, _ = _rank_reduce(current)
        if (reduced.p, reduced.q) < before:
            data.gauge_trace.append(_embed_gauge(gauge, coords, data.n, tx, ty))
            current = reduced
            continue
        # Moser-irreducible, nilpotent leading pair: the remaining
        # exponential behavior is ramified; report per-axis data and stop.
        k1, k2 = _katz_and_rank(current)[0]
        data.s = (k1.denominator, k2.denominator)
        data.blocked = "ramified-bivariate-assembly"
        for axis, store in (("x", data.q1), ("y", data.q2)):
            parts = exponential_parts_ods(associated_ods(current, axis))
            idx = 0
            for part in parts:
                for _ in range(part.multiplicity):
                    if idx < len(coords):
                        _merge_q(store[coords[idx]], part.q_terms)
                    idx += 1
        return


def verify_solution(sys: PfaffianSystem, data: SolutionData) -> bool:
    """Substitute the assembled solution into both equations.

    The gauge trace must transform the system into diag form: x-side
    L1 + delta_x(Q1), y-side L2 + delta_y(Q2), within the window.
    """
    if not data.gauge_trace or data.lambda1 is None:
        return False
    gauge = None
    for g in data.gauge_trace:
        gauge = g if gauge is None else gauge.compose(g)
    res = apply_gauge(sys, gauge).to_system(strict=False)
    n = data.n
    tx, ty = res.window
    for axis, lam, qdiag in (("x", data.lambda1, data.q1),
                             ("y", data.lambda2, data.q2)):
        mat = res.amat if axis == "x" else res.bmat
        pole = res.p if axis == "x" else res.q
        for i in range(n):
            for j in range(n):
                expect = {}
                if i == j:
                    for k, c in qdiag[i].items():
                        if k.denominator != 1:
                            return False
                        # delta of c*v^-k is -k*c*v^-k; poles sit at
                        # series offset pole - k.
                        expect[int(pole - k)] = -k * c
                    expect[pole] = expect.get(pole, Fraction(0)) + lam[i][j]
                elif lam[i][j] != 0:
                    expect[pole] = lam[i][j]
                got = mat.at(i, j)
                want = BiSeries(
                    {
                        ((e, 0) if axis == "x" else (0, e)): c
                        for e, c in expect.items()
                        if c != 0 and e >= 0
                    },
                    tx,
                    ty,
                )
                if any(e < 0 for e in expect if expect[e] != 0):
                    return False
                if not (got == want):
                    return False
    return True
