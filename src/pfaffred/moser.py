"""Moser reducibility criterion and compatible rank reduction.

The reduction loop works on one subsystem at a time, on an axis v ("x" or
"y"); w, the other variable, plays the role of the coefficient ring.  One
pass of the loop, for a subsystem v^(-p)(A0(w) + A1(w) v + ...) with
r = rank A0 and p >= 1:

  1. a unimodular column reduction over the w-series ring puts A0 into a
     block form with its column space in the first r columns and the rank-d
     top-left corner exposed;
  2. the criterion polynomial theta(lambda), the v^(n-r) coefficient of
     det(A0 + v(A1 + lambda I)), is tested for identical vanishing;
  3. if it vanishes, a unimodular Q (det 1) arranges the trailing
     coordinates into a "kept" group and a group of rho coordinates that
     the diagonal monomial gauge S = diag(v I_r, I, v I_rho) also scales;
     two exact rank conditions certify that the leading rank then strictly
     drops.

The arrangement takes the ranks (d, r) of step 1's Gauss form and only
verifies that the reduced leading matrix has that form.  It does not
compute theta again: the step-1 gauge T is unimodular and free of v, so
it maps A to T^(-1) A T and keeps det(A0 + v(A1 + lambda I)), hence theta.

The step reads its subsystem through sys.side(axis), sys.pole(axis) and
the cached leading matrix, and does its linear algebra over the w-series
ring, so both axes run the same code.  Every emitted gauge is certified
compatible (normal crossings preserved, no pole elevation), and every zero
acceptance is recorded with its window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import qlinalg
from .errors import (
    IntegrabilityViolation,
    PreconditionViolated,
    ReductionError,
    TruncationExhausted,
)
from .matrices import (
    LaurentMatrix,
    SeriesMatrix,
    column_echelon,
    embed_block,
    series_rank,
)
from .series import INF_ORDER, ONE, BiSeries, dots, exponent, other
from .system import (
    GaugeTransform,
    PfaffianSystem,
    apply_gauge,
    require_integrable,
)


def _leading(sys: PfaffianSystem, axis: str) -> SeriesMatrix:
    """A0 of the subsystem on `axis`: its cached entry of sys.leading."""
    return sys.leading["xy".index(axis)]


# -- Moser rank ----------------------------------------------------------------


def moser_rank(sys: PfaffianSystem, axis: str) -> Fraction:
    """max(0, p + r/n) for the chosen subsystem, as an exact rational."""
    return max(Fraction(0),
               Fraction(sys.pole(axis)) + Fraction(sys.leading_rank(axis), sys.n))


# -- criterion polynomial --------------------------------------------------------


@dataclass(frozen=True)
class ThetaPolynomial:
    """Coefficients (series in the other variable) of the criterion
    polynomial, indexed by lambda degree; degree <= n - r."""

    coeffs: tuple
    window: tuple

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    @property
    def is_exact(self) -> bool:
        return all(c.exact for c in self.coeffs)

    def certified_window(self):
        if self.is_exact:
            return (INF_ORDER, INF_ORDER)
        return self.window

    def __repr__(self):
        return f"Theta(deg<={len(self.coeffs) - 1}, zero={self.is_zero()})"


def theta_poly(sys: PfaffianSystem, axis: str) -> ThetaPolynomial:
    """Criterion polynomial of one subsystem.

    Computed as the coefficient of v^(n-r) in det(A0 + v*(A1 + l I)), v the
    axis variable, which equals the pole-cleared determinant formula
    because every lower coefficient mixes more than r columns of the rank-r
    matrix A0.  With M = A0 + v*A1, det(M + l*v*I) = sum_k c_k(-M) v^k l^k,
    where c_k is the t^k coefficient of the characteristic polynomial.
    """
    if moser_rank(sys, axis) <= 1:
        raise PreconditionViolated(
            f"criterion polynomial needs Moser rank > 1 on axis {axis}"
        )
    r = sys.leading_rank(axis)
    n, side, k_axis = sys.n, sys.side(axis), "xy".index(axis)
    a0 = _leading(sys, axis)
    a1 = side.coeff_matrix(axis, 1)
    tx, ty = side.window
    v = BiSeries.monomial(1, *exponent(axis, 1), tx, ty)
    entries = dots([[(-1, a0.at(i, j), ONE), (-1, v, a1.at(i, j))]
                    for i in range(n) for j in range(n)])
    minus_m = [entries[i * n:(i + 1) * n] for i in range(n)]
    cp = qlinalg.charpoly(minus_m, BiSeries.const(1, tx, ty))
    coeffs = []
    for k in range(n - r + 1):
        c = cp[k].shift(*exponent(axis, k))
        if not c.exact and c.window[k_axis] <= n - r:
            raise TruncationExhausted(
                "window too small to read the criterion coefficient",
                window=c.window,
            )
        if c.val(axis) < n - r:
            raise ReductionError(
                f"criterion determinant has coefficients below {axis}^(n-r); "
                "the certified leading rank disagrees with the determinant"
            )
        coeffs.append(c.coefficient(axis, n - r))
    return ThetaPolynomial(tuple(coeffs), side.window)


# -- column reduction into the leading block form ---------------------------------


@dataclass(frozen=True)
class GaussForm:
    gauge: GaugeTransform
    d: int
    r: int


def column_reduce_leading(sys: PfaffianSystem, axis: str) -> GaussForm:
    """Unimodular U over the other-variable ring such that the conjugated
    leading matrix has its column space in the first r columns (trailing
    n-r columns zero on the window) and a rank-d top-left corner whose
    last r-d columns vanish in the top r rows."""
    n, w = sys.n, other(axis)
    a0 = _leading(sys, axis)
    v1, _, r, v1_inv = column_echelon(a0, w)
    a0_conj = v1_inv * a0 * v1
    gauge = GaugeTransform._of(LaurentMatrix(v1), LaurentMatrix(v1_inv),
                               "unimodular-column-reduce")
    d = r
    if r > 0:
        top = a0_conj.submatrix(list(range(r)), list(range(r)))
        v2, _, d, v2_inv = column_echelon(top, w)
        if d < r:
            gauge = gauge.compose(GaugeTransform._of(
                *(embed_block(LaurentMatrix(blk), range(r), n, *v2.window)
                  for blk in (v2, v2_inv)),
                "unimodular-column-reduce"))
    return GaussForm(gauge=gauge, d=d, r=r)


def _gauss_blocks(sys: PfaffianSystem, axis, d, r):
    """W, D, C, E blocks of the Gauss-formed subsystem on `axis`; a block
    with no rows or no columns is an empty matrix of its shape."""
    a0 = _leading(sys, axis)
    a1 = sys.side(axis).coeff_matrix(axis, 1)
    top, ker = list(range(r)), list(range(r, sys.n))
    return (a0.submatrix(top, list(range(d))), a0.submatrix(ker, top),
            a1.submatrix(top, ker), a1.submatrix(ker, ker))


def _verify_gauss_form(sys: PfaffianSystem, axis, d, r):
    """True iff the leading matrix of the subsystem on `axis` is in the
    reduced leading form with ranks (d, r).  Its trailing columns are
    checked zero first, so its cached rank is the rank of the first r."""
    a0, n = _leading(sys, axis), sys.n
    # Columns r..n vanish, and in the top r rows columns d..r too.
    if not all(a0.at(i, j).is_zero()
               for i in range(n) for j in range(d if i < r else r, n)):
        return False
    if sys.leading_rank(axis) != r:
        return False
    if d and series_rank(a0.submatrix(list(range(r)), list(range(d))),
                         other(axis)) != d:
        return False
    return True


# -- arranging the trailing block before the shearing ------------------------------


@dataclass(frozen=True)
class ShearingForm:
    """Certified data for one shearing step: the unimodular Q, the split
    size rho, and the rank witnessing both conditions."""

    gauge: GaugeTransform
    rho: int
    rank_kept: int


def _hstack(parts):
    """The matrices `parts`, of one row count, side by side."""
    rows = parts[0].rows
    return SeriesMatrix(rows, sum(p.cols for p in parts),
                        [e for i in range(rows) for p in parts for e in p.row(i)])


def _certify_split(blocks, d, r, basis, axis):
    """Check the shearing-form conditions for a candidate kept-subspace
    basis of the trailing coordinate space, None for the whole space.
    Returns (ok, rank_kept, q4): q4 is the pair (Q4, its inverse as a
    series matrix), or None for the whole space (rho = 0)."""
    w = other(axis)
    W, D, C, E = blocks
    if basis is None:
        rank_x = series_rank(_hstack([W, C]), w)
        return rank_x < r, rank_x, None
    q4 = _complete_unimodular(basis, axis)
    if q4 is None:
        return False, -1, None
    q, q_inv = q4
    c_new, d_new, e_new = C * q, q_inv * D, q_inv * E * q
    g3 = list(range(basis.cols))
    g4 = list(range(basis.cols, basis.rows))
    # Sheared trailing rows of the first-r columns, columns d..r, must vanish.
    for i in g4:
        for j in range(d, r):
            if not d_new.at(i, j).is_zero():
                return False, -1, None
    x_mat = _hstack([W, c_new.submatrix(list(range(r)), g3)])
    y_mat = _hstack([d_new.submatrix(g4, list(range(d))), e_new.submatrix(g4, g3)])
    rank_x = series_rank(x_mat, w)
    if rank_x >= r:
        return False, -1, None
    stacked = SeriesMatrix(x_mat.rows + y_mat.rows, x_mat.cols,
                           x_mat.entries + y_mat.entries)
    if series_rank(stacked, w) != rank_x:
        return False, -1, None
    return True, rank_x, q4


def _complete_unimodular(basis: SeriesMatrix, axis):
    """Complete the span of the columns of `basis` (m x k, saturated, full
    rank over the series ring) to a unimodular m x m matrix Q whose first k
    columns span it; returns (Q, Q^(-1)), or None when the basis is not a
    direct summand on this window (its constant part has rank < k).  The
    ring is the series ring in the other variable of `axis`.

    The column reduction basis^T V = [R, 0] (column_echelon) gives both: R
    is invertible, so basis = (V^(-1))^T [R^T; 0], and Q = (V^(-1))^T with
    Q^(-1) = V^T."""
    if qlinalg.rank(basis.constant_part()) < basis.cols:
        return None
    v, _, _, v_inv = column_echelon(basis.transpose(), other(axis))
    return v_inv.transpose(), v.transpose()


def _saturated_stages(vd_cols, e_block, m, axis):
    """Bases of the span of vd_cols closed step by step under the trailing
    block, saturated over the series ring in the other variable of `axis`.
    Stops at rank stability or the whole space."""
    w = other(axis)
    stages = []
    current = vd_cols
    prev_rank = -1
    for _ in range(m + 2):
        mat = SeriesMatrix.from_rows(
            [[col[i] for col in current] for i in range(m)]
        )
        _, red, rank, _ = column_echelon(mat, w)
        if rank == 0 or rank == prev_rank:
            break
        sat_cols = []
        for j in range(rank):
            col = [red.at(i, j) for i in range(m)]
            c = min(e.val(w) for e in col)
            if c:
                col = [e.divide_monomial(*exponent(axis, 0, c)) for e in col]
            sat_cols.append(col)
        stages.append(
            SeriesMatrix.from_rows([[c[i] for c in sat_cols] for i in range(m)])
        )
        if rank == m:
            break
        prev_rank = rank
        closed = list(sat_cols)
        for col in sat_cols:
            img = e_block * SeriesMatrix.from_rows([[c] for c in col])
            closed.append([img.at(i, 0) for i in range(m)])
        current = closed
    return stages


def _candidate_subspaces(blocks, d, r, axis):
    """Candidate kept-subspaces of the trailing coordinate space: the whole
    space first (rho = 0), then closures of the span of the lower-left
    leading-block columns d..r under the trailing block, most closed first."""
    yield None
    if r == d:
        return
    _, D, _, E = blocks
    m = D.rows
    vd_cols = [[D.at(i, j) for i in range(m)] for j in range(d, r)]
    seen = set()
    for basis in reversed(_saturated_stages(vd_cols, E, m, axis)):
        if basis.cols in seen or basis.cols == m:
            continue
        seen.add(basis.cols)
        yield basis


def _prepare_shearing(sys: PfaffianSystem, axis: str,
                      gauss: GaussForm) -> ShearingForm:
    """Arrange the trailing coordinates for a rank-dropping shearing.

    `sys` is the step's input after gauss.gauge, and gauss carries its
    ranks (d, r).  The step has certified that the criterion polynomial
    vanishes.  Produces a unimodular Q with det 1 and a split size rho in
    [0, n-r] such that both rank conditions hold, certified by exact rank
    computation.
    """
    d, r, n = gauss.d, gauss.r, sys.n
    if not _verify_gauss_form(sys, axis, d, r):
        raise PreconditionViolated("subsystem is not in the reduced leading form")
    blocks = _gauss_blocks(sys, axis, d, r)
    tx, ty = sys.window
    for basis in _candidate_subspaces(blocks, d, r, axis):
        ok, rank_kept, q4 = _certify_split(blocks, d, r, basis, axis)
        if not ok:
            continue
        if q4 is None:
            gauge = GaugeTransform.identity(n, tx, ty, "arrange-trailing")
            rho = 0
        else:
            gauge = GaugeTransform._of(
                *(embed_block(LaurentMatrix(blk), range(r, n), n, tx, ty)
                  for blk in q4), "arrange-trailing")
            rho = n - r - basis.cols
        return ShearingForm(gauge=gauge, rho=rho, rank_kept=rank_kept)
    raise ReductionError(
        "no certified arrangement of the trailing block was found although "
        "the criterion polynomial vanishes; the window may be too small"
    )


def shearing_matrix(r, rho, n, var, tx, ty) -> GaugeTransform:
    """diag(v I_r, I_(n-r-rho), v I_rho) in the given variable."""
    if not (0 <= rho <= n - r):
        raise PreconditionViolated("rho out of range")
    exps = [1] * r + [0] * (n - r - rho) + [1] * rho
    return GaugeTransform.monomial(var, exps, tx, ty, kind="shearing")


# -- one reduction pass and the full loop -------------------------------------------


@dataclass
class ReductionStep:
    axis: str
    kind: str
    p_before: int
    p_after: int
    rank_before: int
    rank_after: int
    moser_before: Fraction
    moser_after: Fraction
    compatible: bool
    window: tuple


@dataclass
class ReductionReport:
    steps: list = field(default_factory=list)
    zero_acceptances: list = field(default_factory=list)
    moser_rank_final: dict = field(default_factory=dict)

    def record_zero(self, what, window):
        self.zero_acceptances.append({"what": what, "window": list(window)})


def _check_shear_null_blocks(sys, axis, r, rho):
    """The other subsystem's blocks that the shearing scales by 1/var must
    vanish at var = 0; guaranteed by integrability, verified exactly."""
    n = sys.n
    other0 = sys.side(other(axis)).eval_zero_matrix(axis)
    kept = list(range(r, n - rho))
    scaled_rows = list(range(r)) + list(range(n - rho, n))
    for i in scaled_rows:
        for j in kept:
            if not other0.at(i, j).is_zero():
                raise IntegrabilityViolation(
                    "shearing would introduce a pole in the other "
                    f"subsystem: entry ({i},{j}) is nonzero at the axis "
                    "origin",
                    window=other0.window,
                )


def reduce_subsystem_step(sys: PfaffianSystem, axis: str,
                          theta: ThetaPolynomial | None = None):
    """One certified pass: column reduction, arrangement, shearing.

    `theta` is the criterion polynomial of `sys` on this axis, when the
    caller has it already.  Returns (gauge, new_system, step_records).  The
    pair (pole, leading rank) strictly decreases lexicographically.
    """
    p = sys.pole(axis)
    if p <= 0:
        raise PreconditionViolated("pole order is zero on this axis")
    if theta is None:
        theta = theta_poly(sys, axis)
    if not theta.is_zero():
        raise PreconditionViolated("subsystem is Moser-irreducible")
    steps = []
    gauge_total = None
    current = sys

    def push(g, kind):
        nonlocal gauge_total, current
        p_b = current.pole(axis)
        r_b = current.leading_rank(axis)
        m_b = moser_rank(current, axis)
        # to_system raises InvariantViolation when normal crossings break.
        nxt = apply_gauge(current, g).to_system()
        compat = nxt.p <= current.p and nxt.q <= current.q
        steps.append(
            ReductionStep(
                axis=axis,
                kind=kind,
                p_before=p_b,
                p_after=nxt.pole(axis),
                rank_before=r_b,
                rank_after=nxt.leading_rank(axis),
                moser_before=m_b,
                moser_after=moser_rank(nxt, axis),
                compatible=compat,
                window=nxt.window,
            )
        )
        if not compat:
            raise ReductionError(f"emitted gauge ({kind}) is not compatible")
        gauge_total = g if gauge_total is None else gauge_total.compose(g)
        current = nxt

    gf = column_reduce_leading(current, axis)
    push(gf.gauge, "unimodular-column-reduce")
    # A unimodular gauge keeps the leading matrix nonzero, so a pole that
    # fell here means the conjugated leading matrix vanishes only on a
    # window shrunk by the reduction's unit inversions.
    if current.pole(axis) < p:
        raise TruncationExhausted(
            "column reduction left a leading matrix that vanishes only on "
            f"its window (axis {axis})",
            window=current.window,
        )
    form = _prepare_shearing(current, axis, gf)
    push(form.gauge, "arrange-trailing")
    _check_shear_null_blocks(current, axis, gf.r, form.rho)
    tx, ty = current.window
    p_before = current.pole(axis)
    r_before = current.leading_rank(axis)
    push(shearing_matrix(gf.r, form.rho, current.n, axis, tx, ty), "shearing")
    p_after = current.pole(axis)
    r_after = current.leading_rank(axis)
    if (p_after, r_after) >= (p_before, r_before):
        raise ReductionError(
            "shearing did not strictly decrease (pole, leading rank): "
            f"({p_before},{r_before}) -> ({p_after},{r_after})"
        )
    return gauge_total, current, steps


def reduce_axis(sys: PfaffianSystem, axis: str, report: ReductionReport | None = None):
    """Reduce one subsystem to Moser-irreducible form.  Returns
    (gauge_or_None, system); steps accumulate into the report if given."""
    gauge_total = None
    current = sys
    while True:
        if current.pole(axis) <= 0:
            break
        theta = theta_poly(current, axis)
        if not theta.is_zero():
            break
        if report is not None:
            report.record_zero(f"theta_{axis}", theta.certified_window())
        g, current, steps = reduce_subsystem_step(current, axis, theta)
        if report is not None:
            report.steps.extend(steps)
        gauge_total = g if gauge_total is None else gauge_total.compose(g)
    return gauge_total, current


def rank_reduce(sys: PfaffianSystem):
    """Full rank reduction: the x-subsystem to Moser-irreducible form, then
    the y-subsystem.  Returns (gauge, system, report); the output Poincare
    rank is the true Poincare rank."""
    require_integrable(sys)
    return _rank_reduce(sys)


def _rank_reduce(sys: PfaffianSystem):
    """rank_reduce on a system already certified integrable."""
    report = ReductionReport()
    gauge_total = None
    current = sys
    for axis in ("x", "y"):
        g, current = reduce_axis(current, axis, report)
        if g is not None:
            gauge_total = g if gauge_total is None else gauge_total.compose(g)
    if gauge_total is None:
        tx, ty = sys.window
        gauge_total = GaugeTransform.identity(sys.n, tx, ty)
    report.moser_rank_final = {
        "x": moser_rank(current, "x"),
        "y": moser_rank(current, "y"),
    }
    return gauge_total, current, report
