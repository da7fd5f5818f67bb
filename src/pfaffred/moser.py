"""Moser reducibility criterion and compatible rank reduction.

The reduction loop works on one subsystem at a time (axis "x" or "y"); the
other axis plays the role of the coefficient ring.  One pass of the loop,
for a subsystem x^(-p)(A0(y) + A1(y) x + ...) with r = rank A0 and p >= 1:

  1. a unimodular column reduction over the y-series ring puts A0 into a
     block form with its column space in the first r columns and the rank-d
     top-left corner exposed;
  2. the criterion polynomial theta(lambda), the x^(n-r) coefficient of
     det(A0 + x(A1 + lambda I)), is tested for identical vanishing;
  3. if it vanishes, a unimodular Q (det 1) arranges the trailing
     coordinates into a "kept" group and a group of rho coordinates that
     the diagonal monomial gauge S = diag(x I_r, I, x I_rho) also scales;
     two exact rank conditions certify that the leading rank then strictly
     drops.

Every emitted gauge is certified compatible (normal crossings preserved,
no pole elevation), and every zero acceptance is recorded with its window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

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
    series_rank,
)
from .series import BiSeries
from .system import (
    GaugeTransform,
    PfaffianSystem,
    apply_gauge,
    leading_data,
    require_integrable,
)


def _swap_mat(m: SeriesMatrix) -> SeriesMatrix:
    return SeriesMatrix(
        m.rows,
        m.cols,
        [
            BiSeries({(j, i): c for (i, j), c in e.coeffs.items()}, e.ty, e.tx,
                     exact=e.exact)
            for e in m.entries
        ],
    )


def _flip(sys: PfaffianSystem) -> PfaffianSystem:
    """Swap the roles of the two subsystems (and of x and y)."""
    return PfaffianSystem(sys.n, sys.q, sys.p, _swap_mat(sys.bmat), _swap_mat(sys.amat))


def _flip_gauge(g: GaugeTransform) -> GaugeTransform:
    """Swap x and y in every factor (exactness preserved by _swap_mat)."""
    return GaugeTransform(
        factors=tuple(
            LaurentMatrix(_swap_mat(f.series), f.py, f.px) for f in g.factors
        ),
        provenance=g.provenance,
    )


# -- Moser rank ----------------------------------------------------------------


def moser_rank(sys: PfaffianSystem, axis: str) -> Fraction:
    """max(0, p + r/n) for the chosen subsystem, as an exact rational."""
    ld = leading_data(sys)
    if axis == "x":
        p, r = sys.p, ld.rank_a0
    else:
        p, r = sys.q, ld.rank_b0
    return max(Fraction(0), Fraction(p) + Fraction(r, sys.n))


# -- criterion polynomial --------------------------------------------------------


@dataclass(frozen=True)
class ThetaPolynomial:
    """Coefficients (series in the other variable) of the criterion
    polynomial, indexed by lambda degree; degree <= n - r."""

    coeffs: tuple
    rank_leading: int
    window: tuple

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    @property
    def is_exact(self) -> bool:
        return all(c.exact for c in self.coeffs)

    def certified_window(self):
        from .series import INF_ORDER

        if self.is_exact:
            return (INF_ORDER, INF_ORDER)
        return self.window

    def __repr__(self):
        return f"Theta(deg<={len(self.coeffs) - 1}, zero={self.is_zero()})"


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


def theta_poly(sys: PfaffianSystem, axis: str) -> ThetaPolynomial:
    """Criterion polynomial of one subsystem.

    Computed as the coefficient of main^(n-r) in det(A0 + main*(A1 + l I)),
    which equals the pole-cleared determinant formula because every lower
    coefficient mixes more than r columns of the rank-r matrix A0.
    """
    if moser_rank(sys, axis) <= 1:
        raise PreconditionViolated(
            f"criterion polynomial needs Moser rank > 1 on axis {axis}"
        )
    work = sys if axis == "x" else _flip(sys)
    n = work.n
    a0 = work.amat.coeff_matrix("x", 0)
    a1 = work.amat.coeff_matrix("x", 1)
    r = series_rank(a0.eval_zero_matrix("x"), "y")
    tx, ty = work.amat.window
    zero = BiSeries.zero(tx, ty)
    x = BiSeries.monomial(1, 1, 0, tx, ty)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            const = a0.at(i, j) + x * a1.at(i, j)
            row.append([const, x if i == j else zero])
        rows.append(row)
    det = _lambda_det(rows, n, zero)
    coeffs = []
    for k in range(n - r + 1):
        c = det[k] if k < len(det) else zero
        if not c.exact and c.tx <= n - r:
            raise TruncationExhausted(
                "window too small to read the criterion coefficient",
                window=c.window,
            )
        low = {e: v for e, v in c.coeffs.items() if e[0] < n - r}
        if low:
            raise ReductionError(
                "criterion determinant has coefficients below x^(n-r); the "
                "certified leading rank disagrees with the determinant"
            )
        coeffs.append(
            BiSeries(
                {(0, j): v for (i, j), v in c.coeffs.items() if i == n - r},
                c.tx,
                c.ty,
                exact=c.exact,
            )
        )
    if axis == "y":
        coeffs = [
            BiSeries({(j, i): v for (i, j), v in c.coeffs.items()}, c.ty, c.tx,
                     exact=c.exact)
            for c in coeffs
        ]
        return ThetaPolynomial(tuple(coeffs), r, (ty, tx))
    return ThetaPolynomial(tuple(coeffs), r, (tx, ty))


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
    work = sys if axis == "x" else _flip(sys)
    n = work.n
    a0 = work.amat.coeff_matrix("x", 0).eval_zero_matrix("x")
    v1, _, r, _ = column_echelon(a0, "y")
    conj = (LaurentMatrix(v1).inverse() * LaurentMatrix(a0) * LaurentMatrix(v1))
    a0_conj = _laurent_to_series(conj)
    if a0_conj is None:
        raise ReductionError("column reduction produced a pole")
    gauge_mats = [v1]
    d = r
    if r > 0:
        top = a0_conj.submatrix(list(range(r)), list(range(r)))
        v2, _, d, _ = column_echelon(top, "y")
        if d < r:
            tx, ty = v2.window
            rows = []
            for i in range(n):
                row = []
                for j in range(n):
                    if i < r and j < r:
                        row.append(v2.at(i, j))
                    else:
                        row.append(BiSeries.const(1 if i == j else 0, tx, ty))
                rows.append(row)
            gauge_mats.append(SeriesMatrix.from_rows(rows))
    gauge = None
    for m in gauge_mats:
        g = GaugeTransform.of_series(m, "unimodular-column-reduce")
        gauge = g if gauge is None else gauge.compose(g)
    if axis == "y":
        gauge = _flip_gauge(gauge)
    return GaussForm(gauge=gauge, d=d, r=r)


def _gauss_blocks(work: PfaffianSystem, d, r):
    """W, D, C, E blocks of a Gauss-formed x-subsystem (other variable y)."""
    n = work.n
    a0 = work.amat.coeff_matrix("x", 0).eval_zero_matrix("x")
    a1 = work.amat.coeff_matrix("x", 1).eval_zero_matrix("x")
    all_r = list(range(r))
    ker = list(range(r, n))
    return {
        "W": a0.submatrix(all_r, list(range(d))) if (d and r) else None,
        "D": a0.submatrix(ker, all_r) if (r and ker) else None,
        "C": a1.submatrix(all_r, ker) if (r and ker) else None,
        "E": a1.submatrix(ker, ker) if ker else None,
        "A0": a0,
        "A1": a1,
    }


def _verify_gauss_form(a0: SeriesMatrix, d, r, n):
    for i in range(n):
        for j in range(r, n):
            if not a0.at(i, j).is_zero():
                return False
    for i in range(r):
        for j in range(d, r):
            if not a0.at(i, j).is_zero():
                return False
    if r and series_rank(a0.submatrix(list(range(n)), list(range(r))), "y") != r:
        return False
    if d and series_rank(a0.submatrix(list(range(r)), list(range(d))), "y") != d:
        return False
    return True


# -- arranging the trailing block before the shearing ------------------------------


@dataclass(frozen=True)
class ShearingForm:
    """Certified data for one shearing step: the unimodular Q, the split
    size rho, and the rank witnessing both conditions."""

    gauge: GaugeTransform
    rho: int
    d: int
    r: int
    rank_kept: int


def _hstack_sm(parts):
    parts = [p for p in parts if p is not None and p.cols > 0]
    if not parts:
        return None
    rows = parts[0].rows
    out = []
    for i in range(rows):
        row = []
        for p in parts:
            row.extend(p.at(i, j) for j in range(p.cols))
        out.append(row)
    return SeriesMatrix.from_rows(out)


def _vstack_sm(parts):
    parts = [p for p in parts if p is not None and p.rows > 0]
    if not parts:
        return None
    out = []
    for p in parts:
        out.extend([list(p.row(i)) for i in range(p.rows)])
    return SeriesMatrix.from_rows(out)


def _laurent_to_series(l: LaurentMatrix):
    l = l.normalize()
    if l.px > 0 or l.py > 0:
        return None
    return l.series.shift(max(-l.px, 0), max(-l.py, 0))


def _certify_split(blocks, d, r, n, v3_basis):
    """Check the shearing-form conditions for a candidate kept-subspace
    basis of the trailing coordinate space.  Returns (ok, rank_kept, q4);
    q4 is None when the candidate is the whole space (rho = 0)."""
    m = n - r
    W, D, C, E = blocks["W"], blocks["D"], blocks["C"], blocks["E"]
    if v3_basis is None or v3_basis.cols == m:
        x_mat = _hstack_sm([W, C])
        rank_x = series_rank(x_mat, "y") if x_mat is not None else 0
        return rank_x < r, rank_x, None
    q4 = _complete_unimodular(v3_basis, m)
    if q4 is None:
        return False, -1, None
    q4_l = LaurentMatrix(q4)
    q4_inv = q4_l.inverse()
    k = v3_basis.cols
    c_new = _laurent_to_series(LaurentMatrix(C) * q4_l)
    d_new = _laurent_to_series(q4_inv * LaurentMatrix(D))
    e_new = _laurent_to_series(q4_inv * LaurentMatrix(E) * q4_l)
    if c_new is None or d_new is None or e_new is None:
        return False, -1, None
    g3 = list(range(k))
    g4 = list(range(k, m))
    # Sheared trailing rows of the first-r columns, columns d..r, must vanish.
    for i in g4:
        for j in range(d, r):
            if not d_new.at(i, j).is_zero():
                return False, -1, None
    x_mat = _hstack_sm([W, c_new.submatrix(list(range(r)), g3) if g3 else None])
    y_mat = _hstack_sm(
        [
            d_new.submatrix(g4, list(range(d))) if d else None,
            e_new.submatrix(g4, g3) if g3 else None,
        ]
    )
    rank_x = series_rank(x_mat, "y") if x_mat is not None else 0
    if rank_x >= r:
        return False, -1, None
    if y_mat is not None:
        stacked = _vstack_sm([x_mat, y_mat])
        if stacked is not None and series_rank(stacked, "y") != rank_x:
            return False, -1, None
    return True, rank_x, q4


def _complete_unimodular(basis: SeriesMatrix, m: int):
    """Complete the columns of `basis` (saturated, full rank over the
    series ring) to a unimodular m x m matrix with determinant exactly 1.
    None if the basis is not a direct summand on this window."""
    from . import qlinalg

    k = basis.cols
    tx, ty = basis.window
    const = basis.constant_part()
    pivots = qlinalg.rref(qlinalg.transpose(const))[1]
    if len(pivots) != k:
        return None
    complement = [i for i in range(m) if i not in pivots][: m - k]
    cols = [[basis.at(i, j) for i in range(m)] for j in range(k)]
    for c in complement:
        cols.append([BiSeries.const(1 if i == c else 0, tx, ty) for i in range(m)])
    q4 = SeriesMatrix.from_rows(
        [[cols[j][i] for j in range(m)] for i in range(m)]
    )
    det = q4.det()
    if det.coeff(0, 0) == 0:
        return None
    inv = det.invert()
    last = m - 1
    entries = []
    for i in range(m):
        for j in range(m):
            e = q4.at(i, j)
            entries.append(e * inv if j == last else e)
    return SeriesMatrix(m, m, entries)


def _saturated_stages(vd_cols, e_block, m):
    """Bases of the span of vd_cols closed step by step under the trailing
    block, saturated over the series ring.  Stops at rank stability or the
    whole space."""
    stages = []
    current = vd_cols
    prev_rank = -1
    for _ in range(m + 2):
        mat = SeriesMatrix.from_rows(
            [[col[i] for col in current] for i in range(m)]
        )
        _, red, rank, _ = column_echelon(mat, "y")
        if rank == 0 or rank == prev_rank:
            break
        sat_cols = []
        for j in range(rank):
            col = [red.at(i, j) for i in range(m)]
            c = min(e.val("y") for e in col)
            if c:
                col = [e.divide_monomial(0, c) for e in col]
            sat_cols.append(col)
        stages.append(
            SeriesMatrix.from_rows([[c[i] for c in sat_cols] for i in range(m)])
        )
        if rank == m:
            break
        prev_rank = rank
        closed = list(sat_cols)
        for col in sat_cols:
            vec = SeriesMatrix.from_rows([[c] for c in col])
            img = _laurent_to_series(LaurentMatrix(e_block) * LaurentMatrix(vec))
            if img is not None:
                closed.append([img.at(i, 0) for i in range(m)])
        current = closed
    return stages


def _candidate_subspaces(blocks, d, r, n):
    """Candidate kept-subspaces of the trailing coordinate space: the whole
    space first (rho = 0), then closures of the span of the lower-left
    leading-block columns d..r under the trailing block, most closed first."""
    yield None
    m = n - r
    D, E = blocks["D"], blocks["E"]
    if D is None or E is None or r == d:
        return
    vd_cols = [[D.at(i, j) for i in range(m)] for j in range(d, r)]
    if not vd_cols:
        return
    seen = set()
    for basis in reversed(_saturated_stages(vd_cols, E, m)):
        if basis.cols in seen or basis.cols == m:
            continue
        seen.add(basis.cols)
        yield basis


def prepare_shearing(sys: PfaffianSystem, axis: str) -> ShearingForm:
    """Arrange the trailing coordinates for a rank-dropping shearing.

    Precondition: the subsystem is in the reduced leading form
    (column_reduce_leading applied), its Moser rank exceeds 1, and the
    criterion polynomial vanishes identically on the window.  Produces a
    unimodular Q with det 1 and a split size rho in [0, n-r] such that
    both rank conditions hold, certified by exact rank computation.
    """
    theta = theta_poly(sys, axis)
    if not theta.is_zero():
        raise PreconditionViolated(
            "criterion polynomial does not vanish; subsystem is Moser-irreducible"
        )
    work = sys if axis == "x" else _flip(sys)
    n = work.n
    r = theta.rank_leading
    a0 = work.amat.coeff_matrix("x", 0).eval_zero_matrix("x")
    top = a0.submatrix(list(range(r)), list(range(r))) if r else None
    d = series_rank(top, "y") if top is not None else 0
    if not _verify_gauss_form(a0, d, r, n):
        raise PreconditionViolated("subsystem is not in the reduced leading form")
    blocks = _gauss_blocks(work, d, r)
    m = n - r
    tx, ty = work.window
    for basis in _candidate_subspaces(blocks, d, r, n):
        ok, rank_kept, q4 = _certify_split(blocks, d, r, n, basis)
        if not ok:
            continue
        if q4 is None:
            gauge = GaugeTransform.of_series(
                SeriesMatrix.identity(n, tx, ty), "arrange-trailing"
            )
            rho = 0
        else:
            rows = []
            for i in range(n):
                row = []
                for j in range(n):
                    if i < r and j < r:
                        row.append(BiSeries.const(1 if i == j else 0, tx, ty))
                    elif i >= r and j >= r:
                        row.append(q4.at(i - r, j - r))
                    else:
                        row.append(BiSeries.zero(tx, ty))
                rows.append(row)
            gauge = GaugeTransform.of_series(
                SeriesMatrix.from_rows(rows), "arrange-trailing"
            )
            rho = m - basis.cols
        if axis == "y":
            gauge = _flip_gauge(gauge)
        return ShearingForm(gauge=gauge, rho=rho, d=d, r=r, rank_kept=rank_kept)
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
    final_gauge: GaugeTransform | None = None
    moser_rank_final: dict = field(default_factory=dict)

    def record_zero(self, what, window):
        self.zero_acceptances.append({"what": what, "window": list(window)})


def _subsystem_rank(sys: PfaffianSystem, axis: str) -> int:
    ld = leading_data(sys)
    return ld.rank_a0 if axis == "x" else ld.rank_b0


def _check_shear_null_blocks(sys, axis, r, rho):
    """The other subsystem's blocks that the shearing scales by 1/var must
    vanish at var = 0; guaranteed by integrability, verified exactly."""
    work = sys if axis == "x" else _flip(sys)
    n = work.n
    other0 = work.bmat.eval_zero_matrix("x")
    kept = list(range(r, n - rho))
    scaled_rows = list(range(r)) + list(range(n - rho, n))
    for i in scaled_rows:
        for j in kept:
            if not other0.at(i, j).is_zero():
                raise IntegrabilityViolation(
                    "shearing would introduce a pole in the other subsystem: "
                    f"entry ({i},{j}) is nonzero at the axis origin",
                    window=other0.window,
                )
    return other0.window


def reduce_subsystem_step(sys: PfaffianSystem, axis: str):
    """One certified pass: column reduction, arrangement, shearing.

    Returns (gauge, new_system, step_records).  The pair (pole, leading
    rank) strictly decreases lexicographically.
    """
    p = sys.p if axis == "x" else sys.q
    if p <= 0:
        raise PreconditionViolated("pole order is zero on this axis")
    if not theta_poly(sys, axis).is_zero():
        raise PreconditionViolated("subsystem is Moser-irreducible")
    steps = []
    gauge_total = None
    current = sys

    def push(g, kind):
        nonlocal gauge_total, current
        p_b = current.p if axis == "x" else current.q
        r_b = _subsystem_rank(current, axis)
        m_b = moser_rank(current, axis)
        res = apply_gauge(current, g)
        compat = res.compatible_with(current)
        nxt = res.to_system(strict=False)
        steps.append(
            ReductionStep(
                axis=axis,
                kind=kind,
                p_before=p_b,
                p_after=nxt.p if axis == "x" else nxt.q,
                rank_before=r_b,
                rank_after=_subsystem_rank(nxt, axis),
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
    form = prepare_shearing(current, axis)
    push(form.gauge, "arrange-trailing")
    _check_shear_null_blocks(current, axis, form.r, form.rho)
    tx, ty = current.window
    p_before = current.p if axis == "x" else current.q
    r_before = _subsystem_rank(current, axis)
    push(shearing_matrix(form.r, form.rho, current.n, axis, tx, ty), "shearing")
    p_after = current.p if axis == "x" else current.q
    r_after = _subsystem_rank(current, axis)
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
        p = current.p if axis == "x" else current.q
        if p <= 0:
            break
        theta = theta_poly(current, axis)
        if not theta.is_zero():
            break
        if report is not None:
            report.record_zero(f"theta_{axis}", theta.certified_window())
        g, current, steps = reduce_subsystem_step(current, axis)
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
    report.final_gauge = gauge_total
    report.moser_rank_final = {
        "x": moser_rank(current, "x"),
        "y": moser_rank(current, "y"),
    }
    return gauge_total, current, report
