"""Pfaffian systems with normal crossings, gauge action, integrability.

A system is the pair

    x dY/dx = x^(-p) * Amat * Y,      y dY/dy = y^(-q) * Bmat * Y

with Amat, Bmat square series matrices and (p, q) the Poincare rank.  A
change of basis Y = T Z transforms both sides simultaneously:

    T[A] = T^(-1) (A T - x dT/dx),    T[B] = T^(-1) (B T - y dT/dy).

apply_gauge returns raw Laurent data so that non-compatible gauges (which
destroy normal crossings) can still be computed and inspected; conversion
back to PfaffianSystem validates the normal-crossings invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import qlinalg
from .errors import (
    DimensionMismatch,
    IntegrabilityViolation,
    InvariantViolation,
    PreconditionViolated,
    TruncationExhausted,
)
from .matrices import LaurentMatrix, SeriesMatrix, series_rank
from .series import INF_ORDER, BiSeries, exponent


@dataclass(frozen=True)
class PfaffianSystem:
    n: int
    p: int
    q: int
    amat: SeriesMatrix
    bmat: SeriesMatrix

    def __post_init__(self):
        if self.amat.rows != self.n or self.amat.cols != self.n:
            raise DimensionMismatch("Amat must be n x n")
        if self.bmat.rows != self.n or self.bmat.cols != self.n:
            raise DimensionMismatch("Bmat must be n x n")
        if self.p < 0 or self.q < 0:
            raise InvariantViolation("Poincare ranks must be nonnegative")

    @classmethod
    def make(cls, n, p, q, amat, bmat, strict=True):
        """Build with pole normalization: leading series nonzero when the
        pole is positive (pole orders re-adjusted downward as needed)."""
        p, amat = _normalize_side(p, amat, "x", strict)
        q, bmat = _normalize_side(q, bmat, "y", strict)
        return cls(n, p, q, amat, bmat)

    # The leading data is derived once per system object, on first use.

    @cached_property
    def leading(self):
        """(Amat(0, y), Bmat(x, 0)), evaluated together: a window with no
        x^0 (or y^0) information fails here, whichever rank is asked."""
        return self.amat.eval_zero_matrix("x"), self.bmat.eval_zero_matrix("y")

    @cached_property
    def rank_x(self) -> int:
        """Rank of Amat(0, y) over the y-series ring."""
        return series_rank(self.leading[0], "y")

    @cached_property
    def rank_y(self) -> int:
        """Rank of Bmat(x, 0) over the x-series ring."""
        return series_rank(self.leading[1], "x")

    # The axis -> field mapping: "x" names p, Amat and rank_x, "y" names
    # q, Bmat and rank_y.

    def pole(self, axis) -> int:
        return self.p if axis == "x" else self.q

    def side(self, axis) -> SeriesMatrix:
        return self.amat if axis == "x" else self.bmat

    def leading_rank(self, axis) -> int:
        return self.rank_x if axis == "x" else self.rank_y

    @property
    def window(self):
        tx = min(self.amat.window[0], self.bmat.window[0])
        ty = min(self.amat.window[1], self.bmat.window[1])
        return (tx, ty)

    def a_laurent(self) -> LaurentMatrix:
        return LaurentMatrix(self.amat, self.p, 0)

    def b_laurent(self) -> LaurentMatrix:
        return LaurentMatrix(self.bmat, 0, self.q)

    def same_up_to_window(self, other) -> bool:
        return (
            self.n == other.n
            and self.a_laurent() == other.a_laurent()
            and self.b_laurent() == other.b_laurent()
        )


def _normalize_side(p, mat, var, strict):
    if mat.is_zero():
        if p > 0 and strict:
            if not mat.is_exact:
                raise TruncationExhausted(
                    f"the {var}-subsystem vanishes on its window, so its "
                    f"pole {p} is not certified", window=mat.window)
            raise InvariantViolation(
                f"leading series of the {var}-subsystem vanishes on the window "
                f"with pole {p} > 0"
            )
        return 0, mat
    c = mat.content(var)
    drop = min(c, p)
    if drop:
        mat = mat.divide_monomial(*exponent(var, drop))
        p -= drop
    if p > 0:
        lead = mat.coeff_matrix(var, 0)
        if lead.is_zero() and strict:
            raise InvariantViolation(
                f"{var}-leading coefficient matrix vanishes with pole {p} > 0"
            )
    return p, mat


def check_integrability(sys: PfaffianSystem):
    """Evaluate the commutation identity on the full Laurent coefficients.

    Returns (verdict, window): verdict is True iff

        x dB/dx + B A - y dA/dy - A B

    vanishes within the guaranteed window (the identity is checked after
    clearing the poles x^p y^q, which keeps everything in the series ring).
    B A - A B is one sum of products, so each entry of A and B is packed
    once for both products and each entry of it is unpacked once.
    """
    sa, sb = sys.amat, sys.bmat
    r = (
        sb.delta("x").shift(sys.p, 0)
        + SeriesMatrix.dot([(1, sb, sa), (-1, sa, sb)])
        - sa.delta("y").shift(0, sys.q)
    )
    if r.is_exact:
        return r.is_zero(), (INF_ORDER, INF_ORDER)
    return r.is_zero(), r.window


def require_integrable(sys: PfaffianSystem):
    """Certify integrability at a public entry point.

    Every gauge maps an integrable system to an integrable one, so the
    systems derived from a certified input are not checked again.
    """
    ok, window = check_integrability(sys)
    if not ok:
        raise IntegrabilityViolation(
            "system is not integrable within the window", window=window
        )


# -- gauge transformations ----------------------------------------------------


@dataclass(frozen=True)
class GaugeTransform:
    """A change of basis, kept in factored form, each factor with its inverse.

    Each factor is a LaurentMatrix (unimodular series matrices and diagonal
    monomial scalings are the factors this toolkit emits); provenance
    records one construction tag per factor.

    inverses[k] is the inverse of factors[k], supplied when the factor is
    built, by the code that knows it: a constant factor is inverted over Q,
    a unipotent series factor by its coefficient recursion, a monomial
    factor from its exponents, both column-reduce factors of a Moser step
    by the elimination that made them (column_echelon), and the trailing
    arrangement Q4 by the column reduction that completes it.  The library
    builds these factors with _of, unchecked; a gauge from outside it
    brings its inverse to of_series, which checks it.

    The reference is the cofactor inverse of tests/oracle_cofactor.py, and
    every carried inverse equals it in value.  An exact monomial inverse
    carries its factor's nominal orders, where the cofactor one would take
    those of its minors.  An elimination inverse can be exact where the
    cofactor one is truncated, or carry other nominal orders (see
    column_echelon), and a block lifted by embed_block is exact outside
    the block.
    apply_gauge and inverse() never invert a factor.
    """

    factors: tuple
    inverses: tuple
    provenance: tuple

    @classmethod
    def _of(cls, f: LaurentMatrix, f_inv: LaurentMatrix, kind: str):
        """One factor f with its inverse f_inv, unchecked: for the
        library's own factors, whose inverses are known by construction."""
        return cls(factors=(f,), inverses=(f_inv,), provenance=(kind,))

    @classmethod
    def identity(cls, n, tx, ty, kind="identity"):
        return cls.monomial("x", [0] * n, tx, ty, kind)

    @classmethod
    def of_series(cls, mat: SeriesMatrix, kind: str, inverse: LaurentMatrix):
        """The checked entry point for a gauge from outside the library:
        one square series factor with its inverse, a LaurentMatrix.

        F F^(-1) = I must hold on the window of the product: a wrong
        inverse raises PreconditionViolated, and a product whose window
        does not reach its (0, 0) coefficient raises TruncationExhausted,
        so the check never passes on an empty window."""
        if mat.rows != mat.cols:
            raise DimensionMismatch("a gauge factor must be square")
        f = LaurentMatrix(mat)
        one = LaurentMatrix(SeriesMatrix.identity(mat.rows, *mat.window))
        rest = f * inverse - one
        s = rest.series
        tx, ty = s.window
        if not s.is_exact and (tx <= rest.px or ty <= rest.py):
            raise TruncationExhausted(
                "F F^(-1) has no (0, 0) coefficient on its window", window=(tx, ty))
        if not s.is_zero():
            raise PreconditionViolated(
                f"inverse of the {kind!r} factor: F F^(-1) != I on the window")
        return cls._of(f, inverse, kind)

    @classmethod
    def of_constant(cls, rows, tx, ty, kind="constant", inverse=None):
        """A constant factor; `inverse` is its inverse over Q when the
        caller has it, else it is computed over Q."""
        if inverse is None:
            inverse = qlinalg.inverse(rows)
        return cls._of(
            LaurentMatrix(SeriesMatrix.from_rational_rows(rows, tx, ty)),
            LaurentMatrix(SeriesMatrix.from_rational_rows(inverse, tx, ty)), kind)

    @classmethod
    def monomial(cls, var, exponents, tx, ty, kind="shearing"):
        """diag(v^e_i) in the variable v = var, with its inverse
        v^(-m) diag(v^(m - e_i)), m = max e_i, read off the exponents; both
        exact at the nominal orders (tx, ty)."""
        n = len(exponents)
        m = max(exponents)

        def diag(exps):
            return SeriesMatrix(n, n, [
                BiSeries.monomial(1, *exponent(var, exps[i]), tx, ty) if i == j
                else BiSeries.zero(tx, ty)
                for i in range(n) for j in range(n)])

        return cls._of(LaurentMatrix(diag(exponents)),
                       LaurentMatrix(diag([m - e for e in exponents]),
                                     *exponent(var, m)),
                       kind)

    def compose(self, other: "GaugeTransform") -> "GaugeTransform":
        """Gauge applying self first, then other (matrix product self*other)."""
        return GaugeTransform(
            factors=self.factors + other.factors,
            inverses=self.inverses + other.inverses,
            provenance=self.provenance + other.provenance,
        )

    def matrix(self) -> LaurentMatrix:
        out = self.factors[0]
        for f in self.factors[1:]:
            out = out * f
        return out.normalize()

    def inverse(self) -> "GaugeTransform":
        return GaugeTransform(
            factors=self.inverses[::-1],
            inverses=self.factors[::-1],
            provenance=tuple(f"inverse({p})" for p in reversed(self.provenance)),
        )


@dataclass(frozen=True)
class GaugeResult:
    """Raw transformed system, before any normal-crossings validation."""

    n: int
    ax: LaurentMatrix     # x-subsystem coefficient, poles in both variables
    by: LaurentMatrix

    def normal_crossings(self) -> bool:
        ax, by = self.ax.normalize(), self.by.normalize()
        return ax.py <= 0 and by.px <= 0

    def to_system(self) -> PfaffianSystem:
        ax, by = self.ax.normalize(), self.by.normalize()
        if ax.py > 0 or by.px > 0:
            raise InvariantViolation(
                "gauge result is outside normal crossings: "
                f"x-side pole y^{ax.py}, y-side pole x^{by.px}"
            )
        amat = ax.series.shift(max(-ax.px, 0), -ax.py)
        bmat = by.series.shift(-by.px, max(-by.py, 0))
        return PfaffianSystem.make(self.n, max(ax.px, 0), max(by.py, 0),
                                   amat, bmat)


def _gauge_one_factor(ax: LaurentMatrix, by: LaurentMatrix, f: LaurentMatrix,
                      f_inv: LaurentMatrix):
    """F[A] = F^(-1) (A F - delta F) on both sides, normalized, with f_inv
    = F^(-1)."""
    return _gauge_side(ax, f, f_inv, "x"), _gauge_side(by, f, f_inv, "y")


def _gauge_side(a: LaurentMatrix, f: LaurentMatrix, f_inv: LaurentMatrix, var):
    """F^(-1) (A F - delta F), normalized, for the side A of variable var.
    A F - delta F is one sum per entry, delta F moved to A F's poles; a
    negative pole of A would move A F too, changing the nominal orders of
    its exact entries, so there the Laurent matrices are subtracted."""
    d = f.delta(var)
    if a.px < 0 or a.py < 0:
        inner = a * f - d
    else:
        inner = LaurentMatrix(
            SeriesMatrix.dot([(1, a.series, f.series),
                              (-1, d.series.shift(a.px, a.py))]),
            a.px + f.px, a.py + f.py)
    return (f_inv * inner).normalize()


def apply_gauge(sys: PfaffianSystem, gauge: GaugeTransform) -> GaugeResult:
    """Transform both subsystems by Y = T Z, factor by factor."""
    ax = sys.a_laurent()
    by = sys.b_laurent()
    for f, f_inv in zip(gauge.factors, gauge.inverses):
        ax, by = _gauge_one_factor(ax, by, f, f_inv)
    return GaugeResult(sys.n, ax, by)


def check_compatible(sys: PfaffianSystem, gauge: GaugeTransform) -> bool:
    """True iff the gauge preserves normal crossings and elevates neither
    Poincare rank."""
    res = apply_gauge(sys, gauge)
    if not res.normal_crossings():
        return False
    out = res.to_system()
    return out.p <= sys.p and out.q <= sys.q
