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

from .errors import DimensionMismatch, IntegrabilityViolation, InvariantViolation
from .matrices import LaurentMatrix, SeriesMatrix, series_rank
from .series import BiSeries


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
            and self.a_laurent().equals(other.a_laurent())
            and self.b_laurent().equals(other.b_laurent())
        )


def _normalize_side(p, mat, var, strict):
    if mat.is_zero():
        if p > 0 and strict:
            raise InvariantViolation(
                f"leading series of the {var}-subsystem vanishes on the window "
                f"with pole {p} > 0"
            )
        return 0, mat
    c = mat.content(var)
    drop = min(c, p)
    if drop:
        mat = mat.divide_monomial(*( (drop, 0) if var == "x" else (0, drop) ))
        p -= drop
    if p > 0:
        lead = mat.coeff_matrix(var, 0)
        if lead.is_zero() and strict:
            raise InvariantViolation(
                f"{var}-leading coefficient matrix vanishes with pole {p} > 0"
            )
    return p, mat


@dataclass(frozen=True)
class LeadingData:
    a0: SeriesMatrix          # Amat at x = 0, a matrix in y only
    b0: SeriesMatrix          # Bmat at y = 0, a matrix in x only
    a00: tuple                # constant matrices over Q
    b00: tuple
    rank_a0: int
    rank_b0: int


def leading_data(sys: PfaffianSystem) -> LeadingData:
    a0 = sys.amat.eval_zero_matrix("x")
    b0 = sys.bmat.eval_zero_matrix("y")
    return LeadingData(
        a0=a0,
        b0=b0,
        a00=a0.constant_part(),
        b00=b0.constant_part(),
        rank_a0=series_rank(a0, "y"),
        rank_b0=series_rank(b0, "x"),
    )


def check_integrability(sys: PfaffianSystem):
    """Evaluate the commutation identity on the full Laurent coefficients.

    Returns (verdict, window): verdict is True iff

        x dB/dx + B A - y dA/dy - A B

    vanishes within the guaranteed window (the identity is checked after
    clearing the poles x^p y^q, which keeps everything in the series ring).
    """
    sa, sb = sys.amat, sys.bmat
    r = (
        sb.delta("x").shift(sys.p, 0)
        + sb * sa
        - sa.delta("y").shift(0, sys.q)
        - sa * sb
    )
    if r.is_exact:
        from .series import INF_ORDER

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
    """A change of basis, kept in factored form.

    Each factor is a LaurentMatrix (unimodular series matrices and diagonal
    monomial scalings are the factors this toolkit emits); provenance
    records one construction tag per factor.
    """

    factors: tuple
    provenance: tuple

    @classmethod
    def identity(cls, n, tx, ty):
        return cls(
            factors=(LaurentMatrix(SeriesMatrix.identity(n, tx, ty)),),
            provenance=("identity",),
        )

    @classmethod
    def of_series(cls, mat: SeriesMatrix, kind: str):
        return cls(factors=(LaurentMatrix(mat),), provenance=(kind,))

    @classmethod
    def of_constant(cls, rows, tx, ty, kind="constant"):
        return cls.of_series(SeriesMatrix.from_rational_rows(rows, tx, ty), kind)

    @classmethod
    def monomial(cls, var, exponents, tx, ty, kind="shearing"):
        n = len(exponents)
        entries = []
        for i in range(n):
            for j in range(n):
                if i != j:
                    entries.append(BiSeries.zero(tx, ty))
                else:
                    e = exponents[i]
                    entries.append(
                        BiSeries.monomial(1, e if var == "x" else 0,
                                          e if var == "y" else 0, tx, ty)
                    )
        return cls(factors=(LaurentMatrix(SeriesMatrix(n, n, entries)),),
                   provenance=(kind,))

    def compose(self, other: "GaugeTransform") -> "GaugeTransform":
        """Gauge applying self first, then other (matrix product self*other)."""
        return GaugeTransform(
            factors=self.factors + other.factors,
            provenance=self.provenance + other.provenance,
        )

    def matrix(self) -> LaurentMatrix:
        out = self.factors[0]
        for f in self.factors[1:]:
            out = out * f
        return out.normalize()

    def inverse(self) -> "GaugeTransform":
        return GaugeTransform(
            factors=tuple(f.inverse() for f in reversed(self.factors)),
            provenance=tuple(f"inverse({p})" for p in reversed(self.provenance)),
        )

    @property
    def n(self):
        return self.factors[0].n


@dataclass(frozen=True)
class GaugeResult:
    """Raw transformed system, before any normal-crossings validation."""

    n: int
    ax: LaurentMatrix     # x-subsystem coefficient, poles in both variables
    by: LaurentMatrix

    def normal_crossings(self) -> bool:
        ax, by = self.ax.normalize(), self.by.normalize()
        return ax.py <= 0 and by.px <= 0

    def compatible_with(self, sys: PfaffianSystem) -> bool:
        """True iff this image of sys keeps normal crossings and elevates
        neither Poincare rank."""
        if not self.normal_crossings():
            return False
        out = self.to_system(strict=False)
        return out.p <= sys.p and out.q <= sys.q

    def to_system(self, strict=True) -> PfaffianSystem:
        ax, by = self.ax.normalize(), self.by.normalize()
        if ax.py > 0 or by.px > 0:
            raise InvariantViolation(
                "gauge result is outside normal crossings: "
                f"x-side pole y^{ax.py}, y-side pole x^{by.px}"
            )
        amat = ax.series.shift(max(-ax.px, 0), -ax.py)
        bmat = by.series.shift(-by.px, max(-by.py, 0))
        return PfaffianSystem.make(
            self.n, max(ax.px, 0), max(by.py, 0), amat, bmat, strict=strict
        )


def _gauge_one_factor(ax: LaurentMatrix, by: LaurentMatrix, f: LaurentMatrix,
                      f_inv: LaurentMatrix):
    new_ax = f_inv * (ax * f - f.delta("x"))
    new_by = f_inv * (by * f - f.delta("y"))
    return new_ax.normalize(), new_by.normalize()


def apply_gauge(sys: PfaffianSystem, gauge: GaugeTransform) -> GaugeResult:
    """Transform both subsystems by Y = T Z, factor by factor."""
    ax = sys.a_laurent()
    by = sys.b_laurent()
    for f in gauge.factors:
        ax, by = _gauge_one_factor(ax, by, f, f.inverse())
    return GaugeResult(sys.n, ax, by)


def check_compatible(sys: PfaffianSystem, gauge: GaugeTransform) -> bool:
    """True iff the gauge preserves normal crossings and elevates neither
    Poincare rank."""
    return apply_gauge(sys, gauge).compatible_with(sys)
