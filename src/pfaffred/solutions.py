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
    TruncationExhausted,
)
from .matrices import LaurentMatrix, SeriesMatrix, embed_block
from .moser import _rank_reduce
from .ods import (
    _common_triangularize,
    _eigen_groups,
    _katz,
    _known_terms,
    _merge_term,
    _reduce_ods,
    _split_system,
    _subtract_scalar,
    _triangular_solve,
    associated_ods,
    exponential_parts_ods,
    unipotent_gauge,
)
from .series import BiSeries, exponent
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
    return exponential_parts_ods(sys, "x"), exponential_parts_ods(sys, "y")


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
        reduced = _reduce_ods(associated_ods(sys, axis), axis)
        rank = reduced.pole(axis)
        kappa = _katz(reduced, axis)
        if not (kappa <= rank <= kappa + 1):
            raise ReductionError(
                f"true rank {rank} violates the Katz bound for {kappa}"
            )
        katz.append(kappa)
        ranks.append(rank)
    return tuple(katz), tuple(ranks)


# -- bivariate splitting ----------------------------------------------------------


def _split_axis_choice(sys):
    """Choose the splitting axis: coprime factor groups of the leading
    constant with at least two groups; prefer an axis with a positive pole
    (its order-by-order Sylvester solve is never resonant)."""
    options = []
    for axis, mat, pole in (("x", sys.amat.constant_part(), sys.p),
                            ("y", sys.bmat.constant_part(), sys.q)):
        groups = _eigen_groups(mat)
        if len(groups) >= 2:
            options.append((pole == 0, axis, groups))
    if not options:
        return None
    options.sort()    # resonance-safe axes (pole > 0) first
    _, axis, groups = options[0]
    return axis, groups


def bivariate_splitting(sys: PfaffianSystem):
    """Block-decouple both subsystems at once.

    The chosen leading constant splits into coprime characteristic factor
    groups; a constant conjugation block-diagonalizes it, and T = I plus
    off-diagonal corrections is solved order by order in total degree
    through Sylvester equations on the splitting axis.  Both transformed
    subsystems are certified block diagonal on the window.
    """
    require_integrable(sys)
    choice = _split_axis_choice(sys)
    if choice is None:
        raise NotSplittable(
            "neither leading constant matrix has two coprime factor groups"
        )
    return _split_system(sys, *choice)


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
    current = sys
    x_q, y_q = {}, {}
    for axis, gammas, store in (("x", gammas_x or {}, x_q),
                                ("y", gammas_y or {}, y_q)):
        for k in sorted(gammas, reverse=True):
            gamma = Fraction(gammas[k])
            if gamma == 0:
                continue
            current = _subtract_scalar(current, axis, k, gamma)
            if k >= 1:
                store[Fraction(k)] = -gamma / k
    return ScalarShift(tuple(sorted(x_q.items())),
                       tuple(sorted(y_q.items()))), current


# -- regular solve -------------------------------------------------------------------


@dataclass(frozen=True)
class RegularSolution:
    gauge: GaugeTransform
    lambda1: tuple
    lambda2: tuple


def regular_fundamental(sys: PfaffianSystem) -> RegularSolution:
    """Normal form of a system with pole pair (0, 0).

    Returns a gauge T with T[A] = L1 and T[B] = L2 constant commuting
    matrices (spectra of the leading constants), built monomial by
    monomial: entry (k,l) of the coefficient at x^i y^j is eliminated by
    the x-equation unless its x-eigenvalue difference equals i, else by
    the y-equation unless the y-difference equals j; jointly resonant
    entries raise JointResonance carrying the retained monomials.  A
    normal form that fails its substitution check raises
    TruncationExhausted on truncated input, IntegrabilityViolation on
    exact input.
    """
    if sys.p != 0 or sys.q != 0:
        raise PreconditionViolated("regular solve needs pole orders (0, 0)")
    require_integrable(sys)
    return _regular_fundamental(sys)


def _regular_fundamental(sys: PfaffianSystem) -> RegularSolution:
    n = sys.n
    a00, b00 = sys.amat.constant_part(), sys.bmat.constant_part()
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
    const_gauge = GaugeTransform.of_constant(u, tx, ty, kind="constant",
                                             inverse=uinv)
    work = apply_gauge(sys, const_gauge).to_system()
    a_coeffs = work.amat.coefficients()
    b_coeffs = work.bmat.coefficients()
    t_coeffs = {(0, 0): qlinalg.identity(n)}
    at_coeffs = {(0, 0): l1}
    bt_coeffs = {(0, 0): l2}
    retained = []
    diag = [row[k] for k, row in enumerate(l1)]
    diffs = {a - b for a in diag for b in diag}     # x-eigenvalue differences
    for total in range(1, tx + ty - 1):
        for i in range(max(0, total - ty + 1), min(total, tx - 1) + 1):
            j = total - i
            equations = [(l1, i, qlinalg.dot(
                _known_terms(a_coeffs, t_coeffs, at_coeffs, (i, j)), (n, n)))]
            # The y-equation is read only for an entry that the x-equation
            # leaves undetermined.
            if i in diffs:
                equations.append((l2, j, qlinalg.dot(
                    _known_terms(b_coeffs, t_coeffs, bt_coeffs, (i, j)), (n, n))))
            t_new, kept = _triangular_solve(equations, n)
            for (k, l), (vx, vy) in kept.items():
                retained.append((i, j, k, l, vx, vy))
            if kept:
                for st, side in ((at_coeffs, 0), (bt_coeffs, 1)):
                    st[(i, j)] = qlinalg.QMatrix([[kept.get((k, l), (0, 0))[side]
                                                   for l in range(n)]
                                                  for k in range(n)])
            if not qlinalg.is_zero(t_new):
                t_coeffs[(i, j)] = t_new
    if retained:
        raise JointResonance(
            "jointly resonant monomials remain in the normal form",
            retained=retained,
        )
    series_gauge = unipotent_gauge(t_coeffs, n, tx, ty, "regular-solve")
    gauge = const_gauge.compose(series_gauge)
    # The series factor acts on the conjugated system.
    res = apply_gauge(work, series_gauge).to_system()
    expect_a = SeriesMatrix.from_rational_rows(l1, *res.window)
    expect_b = SeriesMatrix.from_rational_rows(l2, *res.window)
    if res.p != 0 or res.q != 0 or not (res.amat == expect_a and
                                        res.bmat == expect_b):
        # Integrability of truncated data holds only on its window, so the
        # elimination may be inconsistent beyond what the window decides.
        error = (IntegrabilityViolation
                 if sys.amat.is_exact and sys.bmat.is_exact
                 else TruncationExhausted)
        raise error(
            "mixed-axis elimination is inconsistent within the window "
            "(substitution check failed)",
            window=res.window,
        )
    return RegularSolution(gauge, l1, l2)


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


def formal_fundamental(sys: PfaffianSystem) -> SolutionData:
    """Full orchestration of splitting, shifting, rank reduction and the
    regular solve; emits the complete fundamental-matrix data or a partial
    result naming the blocking step."""
    require_integrable(sys)
    data = SolutionData(n=sys.n, s=(1, 1), q1=[{} for _ in range(sys.n)],
                        q2=[{} for _ in range(sys.n)], lambda1=None,
                        lambda2=None)
    lambdas = []
    assembled = False
    try:
        _assemble(sys, list(range(sys.n)), data, lambdas, depth=0)
        assembled = True
    except AlgebraicExtensionRequired as err:
        data.blocked = f"algebraic-extension: {err}"
    except JointResonance as err:
        data.retained = tuple(err.retained)
        data.blocked = "joint-resonance"
    if lambdas:
        data.lambda1, data.lambda2 = (_block_diagonal(sys.n, lambdas, k)
                                      for k in (1, 2))
    if assembled:
        _verify_commutation(data.lambda1, data.q1)
        _verify_commutation(data.lambda2, data.q2)
    return data


def _verify_commutation(lam, qdiag):
    if lam is None:
        return
    for i, row in enumerate(lam.num):
        for j, v in enumerate(row):
            if v and qdiag[i] != qdiag[j]:
                raise ReductionError(
                    "exponent matrix does not commute with the exponential part"
                )


def _embed_gauge(gauge: GaugeTransform, coords, n, tx, ty) -> GaugeTransform:
    """Lift a gauge acting on a coordinate subset to the full space, each
    factor and its inverse by embed_block.  A shearing's inverse has a
    pole, which the identity outside the block carries.  On a proper
    subset the lifted inverse is exact outside the block, where the
    cofactor inverse of the lifted factor (tests/oracle_cofactor.py) marks
    the identity entries truncated; the values agree."""
    def lift(mats):
        return tuple(embed_block(f, coords, n, tx, ty) for f in mats)

    return GaugeTransform(factors=lift(gauge.factors),
                          inverses=lift(gauge.inverses),
                          provenance=gauge.provenance)


def _block_diagonal(n, blocks, k):
    """The n x n matrix that holds block[k] of each block (coords, lambda1,
    lambda2) on its coordinates, and 0 elsewhere."""
    rows = [[0] * n for _ in range(n)]
    for block in blocks:
        coords = block[0]
        for i, row in zip(coords, block[k]):
            for j, v in zip(coords, row):
                rows[i][j] = v
    return qlinalg.QMatrix(rows)


def _assemble(sys: PfaffianSystem, coords, data: SolutionData, lambdas,
              depth):
    """Recursive assembly on the block spanned by `coords`; each regular
    solve appends (coords, lambda1, lambda2) to `lambdas`."""
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
            lambdas.append((coords, reg.lambda1, reg.lambda2))
            return
        # Pole-0 eigenvalue separation belongs to the regular solve; only
        # split along an axis whose pole is positive (never resonant), x
        # first.  Each leading constant is factored once per pass.
        groups = {axis: _eigen_groups(current.side(axis).constant_part())
                  for axis in ("x", "y") if current.pole(axis) > 0}
        split = [axis for axis, g in groups.items() if len(g) >= 2]
        if split:
            gauge, blocks = _split_system(current, split[0], groups[split[0]])
            data.gauge_trace.append(_embed_gauge(gauge, coords, data.n, tx, ty))
            off = 0
            for blk in blocks:
                sub = coords[off : off + blk.n]
                _assemble(blk, sub, data, lambdas, depth + 1)
                off += blk.n
            return
        shifted = False
        # Each axis has one factor group: the leading constant's single
        # eigenvalue is the root of its factor when that is linear.  An x
        # shift is recorded before a y-side raise blocks the assembly.
        for axis, [(fc, _)] in groups.items():
            if len(fc) > 2:
                raise AlgebraicExtensionRequired(
                    "leading-constant eigenvalue is irrational on axis "
                    f"{axis}",
                    factor=fc,
                )
            gamma, k = -fc[0], current.pole(axis)
            if gamma != 0:
                # The formal integral of gamma * v^(-k) is -(gamma/k) v^(-k).
                current = _subtract_scalar(current, axis, k, gamma)
                store = data.q1 if axis == "x" else data.q2
                for i in coords:
                    _merge_term(store[i], k, -gamma / k)
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
            parts = exponential_parts_ods(current, axis)
            idx = 0
            for part in parts:
                for _ in range(part.multiplicity):
                    if idx < len(coords):
                        for k, c in part.q_terms:
                            _merge_term(store[coords[idx]], k, c)
                    idx += 1
        return


def verify_solution(sys: PfaffianSystem, data: SolutionData) -> bool:
    """Substitute the assembled solution into both equations.

    The gauge trace must transform the system into diag form: x-side
    L1 + delta_x(Q1), y-side L2 + delta_y(Q2), within the window.  Raises
    TruncationExhausted when the transformed window cannot decide it: a
    side is zero only on its window (its pole is then unknown), or the
    window ends before the side's constant term.
    """
    if not data.gauge_trace or data.lambda1 is None:
        return False
    gauge = None
    for g in data.gauge_trace:
        gauge = g if gauge is None else gauge.compose(g)
    res = apply_gauge(sys, gauge).to_system()
    n = data.n
    tx, ty = res.window
    for axis, lam, qdiag in (("x", data.lambda1, data.q1),
                             ("y", data.lambda2, data.q2)):
        mat, pole = res.side(axis), res.pole(axis)
        if not mat.is_exact and (mat.is_zero()
                                 or (tx if axis == "x" else ty) <= pole):
            raise TruncationExhausted(
                f"the gauge trace exhausts the window of the {axis}-side",
                window=res.window,
            )
        for i, lam_row in enumerate(lam):
            for j in range(n):
                expect = {}
                if i == j:
                    for k, c in qdiag[i].items():
                        if k.denominator != 1:
                            return False
                        # delta of c*v^-k is -k*c*v^-k; poles sit at
                        # series offset pole - k.
                        expect[int(pole - k)] = -k * c
                    expect[pole] = expect.get(pole, Fraction(0)) + lam_row[j]
                elif lam_row[j] != 0:
                    expect[pole] = lam_row[j]
                got = mat.at(i, j)
                want = BiSeries(
                    {
                        exponent(axis, e): c
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
