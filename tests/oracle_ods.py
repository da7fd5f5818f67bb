"""Reference ODS splitting: the univariate order loop that the ODS
splitting ran before it became the bivariate splitting body
(ods._split_system) on the ODS embedded with a zero other side.  Kept
verbatim but for its input, now the ODS as associated_ods returns it and
its axis, with the qlinalg_conj_series conjugation it used and local
copies of the coefficient helpers that pfaffred.ods no longer has, apart
from importing the helpers it shares with pfaffred.ods.  _eigen_groups is
the grouping ods._eigen_groups made before it returned the factors and
their multiplicities: each factor with its power expanded, whose kernel at
the leading matrix is the group's basis.  The shared
one-order step ods._split_order takes the known part with its sign
flipped, so the order loop's terms carry flipped signs.
"""

from fractions import Fraction

from pfaffred import qlinalg
from pfaffred.errors import NotSplittable, ReductionError
from pfaffred.matrices import SeriesMatrix
from pfaffred.ods import _block_ranges, _split_order, unipotent_gauge
from pfaffred.polyq import factor_rational
from pfaffred.series import BiSeries
from pfaffred.system import GaugeTransform, apply_gauge

from conftest import ods_system


def _eigen_groups(a0):
    """Pairwise-coprime factor powers of the characteristic polynomial.

    Returns [(factor_coeffs, power_coeffs)], one pair per irreducible
    factor; power_coeffs = factor^multiplicity expanded.
    """
    cp = qlinalg.charpoly(a0)
    factors = factor_rational(cp)
    groups = []
    for fc, mult in factors:
        power = [Fraction(1)]
        for _ in range(mult):
            power = _poly_mul(power, fc)
        groups.append((fc, power))
    return groups


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def split_leading(ods, var):
    """Decouple the ODS `ods` on axis `var` along coprime characteristic
    factors of the leading matrix.

    Returns (gauge, [blocks]): gauge is a constant conjugation making the
    leading matrix block diagonal, composed with I + higher-order
    corrections solved order by order through Sylvester equations; the
    output blocks' characteristic polynomials are the coprime factors.
    """
    amat = ods.amat if var == "x" else ods.bmat
    a0 = amat.constant_part()
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
    for _, power in groups:
        ker = qlinalg.kernel(qlinalg.poly_eval_matrix(power, a0))
        basis_cols.extend(ker)
        sizes.append(len(ker))
    if sum(sizes) != n:
        raise ReductionError("kernel projections do not fill the space")
    vmat = tuple(tuple(col[i] for col in basis_cols) for i in range(n))
    vinv = qlinalg.inverse(vmat)
    tx, ty = amat.window
    const_gauge = GaugeTransform.of_constant(vmat, tx, ty, kind="splitting",
                                             inverse=vinv)
    # Series coefficients of the conjugated system.
    conj = qlinalg_conj_series(amat, vmat, vinv)
    trunc = tx if var == "x" else ty
    s_coeffs = [_coeff_const_matrix(conj, var, k, n) for k in range(trunc)]
    n0 = s_coeffs[0]
    offs = _block_ranges(sizes)
    blocks0 = [qlinalg.submatrix(n0, range(a, b), range(a, b)) for a, b in offs]
    # Solve T = I + sum T_k v^k with off-diagonal T_k only.
    eye = qlinalg.identity(n)
    t_coeffs = [eye]
    s_tilde = [n0]
    solvers = {}
    p = ods.p if var == "x" else ods.q
    for m in range(1, trunc):
        terms = [(-1, s_coeffs[i], t_coeffs[m - i]) for i in range(1, m + 1)]
        terms += [(1, t_coeffs[j], s_tilde[m - j]) for j in range(1, m)]
        if p >= 1 and m - p >= 1:
            terms.append((m - p, t_coeffs[m - p], eye))
        step = _split_order(qlinalg.dot(terms), offs, blocks0,
                            m if p == 0 else 0, solvers)
        if step is None:
            raise NotSplittable(
                "resonant Sylvester block at order "
                f"{m} (pole 0 with integer eigenvalue difference)"
                if p == 0
                else "Sylvester block unexpectedly singular"
            )
        t_coeffs.append(step[0])
        s_tilde.append(step[1])
    gauge = const_gauge.compose(
        unipotent_gauge(_on_axis(t_coeffs, var), n, tx, ty, "splitting"))
    new_mat = _coeffs_to_matrix(_on_axis(s_tilde, var), n, tx, ty)
    blocks = []
    for (a, b), (_, _) in zip(offs, groups):
        sub = new_mat.submatrix(list(range(a, b)), list(range(a, b)))
        blocks.append(ods_system(var, sub, p))
    # Certify: off-diagonal blocks of the transformed system vanish.
    res = apply_gauge(ods, gauge)
    full = res.to_system()
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
    return qlinalg.QMatrix(out)


def _on_axis(coeffs, var):
    """Coefficients of v^k, listed by k, keyed by their exponent pair."""
    return {((k, 0) if var == "x" else (0, k)): c for k, c in enumerate(coeffs)}


def _coeffs_to_matrix(coeffs, n, tx, ty) -> SeriesMatrix:
    """The truncated series matrix sum coeffs[(i, j)] x^i y^j on the window
    (tx, ty), from constant coefficient matrices."""
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            terms = {}
            for e, mat in coeffs.items():
                if mat[i][j]:
                    terms[e] = mat[i][j]
            row.append(BiSeries(terms, tx, ty))
        rows.append(row)
    return SeriesMatrix.from_rows(rows)
