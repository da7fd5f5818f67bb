"""The gauge action of one factor, F^(-1) (A F - delta F) on both sides,
with its products formed by the dict-of-Fraction reference kernel
(tests/oracle_kernels.py matrix_mul), not by series.dot; the reference
for tests/test_gauge_shift.py."""

from pfaffred.matrices import LaurentMatrix

from oracle_kernels import matrix_mul


def _mul(a, b):
    return LaurentMatrix(matrix_mul(a.series, b.series), a.px + b.px, a.py + b.py)


def _gauge_one_factor(ax, by, f, f_inv):
    new_ax = _mul(f_inv, _mul(ax, f) - f.delta("x"))
    new_by = _mul(f_inv, _mul(by, f) - f.delta("y"))
    return new_ax.normalize(), new_by.normalize()
