"""The general gauge-factor path, verbatim as it was before diagonal
monomial factors were applied by shifts; the reference for
tests/test_gauge_shift.py."""


def _gauge_one_factor(ax, by, f, f_inv):
    new_ax = f_inv * (ax * f - f.delta("x"))
    new_by = f_inv * (by * f - f.delta("y"))
    return new_ax.normalize(), new_by.normalize()
