"""The Moser step reads either axis directly.  Each y-axis call must give
what the x-axis call gives on the swapped system (oracle_moser.flip),
swapped back: the value, the exactness and the nominal orders of every
series, the poles and provenance of every gauge factor and inverse, the
step records, and, for a failure, its type, its window and its message
with x and y exchanged."""

import random
import re

import pytest

from conftest import FIXTURES, random_integrable_system, random_unimodular
from oracle_moser import flip, flip_gauge, swap_series
from test_echelon_inverse import chain_system
from pfaffred.errors import PfaffredError
from pfaffred.io import parse_system
from pfaffred.moser import (
    _prepare_shearing,
    column_reduce_leading,
    reduce_subsystem_step,
    theta_poly,
)
from pfaffred.system import PfaffianSystem, apply_gauge

# At (2, 1) most steps fail reading the y^1 coefficient, so failures are
# compared too.
WINDOWS = {"exact": None, "5x6": (5, 6), "8x8": (8, 8), "2x1": (2, 1)}


def bases():
    """Both fixtures, each also under two seeded unimodular gauges; the
    trailing-block chain, whose step completes a Q4; and 20 seeded random
    integrable systems, which are Moser-irreducible."""
    fixtures = [parse_system(FIXTURES / f"{name}.json")
                for name in ("exm", "exmnaive")]
    out = list(fixtures)
    for seed in range(2):
        rng = random.Random(seed)
        out += [apply_gauge(s, random_unimodular(rng, max_deg=1)).to_system()
                for s in fixtures]
    out.append(chain_system())
    for seed in range(20):
        out.append(random_integrable_system(
            random.Random(seed), n=2 + seed % 2, p=1 + seed % 2,
            q=1 + (seed // 2) % 2))
    return out


def inputs(window):
    """Each base, cut to the window, and its flip: the x-side data of a
    base is then read on the y-axis too."""
    for s in bases():
        if window is not None:
            s = PfaffianSystem.make(s.n, s.p, s.q, s.amat.truncated(*window),
                                    s.bmat.truncated(*window), strict=False)
        yield s
        yield flip(s)


# -- canonical forms, in the x-call's coordinates -----------------------------------


def series_key(e):
    return sorted(e.coeffs.items()), e.tx, e.ty, e.exact


def matrix_key(m):
    return [series_key(e) for e in m.entries]


def gauge_key(g):
    def factors(fs):
        return [(f.px, f.py, matrix_key(f.series)) for f in fs]

    return factors(g.factors), factors(g.inverses), g.provenance


def system_key(s):
    return s.n, s.p, s.q, matrix_key(s.amat), matrix_key(s.bmat)


def swap_text(text):
    return re.sub(r"\b[xy]\b", lambda m: "y" if m.group() == "x" else "x", text)


def step_key(step, swap):
    window = step.window[::-1] if swap else step.window
    axis = swap_text(step.axis) if swap else step.axis
    return (axis, step.kind, step.p_before, step.p_after, step.rank_before,
            step.rank_after, step.moser_before, step.moser_after,
            step.compatible, window)


def theta_key(th, swap):
    coeffs = [swap_series(c) if swap else c for c in th.coeffs]
    return ([series_key(c) for c in coeffs],
            th.window[::-1] if swap else th.window)


def gauss_key(gf, swap):
    return gauge_key(flip_gauge(gf.gauge) if swap else gf.gauge), gf.d, gf.r


def shearing_key(sf, swap):
    return (gauge_key(flip_gauge(sf.gauge) if swap else sf.gauge), sf.rho,
            sf.rank_kept)


def step_result_key(res, swap):
    gauge, nxt, steps = res
    if swap:
        gauge, nxt = flip_gauge(gauge), flip(nxt)
    return (gauge_key(gauge), system_key(nxt),
            [step_key(s, swap) for s in steps])


def arrange(s, axis):
    """_prepare_shearing on the system column-reduced on the axis, with
    that reduction's Gauss form, or the failure of the reduction."""
    gf = column_reduce_leading(s, axis)
    return _prepare_shearing(apply_gauge(s, gf.gauge).to_system(), axis, gf)


CALLS = {
    "theta_poly": (theta_poly, theta_key),
    "column_reduce_leading": (column_reduce_leading, gauss_key),
    "prepare_shearing": (arrange, shearing_key),
    "reduce_subsystem_step": (reduce_subsystem_step, step_result_key),
}


def outcome(call, key, s, axis, swap):
    """("ok", key of the call's result) or ("failed", type, window,
    message) of its failure, in the y-call's coordinates when swap is
    set."""
    try:
        return "ok", key(call(s, axis), swap)
    except PfaffredError as err:
        window = getattr(err, "window", None)
        if swap and window is not None:
            window = window[::-1]
        return ("failed", type(err), window,
                swap_text(str(err)) if swap else str(err))


@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("name", CALLS)
def test_y_axis_call_is_the_swapped_x_axis_call(name, window):
    call, key = CALLS[name]
    done = 0
    for s in inputs(WINDOWS[window]):
        got = outcome(call, key, s, "y", swap=False)
        assert got == outcome(call, key, flip(s), "x", swap=True)
        done += got[0] == "ok"
    # Both fixtures run the step to the end on every window.
    assert done >= 2
