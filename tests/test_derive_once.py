"""The Moser loop derives each system's leading data once: a system object
computes each leading rank at most once, and no step computes the
criterion polynomial of the same system twice.  Calls are counted by
wrapping, in the style of test_certify_once.py."""

import sys

import pfaffred.matrices
import pfaffred.moser
from pfaffred.moser import rank_reduce
from pfaffred.system import PfaffianSystem


def count_calls(monkeypatch, name):
    """Calls of pfaffred.matrices.<name>, under every name bound to it."""
    original = getattr(pfaffred.matrices, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("pfaffred")
                and getattr(mod, name, None) is original):
            monkeypatch.setattr(mod, name, wrapper)
    return calls


def count_leading_ranks(monkeypatch):
    """Wrap the function behind each cached rank; the cache stays real."""
    calls = []
    for name in ("rank_x", "rank_y"):
        prop = PfaffianSystem.__dict__[name]

        def counted(self, func=prop.func, name=name):
            calls.append((self, name))
            return func(self)

        monkeypatch.setattr(prop, "func", counted)
    return calls


def count_thetas(monkeypatch):
    original = pfaffred.moser.theta_poly
    calls = []

    def wrapper(sys_obj, axis):
        calls.append((sys_obj, axis))
        return original(sys_obj, axis)

    monkeypatch.setattr(pfaffred.moser, "theta_poly", wrapper)
    return calls


def distinct(calls):
    # The calls hold their systems, so no id is reused during the test.
    return len({(id(obj), tag) for obj, tag in calls})


def test_rank_reduce_derives_leading_data_once(monkeypatch, exmnaive):
    echelons = count_calls(monkeypatch, "column_echelon")
    eliminations = count_calls(monkeypatch, "_eliminate")
    ranks = count_leading_ranks(monkeypatch)
    thetas = count_thetas(monkeypatch)
    _, reduced, report = rank_reduce(exmnaive)
    assert (reduced.p, reduced.q) == (0, 0)
    assert len(report.steps) == 12
    assert distinct(ranks) == len(ranks) == 15
    assert distinct(thetas) == len(thetas) == 4
    # 27 pivot loops: 8 column reductions and 19 ranks, which build no
    # transforms.
    assert len(eliminations) == 27
    assert len(echelons) == 8


def test_leading_rank_is_cached(exmnaive):
    assert "rank_x" not in vars(exmnaive)
    r = exmnaive.leading_rank("x")
    assert vars(exmnaive)["rank_x"] == r == exmnaive.rank_x
    assert "rank_y" not in vars(exmnaive)
