"""Integrability is certified once per public call, and each Moser gauge
is applied once.  Calls are counted by wrapping the function in every
pfaffred module that imported it."""

import sys

import pytest

import pfaffred.system
from pfaffred.cli import main
from pfaffred.errors import IntegrabilityViolation
from pfaffred.moser import rank_reduce
from pfaffred.solutions import (
    bivariate_shift,
    bivariate_splitting,
    exponential_parts,
    formal_fundamental,
    katz_pair,
    regular_fundamental,
    true_poincare_rank,
)
from pfaffred.system import PfaffianSystem

from conftest import const_mat, fixture_path


def count_calls(monkeypatch, name):
    """Wrap pfaffred.system.<name> wherever it is bound; returns the list
    that collects one entry per call."""
    original = getattr(pfaffred.system, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("pfaffred")
                and getattr(mod, name, None) is original):
            monkeypatch.setattr(mod, name, wrapper)
    return calls


def test_formal_fundamental_checks_once(monkeypatch, exm):
    checks = count_calls(monkeypatch, "check_integrability")
    data = formal_fundamental(exm)
    assert data.lambda1 is not None
    assert len(checks) == 1


def test_katz_command_checks_once(monkeypatch, capsys):
    checks = count_calls(monkeypatch, "check_integrability")
    assert main(["katz", str(fixture_path("exm.json"))]) == 0
    out = capsys.readouterr().out
    assert "katz invariant: (1, 2)" in out
    assert "true poincare rank: (1, 2)" in out
    assert len(checks) == 1


def test_rank_reduce_applies_each_gauge_once(monkeypatch, exmnaive):
    gauges = count_calls(monkeypatch, "apply_gauge")
    _, reduced, report = rank_reduce(exmnaive)
    assert (reduced.p, reduced.q) == (0, 0)
    assert len(report.steps) == 12
    assert len(gauges) == 12


def _non_integrable():
    # Constant, pole-free: x dB/dx + BA - y dA/dy - AB = BA - AB != 0.
    a = const_mat([[0, 1], [0, 0]])
    b = const_mat([[1, 0], [0, 0]])
    return PfaffianSystem.make(2, 0, 0, a, b)


@pytest.mark.parametrize("entry", [
    rank_reduce, exponential_parts, katz_pair, true_poincare_rank,
    bivariate_splitting, bivariate_shift, regular_fundamental,
    formal_fundamental,
], ids=lambda f: f.__name__)
def test_entry_points_reject_once(monkeypatch, entry):
    checks = count_calls(monkeypatch, "check_integrability")
    with pytest.raises(IntegrabilityViolation):
        entry(_non_integrable())
    assert len(checks) == 1
