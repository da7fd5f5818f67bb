"""Pinned outputs of one Moser step, moser.reduce_subsystem_step.

For each input and each axis the pin holds the step records, the split
size rho and the rank that certifies the arrangement, and every factor
and inverse of the emitted gauge (poles, coefficients, exact flags and
windows), or the error the step raises.  The inputs are the 2x2
exhaustive family of tests/test_moser.py, the trailing-block chain
inputs of tests/test_echelon_inverse.py, whose steps complete a Q4, and
60 seeded oracle_moser.random_instance systems; each also flipped
(oracle_moser.flip), so the y-axis step reads the same data.  The chain
inputs on x, and their flips on y, split off rho > 0 coordinates through
a candidate basis of the arrangement, a path no benchmark command takes.

The pins live in tests/moser_step_pins.json.  Regenerating them is a
deliberate step, taken only for an intended change of output, and each
regeneration is recorded in CHANGES.md:

    PYTHONPATH=src python tests/test_moser_step_pins.py --write
"""

import json
import random
import sys
from pathlib import Path

import pytest

from pfaffred import moser
from pfaffred.errors import PfaffredError

import oracle_moser
from test_echelon_inverse import chain_inputs

PINS = Path(__file__).resolve().parent / "moser_step_pins.json"


def base_inputs():
    members = oracle_moser.family_members(oracle_moser.constant_candidates())
    cases = {}
    rng = random.Random(55)         # test_moser's exhaustive 2x2 family
    for k in range(60):
        cases[f"family{k}"] = oracle_moser.random_instance(rng, members)
    for k, sys_obj in enumerate(chain_inputs()):
        cases[f"chain{k}"] = sys_obj
    rng = random.Random(7)
    for k in range(60):
        cases[f"random{k}"] = oracle_moser.random_instance(rng, members)
    return cases


def inputs():
    cases = {}
    for name, sys_obj in base_inputs().items():
        cases[name] = sys_obj
        cases[f"{name}-flip"] = oracle_moser.flip(sys_obj)
    return cases


def frac(c):
    return f"{c.numerator}/{c.denominator}"


def series_doc(e):
    return {"coeffs": [[i, j, frac(c)] for (i, j), c in e.terms()],
            "exact": e.exact, "window": list(e.window)}


def factors_doc(factors):
    return [{"px": f.px, "py": f.py,
             "entries": [series_doc(e) for e in f.series.entries]}
            for f in factors]


def step_doc(step):
    return [step.axis, step.kind, step.p_before, step.p_after,
            step.rank_before, step.rank_after, frac(step.moser_before),
            frac(step.moser_after), step.compatible, list(step.window)]


def outcome(sys_obj, axis, monkeypatch):
    """The step's output on `axis` as a JSON-ready dict.  The arrangement's
    rho and certifying rank are read off the ShearingForm it builds."""
    forms = []
    built = moser.ShearingForm

    def record(**fields):
        forms.append(fields)
        return built(**fields)

    monkeypatch.setattr(moser, "ShearingForm", record)
    try:
        gauge, _, steps = moser.reduce_subsystem_step(sys_obj, axis)
    except PfaffredError as err:
        window = getattr(err, "window", None)
        return {"error": type(err).__name__, "message": str(err),
                "window": None if window is None else list(window)}
    finally:
        monkeypatch.undo()
    (form,) = forms
    return {
        "steps": [step_doc(s) for s in steps],
        "rho": form["rho"],
        "rank_kept": form["rank_kept"],
        "provenance": list(gauge.provenance),
        "factors": factors_doc(gauge.factors),
        "inverses": factors_doc(gauge.inverses),
    }


INPUTS = inputs()


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text())


@pytest.mark.parametrize("axis", "xy")
@pytest.mark.parametrize("name", list(INPUTS))
def test_moser_step_matches_pin(name, axis, pins, monkeypatch):
    assert outcome(INPUTS[name], axis, monkeypatch) == pins[f"{name}:{axis}"]


def test_pins_reach_the_candidate_basis_path(pins):
    # A step that splits off rho > 0 coordinates certified a candidate
    # basis; the pins would leave that path unpinned otherwise.
    split = [key for key, pin in pins.items() if pin.get("rho", 0) > 0]
    assert any(key.startswith("chain") and key.endswith("-flip:y")
               for key in split)
    assert any(key.startswith("chain") and key.endswith(":x") for key in split)


def write_all():
    with pytest.MonkeyPatch.context() as mp:
        lines = [
            f"{json.dumps(f'{name}:{axis}')}: "
            f"{json.dumps(outcome(sys_obj, axis, mp), sort_keys=True)}"
            for name, sys_obj in INPUTS.items() for axis in "xy"]
    PINS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {PINS.name}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_moser_step_pins.py "
                 "--write")
    write_all()
