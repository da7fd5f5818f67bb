"""Randomized and structural regressions beyond the worked examples."""

import random
from fractions import Fraction

import pytest

from pfaffred.errors import InvariantViolation, TruncationExhausted
from pfaffred.matrices import SeriesMatrix
from pfaffred.moser import moser_rank, rank_reduce, reduce_subsystem_step, theta_poly
from pfaffred.series import BiSeries
from pfaffred.solutions import (
    bivariate_splitting,
    exponential_parts,
    formal_fundamental,
    verify_solution,
)
from pfaffred.system import (
    GaugeTransform,
    PfaffianSystem,
    apply_gauge,
    check_integrability,
)

from conftest import (T, diag_seed_system, ods_system, poly_series, rand_frac,
                      random_unimodular)


def parts_key(parts):
    return sorted((p.q_terms, p.multiplicity) for p in parts)


def test_exponential_parts_preserved_by_rank_reduction(exm, exmnaive):
    for fixture in (exm, exmnaive):
        before = exponential_parts(fixture)
        _, reduced, _ = rank_reduce(fixture)
        after = exponential_parts(reduced)
        assert parts_key(after[0]) == parts_key(before[0])
        assert parts_key(after[1]) == parts_key(before[1])


def test_four_dim_chain_reduction():
    # Trailing-block chain: the kept subspace is a strict subspace and the
    # certified split still drops the Moser rank.
    z = BiSeries.zero(T, T)
    one = BiSeries.const(1, T, T)
    rows = [
        [z, z, z, poly_series({(1, 0): 1})],
        [one, z, z, z],
        [z, z, z, z],
        [z, z, poly_series({(1, 0): 1}), z],
    ]
    sys_obj = PfaffianSystem.make(
        4, 2, 0, SeriesMatrix.from_rows(rows), SeriesMatrix.zeros(4, 4, T, T),
        strict=False
    )
    assert theta_poly(sys_obj, "x").is_zero()
    m0 = moser_rank(sys_obj, "x")
    _, nxt, steps = reduce_subsystem_step(sys_obj, "x")
    assert moser_rank(nxt, "x") < m0
    assert all(s.compatible for s in steps)


def test_randomized_reducible_loop():
    rng = random.Random(99)
    tried = 0
    for _ in range(40):
        n = rng.choice([2, 3])
        seed = diag_seed_system(rng, n=n, p=rng.randint(1, 2),
                                q=rng.randint(0, 1))
        g = random_unimodular(rng, n=n)
        try:
            sys_obj = apply_gauge(seed, g).to_system()
            mono = GaugeTransform.monomial(
                "x", [rng.randint(0, 1) for _ in range(n)], T, T
            )
            sys_obj = apply_gauge(sys_obj, mono).to_system()
        except InvariantViolation:
            continue  # the un-reduction broke normal crossings; skip
        if not check_integrability(sys_obj)[0]:
            continue
        tried += 1
        _, reduced, report = rank_reduce(sys_obj)
        for axis in ("x", "y"):
            p = reduced.p if axis == "x" else reduced.q
            if p > 0:
                assert not theta_poly(reduced, axis).is_zero()
        assert all(s.compatible for s in report.steps)
    assert tried >= 15


def test_two_block_full_solve():
    # Two 2x2 blocks with different exponential parts on both axes; the
    # solver splits, shifts per block and verifies by substitution.
    def diag4(vals):
        z = BiSeries.zero(T, T)
        return SeriesMatrix.from_rows(
            [[vals[i] if i == j else z for j in range(4)] for i in range(4)]
        )

    a = diag4([poly_series({(0, 0): 2, (1, 0): 5})] * 2
              + [poly_series({(0, 0): 3, (1, 0): -1})] * 2)
    b = diag4([poly_series({(0, 0): -1, (0, 1): 2})] * 2
              + [poly_series({(0, 1): 4})] * 2)
    seed = PfaffianSystem.make(4, 1, 1, a, b, strict=False)
    rng = random.Random(5)
    g = random_unimodular(rng, n=4)
    sys_obj = apply_gauge(seed, g).to_system()
    data = formal_fundamental(sys_obj)
    assert data.complete()
    assert verify_solution(sys_obj, data)
    q1_set = sorted(tuple(sorted(q.items())) for q in data.q1)
    assert q1_set == sorted(
        [((Fraction(1), Fraction(-2)),)] * 2 + [((Fraction(1), Fraction(-3)),)] * 2
    )
    q2_set = sorted(tuple(sorted(q.items())) for q in data.q2)
    assert q2_set == sorted([()] * 2 + [((Fraction(1), Fraction(1)),)] * 2)


def test_randomized_block_solves_verify():
    rng = random.Random(7)
    done = 0
    for _ in range(10):
        n = 2
        p, q = rng.randint(1, 2), rng.randint(1, 2)
        lam1 = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        lam2 = [Fraction(rng.randint(-3, 3)) for _ in range(n)]

        def side(pole, var, consts):
            rows = []
            for i in range(n):
                row = []
                for j in range(n):
                    if i != j:
                        row.append(BiSeries.zero(T, T))
                    else:
                        terms = {}
                        for k in range(pole + 1):
                            c = rand_frac(rng) if k < pole else consts[i]
                            if c:
                                terms[(k, 0) if var == "x" else (0, k)] = c
                        row.append(BiSeries(terms, T, T, exact=True))
                rows.append(row)
            return SeriesMatrix.from_rows(rows)

        seed = PfaffianSystem.make(n, p, q, side(p, "x", lam1),
                                   side(q, "y", lam2), strict=False)
        g = random_unimodular(rng, n=n)
        sys_obj = apply_gauge(seed, g).to_system()
        data = formal_fundamental(sys_obj)
        if data.complete():
            assert verify_solution(sys_obj, data)
            done += 1
    assert done >= 5


def test_verify_solution_reports_window_exhaustion(exm, exmnaive):
    # formal_fundamental solves exm + exmnaive with the right Q1 and Q2,
    # but the composed gauge trace, applied to the input at once, leaves
    # window (1, 5) with every x-side entry zero on it: the x-pole is then
    # unknown, so the substitution check cannot answer "not a solution".
    from test_gauge_inverse import direct_sum

    sys_obj = direct_sum(exm, exmnaive)
    data = formal_fundamental(sys_obj)
    assert data.complete()
    assert data.q1 == [{}, {}] + [{Fraction(1): Fraction(-1)}] * 2
    with pytest.raises(TruncationExhausted) as err:
        verify_solution(sys_obj, data)
    assert err.value.window == (1, 5)


def test_column_reduce_pole_drop_is_window_exhaustion(tmp_path, capsys,
                                                      monkeypatch):
    # exm + exmnaive under the exact gauge of the benchmark's `blocks`
    # workload at seed 1: on axis y, the column reduction leaves a leading
    # matrix that vanishes only on its shrunk window, so the pole falls to
    # 0.  That is window exhaustion (exit 3), never a precondition error
    # (exit 2) from reaching the criterion polynomial at Moser rank <= 1;
    # a run that gets through must give the known answer, EXM and EXMNAIVE
    # together, as the benchmark's own check reads it from the report.
    import importlib.util
    import json
    import sys
    from pathlib import Path

    from pfaffred.cli import main

    def load(name):
        # Registered under its own name: check.py imports `inputs`, and
        # dataclasses look their module up.
        spec = importlib.util.spec_from_file_location(
            name, Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
        return module

    inputs = load("inputs")
    check = load("check")
    [case] = [c for c in inputs.make_cases("blocks", 1)
              if c.name == "exm+exmnaive-gauged0"]
    path = tmp_path / "blocks.json"
    path.write_text(json.dumps(case.doc))
    report = tmp_path / "report.json"
    code = main(["solve", str(path), "--report", str(report)])
    captured = capsys.readouterr()
    assert code in (0, 3), captured.err
    if code == 3:
        assert "TruncationExhausted" in captured.err
    else:
        assert check.verify("solve", code, json.loads(report.read_text()),
                            case.expected) is None


def test_pole0_split_solves_resonant_blocks_with_zero_right_side():
    # diag(0, 1) with pole 0: at order (1, 0) the Sylvester operator of one
    # coupling block is singular (eigenvalue difference 1), but its right
    # side is 0, so the block is solved by 0 and the constant ODS splits.
    ods = ods_system("x", SeriesMatrix.from_rational_rows([[0, 0], [0, 1]], 4, 1),
                     0)
    gauge, blocks = bivariate_splitting(ods)
    assert [(b.n, b.p, b.q) for b in blocks] == [(1, 0, 0), (1, 0, 0)]
    assert sorted(b.amat.at(0, 0).coeff(0, 0) for b in blocks) == [0, 1]
    moved = apply_gauge(ods, gauge).to_system()
    assert moved.amat.at(0, 1).is_zero() and moved.amat.at(1, 0).is_zero()
