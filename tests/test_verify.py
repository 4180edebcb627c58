import gc
import json
import time

import pytest

import oracles
from qmpaths import cauchon, minors, verify
from qmpaths.torus import Shape
from qmpaths.cauchon import Diagram, enumerate_cauchon_diagrams
from qmpaths.groebner import groebner_check, hprime_minors
from qmpaths.straighten import GradeVector, _count_tables, count_terms_in_grade
from qmpaths.minors import HPrimeHandle
from qmpaths.verify import SUITES, run_ddalg, run_groebner, run_lindstrom, run_relations


def test_suite_registry():
    assert set(SUITES) == {"relations", "lindstrom", "ddalg", "groebner"}


def test_relations_2x2_report():
    rep = run_relations(2, 2)
    assert rep.passed
    assert rep.checks == 14 * 4 * 6
    data = rep.to_json()
    assert data["schema"] == 1
    assert data["suite"] == "relations"
    assert data["failures"] == []
    assert "elapsed_s" not in data  # byte-for-byte reproducible payload
    json.dumps(data)


def test_lindstrom_2x2_report():
    rep = run_lindstrom(2, 2)
    assert rep.passed and rep.checks > 0


def test_lindstrom_checks_turn_keys_behind_its_memo(monkeypatch):
    # equal turn keys for every system: each family with two or more systems
    # must fail, however often its shared systems tuple is met
    monkeypatch.setattr(verify, "system_turn_key", lambda g, system: ())
    rep = run_lindstrom(2, 3)
    assert rep.failures and not rep.passed


def test_ddalg_small_sample_reproducible():
    rep1 = run_ddalg(2, 2, samples=10, seed=42)
    rep2 = run_ddalg(2, 2, samples=10, seed=42)
    assert rep1.passed and rep2.passed
    assert rep1.to_json() == rep2.to_json()


def test_groebner_single_diagram_report():
    d = Diagram.of(Shape(2, 2), [(1, 1)])
    rep = run_groebner(samples=15, seed=1, diagram=d)
    assert rep.passed
    assert rep.params["diagram"] == "#./.."
    assert rep.params["t"] == 4


def test_suite_with_zero_checks_does_not_pass():
    # no shape lies in range, so nothing is checked
    rep = run_relations(1, 1)
    assert rep.checks == 0
    assert not rep.passed
    assert rep.to_json()["passed"] is False


def test_relations_equal_torus_oracle():
    # every shape up to 3x3: the same report, decided per family grid on
    # integer path counts and per threshold on TorusElement products
    rep = run_relations(3, 3)
    want = oracles.oracle_relations(3, 3)
    assert rep.to_json() == want.to_json()
    assert rep.checks == 122052 and rep.passed


def test_lindstrom_equal_per_threshold_oracle():
    # every shape up to 3x3: the same report, decided per family grid and
    # per threshold
    rep = run_lindstrom(3, 3)
    want = oracles.oracle_lindstrom(3, 3)
    assert rep.to_json() == want.to_json()
    assert rep.checks == 17910 and rep.passed


def _select_as_at(monkeypatch, target, t, coords, source, every_diagram):
    # a selection bug at one threshold coordinate: at threshold t, gamma(t;
    # i, j) for (i, j) in coords comes back as at threshold source(t), for
    # the target diagram (or for every diagram of its shape); every other
    # family is untouched
    select = cauchon.enumerate_gamma
    rs = target.shape.threshold_coord(t)

    def faulty(g, tt, i, j):
        if (
            (i, j) in coords
            and g.shape == target.shape
            and g.shape.threshold_coord(tt) == rs
            and (every_diagram or g.diagram == target)
        ):
            tt = source(tt)
        return select(g, tt, i, j)

    monkeypatch.setattr(cauchon, "enumerate_gamma", faulty)
    monkeypatch.setattr(minors, "enumerate_gamma", faulty)


ALL_WHITE_3X3 = Diagram.from_text(".../.../...")
FAULTS = {
    # gamma(8; 1, 2) holds every path, as at the top threshold
    "one-family": (8, {(1, 2)}, lambda t: 9, False),
    # the same, in every 3x3 diagram: the run stops at the 26th failure
    "one-family-every-diagram": (8, {(1, 2)}, lambda t: 9, True),
    # every family at t = 5 as at t = 4, so the grid equals the one at t = 4,
    # while ad = da + (q - q^-1) bc now applies to the submatrix cornered at
    # (2, 2)
    "lagging-grid": (5, set(ALL_WHITE_3X3.shape.coords()), lambda t: t - 1, False),
}


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize(
    "suite, oracle",
    [(run_relations, oracles.oracle_relations),
     (run_lindstrom, oracles.oracle_lindstrom)],
)
def test_faulty_selection_fails_both_routes_at_its_threshold(
    monkeypatch, suite, oracle, fault
):
    t, coords, source, every_diagram = FAULTS[fault]
    _select_as_at(monkeypatch, ALL_WHITE_3X3, t, coords, source, every_diagram)
    rep, want = suite(3, 3), oracle(3, 3)
    assert rep.to_json() == want.to_json()
    assert rep.failures and not rep.passed
    if every_diagram:
        assert len(rep.failures) == 26 and rep.failures[-1] == {"truncated": True}
        assert {f["t"] for f in rep.failures[:-1]} == {t}
    else:
        assert {(f["diagram"], f["t"]) for f in rep.failures} == {(".../.../...", t)}


def test_negative_sample_count_is_refused():
    # a negative count once sliced the sample queue from the end and passed
    d = Diagram.from_text("##./#../...")
    with pytest.raises(ValueError, match="samples"):
        groebner_check(HPrimeHandle(d, 9), samples=-1)
    with pytest.raises(ValueError, match="samples"):
        run_groebner(samples=-1, diagram=d, t=9)
    with pytest.raises(ValueError, match="samples"):
        run_ddalg(2, 2, samples=-1)


def _shift_relation_q(monkeypatch):
    # the q-commutation relations ask for q^2 instead of q
    shift, q_power = verify._q_shift, oracles.q_power
    monkeypatch.setattr(verify, "_q_shift", lambda c, dq: shift(c, 2 * dq))
    monkeypatch.setattr(oracles, "q_power", lambda e: q_power(2 * e))


def _shift_turning_path_weights(monkeypatch):
    # every path with a reflected-L turn gets one extra factor q
    rows = cauchon._row_column_paths

    def shifted(g, i, j):
        return tuple(
            (p, vs, qexp + (bound != (0, 0)), key, bound)
            for p, vs, qexp, key, bound in rows(g, i, j)
        )

    monkeypatch.setattr(cauchon, "_row_column_paths", shifted)


@pytest.mark.parametrize("mutate", [_shift_relation_q, _shift_turning_path_weights])
def test_mutated_relations_fail_both_routes(monkeypatch, mutate):
    mutate(monkeypatch)
    rep = run_relations(2, 3)
    want = oracles.oracle_relations(2, 3)
    assert rep.failures and not rep.passed
    assert rep.checks == want.checks
    assert rep.failures == want.failures


def test_report_elapsed_uses_a_monotonic_clock(monkeypatch):
    def stepped():
        raise AssertionError("the wall clock was read")

    monkeypatch.setattr(time, "time", stepped)
    rep = run_relations(2, 2)
    assert rep.passed and rep.elapsed >= 0.0


def test_path_searches_leave_no_reference_cycles():
    # the backtracking searches (path systems, disjoint picks, tables of a
    # grade) recurse through module-level helpers, not closures that refer
    # to themselves, so what they build is freed without the cyclic
    # collector; with closures, run_lindstrom(3, 3) alone left 90,036
    # objects to it
    diagrams = list(enumerate_cauchon_diagrams(Shape(3, 3)))[::10]
    _count_tables.cache_clear()
    gc.collect()
    gc.disable()
    try:
        run_lindstrom(3, 3)
        for d in diagrams:
            hprime_minors(HPrimeHandle(d, 9))
        assert count_terms_in_grade(GradeVector((2, 3, 1), (1, 2, 3))) > 0
        assert gc.collect() < 1000
    finally:
        gc.enable()
