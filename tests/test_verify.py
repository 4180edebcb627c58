import json

from qmpaths.torus import Shape
from qmpaths.cauchon import Diagram
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
