import gc
import json
import os
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


@pytest.fixture
def cpus(request, monkeypatch):
    """The sweeps see `request.param` CPUs in the affinity mask, so each
    forks that many less one workers whatever this machine has; afterwards
    no worker may be left."""
    n = request.param
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    yield n
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


ON_1_AND_3_CPUS = pytest.mark.parametrize(
    "cpus", [1, 3], indirect=True, ids=lambda n: f"{n}cpu"
)
ON_3_CPUS = pytest.mark.parametrize("cpus", [3], indirect=True, ids=lambda n: f"{n}cpu")


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


@ON_1_AND_3_CPUS
@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize(
    "suite, oracle",
    [(run_relations, oracles.oracle_relations),
     (run_lindstrom, oracles.oracle_lindstrom)],
)
def test_faulty_selection_fails_both_routes_at_its_threshold(
    monkeypatch, suite, oracle, fault, cpus
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


def _doubled_sigma_at(monkeypatch, level, diagrams):
    # sigma at threshold `level` comes back doubled for the chosen 3x3
    # diagrams, so every compatibility check across that level fails there
    sigma = minors.sigma

    def faulty(h, a):
        value = sigma(h, a)
        if h.t == level and h.shape == Shape(3, 3) and diagrams(h.diagram):
            value = value + value
        return value

    monkeypatch.setattr(verify, "sigma", faulty)
    monkeypatch.setattr(oracles, "sigma", faulty)


SUITE_FAULTS = {
    "one-diagram": lambda d: d == ALL_WHITE_3X3,
    # about half of the 3x3 diagrams: the report truncates
    "odd-black": lambda d: len(d.black) % 2 == 1,
}


@ON_1_AND_3_CPUS
@pytest.mark.parametrize("fault", SUITE_FAULTS)
def test_ddalg_equals_serial_oracle(monkeypatch, fault, cpus):
    _doubled_sigma_at(monkeypatch, 5, SUITE_FAULTS[fault])
    rep = run_ddalg(3, 3, samples=20, seed=3)
    want = oracles.oracle_ddalg(3, 3, samples=20, seed=3)
    assert rep.to_json() == want.to_json()
    assert rep.failures and not rep.passed
    if fault == "odd-black":
        assert len(rep.failures) == 26 and rep.failures[-1] == {"truncated": True}


@ON_1_AND_3_CPUS
@pytest.mark.parametrize("fault", SUITE_FAULTS)
def test_groebner_equals_serial_oracle(monkeypatch, fault, cpus):
    # each chosen 3x3 diagram's check reports one extra failure
    check, chosen = verify.groebner_check, SUITE_FAULTS[fault]

    def faulty(h, samples, seed):
        sub = check(h, samples=samples, seed=seed)
        if h.shape == Shape(3, 3) and chosen(h.diagram):
            sub.failures.append({"kind": "injected", "element": "", "detail": ""})
        return sub

    monkeypatch.setattr(verify, "groebner_check", faulty)
    monkeypatch.setattr(oracles, "groebner_check", faulty)
    rep = run_groebner(3, 3, samples=4, seed=5)
    want = oracles.oracle_groebner(3, 3, samples=4, seed=5)
    assert rep.to_json() == want.to_json()
    assert rep.failures and not rep.passed
    if fault == "odd-black":
        assert len(rep.failures) == 26 and rep.failures[-1] == {"truncated": True}


SHAPE_2X3 = Shape(2, 3)
DIAGRAMS_2X3 = list(enumerate_cauchon_diagrams(SHAPE_2X3))


class _Interrupted(BaseException):
    pass


def _sweep_2x3(raise_at, exc):
    # a sweep over the 46 2x3 diagrams with one check each, which raises
    # `exc` at the diagram of index raise_at
    def task(d):
        if d == DIAGRAMS_2X3[raise_at]:
            raise exc
        return 1, []

    report = verify.Report("sweep", {})
    verify._sweep(report, SHAPE_2X3, task)
    return report


@ON_3_CPUS
@pytest.mark.parametrize("raise_at", [0, 1, 2], ids=["parent", "worker-1", "worker-2"])
def test_sweep_reraises_a_share_exception(raise_at, cpus):
    # diagram k is swept by process k mod 3: the parent takes 0
    with pytest.raises(ValueError, match="^diagram swept badly$"):
        _sweep_2x3(raise_at, ValueError("diagram swept badly"))
    with pytest.raises(KeyError) as info:
        _sweep_2x3(raise_at, KeyError("missing"))
    assert info.value.args == ("missing",)


@ON_3_CPUS
def test_sweep_names_the_exit_status_of_a_worker_without_result(cpus):
    def task(d):
        if d == DIAGRAMS_2X3[4]:  # swept by worker 1
            os._exit(3)
        return 1, []

    with pytest.raises(verify.WorkerError, match=r"worker 1 of 3 .*exit status 3"):
        verify._sweep(verify.Report("sweep", {}), SHAPE_2X3, task)


@ON_3_CPUS
def test_sweep_interrupted_in_the_parent_kills_its_workers(cpus):
    # an exception the parent's share does not keep for the replay (here
    # one that is not an Exception) ends the sweep at once
    with pytest.raises(_Interrupted):
        _sweep_2x3(0, _Interrupted())


@ON_1_AND_3_CPUS
def test_sweep_checks_and_truncation_replay_in_enumeration_order(cpus):
    # diagram k makes k + 2 checks and fails at its second: the report stops
    # at the 26th failure, in diagram 25, having counted its first two checks
    def task(d):
        k = DIAGRAMS_2X3.index(d)
        return k + 2, [(2, {"k": k})]

    report = verify._run(verify.Report("sweep", {}),
                         lambda r: verify._sweep(r, SHAPE_2X3, task))
    assert report.failures == [{"k": k} for k in range(25)] + [{"truncated": True}]
    assert report.checks == sum(k + 2 for k in range(25)) + 2


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
