import gc
import json
import os
import time

import pytest

import oracles
from qmpaths import cauchon, groebner, minors, verify
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
    # integer parts and per threshold on TorusElement products
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


def _select_as_at(monkeypatch, shape, t, coords, source, diagrams):
    # a selection bug at one threshold: the family grid at threshold t hands
    # out gamma(t; i, j) for (i, j) in coords as at threshold source(t), for
    # the diagrams of the shape that the predicate `diagrams` picks; every
    # other entry, and the grids the graph caches, are untouched
    grid = cauchon.family_grid

    def faulty(g, at):
        rows = grid(g, at)
        if at != t or g.shape != shape or not diagrams(g.diagram):
            return rows
        wrong = grid(g, source(t))
        return tuple(
            tuple(
                wrong[i - 1][j - 1] if (i, j) in coords else fam
                for j, fam in enumerate(row, 1)
            )
            for i, row in enumerate(rows, 1)
        )

    # every module that reads grids, the oracles too
    for module in (cauchon, minors, groebner, verify, oracles):
        monkeypatch.setattr(module, "family_grid", faulty)


SHAPE_3X3 = Shape(3, 3)
ALL_WHITE_3X3 = Diagram.from_text(".../.../...")


def _all_white(d):
    return d == ALL_WHITE_3X3


FAULTS = {
    # gamma(8; 1, 2) holds every path, as at the top threshold
    "one-family": (8, {(1, 2)}, lambda t: 9, _all_white),
    # the same, in every 3x3 diagram: the run stops at the 26th failure
    "one-family-every-diagram": (8, {(1, 2)}, lambda t: 9, lambda d: True),
    # every family at t = 5 as at t = 4, so the grid equals the one at t = 4,
    # while ad = da + (q - q^-1) bc now applies to the submatrix cornered at
    # (2, 2)
    "lagging-grid": (5, set(SHAPE_3X3.coords()), lambda t: t - 1, _all_white),
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
    t = FAULTS[fault][0]
    _select_as_at(monkeypatch, SHAPE_3X3, *FAULTS[fault])
    rep, want = suite(3, 3), oracle(3, 3)
    assert rep.to_json() == want.to_json()
    assert rep.failures and not rep.passed
    if fault == "one-family-every-diagram":
        assert len(rep.failures) == 26 and rep.failures[-1] == {"truncated": True}
        assert {f["t"] for f in rep.failures[:-1]} == {t}
    else:
        assert {(f["diagram"], f["t"]) for f in rep.failures} == {(".../.../...", t)}


DDALG_FAULTS = {
    # gamma(5; 1, 2) of one diagram holds every path, as at the top
    # threshold: the checks across levels 5 and 6 fail there
    "one-diagram": (5, {(1, 2)}, lambda t: 9, _all_white),
    # the same in about half of the 3x3 diagrams: the report truncates
    "odd-black": (5, {(1, 2)}, lambda t: 9, lambda d: len(d.black) % 2 == 1),
}


@ON_1_AND_3_CPUS
@pytest.mark.parametrize("fault", DDALG_FAULTS)
def test_ddalg_equals_serial_oracle(monkeypatch, fault, cpus):
    # the checks are decided once per content of the families they read,
    # so the faults change families, as the fault itself would
    _select_as_at(monkeypatch, SHAPE_3X3, *DDALG_FAULTS[fault])
    rep = run_ddalg(3, 3, samples=20, seed=3)
    want = oracles.oracle_ddalg(3, 3, samples=20, seed=3)
    assert rep.to_json() == want.to_json()
    assert rep.failures and not rep.passed
    if fault == "odd-black":
        assert len(rep.failures) == 26 and rep.failures[-1] == {"truncated": True}
    else:
        assert {(f["diagram"], f["t"]) for f in rep.failures} == {
            (".../.../...", 5), (".../.../...", 6)
        }


def _doubled_sigma_at(monkeypatch, level, diagrams):
    # sigma at threshold `level` comes back doubled for the chosen 3x3
    # diagrams, so every compatibility check across that level fails there
    sigma = minors.sigma

    def faulty(h, a):
        value = sigma(h, a)
        if h.t == level and h.shape == SHAPE_3X3 and diagrams(h.diagram):
            value = value + value
        return value

    monkeypatch.setattr(verify, "sigma", faulty)


@ON_1_AND_3_CPUS
def test_ddalg_fails_at_the_first_diagram_of_a_diagram_keyed_fault(monkeypatch, cpus):
    # a fault that no content of the families explains: the first 3x3
    # diagram of the stream decides its own checks, so the suite still fails
    # there first, whichever process takes it
    _doubled_sigma_at(monkeypatch, 5, _all_white)
    rep = run_ddalg(3, 3, samples=20, seed=3)
    assert rep.failures and not rep.passed
    assert rep.failures[0]["diagram"] == ".../.../..."


SUITE_FAULTS = {
    "one-diagram": _all_white,
    # about half of the 3x3 diagrams: the report truncates
    "odd-black": lambda d: len(d.black) % 2 == 1,
}


@ON_1_AND_3_CPUS
@pytest.mark.parametrize("fault", SUITE_FAULTS)
def test_groebner_equals_serial_oracle(monkeypatch, fault, cpus):
    # each chosen 3x3 diagram's check reports one extra failure
    check, chosen = verify.groebner_check, SUITE_FAULTS[fault]

    def faulty(h, samples, seed):
        sub = check(h, samples=samples, seed=seed)
        if h.shape == SHAPE_3X3 and chosen(h.diagram):
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


TABLED_SUITES = {
    "relations": (run_relations, oracles.oracle_relations),
    "lindstrom": (run_lindstrom, oracles.oracle_lindstrom),
    "ddalg": (
        lambda m, n: run_ddalg(m, n, samples=6, seed=2),
        lambda m, n: oracles.oracle_ddalg(m, n, samples=6, seed=2),
    ),
}


@ON_1_AND_3_CPUS
@pytest.mark.parametrize("bound", [(2, 4), (4, 2)], ids=lambda b: "x".join(map(str, b)))
@pytest.mark.parametrize("suite", TABLED_SUITES)
def test_content_tables_equal_oracles_on_long_shapes(suite, bound, cpus):
    # 2x4 and 4x2 share more family contents across diagrams than 3x3
    run, oracle = TABLED_SUITES[suite]
    rep = run(*bound)
    assert rep.to_json() == oracle(*bound).to_json()
    assert rep.passed


@pytest.mark.parametrize("cpus", [1], indirect=True, ids=lambda n: f"{n}cpu")
def test_level_walk_skips_lookups_never_decisions(monkeypatch, cpus):
    # up to 3x3 in one process: a level whose grid is unchanged reuses the
    # verdicts of the level before, yet every check a shape's table ever
    # held is still decided, once
    tables, decided = [], []
    holds = verify._lindstrom_holds

    class Recorded(verify._Table):
        def __init__(self):
            super().__init__()
            tables.append(self)

    def counting(*args):
        decided.append(args)
        return holds(*args)

    monkeypatch.setattr(verify, "_Table", Recorded)
    monkeypatch.setattr(verify, "_lindstrom_holds", counting)
    sizes = {}
    for name, (run, _oracle) in TABLED_SUITES.items():
        tables.clear()
        assert run(3, 3).passed
        sizes[name] = sum(map(len, tables))
    # relations: one entry per ad branch and content quad of a submatrix
    assert sizes == {"relations": 1509, "lindstrom": 1399, "ddalg": 1424}
    assert len(decided) == 1399


@pytest.mark.parametrize("cpus", [1], indirect=True, ids=lambda n: f"{n}cpu")
def test_table_values_are_a_few_shared_verdict_tuples(monkeypatch, cpus):
    # a table holds one interned verdict tuple per distinct outcome, not a
    # tuple per key: up to 3x3 every check holds, so the three suites' keys
    # share three objects
    tables = []

    class Recorded(verify._Table):
        def __init__(self):
            super().__init__()
            tables.append(self)

    monkeypatch.setattr(verify, "_Table", Recorded)
    assert run_relations(3, 3).passed and run_lindstrom(3, 3).passed
    assert run_ddalg(3, 3, samples=1).passed
    values = [held for table in tables for held in table.values()]
    assert len(values) == 1509 + 1399 + 1424
    assert set(values) == {(True,) * 6, (True,), (True, True)}
    assert len(set(map(id, values))) == 3


@pytest.mark.parametrize("cpus", [1], indirect=True, ids=lambda n: f"{n}cpu")
def test_ddalg_northwest_rule_is_written_once(monkeypatch, cpus):
    # each level entry carries its northwest flag in its tag; the flag picks
    # both the families the entry's key reads and the identity its check
    # tests
    for m, n in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        shape = Shape(m, n)
        for (t, in_b), (entries, new, size) in verify._ddalg_levels(shape).items():
            assert new == entries and size == sum(len(e[3]) for e in entries)
            r, s = shape.threshold_coord(t)
            for slot, tag, pick, names, _witness in entries:
                i, j = shape.coords()[slot]
                nw = not in_b and i < r and j < s
                assert tag == (t, i, j, in_b, nw)
                cells = ((i, j), (i, s), (r, j), (r, s)) if nw else ((i, j),)
                index = [(a - 1) * n + b - 1 for a, b in cells]
                assert pick(range(2 * m * n)) == (*index, *[c + m * n for c in index])
                assert names[0] == ("generator-derivation-identity" if nw
                                    else "generator-stability")
                assert names[1:] == (() if in_b else ("sigma-derivation-compat",))
    tables = []

    class Recorded(verify._Table):
        def __init__(self):
            super().__init__()
            tables.append(self)

    monkeypatch.setattr(verify, "_Table", Recorded)
    assert verify.run_ddalg(3, 3, samples=1).passed
    keys = [key for table in tables for key in table]
    assert keys
    for (_t, _i, _j, in_b, nw), *ids in keys:
        assert len(ids) == (8 if nw else 2)
        assert not (nw and in_b)


def test_equal_content_ids_hold_equal_families():
    # every diagram and threshold up to 3x3: families that share a content
    # id share everything a check reads of them
    for m, n in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        shape = Shape(m, n)
        table, first = verify._Table(), {}
        for d in enumerate_cauchon_diagrams(shape):
            g = cauchon.build_graph(d)
            content_id = table.content_ids()
            for t in range(1, shape.mn + 1):
                rs = shape.threshold_coord(t)
                for fam in sum(cauchon.family_grid(g, t), ()):
                    seen = first.setdefault(content_id(fam), fam)
                    assert fam.weights == seen.weights
                    assert fam.vertex_sets == seen.vertex_sets
                    assert fam.monomials == seen.monomials
                    assert fam.generator == seen.generator
                    if fam.key[:2] == rs and d.is_white(rs):
                        assert fam.inverse_weights == seen.inverse_weights
        assert len(first) == len(table.contents)


SHAPE_2X3 = Shape(2, 3)
DIAGRAMS_2X3 = list(enumerate_cauchon_diagrams(SHAPE_2X3))


class _Interrupted(BaseException):
    pass


def _items_2x3(task):
    # the item stream of a sweep of `task` over the 46 2x3 diagrams
    return lambda: ((task, d) for d in enumerate_cauchon_diagrams(SHAPE_2X3))


def _sweep_2x3(raise_at, exc):
    # a sweep over the 46 2x3 diagrams with one check each, which raises
    # `exc` at the diagram of index raise_at
    def task(d):
        if d == DIAGRAMS_2X3[raise_at]:
            raise exc
        return 1, []

    report = verify.Report("sweep", {})
    verify._sweep(report, _items_2x3(task))
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
        verify._sweep(verify.Report("sweep", {}), _items_2x3(task))


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
                         lambda r: verify._sweep(r, _items_2x3(task)))
    assert report.failures == [{"k": k} for k in range(25)] + [{"truncated": True}]
    assert report.checks == sum(k + 2 for k in range(25)) + 2


@ON_3_CPUS
def test_a_suite_forks_once_for_all_its_shapes(monkeypatch, cpus):
    # the 2x2 and 2x3 diagrams are one stream: two workers, not two per
    # shape; a sweep of one diagram forks none
    forks = []
    fork = os.fork

    def counting():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    assert run_relations(2, 3).passed
    assert len(forks) == 2
    forks.clear()
    assert run_groebner(samples=4, seed=1, diagram=Diagram.of(Shape(2, 3))).passed
    assert forks == []


@ON_1_AND_3_CPUS
@pytest.mark.parametrize("samples", [10, 40], ids=["both-shapes", "truncated"])
def test_failing_round_trips_keep_their_place(monkeypatch, samples, cpus):
    # dd_backward doubles its image at every odd level, so the round trips
    # through an odd level fail, and each shape's are replayed ahead of its
    # diagrams; with 40 samples the 2x2 round trips fail 24 times and the
    # report truncates in the 2x3 ones, after the 2x2 diagrams' checks
    backward = minors.dd_backward

    def faulty(a):
        image = backward(a)
        return image + image if a.threshold.t % 2 else image

    monkeypatch.setattr(verify, "dd_backward", faulty)
    monkeypatch.setattr(oracles, "dd_backward", faulty)
    rep = run_ddalg(2, 3, samples=samples, seed=4)
    want = oracles.oracle_ddalg(2, 3, samples=samples, seed=4)
    assert rep.to_json() == want.to_json()
    kinds = {f.get("kind") for f in rep.failures}
    assert kinds <= {"roundtrip-fwd-bwd", "roundtrip-bwd-fwd", None}
    if samples == 10:
        assert 0 < len(rep.failures) < 26
    else:
        assert len(rep.failures) == 26 and rep.failures[-1] == {"truncated": True}


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
    rows = cauchon._row_paths

    def shifted(g, i):
        return tuple(
            (
                tuple(
                    (p, vs, qexp + (bound != (0, 0)), key, bound)
                    for p, vs, qexp, key, bound in records
                ),
                bounds,
            )
            for records, bounds in rows(g, i)
        )

    monkeypatch.setattr(cauchon, "_row_paths", shifted)


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
