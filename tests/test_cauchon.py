import itertools
import math
import random
from pathlib import Path

import pytest

from qmpaths.coeff import q_power
from qmpaths.torus import Shape, TorusElement, mono_key, t_gen
from qmpaths.cauchon import (
    Diagram,
    build_graph,
    cauchon_violations,
    col_vertex,
    enumerate_cauchon_diagrams,
    enumerate_gamma,
    enumerate_vdps,
    export_dot,
    family_grid,
    generator,
    generator_matrix,
    is_cauchon,
    path_turns,
    path_weight,
    path_weight_by_edges,
    row_vertex,
    _row_column_paths,
    _turn_monomial,
    system_turn_key,
    system_weight,
    vdps_exists,
    vdps_infimum,
    vdps_supremum,
    white_vertex,
)
from qmpaths.minors import HPrimeHandle
from qmpaths.straighten import Threshold

from oracles import (
    enumerate_paths_between,
    oracle_all_cauchon_sets,
    oracle_enumerate_cauchon_diagrams,
    oracle_gamma,
    oracle_path_in_gamma,
    oracle_path_l,
    oracle_path_u,
    oracle_vdps,
    oracle_vdps_envelope,
)

R, C, W = row_vertex, col_vertex, white_vertex
GOLDEN = Path(__file__).parent / "golden"


# ---------------------------------------------------------------------------
# diagrams


def test_is_cauchon_examples():
    sh = Shape(3, 4)
    bad = Diagram.of(sh, [(1, 1), (2, 1), (2, 3)])
    assert not is_cauchon(bad)
    assert cauchon_violations(bad) == [(2, 3)]
    good = Diagram.of(sh, [(1, 1), (2, 1), (2, 2), (1, 4)])
    assert is_cauchon(good)
    assert is_cauchon(Diagram.all_white(sh))
    assert is_cauchon(Diagram.all_black(sh))


def test_diagram_text_roundtrip():
    d = Diagram.from_text("#.../##../....")
    assert d.shape == Shape(3, 4)
    assert d.black == frozenset({(1, 1), (2, 1), (2, 2)})
    assert d.to_inline() == "#.../##../...."
    assert Diagram.from_text(d.to_text()) == d
    assert Diagram.from_json(d.to_json()) == d
    with pytest.raises(ValueError):
        Diagram.from_text("##/#")
    with pytest.raises(ValueError):
        Diagram.from_text("#x/..")


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 3)])
def test_enumeration_matches_brute_force(m, n):
    got = [d.black for d in enumerate_cauchon_diagrams(Shape(m, n))]
    assert len(set(got)) == len(got)
    assert set(got) == set(oracle_all_cauchon_sets(m, n))


def test_enumeration_counts():
    assert len(list(enumerate_cauchon_diagrams(Shape(2, 2)))) == 14
    assert len(list(enumerate_cauchon_diagrams(Shape(1, 1, relaxed=True)))) == 2


def _stirling2(n, k):
    """Stirling number of the second kind, by its recurrence."""
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * _stirling2(n - 1, k) + _stirling2(n - 1, k - 1)


def _poly_bernoulli(m, n):
    """Arakawa-Kaneko closed form of the number of m x n Cauchon diagrams."""
    return sum(
        math.factorial(j) ** 2 * _stirling2(m + 1, j + 1) * _stirling2(n + 1, j + 1)
        for j in range(min(m, n) + 1)
    )


ENUMERATION_SHAPES = [(m, n) for m in range(2, 5) for n in range(2, 5)] + [
    (1, n) for n in range(1, 6)
] + [(m, 1) for m in range(2, 6)]


@pytest.mark.parametrize("m,n", ENUMERATION_SHAPES)
def test_enumeration_order_equals_the_backtracking_oracle(m, n):
    sh = Shape(m, n, relaxed=True)
    got = [d.to_inline() for d in enumerate_cauchon_diagrams(sh)]
    assert got == [d.to_inline() for d in oracle_enumerate_cauchon_diagrams(sh)]
    assert all(d.shape == sh for d in enumerate_cauchon_diagrams(sh))


def test_enumeration_counts_are_poly_bernoulli():
    assert _poly_bernoulli(2, 2) == 14 and _poly_bernoulli(2, 5) == 454
    shapes = [(m, n) for m in range(1, 5) for n in range(1, 5)] + [(2, 5), (5, 2)]
    for m, n in shapes:
        sh = Shape(m, n, relaxed=True)
        count = sum(1 for _ in enumerate_cauchon_diagrams(sh))
        assert count == _poly_bernoulli(m, n), (m, n)
    assert _poly_bernoulli(4, 4) == 6902


def test_diagram_validates_its_squares():
    sh = Shape(2, 2)
    for bad in ([(3, 1)], [(0, 1)], [(1, 3)]):
        with pytest.raises(ValueError):
            Diagram.of(sh, bad)
        with pytest.raises(ValueError):
            Diagram(sh, frozenset(bad))
    for bad in ([(True, 1)], [(1, False)]):
        with pytest.raises(TypeError):
            Diagram.of(sh, bad)
        with pytest.raises(TypeError):
            Diagram(sh, frozenset(bad))
    assert Diagram.of(sh, [(2, 2)]).black == frozenset({(2, 2)})


def test_enumeration_deterministic_order():
    ds = list(enumerate_cauchon_diagrams(Shape(2, 2)))
    patterns = [d.to_inline() for d in ds]
    assert patterns == sorted(patterns, key=lambda p: p.replace(".", "0").replace("#", "1"))
    assert patterns[0] == "../.."


# ---------------------------------------------------------------------------
# graphs


def test_build_graph_literal_edge_set(grid_3x3_diagram):
    g = build_graph(grid_3x3_diagram)
    assert g.edges() == sorted(
        [
            (R(1), W(1, 2)),
            (R(2), W(2, 2)),
            (R(3), W(3, 3)),
            (W(2, 2), W(2, 1)),
            (W(3, 2), W(3, 1)),
            (W(3, 3), W(3, 2)),
            (W(1, 2), W(2, 2)),
            (W(2, 2), W(3, 2)),
            (W(2, 1), W(3, 1)),
            (W(3, 1), C(1)),
            (W(3, 2), C(2)),
            (W(3, 3), C(3)),
        ]
    )


def test_build_graph_all_white_2x2(shape22):
    g = build_graph(Diagram.all_white(shape22))
    assert g.edges() == sorted(
        [
            (R(1), W(1, 2)),
            (R(2), W(2, 2)),
            (W(1, 2), W(1, 1)),
            (W(2, 2), W(2, 1)),
            (W(1, 1), W(2, 1)),
            (W(1, 2), W(2, 2)),
            (W(2, 1), C(1)),
            (W(2, 2), C(2)),
        ]
    )


def test_all_black_column_has_no_terminal():
    d = Diagram.of(Shape(2, 2), [(1, 1), (2, 1)])
    g = build_graph(d)
    assert all(v != C(1) for _u, v in g.edges())


def test_build_graph_rejects_non_cauchon():
    with pytest.raises(ValueError, match="2, 3"):
        build_graph(Diagram.of(Shape(3, 4), [(1, 1), (2, 1), (2, 3)]))


# ---------------------------------------------------------------------------
# restricted path families


def test_gamma_corner_examples(corner_diagram_2x3):
    g = build_graph(corner_diagram_2x3)
    assert enumerate_gamma(g, 1, 1, 1) == ()
    paths5 = enumerate_gamma(g, 5, 1, 1)
    assert len(paths5) == 1
    sh = corner_diagram_2x3.shape
    assert path_weight(g, paths5[0]) == t_gen(sh, 1, 2) * t_gen(sh, 2, 2, -1) * t_gen(sh, 2, 1)
    # bottom row: a unique hook path for every column and threshold
    for t in range(1, 7):
        for j in (1, 2, 3):
            paths = enumerate_gamma(g, t, 2, j)
            assert len(paths) == 1
            assert path_weight(g, paths[0]) == t_gen(sh, 2, j)


def test_gamma_monotone_in_threshold():
    for d in enumerate_cauchon_diagrams(Shape(2, 3)):
        g = build_graph(d)
        for i in (1, 2):
            for j in (1, 2, 3):
                prev = set()
                for t in range(1, 7):
                    cur = set(enumerate_gamma(g, t, i, j))
                    assert prev <= cur
                    prev = cur


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_gamma_equals_pruning_dfs_oracle(m, n):
    sh = Shape(m, n)
    for d in enumerate_cauchon_diagrams(sh):
        g = build_graph(d)
        for t in range(1, m * n + 1):
            for i, j in sh.coords():
                assert enumerate_gamma(g, t, i, j) == oracle_gamma(g, t, i, j)


def _seeded_cauchon_diagrams(shape, count, seed):
    # each square black with probability 0.3, redrawn until Cauchon
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = Diagram.of(shape, [c for c in shape.coords() if rng.random() < 0.3])
        if is_cauchon(d):
            out.append(d)
    return out


def _path_oracle_diagrams():
    for m, n in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)]:
        yield from enumerate_cauchon_diagrams(Shape(m, n))
    yield from _seeded_cauchon_diagrams(Shape(4, 4), 20, 41)
    yield from _seeded_cauchon_diagrams(Shape(4, 5), 20, 45)


def test_row_search_equals_path_oracle():
    # one search per row gives, per column, the oracle's paths in order,
    # each with the turn product of its turns and its largest reflected-L
    # turn; every diagram up to 3x4 and 40 seeded 4x4 and 4x5 ones
    count = 0
    for d in _path_oracle_diagrams():
        g = build_graph(d)
        for i, j in d.shape.coords():
            want = []
            for path in enumerate_paths_between(g, R(i), C(j)):
                turns = path_turns(g, path)
                bound = max((c for c, k in turns if k == "mirror"), default=(0, 0))
                want.append((path, frozenset(path), *_turn_monomial(turns), bound))
            assert _row_column_paths(g, i, j) == tuple(want)
            count += len(want)
    assert count == 13143
    g = build_graph(Diagram.all_white(Shape(2, 3)))
    for i, j in [(0, 1), (3, 1), (1, 0), (1, 4)]:
        with pytest.raises(ValueError, match="out of range"):
            _row_column_paths(g, i, j)


@pytest.mark.parametrize("t, error", [(True, TypeError), (False, TypeError),
                                      (0, ValueError), (17, ValueError)])
def test_threshold_table_keeps_its_errors(grid_4x4_diagram, t, error):
    # every threshold lookup reads one table per shape; with the table
    # built, bool is still refused and so is a threshold outside [1, mn]
    sh = grid_4x4_diagram.shape
    h = HPrimeHandle(grid_4x4_diagram, sh.mn)
    g = h.graph
    assert enumerate_gamma(g, 1, 1, 2) is enumerate_gamma(g, 1, 1, 2)
    assert Threshold.of(sh, 16).rs == sh.threshold_coord(16) == (4, 4)
    calls = [
        lambda: sh.threshold_coord(t),
        lambda: Threshold.of(sh, t),
        lambda: h.at(t),
        lambda: enumerate_gamma(g, t, 1, 2),
        lambda: enumerate_vdps(g, t, (1, 2), (2, 3)),
        lambda: vdps_exists(g, t, (1, 2), (2, 3)),
    ]
    for call in calls:
        with pytest.raises(error):
            call()
    assert (True, 1, 2) not in g._gamma_cache


def test_gamma_canonical_order(grid_4x4_diagram):
    g = build_graph(grid_4x4_diagram)
    paths = enumerate_gamma(g, 16, 1, 1)
    assert list(paths) == sorted(paths)


# ---------------------------------------------------------------------------
# weights


def test_path_weight_example(grid_3x3_diagram):
    g = build_graph(grid_3x3_diagram)
    sh = grid_3x3_diagram.shape
    p = (R(1), W(1, 2), W(2, 2), W(2, 1), W(3, 1), C(1))
    expected = t_gen(sh, 1, 2) * t_gen(sh, 2, 2, -1) * t_gen(sh, 2, 1)
    assert path_weight(g, p) == expected
    assert path_weight_by_edges(g, p) == expected
    assert [k for _c, k in path_turns(g, p)] == ["gamma", "mirror", "gamma"]


def test_straight_hook_weight(shape22):
    g = build_graph(Diagram.all_white(shape22))
    p = (R(1), W(1, 2), W(2, 2), C(2))
    assert path_weight(g, p) == t_gen(shape22, 1, 2)


def test_path_weight_requires_row_to_column(grid_3x3_diagram):
    g = build_graph(grid_3x3_diagram)
    with pytest.raises(ValueError):
        path_weight(g, (W(1, 2), W(2, 2)))
    with pytest.raises(ValueError):
        path_weight(g, (R(1), W(2, 2)))


def test_turn_product_equals_edge_product_everywhere():
    for m, n in [(2, 2), (2, 3), (3, 3)]:
        for d in enumerate_cauchon_diagrams(Shape(m, n)):
            g = build_graph(d)
            for i in range(1, m + 1):
                for j in range(1, n + 1):
                    for p in enumerate_gamma(g, m * n, i, j):
                        assert path_weight(g, p) == path_weight_by_edges(g, p)


# ---------------------------------------------------------------------------
# generators


def test_generator_matrices_corner(corner_diagram_2x3):
    sh = corner_diagram_2x3.shape
    g = build_graph(corner_diagram_2x3)
    T = lambda i, j, e=1: t_gen(sh, i, j, e)
    base = ((TorusElement.zero(sh), T(1, 2), T(1, 3)), (T(2, 1), T(2, 2), T(2, 3)))
    for t in (1, 2, 3, 4):
        assert generator_matrix(g, t) == base
    assert generator_matrix(g, 5) == (
        (T(1, 2) * T(2, 2, -1) * T(2, 1), T(1, 2), T(1, 3)),
        (T(2, 1), T(2, 2), T(2, 3)),
    )
    assert generator_matrix(g, 6) == (
        (
            T(1, 2) * T(2, 2, -1) * T(2, 1) + T(1, 3) * T(2, 3, -1) * T(2, 1),
            T(1, 2) + T(1, 3) * T(2, 3, -1) * T(2, 2),
            T(1, 3),
        ),
        (T(2, 1), T(2, 2), T(2, 3)),
    )


def test_cached_generator_equals_path_weight_sum():
    for m, n in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        sh = Shape(m, n)
        for d in enumerate_cauchon_diagrams(sh):
            g = build_graph(d)
            for t in range(1, m * n + 1):
                for i, j in sh.coords():
                    expected = TorusElement.zero(sh)
                    by_edges = TorusElement.zero(sh)
                    for p in enumerate_gamma(g, t, i, j):
                        expected = expected + path_weight(g, p)
                        by_edges = by_edges + path_weight_by_edges(g, p)
                    first = generator(g, t, i, j)
                    assert first == expected
                    assert first == by_edges
                    again = generator(g, t, i, j)
                    assert again is first and again == expected


def test_families_shared_across_thresholds():
    # thresholds that select the same paths share one family object; over
    # every diagram up to 3x3 the 22,166 (threshold, i, j) families hold
    # 3,020 distinct member sets, and the 2,678 (diagram, threshold) grids
    # of families 556 distinct ones, each named by its families' keys
    objects, lookups, grids = 0, 0, 0
    for m, n in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        sh = Shape(m, n)
        for d in enumerate_cauchon_diagrams(sh):
            g = build_graph(d)
            by_members, by_key = {}, {}
            for t in range(1, m * n + 1):
                for i, j in sh.coords():
                    fam = enumerate_gamma(g, t, i, j)
                    lookups += 1
                    assert fam == oracle_gamma(g, t, i, j)
                    assert by_members.setdefault((i, j, tuple(fam)), fam) is fam
                rows, key = family_grid(g, t)
                assert family_grid(g, t)[0] is rows
                flat = sum(rows, ())
                assert all(
                    f is enumerate_gamma(g, t, i, j)
                    for f, (i, j) in zip(flat, sh.coords(), strict=True)
                )
                assert key == tuple(f.key for f in flat)
                first = by_key.setdefault(key, flat)
                assert all(a is b for a, b in zip(first, flat))
            objects += len({id(f) for f in by_members.values()})
            grids += len(by_key)
    assert lookups == 22166
    assert objects == 3020
    assert grids == 556


def test_generator_built_on_first_read():
    sh = Shape(3, 3)
    for d in enumerate_cauchon_diagrams(sh):
        g = build_graph(d)
        read = set()  # ids of the families whose generator was read
        for t in range(1, sh.mn + 1):
            for i, j in sh.coords():
                fam = enumerate_gamma(g, t, i, j)
                assert ("generator" in vars(fam)) == (id(fam) in read)
                first = generator(g, t, i, j)
                read.add(id(fam))
                assert vars(fam)["generator"] is first
                expected = TorusElement.zero(sh)
                for p in fam:
                    expected = expected + path_weight(g, p)
                assert first == expected
                assert generator(g, t, i, j) is first


def test_generator_empty_diagram_t1():
    sh = Shape(3, 3)
    g = build_graph(Diagram.all_white(sh))
    for i, j in sh.coords():
        assert generator(g, 1, i, j) == t_gen(sh, i, j)
        paths = enumerate_gamma(g, 1, i, j)
        assert len(paths) == 1


# ---------------------------------------------------------------------------
# vertex-disjoint path systems


def test_vdps_examples(grid_4x4_diagram):
    g = build_graph(grid_4x4_diagram)
    sh = grid_4x4_diagram.shape
    systems = enumerate_vdps(g, 16, (1, 2, 3), (1, 3, 4))
    assert systems == (
        (
            (R(1), W(1, 3), W(1, 2), W(2, 2), W(4, 2), W(4, 1), C(1)),
            (R(2), W(2, 3), W(3, 3), W(4, 3), C(3)),
            (R(3), W(3, 4), W(4, 4), C(4)),
        ),
    )
    assert system_weight(g, systems[0]) == (
        t_gen(sh, 1, 2) * t_gen(sh, 4, 2, -1) * t_gen(sh, 4, 1)
    ) * t_gen(sh, 2, 3) * t_gen(sh, 3, 4)
    assert enumerate_vdps(g, 16, (1, 2), (1, 2)) == ()
    assert not vdps_exists(g, 16, (1, 2), (1, 2))
    with pytest.raises(ValueError):
        enumerate_vdps(g, 16, (1, 2), (1,))


def test_vdps_determinant_empty_diagram():
    for n in (2, 3, 4):
        sh = Shape(n, n)
        g = build_graph(Diagram.all_white(sh))
        systems = enumerate_vdps(g, n * n, tuple(range(1, n + 1)), tuple(range(1, n + 1)))
        assert len(systems) == 1
        expected = TorusElement.monomial(
            sh, mono_key([(i, i, 1) for i in range(1, n + 1)])
        )
        assert system_weight(g, systems[0]) == expected


def test_vdps_exists_agrees_with_enumerator():
    for m, n in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        for d in enumerate_cauchon_diagrams(Shape(m, n)):
            g = build_graph(d)
            for k in range(1, min(m, n) + 1):
                for I in itertools.combinations(range(1, m + 1), k):
                    for J in itertools.combinations(range(1, n + 1), k):
                        for t in range(1, m * n + 1):
                            # vdps_exists first: once enumerate_vdps has
                            # filled the graph's cache it answers from there
                            assert vdps_exists(g, t, I, J) == bool(
                                enumerate_vdps(g, t, I, J)
                            )


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_vdps_equal_unshared_enumeration(m, n):
    # systems shared across thresholds equal the ones picked from scratch at
    # every threshold
    sh = Shape(m, n)
    specs = [
        (I, J)
        for k in range(1, min(m, n) + 1)
        for I in itertools.combinations(range(1, m + 1), k)
        for J in itertools.combinations(range(1, n + 1), k)
    ]
    for d in enumerate_cauchon_diagrams(sh):
        g = build_graph(d)
        for t in range(1, m * n + 1):
            for I, J in specs:
                assert enumerate_vdps(g, t, I, J) == oracle_vdps(g, t, I, J)


def test_turn_matrices_distinct_across_family():
    # the exponent matrix of a system weight determines the system
    for m, n in [(2, 3), (3, 3)]:
        for d in enumerate_cauchon_diagrams(Shape(m, n)):
            g = build_graph(d)
            for k in range(1, min(m, n) + 1):
                for I in itertools.combinations(range(1, m + 1), k):
                    for J in itertools.combinations(range(1, n + 1), k):
                        systems = enumerate_vdps(g, m * n, I, J)
                        keys = [system_turn_key(g, s) for s in systems]
                        assert len(set(keys)) == len(keys)
                        for s, key in zip(systems, keys):
                            w = system_weight(g, s)
                            (got_key, coeff), = w.terms.items()
                            assert got_key == key
                            assert coeff.as_monomial() is not None


# ---------------------------------------------------------------------------
# upper/lower combinations


def test_path_u_idempotent_commutative(grid_4x4_diagram):
    g = build_graph(grid_4x4_diagram)
    fam = enumerate_gamma(g, 16, 1, 1)
    for p in fam:
        assert oracle_path_u(g, p, p) == p
        assert oracle_path_l(g, p, p) == p
    for p in fam:
        for q in fam:
            assert oracle_path_u(g, p, q) == oracle_path_u(g, q, p)
            assert oracle_path_l(g, p, q) == oracle_path_l(g, q, p)


def test_path_u_nested_case(shape22):
    # when p stays strictly above q between the endpoints, U picks p, L picks q
    sh = Shape(3, 3)
    g = build_graph(Diagram.all_white(sh))
    p = (R(1), W(1, 3), W(1, 2), W(1, 1), W(2, 1), W(3, 1), C(1))
    q = (R(1), W(1, 3), W(2, 3), W(3, 3), W(3, 2), W(3, 1), C(1))
    assert oracle_path_in_gamma(g, p, (3, 3)) and oracle_path_in_gamma(g, q, (3, 3))
    assert oracle_path_u(g, p, q) == p
    assert oracle_path_l(g, p, q) == q


def test_path_u_lattice_laws():
    sh = Shape(3, 3)
    g = build_graph(Diagram.all_white(sh))
    for (i, j) in [(1, 1), (1, 2), (2, 1)]:
        fam = enumerate_gamma(g, 9, i, j)
        for p in fam:
            for q in fam:
                u = oracle_path_u(g, p, q)
                l = oracle_path_l(g, p, q)
                assert u in fam and l in fam
                # absorption
                assert oracle_path_u(g, p, l) == p
                assert oracle_path_l(g, p, u) == p
        for p in fam:
            for q in fam:
                for r in fam:
                    assert oracle_path_u(g, oracle_path_u(g, p, q), r) == (
                        oracle_path_u(g, p, oracle_path_u(g, q, r))
                    )


def test_path_u_mismatched_endpoints(grid_4x4_diagram):
    g = build_graph(grid_4x4_diagram)
    p = enumerate_gamma(g, 16, 1, 1)[0]
    q = enumerate_gamma(g, 16, 1, 2)[0]
    with pytest.raises(ValueError):
        oracle_path_u(g, p, q)


def test_sup_inf_example(grid_4x4_diagram):
    g = build_graph(grid_4x4_diagram)
    assert vdps_supremum(g, 16, (1, 3), (1, 3)) == (
        (R(1), W(1, 3), W(1, 2), W(2, 2), W(4, 2), W(4, 1), C(1)),
        (R(3), W(3, 4), W(3, 3), W(4, 3), C(3)),
    )
    assert vdps_infimum(g, 16, (1, 3), (1, 3)) == (
        (R(1), W(1, 3), W(2, 3), W(2, 2), W(4, 2), W(4, 1), C(1)),
        (R(3), W(3, 4), W(4, 4), W(4, 3), C(3)),
    )


def test_sup_inf_singleton(grid_4x4_diagram):
    g = build_graph(grid_4x4_diagram)
    (only,) = enumerate_vdps(g, 16, (1, 2, 3), (1, 3, 4))
    assert vdps_supremum(g, 16, (1, 2, 3), (1, 3, 4)) == only
    assert vdps_infimum(g, 16, (1, 2, 3), (1, 3, 4)) == only
    with pytest.raises(ValueError):
        vdps_supremum(g, 16, (1, 2), (1, 2))


def test_u_preserves_disjointness():
    # pairs of disjoint path pairs keep disjoint upper combinations
    for d in enumerate_cauchon_diagrams(Shape(2, 3)):
        g = build_graph(d)
        for t in (1, 6):
            for sys1 in enumerate_vdps(g, t, (1, 2), (1, 2)) if vdps_exists(g, t, (1, 2), (1, 2)) else ():
                for sys2 in enumerate_vdps(g, t, (1, 2), (1, 2)):
                    u1 = oracle_path_u(g, sys1[0], sys2[0])
                    u2 = oracle_path_u(g, sys1[1], sys2[1])
                    assert not (set(u1) & set(u2))


def _nonempty_families(m, n):
    """(graph, t, I, J, systems) for every nonempty disjoint path-system
    family of every Cauchon diagram on m x n at every threshold."""
    sh = Shape(m, n)
    for d in enumerate_cauchon_diagrams(sh):
        g = build_graph(d)
        for t in range(1, sh.mn + 1):
            for k in range(1, min(m, n) + 1):
                for I in itertools.combinations(range(1, m + 1), k):
                    for J in itertools.combinations(range(1, n + 1), k):
                        systems = enumerate_vdps(g, t, I, J)
                        if systems:
                            yield g, t, I, J, systems


def test_sup_inf_well_defined_everywhere():
    # the supremum and infimum are members of the family, and fixed points
    # of the upper and lower combinations against every member
    for m, n in [(2, 2), (2, 3), (3, 3)]:
        for g, t, I, J, systems in _nonempty_families(m, n):
            sup = vdps_supremum(g, t, I, J)
            inf = vdps_infimum(g, t, I, J)
            assert sup in systems
            assert inf in systems
            for sys_ in systems:
                for s, l, p in zip(sup, inf, sys_):
                    assert oracle_path_u(g, s, p) == s
                    assert oracle_path_l(g, l, p) == l


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2)])
def test_sup_inf_equal_combination_oracle(m, n):
    for g, t, I, J, _systems in _nonempty_families(m, n):
        assert vdps_supremum(g, t, I, J) == oracle_vdps_envelope(g, t, I, J, True)
        assert vdps_infimum(g, t, I, J) == oracle_vdps_envelope(g, t, I, J, False)


# ---------------------------------------------------------------------------
# tail switching: the path families realize the commutation relations


def _last_common(p, q):
    qset = set(q)
    common = [v for v in p if v in qset]
    return common[-1]


def _first_common(p, q):
    qset = set(q)
    for v in p:
        if v in qset:
            return v
    return None


def _switch_at(p, q, v):
    pi, qi = p.index(v), q.index(v)
    return p[: pi + 1] + q[qi + 1 :], q[: qi + 1] + p[pi + 1 :]


def _weight(g, p):
    return path_weight_by_edges(g, p)


def _check_tail_switch_on(g, t):
    sh = g.shape
    rs = sh.threshold_coord(t)
    m, n = sh.m, sh.n
    gam = {
        (i, j): enumerate_gamma(g, t, i, j)
        for i in range(1, m + 1)
        for j in range(1, n + 1)
    }
    q1 = q_power(1)
    # same row, different columns
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            for l in range(j + 1, n + 1):
                seen = set()
                for p in gam[(i, j)]:
                    for q in gam[(i, l)]:
                        v = _last_common(p, q)
                        # switched pair: q's head with p's tail and vice versa
                        qt, pt = _switch_at(p, q, v)
                        assert pt[-1] == C(j) and qt[-1] == C(l)
                        assert oracle_path_in_gamma(g, pt, rs) and oracle_path_in_gamma(g, qt, rs)
                        assert (pt, qt) not in seen
                        seen.add((pt, qt))
                        assert _weight(g, p) * _weight(g, q) == (
                            _weight(g, qt) * _weight(g, pt)
                        ).scale(q1)
    # same column, different rows: switch at the first common vertex
    for j in range(1, n + 1):
        for i in range(1, m + 1):
            for k in range(i + 1, m + 1):
                seen = set()
                for p in gam[(i, j)]:
                    for q in gam[(k, j)]:
                        v = _first_common(p, q)
                        assert v is not None
                        pt, qt = _switch_at(p, q, v)
                        assert pt[0] == R(i) and qt[0] == R(k)
                        assert oracle_path_in_gamma(g, pt, rs) and oracle_path_in_gamma(g, qt, rs)
                        assert (pt, qt) not in seen
                        seen.add((pt, qt))
                        assert _weight(g, p) * _weight(g, q) == (
                            _weight(g, qt) * _weight(g, pt)
                        ).scale(q1)
    # antidiagonal: i < k, j > l; switch the middles, weights commute
    for i in range(1, m + 1):
        for k in range(i + 1, m + 1):
            for l in range(1, n + 1):
                for j in range(l + 1, n + 1):
                    for p in gam[(i, j)]:
                        for q in gam[(k, l)]:
                            u = _first_common(p, q)
                            v = _last_common(p, q)
                            assert u is not None
                            pi0, pi1 = p.index(u), p.index(v)
                            qi0, qi1 = q.index(u), q.index(v)
                            pt = p[: pi0] + q[qi0 : qi1 + 1] + p[pi1 + 1 :]
                            qt = q[: qi0] + p[pi0 : pi1 + 1] + q[qi1 + 1 :]
                            assert oracle_path_in_gamma(g, pt, rs) and oracle_path_in_gamma(g, qt, rs)
                            assert _weight(g, p) * _weight(g, q) == _weight(g, qt) * _weight(g, pt)
    # diagonal: i < k, j < l; disjoint pairs commute; when (k,l) is at most
    # the threshold coordinate the crossing pairs biject onto the
    # antidiagonal product, and beyond it no crossing pair exists at all
    for i in range(1, m + 1):
        for k in range(i + 1, m + 1):
            for j in range(1, n + 1):
                for l in range(j + 1, n + 1):
                    switched = set()
                    for p in gam[(i, j)]:
                        for q in gam[(k, l)]:
                            if not (set(p) & set(q)):
                                assert _weight(g, p) * _weight(g, q) == _weight(g, q) * _weight(g, p)
                                continue
                            v = _last_common(p, q)
                            pt, qt = _switch_at(p, q, v)
                            assert pt[-1] == C(l) and qt[-1] == C(j)
                            assert oracle_path_in_gamma(g, pt, rs) and oracle_path_in_gamma(g, qt, rs)
                            assert (pt, qt) not in switched
                            switched.add((pt, qt))
                            # the switched product carries the i -> l factor
                            # first, mirroring ad = da + (q - q^{-1}) bc
                            assert _weight(g, p) * _weight(g, q) == (
                                _weight(g, pt) * _weight(g, qt)
                            ).scale(q1)
                    if (k, l) <= rs:
                        assert switched == {
                            (pt, qt)
                            for pt in gam[(i, l)]
                            for qt in gam[(k, j)]
                        }
                    else:
                        assert not switched


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 3)])
def test_tail_switching(m, n):
    for d in enumerate_cauchon_diagrams(Shape(m, n)):
        g = build_graph(d)
        for t in range(1, m * n + 1):
            _check_tail_switch_on(g, t)


# ---------------------------------------------------------------------------
# paths sharing a single vertex q-commute as the geometry dictates


def _share_only(p, q, v):
    return set(p) & set(q) == {v}


def test_single_common_vertex_commutation(grid_3x3_diagram):
    for d in [grid_3x3_diagram, Diagram.all_white(Shape(3, 3))]:
        g = build_graph(d)
        m, n = 3, 3
        whites = sorted(g.whites)
        for (a, b) in whites:
            v = W(a, b)
            into_v = {
                i: enumerate_paths_between(g, R(i), v) for i in range(1, m + 1)
            }
            from_v = {
                j: enumerate_paths_between(g, v, C(j)) for j in range(1, n + 1)
            }
            # head into v, tail out of v
            for i in range(1, m + 1):
                for l in range(1, n + 1):
                    for p in into_v[i]:
                        for q in from_v[l]:
                            if not _share_only(p, q, v):
                                continue
                            wp, wq = _weight(g, p), _weight(g, q)
                            if b == l:
                                assert wp * wq == wq * wp
                            else:
                                assert wp * wq == (wq * wp).scale(q_power(-1))
            # two tails out of v
            for j in range(1, n + 1):
                for l in range(j + 1, n + 1):
                    for p in from_v[j]:
                        for q in from_v[l]:
                            if not _share_only(p, q, v):
                                continue
                            wp, wq = _weight(g, p), _weight(g, q)
                            if b == l:
                                assert wp * wq == wq * wp
                            else:
                                assert wp * wq == (wq * wp).scale(q_power(1))
            # two heads into v
            for i in range(1, m + 1):
                for k in range(i + 1, m + 1):
                    for p in into_v[i]:
                        for q in into_v[k]:
                            if not _share_only(p, q, v):
                                continue
                            assert _weight(g, p) * _weight(g, q) == (
                                _weight(g, q) * _weight(g, p)
                            ).scale(q_power(1))


# ---------------------------------------------------------------------------
# DOT export


def test_export_dot_golden(shape22, grid_3x3_diagram):
    got = export_dot(build_graph(Diagram.all_white(shape22)))
    assert got == (GOLDEN / "all_white_2x2.dot").read_text()
    got3 = export_dot(build_graph(grid_3x3_diagram))
    assert got3 == (GOLDEN / "grid_3x3.dot").read_text()


def test_export_dot_empty_row():
    d = Diagram.of(Shape(2, 2), [(1, 1), (1, 2)])
    dot = export_dot(build_graph(d))
    assert "r_1" in dot
    assert "r_1 ->" not in dot


def test_family_monomials_built_only_for_path_systems(grid_4x4_diagram):
    # sigma reads a family's weight sum only; the per-path weight monomials
    # are built when a path-system weight sum needs them
    from qmpaths.minors import MinorSpec, minor_poly, sigma

    handle = HPrimeHandle(grid_4x4_diagram, 16)
    sigma(handle, minor_poly(handle.shape, 16, MinorSpec.of((3, 4), (3, 4))))
    families = list(handle.graph._family_cache.values())
    assert families
    assert all("monomials" not in fam.__dict__ for fam in families)
    systems = enumerate_vdps(handle.graph, 16, (3, 4), (3, 4))
    assert systems.weights
    used = set(map(id, systems.families))
    for fam in handle.graph._family_cache.values():
        assert ("monomials" in fam.__dict__) == (id(fam) in used)
        if id(fam) in used:
            for path in fam:
                qexp, key = fam.monomials[path]
                assert path_weight(handle.graph, path)._terms == {key: {qexp: 1}}
