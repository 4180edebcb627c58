"""Cauchon diagrams and their directed path graphs.

A diagram is an m x n grid with each square black or white; it is a Cauchon
diagram when every black square has all squares to its left black or all
squares above it black.  The associated graph has a white vertex per white
square, a row vertex per row and a column vertex per column, with edges
running west between consecutive white squares of a row, south between
consecutive white squares of a column, from each row vertex to the
easternmost white square of its row, and from the southernmost white square
of each column to that column vertex.  All edges point west or south, so the
graph is a planar DAG in its grid embedding.

Paths from row vertices to column vertices carry quantum-torus weights read
off their turns: direction changes horizontal-to-vertical contribute t_{i,j},
vertical-to-horizontal contribute t_{i,j}^{-1}, taken in path order.  The
restricted family gamma(t; i, j) keeps the paths whose
vertical-to-horizontal turns all sit at coordinates <= the t-th smallest
coordinate (r, s).  The families are nested in t, and at t = mn gamma holds
every row-i-to-column-j path, so each family is a filter over one search
from row vertex i that records, per path, its weight monomial and its
largest vertical-to-horizontal turn.  The m x n families at one threshold
form its family grid (`family_grid`), the one way to reach a family, which
the evaluation, the kernel sweep and the verify suites all read.  A family
changes from t - 1 to t only when the t-th smallest coordinate is the
largest reflected-L turn of one of its paths, so grid t is built from a
cached grid t - 1 by selecting only those entries again.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

from .torus import (
    Coord,
    EMPTY_KEY,
    Shape,
    TorusElement,
    mono_key,
    monomial_mul,
    t_gen,
    torus_product,
)

# vertices are tagged tuples; tags sort 'c' < 'r' < 'w' but ordering is only
# used to make enumeration orders canonical
Vertex = tuple


def white_vertex(i: int, j: int) -> Vertex:
    return ("w", i, j)


def row_vertex(i: int) -> Vertex:
    return ("r", i)


def col_vertex(j: int) -> Vertex:
    return ("c", j)


def is_white(v: Vertex) -> bool:
    return v[0] == "w"


def vertex_str(v: Vertex) -> str:
    if v[0] == "w":
        return f"({v[1]},{v[2]})"
    return f"{'row' if v[0] == 'r' else 'col'} {v[1]}"


# ---------------------------------------------------------------------------
# diagrams


@dataclass(frozen=True)
class Diagram:
    """A black/white coloring of the m x n grid."""

    shape: Shape
    black: frozenset

    def __post_init__(self):
        for coord in self.black:
            self.shape.check_coord(coord)

    @classmethod
    def of(cls, shape: Shape, black=()) -> "Diagram":
        return cls(shape, frozenset(black))

    @classmethod
    def all_white(cls, shape: Shape) -> "Diagram":
        return cls(shape, frozenset())

    @classmethod
    def all_black(cls, shape: Shape) -> "Diagram":
        return cls(shape, frozenset(shape.coords()))

    def is_black(self, coord: Coord) -> bool:
        return coord in self.black

    def is_white(self, coord: Coord) -> bool:
        return self.shape.contains(coord) and coord not in self.black

    # -- text / json form: '#' black, '.' white ------------------------------

    def to_text(self) -> str:
        return "\n".join(
            "".join(
                "#" if (i, j) in self.black else "."
                for j in range(1, self.shape.n + 1)
            )
            for i in range(1, self.shape.m + 1)
        )

    def to_inline(self) -> str:
        return self.to_text().replace("\n", "/")

    @classmethod
    def from_text(cls, text: str, relaxed: bool = False) -> "Diagram":
        rows = [r for r in text.replace("/", "\n").split() if r]
        if not rows:
            raise ValueError("empty diagram text")
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise ValueError("ragged diagram rows")
        bad = sorted(set("".join(rows)) - set("#."))
        if bad:
            raise ValueError(f"diagram characters must be '#' or '.', got {bad}")
        shape = Shape(len(rows), n, relaxed=relaxed)
        black = frozenset(
            (i + 1, j + 1)
            for i, row in enumerate(rows)
            for j, ch in enumerate(row)
            if ch == "#"
        )
        return cls(shape, black)

    def to_json(self) -> dict:
        return {
            "m": self.shape.m,
            "n": self.shape.n,
            "black": sorted([i, j] for i, j in self.black),
        }

    @classmethod
    def from_json(cls, data, relaxed: bool = False) -> "Diagram":
        shape = Shape(data["m"], data["n"], relaxed=relaxed)
        return cls(shape, frozenset((i, j) for i, j in data["black"]))


def cauchon_violations(d: Diagram) -> list:
    """Black squares with a white square above and a white square to the left."""
    out = []
    for (i, j) in sorted(d.black):
        left_ok = all((i, jj) in d.black for jj in range(1, j))
        above_ok = all((ii, j) in d.black for ii in range(1, i))
        if not (left_ok or above_ok):
            out.append((i, j))
    return out


def is_cauchon(d: Diagram) -> bool:
    return not cauchon_violations(d)


def enumerate_cauchon_diagrams(shape: Shape):
    """All Cauchon diagrams on the shape, each once.

    Backtracks row by row over n-bit row masks, column 1 the highest bit,
    passing down the mask C of the columns black in every row so far.  A
    black square under such a column is allowed, so a row mask is valid
    exactly when its rightmost black square outside C has every square to
    its left black: with k the lowest set bit of `bits & ~C`, when
    `bits >> k == full >> k`.  The valid masks are listed once per column
    mask, and each (row, mask) keeps its tuple of black coordinates, so a
    diagram's black set is one frozenset of concatenated tuples.

    Diagrams are emitted in increasing order of their row-major 0/1 pattern
    (white = 0).  The order is load-bearing: seeded samples drawn from the
    list (perfbench's groebner-check) and the order in which the verify
    suites report failures depend on it.
    """
    m, n = shape.m, shape.n
    full = (1 << n) - 1
    cells = [
        [
            tuple((i, j) for j in range(1, n + 1) if bits >> (n - j) & 1)
            for bits in range(full + 1)
        ]
        for i in range(1, m + 1)
    ]
    choices = {}

    def valid_masks(col_mask):
        out = choices.get(col_mask)
        if out is None:
            out = choices[col_mask] = []
            for bits in range(full + 1):
                free = bits & ~col_mask
                k = (free & -free).bit_length() - 1
                if not free or bits >> k == full >> k:
                    out.append((bits, col_mask & bits))
        return out

    def rec(i, black, col_mask):
        row = cells[i]
        if i == m - 1:
            for bits, _ in valid_masks(col_mask):
                yield Diagram(shape, frozenset(black + row[bits]))
            return
        for bits, below in valid_masks(col_mask):
            yield from rec(i + 1, black + row[bits], below)

    yield from rec(0, (), full)


# ---------------------------------------------------------------------------
# graphs


class CauchonGraph:
    """The directed grid graph of a Cauchon diagram, with its grid embedding.

    The graph also holds the evaluation data derived from it, built on
    first use: per row i, every path from row i to each column with its
    vertex set, weight monomial and largest reflected-L turn, and per
    column the sorted distinct turn bounds of those paths; per threshold
    coordinate, its family grid (`family_grid`); per (i, j, largest bound
    at or below a threshold), the restricted family read off the paths;
    and per tuple of families, the vertex-disjoint path systems picked
    from them.  A family changes only at a threshold that passes one of
    its paths' turn bounds, so every grid that selects the same paths
    holds one family object.  The grid is the one table that sigma's
    images, the path systems, the kernel sweep and the verify suites
    read.  Those objects are shared by every caller and must not be
    mutated.
    """

    def __init__(self, diagram: Diagram):
        bad = cauchon_violations(diagram)
        if bad:
            raise ValueError(
                f"not a Cauchon diagram: violating black square at {bad[0]}"
            )
        self.diagram = diagram
        self.shape = diagram.shape
        m, n = self.shape.m, self.shape.n
        whites = [c for c in self.shape.coords() if c not in diagram.black]
        self.whites = frozenset(whites)
        out: dict[Vertex, list] = {}

        def add(u, v):
            out.setdefault(u, []).append(v)

        # west and south edges between nearest white squares
        for (i, j) in whites:
            for jj in range(j - 1, 0, -1):
                if (i, jj) in self.whites:
                    add(white_vertex(i, j), white_vertex(i, jj))
                    break
            for ii in range(i + 1, m + 1):
                if (ii, j) in self.whites:
                    add(white_vertex(i, j), white_vertex(ii, j))
                    break
        # row terminals: row vertex -> easternmost white square of the row
        for i in range(1, m + 1):
            for j in range(n, 0, -1):
                if (i, j) in self.whites:
                    add(row_vertex(i), white_vertex(i, j))
                    break
        # column terminals: southernmost white square of the column -> col vertex
        for j in range(1, n + 1):
            for i in range(m, 0, -1):
                if (i, j) in self.whites:
                    add(white_vertex(i, j), col_vertex(j))
                    break
        self.out = {u: tuple(sorted(vs)) for u, vs in out.items()}
        self._paths_cache: dict = {}  # row i -> (records, bounds) per column
        self._grid_cache: dict = {}  # threshold coordinate -> family grid
        self._family_cache: dict = {}  # (i, j, bound) -> _Family
        self._systems_cache: dict = {}  # family keys -> systems

    def out_edges(self, v: Vertex) -> tuple:
        return self.out.get(v, ())

    def edges(self):
        return sorted((u, v) for u, vs in self.out.items() for v in vs)

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        return v in self.out.get(u, ())

    def edge_dir(self, u: Vertex, v: Vertex) -> str:
        """'h' for westward edges, 'v' for southward ones."""
        if not self.has_edge(u, v):
            raise ValueError(f"no edge {vertex_str(u)} -> {vertex_str(v)}")
        if u[0] == "r" or (u[0] == "w" and v[0] == "w" and u[1] == v[1]):
            return "h"
        return "v"

    def is_path(self, path) -> bool:
        if len(path) < 2 or len(set(path)) != len(path):
            return False
        return all(self.has_edge(u, v) for u, v in zip(path, path[1:]))


def build_graph(d: Diagram) -> CauchonGraph:
    return CauchonGraph(d)


# ---------------------------------------------------------------------------
# paths, turns, weights


def path_turns(g: CauchonGraph, path) -> list:
    """Turns along a path: (coord, 'gamma'|'mirror') per direction change.

    'gamma' is horizontal-in/vertical-out, 'mirror' the reflected L
    (vertical-in/horizontal-out).
    """
    turns = []
    for prev, v, nxt in zip(path, path[1:], path[2:]):
        if not is_white(v):
            continue
        din = g.edge_dir(prev, v)
        dout = g.edge_dir(v, nxt)
        if din == "h" and dout == "v":
            turns.append(((v[1], v[2]), "gamma"))
        elif din == "v" and dout == "h":
            turns.append(((v[1], v[2]), "mirror"))
    return turns


def _turn_monomial(turns, qexp: int = 0, mono=EMPTY_KEY) -> tuple:
    """(q-exponent, key) of q^qexp t^mono times the alternating turn product
    of a row-to-column path's turns (t_{i,j} at the first turn, its inverse
    at the second, and so on)."""
    sign = 1
    for (a, b), _kind in turns:
        c, mono = monomial_mul(mono, ((a, b, sign),))
        qexp += c
        sign = -sign
    return qexp, mono


def path_weight(g: CauchonGraph, path) -> TorusElement:
    """Weight of a row-to-column path: the alternating turn product."""
    return system_weight(g, (path,))


def path_weight_by_edges(g: CauchonGraph, path) -> TorusElement:
    """Weight as the product of edge weights.

    Horizontal white-to-white edges (i,j)->(i,j') weigh t_{i,j}^{-1} t_{i,j'},
    row-terminal edges weigh t_{i,j}, vertical and column-terminal edges weigh
    1.  Defined for any path; agrees with the turn product on row-to-column
    paths.
    """
    if not g.is_path(path):
        raise ValueError("not a path in this graph")
    factors = []
    for u, v in zip(path, path[1:]):
        if u[0] == "r":
            factors.append(t_gen(g.shape, v[1], v[2]))
        elif v[0] == "w" and g.edge_dir(u, v) == "h":
            factors.append(
                t_gen(g.shape, u[1], u[2], e=-1) * t_gen(g.shape, v[1], v[2])
            )
    return torus_product(g.shape, factors)


class _Family(tuple):
    """gamma(t; i, j): its paths, carrying their vertex sets (same order) as
    `vertex_sets`, their weight sum as `weights`, the parts {key:
    {q-exponent: number of paths}} of a torus sum, their path records (see
    `_row_paths`) as `records`, and as `key` the (i, j, bound) it is
    stored under on its graph.  Built from those on first read: each path's
    weight monomial, `monomials`, {path: (q-exponent, key)}, which only path
    systems read, the weight sum as a TorusElement holding `weights`,
    `generator`, and the parts of its inverse, `inverse_weights`; only a
    monomial generator (a white (i, j)) has one."""

    @cached_property
    def monomials(self) -> dict:
        return {r[0]: (r[2], r[3]) for r in self.records}

    @cached_property
    def generator(self) -> TorusElement:
        return TorusElement._raw(self.shape, self.weights)

    @cached_property
    def inverse_weights(self) -> dict:
        return self.generator.inverse()._terms


def _row_paths(g: CauchonGraph, i: int) -> tuple:
    """Per column j, at index j - 1, the records of every path row i ->
    column j and the sorted distinct bounds of those records: one search
    from row vertex i, cached on the graph per row.  A record is (path,
    vertex set, q-exponent, key, largest reflected-L turn or (0, 0)), in
    lexicographic order of the vertex sequences.

    The search carries each partial path's last edge direction, weight
    monomial and largest reflected-L turn, so each turn is read once, where
    the path takes it.  Along a row-to-column path the turns alternate from
    horizontal-in/vertical-out, so such a turn at (a, b) multiplies the
    weight by t_{a,b} and a reflected-L turn there by t_{a,b}^{-1}, as in
    `_turn_monomial`; between two reflected-L turns the path runs south, so
    the last one taken is the largest.  Out-neighbor lists are sorted and
    pushed in reverse, so paths pop in lexicographic order of their vertex
    sequences; the order is load-bearing (see `vdps_supremum`).
    """
    columns = g._paths_cache.get(i)
    if columns is None:
        columns = [[] for _ in range(g.shape.n)]
        out = g.out
        # the row vertex's one edge runs west: no turn there
        stack = [((row_vertex(i),), "h", 0, EMPTY_KEY, (0, 0))]
        while stack:
            path, din, qexp, mono, bound = stack.pop()
            v = path[-1]
            if v[0] == "c":
                columns[v[1] - 1].append((path, frozenset(path), qexp, mono, bound))
                continue
            for w in reversed(out.get(v, ())):
                dout = "h" if w[0] == "w" and w[1] == v[1] else "v"
                if dout == din:
                    stack.append((path + (w,), din, qexp, mono, bound))
                elif dout == "v":
                    c, key = monomial_mul(mono, ((v[1], v[2], 1),))
                    stack.append((path + (w,), dout, qexp + c, key, bound))
                else:  # a reflected-L turn, below every earlier one
                    c, key = monomial_mul(mono, ((v[1], v[2], -1),))
                    stack.append((path + (w,), dout, qexp + c, key, (v[1], v[2])))
        columns = g._paths_cache[i] = tuple(
            (tuple(records), sorted({r[4] for r in records})) for records in columns
        )
    return columns


def _family(g: CauchonGraph, i: int, j: int, rs: Coord, column: tuple) -> _Family:
    """gamma(t; i, j) at the threshold coordinate rs = (r, s) of t: the
    paths row i -> column j whose bound is at most rs, selected from
    `column`, the (records, bounds) that `_row_paths` lists for (i, j).
    Thresholds that select the same paths share one family, cached on the
    graph under (i, j, the largest bound at or below rs)."""
    records, bounds = column
    k = bisect_right(bounds, rs)
    bound = bounds[k - 1] if k else None
    fam = g._family_cache.get((i, j, bound))
    if fam is None:
        members = [r for r in records if r[4] <= rs]
        # every path weight is +q^c t^N, so no sum of them cancels to zero
        weights: dict = {}
        for _path, _vset, qexp, mono, _bound in members:
            parts = weights.setdefault(mono, {})
            parts[qexp] = parts.get(qexp, 0) + 1
        fam = g._family_cache[(i, j, bound)] = _Family(r[0] for r in members)
        fam.shape = g.shape
        fam.key = (i, j, bound)
        fam.vertex_sets = tuple(r[1] for r in members)
        fam.records = members
        fam.weights = weights
    return fam


def family_grid(g: CauchonGraph, t: int) -> tuple:
    """The families gamma(t; i, j) for every (i, j), as m rows of n.
    Cached on the graph per threshold coordinate.

    A family changes from t - 1 to t only when its bound list holds the
    threshold coordinate of t.  So when grid t - 1 is cached, grid t is
    that grid with only those entries selected again; it shares the rows
    that keep their families and, when no family changes, is the grid
    t - 1 object itself.  With grid t - 1 cached, `family_grid(g, t) is
    family_grid(g, t - 1)` exactly when the two thresholds select the
    same families.
    """
    shape = g.shape
    rs = shape.threshold_coord(t)
    rows = g._grid_cache.get(rs)
    if rows is None:
        below = g._grid_cache.get(shape.threshold_coord(t - 1)) if t > 1 else None
        rows = g._grid_cache[rs] = _grid(g, rs, below)
    return rows


def _grid(g: CauchonGraph, rs: Coord, below) -> tuple:
    """The family grid at the threshold coordinate rs, every entry selected;
    or, given the grid `below` of the threshold before rs, that grid with
    the entries selected again whose bound list holds rs.  Each row's path
    records are read once."""
    rows, changed = [], below is None
    for i in range(1, g.shape.m + 1):
        columns = _row_paths(g, i)
        if below is None:
            rows.append(tuple([
                _family(g, i, j, rs, column) for j, column in enumerate(columns, 1)
            ]))
            continue
        row = below[i - 1]
        fresh = [j for j, (_records, bounds) in enumerate(columns, 1) if rs in bounds]
        if fresh:
            row, changed = list(row), True
            for j in fresh:
                row[j - 1] = _family(g, i, j, rs, columns[j - 1])
            row = tuple(row)
        rows.append(row)
    return tuple(rows) if changed else below


def _picked(g: CauchonGraph, t: int, I, J) -> list:
    """The families gamma(t; I[r], J[r]) of the equal-length, nonempty
    index sequences I and J, read off the threshold's family grid."""
    I = tuple(I)
    J = tuple(J)
    if len(I) != len(J) or not I:
        raise ValueError("row and column index sets must match and be nonempty")
    if min(I) < 1 or max(I) > g.shape.m or min(J) < 1 or max(J) > g.shape.n:
        raise ValueError("row or column index out of range")
    rows = family_grid(g, t)
    return [rows[i - 1][j - 1] for i, j in zip(I, J)]


def enumerate_gamma(g: CauchonGraph, t: int, i: int, j: int):
    """All paths from row vertex i to column vertex j whose reflected-L turns
    sit at coordinates <= the t-th smallest coordinate, in lexicographic
    order of their vertex sequences: entry (i, j) of the family grid at t.
    """
    return _picked(g, t, (i,), (j,))[0]


def generator(g: CauchonGraph, t: int, i: int, j: int) -> TorusElement:
    """Path-sum image of the (i, j) generator: sum of weights over gamma.

    The returned element is shared through the graph's cache, so callers
    must not mutate its terms.
    """
    return _picked(g, t, (i,), (j,))[0].generator


def generator_matrix(g: CauchonGraph, t: int) -> tuple:
    return tuple(tuple(fam.generator for fam in row) for row in family_grid(g, t))


# ---------------------------------------------------------------------------
# vertex-disjoint path systems


class _Systems(tuple):
    """The vertex-disjoint systems picked from the families `families`,
    one path per family.  Their weight sum, `weights`, the parts {key:
    {q-exponent: number of systems}} of a torus sum, is built on first read
    from the member paths' `monomials`."""

    @cached_property
    def weights(self) -> dict:
        weights: dict = {}
        for system in self:
            qexp, mono = 0, EMPTY_KEY
            for fam, path in zip(self.families, system):
                c, key = fam.monomials[path]
                e, mono = monomial_mul(mono, key)
                qexp += c + e
            parts = weights.setdefault(mono, {})
            parts[qexp] = parts.get(qexp, 0) + 1
        return weights


def enumerate_vdps(g: CauchonGraph, t: int, I, J):
    """All vertex-disjoint systems (P_1, ..., P_k), P_r from row I[r] to
    column J[r], each path in the t-restricted family.

    Deterministic order: lexicographic in the per-index path enumeration
    order.  The order is load-bearing: the supremum of the family is the
    first system and the infimum the last (see `vdps_supremum`).  Requires
    |I| == |J| >= 1.  The systems depend on the families only, so the tuple
    is cached on the graph under the families' keys, shared by every
    threshold that selects them, and carries their weight sum (see
    `_Systems`).
    """
    choices = _picked(g, t, I, J)
    key = tuple(fam.key for fam in choices)
    systems = g._systems_cache.get(key)
    if systems is None:
        found: list = []
        _disjoint_systems(choices, 0, frozenset(), [], found)
        systems = g._systems_cache[key] = _Systems(found)
        systems.families = tuple(choices)
    return systems


def _disjoint_systems(choices, idx, used, acc, out) -> None:
    """Append to `out` every completion of the partial system `acc` (paths
    from choices[:idx], covering the vertices `used`) by one path from
    each of the families choices[idx:], disjoint from all the others."""
    if idx == len(choices):
        out.append(tuple(acc))
        return
    fam = choices[idx]
    for path, pset in zip(fam, fam.vertex_sets):
        if not used.isdisjoint(pset):
            continue
        acc.append(path)
        _disjoint_systems(choices, idx + 1, used | pset, acc, out)
        acc.pop()


def vdps_exists(g: CauchonGraph, t: int, I, J) -> bool:
    """Early-exit variant of enumerate_vdps; systems already enumerated for
    the same families answer without a search."""
    choices = _picked(g, t, I, J)
    systems = g._systems_cache.get(tuple(fam.key for fam in choices))
    if systems is not None:
        return bool(systems)
    return disjoint_pick_exists([fam.vertex_sets for fam in choices])


def disjoint_pick_exists(choices) -> bool:
    """Whether one vertex set can be picked from each of the nonempty list
    of lists `choices` so that the picks are pairwise disjoint.

    With choices[r] the vertex sets of gamma(t; I[r], J[r]), this decides
    whether the family of vertex-disjoint path systems for [I|J] is
    nonempty; it backtracks over the lists in order and stops at the first
    disjoint pick.
    """
    return _disjoint_pick_from(choices, 0, frozenset())


def _disjoint_pick_from(choices, idx, used) -> bool:
    """Whether picks from choices[idx:] exist, disjoint from each other and
    from the vertices `used`."""
    last = len(choices) - 1
    for pset in choices[idx]:
        if used.isdisjoint(pset) and (
            idx == last or _disjoint_pick_from(choices, idx + 1, used | pset)
        ):
            return True
    return False


def system_weight(g: CauchonGraph, system) -> TorusElement:
    """Product of the member path weights, in system order."""
    qexp, mono = 0, EMPTY_KEY
    for p in system:
        if not g.is_path(p):
            raise ValueError("not a path in this graph")
        if p[0][0] != "r" or p[-1][0] != "c":
            raise ValueError("weights are defined for row-to-column paths")
        qexp, mono = _turn_monomial(path_turns(g, p), qexp, mono)
    return TorusElement._raw(g.shape, {mono: {qexp: 1}})


def system_turn_key(g: CauchonGraph, system):
    """Exponent matrix of the system weight: +1 per gamma turn, -1 per
    reflected-L turn, over all member paths."""
    items = []
    for p in system:
        for coord, kind in path_turns(g, p):
            items.append((*coord, 1 if kind == "gamma" else -1))
    return mono_key(items)


def vdps_supremum(g: CauchonGraph, t: int, I, J):
    """The system whose every path lies weakly above the same-index path of
    every system in the family: the first system `enumerate_vdps` returns.

    Two distinct paths with the same ends split at a white square (i, j):
    a column vertex is a sink and a path only moves west or south, so
    neither leaves by a column terminal edge there.  The upper one leaves
    by its west edge to ('w', i, j'), the lower one by its south edge to
    ('w', i', j) with i' > i, so the upper one sorts first.  Paths are
    enumerated in lexicographic order of their vertex tuples, so a path
    weakly above another comes first; systems are ordered lexicographically
    by their per-index path positions, so the system above all others, the
    supremum of the family (paper, section 3), is the first one.
    """
    return _vdps_end(g, t, I, J, 0)


def vdps_infimum(g: CauchonGraph, t: int, I, J):
    """The system below all others: by the argument of `vdps_supremum`
    mirrored, the last system `enumerate_vdps` returns."""
    return _vdps_end(g, t, I, J, -1)


def _vdps_end(g: CauchonGraph, t: int, I, J, index: int):
    systems = enumerate_vdps(g, t, I, J)
    if not systems:
        raise ValueError("empty path family has no supremum or infimum")
    return systems[index]


# ---------------------------------------------------------------------------
# export


def export_dot(g: CauchonGraph) -> str:
    """Deterministic DOT text with grid positions from the embedding."""
    m, n = g.shape.m, g.shape.n
    lines = [
        "digraph cauchon {",
        '  graph [label="{}x{} diagram {}"];'.format(
            m, n, g.diagram.to_inline()
        ),
        "  node [shape=circle, width=0.25, fixedsize=true];",
    ]

    def node_id(v):
        return f"w_{v[1]}_{v[2]}" if v[0] == "w" else f"{v[0]}_{v[1]}"

    for (i, j) in sorted(g.whites):
        lines.append(
            f'  w_{i}_{j} [label="{i},{j}", pos="{j},{-i}!"];'
        )
    for i in range(1, m + 1):
        lines.append(f'  r_{i} [label="r{i}", pos="{n + 1},{-i}!"];')
    for j in range(1, n + 1):
        lines.append(f'  c_{j} [label="c{j}", pos="{j},{-(m + 1)}!"];')
    for u, v in g.edges():
        lines.append(f"  {node_id(u)} -> {node_id(v)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
