"""Exhaustive small-shape verification suites.

Each suite sweeps every Cauchon diagram on every shape up to a cap and
checks an exact algebraic identity; failures carry a printable witness.
These back both the command-line `verify` subcommand and the acceptance
tests.

A suite's sweep (`_sweep`) splits its items, one per diagram (and one per
shape for ddalg's round trips), over one process per CPU in the affinity
mask, so `taskset -c 0 qmpaths verify ...` runs it in one process.  The
reports are byte-identical either way: every result is replayed in item
order.  `Report.elapsed` is the wall time of the whole suite.

The threshold-sweeping suites (relations, lindstrom, ddalg) rest on one
premise: a check is a function of the path records of the families it
reads, each path's vertex tuple, q-exponent and weight key, from which
`weights`, `vertex_sets`, `monomials`, `generator` and `inverse_weights`
are derived.  The same families recur across the diagrams of a shape, so
each sweep process keeps one table per shape (`_Table`) that interns every
family's content to a small id and holds the decisions keyed by the ids of
the families each check reads.  Every diagram and threshold still counts
and reports its own checks from those decisions.

The families are nested in t and change only where the threshold passes
one of their paths' reflected-L turns, so consecutive levels of a diagram
nearly always read the same grid (up to 3x3, 220 of the 2,342 steps from
one level to the next change a family).  Each suite walks a diagram's
levels in order (`_levels`), carrying the previous level's grid, content
ids and verdicts: at a level whose grid is unchanged, relations and
lindstrom look up only the checks whose key is new there, and ddalg, whose
keys hold t, builds its keys from the ids carried over.  A key is still
decided once per shape table, so the decisions, check counts and reports
are those of a walk that looks up every check at every level.
"""

from __future__ import annotations

import marshal
import os
import random
import sys
import time
from dataclasses import dataclass, field
from itertools import combinations, count, islice
from operator import itemgetter

from .coeff import LAM, q_power
from .torus import Shape, add_parts, mono_key, parts_mul
from .straighten import QmPoly
from .cauchon import (
    Diagram,
    build_graph,
    enumerate_cauchon_diagrams,
    enumerate_vdps,
    family_grid,
    system_turn_key,
)
from .minors import (
    HPrimeHandle,
    MinorSpec,
    dd_backward,
    dd_forward,
    lindstrom_eval,
    minor_poly,
    sigma,
)
from .groebner import groebner_check

#: failures a report keeps; the next one truncates it and stops the suite
_MAX_FAILURES = 25


@dataclass
class Report:
    suite: str
    params: dict
    checks: int = 0
    failures: list = field(default_factory=list)
    elapsed: float = 0.0  # wall seconds of the suite, from a monotonic clock

    @property
    def passed(self) -> bool:
        """No failures, and at least one check ran: an empty sweep proves
        nothing."""
        return self.checks > 0 and not self.failures

    def fail(self, **witness):
        if len(self.failures) < _MAX_FAILURES:
            self.failures.append(witness)
        else:
            self.failures.append({"truncated": True})
            raise _TooManyFailures

    def to_json(self) -> dict:
        # no timing fields: json output is byte-for-byte reproducible
        return {
            "schema": 1,
            "suite": self.suite,
            "params": self.params,
            "passed": self.passed,
            "checks": self.checks,
            "failures": self.failures,
        }


class _TooManyFailures(Exception):
    pass


class WorkerError(RuntimeError):
    """A worker process of a sweep ended without sending its results, or
    (as the cause of a re-raised exception) raised in its share."""


def _shapes(max_m: int, max_n: int):
    return [
        Shape(m, n)
        for m in range(2, max_m + 1)
        for n in range(2, max_n + 1)
    ]


def _run(report: Report, body) -> Report:
    t0 = time.perf_counter()
    try:
        body(report)
    except _TooManyFailures:
        pass
    report.elapsed = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# sweeps: one item's result is (checks, [(checks so far, witness), ...]),
# each failure with the number of the item's checks made up to and
# including the one that failed


def _replay(report: Report, results) -> None:
    """Adds item results to the report in the order given, counting each
    failure's checks before reporting it, so that a truncated report holds
    the checks of a sweep that stopped at its last failure."""
    for checks, failures in results:
        done = 0
        for before, witness in failures:
            report.checks += before - done
            done = before
            report.fail(**witness)
        report.checks += checks - done


def _share(items, start: int, step: int) -> tuple:
    """(results, exception): task(*args) for every step-th (task, *args)
    item of the stream items() from the start-th, in order, and the
    exception that stopped the share, or None.

    The share stops once its results hold more failures than a report keeps:
    replaying them truncates the report at or before its last item.
    """
    results, failed = [], 0
    try:
        for task, *args in islice(items(), start, None, step):
            result = task(*args)
            results.append(result)
            failed += len(result[1])
            if failed > _MAX_FAILURES:
                break
    except Exception as exc:  # re-raised in its place by _in_order
        return results, exc
    return results, None


def _in_order(shares):
    """The item results of a sweep over w processes in item order, item k
    from share k mod w; raises a share's exception in the place of the item
    that raised it."""
    w = len(shares)
    for k in count():
        results, exc = shares[k % w]
        if k // w < len(results):
            yield results[k // w]
        elif exc is not None:
            raise exc
        else:
            return


def _described(exc: BaseException) -> tuple:
    """An exception as marshal-able data: its class's module and name, its
    arguments (or its message) and its formatted traceback."""
    import traceback  # only a failing worker formats a traceback

    args = exc.args
    try:
        marshal.dumps(args)
    except ValueError:
        args = (str(exc),)
    trace = "".join(traceback.format_exception(exc))
    return type(exc).__module__, type(exc).__qualname__, args, trace


def _rebuilt(module: str, name: str, args: tuple, trace: str) -> BaseException:
    """The exception `_described` sent, of the same class where this process
    can build it, with the worker's traceback as its cause."""
    cls = sys.modules.get(module)
    for part in name.split("."):
        cls = getattr(cls, part, None)
    try:
        exc = cls(*args)
    except Exception:  # not a class here, or one that wants other arguments
        exc = None
    if not isinstance(exc, BaseException):
        exc = WorkerError(f"{module}.{name}: {', '.join(map(str, args))}")
    exc.__cause__ = WorkerError(f"raised in a sweep worker:\n{trace}")
    return exc


def _fork_share(items, start: int, step: int) -> tuple:
    """Forks a worker that computes `_share(items, start, step)` and writes
    it with marshal to a pipe; returns (pid, read end)."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write_end)
        return pid, read_end
    status = 1
    try:
        os.close(read_end)
        results, exc = _share(items, start, step)
        data = marshal.dumps((results, exc and _described(exc)))
        with open(write_end, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        # no cleanup of the parent's state (buffers, atexit) runs twice
        os._exit(status)


def _received(data: bytes, status: int, start: int, step: int) -> tuple:
    """The share a worker sent, its exception rebuilt."""
    try:
        results, described = marshal.loads(data)
    except (EOFError, ValueError, TypeError):
        raise WorkerError(
            f"sweep worker {start} of {step} ended without a result "
            f"(exit status {os.waitstatus_to_exitcode(status)})"
        ) from None
    return results, described and _rebuilt(*described)


def _end_workers(workers) -> None:
    """Kills and reaps the workers a failed sweep leaves."""
    import signal  # only a sweep that failed kills its workers

    for pid, fd in workers:
        os.close(fd)
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


class _Table(dict):
    """A suite's decisions for the diagrams of one shape, keyed by what each
    check reads: the content ids of its families (`content_ids`) and
    whatever else it depends on.  A check is a function of the path records
    of the families it reads, so one decision serves every diagram and
    threshold whose families hold the same paths.

    `contents` interns each distinct content, the (path, q-exponent, key)
    of every path record of a family, to a small int.
    """

    def __init__(self):
        super().__init__()
        self.contents: dict = {}

    def content_ids(self):
        """content_id(fam): the content id of a family of one diagram,
        cached per family key, so a diagram builds each family's content
        once."""
        contents, local = self.contents, {}

        def content_id(fam):
            cid = local.get(fam.key)
            if cid is None:
                content = tuple([(r[0], r[2], r[3]) for r in fam.records])
                cid = local[fam.key] = contents.setdefault(content, len(contents))
            return cid

        return content_id


def _per_diagram(task, shapes: list, tabled: bool = False):
    """The items (task, d, *args) for every Cauchon diagram d of each
    (shape, *args) in `shapes`, as a stream for `_sweep`.  With `tabled`,
    each item also carries its shape's `_Table`, made anew by every call of
    the stream: each sweep process fills its own and frees it with the
    stream."""

    def items():
        for shape, *args in shapes:
            if tabled:
                args.append(_Table())
            for d in enumerate_cauchon_diagrams(shape):
                yield (task, d, *args)

    return items


def _levels(g, table: _Table):
    """The level walk of one diagram's graph, every threshold t in order:
    (t, grid, ids, changed), with the family grid at t, the content ids of
    its families in row-major order, and whether the grid is another
    object than at t - 1 (always at t = 1).  A grid that keeps its
    families is the object of the level before (see `family_grid`), so an
    unchanged level keeps the ids of the level before, and a suite can keep
    the verdict of every check whose key is unchanged."""
    content_id = table.content_ids()
    grid = ids = None
    for t in range(1, g.shape.mn + 1):
        X = family_grid(g, t)
        changed = X is not grid
        if changed:
            grid, ids = X, [content_id(fam) for row in X for fam in row]
        yield t, X, ids, changed


def _sweep(report: Report, items) -> None:
    """Replays into the report task(*args) for every (task, *args) item
    that the zero-argument callable `items` streams, in stream order.

    The items are split over w processes, one per CPU in the affinity mask
    and at most one per item: this process takes the items k = 0 mod w and
    forks w - 1 workers for the other residues.  Each process streams the
    items itself, so no list of them is built and every call of `items`
    must stream the same items.  A worker sends its results through a pipe
    with marshal and exits.  Every worker is reaped before this returns or
    raises.  Whatever the tasks read (their arguments,
    caches) is copied into each worker by the fork, so nothing is pickled
    and a cache a task fills is filled per process; the library starts no
    threads, so forking is safe.  With one CPU or one item nothing is
    forked.
    """
    cpus = len(os.sched_getaffinity(0))
    w = len(list(islice(items(), cpus))) or 1
    workers = []  # (pid, read end) of each worker not yet reaped
    try:
        for start in range(1, w):
            workers.append(_fork_share(items, start, w))
        shares = [_share(items, 0, w)]
        for start in range(1, w):
            pid, fd = workers[0]
            with open(fd, "rb", closefd=False) as pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del workers[0]
            os.close(fd)
            shares.append(_received(data, status, start, w))
    finally:
        _end_workers(workers)
    _replay(report, _in_order(shares))


# ---------------------------------------------------------------------------
# suite: generator relations


def _q_shift(parts: dict, dq: int) -> dict:
    """q^dq times a torus sum given by its parts {N: {c: n}}."""
    return {key: {c + dq: n for c, n in cs.items()} for key, cs in parts.items()}


#: the relation names per 2x2 submatrix, in check order, when the threshold
#: coordinate lies before its corner d (ad = da) and when it does not
_COMMUTING = ("ab=qba", "cd=qdc", "ac=qca", "bd=qdb", "bc=cb", "ad=da")
_LAMBDA = _COMMUTING[:5] + ("ad=da+lam*bc",)


def _fixed_relations(mul, a, b, c, dd) -> tuple:
    """Whether ab = qba, cd = qdc, ac = qca, bd = qdb and bc = cb hold for
    the families a, b, c, dd of a 2x2 submatrix."""
    return (
        mul(a, b) == _q_shift(mul(b, a), 1),
        mul(c, dd) == _q_shift(mul(dd, c), 1),
        mul(a, c) == _q_shift(mul(c, a), 1),
        mul(b, dd) == _q_shift(mul(dd, b), 1),
        mul(b, c) == mul(c, b),
    )


def _ad_relation(mul, a, b, c, dd, commuting: bool) -> bool:
    """Whether ad = da holds (commuting) or ad = da + (q - q^{-1}) bc."""
    if commuting:
        return mul(a, dd) == mul(dd, a)
    # da + (q - q^{-1}) bc in canonical parts, on a copy of the shared da
    rhs = {key: dict(cs) for key, cs in mul(dd, a).items()}
    for key, cs in mul(b, c).items():
        add_parts(rhs, key, cs.items(), LAM.terms)
    return mul(a, dd) == rhs


def _relations_of(d: Diagram, subs: list, flips: dict, table: _Table) -> tuple:
    """The relations of every 2x2 submatrix in `subs`, each (i, j, k, l)
    with the row-major indices of its four families, at every threshold,
    for one diagram.  `table` holds the decisions of the shape's diagrams,
    per content ids of a submatrix's four families (and, for ad, per
    branch).  A level whose grid is unchanged keeps the verdicts of the
    level before and looks up only the submatrices whose ad branch flips
    there, `flips[rs]`: those cornered at the threshold coordinate."""
    shape = d.shape
    g = build_graph(d)
    products: dict = {}

    def mul(u, v):
        p = products.get((u.key, v.key))
        if p is None:
            p = products[u.key, v.key] = parts_mul(u.weights, v.weights)
        return p

    held = [None] * len(subs)  # per submatrix, its relations at the level
    ok = [False] * len(subs)  # per submatrix, whether all of them hold
    checks, failures = 0, []
    for t, X, ids, changed in _levels(g, table):
        rs = shape.threshold_coord(t)
        for n in range(len(subs)) if changed else flips.get(rs, ()):
            (i, j, k, l), cells = subs[n]
            commuting = (k, l) > rs
            quad = tuple([ids[c] for c in cells])
            fixed = table.get(quad)
            ad = table.get((*quad, commuting))
            if fixed is None or ad is None:
                fams = [X[c // shape.n][c % shape.n] for c in cells]
                if fixed is None:
                    fixed = table[quad] = _fixed_relations(mul, *fams)
                if ad is None:
                    ad = table[(*quad, commuting)] = _ad_relation(mul, *fams, commuting)
            held[n] = (*fixed, ad)
            ok[n] = ad and all(fixed)
        if False not in ok:
            checks += 6 * len(subs)
            continue
        for (sub, _cells), relations in zip(subs, held):
            names = _COMMUTING if sub[2:] > rs else _LAMBDA
            for name, holds in zip(names, relations):
                checks += 1
                if not holds:
                    failures.append((checks, {
                        "diagram": d.to_inline(),
                        "t": t,
                        "submatrix": list(sub),
                        "relation": name,
                    }))
    return checks, failures


def run_relations(max_m: int = 3, max_n: int = 3) -> Report:
    """Path-built generator matrices satisfy the defining relations of the
    threshold-t algebra, for every diagram and threshold in range.

    The generators are compared as their families' path sums, integer
    parts {N: {c: n}}.  The relations of a submatrix read its four families
    and, for ad, whether the threshold coordinate lies before its corner d.
    So each relation is decided once per shape for each distinct content of
    the four families (`_Table`), the ad relation once per branch a
    threshold asks for, and every diagram and threshold counts and reports
    from that table.  A level whose grid is the previous level's keeps that
    level's verdicts and looks up only the ad relation of the submatrices
    cornered at its threshold coordinate, whose branch flips there; after a
    grid change it looks up every relation.  Each ordered product of two
    families is formed at most once per diagram.
    """
    report = Report("relations", {"max": [max_m, max_n]})

    def body(report):
        shapes = []  # (shape, its 2x2 submatrices, those per corner)
        for shape in _shapes(max_m, max_n):
            rows, cols = range(1, shape.m + 1), range(1, shape.n + 1)
            subs, flips = [], {}
            for i, k in combinations(rows, 2):
                for j, l in combinations(cols, 2):
                    flips.setdefault((k, l), []).append(len(subs))
                    subs.append(((i, j, k, l), [
                        (a - 1) * shape.n + b - 1
                        for a, b in ((i, j), (i, l), (k, j), (k, l))
                    ]))
            shapes.append((shape, subs, flips))
        _sweep(report, _per_diagram(_relations_of, shapes, tabled=True))

    return _run(report, body)


# ---------------------------------------------------------------------------
# suite: path evaluation of minors


def _lindstrom_holds(h: HPrimeHandle, spec: MinorSpec, poly: QmPoly) -> bool:
    """Whether sigma(poly), poly the minor `spec`, equals the weight sum of
    its vertex-disjoint path systems, vanishes exactly when there are none,
    and whether distinct systems have distinct exponent matrices."""
    via_paths = lindstrom_eval(h, spec)
    systems = enumerate_vdps(h.graph, h.t, spec.I, spec.J)
    keys = {system_turn_key(h.graph, s) for s in systems}
    return (
        sigma(h, poly) == via_paths
        and via_paths.is_zero() == (not systems)
        and len(keys) == len(systems)
    )


def _lindstrom_of(d: Diagram, levels: list, table: _Table) -> tuple:
    """Every minor of `levels` (per threshold, the minors it checks with
    their polynomials and the row-major indices of their k x k families,
    and of those the minors new at the threshold) for one diagram.
    `table` holds the decisions of the shape's diagrams, per minor and
    content ids of its families.  A level whose grid is unchanged keeps the
    verdicts of the level before and looks up only its new minors."""
    base = HPrimeHandle(d, 1)
    held: dict = {}  # per minor number, whether it holds at the level
    checks, failures = 0, []
    walk = _levels(base.graph, table)
    for (t, checked, new), (_t, _grid, ids, changed) in zip(levels, walk):
        for n, spec, poly, cells in checked if changed else new:
            key = (n, *[ids[c] for c in cells])
            ok = table.get(key)
            if ok is None:
                ok = table[key] = _lindstrom_holds(base.at(t), spec, poly)
            held[n] = ok
        if False in held.values():
            for done, (n, spec, _poly, _cells) in enumerate(checked, checks + 1):
                if not held[n]:
                    failures.append(
                        (done, {"diagram": d.to_inline(), "t": t, "minor": str(spec)})
                    )
        checks += len(checked)
    return checks, failures


def run_lindstrom(max_m: int = 3, max_n: int = 3) -> Report:
    """For every minor with maximum coordinate at most the threshold
    coordinate: the evaluation homomorphism agrees with the disjoint
    path-system weight sum, vanishing exactly when the family is empty, and
    distinct systems have distinct exponent matrices.

    Sigma reads the images of all k x k families (I_r, J_s) of the minor,
    and the path systems the diagonal ones, so each minor is decided once
    per shape for each distinct content of those families (`_Table`), and
    every diagram and threshold counts and reports from the decision.  A
    level whose grid is the previous level's keeps that level's verdicts
    and looks up only the minors whose maximum coordinate is its threshold
    coordinate; after a grid change it looks up every minor it checks.  The
    minors' polynomials are looked up once per shape and threshold, before
    the sweep.
    """
    report = Report("lindstrom", {"max": [max_m, max_n]})

    def body(report):
        shapes = []  # (shape, per threshold the minors it checks)
        for shape in _shapes(max_m, max_n):
            specs = [
                MinorSpec(I, J)
                for k in range(1, min(shape.m, shape.n) + 1)
                for I in combinations(range(1, shape.m + 1), k)
                for J in combinations(range(1, shape.n + 1), k)
            ]
            cells = [
                tuple((i - 1) * shape.n + j - 1 for i in spec.I for j in spec.J)
                for spec in specs
            ]
            levels = []
            for t in range(1, shape.mn + 1):
                rs = shape.threshold_coord(t)
                checked = [
                    (n, spec, minor_poly(shape, t, spec), cells[n])
                    for n, spec in enumerate(specs)
                    if spec.max_coord <= rs
                ]
                new = [c for c in checked if c[1].max_coord == rs]
                levels.append((t, checked, new))
            shapes.append((shape, levels))
        _sweep(report, _per_diagram(_lindstrom_of, shapes, tabled=True))

    return _run(report, body)


# ---------------------------------------------------------------------------
# suite: deleting / adding derivations


def _random_qmpoly(shape: Shape, t: int, rng) -> QmPoly:
    coords = list(shape.coords())
    terms = {}
    for _ in range(rng.randint(1, 3)):
        key = mono_key(
            (*rng.choice(coords), 1) for _ in range(rng.randint(0, 3))
        )
        terms[key] = q_power(rng.randint(-2, 2)) * rng.choice((1, -1, 2))
    return QmPoly(shape, t, terms)


def _roundtrips_of(shape: Shape, samples: int, seed: int) -> tuple:
    """dd_backward(dd_forward(a)) = a and dd_forward(dd_backward(b)) = b,
    localized, for `samples` random pairs from the shape's own generator;
    stops, like a report, past the failures one keeps."""
    rng = random.Random(seed * 10000 + shape.m * 100 + shape.n)
    checks, failures = 0, []
    while checks < 2 * samples and len(failures) <= _MAX_FAILURES:
        t = rng.randint(2, shape.mn)
        rs = shape.threshold_coord(t)
        a = _random_qmpoly(shape, t - 1, rng)
        b = _random_qmpoly(shape, t, rng)
        for kind, x, back in (
            ("roundtrip-fwd-bwd", a, dd_backward(dd_forward(a))),
            ("roundtrip-bwd-fwd", b, dd_forward(dd_backward(b))),
        ):
            checks += 1
            if back != x.with_loc(rs):
                failures.append((checks, {"kind": kind, "t": t, "element": repr(x)}))
    return checks, failures


def _ddalg_of(d: Diagram, levels: dict, images: dict, table: _Table) -> tuple:
    """The exact generator identities in the torus, and the compatibility
    of the evaluation maps across one level, at every threshold of one
    diagram.  `levels` picks the families each check reads (see
    `_ddalg_levels`).  `images` caches (t, coord) -> (y_coord at t-1, its
    forward image) for the diagram's shape.  `table` holds the checks of a
    coordinate across a level for the shape's diagrams, per (t, i, j,
    whether the threshold coordinate is black) and the content ids of the
    families they read at both levels, those of the level before carried
    from it."""
    shape = d.shape
    base = HPrimeHandle(d, 1)
    checks, failures = 0, []
    lo = lo_ids = None
    for t, hi, hi_ids, _changed in _levels(base.graph, table):
        if lo is not None:
            in_b = d.is_black(shape.threshold_coord(t))
            for i, j, nw, pick in levels[t, in_b]:
                key = (t, i, j, in_b, pick(hi_ids), pick(lo_ids))
                held = table.get(key)
                if held is None:
                    held = table[key] = _level_checks(
                        base, t, i, j, in_b, nw, hi, lo, images
                    )
                for kind, ok in held:
                    checks += 1
                    if not ok:
                        failures.append((checks, {
                            "kind": kind, "diagram": d.to_inline(), "t": t, "coord": [i, j],
                        }))
        lo, lo_ids = hi, hi_ids
    return checks, failures


def _ddalg_levels(shape: Shape) -> dict:
    """Per threshold t > 1 and whether its coordinate (r, s) is black, the
    coordinates (i, j) in order, each with its northwest flag (white
    (r, s), i < r and j < s) and an itemgetter of the row-major indices of
    the families its checks read: (i, j), and in the northwest case also
    (i, s), (r, j) and (r, s)."""
    levels = {}
    for t in range(2, shape.mn + 1):
        r, s = shape.threshold_coord(t)
        for in_b in (False, True):
            entries = levels[t, in_b] = []
            for i, j in shape.coords():
                nw = not in_b and i < r and j < s
                cells = ((i, j), (i, s), (r, j), (r, s)) if nw else ((i, j),)
                pick = itemgetter(*[(a - 1) * shape.n + b - 1 for a, b in cells])
                entries.append((i, j, nw, pick))
    return levels


def _level_checks(base, t, i, j, in_b, nw, hi, lo, images) -> tuple:
    """(kind, held) per check of coordinate (i, j) across level t, in check
    order, from the family grids hi at t and lo at t - 1 of the diagram of
    the handle `base`: the generator identity (the derivation identity when
    `nw`, the northwest flag of `_ddalg_levels`, else stability), and unless
    the threshold coordinate is black, sigma at level t of the forward image
    of y_{i,j} against sigma at level t - 1 of y_{i,j}."""
    shape = base.shape
    x = hi[i - 1][j - 1].generator
    y = lo[i - 1][j - 1].generator
    if nw:
        r, s = shape.threshold_coord(t)
        corr = (
            lo[i - 1][s - 1].generator
            * lo[r - 1][s - 1].generator.inverse()
            * lo[r - 1][j - 1].generator
        )
        held = [("generator-derivation-identity", x == y + corr)]
    else:
        held = [("generator-stability", x == y)]
    if not in_b:
        pair = images.get((t, (i, j)))
        if pair is None:
            ygen = QmPoly.generator(shape, t - 1, (i, j))
            pair = images[t, (i, j)] = (ygen, dd_forward(ygen))
        ygen, image = pair
        held.append((
            "sigma-derivation-compat",
            sigma(base.at(t), image) == sigma(base.at(t - 1), ygen),
        ))
    return tuple(held)


def run_ddalg(max_m: int = 3, max_n: int = 3, samples: int = 500, seed: int = 0) -> Report:
    """The derivation maps are mutually inverse on random elements, and the
    path model satisfies the generator identity
    x_{i,j} = y_{i,j} + y_{i,s} y_{r,s}^{-1} y_{r,j} (northwest case).

    The round trips of a shape draw from one generator, so they are one
    item of the sweep, ahead of the shape's diagrams.  The level t-1
    generators and their forward images do not depend on the diagram, so
    each is built once per (shape, t, coordinate) in each sweep process.
    The checks of a coordinate across a level read only its families (and,
    in the northwest case, those of (i, s), (r, j) and (r, s)) at both
    levels, so they are decided once per shape for each distinct content
    of those families (`_Table`), and every diagram counts and reports from
    the decision.  The keys hold t, so every level looks up each of its
    checks; the ids of level t - 1 are carried from the level before, and
    each key is picked from the ids by one `itemgetter` per coordinate.
    """
    if samples < 0:
        raise ValueError(f"samples must be at least 0, got {samples}")
    report = Report(
        "ddalg", {"max": [max_m, max_n], "samples": samples, "seed": seed}
    )

    def items():
        for shape in _shapes(max_m, max_n):
            yield _roundtrips_of, shape, samples, seed
            # what the shape's diagrams share: the families each check
            # reads, forward images and decisions
            levels, images, table = _ddalg_levels(shape), {}, _Table()
            for d in enumerate_cauchon_diagrams(shape):
                yield _ddalg_of, d, levels, images, table

    return _run(report, lambda report: _sweep(report, items))


# ---------------------------------------------------------------------------
# suite: Groebner bases


def _groebner_of(d: Diagram, t: int, samples: int, seed: int) -> tuple:
    """The randomized Groebner-property check of one diagram at threshold
    t; its handle, graph and evaluation caches are freed on return."""
    sub = groebner_check(HPrimeHandle(d, t), samples=samples, seed=seed)
    checks = sub.checked_kernel + sub.checked_nonkernel
    witness = {"diagram": d.to_inline(), "t": t}
    return checks, [(checks, {**witness, **f}) for f in sub.failures]


def run_groebner(
    max_m: int = 3,
    max_n: int = 3,
    samples: int = 200,
    seed: int = 0,
    diagram: Diagram | None = None,
    t: int | None = None,
) -> Report:
    """Randomized Groebner-property check over every diagram at the top
    threshold (or over one explicit diagram)."""
    if samples < 0:
        raise ValueError(f"samples must be at least 0, got {samples}")
    params = {"samples": samples, "seed": seed}
    if diagram is None:
        params["max"] = [max_m, max_n]
        items = _per_diagram(_groebner_of, [
            (shape, shape.mn, samples, seed) for shape in _shapes(max_m, max_n)
        ])
    else:
        if t is None:
            t = diagram.shape.mn
        params["diagram"] = diagram.to_inline()
        params["t"] = t

        def items():
            yield _groebner_of, diagram, t, samples, seed

    report = Report("groebner", params)
    return _run(report, lambda report: _sweep(report, items))


SUITES = {
    "relations": run_relations,
    "lindstrom": run_lindstrom,
    "ddalg": run_ddalg,
    "groebner": run_groebner,
}
