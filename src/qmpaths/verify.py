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
one level to the next change a family).  One function, `_walk`, walks a
diagram's levels in order for all three suites, by a plan of each level's
checks that a suite builds once per shape, carrying the previous level's
grid, content ids and verdicts: at a level whose grid is unchanged it
looks up only the checks whose key is new there.  A key is still decided
once per shape table, so the decisions, check counts and reports are
those of a walk that looks up every check at every level.
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


def _per_diagram(task, shapes: list):
    """The items (task, d, *args, table) for every Cauchon diagram d of each
    (shape, *args) in `shapes`, as a stream for `_sweep`; each call of the
    stream makes every shape's `_Table` anew, so each sweep process fills
    its own and frees it with the stream."""

    def items():
        for shape, *args in shapes:
            table = _Table()
            for d in enumerate_cauchon_diagrams(shape):
                yield (task, d, *args, table)

    return items


#: one copy of each verdict tuple the tables hold, so that a table's values
#: are a handful of shared tuples however many keys it has
_VERDICTS: dict = {}


def _picker(cells: list) -> itemgetter:
    """The itemgetter of the indices `cells`, which returns a sequence even
    for one index."""
    if len(cells) == 1:
        return itemgetter(slice(cells[0], cells[0] + 1))
    return itemgetter(*cells)


def _level(entries: list, new: list) -> tuple:
    """A level of a plan (see `_walk`)."""
    return entries, new, sum(len(entry[3]) for entry in entries)


def _walk(d: Diagram, g, plan: list, table: _Table, decide) -> tuple:
    """The sweep item result of the checks of one diagram, with graph g, at
    every threshold.  `plan[t - 1]` is level t, (entries, new, size): its
    check entries in check order, those whose key changes although the
    grid does not, and its number of checks.  An entry (slot, tag, pick,
    names, witness) is keyed by (tag, *pick(ids)), ids the content ids of
    grid t in row-major order followed by those of grid t - 1.  On a table
    miss its verdicts, one bool per name, are decide(t, entry,
    pick(families)), the families in the order of ids; a failing check is
    reported as witness(diagram, t, name).  A grid that keeps its families
    is the object of the level before (see `family_grid`), so there every
    slot keeps its verdicts but those of the new entries."""
    content_id = table.content_ids()
    held = {}  # per slot, the verdicts of its entry at the level
    bad = set()  # the slots whose verdicts hold a failure
    checks, failures = 0, []
    grid, hi, hi_fams, after = None, [], [], False
    for t, (entries, new, size) in enumerate(plan, 1):
        X = family_grid(g, t)
        changed = X is not grid
        if changed:
            grid, lo, lo_fams = X, hi, hi_fams
            hi_fams = [fam for row in X for fam in row]
            hi = [content_id(fam) for fam in hi_fams]
            ids, fams, after = hi + lo, hi_fams + lo_fams, True
        elif after:  # grid t - 1 is grid t from here on
            ids, fams, after = hi + hi, hi_fams + hi_fams, False
        for entry in entries if changed else new:
            slot, tag, pick, _names, _witness = entry
            key = (tag, *pick(ids))
            verdicts = table.get(key)
            if verdicts is None:
                verdicts = decide(t, entry, pick(fams))
                verdicts = table[key] = _VERDICTS.setdefault(verdicts, verdicts)
            held[slot] = verdicts
            if False in verdicts:
                bad.add(slot)
            elif bad:
                bad.discard(slot)
        if not bad:
            checks += size
            continue
        for slot, _tag, _pick, names, witness in entries:
            for name, holds in zip(names, held[slot]):
                checks += 1
                if not holds:
                    failures.append((checks, witness(d.to_inline(), t, name)))
    return checks, failures


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


def _relations(mul, commuting: bool, a, b, c, dd) -> tuple:
    """Whether ab = qba, cd = qdc, ac = qca, bd = qdb, bc = cb and ad = da
    (`commuting`) or ad = da + (q - q^{-1}) bc hold for the families a, b,
    c, dd of a 2x2 submatrix."""
    if commuting:
        ad = mul(a, dd) == mul(dd, a)
    else:
        # da + (q - q^{-1}) bc in canonical parts, on a copy of the shared da
        rhs = {key: dict(cs) for key, cs in mul(dd, a).items()}
        for key, cs in mul(b, c).items():
            add_parts(rhs, key, cs.items(), LAM.terms)
        ad = mul(a, dd) == rhs
    return (
        mul(a, b) == _q_shift(mul(b, a), 1),
        mul(c, dd) == _q_shift(mul(dd, c), 1),
        mul(a, c) == _q_shift(mul(c, a), 1),
        mul(b, dd) == _q_shift(mul(dd, b), 1),
        mul(b, c) == mul(c, b),
        ad,
    )


def _relations_of(d: Diagram, plan: list, table: _Table) -> tuple:
    """The relations of every 2x2 submatrix at every threshold of one
    diagram, walked by `plan` (see `run_relations`).  Each ordered product
    of two families is formed at most once per diagram."""
    products: dict = {}

    def mul(u, v):
        p = products.get((u.key, v.key))
        if p is None:
            p = products[u.key, v.key] = parts_mul(u.weights, v.weights)
        return p

    def decide(t, entry, fams):
        return _relations(mul, entry[1], *fams)

    return _walk(d, build_graph(d), plan, table, decide)


def _relations_plan(shape: Shape) -> list:
    """Per threshold, an entry per 2x2 submatrix, tagged with its ad branch
    and picking its four families; new at an unchanged grid are those
    cornered at the threshold coordinate, whose branch flips there."""
    subs = []
    for i, k in combinations(range(1, shape.m + 1), 2):
        for j, l in combinations(range(1, shape.n + 1), 2):
            corners = ((i, j), (i, l), (k, j), (k, l))
            cells = [(a - 1) * shape.n + b - 1 for a, b in corners]

            def witness(d, t, name, sub=(i, j, k, l)):
                return {"diagram": d, "t": t, "submatrix": list(sub),
                        "relation": name}

            subs.append(((k, l), _picker(cells), witness))
    plan = []
    for rs in shape.coords():
        entries = [
            (n, corner > rs, pick, _COMMUTING if corner > rs else _LAMBDA, witness)
            for n, (corner, pick, witness) in enumerate(subs)
        ]
        plan.append(_level(entries, [e for e in entries if subs[e[0]][0] == rs]))
    return plan


def run_relations(max_m: int = 3, max_n: int = 3) -> Report:
    """Path-built generator matrices satisfy the defining relations of the
    threshold-t algebra, for every diagram and threshold in range.

    The generators are compared as their families' path sums, integer
    parts {N: {c: n}}.  The relations of a submatrix read its four families
    and, for ad, whether the threshold coordinate lies before its corner d.
    So the six relations are decided together once per shape for each
    branch and distinct content of the four families (`_Table`), and every
    diagram and threshold counts and reports from that table.  A level
    whose grid is the previous level's looks up only the submatrices
    cornered at its threshold coordinate, whose branch flips there.
    """
    report = Report("relations", {"max": [max_m, max_n]})

    def body(report):
        shapes = [(shape, _relations_plan(shape)) for shape in _shapes(max_m, max_n)]
        _sweep(report, _per_diagram(_relations_of, shapes))

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


def _lindstrom_of(d: Diagram, plan: list, specs: list, polys: list,
                  table: _Table) -> tuple:
    """Every minor at every threshold of one diagram, walked by the plan of
    `_lindstrom_plan`."""
    base = HPrimeHandle(d, 1)

    def decide(t, entry, fams):
        n = entry[1]
        return (_lindstrom_holds(base.at(t), specs[n], polys[t - 1][n]),)

    return _walk(d, base.graph, plan, table, decide)


def _lindstrom_plan(shape: Shape) -> tuple:
    """(plan, specs, polys): per threshold, an entry per minor n checked
    there, tagged n and picking its k x k families; the minors; and
    polys[t - 1][n], the polynomial of minor n at t where it is checked."""
    specs = [
        MinorSpec(I, J)
        for k in range(1, min(shape.m, shape.n) + 1)
        for I in combinations(range(1, shape.m + 1), k)
        for J in combinations(range(1, shape.n + 1), k)
    ]

    def witness(d, t, name):
        return {"diagram": d, "t": t, "minor": name}

    minors = [
        (n, n, _picker([(i - 1) * shape.n + j - 1 for i in spec.I for j in spec.J]),
         (str(spec),), witness)
        for n, spec in enumerate(specs)
    ]
    plan, polys = [], []
    for t, rs in enumerate(shape.coords(), 1):
        entries = [e for e in minors if specs[e[0]].max_coord <= rs]
        new = [e for e in entries if specs[e[0]].max_coord == rs]
        plan.append(_level(entries, new))
        polys.append([minor_poly(shape, t, spec) if spec.max_coord <= rs else None
                      for spec in specs])
    return plan, specs, polys


def run_lindstrom(max_m: int = 3, max_n: int = 3) -> Report:
    """For every minor with maximum coordinate at most the threshold
    coordinate: the evaluation homomorphism agrees with the disjoint
    path-system weight sum, vanishing exactly when the family is empty, and
    distinct systems have distinct exponent matrices.

    Sigma reads the images of all k x k families (I_r, J_s) of the minor,
    and the path systems the diagonal ones, so each minor is decided once
    per shape for each distinct content of those families (`_Table`), and
    every diagram and threshold counts and reports from the decision.  A
    level whose grid is the previous level's looks up only the minors
    whose maximum coordinate is its threshold coordinate.  The minors'
    polynomials are looked up once per shape and threshold, before the
    sweep.
    """
    report = Report("lindstrom", {"max": [max_m, max_n]})

    def body(report):
        shapes = [(shape, *_lindstrom_plan(shape)) for shape in _shapes(max_m, max_n)]
        _sweep(report, _per_diagram(_lindstrom_of, shapes))

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
    """The checks across every level of one diagram, walked by the levels
    of `_ddalg_levels` its black squares pick.  `images` caches (t, coord)
    -> (y_coord at t-1, its forward image) for the diagram's shape."""
    base = HPrimeHandle(d, 1)
    plan = [levels[t, rs in d.black] for t, rs in enumerate(d.shape.coords(), 1)]

    def decide(t, entry, fams):
        return _level_checks(base, entry[1], fams, images)

    return _walk(d, base.graph, plan, table, decide)


def _ddalg_levels(shape: Shape) -> dict:
    """Per threshold t and whether its coordinate (r, s) is black, the
    plan level: for t > 1 an entry per coordinate (i, j), tagged (t, i, j,
    black, northwest), northwest meaning white (r, s), i < r and j < s,
    that picks (i, j), and if northwest (i, s), (r, j) and (r, s), at t and
    at t - 1.  The keys hold t, so every entry is new at every level."""
    mn = shape.mn
    levels = {(1, False): _level([], []), (1, True): _level([], [])}
    for t in range(2, mn + 1):
        r, s = shape.threshold_coord(t)
        for black in (False, True):
            entries = []
            for slot, (i, j) in enumerate(shape.coords()):
                nw = not black and i < r and j < s
                cells = [
                    (a - 1) * shape.n + b - 1
                    for a, b in (((i, j), (i, s), (r, j), (r, s)) if nw else ((i, j),))
                ]
                names = (
                    "generator-derivation-identity" if nw else "generator-stability",
                    *(() if black else ("sigma-derivation-compat",)),
                )

                def witness(d, t, name, coord=(i, j)):
                    return {"kind": name, "diagram": d, "t": t, "coord": list(coord)}

                pick = _picker([*cells, *[c + mn for c in cells]])
                entries.append((slot, (t, i, j, black, nw), pick, names, witness))
            levels[t, black] = _level(entries, entries)
    return levels


def _level_checks(base, tag, fams, images) -> tuple:
    """The verdicts of the `_ddalg_levels` entry `tag` on the families
    `fams` it picks in the diagram of the handle `base`: the generator
    identity (the derivation identity if northwest, else stability), and
    unless (r, s) is black, sigma at t of the forward image of y_{i,j}
    against sigma at t - 1 of y_{i,j}."""
    t, i, j, black, nw = tag
    x, y = fams[0].generator, fams[len(fams) // 2].generator
    if nw:  # fams[4:] are (i, j), (i, s), (r, j) and (r, s) at t - 1
        corr = fams[5].generator * fams[7].generator.inverse() * fams[6].generator
        held = [x == y + corr]
    else:
        held = [x == y]
    if not black:
        pair = images.get((t, (i, j)))
        if pair is None:
            ygen = QmPoly.generator(base.shape, t - 1, (i, j))
            pair = images[t, (i, j)] = (ygen, dd_forward(ygen))
        ygen, image = pair
        held.append(sigma(base.at(t), image) == sigma(base.at(t - 1), ygen))
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
    checks.
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

        def items():
            for shape in _shapes(max_m, max_n):
                for d in enumerate_cauchon_diagrams(shape):
                    yield _groebner_of, d, shape.mn, samples, seed
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
