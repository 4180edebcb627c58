"""Command-line front end.

Subcommands:

    diagrams    enumerate or count Cauchon diagrams on a shape
    hprime      kernel minors (optionally the minimal basis) of a diagram
    generators  path-sum generator matrix of a diagram at a threshold
    minor       evaluate one quantum minor against a diagram
    graph       DOT export of a Cauchon graph
    verify      run a verification suite

Diagrams are written inline as '#'/'.' rows joined by '/'.  All structured
output is JSON with a schema version field; exit codes are 0 on success, 1
on verification failure, 2 on usage errors and 141 (128 + SIGPIPE) when the
reader closes the output pipe early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .cauchon import (
    Diagram,
    build_graph,
    cauchon_violations,
    enumerate_cauchon_diagrams,
    export_dot,
    generator_matrix,
)
from .torus import Shape
from .minors import HPrimeHandle, MinorSpec, lindstrom_eval, minor_in_kernel, minor_poly, sigma
from .groebner import hprime_minors, minimal_groebner
from .verify import SUITES, run_groebner

SCHEMA = 1

#: verify suites that draw random samples, so take --samples and --seed
SAMPLED_SUITES = ("ddalg", "groebner")


class UsageError(Exception):
    pass


def _shape(args) -> Shape:
    try:
        return Shape(args.m, args.n, relaxed=getattr(args, "relaxed", False))
    except ValueError as exc:
        raise UsageError(str(exc))


def _diagram(args, shape: Shape) -> Diagram:
    if args.diagram_file:
        try:
            with open(args.diagram_file) as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read the diagram file: {exc}")
    elif args.diagram:
        text = args.diagram
    else:
        raise UsageError("a diagram is required (--diagram or --diagram-file)")
    try:
        d = Diagram.from_text(text, relaxed=shape.relaxed)
    except ValueError as exc:
        raise UsageError(str(exc))
    if d.shape != shape:
        raise UsageError(
            f"diagram is {d.shape.m}x{d.shape.n}, expected {shape.m}x{shape.n}"
        )
    bad = cauchon_violations(d)
    if bad:
        raise UsageError(
            f"not a Cauchon diagram: black square at {bad[0]} has white "
            "squares both above and to its left"
        )
    return d


def _threshold(args, shape: Shape) -> int:
    t = args.t if args.t is not None else shape.mn
    if not 1 <= t <= shape.mn:
        raise UsageError(f"threshold {t} outside [1, {shape.mn}]")
    return t


def _emit(args, payload: dict, text_lines) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommands


def cmd_diagrams(args) -> int:
    shape = _shape(args)
    if shape.mn > args.cap:
        raise UsageError(
            f"shape has {shape.mn} squares, above the cap {args.cap} "
            "(raise with --cap)"
        )
    if args.count_only:
        # counted as they are enumerated; no list is built
        count = sum(1 for _ in enumerate_cauchon_diagrams(shape))
        _emit(
            args,
            {"schema": SCHEMA, "m": shape.m, "n": shape.n, "count": count},
            [str(count)],
        )
        return 0
    if args.format == "text":
        # each block printed as it is enumerated; nothing is kept
        for d in enumerate_cauchon_diagrams(shape):
            print(d.to_text() + "\n")
        return 0
    inline = [d.to_inline() for d in enumerate_cauchon_diagrams(shape)]
    payload = {
        "schema": SCHEMA,
        "m": shape.m,
        "n": shape.n,
        "count": len(inline),
        "diagrams": inline,
    }
    _emit(args, payload, ())
    return 0


def cmd_hprime(args) -> int:
    shape = _shape(args)
    d = _diagram(args, shape)
    t = _threshold(args, shape)
    handle = HPrimeHandle(d, t)
    if args.minimal:
        if t != shape.mn:
            raise UsageError("--minimal is defined at the top threshold t = m*n only")
        specs = minimal_groebner(handle)
        bare = []
    else:
        specs, bare = hprime_minors(handle)
    payload = {
        "schema": SCHEMA,
        "diagram": d.to_inline(),
        "t": t,
        "minimal": bool(args.minimal),
        "minors": [str(s) for s in specs],
        "generators": [list(c) for c in bare],
    }
    lines = [str(s) for s in specs] + [f"x[{i},{j}]" for i, j in bare]
    _emit(args, payload, lines)
    return 0


def cmd_generators(args) -> int:
    shape = _shape(args)
    d = _diagram(args, shape)
    t = _threshold(args, shape)
    X = generator_matrix(build_graph(d), t)
    payload = {
        "schema": SCHEMA,
        "diagram": d.to_inline(),
        "t": t,
        "matrix": [[x.to_json() for x in row] for row in X],
    }
    lines = []
    for i, row in enumerate(X, start=1):
        for j, x in enumerate(row, start=1):
            lines.append(f"x[{i},{j}] = {x!r}")
    _emit(args, payload, lines)
    return 0


def cmd_minor(args) -> int:
    shape = _shape(args)
    d = _diagram(args, shape)
    t = _threshold(args, shape)
    handle = HPrimeHandle(d, t)
    try:
        spec = MinorSpec.parse(args.spec)
        spec.check_in_shape(shape)
    except ValueError as exc:
        raise UsageError(str(exc))
    value = sigma(handle, minor_poly(shape, t, spec))
    payload = {
        "schema": SCHEMA,
        "diagram": d.to_inline(),
        "t": t,
        "minor": str(spec),
        "value": value.to_json(),
        "zero": value.is_zero(),
    }
    lines = [f"{spec} = {value!r}"]
    if spec.max_coord <= handle.rs:
        via_paths = lindstrom_eval(handle, spec)
        payload["path_sum"] = via_paths.to_json()
        payload["in_kernel"] = minor_in_kernel(handle, spec)
        lines.append(f"path sum = {via_paths!r}")
        lines.append(f"in kernel: {payload['in_kernel']}")
    _emit(args, payload, lines)
    return 0


def cmd_graph(args) -> int:
    shape = _shape(args)
    d = _diagram(args, shape)
    dot = export_dot(build_graph(d))
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(dot)
        except OSError as exc:
            raise UsageError(f"cannot write the output file: {exc}")
    else:
        sys.stdout.write(dot)
    return 0


def cmd_verify(args) -> int:
    if args.max is not None and args.diagram is not None:
        raise UsageError("verify: --max and --diagram exclude each other")
    max_m, max_n = args.max or (3, 3)
    if max_m < 2 or max_n < 2:
        raise UsageError(f"--max {max_m} {max_n}: both bounds must be at least 2")
    if args.suite != "all" and args.suite not in SAMPLED_SUITES:
        if args.samples is not None or args.seed is not None:
            raise UsageError(
                f"verify {args.suite}: --samples and --seed apply to "
                f"{', '.join(SAMPLED_SUITES)} and all only"
            )
    else:
        args.samples = 200 if args.samples is None else args.samples
        args.seed = 0 if args.seed is None else args.seed
        if args.samples < 1:
            raise UsageError(f"--samples {args.samples}: must be at least 1")
    if args.suite != "groebner":
        if args.diagram is not None or args.t is not None:
            raise UsageError(
                f"verify {args.suite}: --diagram and -t apply to verify groebner only"
            )
    elif args.t is not None and args.diagram is None:
        raise UsageError("verify groebner: -t needs --diagram")
    if args.suite == "groebner" and args.diagram is not None:
        try:
            d = Diagram.from_text(args.diagram)
        except ValueError as exc:
            raise UsageError(str(exc))
        if cauchon_violations(d):
            raise UsageError("verify groebner needs a Cauchon diagram")
        t = _threshold(args, d.shape)
        reports = [
            run_groebner(samples=args.samples, seed=args.seed, diagram=d, t=t)
        ]
    else:
        # looked up at call time, so a caller that swaps entries of the
        # table in place (as the benchmark's timing does) is honoured
        names = list(SUITES) if args.suite == "all" else [args.suite]
        reports = [
            SUITES[name](max_m, max_n, samples=args.samples, seed=args.seed)
            if name in SAMPLED_SUITES
            else SUITES[name](max_m, max_n)
            for name in names
        ]
    payload = {
        "schema": SCHEMA,
        "passed": all(r.passed for r in reports),
        "reports": [r.to_json() for r in reports],
    }
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            print(f"{r.suite}: {status} ({r.checks} checks, {r.elapsed:.1f}s)")
            for f in r.failures[:5]:
                print(f"  witness: {f}")
    return 0 if payload["passed"] else 1


# ---------------------------------------------------------------------------
# parser


def _add_shape_args(p):
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)


def _add_diagram_args(p):
    p.add_argument("--diagram", help="inline rows of '#'/'.' joined by '/'")
    p.add_argument("--diagram-file", help="file holding the diagram text")
    p.add_argument("-t", type=int, default=None,
                   help="threshold in [1, m*n]; default m*n")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qmpaths",
        description="Quantum matrices by lattice paths: diagrams, graphs, "
        "minors, and torus-invariant-prime Groebner bases.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("diagrams", help="enumerate Cauchon diagrams")
    _add_shape_args(p)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--relaxed", action="store_true",
                   help="allow shapes with m = 1 or n = 1")
    p.add_argument("--cap", type=int, default=16,
                   help="refuse shapes with more squares than this")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_diagrams)

    p = sub.add_parser("hprime", help="kernel minors of a diagram")
    _add_shape_args(p)
    _add_diagram_args(p)
    p.add_argument("--minimal", action="store_true",
                   help="minimal basis (top threshold only)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_hprime)

    p = sub.add_parser("generators", help="generator matrix at a threshold")
    _add_shape_args(p)
    _add_diagram_args(p)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_generators)

    p = sub.add_parser("minor", help="evaluate one quantum minor")
    _add_shape_args(p)
    _add_diagram_args(p)
    p.add_argument("--spec", required=True, help='e.g. "[1,2|1,3]"')
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_minor)

    p = sub.add_parser("graph", help="DOT export of the Cauchon graph")
    _add_shape_args(p)
    _add_diagram_args(p)
    p.add_argument("-o", "--output", help="write DOT here instead of stdout")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=["relations", "lindstrom", "ddalg",
                                     "groebner", "all"])
    p.add_argument("--max", nargs=2, type=int, default=None,
                   metavar=("M", "N"), help="largest shape swept; default 3 3")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--diagram", help="restrict groebner suite to one diagram")
    p.add_argument("-t", type=int, default=None)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader has gone; send what is still buffered to /dev/null so
        # the flush at interpreter exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
