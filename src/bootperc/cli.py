"""Command-line entry point.

Subcommands: simulate, construct, verify, table, dimw, search.  Graphs
are given either as a file in the text format or as a family spec
("Kn:4", "Hamming:4,2", "LineK:5").  Exit status 2 marks usage errors,
1 marks rejected preconditions or resource guards (with a JSON reason
on stderr), 0 everything else.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from bootperc import constructions, formulas, oracle
from bootperc.engine import (
    is_percolating_edges_line,
    is_percolating_edges_star,
    is_percolating_vertices,
    percolate_edges_linegraph,
    percolate_edges_star,
    percolate_vertices,
    seed_from_text,
    seed_to_text,
    trace_to_jsonable,
)
from bootperc.errors import FormatError, PreconditionError, ResourceLimitError
from bootperc.graphs import (
    Graph,
    HammingSpace,
    graph_from_text,
    make_complete,
    make_hamming,
    make_line_graph,
)
from bootperc.polymethod import product_coloring_on, recognized_space_report

KNOWN_FAMILIES = ("Kn", "Hamming", "LineK")


def load_graph(spec: str) -> Graph:
    """Family spec ("Kn:4", "Hamming:4,2", "LineK:5") or path to a graph file."""
    if ":" in spec:
        name, _, rest = spec.partition(":")
        try:
            args = [int(x) for x in rest.split(",")] if rest else []
        except ValueError:
            raise PreconditionError(f"bad family parameters in {spec!r}") from None
        if name == "Kn":
            if len(args) != 1:
                raise PreconditionError("Kn takes one parameter, e.g. Kn:4")
            return make_complete(args[0])
        if name == "Hamming":
            if len(args) != 2:
                raise PreconditionError("Hamming takes two parameters, e.g. Hamming:4,2")
            return make_hamming(HammingSpace(args[0], args[1]))
        if name == "LineK":
            if len(args) != 1:
                raise PreconditionError("LineK takes one parameter, e.g. LineK:5")
            return make_line_graph(make_complete(args[0]))
        raise PreconditionError(
            f"unknown graph family {name!r}; known families: {', '.join(KNOWN_FAMILIES)}"
        )
    return graph_from_text(Path(spec).read_text())


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


# family: (process, dimension when --d is omitted, seed builder taking (n, r, d))
_FAMILIES = {
    "v2": ("vertex", 2, lambda n, r, d: constructions.vertex_seed_dim2(n, r)),
    "a": ("vertex", 2, constructions.simplex_corner_set),
    "c": ("vertex", 2, constructions.carved_corner_set),
    "star": ("star", 1, constructions.star_seed_hamming),
    "line": ("line", 1, lambda n, r, d: constructions.line_seed(n, r)),
}


def _family(family: str, d: int | None):
    """(process, dimension, seed builder) of a construction family, after checking --d."""
    process, dim, build = _FAMILIES[family]
    if d is not None and d != dim:
        if family == "v2":
            raise PreconditionError("family v2 is two-dimensional; omit --d or pass 2")
        if family == "line":
            raise PreconditionError("family line lives on the complete graph; omit --d")
        dim = d
    return process, dim, build


def cmd_simulate(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    vertices, edges = seed_from_text(Path(args.seed).read_text())
    if args.process == "vertex":
        if edges:
            raise PreconditionError("vertex process needs a vertex seed, found edges")
        trace = percolate_vertices(g, args.r, vertices)
        percolated = len(trace.final) == g.vertex_count
    else:
        if vertices:
            raise PreconditionError("edge process needs an edge seed, found vertices")
        run = percolate_edges_star if args.process == "star" else percolate_edges_linegraph
        trace = run(g, args.r, edges)
        percolated = len(trace.final) == g.edge_count
    _emit(json.dumps(trace_to_jsonable(trace, percolated)) + "\n", args.out)
    return 0


def cmd_construct(args: argparse.Namespace) -> int:
    process, d, build = _family(args.family, args.d)
    seed = build(args.n, args.r, d)
    vertices, edges = (seed, ()) if process == "vertex" else ((), seed)
    _emit(seed_to_text(vertices, edges), args.out)
    stream = sys.stdout if args.out is not None else sys.stderr
    print(f"size={len(seed)}", file=stream)
    return 0


_IS_PERCOLATING = {
    "vertex": is_percolating_vertices,
    "star": is_percolating_edges_star,
    "line": is_percolating_edges_line,
}


def cmd_verify(args: argparse.Namespace) -> int:
    process, d, build = _family(args.family, args.d)
    # the graph first: its slot guard refuses a dimension before the seed enumerates it
    if process == "line":
        g = make_complete(args.n)
    else:
        g = make_hamming(HammingSpace(args.n, d))
    seed = build(args.n, args.r, d)
    ok = _IS_PERCOLATING[process](g, args.r, seed)
    print(f"{'PERCOLATES' if ok else 'STALLS'} size={len(seed)}")
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    if args.rmax < 1:
        raise PreconditionError("--rmax must be at least 1")
    rows = _table_rows(args.d, args.rmax, args.n, args.jobs)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["n", "d", "r", "lower", "construction_size", "upper", "exact_if_known"]
    )
    for row in rows:
        writer.writerow(row)
    _emit(buf.getvalue(), args.out)
    return 0


def _table_row(payload: tuple[int, int, int]) -> list:
    d, r, n = payload
    lower, upper = formulas.min_seed_hamming_bounds(n, r, d)
    size = len(constructions.carved_corner_set(n, r, d))
    if d == 2:
        exact: object = formulas.min_seed_hamming_dim2(n, r)
    elif r == 1:
        exact = 1
    else:
        exact = ""
    return [n, d, r, _decimal(lower), size, _decimal(upper), exact]


def _decimal(x: Fraction) -> str:
    return str(float(x))


def _table_rows(d: int, rmax: int, n: int | None, jobs: int) -> list[list]:
    payloads = [(d, r, n if n is not None else r + 1) for r in range(1, rmax + 1)]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # only --jobs > 1 pays for it

        workers = min(jobs, os.cpu_count() or 1, len(payloads))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_table_row, payloads))
    return [_table_row(p) for p in payloads]


def cmd_dimw(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    gammas = _generators(args.generators) if args.generators else None
    coloring = product_coloring_on(g, gammas)
    report = recognized_space_report(g, coloring, args.r)
    payload: dict[str, object] = {"dim": report.dim}
    if args.details:
        payload.update(
            {
                "constraint_rows": report.constraint_rows,
                "constraint_cols": report.constraint_cols,
                "kernel_dim": report.kernel_dim,
            }
        )
    _emit(json.dumps(payload) + "\n", args.out)
    return 0


def _generators(text: str) -> list[Fraction | int]:
    """Comma-separated rationals ("2", "5/7"); integral values become ints."""
    gammas: list[Fraction | int] = []
    for tok in text.split(","):
        try:
            x = Fraction(tok)
        except (ValueError, ZeroDivisionError):
            raise FormatError(f"bad generator {tok!r} in --generators") from None
        gammas.append(int(x) if x.denominator == 1 else x)
    return gammas


def cmd_search(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    kwargs: dict[str, object] = {"max_engine_calls": args.max_calls, "jobs": args.jobs}
    if args.process == "vertex":
        if args.cap is not None:
            kwargs["max_vertices"] = args.cap
        result = oracle.min_percolating_vertices(g, args.r, **kwargs)
        witness: list = sorted(result.witness)
    else:
        if args.cap is not None:
            kwargs["max_edges"] = args.cap
        fn = (
            oracle.min_percolating_edges_star
            if args.process == "star"
            else oracle.min_percolating_edges_line
        )
        result = fn(g, args.r, **kwargs)
        witness = [list(e) for e in sorted(result.witness)]
    payload = {
        "minimum": result.minimum,
        "witness": witness,
        "engine_calls": result.engine_calls,
    }
    _emit(json.dumps(payload) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bootperc",
        description="Bootstrap percolation processes, seed constructions and exact bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a percolation process and print the trace")
    p.add_argument("graph", help="graph file or family spec (Kn:4, Hamming:4,2, LineK:5)")
    p.add_argument("--r", type=int, required=True, help="activation threshold")
    p.add_argument("--seed", required=True, help="seed file (v/e lines)")
    p.add_argument("--process", choices=("vertex", "star", "line"), required=True)
    p.add_argument("--out", help="write the trace JSON here instead of stdout")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("construct", help="emit a percolating-seed construction")
    p.add_argument("--family", choices=tuple(_FAMILIES), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--d", type=int)
    p.add_argument("--out", help="write the seed file here instead of stdout")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("verify", help="construct a seed and check it percolates")
    p.add_argument("--family", choices=tuple(_FAMILIES), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--d", type=int)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("table", help="CSV of bounds, construction size and exact values")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--rmax", type=int, required=True)
    p.add_argument("--n", type=int, help="fixed alphabet size (default: r+1 per row)")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", help="write the CSV here instead of stdout")
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("dimw", help="dimension of the recognized edge-function space")
    p.add_argument("graph", help="graph file or family spec")
    p.add_argument("--r", type=int, required=True)
    p.add_argument(
        "--generators",
        help="comma-separated vertex generators for the product coloring (default: primes)",
    )
    p.add_argument("--details", action="store_true", help="include matrix dimensions")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_dimw)

    p = sub.add_parser("search", help="exhaustive minimum percolating seed")
    p.add_argument("graph", help="graph file or family spec")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--process", choices=("vertex", "star", "line"), required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--max-calls", type=int, default=oracle.DEFAULT_ENGINE_CALL_BUDGET)
    p.add_argument("--cap", type=int, help="override the vertex/edge search cap")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_search)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (PreconditionError, FormatError, ResourceLimitError, OSError) as exc:
        reason = {"error": type(exc).__name__, "reason": str(exc)}
        print(json.dumps(reason), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
