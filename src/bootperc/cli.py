"""Command-line entry point.

Subcommands: simulate, construct, verify, table, dimw, search.  Graphs
are given either as a file in the text format or as a family spec
("Kn:4", "Hamming:4,2", "LineK:5").  Exit status 2 marks usage errors,
1 marks rejected preconditions or resource guards (with a JSON reason
on stderr), 0 everything else.

Each command's arguments are written once, in ``COMMANDS``.  ``main``
reads a well-formed command line with a strict parser of that table:
the exact command name, then exact long flags (no abbreviation, no
``=``, no ``-h``), each at most once, every required option and the
exact number of positionals, and each value non-empty, not starting
with ``-``, of ASCII digits for an int and from the list for a choice.
Anything else goes to the ``argparse`` parser that :func:`build_parser`
builds from the same table, which prints every help text and usage
error, and reads every other form argparse accepts (abbreviations,
``--r=4``, repeated flags, ``--cap -1``) to the same namespace.  So a
well-formed command loads neither ``argparse`` nor, when its payload
is a dict of ints, None and lists of them, ``json``.
"""

from __future__ import annotations

import io
import os
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING

from bootperc import constructions, engine, formulas, graphs, hamming, oracle, packed, polymethod
from bootperc.errors import (
    PROCESSES,
    FormatError,
    PreconditionError,
    ResourceLimitError,
    check_threshold,
)

if TYPE_CHECKING:
    import argparse
    from fractions import Fraction

KNOWN_FAMILIES = ("Kn", "Hamming", "LineK")


def load_graph(spec: str) -> graphs.Graph:
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
            return graphs.make_complete(args[0])
        if name == "Hamming":
            if len(args) != 2:
                raise PreconditionError("Hamming takes two parameters, e.g. Hamming:4,2")
            return graphs.make_hamming(hamming.HammingSpace(args[0], args[1]))
        if name == "LineK":
            if len(args) != 1:
                raise PreconditionError("LineK takes one parameter, e.g. LineK:5")
            return graphs.make_line_graph(graphs.make_complete(args[0]))
        raise PreconditionError(
            f"unknown graph family {name!r}; known families: {', '.join(KNOWN_FAMILIES)}"
        )
    return graphs.graph_from_text(_read_text(spec))


def _read_text(path: str) -> str:
    """The text of a graph or seed file; FormatError when it does not decode."""
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not a text file: {exc}") from None


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _json(obj: object) -> str:
    """``json.dumps(obj)``; a dict of plain ASCII names to :func:`_plain` values needs no json."""
    if type(obj) is dict and all(type(k) is str and k.isascii() and k.isidentifier() for k in obj):
        values = [_plain(v) for v in obj.values()]
        if None not in values:
            return "{" + ", ".join(f'"{k}": {v}' for k, v in zip(obj, values)) + "}"
    import json  # error reasons, traces and other payloads: loaded by the first one printed

    return json.dumps(obj)


def _plain(x: object) -> str | None:
    """The JSON of an int, None, or a list or tuple of these (nested); None for anything else."""
    if type(x) is int:
        return str(x)
    if x is None:
        return "null"
    if type(x) is list or type(x) is tuple:
        items = [_plain(v) for v in x]
        return None if None in items else "[" + ", ".join(items) + "]"
    return None


# family: (process, dimension when --d is omitted, seed builder taking (n, r, d))
_FAMILIES = {
    "v2": ("vertex", 2, lambda n, r, d: constructions.vertex_seed_dim2(n, r)),
    "a": ("vertex", 2, lambda n, r, d: constructions.simplex_corner_set(n, r, d)),
    "c": ("vertex", 2, lambda n, r, d: constructions.carved_corner_set(n, r, d)),
    "star": ("star", 1, lambda n, r, d: constructions.star_seed_hamming(n, r, d)),
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
    vertices, edges = graphs.seed_from_text(_read_text(args.seed))
    if args.process == "vertex":
        if edges:
            raise PreconditionError("vertex process needs a vertex seed, found edges")
        seed, size = vertices, g.vertex_count
    else:
        if vertices:
            raise PreconditionError("edge process needs an edge seed, found vertices")
        seed, size = edges, g.edge_count
    trace = engine.percolate(g, args.r, args.process, seed)
    percolated = len(trace.final) == size
    _emit(_json(engine.trace_to_jsonable(trace, percolated)) + "\n", args.out)
    return 0


def _check_printable(n: int, d: int) -> None:
    """Refuse a seed whose vertex ids, below n^d, may have more digits than str() writes."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if n < 2 or d < 1 or limit == 0:
        return  # the builders refuse a bad n or d with their own messages
    bound = 10**limit
    if hamming.HammingSpace(n, d).capped_size(bound) > bound:
        raise ResourceLimitError(
            f"vertex ids of [0,{n})^{d} would have more than {limit} digits, "
            "the most an integer is printed with"
        )


def cmd_construct(args: argparse.Namespace) -> int:
    process, d, build = _family(args.family, args.d)
    _check_printable(args.n, d)
    seed = build(args.n, args.r, d)
    vertices, edges = (seed, ()) if process == "vertex" else ((), seed)
    _emit(graphs.seed_to_text(vertices, edges), args.out)
    stream = sys.stdout if args.out is not None else sys.stderr
    print(f"size={len(seed)}", file=stream)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    process, d, build = _family(args.family, args.d)
    space = hamming.HammingSpace(args.n, d)  # the line family's K_n is HammingSpace(n, 1)
    # the packed guard first: it refuses a dimension before the seed enumerates it
    packed.check_packed(space, process)
    seed = build(args.n, args.r, d)
    ok = packed.is_percolating_hamming(space, args.r, process, seed)
    print(f"{'PERCOLATES' if ok else 'STALLS'} size={len(seed)}")
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    if args.rmax < 1:
        raise PreconditionError("--rmax must be at least 1")
    if args.jobs < 1:
        raise PreconditionError("--jobs must be at least 1")
    rows = _table_rows(args.d, args.rmax, args.n, args.jobs)
    import csv  # only table writes CSV; the other commands do not load it

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
    # the carved set first: its corner guard refuses a huge d before the
    # bounds compute d! and (r+2d-1)^d
    size = len(constructions.carved_corner_set(n, r, d))
    lower, upper = formulas.min_seed_hamming_bounds(n, r, d)
    if d == 2:
        exact: object = formulas.min_seed_hamming_dim2(n, r)
    elif r == 1:
        exact = 1
    else:
        exact = ""
    return [n, d, r, _decimal(lower), size, _decimal(upper), exact]


def _decimal(x: Fraction) -> str:
    return str(float(x))


# A table starts its pool only when its rows enumerate more corner points
# than this.  On 2 cores, in fresh interpreters, --jobs 2 took 1.3 to 2.1
# times as long as --jobs 1 up to about 120,000 points (d = 2 to 5), about
# as long from 140,000 to 420,000, and 0.5 to 0.8 times as long past
# 680,000 (d = 2 to 4).
_TABLE_POOL_FROM = 1 << 18


def _table_rows(d: int, rmax: int, n: int | None, jobs: int) -> list[list]:
    # each row's corner checks first, in row order: both fail from some
    # r <= 2235 on, so a refused table builds no row and starts no pool
    payloads = []
    points = 0
    for r in range(1, rmax + 1):
        row_n = n if n is not None else r + 1
        points += constructions._check_corner_args(row_n, r, d)
        payloads.append((d, r, row_n))
    if jobs > 1 and points > _TABLE_POOL_FROM:
        from concurrent.futures import ProcessPoolExecutor  # only --jobs > 1 pays for it

        workers = min(jobs, os.cpu_count() or 1, len(payloads))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_table_row, payloads))
    return [_table_row(p) for p in payloads]


def cmd_dimw(args: argparse.Namespace) -> int:
    # the polymethod takes r <= 0 as the zero space, which layer sums need;
    # a negative threshold on the command line is an input error
    check_threshold(args.r)
    g = load_graph(args.graph)
    gammas = _generators(args.generators) if args.generators is not None else None
    coloring = polymethod.product_coloring_on(g, gammas)
    report = polymethod.recognized_space_report(g, coloring, args.r)
    payload: dict[str, object] = {"dim": report.dim}
    if args.details:
        payload.update(
            {
                "constraint_rows": report.constraint_rows,
                "constraint_cols": report.constraint_cols,
                "kernel_dim": report.kernel_dim,
            }
        )
    _emit(_json(payload) + "\n", args.out)
    return 0


def _generators(text: str) -> list[Fraction | int]:
    """Comma-separated rationals ("2", "5/7"); integral values become ints."""
    from fractions import Fraction  # only --generators parses rationals

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
    result = oracle.min_percolating(g, args.r, args.process, args.cap, args.max_calls, args.jobs)
    _emit(_json(result._asdict()) + "\n", args.out)
    return 0


# command: (help, function, arguments); each argument is (flag, type,
# required, default, help), in the order argparse lists them.  A flag
# without "--" is a positional.  The type is int, str, a tuple of
# choices, or bool for a store_true switch; the dest is the flag's name
# with "-" read as "_", as argparse derives it.
COMMANDS = {
    "simulate": ("run a percolation process and print the trace", cmd_simulate, (
        ("graph", str, True, None, "graph file or family spec (Kn:4, Hamming:4,2, LineK:5)"),
        ("--r", int, True, None, "activation threshold"),
        ("--seed", str, True, None, "seed file (v/e lines)"),
        ("--process", PROCESSES, True, None, None),
        ("--out", str, False, None, "write the trace JSON here instead of stdout"),
    )),
    "construct": ("emit a percolating-seed construction", cmd_construct, (
        ("--family", tuple(_FAMILIES), True, None, None),
        ("--n", int, True, None, None),
        ("--r", int, True, None, None),
        ("--d", int, False, None, None),
        ("--out", str, False, None, "write the seed file here instead of stdout"),
    )),
    "verify": ("construct a seed and check it percolates", cmd_verify, (
        ("--family", tuple(_FAMILIES), True, None, None),
        ("--n", int, True, None, None),
        ("--r", int, True, None, None),
        ("--d", int, False, None, None),
    )),
    "table": ("CSV of bounds, construction size and exact values", cmd_table, (
        ("--d", int, True, None, None),
        ("--rmax", int, True, None, None),
        ("--n", int, False, None, "fixed alphabet size (default: r+1 per row)"),
        ("--jobs", int, False, 1, None),
        ("--out", str, False, None, "write the CSV here instead of stdout"),
    )),
    "dimw": ("dimension of the recognized edge-function space", cmd_dimw, (
        ("graph", str, True, None, "graph file or family spec"),
        ("--r", int, True, None, None),
        ("--generators", str, False, None,
         "comma-separated vertex generators for the product coloring (default: primes)"),
        ("--details", bool, False, False, "include matrix dimensions"),
        ("--out", str, False, None, None),
    )),
    "search": ("exhaustive minimum percolating seed", cmd_search, (
        ("graph", str, True, None, "graph file or family spec"),
        ("--r", int, True, None, None),
        ("--process", PROCESSES, True, None, None),
        ("--jobs", int, False, 1, None),
        ("--max-calls", int, False, None, None),
        ("--cap", int, False, None, "vertex or edge search cap (default by process)"),
        ("--out", str, False, None, None),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of ``COMMANDS``."""
    import argparse  # only help, usage errors and forms the strict parser refuses load it

    parser = argparse.ArgumentParser(
        prog="bootperc",
        description="Bootstrap percolation processes, seed constructions and exact bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, fn, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        for flag, kind, required, default, text in arguments:
            kwargs: dict[str, object] = {"default": default, "help": text}
            if kind is bool:
                kwargs["action"] = "store_true"
            elif kind is int:
                kwargs["type"] = int
            elif kind is not str:
                kwargs["choices"] = kind
            if flag.startswith("-"):
                kwargs["required"] = required
            p.add_argument(flag, **kwargs)
        p.set_defaults(fn=fn)
    return parser


def _parse_strict(argv: list[str]) -> SimpleNamespace | None:
    """What ``build_parser().parse_args(argv)`` returns for a well-formed ``argv``, else None.

    Well-formed is the subset of the argparse syntax the module
    docstring lists; on it both parsers give the same attributes.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    _, fn, arguments = COMMANDS[argv[0]]
    options = {a[0]: a for a in arguments if a[0].startswith("-")}
    given: dict[str, object] = {}
    positionals: list[str] = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
            continue
        if token not in options or token in given:
            return None
        kind = options[token][1]
        if kind is bool:
            given[token] = True
            continue
        value = next(tokens, "")
        if value[:1] in ("", "-"):
            return None
        if kind is int:
            if not (value.isascii() and value.isdigit()):
                return None
            try:
                given[token] = int(value)
            except ValueError:  # more digits than int() reads
                return None
        elif kind is str or value in kind:
            given[token] = value
        else:
            return None
    names = [a[0] for a in arguments if not a[0].startswith("-")]
    if len(positionals) != len(names) or "" in positionals:
        return None
    given.update(zip(names, positionals))
    values: dict[str, object] = {"command": argv[0], "fn": fn}
    for flag, _, required, default, _ in arguments:
        if required and flag not in given:
            return None
        values[flag.lstrip("-").replace("-", "_")] = given.get(flag, default)
    return SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_strict(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (PreconditionError, FormatError, ResourceLimitError, OSError) as exc:
        reason = {"error": type(exc).__name__, "reason": str(exc)}
        print(_json(reason), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
