"""Exhaustive ground truth for minimum percolating seeds on tiny graphs.

Each search ascends through seed cardinalities and, within a
cardinality, enumerates candidate sets in lexicographic order, so the
returned witness is reproducible.  Elements that provably can never be
activated (degree too low for the threshold) are forced into every
candidate, which is what makes instances like the 16-vertex Hamming
graph feasible.  Edge searches enumerate edge ids, whose order is the
lexicographic order of the edges, and report the witness as edge pairs.

The budget is checked per cardinality level before enumerating it:
a level whose subset count would push the total past the budget raises
instead of starting, which keeps the guard deterministic whether or not
the level is split across worker processes.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Callable

from bootperc.engine import (
    is_percolating_edges_line,
    is_percolating_edges_star,
    is_percolating_vertices,
)
from bootperc.errors import PreconditionError, ResourceLimitError
from bootperc.graphs import Graph

DEFAULT_ENGINE_CALL_BUDGET = 10_000_000
DEFAULT_VERTEX_CAP = 25
DEFAULT_EDGE_CAP = 20

_TESTS: dict[str, Callable] = {
    "vertex": is_percolating_vertices,
    "star": is_percolating_edges_star,
    "line": is_percolating_edges_line,
}


@dataclass(frozen=True)
class SearchResult:
    minimum: int
    witness: tuple
    engine_calls: int


def _chunk_worker(payload) -> tuple[tuple | None, int]:
    g, r, process, base, first, rest, need = payload
    test = _TESTS[process]
    calls = 0
    for combo in combinations(rest, need):
        calls += 1
        if test(g, r, base + (first,) + combo):
            return combo, calls
    return None, calls


def _search(
    g: Graph,
    r: int,
    process: str,
    universe: list,
    mandatory: list,
    max_engine_calls: int,
    jobs: int,
) -> SearchResult:
    test = _TESTS[process]
    base = tuple(sorted(mandatory))
    mandatory_set = set(mandatory)
    free = [x for x in universe if x not in mandatory_set]
    calls = 0
    planned = 0
    for extra in range(len(free) + 1):
        planned += comb(len(free), extra)
        if planned > max_engine_calls:
            raise ResourceLimitError(
                f"search would need more than {max_engine_calls} engine calls"
            )
        if jobs <= 1 or extra == 0:
            for combo in combinations(free, extra):
                calls += 1
                candidate = tuple(sorted(base + combo))
                if test(g, r, candidate):
                    return SearchResult(len(candidate), candidate, calls)
        else:
            payloads = [
                (g, r, process, base, free[i], free[i + 1 :], extra - 1)
                for i in range(len(free) - extra + 1)
            ]
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(_chunk_worker, payloads))
            found = None
            for (combo, chunk_calls), payload in zip(results, payloads):
                calls += chunk_calls
                if combo is not None and found is None:
                    found = tuple(sorted(base + (payload[4],) + combo))
            if found is not None:
                return SearchResult(len(found), found, calls)
    raise AssertionError("the full element set always percolates")


def _edge_search(
    g: Graph, r: int, process: str, mandatory: list[int], max_engine_calls: int, jobs: int
) -> SearchResult:
    """Search over edge ids, whose order is the edges' lexicographic order."""
    ids = _search(g, r, process, list(range(g.edge_count)), mandatory, max_engine_calls, jobs)
    witness = tuple((g.tails[e], g.heads[e]) for e in ids.witness)
    return SearchResult(ids.minimum, witness, ids.engine_calls)


def min_percolating_vertices(
    g: Graph,
    r: int,
    max_vertices: int = DEFAULT_VERTEX_CAP,
    max_engine_calls: int = DEFAULT_ENGINE_CALL_BUDGET,
    jobs: int = 1,
) -> SearchResult:
    """Exact minimum size of a percolating vertex seed, with a witness.

    Vertices of degree below r can never activate and are forced into
    every candidate.
    """
    if r < 0:
        raise PreconditionError("threshold r must be nonnegative")
    if g.vertex_count > max_vertices:
        raise ResourceLimitError(
            f"{g.vertex_count} vertices exceed the search cap {max_vertices}"
        )
    mandatory = [v for v in range(g.vertex_count) if g.degree(v) < r]
    return _search(
        g, r, "vertex", list(range(g.vertex_count)), mandatory, max_engine_calls, jobs
    )


def min_percolating_edges_star(
    g: Graph,
    r: int,
    max_edges: int = DEFAULT_EDGE_CAP,
    max_engine_calls: int = DEFAULT_ENGINE_CALL_BUDGET,
    jobs: int = 1,
) -> SearchResult:
    """Exact minimum size of a star-process edge seed, with a witness.

    An edge is forced into every candidate when neither endpoint can
    ever carry r other active edges (degree - 1 < r at both ends).
    """
    if r < 0:
        raise PreconditionError("threshold r must be nonnegative")
    if g.edge_count > max_edges:
        raise ResourceLimitError(f"{g.edge_count} edges exceed the search cap {max_edges}")
    mandatory = [
        e
        for e, (u, v) in enumerate(zip(g.tails, g.heads))
        if g.degree(u) - 1 < r and g.degree(v) - 1 < r
    ]
    return _edge_search(g, r, "star", mandatory, max_engine_calls, jobs)


def min_percolating_edges_line(
    g: Graph,
    r: int,
    max_edges: int = DEFAULT_EDGE_CAP,
    max_engine_calls: int = DEFAULT_ENGINE_CALL_BUDGET,
    jobs: int = 1,
) -> SearchResult:
    """Exact minimum size of a line-process edge seed, with a witness.

    An edge is forced into every candidate when even with everything
    else active its endpoints' incident counts stay below r.
    """
    if r < 0:
        raise PreconditionError("threshold r must be nonnegative")
    if g.edge_count > max_edges:
        raise ResourceLimitError(f"{g.edge_count} edges exceed the search cap {max_edges}")
    mandatory = [
        e
        for e, (u, v) in enumerate(zip(g.tails, g.heads))
        if (g.degree(u) - 1) + (g.degree(v) - 1) < r
    ]
    return _edge_search(g, r, "line", mandatory, max_engine_calls, jobs)
