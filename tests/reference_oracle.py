"""The exhaustive oracle as it was before the bitmask search: every
candidate in lexicographic order through ``engine.is_percolating``.

Test-only reference: ``tests/test_reference_oracle.py`` requires the
bitmask oracle to return the same (minimum, witness, engine_calls) as
this enumeration, at ``jobs=1`` and ``jobs=2``.  The code below is the
old ``bootperc.oracle`` unchanged, apart from this docstring, the
``_TESTS`` table, which now calls the engine's one entry point, and the
edge searches, which walk (u, v) pairs, the engine's one edge seed form.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Callable

from bootperc.engine import is_percolating
from bootperc.errors import PreconditionError, ResourceLimitError
from bootperc.graphs import Graph

DEFAULT_ENGINE_CALL_BUDGET = 10_000_000
DEFAULT_VERTEX_CAP = 25
DEFAULT_EDGE_CAP = 20

_TESTS: dict[str, Callable] = {
    process: lambda g, r, seed, process=process: is_percolating(g, r, process, seed)
    for process in ("vertex", "star", "line")
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
    g: Graph, r: int, process: str, mandatory: list, max_engine_calls: int, jobs: int
) -> SearchResult:
    """Search over (u, v) pairs in ``edge_list()`` order, which is their sorted order."""
    return _search(g, r, process, g.edge_list(), mandatory, max_engine_calls, jobs)


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
        (u, v)
        for u, v in zip(g.tails, g.heads)
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
        (u, v)
        for u, v in zip(g.tails, g.heads)
        if (g.degree(u) - 1) + (g.degree(v) - 1) < r
    ]
    return _edge_search(g, r, "line", mandatory, max_engine_calls, jobs)
