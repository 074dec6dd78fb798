"""The three percolation engines as they were before the shared kernel.

Test-only reference: tuple-keyed edge state and one copy of the round
loop per process, kept unchanged so that the CSR kernel in
``bootperc.engine`` can be required to match them round for round.
Only the graph accessors changed: the edge set and the neighbor tuples
these loops read are built here from ``edge_list()`` and the CSR rows,
since ``Graph`` no longer keeps them.
"""

from __future__ import annotations

from typing import Iterable

from bootperc.engine import ActivationTrace
from bootperc.errors import PreconditionError
from bootperc.graphs import Edge, Graph, normalize_edge

_INACTIVE, _SCHEDULED, _ACTIVE = 0, 1, 2


def _edges(g: Graph) -> frozenset[Edge]:
    return frozenset(g.edge_list())


def _adjacency(g: Graph) -> list[tuple[int, ...]]:
    """Sorted neighbor tuple per vertex."""
    offsets, targets = g.offsets, g.targets
    return [tuple(targets[offsets[v] : offsets[v + 1]]) for v in range(g.vertex_count)]


def _check_r(r: int) -> None:
    if r < 0:
        raise PreconditionError("threshold r must be nonnegative")


def _check_vertex_seed(g: Graph, seed: Iterable[int]) -> frozenset[int]:
    out = frozenset(seed)
    for v in out:
        if not 0 <= v < g.vertex_count:
            raise PreconditionError(f"seed vertex {v} not in graph")
    return out


def _check_edge_seed(g: Graph, seed: Iterable[tuple[int, int]]) -> frozenset[Edge]:
    out = frozenset(normalize_edge(u, v) for u, v in seed)
    edges = _edges(g)
    for e in out:
        if e not in edges:
            raise PreconditionError(f"seed edge {e} not in graph")
    return out


def percolate_vertices(g: Graph, r: int, seed: Iterable[int]) -> ActivationTrace:
    """Run the r-neighbor vertex process from ``seed`` to closure."""
    _check_r(r)
    adjacency = _adjacency(g)
    seed_set = _check_vertex_seed(g, seed)
    active = bytearray(g.vertex_count)
    for v in seed_set:
        active[v] = 1
    counts = [0] * g.vertex_count
    for v in seed_set:
        for w in adjacency[v]:
            counts[w] += 1
    if r == 0:
        frontier = [v for v in range(g.vertex_count) if not active[v]]
    else:
        frontier = [
            v for v in range(g.vertex_count) if not active[v] and counts[v] >= r
        ]
    rounds: list[frozenset] = []
    while frontier:
        rounds.append(frozenset(frontier))
        for v in frontier:
            active[v] = 1
        next_frontier: list[int] = []
        for v in frontier:
            for w in adjacency[v]:
                counts[w] += 1
                # counts[w] passes r exactly once, so w is queued exactly once
                if counts[w] == r and not active[w]:
                    next_frontier.append(w)
        frontier = next_frontier
    final = seed_set.union(*rounds) if rounds else seed_set
    return ActivationTrace(seed_set, tuple(rounds), final)


def percolate_edges_star(g: Graph, r: int, seed: Iterable[tuple[int, int]]) -> ActivationTrace:
    """Run the star edge process from ``seed`` to closure.

    Activation rule: edge uv joins round i once, after round i-1, some
    endpoint carries at least r active edges.  Equivalently uv completes
    a star with r+1 edges whose other r edges are already active.
    """
    _check_r(r)
    adjacency = _adjacency(g)
    seed_set = _check_edge_seed(g, seed)
    state = {e: _INACTIVE for e in _edges(g)}
    vcount = [0] * g.vertex_count
    for u, v in seed_set:
        state[(u, v)] = _ACTIVE
        vcount[u] += 1
        vcount[v] += 1
    frontier: list[Edge] = []
    for e in g.edge_list():
        u, v = e
        if state[e] == _INACTIVE and (r == 0 or vcount[u] >= r or vcount[v] >= r):
            state[e] = _SCHEDULED
            frontier.append(e)
    rounds: list[frozenset] = []
    while frontier:
        rounds.append(frozenset(frontier))
        for e in frontier:
            state[e] = _ACTIVE
        next_frontier: list[Edge] = []
        for u, v in frontier:
            for x in (u, v):
                vcount[x] += 1
                if vcount[x] == r:
                    # x just reached the threshold: everything inactive at x
                    # becomes activatable, and stays captured from here on
                    for w in adjacency[x]:
                        e2 = normalize_edge(x, w)
                        if state[e2] == _INACTIVE:
                            state[e2] = _SCHEDULED
                            next_frontier.append(e2)
        frontier = next_frontier
    final = seed_set.union(*rounds) if rounds else seed_set
    return ActivationTrace(seed_set, tuple(rounds), final)


def percolate_edges_linegraph(
    g: Graph, r: int, seed: Iterable[tuple[int, int]]
) -> ActivationTrace:
    """Run the line-graph edge process from ``seed`` to closure.

    Activation rule: edge uv joins round i once the active edges meeting
    u plus the active edges meeting v (uv itself excluded) number at
    least r after round i-1.  Matches the vertex process on the line
    graph round for round.
    """
    _check_r(r)
    adjacency = _adjacency(g)
    seed_set = _check_edge_seed(g, seed)
    state = {e: _INACTIVE for e in _edges(g)}
    vcount = [0] * g.vertex_count
    for u, v in seed_set:
        state[(u, v)] = _ACTIVE
        vcount[u] += 1
        vcount[v] += 1
    frontier: list[Edge] = []
    for e in g.edge_list():
        u, v = e
        if state[e] == _INACTIVE and vcount[u] + vcount[v] >= r:
            state[e] = _SCHEDULED
            frontier.append(e)
    rounds: list[frozenset] = []
    while frontier:
        rounds.append(frozenset(frontier))
        touched: set[int] = set()
        for e in frontier:
            state[e] = _ACTIVE
        for u, v in frontier:
            vcount[u] += 1
            vcount[v] += 1
            touched.add(u)
            touched.add(v)
        next_frontier: list[Edge] = []
        # only edges at a touched endpoint can have newly met the rule
        for x in sorted(touched):
            for w in adjacency[x]:
                e2 = normalize_edge(x, w)
                if state[e2] == _INACTIVE and vcount[x] + vcount[w] >= r:
                    state[e2] = _SCHEDULED
                    next_frontier.append(e2)
        frontier = next_frontier
    final = seed_set.union(*rounds) if rounds else seed_set
    return ActivationTrace(seed_set, tuple(rounds), final)
