"""Percolation processes.

Three monotone activation processes, all reported as synchronous
rounds: round i holds exactly the elements that become active at step i
given everything active after step i-1.

* vertex process: an inactive vertex activates once at least r of its
  neighbors are active.
* star process on edges: an inactive edge uv activates once one of its
  endpoints is incident to at least r active edges (the candidate edge
  itself is inactive at test time and never counted).
* line process on edges: an inactive edge uv activates once the active
  edges incident to u or v (again excluding uv) number at least r in
  total; this is exactly the vertex process on the line graph.

With r = 0 every element qualifies immediately, so round 1 activates
everything not already in the seed, even from an empty seed.

Edge seeds may hold (u, v) pairs, in either order, or edge ids
(positions in ``g.edge_list()``).

Internally all three processes run on one kernel over integer ids: a
counter per vertex and a frontier of newly active elements.  Applying
a frontier adds one to the counter of every vertex an element meets:
the neighbors of a vertex, the two endpoints of an edge.  A vertex
whose counter reaches r puts itself (vertex process) or its inactive
edges (star process) into the next frontier; for the line process every
touched endpoint tests its inactive edges against the sum of the two
endpoint counters.  Elements are marked active when they join a
frontier, so each joins at most once.  The vertex and star processes do
O(|V| + sum of degrees of the activated elements) work; the line process
also rescans the rows of the endpoints each round touched.  Sets of
vertices or edge pairs are built only for an :class:`ActivationTrace`;
``is_percolating_*`` just count the activated elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from bootperc.errors import FormatError, PreconditionError
from bootperc.graphs import Edge, Graph, normalize_edge

_VERTEX, _STAR, _LINE = "vertex", "star", "line"


@dataclass(frozen=True)
class ActivationTrace:
    """Full record of one percolation run.

    ``rounds[i]`` is the set of elements newly activated at step i+1;
    rounds are nonempty, pairwise disjoint and disjoint from the seed.
    ``final`` is the closure: seed plus every round.
    """

    seed: frozenset
    rounds: tuple[frozenset, ...]
    final: frozenset

    @property
    def round_count(self) -> int:
        return len(self.rounds)


def _check_r(r: int) -> None:
    if r < 0:
        raise PreconditionError("threshold r must be nonnegative")


def _vertex_ids(g: Graph, r: int, seed: Iterable[int]) -> list[int]:
    _check_r(r)
    out = list(seed)
    if out and (min(out) < 0 or max(out) >= g.vertex_count):
        bad = next(v for v in out if not 0 <= v < g.vertex_count)
        raise PreconditionError(f"seed vertex {bad} not in graph")
    return out


def _edge_ids(g: Graph, r: int, seed: Iterable) -> list[int]:
    _check_r(r)
    m = g.edge_count
    out = []
    for e in seed:
        if isinstance(e, int):
            if not 0 <= e < m:
                raise PreconditionError(f"seed edge id {e} not in graph")
            out.append(e)
        else:
            try:
                out.append(g.edge_id(*e))
            except KeyError:
                raise PreconditionError(f"seed edge {normalize_edge(*e)} not in graph") from None
    return out


def _closure(
    g: Graph, r: int, process: str, seed: list[int]
) -> tuple[list[int], list[list[int]]]:
    """The kernel: (distinct seed ids, rounds of newly active ids) under ``process``."""
    offsets, targets = g.offsets, g.targets
    if process == _VERTEX:
        active = bytearray(g.vertex_count)
    else:
        tails, heads, slot_edges = g.tails, g.heads, g.slot_edges
        active = bytearray(g.edge_count)
    start = []
    for x in seed:
        if not active[x]:
            active[x] = 1
            start.append(x)
    if r == 0:
        rest = [x for x in range(len(active)) if not active[x]]
        return start, [rest] if rest else []
    counts = [0] * g.vertex_count
    rounds: list[list[int]] = []
    frontier = start  # applied first without being a round
    while frontier:
        nxt = []
        if process == _VERTEX:
            for v in frontier:
                for w in targets[offsets[v] : offsets[v + 1]]:
                    counts[w] += 1
                    if counts[w] == r and not active[w]:
                        active[w] = 1
                        nxt.append(w)
        elif process == _STAR:
            for e in frontier:
                for x in (tails[e], heads[e]):
                    counts[x] += 1
                    if counts[x] == r:
                        # x just reached r: every inactive edge at x is captured
                        for f in slot_edges[offsets[x] : offsets[x + 1]]:
                            if not active[f]:
                                active[f] = 1
                                nxt.append(f)
        else:
            touched = set()
            for e in frontier:
                for x in (tails[e], heads[e]):
                    counts[x] += 1
                    touched.add(x)
            # only edges at a touched endpoint can newly meet the rule
            for x in touched:
                need = r - counts[x]
                lo, hi = offsets[x], offsets[x + 1]
                for w, f in zip(targets[lo:hi], slot_edges[lo:hi]):
                    if not active[f] and counts[w] >= need:
                        active[f] = 1
                        nxt.append(f)
        if nxt:
            rounds.append(nxt)
        frontier = nxt
    return start, rounds


def _activated(g: Graph, r: int, process: str, seed: list[int]) -> int:
    start, rounds = _closure(g, r, process, seed)
    return len(start) + sum(map(len, rounds))


def _trace(start: Iterable, rounds: list[Iterable]) -> ActivationTrace:
    seed = frozenset(start)
    sets = tuple(frozenset(rd) for rd in rounds)
    return ActivationTrace(seed, sets, seed.union(*sets))


def _edge_trace(g: Graph, start: list[int], rounds: list[list[int]]) -> ActivationTrace:
    tails, heads = g.tails, g.heads

    def pair(e: int) -> Edge:
        return (tails[e], heads[e])

    return _trace(map(pair, start), [map(pair, rd) for rd in rounds])


def percolate_vertices(g: Graph, r: int, seed: Iterable[int]) -> ActivationTrace:
    """Run the r-neighbor vertex process from ``seed`` to closure."""
    return _trace(*_closure(g, r, _VERTEX, _vertex_ids(g, r, seed)))


def is_percolating_vertices(g: Graph, r: int, seed: Iterable[int]) -> bool:
    return _activated(g, r, _VERTEX, _vertex_ids(g, r, seed)) == g.vertex_count


def percolate_edges_star(g: Graph, r: int, seed: Iterable) -> ActivationTrace:
    """Run the star edge process from ``seed`` to closure.

    Activation rule: edge uv joins round i once, after round i-1, some
    endpoint carries at least r active edges.  Equivalently uv completes
    a star with r+1 edges whose other r edges are already active.
    """
    return _edge_trace(g, *_closure(g, r, _STAR, _edge_ids(g, r, seed)))


def is_percolating_edges_star(g: Graph, r: int, seed: Iterable) -> bool:
    return _activated(g, r, _STAR, _edge_ids(g, r, seed)) == g.edge_count


def percolate_edges_linegraph(g: Graph, r: int, seed: Iterable) -> ActivationTrace:
    """Run the line-graph edge process from ``seed`` to closure.

    Activation rule: edge uv joins round i once the active edges meeting
    u plus the active edges meeting v (uv itself excluded) number at
    least r after round i-1.  Matches the vertex process on the line
    graph round for round.
    """
    return _edge_trace(g, *_closure(g, r, _LINE, _edge_ids(g, r, seed)))


def is_percolating_edges_line(g: Graph, r: int, seed: Iterable) -> bool:
    return _activated(g, r, _LINE, _edge_ids(g, r, seed)) == g.edge_count


# ---------------------------------------------------------------------------
# seed files and trace serialization

def seed_to_text(vertices: Iterable[int] = (), edges: Iterable[tuple[int, int]] = ()) -> str:
    """Serialize a seed: one "v <i>" or "e <u> <v>" line per element, sorted."""
    lines = [f"v {v}" for v in sorted(set(vertices))]
    lines += [f"e {u} {v}" for u, v in sorted({normalize_edge(u, v) for u, v in edges})]
    return "\n".join(lines) + ("\n" if lines else "")


def seed_from_text(text: str) -> tuple[frozenset[int], frozenset[Edge]]:
    """Parse a seed file into (vertex set, edge set)."""
    vertices: set[int] = set()
    edges: set[Edge] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if (parts[0], len(parts)) not in (("v", 2), ("e", 3)):
            raise FormatError(f"line {lineno}: expected 'v <i>' or 'e <u> <v>'")
        try:
            numbers = [int(x) for x in parts[1:]]
        except ValueError:
            raise FormatError(f"line {lineno}: expected integers in {line!r}") from None
        if parts[0] == "v":
            vertices.add(numbers[0])
        else:
            edges.add(normalize_edge(*numbers))
    return frozenset(vertices), frozenset(edges)


def _jsonable_element(x) -> object:
    return list(x) if isinstance(x, tuple) else x


def _jsonable_set(s: frozenset) -> list:
    return [_jsonable_element(x) for x in sorted(s)]


def trace_to_jsonable(trace: ActivationTrace, percolated: bool) -> dict:
    """Trace as a JSON-ready dict: seed, rounds, final, percolated."""
    return {
        "seed": _jsonable_set(trace.seed),
        "rounds": [_jsonable_set(rd) for rd in trace.rounds],
        "final": _jsonable_set(trace.final),
        "percolated": percolated,
    }
