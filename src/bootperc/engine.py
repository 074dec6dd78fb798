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

Each operation has one entry point that takes the process by name,
"vertex", "star" or "line" (``errors.PROCESSES``), after the graph and
the threshold: :func:`percolate` and :func:`is_percolating` on any
:class:`Graph`.  Any other name is a PreconditionError.  On K_n^d,
:func:`bootperc.packed.is_percolating_hamming` answers what
``is_percolating`` answers, with no graph.

Edge seeds hold (u, v) pairs, in either order.  Seeds are checked by
:mod:`bootperc.errors`; seed files are read and written by :mod:`bootperc.graphs`.

All three processes run on one CSR kernel over integer ids: a counter
per vertex and a frontier of newly active elements.  Applying a frontier
adds one to the counter of every vertex an element meets: the neighbors
of a vertex, the two endpoints of an edge.  A vertex whose counter
reaches r puts itself (vertex process) or its inactive edges (star
process) into the next frontier; for the line process every touched
endpoint tests its inactive edges against the sum of the two endpoint
counters.  Elements are marked active when they join a frontier, so
each joins at most once.  The vertex and star processes do O(|V| + sum
of degrees of the activated elements) work; the line process also
rescans the rows of the endpoints each round touched.

Sets of vertices or edge pairs are built only for the
:class:`ActivationTrace` of :func:`percolate`; ``is_percolating`` just
counts the activated elements.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from bootperc.errors import PROCESSES, check_process
from bootperc.errors import _edge_pair, _not_an_edge, _vertex_ids, check_threshold
from bootperc.graphs import Edge, Graph

_VERTEX, _STAR = PROCESSES[:2]


class ActivationTrace(NamedTuple):
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


def _edge_ids(g: Graph, r: int, seed: Iterable) -> list[int]:
    check_threshold(r)
    out = []
    for e in seed:
        u, v = _edge_pair(e)
        try:
            out.append(g.edge_id(u, v))
        except KeyError:
            raise _not_an_edge(u, v) from None
    return out


def _closure(
    g: Graph, r: int, process: str, seed: Iterable
) -> tuple[list[int], list[list[int]]]:
    """The kernel: (distinct seed ids, rounds of newly active ids) under ``process``.

    ``seed`` holds vertex ids, or edges as (u, v) pairs; the process
    is checked first, then the threshold and the seed.
    """
    check_process(process)
    offsets, targets = g.offsets, g.targets
    if process == _VERTEX:
        seed = _vertex_ids(g.vertex_count, r, seed)
        active = bytearray(g.vertex_count)
    else:
        seed = _edge_ids(g, r, seed)
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


def percolate(g: Graph, r: int, process: str, seed: Iterable) -> ActivationTrace:
    """Run ``process`` on ``g`` from ``seed`` to closure, round by round.

    Vertex rounds hold vertex ids; star and line rounds hold (u, v)
    edge pairs, u < v.
    """
    start, rounds = _closure(g, r, process, seed)
    if process != _VERTEX:
        tails, heads = g.tails, g.heads

        def pair(e: int) -> Edge:
            return (tails[e], heads[e])

        start, rounds = map(pair, start), [map(pair, rd) for rd in rounds]
    first = frozenset(start)
    sets = tuple(frozenset(rd) for rd in rounds)
    return ActivationTrace(first, sets, first.union(*sets))


def is_percolating(g: Graph, r: int, process: str, seed: Iterable) -> bool:
    """Whether ``process`` from ``seed`` activates every vertex, or every edge, of ``g``."""
    start, rounds = _closure(g, r, process, seed)
    size = g.vertex_count if process == _VERTEX else g.edge_count
    return len(start) + sum(map(len, rounds)) == size


# ---------------------------------------------------------------------------
# trace serialization

def _jsonable_set(s: frozenset) -> list:
    return [list(x) if isinstance(x, tuple) else x for x in sorted(s)]


def trace_to_jsonable(trace: ActivationTrace, percolated: bool) -> dict:
    """Trace as a JSON-ready dict: seed, rounds, final, percolated."""
    return {
        "seed": _jsonable_set(trace.seed),
        "rounds": [_jsonable_set(rd) for rd in trace.rounds],
        "final": _jsonable_set(trace.final),
        "percolated": percolated,
    }
