"""Exhaustive ground truth for minimum percolating seeds on tiny graphs.

:func:`min_percolating` takes the process by name, "vertex", "star" or
"line", as every entry point of :mod:`bootperc.engine` does, and refuses
a graph with more vertices or edges than its cap: by default
DEFAULT_VERTEX_CAP for the vertex process and DEFAULT_EDGE_CAP for the
edge processes.

Each search ascends through seed cardinalities and, within a
cardinality, decides candidate sets in lexicographic order, so the
returned witness is the lexicographically least percolating set of the
least size.  Edge searches run over edge ids, whose order is the
lexicographic order of the edges, and report the witness as edge pairs.

Sets of elements are Python ints, bit i standing for vertex or edge id
i.  Each process is a list of rules (count ids, gain ids), read off the
CSR rows; a rule fires on an active set A when at least r of its count
ids are in A, and then adds its gain ids to A:

* vertex process: (N(v), {v}) for every vertex v;
* star process: (I(x), I(x)) for every vertex x, where I(x) holds the
  ids of the edges at x;
* line process: (I(u) | I(v), {e}) for every edge e = uv.

The closure of a set is the least fixpoint of the rules containing it;
a set percolates when its closure holds every element.  A least
fixpoint does not depend on the order in which rules fire, so it
equals the final set of ``engine.percolate``.  :func:`_fixpoint` finds
it for many sets at once, bit-sliced as in Biham's software DES: each
element gets an int whose bit c, lane c, says whether it is active in
the c-th set.  A rule fires in the lanes where at least r of its count
elements are set, found by a carry chain, and ORs them into its gain
elements; only the rules on its wake list, whose count holds a gain
element, can then newly fire, so only they are marked to run again.
Sweeps repeat until no rule is marked.  :func:`_close` is the one-lane
case, starting from the rules that read a newly active element.  With
r = 0 every rule fires and every closure is full.

An element that no rule can add, even when every other element is
active, belongs to every percolating set; these forced elements start
every candidate, which is what makes instances like the 16-vertex
Hamming graph feasible.  With all but x active, a rule (C, G) adds x
when x is in G and |C| > r, or x is in G but not in C and |C| = r.

Within a cardinality the candidates are walked depth first:

* prefix reuse: a node of the walk carries the closure of the forced
  elements plus the chosen prefix; a child adds one element to it and
  propagates only that element.  An element already in the closure
  leaves it unchanged.
* subtree bound: closures are monotone, so when the closure of the
  node's set plus every element still selectable is not full, no
  candidate below the node percolates, and all of them are decided at
  once without being visited.  The sets bounding a node's children
  shrink from each child to the next, so the first child whose bound
  fails decides every later sibling as well.
* lane-sliced leaves: once the candidates a node has left, the
  k-subsets of the free positions j..n-1 for the k elements still to
  choose, number at most ``_LANES``, one :func:`_fixpoint` decides them
  all, lane c being the c-th in lexicographic order.  An element's int
  is all ones in the node's closure and, for a free position y, the
  lanes of the candidates holding y (the lane tables of :func:`_lanes`).
  The AND of the closed ints holds the lanes that percolate: the lowest,
  c, is the witness and c + 1 the count of candidates decided; with
  none, all of them are decided.

``engine_calls`` keeps the meaning it had when every candidate was
handed to the engine: the number of candidates decided, in lexicographic
order, up to and including the witness.  The walk is a generator of
items in that order, each a count of candidates it decided itself (a
subtree cut by the bound, a last pick that leaves the closure short, or
a node whose closure is already full: the witness) or a lane leaf still
to decide.  With ``jobs = 1`` each leaf is decided where the walk
reaches it.  With ``jobs > 1`` the leaves are farmed out, in order, to
one process pool per search, whose workers get the rules once, when
they start; the walk goes on while they work, at most ``_WINDOW``
leaves ahead of the one read next.  The results are read in walk order
and the count stops at the first witness, so both paths sum the same
items, and the witness and ``engine_calls`` do not depend on ``jobs``.
The leaves still pending then are cancelled.

The pool is started only at the first level with more candidates than
``_POOL_FROM``, the number in ``_WINDOW`` full lane leaves, and then
serves every later level.  The levels below it are decided in
this process at any ``jobs``: their leaves take milliseconds, less than
importing the pool and forking its workers.

The budget is checked per cardinality level before enumerating it:
a level whose subset count would push the total past the budget raises
instead of starting, which keeps the guard deterministic whether or not
the level's leaves run in worker processes.
"""

from __future__ import annotations

import os
from collections import deque
from collections.abc import Iterator
from itertools import accumulate, combinations, islice
from operator import and_, or_
from math import comb
from typing import NamedTuple

from bootperc.errors import PreconditionError, ResourceLimitError, check_process, check_threshold
from bootperc.graphs import Graph

DEFAULT_ENGINE_CALL_BUDGET = 10_000_000
DEFAULT_VERTEX_CAP = 25
DEFAULT_EDGE_CAP = 20

# Subtrees of at most this many candidates are decided by one bit-sliced
# closure (:func:`_leaf`), one lane per candidate.
_LANES = 1 << 15

# With a pool, the walk runs at most this many lane leaves ahead of the
# one whose result is read next.
_WINDOW = 8

# A search starts its pool at the first level with more candidates than
# this; the levels before it run in this process.
_POOL_FROM = _WINDOW * _LANES

# (readers, r, full, sliced, tables): sliced lists every rule as (count
# ids, gain ids, wake), wake the other rules whose count holds a gain id;
# readers[i] the rules whose count holds element i; full the mask of every
# element; tables the lane tables :func:`_lanes` has built in this search
_Rules = tuple[
    list[list[int]],
    int,
    int,
    list[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]],
    list[list[int]],
]


class SearchResult(NamedTuple):
    """A least percolating seed and the work it took to find it.

    ``witness`` is the lexicographically least percolating seed of size
    ``minimum``.  ``engine_calls`` counts the candidate seeds decided in
    lexicographic order up to and including the witness, whatever
    ``jobs`` is.
    """

    minimum: int
    witness: tuple
    engine_calls: int


def _mask(ids) -> int:
    out = 0
    for i in ids:
        out |= 1 << i
    return out


def _rules(g: Graph, r: int, process: str) -> _Rules:
    """The process's rules for :func:`_fixpoint`, each with its wake list,
    and the rules that read each element."""
    offsets = g.offsets
    if process == "vertex":
        targets = g.targets
        size = g.vertex_count
        ids = [(tuple(targets[offsets[v] : offsets[v + 1]]), (v,)) for v in range(size)]
    else:
        slot_edges = g.slot_edges
        rows = [tuple(slot_edges[offsets[x] : offsets[x + 1]]) for x in range(g.vertex_count)]
        size = g.edge_count
        if process == "star":
            ids = [(row, row) for row in rows]
        else:
            ids = [
                (rows[u] + tuple(f for f in rows[v] if f != e), (e,))
                for e, (u, v) in enumerate(zip(g.tails, g.heads))
            ]
    readers: list[list[int]] = [[] for _ in range(size)]
    for k, (count, _) in enumerate(ids):
        for x in count:
            readers[x].append(k)
    # a rule fires only where its count is met, so its own gain never
    # widens the lanes it fires in
    sliced = [
        (count, gain, tuple(sorted({j for x in gain for j in readers[x]} - {k})))
        for k, (count, gain) in enumerate(ids)
    ]
    return readers, r, (1 << size) - 1, sliced, []


def _forced(rules: _Rules) -> int:
    """The elements no rule can add, even with every other element active."""
    _, r, full, sliced, _ = rules
    reachable = 0
    for count, gain, _ in sliced:
        slack = len(count) - r
        if slack >= 0:
            reachable |= _mask(x for x in gain if slack or x not in count)
    return full & ~reachable


def _fixpoint(rules: _Rules, value: list[int], ones: int, dirty: bytearray) -> None:
    """Grow ``value``, bit c of ``value[x]`` saying whether x is active in
    lane c of ``ones``, to the least fixpoint in every lane; a rule not
    marked in ``dirty`` must add nothing in any lane."""
    r, sliced = rules[1], rules[3]
    while any(dirty):
        for k, (counted, gain, wake) in enumerate(sliced):
            if not dirty[k]:
                continue
            dirty[k] = 0
            for x in gain:
                if value[x] != ones:
                    break
            else:
                continue  # every gain element is active in every lane
            # fired: the lanes where at least r counted elements are active
            counts = [value[x] for x in counted]
            short = r - counts.count(ones)
            if short <= 0:
                fired = ones
            else:
                live = [v for v in counts if v and v != ones]
                spare = len(live) - short
                if spare < 0:
                    continue
                # carry chain: row[k] holds the lanes where more than j of
                # live[:j + k + 1] are active; a lane that can no longer
                # reach r is not followed
                row = list(accumulate(live[: spare + 1], or_))
                for j in range(1, short):
                    row = list(accumulate(map(and_, row, live[j : j + spare + 1]), or_))
                fired = row[-1]
                if not fired:
                    continue
            grew = False
            for x in gain:
                v = value[x]
                after = v | fired
                if after != v:
                    value[x] = after
                    grew = True
            if grew:
                for w in wake:
                    dirty[w] = 1


def _close(rules: _Rules, active: int, fresh: int) -> int:
    """The closure of ``active``, given that ``active & ~fresh`` is closed."""
    readers, r, full, sliced, _ = rules
    if not r:
        return full
    value = [active >> x & 1 for x in range(full.bit_length())]
    dirty = bytearray(len(sliced))
    while fresh:
        low = fresh & -fresh
        fresh ^= low
        for k in readers[low.bit_length() - 1]:
            dirty[k] = 1
    _fixpoint(rules, value, 1, dirty)
    return sum(v << x for x, v in enumerate(value))


def _bound(rules: _Rules, suffix: list[int], state: int, j: int) -> bool:
    """Whether the closed set ``state`` plus every element from j on closes to full."""
    rest = suffix[j]
    return _close(rules, state | rest, rest & ~state) == rules[2]


def _lanes(tables: list[list[int]], n: int, m: int, t: int) -> list[int]:
    """The lane table T(m, t), for m <= n and C(m, t) <= _LANES: bit c of
    entry y is set when y is in the c-th t-subset of range(m), in
    lexicographic order.

    The subsets holding 0 come first, then those without it, so
    T(m, t) = [ones(C(m-1, t-1))] + [a | b << C(m-1, t-1) for a, b in
    zip(T(m-1, t-1), T(m-1, t))], where T(t-1, t) has no lanes.  The
    subsets that avoid positions 0..k-1 are the last C(m-k, t) lanes, so
    T(m-k, t) is T(m, t) without its first k entries and shifted right
    by C(m, t) - C(m-k, t).  ``tables[t]`` keeps T(M, t) for the largest
    M <= n with C(M, t) <= _LANES, and every other T(m, t) is cut from it.
    """
    while len(tables) <= t:
        s = len(tables)
        if not s:
            tables.append([0] * n)  # T(n, 0): one lane, the empty set
            continue
        top = [0] * (s - 1)
        for k in range(s, n + 1):
            if comb(k, s) > _LANES:
                break
            split = comb(k - 1, s - 1)
            low = _lanes(tables, n, k - 1, s - 1)
            top = [(1 << split) - 1] + [a | b << split for a, b in zip(low, top)]
        tables.append(top)
    top = tables[t]
    shift = comb(len(top), t) - comb(m, t)
    return [x >> shift for x in top[len(top) - m :]]


def _leaf(
    rules: _Rules, bits: list[int], state: int, i: int, need: int, prefix: tuple[int, ...]
) -> tuple[tuple[int, ...] | None, int]:
    """The first of ``combinations(range(i, len(bits)), need)`` whose bits
    close to full together with ``state``, after ``prefix``, and the
    number of combinations decided up to and including it (all of them,
    if none does), by one closure of every candidate at once: element x
    gets an int whose bit c says whether x is active in candidate c."""
    _, _, full, sliced, tables = rules
    m = len(bits) - i
    count = comb(m, need)
    ones = (1 << count) - 1
    value = [ones if state >> x & 1 else 0 for x in range(full.bit_length())]
    for bit, lanes in zip(bits[i:], _lanes(tables, len(bits), m, need)):
        if not state & bit:
            value[bit.bit_length() - 1] = lanes
    _fixpoint(rules, value, ones, bytearray([1]) * len(sliced))
    hit = ones
    for v in value:
        hit &= v
    if not hit:
        return None, count
    c = (hit & -hit).bit_length() - 1
    return prefix + next(islice(combinations(range(i, len(bits)), need), c, None)), c + 1


def _walk(
    rules: _Rules,
    bits: list[int],
    suffix: list[int],
    state: int,
    i: int,
    need: int,
    prefix: tuple[int, ...] = (),
) -> Iterator[tuple]:
    """What decides ``combinations(range(i, len(bits)), need)`` in order:
    each item is either a pair (witness or None, count) for candidates
    decided here, or a lane leaf (state, j, need, prefix) for
    :func:`_leaf`.  A witness is a tuple of positions, ``prefix`` first.

    ``state`` is closed and not full, 1 <= need <= len(bits) - i, and
    ``_bound(rules, suffix, state, i)`` holds: callers have checked it,
    or i = 0, where ``state | suffix[0]`` is every element.  The items
    after a witness are of no use, and consumers stop there.
    """
    n = len(bits)
    for j in range(i, n - need + 1):
        if j > i and not _bound(rules, suffix, state, j):
            # the bounds shrink with j: no later candidate percolates either
            yield None, comb(n - j, need)
            return
        if comb(n - j, need) <= _LANES:
            # the candidates left are the need-subsets of j..n-1: decide them at once
            yield state, j, need, prefix
            return
        # the candidates that pick j, then need - 1 more after it
        bit = bits[j]
        child = state if state & bit else _close(rules, state | bit, bit)
        if child == rules[2]:
            yield prefix + tuple(range(j, j + need)), 1
        elif need == 1:
            yield None, 1
        else:
            yield from _walk(rules, bits, suffix, child, j + 1, need - 1, (*prefix, j))


# (rules, bits) of the search a pool worker serves, set by _serve
_served: tuple[_Rules, list[int]] | None = None


def _serve(rules: _Rules, bits: list[int]) -> None:
    global _served
    _served = rules, bits


def _served_leaf(
    state: int, j: int, need: int, prefix: tuple[int, ...]
) -> tuple[tuple[int, ...] | None, int]:
    return _leaf(*_served, state, j, need, prefix)


def _decided(
    rules: _Rules, bits: list[int], walk: Iterator[tuple], pool
) -> Iterator[tuple[tuple[int, ...] | None, int]]:
    """The items of ``walk`` as (witness or None, count), in order.

    Without a pool each leaf is decided here.  With one, the leaves are
    submitted as the walk reaches them, and the oldest is read once
    ``_WINDOW`` of them are pending, so the walk runs ahead of the
    workers by at most that many leaves.
    """
    window: deque = deque()  # decided pairs and futures of pending leaves, in walk order
    pending = 0
    for item in walk:
        if len(item) == 4:
            if pool is None:
                item = _leaf(rules, bits, *item)
            else:
                item = pool.submit(_served_leaf, *item)
                pending += 1
        window.append(item)
        while window and (type(window[0]) is tuple or pending == _WINDOW):
            head = window.popleft()
            if type(head) is not tuple:
                head = head.result()
                pending -= 1
            yield head
    for head in window:
        yield head if type(head) is tuple else head.result()


def min_percolating(
    g: Graph,
    r: int,
    process: str,
    cap: int | None = None,
    max_engine_calls: int | None = None,
    jobs: int = 1,
) -> SearchResult:
    """Exact minimum size of a percolating seed under ``process``, with a witness.

    ``cap`` bounds the vertices (vertex process) or edges (star and line)
    searched over; None takes DEFAULT_VERTEX_CAP or DEFAULT_EDGE_CAP.
    ``max_engine_calls`` is the budget checked per level; None takes
    DEFAULT_ENGINE_CALL_BUDGET.  A negative ``cap`` or budget is a
    PreconditionError; 0 is a real bound.
    """
    check_process(process)
    check_threshold(r)
    if jobs < 1:
        raise PreconditionError("jobs must be at least 1")
    for name, budget in (("cap", cap), ("max_engine_calls", max_engine_calls)):
        if budget is not None and budget < 0:
            raise PreconditionError(f"{name} must be at least 0")
    if process == "vertex":
        size, kind = g.vertex_count, "vertices"
    else:
        size, kind = g.edge_count, "edges"
    if cap is None:
        cap = DEFAULT_VERTEX_CAP if process == "vertex" else DEFAULT_EDGE_CAP
    if max_engine_calls is None:
        max_engine_calls = DEFAULT_ENGINE_CALL_BUDGET
    if size > cap:
        raise ResourceLimitError(f"{size} {kind} exceed the search cap {cap}")
    rules = _rules(g, r, process)
    full = rules[2]
    forced = _forced(rules)
    free = [x for x in range(size) if not forced >> x & 1]
    bits = [1 << x for x in free]
    suffix = [0] * (len(free) + 1)
    for j in range(len(free) - 1, -1, -1):
        suffix[j] = suffix[j + 1] | bits[j]
    start = _close(rules, forced, forced)
    calls = 0
    planned = 0
    pool = None
    try:
        for extra in range(len(free) + 1):
            level = comb(len(free), extra)
            planned += level
            if planned > max_engine_calls:
                raise ResourceLimitError(
                    f"search would need more than {max_engine_calls} engine calls"
                )
            if extra == 0:
                found = () if start == full else None
                calls += 1
            else:
                if jobs > 1 and pool is None and level > _POOL_FROM:
                    # only a level big enough to keep the workers busy pays for the import
                    from concurrent.futures import ProcessPoolExecutor

                    pool = ProcessPoolExecutor(
                        min(jobs, os.cpu_count() or 1), initializer=_serve, initargs=(rules, bits)
                    )
                walk = _walk(rules, bits, suffix, start, 0, extra)
                for found, count in _decided(rules, bits, walk, pool):
                    calls += count
                    if found is not None:
                        break
            if found is not None:
                seed = forced | _mask(free[j] for j in found)
                witness = tuple(x for x in range(size) if seed >> x & 1)
                if process != "vertex":
                    witness = tuple((g.tails[e], g.heads[e]) for e in witness)
                return SearchResult(len(witness), witness, calls)
    finally:
        if pool is not None:
            # the leaves not yet started are of no use; the workers exit normally
            pool.shutdown(cancel_futures=True)
    raise AssertionError("the full element set always percolates")
