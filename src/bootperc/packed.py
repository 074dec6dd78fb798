"""Percolation on the Hamming graph K_n^d, with no graph.

``is_percolating_hamming`` gives what ``engine.is_percolating`` gives on
``make_hamming(space)``, for the process named "vertex", "star" or
"line" (see :mod:`bootperc.engine` for the rules), but builds no graph
and no sets: it only counts the activated elements.

The vertex and star processes run one packed closure: a byte-aligned
counter field per vertex, all in one int, updated a round at a time by
summing the frontier along each axis, with shifted copies or, on the
stride-1 axis while n is small, one multiplication (see :class:`_Packed`);
it stops once every vertex is active.  The star process is the vertex
closure on the saturated vertices.  One routine, :meth:`_Packed.tally`,
writes every int of counts from a list of vertices: the vertex seed, the
star's seed degrees (each seed edge tallied at both ends), its seed ends
and each round's corrections.  The line process, on K_n only, keeps
one bitmask row per vertex.  Both edge processes read the seed in one
pass into its one copy, a list of seed neighbours per vertex.  Their
rounds are the CSR kernel's, and :func:`check_packed` bounds their memory
and work per round up front.

Its seed checks are the CSR kernel's, both read from :mod:`bootperc.errors`,
so a malformed seed element gets the same message from either kernel.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain, compress
from typing import TYPE_CHECKING, Iterable, Iterator

from bootperc.errors import PROCESSES, PreconditionError, ResourceLimitError, check_process
from bootperc.errors import _edge_pair, _not_an_edge, _vertex_ids, check_threshold

if TYPE_CHECKING:
    from bootperc.hamming import HammingSpace

_VERTEX, _STAR, _LINE = PROCESSES


# Besides its d digit masks, a packed closure holds the count, the active
# set, the frontier and a round's partial sums: at most this many more
# ints (peak RSS past the interpreter's own, measured in ints: 14 to 18
# on [0,2)^20, [0,2)^22, [0,16)^5 and [0,1500)^2).
_SPARE_INTS = 18
PACKED_BIT_CAP = 1 << 31  # bits its ints hold at once: 256 MB
PACKED_WORK_CAP = 1 << 34  # bits its shifts, adds and masks touch in one round
# The stride-1 axis is summed by multiplying with the repunit of n fields
# while it spans at most this many bits; past it the shifted copies are
# faster (60,000 fields: level near 400 bits with one-byte fields, and
# the multiply slower at 465 bits with two-byte fields).
_REPUNIT_BITS = 256


def _field_bytes(degree: int) -> int:
    """Bytes per vertex field: a count up to ``degree`` and a spare top bit."""
    return ((degree + 1).bit_length() + 8) // 8


def check_packed(space: HammingSpace, process: str) -> None:
    """The packed closure's resource guard, for ``process`` on ``space``.

    Raises ResourceLimitError when the ints of the closure would hold more
    than ``PACKED_BIT_CAP`` bits at once, or one round would shift, add and
    mask more than ``PACKED_WORK_CAP`` bits.  It computes sizes only, so it
    refuses before a seed is enumerated.  The vertex and star processes
    keep d + 18 ints of n^d fields and run at most about 8 log2(n) big-int
    operations per axis and round: the shifted copies' count, an upper bound
    also where the stride-1 axis takes two products with a short repunit
    instead.  The line process keeps n rows and up to n degree masks of n
    bits, and reads each about three times per round.
    """
    check_process(process)
    where = f"packed {process} closure on [0,{space.n})^{space.d}"
    size = space.capped_size(PACKED_BIT_CAP)
    if size > PACKED_BIT_CAP:
        raise ResourceLimitError(
            f"{where} would hold more than {PACKED_BIT_CAP} bits: {space.n}^{space.d} vertices"
        )
    n, d = space.n, len(space.strides)  # n = 1 is K_1 whatever d is
    if process == _LINE and d != 1:
        raise PreconditionError("the packed line process runs on K_n, HammingSpace(n, 1)")
    if process == _LINE:
        bits, work = 2 * n * n, 6 * n * n
        layout = f"{n} rows and {n} degree masks of {n} bits"
    else:
        field = 8 * _field_bytes(d * (n - 1))
        bits = (d + _SPARE_INTS) * size * field
        work = (d * (8 * n.bit_length() + 2) + 12) * size * field
        layout = f"{d + _SPARE_INTS} ints of {size} fields of {field} bits"
    if bits > PACKED_BIT_CAP:
        raise ResourceLimitError(
            f"{where} would hold {bits} packed bits ({layout}; cap {PACKED_BIT_CAP})"
        )
    if work > PACKED_WORK_CAP:
        raise ResourceLimitError(
            f"{where} would touch {work} bits per round (cap {PACKED_WORK_CAP})"
        )


def _copies(x: int, step: int, count: int, up: bool) -> int:
    """Sum of x shifted up (or down) by c*step bits for c < count, in O(log count) steps.

    count is at least 1, and the sum starts from x itself: adding to 0 would copy it.
    """
    total = None
    shift = 0
    span = 1  # x is the sum of the first span copies
    while True:
        if count & span:
            if total is None:
                total = x  # the first term is unshifted: no copy
            else:
                total += x << shift if up else x >> shift
            shift += span * step
        if 2 * span > count:
            return total
        x += x << span * step if up else x >> span * step
        span *= 2


class _Packed:
    """The vertices of [0,n)^d as fields of one int: vertex x in bits x*w to x*w + w-1.

    Fields are whole bytes, w = 8*width bits: room for a count up to the
    degree D = d(n-1) and a spare top bit, so no sum of counts below 2^w
    carries into the next field.  An int whose fields are 0 or 1 is a set
    of vertices.
    """

    def __init__(self, space: HammingSpace) -> None:
        n, self.strides = space.n, space.strides
        self.n, self.d, self.size = n, len(self.strides), space.size
        self.degree = self.d * (n - 1)
        self.width = _field_bytes(self.degree)
        self.top = 8 * self.width - 1
        unit = b"\x01" + bytes(self.width - 1)
        self.one = self._repeat(unit, self.size)
        # the n fields of a line on the stride-1 axis, or 0 when too long to pay
        self.repunit = self._repeat(unit, n) if (n - 1) * 8 * self.width < _REPUNIT_BITS else 0
        # mask i: every bit of the fields whose digit i is 0.  Built from
        # repeated bytes in linear time: the same int as a long division,
        # which is quadratic in CPython.
        self.masks = [
            self._repeat(
                b"\xff" * (s * self.width) + bytes((n - 1) * s * self.width),
                self.size // (n * s),
            )
            for s in self.strides
        ]

    @staticmethod
    def _repeat(pattern: bytes, times: int) -> int:
        return int.from_bytes(pattern * times, "little")

    def tally(self, vertices: Iterable[int]) -> int:
        """The int whose field x holds how often x occurs in ``vertices``, carried up its bytes."""
        width = self.width
        buf = bytearray(self.size * width)
        for x in vertices:
            i = x * width
            while buf[i] == 255:
                buf[i] = 0
                i += 1
            buf[i] += 1
        return int.from_bytes(buf, "little")

    def ids(self, vertices: int) -> Iterator[int]:
        """The members of a vertex set: the vertices whose field's low byte is nonzero."""
        low = vertices.to_bytes(self.size * self.width, "little")[:: self.width]
        return compress(range(self.size), low)

    def line_sums(self, frontier: int) -> int:
        """Per field: the frontier's members on the vertex's d lines, the vertex itself d times.

        Along each axis the frontier is summed down the line into the
        field whose digit is 0, masked there, and copied back up the line.
        On the stride-1 axis, whose lines are n adjacent fields, a product
        with the repunit (a 1 in each of n fields) does each sum at once
        while the repunit is short: the product's field of digit n-1 holds
        the line's sum, which is shifted down to digit 0, masked, and times
        the repunit fills the line.  A frontier's fields are 0 or 1, so no
        sum carries out of its field.
        """
        total = None
        for s, mask in zip(self.strides, self.masks):
            step = 8 * self.width * s
            if s == 1 and self.repunit:
                line = ((frontier * self.repunit) >> (self.n - 1) * step & mask) * self.repunit
            else:
                down = _copies(frontier, step, self.n, up=False) & mask
                line = _copies(down, step, self.n, up=True)
            total = line if total is None else total + line
        return total

    def rounds(
        self, r: int, count: int, active: int, frontier: int, correct=None
    ) -> Iterator[int]:
        """Each round's newly active vertices, packed, until none activates or none is left.

        A vertex activates once its count reaches r.  ``count`` holds the
        counts before ``frontier`` is applied; applying a frontier adds to
        every vertex its neighbors in it, less ``correct(frontier)`` when
        given.  With r > D no count reaches r.
        """
        if r > self.degree:
            return
        # a field's top bit: count >= r; shifted down to the field's bit 0,
        # where ``inactive`` drops the next field's low bits shifted in
        count += self.one * ((1 << self.top) - r)
        inactive = self.one ^ active
        d = self.d
        while inactive:
            if frontier:
                count += self.line_sums(frontier) - d * frontier
                if correct is not None and (fix := correct(frontier)):
                    count -= fix
            new = count >> self.top & inactive
            if not new:
                return
            inactive ^= new
            yield new
            frontier = new


def _seed_neighbours(space: HammingSpace, r: int, seed: Iterable) -> dict[int, list[int]]:
    """The seed's distinct edges, listed at both ends, from one checked pass over ``seed``.

    A pair is an edge iff both ends are vertices of ``space`` that differ
    in exactly one coordinate.  The test is inline, and the only one on
    :class:`HammingSpace`: a method call per seed edge cost about a third
    of the pass.
    """
    check_threshold(r)
    n, strides = space.n, space.strides
    size = n * strides[0]
    others: defaultdict[int, list[int]] = defaultdict(list)
    for e in seed:
        u, v = _edge_pair(e)
        if not (0 <= u < size and 0 <= v < size):
            raise _not_an_edge(u, v)
        for s in strides:  # an edge: every coordinate after the first that differs agrees
            if u // s % n != v // s % n:
                if u % s != v % s:
                    raise _not_an_edge(u, v)
                break
        else:
            raise _not_an_edge(u, v)  # u = v
        others[u].append(v)
        others[v].append(u)
    for x, ys in others.items():
        if len(ys) > len(distinct := set(ys)):
            others[x] = list(distinct)
    return others


def _star_rounds(p: _Packed, r: int, others: dict[int, list[int]]) -> Iterator[int]:
    """Each round's newly saturated vertices of the star process, packed.

    A vertex is saturated once all its edges are active, and the active
    edges are the seed and the edges at saturated vertices.  An unsaturated
    vertex x has |N(x) & S| + #{seed edges xy, y not in S} active edges and
    saturates, in the next round, once they number r.  So this is the
    vertex closure on S, with each count biased by the seed degree, less
    one for each seed edge whose other end saturates.
    """
    ends = p.tally(others)

    def correct(frontier: int) -> int:
        hits = frontier & ends
        return hits and p.tally(x for y in p.ids(hits) for x in others[y])

    degrees = p.tally(chain.from_iterable(others.values()))  # each seed edge at both ends
    return p.rounds(r, degrees, 0, 0, correct)


def _line_rounds(n: int, r: int, others: dict[int, list[int]]) -> Iterator[list[tuple[int, int]]]:
    """Each round of the line process on K_n, as (u, bits of u's new neighbors) pairs.

    missing[u] holds the bits v of u's inactive edges uv, and degree[u]
    counts its active ones.  An inactive edge uv activates once
    degree[u] + degree[v] >= r: u's new neighbors are the missing ones
    with at least r - degree[u] active edges, read off one mask per
    degree.  Vertices with no missing edge drop out of the loop and the
    masks: no vertex misses an edge to them.
    """
    missing = [((1 << n) - 1) ^ (1 << u) for u in range(n)]
    for u, vs in others.items():
        missing[u] ^= sum(1 << v for v in vs)
    degree = [n - 1 - row.bit_count() for row in missing]
    live = [u for u in range(n) if missing[u]]
    while live:
        # at_least[k]: the live vertices with k or more active edges
        top = max(degree[u] for u in live) + 1
        at_least = [0] * (top + 1)
        for u in live:
            at_least[degree[u]] |= 1 << u
        for k in range(top - 1, -1, -1):
            at_least[k] |= at_least[k + 1]
        # reach[k]: the vertices a vertex with k active edges may newly meet
        reach = [at_least[max(r - k, 0)] if r - k <= top else 0 for k in range(top)]
        new = [(u, fresh) for u in live if (fresh := reach[degree[u]] & missing[u])]
        if not new:
            return
        for u, fresh in new:
            missing[u] ^= fresh
            degree[u] += fresh.bit_count()
        live = [u for u in live if missing[u]]
        yield new


def _packed_closure(space: HammingSpace, r: int, process: str, seed: Iterable):
    """(geometry, distinct seed, rounds) after the guard and the seed checks.

    The distinct seed is a vertex set or :func:`_seed_neighbours`.  Vertex
    and star rounds are packed vertex sets: the newly active, or newly
    saturated, vertices.  Line rounds are lists of (u, bits of u's new
    neighbors).  Round i matches the CSR kernel's round i: the same
    vertices or edges or, for the star process, the vertices that first
    carry r active edges after its round i-1 (the seed, for i = 1), whose
    inactive edges its round i activates.  The star rounds may end with
    one more round of such vertices, that had no inactive edge left.
    """
    check_packed(space, process)
    p = _Packed(space)
    if process == _VERTEX:
        start = set(_vertex_ids(p.size, r, seed))
        first = p.tally(start)
        return p, start, p.rounds(r, 0, first, first)
    others = _seed_neighbours(space, r, seed)
    if process == _LINE:
        return p, others, _line_rounds(p.n, r, others)
    return p, others, _star_rounds(p, r, others)


def is_percolating_hamming(space: HammingSpace, r: int, process: str, seed: Iterable) -> bool:
    """Whether ``process`` activates every element of the Hamming graph of ``space``.

    Gives what :func:`bootperc.engine.is_percolating` gives on ``make_hamming(space)``;
    the line process runs on K_n only, which is ``HammingSpace(n, 1)``.
    Edge seeds are (u, v) pairs.  Builds no graph and no sets, and raises
    ResourceLimitError as :func:`check_packed` does.
    """
    p, start, rounds = _packed_closure(space, r, process, seed)
    if process == _VERTEX:
        return len(start) + sum(new.bit_count() for new in rounds) == p.size
    seeded = sum(map(len, start.values()))  # twice the seed edges: listed at both ends
    if process == _LINE:  # each new edge uv is a bit of u's and of v's
        return seeded + sum(f.bit_count() for new in rounds for _, f in new) == p.n * (p.n - 1)
    if r > p.degree:  # nothing saturates: only a seed of every edge percolates
        return seeded == p.size * p.degree
    # an unsaturated vertex with every edge active would saturate next round
    return sum(new.bit_count() for new in rounds) == p.size
