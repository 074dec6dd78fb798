"""Graph families used throughout the package.

Everything here is a finite, undirected, simple graph with vertices
indexed 0..n-1.  Graphs are immutable after construction and safe to
share between threads or worker processes.

The Hamming graph K_n^d is built on the codec and strides of
:class:`~bootperc.hamming.HammingSpace`; the complete graph K_n is the
Hamming graph of [0,n)^1.

A graph is stored once, as compressed sparse rows (CSR) of 32-bit
integers: the neighbors of v are ``targets[offsets[v]:offsets[v+1]]``,
sorted.  Edges have integer ids in lexicographic order of their
(min, max) pairs: edge e joins ``tails[e] < heads[e]``, and
``slot_edges[k]`` is the id of the edge behind adjacency slot k, so
each row of slot_edges is sorted too.  Every builder checks the size of
the rows, vertex_count + 2*edge_count slots, against one cap,
``errors.DEFAULT_SLOT_CAP``, before it allocates anything.

Hamming rows are not built vertex by vertex.  Where coordinate i's
neighbors sit in a row depends only on the coordinates before i, so
make_hamming fills, for each such prefix and each digit c, the matching
slot of every row under the prefix with one strided slice assignment
from the run of vertices whose coordinate i is c.

Graph files ("p" and "e" lines) and seed files ("v" and "e" lines) are
read here through one line reader, and seed files are written here.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from functools import cached_property
from itertools import accumulate, repeat
from typing import Iterable, Iterator

from bootperc.errors import (
    DEFAULT_SLOT_CAP,
    FormatError,
    PreconditionError,
    ResourceLimitError,
    check_int,
)
from bootperc.hamming import HammingSpace, _read_only

Edge = tuple[int, int]
_INT = "i"  # 32 bits: the slot cap keeps every offset, vertex and edge id inside it


def normalize_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def _check_slots(what: str, vertices: int, edges: int) -> None:
    """The resource guard of every builder: vertices + 2*edges CSR slots, at most the cap."""
    slots = vertices + 2 * edges
    if slots > DEFAULT_SLOT_CAP:
        raise ResourceLimitError(
            f"{what} would need {slots} CSR slots "
            f"({vertices} vertices + 2*{edges} edges; cap {DEFAULT_SLOT_CAP})"
        )


def _offsets(degrees: Iterable[int]) -> array:
    # array() fills from a list in one pass, from an iterator item by item
    return array(_INT, list(accumulate(degrees, initial=0)))


class Graph:
    """Immutable undirected simple graph in CSR form (see the module docstring).

    Build instances through :meth:`from_edges` or the family builders
    below.  The edge ids (``tails``, ``heads``, ``slot_edges``) are
    derived from the rows the first time they are asked for, which the
    vertex process never does.  ``edge_list()`` is the one view of the
    edges as pairs; ``has_edge``, ``edge_id`` and ``degree`` read the
    rows.  Two graphs are equal when their vertex counts and rows are;
    graphs are not hashable.
    """

    vertex_count: int
    offsets: array
    targets: array

    def __init__(self, vertex_count: int, offsets: array, targets: array) -> None:
        vars(self).update(vertex_count=vertex_count, offsets=offsets, targets=targets)

    __setattr__ = __delattr__ = _read_only

    def __repr__(self) -> str:
        return f"Graph(vertex_count={self.vertex_count})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.vertex_count, self.offsets, self.targets) == (
            other.vertex_count,
            other.offsets,
            other.targets,
        )

    @classmethod
    def from_edges(cls, vertex_count: int, edges: Iterable[tuple[int, int]]) -> Graph:
        check_int("vertex_count", vertex_count)
        if vertex_count < 0:
            raise PreconditionError("vertex_count must be nonnegative")
        _check_slots("graph", vertex_count, 0)
        keys: set[int] = set()  # u*vertex_count + v with u < v: sorts lexicographically
        for u, v in edges:
            if not (isinstance(u, int) and isinstance(v, int)):
                raise PreconditionError(f"edge ({u!r},{v!r}) is not a pair of ints")
            if u == v:
                raise PreconditionError(f"self-loop at vertex {u}")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise PreconditionError(
                    f"edge ({u},{v}) out of range for {vertex_count} vertices"
                )
            keys.add(u * vertex_count + v if u < v else v * vertex_count + u)
        _check_slots("graph", vertex_count, len(keys))
        pairs = [divmod(k, vertex_count) for k in sorted(keys)]
        degree = [0] * vertex_count
        for u, v in pairs:
            degree[u] += 1
            degree[v] += 1
        offsets = _offsets(degree)
        cursor = offsets[:-1]
        targets = array(_INT, [0]) * offsets[-1]
        # in lexicographic order a row receives its smaller neighbors
        # first, ascending, then its larger ones: rows come out sorted
        for u, v in pairs:
            targets[cursor[u]] = v
            cursor[u] += 1
            targets[cursor[v]] = u
            cursor[v] += 1
        return cls(vertex_count, offsets, targets)

    @property
    def edge_count(self) -> int:
        return len(self.targets) // 2

    @cached_property
    def _ids(self) -> tuple[array, array, array]:
        """(tails, heads, slot_edges), derived from the rows.

        Ids run along each row's larger neighbors, so those slots hold
        consecutive ids.  Handing out the slots to smaller neighbors in
        id order gives each row's ids ascending by tail, which is the
        row's order.
        """
        offsets, targets = self.offsets, self.targets
        tails, heads = array(_INT), array(_INT)
        splits = []  # first slot of each row holding a larger neighbor
        for x in range(self.vertex_count):
            end = offsets[x + 1]
            k = bisect_right(targets, x, offsets[x], end)
            splits.append(k)
            heads += targets[k:end]
            tails += array(_INT, [x]) * (end - k)
        ids = array(_INT, range(len(heads)))
        slots = array(_INT, [0]) * len(targets)
        first = 0
        for k, end in zip(splits, offsets[1:]):
            slots[k:end] = ids[first : first + end - k]
            first += end - k
        cursor = offsets.tolist()
        for e, v in enumerate(heads):
            slots[cursor[v]] = e
            cursor[v] += 1
        return tails, heads, slots

    @property
    def tails(self) -> array:
        """Smaller endpoint of each edge id."""
        return self._ids[0]

    @property
    def heads(self) -> array:
        """Larger endpoint of each edge id."""
        return self._ids[1]

    @property
    def slot_edges(self) -> array:
        """Edge id behind each adjacency slot."""
        return self._ids[2]

    def edge_list(self) -> list[Edge]:
        """Edges sorted lexicographically, i.e. by edge id; the canonical iteration order."""
        return list(zip(self.tails, self.heads))

    def degree(self, v: int) -> int:
        return self.offsets[v + 1] - self.offsets[v]

    def _slot(self, u: int, v: int) -> int:
        """Position of v in u's row, or -1 when uv is not an edge."""
        if not 0 <= u < self.vertex_count:
            return -1
        end = self.offsets[u + 1]
        k = bisect_left(self.targets, v, self.offsets[u], end)
        return k if k < end and self.targets[k] == v else -1

    def has_edge(self, u: int, v: int) -> bool:
        return self._slot(u, v) >= 0

    def edge_id(self, u: int, v: int) -> int:
        """Id of edge uv, its index in :meth:`edge_list`; KeyError if absent."""
        k = self._slot(u, v)
        if k < 0:
            raise KeyError(normalize_edge(u, v))
        return self.slot_edges[k]


def make_complete(n: int) -> Graph:
    """Complete graph on vertices 0..n-1: the Hamming graph of [0,n)^1."""
    if n < 1:
        raise PreconditionError("complete graph needs n >= 1")
    _check_slots("complete graph", n, n * (n - 1) // 2)
    return make_hamming(HammingSpace(n, 1))


def make_hamming(space: HammingSpace) -> Graph:
    """Hamming graph on [0,n)^d: vertices adjacent iff they differ in one coordinate.

    Writes the rows directly from the codec's strides; the tests require
    the graph equal to the iterated Cartesian product of K_n.
    Row x = (p_0, ..., p_{d-1}) lists the smaller neighbors coordinate by
    coordinate, most significant first, then the larger ones, least
    significant first, so the rows come out sorted.  The slots of
    coordinate i depend only on the prefix p_0..p_{i-1}: with t its digit
    sum, the neighbor with digit c sits at slot t + c when c < p_i and at
    t + (d-1-i)(n-1) + c - 1 when c > p_i.  So for each prefix and digit c
    the vertices under the prefix with digit c, one run of s_i = n^(d-1-i)
    consecutive ids, are copied with one strided slice assignment into
    that slot of every row that sees them: about two copies per vertex.

    Raises ResourceLimitError, before allocating, when the graph needs
    more than ``DEFAULT_SLOT_CAP`` CSR slots.
    """
    size = space.capped_size(DEFAULT_SLOT_CAP)
    _check_slots("Hamming graph", size, 0)  # before strides as large as n^d are formed
    n, strides = space.n, space.strides
    d = len(strides)
    degree = d * (n - 1)
    _check_slots("Hamming graph", size, size * degree // 2)
    ids = array(_INT, range(size))
    targets = array(_INT, [0]) * (size * degree)
    sums = [0]  # digit sums of the length-i prefixes, in index order
    for i, s in enumerate(strides):
        larger = (d - 1 - i) * (n - 1) - 1
        for prefix, t in enumerate(sums):
            first = prefix * n * s  # the first vertex under the prefix
            end = (first + n * s) * degree
            for c in range(n):
                run = ids[first + c * s : first + (c + 1) * s]
                if c < n - 1:  # rows whose digit i is above c: a smaller neighbor
                    lo = (first + (c + 1) * s) * degree + t + c
                    targets[lo:end:degree] = run * (n - 1 - c)
                if c:  # rows whose digit i is below c: a larger neighbor
                    lo = first * degree + t + larger + c
                    targets[lo : (first + c * s) * degree : degree] = run * c
        sums = [t + c for t in sums for c in range(n)]
    return Graph(size, _offsets(repeat(degree, size)), targets)


def make_line_graph(g: Graph) -> Graph:
    """Line graph of g.

    Vertex i of the result is edge i of g, ``(g.tails[i], g.heads[i])``,
    so the vertices follow the edges' lexicographic order and
    ``g.edge_id(u, v)`` maps back; two are adjacent iff the underlying
    edges share an endpoint.
    """
    degrees = [g.degree(v) for v in range(g.vertex_count)]
    _check_slots("line graph", g.edge_count, sum(k * (k - 1) // 2 for k in degrees))
    offsets, slot_edges = g.offsets, g.slot_edges
    targets = array(_INT)
    for e, (u, v) in enumerate(zip(g.tails, g.heads)):
        # the rows of edge ids at u and at v are sorted and share only e
        at_u = slot_edges[offsets[u] : offsets[u + 1]]
        row = sorted(at_u + slot_edges[offsets[v] : offsets[v + 1]])
        k = bisect_left(row, e)
        del row[k : k + 2]
        targets.fromlist(row)
    line_degrees = (degrees[u] + degrees[v] - 2 for u, v in zip(g.tails, g.heads))
    return Graph(g.edge_count, _offsets(line_degrees), targets)


def _records(text: str, fields: dict[str, int]) -> Iterator[tuple[int, str, list[int] | None]]:
    """(line number, tag, integer fields) of each line not blank or a "#" comment.

    The fields are None unless ``fields``, read at each line, gives the tag and their number.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tag, *rest = line.split()
        try:
            numbers = [int(x) for x in rest] if len(rest) == fields.get(tag) else None
        except ValueError:
            raise FormatError(f"line {lineno}: expected integers in {line!r}") from None
        yield lineno, tag, numbers


def graph_from_text(text: str) -> Graph:
    """Parse "p <vertices> <edges>", then one "e <u> <v>" line per edge, in any order.

    Blank and "#" lines are skipped.  The size the p line declares
    passes the slot guard before any edge is stored.
    """
    header: list[int] | None = None
    edges: list[list[int]] = []
    fields = {"p": 2}
    for lineno, tag, numbers in _records(text, fields):
        if tag == "p":
            if header is not None:
                raise FormatError(f"line {lineno}: duplicate p line")
            if numbers is None:
                raise FormatError(f"line {lineno}: expected 'p <vertices> <edges>'")
            header = numbers
            fields["e"] = fields.pop("p")  # e lines may follow; a second p line is a duplicate
            if min(header) < 0:
                raise FormatError(f"line {lineno}: negative count in p line")
            _check_slots("graph file", *header)
        elif tag == "e":
            if header is None:
                raise FormatError(f"line {lineno}: e line before p line")
            if numbers is None:
                raise FormatError(f"line {lineno}: expected 'e <u> <v>'")
            edges.append(numbers)
        else:
            raise FormatError(f"line {lineno}: unknown record {tag!r}")
    if header is None:
        raise FormatError("missing p line")
    try:
        g = Graph.from_edges(header[0], edges)
    except PreconditionError as exc:
        raise FormatError(str(exc)) from exc
    if g.edge_count != header[1]:
        raise FormatError(
            f"p line declares {header[1]} edges but file defines {g.edge_count}"
        )
    return g


def seed_to_text(vertices: Iterable[int] = (), edges: Iterable[tuple[int, int]] = ()) -> str:
    """Serialize a seed: one "v <i>" or "e <u> <v>" line per element, sorted."""
    lines = [f"v {v}" for v in sorted(set(vertices))]
    lines += [f"e {u} {v}" for u, v in sorted({normalize_edge(u, v) for u, v in edges})]
    return "\n".join(lines) + ("\n" if lines else "")


def seed_from_text(text: str) -> tuple[frozenset[int], frozenset[Edge]]:
    """Parse a seed file into (vertex set, edge set); blank and "#" lines are skipped."""
    vertices: set[int] = set()
    edges: set[Edge] = set()
    for lineno, tag, numbers in _records(text, {"v": 1, "e": 2}):
        if numbers is None:
            raise FormatError(f"line {lineno}: expected 'v <i>' or 'e <u> <v>'")
        if tag == "v":
            vertices.add(numbers[0])
        else:
            edges.add(normalize_edge(*numbers))
    return frozenset(vertices), frozenset(edges)
