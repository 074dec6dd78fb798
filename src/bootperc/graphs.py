"""Graph families used throughout the package.

Everything here is a finite, undirected, simple graph with vertices
indexed 0..n-1.  Graphs are immutable after construction and safe to
share between threads or worker processes.

Vertex indexing of Cartesian products is row-major with the FIRST
factor major: the product vertex (g, h) gets index g*|V(H)| + h.  A
Hamming graph on alphabet size n and dimension d consequently encodes
the point (x_1, ..., x_d) as x_1*n^(d-1) + ... + x_d, i.e. x_1 is the
most significant coordinate.

A graph is stored once, as compressed sparse rows (CSR) of 32-bit
integers: the neighbors of v are ``targets[offsets[v]:offsets[v+1]]``,
sorted.  Edges have integer ids in lexicographic order of their
(min, max) pairs: edge e joins ``tails[e] < heads[e]``, and
``slot_edges[k]`` is the id of the edge behind adjacency slot k, so
each row of slot_edges is sorted too.  Every builder checks the size of
the rows, vertex_count + 2*edge_count slots, against one cap before it
allocates anything.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from functools import cached_property
from itertools import accumulate, product, repeat
from operator import add
from typing import Iterable

from bootperc.errors import FormatError, PreconditionError, ResourceLimitError

Edge = tuple[int, int]

# Rows take 4 bytes per slot and derived edge ids 8 more; deriving them
# peaks near 16 bytes per slot (Hamming(12,5): 13.9M slots, 225 MB), so
# about 320 MB at the cap.  The cap also keeps every offset, vertex and
# edge id inside the 32-bit typecode.
DEFAULT_SLOT_CAP = 20_000_000
_INT = "i"


def normalize_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def _check_slots(what: str, vertices: int, edges: int, cap: int = DEFAULT_SLOT_CAP) -> None:
    """The resource guard of every builder: vertices + 2*edges CSR slots at most ``cap``."""
    slots = vertices + 2 * edges
    if slots > cap:
        raise ResourceLimitError(
            f"{what} would need {slots} CSR slots "
            f"({vertices} vertices + 2*{edges} edges; cap {cap})"
        )


def _offsets(degrees: Iterable[int]) -> array:
    # array() fills from a list in one pass, from an iterator item by item
    return array(_INT, list(accumulate(degrees, initial=0)))


def _read_only(self, name: str, *_) -> None:
    raise AttributeError(f"{type(self).__name__} is read-only: cannot set or delete {name!r}")


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
        if vertex_count < 0:
            raise PreconditionError("vertex_count must be nonnegative")
        _check_slots("graph", vertex_count, 0)
        keys: set[int] = set()  # u*vertex_count + v with u < v: sorts lexicographically
        for u, v in edges:
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
        targets = array(_INT, bytes(offsets.itemsize * offsets[-1]))
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
        slots = array(_INT, bytes(targets.itemsize * len(targets)))
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


class HammingSpace:
    """Codec between flat vertex indices and points of [0,n)^d; read-only and hashable."""

    n: int
    d: int

    def __init__(self, n: int, d: int) -> None:
        if n < 1 or d < 1:
            raise PreconditionError("HammingSpace needs n >= 1 and d >= 1")
        vars(self).update(n=n, d=d)

    __setattr__ = __delattr__ = _read_only

    def __repr__(self) -> str:
        return f"HammingSpace(n={self.n}, d={self.d})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.d) == (other.n, other.d)

    def __hash__(self) -> int:
        return hash((self.n, self.d))

    @property
    def size(self) -> int:
        return self.n**self.d

    def encode(self, point: tuple[int, ...]) -> int:
        if len(point) != self.d:
            raise PreconditionError(f"point has {len(point)} coordinates, expected {self.d}")
        index = 0
        for x in point:
            if not 0 <= x < self.n:
                raise PreconditionError(f"coordinate {x} out of range [0,{self.n})")
            index = index * self.n + x
        return index

    def decode(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.size:
            raise PreconditionError(f"index {index} out of range [0,{self.size})")
        coords = [0] * self.d
        for i in range(self.d - 1, -1, -1):
            index, coords[i] = divmod(index, self.n)
        return tuple(coords)


def make_complete(n: int) -> Graph:
    """Complete graph on vertices 0..n-1."""
    if n < 1:
        raise PreconditionError("complete graph needs n >= 1")
    _check_slots("complete graph", n, n * (n - 1) // 2)
    vertices = list(range(n))
    targets = array(_INT)
    for v in range(n):
        targets.fromlist(vertices[:v])
        targets.fromlist(vertices[v + 1 :])
    return Graph(n, _offsets(repeat(n - 1, n)), targets)


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product with (g_i, h_j) indexed as g_i * |V(h)| + h_j.

    Two product vertices are adjacent iff they agree in one factor and
    are adjacent in the other.
    """
    if g.vertex_count == 0 or h.vertex_count == 0:
        raise PreconditionError("cartesian_product needs nonempty factors")
    m = h.vertex_count
    _check_slots(
        "Cartesian product",
        g.vertex_count * m,
        g.edge_count * m + h.edge_count * g.vertex_count,
    )
    h_rows = [h.targets[h.offsets[j] : h.offsets[j + 1]] for j in range(m)]
    targets = array(_INT)
    for i in range(g.vertex_count):
        # row (i, j): (i', j) for i' < i, then (i, j') for j' ~ j, then (i', j) for i' > i
        g_row = [w * m for w in g.targets[g.offsets[i] : g.offsets[i + 1]]]
        split = bisect_left(g_row, i * m)
        below, above = g_row[:split], g_row[split:]
        for j, h_row in enumerate(h_rows):
            targets.extend(map(add, below, repeat(j)))
            targets.extend(map(add, h_row, repeat(i * m)))
            targets.extend(map(add, above, repeat(j)))
    degrees = (g.degree(i) + h.degree(j) for i in range(g.vertex_count) for j in range(m))
    return Graph(g.vertex_count * m, _offsets(degrees), targets)


def make_hamming(space: HammingSpace, slot_cap: int = DEFAULT_SLOT_CAP) -> Graph:
    """Hamming graph on [0,n)^d: vertices adjacent iff they differ in one coordinate.

    Writes the rows directly from the codec's strides rather than via
    iterated products, so the two constructions can be cross-checked:
    coordinate i has stride s_i = n^(d-1-i), and row x lists the smaller
    neighbors coordinate by coordinate, most significant first, then the
    larger ones, least significant first.  Every run is a slice with
    step s_i of the vertex list, so the rows come out sorted.

    Raises ResourceLimitError, before allocating, when the graph needs
    more than ``slot_cap`` CSR slots.
    """
    n, d = space.n, space.d
    if n == 1:
        d = 1  # a single vertex whatever the dimension
    size = 1
    for _ in range(d):
        size *= n
        _check_slots("Hamming graph", size, 0, slot_cap)  # before n**d can grow huge
    degree = d * (n - 1)
    _check_slots("Hamming graph", size, size * degree // 2, slot_cap)
    strides = [n ** (d - 1 - i) for i in range(d)]
    vertices = list(range(size))
    targets = array(_INT)
    for x, point in enumerate(product(range(n), repeat=d)):
        for s, p in zip(strides, point):
            targets.fromlist(vertices[x - p * s : x : s])
        for s, p in zip(reversed(strides), reversed(point)):
            targets.fromlist(vertices[x + s : x + (n - p) * s : s])
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


def graph_to_text(g: Graph) -> str:
    """Serialize as "p <n> <m>" followed by "e <u> <v>" lines, u < v, sorted."""
    lines = [f"p {g.vertex_count} {g.edge_count}"]
    for u, v in zip(g.tails, g.heads):
        lines.append(f"e {u} {v}")
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> Graph:
    """Parse the format written by :func:`graph_to_text`.

    The size the p line declares passes the slot guard before any edge
    is stored.
    """
    header: tuple[int, int] | None = None
    edges: list[Edge] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if header is not None:
                raise FormatError(f"line {lineno}: duplicate p line")
            if len(parts) != 3:
                raise FormatError(f"line {lineno}: expected 'p <vertices> <edges>'")
            header = _int_pair(parts, lineno)
            if min(header) < 0:
                raise FormatError(f"line {lineno}: negative count in p line")
            _check_slots("graph file", *header)
        elif parts[0] == "e":
            if header is None:
                raise FormatError(f"line {lineno}: e line before p line")
            if len(parts) != 3:
                raise FormatError(f"line {lineno}: expected 'e <u> <v>'")
            edges.append(_int_pair(parts, lineno))
        else:
            raise FormatError(f"line {lineno}: unknown record {parts[0]!r}")
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


def _int_pair(parts: list[str], lineno: int) -> tuple[int, int]:
    try:
        return int(parts[1]), int(parts[2])
    except ValueError:
        raise FormatError(f"line {lineno}: expected integers in {' '.join(parts)!r}") from None
