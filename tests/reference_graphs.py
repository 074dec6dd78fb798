"""make_hamming as it was before the strided block copies.

Test-only reference: one pass per vertex over the list of all vertex
ids, two slices per coordinate, appended row by row.  Kept unchanged so
that ``bootperc.graphs.make_hamming`` can be required to return equal
graphs.
"""

from __future__ import annotations

from array import array
from itertools import product, repeat

from bootperc.graphs import Graph, _check_slots, _offsets
from bootperc.hamming import HammingSpace

_INT = "i"


def make_hamming(space: HammingSpace) -> Graph:
    """Hamming graph on [0,n)^d: vertices adjacent iff they differ in one coordinate.

    Coordinate i has stride s_i = n^(d-1-i), and row x lists the smaller
    neighbors coordinate by coordinate, most significant first, then the
    larger ones, least significant first.  Every run is a slice with
    step s_i of the vertex list, so the rows come out sorted.
    """
    n, d = space.n, space.d
    if n == 1:
        d = 1  # a single vertex whatever the dimension
    size = 1
    for _ in range(d):
        size *= n
        _check_slots("Hamming graph", size, 0)  # before n**d can grow huge
    degree = d * (n - 1)
    _check_slots("Hamming graph", size, size * degree // 2)
    strides = [n ** (d - 1 - i) for i in range(d)]
    vertices = list(range(size))
    targets = array(_INT)
    for x, point in enumerate(product(range(n), repeat=d)):
        for s, p in zip(strides, point):
            targets.fromlist(vertices[x - p * s : x : s])
        for s, p in zip(reversed(strides), reversed(point)):
            targets.fromlist(vertices[x + s : x + (n - p) * s : s])
    return Graph(size, _offsets(repeat(degree, size)), targets)
