"""The iterated Cartesian product and the iterated coloring lift, kept for the tests.

``bootperc.graphs.make_hamming`` writes K_n^d from the strides and
``bootperc.polymethod`` reads the lifted coloring of K_n^d off them in
closed form.  This module builds both the way the paper states them: d-1
Cartesian products with K_n, the product vertex (g, h) at index
g*|V(H)| + h, and a coloring lifted once per product with n fresh primes
larger than every prime factor already in use.  The tests require equal
graphs and equal colorings, and check the paper's lift inequality on
the lifts built here.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from fractions import Fraction
from itertools import repeat
from operator import add

from bootperc.errors import PreconditionError
from bootperc.graphs import Edge, Graph, _check_slots, _INT, _offsets, make_complete
from bootperc.polymethod import (
    _is_prime,
    is_proper_coloring,
    product_coloring_on,
    recognized_space_report,
)


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


def primes_above(floor: int, k: int) -> list[int]:
    """The first k primes strictly greater than ``floor``."""
    out: list[int] = []
    candidate = max(floor, 1) + 1
    while len(out) < k:
        if _is_prime(candidate):
            out.append(candidate)
        candidate += 1
    return out


def max_prime_factor(value: Fraction | int) -> int:
    frac = Fraction(value)
    best = 1
    for m in (abs(frac.numerator), frac.denominator):
        d = 2
        while d * d <= m:
            while m % d == 0:
                best = max(best, d)
                m //= d
            d += 1
        if m > 1:
            best = max(best, m)
    return best


Coloring = list[Fraction | int]  # colors[e] colors edge e


def product_coloring(n: int) -> Coloring:
    """Prime product coloring of the complete graph on n vertices."""
    if n < 2:
        raise PreconditionError("product coloring needs n >= 2")
    return product_coloring_on(make_complete(n))


def lift_coloring(g: Graph, coloring: Coloring, n: int) -> Coloring:
    """Extend a proper coloring of g to the Cartesian product with K_n.

    Copy edges keep their color; the edge between fibers j and k over a
    base vertex i gets gamma_j*gamma_k from n fresh primes, all larger
    than every prime factor occurring in the image of the input
    coloring.  Vertex (i, j) of the product has index i*n + j.
    """
    if n < 1:
        raise PreconditionError("lift needs n >= 1")
    if not is_proper_coloring(g, coloring):
        raise PreconditionError("input coloring is not proper")
    base = dict(zip(g.edge_list(), coloring))
    limit = 1
    for value in base.values():
        limit = max(limit, max_prime_factor(value))
    gammas = primes_above(limit, n)
    colors: dict[Edge, Fraction | int] = {}
    for a, b in zip(g.tails, g.heads):
        for j in range(n):
            colors[(a * n + j, b * n + j)] = base[(a, b)]
    for i in range(g.vertex_count):
        for j in range(n):
            for k in range(j + 1, n):
                colors[(i * n + j, i * n + k)] = gammas[j] * gammas[k]
    product = cartesian_product(g, make_complete(n))
    lifted = [colors[e] for e in product.edge_list()]
    if not is_proper_coloring(product, lifted):
        raise AssertionError("lifted coloring failed the properness check")
    return lifted


def iterated_lift(n: int, d: int) -> tuple[Graph, Coloring]:
    """K_n^d as d-1 products with K_n, with the prime coloring of K_n lifted along them."""
    g, coloring = make_complete(n), product_coloring(n)
    for _ in range(d - 1):
        coloring = lift_coloring(g, coloring, n)
        g = cartesian_product(g, make_complete(n))
    return g, coloring


def recognized_space_dim(g: Graph, coloring: Coloring, r: int) -> int:
    return recognized_space_report(g, coloring, r).dim
