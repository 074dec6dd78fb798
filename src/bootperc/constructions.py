"""Explicit percolating seeds on Hamming graphs and complete graphs.

Vertex seeds are returned as flat index sets on the corresponding
Hamming graph (row-major codec, first coordinate most significant);
regions are returned as point sets in [0,n)^d.  The corner sets reflect
a region to the 2^(d-1) corners with t_1 = t_2 on the ids themselves,
from the strides of :class:`~bootperc.hamming.HammingSpace`.  Edge seeds
are normalized (min, max) pairs.  No seed builds a graph: the geometry
comes from ``HammingSpace`` and the size caps from the CSR slot cap.

The membership test of the inner cut, which involves the weight
delta = (d-2)/(d-1), is multiplied through by d-1 and done in integers:
the strict inequality sits exactly on boundary lattice points and
floating point would misclassify them.
"""

from __future__ import annotations

from itertools import combinations, filterfalse
from math import comb
from typing import TYPE_CHECKING, Iterator

from bootperc import formulas
from bootperc.errors import (
    DEFAULT_SLOT_CAP,
    PreconditionError,
    ResourceLimitError,
    check_threshold,
)
from bootperc.hamming import HammingSpace

if TYPE_CHECKING:
    from bootperc.graphs import Edge

Point = tuple[int, ...]
Region = frozenset[Point]

# Building a corner set peaks at 50-240 bytes per counted point (measured
# for d = 2..19: the region's point tuples and the final set of ids, which
# dominates; reflecting ids from the strides, not point tuples, left that
# peak in place), as much as 3-16 CSR slots, so the CSR slot cap admits
# a sixteenth as many points: at most about 300 MB.  Building an edge seed
# peaks at 80-170 bytes per edge (measured near the cap on the line seed
# and on star seeds of dimension 1, 2, 3, 9 and 20: the edge tuples and
# the set), so the same cap bounds its edges: at most about 210 MB.
_SEED_CAP = DEFAULT_SLOT_CAP // 16


def vertex_seed_dim2(n: int, r: int) -> frozenset[int]:
    """Minimum percolating vertex seed for the two-dimensional Hamming graph.

    Two triangular corner regions: points (x, y) with
    x + (n-1-y) < ceil(r/2)  or  (n-1-x) + y < floor(r/2).
    Size is floor((r+1)^2/4) and the set percolates at threshold r
    whenever n >= ceil(r/2)+1.
    """
    check_threshold(r)
    hi = -(-r // 2)  # ceil(r/2)
    lo = r // 2
    if n <= hi:
        raise PreconditionError(f"need n >= ceil(r/2)+1, got n={n}, r={r}")
    space = HammingSpace(n, 2)
    # a + b < s for the distances a, b to a corner: O(r^2) points, whatever n is
    first = ((a, n - 1 - b) for a in range(hi) for b in range(hi - a))
    second = ((n - 1 - a, b) for a in range(lo) for b in range(lo - a))
    return frozenset(space.encode(p) for corner in (first, second) for p in corner)


def _binomial_exceeds(m: int, k: int, cap: int) -> bool:
    """Whether C(m, k) > cap, in O(log cap) steps however large m and k are."""
    k = min(k, m - k)
    c = 1 if k >= 0 else 0
    for i in range(1, k + 1):  # c = C(m-k+i-1, i-1) >= 2^(i-1), since m-k >= k
        if c > cap:
            break
        c = c * (m - k + i) // i
    return c > cap


def _too_many_edges(what: str, size: object) -> ResourceLimitError:
    return ResourceLimitError(f"{what} would have {size} edges (cap {_SEED_CAP} edges)")


def _check_corner_args(n: int, r: int, d: int) -> None:
    check_threshold(r)
    if d < 2:
        raise PreconditionError("corner constructions need d >= 2")
    if n <= r:
        raise PreconditionError(f"need n >= r+1, got n={n}, r={r}")
    # The corner set reflects the C(s-1+d, d) points of the simplex region
    # to 2^(d-1) corners; a huge d is refused even when the region is empty.
    # Counted before anything is enumerated; 2^(d-1) and the binomial are
    # computed only when 2^(d-1) can be under the cap.
    s = -(-r // 2)
    few_masks = d <= _SEED_CAP.bit_length()
    if not few_masks or 2 ** (d - 1) * max(1, comb(s - 1 + d, d)) > _SEED_CAP:
        raise ResourceLimitError(
            f"corner construction would enumerate 2^{d - 1} corner masks times "
            f"C({s - 1 + d},{d}) region points (cap {_SEED_CAP} points)"
        )


def _simplex_points(n: int, r: int, d: int) -> list[Point]:
    """Points of [0,n)^d with coordinate sum <= ceil(r/2)-1, unchecked."""
    s = -(-r // 2)
    points: list[Point] = []

    def extend(prefix: list[int], remaining: int, coords_left: int) -> None:
        if coords_left == 0:
            points.append(tuple(prefix))
            return
        for x in range(min(remaining, n - 1) + 1):
            prefix.append(x)
            extend(prefix, remaining - x, coords_left - 1)
            prefix.pop()

    if s >= 1:
        extend([], s - 1, d)
    return points


def _in_cut(r: int, d: int):
    """Membership in the inner cut: x_1 + x_2 + delta*(x_3+...+x_d) < delta*(ceil(r/2)-1).

    With delta = (d-2)/(d-1), multiplied through by d-1 > 0 into integers:
    (d-1)(x_1+x_2) + (d-2)(x_3+...+x_d) < (d-2)(ceil(r/2)-1).
    """
    bound = (d - 2) * (-(-r // 2) - 1)
    return lambda p: (d - 1) * (p[0] + p[1]) + (d - 2) * sum(p[2:]) < bound


def simplex_region(n: int, r: int, d: int) -> Region:
    """Points of [0,n)^d with coordinate sum <= ceil(r/2)-1."""
    _check_corner_args(n, r, d)
    return frozenset(_simplex_points(n, r, d))


def carved_region(n: int, r: int, d: int) -> Region:
    """Simplex region minus the inner cut, from one enumeration of the simplex."""
    _check_corner_args(n, r, d)
    return frozenset(filterfalse(_in_cut(r, d), _simplex_points(n, r, d)))


def _corner_union(region: Region, n: int, d: int) -> frozenset[int]:
    """Ids of the region reflected to the 2^(d-1) corners t in {0,1}^d with t_1 = t_2.

    Reflecting x_i to n-1-x_i adds (n-1-2x_i)*s_i to the id sum x_i*s_i:
    x_1 and x_2 together, then each later coordinate alone, doubling the ids.
    """
    strides = HammingSpace(n, d).strides
    out: set[int] = set()
    for p in region:
        shifts = [(n - 1 - 2 * x) * s for x, s in zip(p, strides)]
        ids = [sum(x * s for x, s in zip(p, strides))]
        for shift in [shifts[0] + shifts[1], *shifts[2:]]:
            ids += [i + shift for i in ids]
        out.update(ids)
    return frozenset(out)


def simplex_corner_set(n: int, r: int, d: int) -> frozenset[int]:
    """The simplex region reflected to every corner with t_1 = t_2.

    Percolates the Hamming graph on [0,n)^d at threshold r for n >= r+1.
    """
    return _corner_union(simplex_region(n, r, d), n, d)


def carved_corner_set(n: int, r: int, d: int) -> frozenset[int]:
    """The carved region reflected to every corner with t_1 = t_2.

    A subset of :func:`simplex_corner_set` that still percolates at
    threshold r for n >= r+1; for d = 2 the cut is empty and the two
    sets coincide.
    """
    return _corner_union(carved_region(n, r, d), n, d)


def star_seed_hamming(n: int, r: int, d: int) -> frozenset[Edge]:
    """Recursive star-process seed on the Hamming graph of dimension d.

    Layer t (last coordinate = t) carries the dimension d-1 seed for
    threshold r-t.  Unrolled, layer tau = (t_2..t_d) carries the edges
    {i*s_1 + tau, j*s_1 + tau}, i < j <= k = r - (t_2+...+t_d), for the
    stride s_1 of the first coordinate.  Total size is C(d+r, d+1),
    checked against the seed cap before any edge is built.  A stack walks
    the layers, so d is not bounded by the recursion limit.  For d = 1
    this is every edge of K_n inside {0..r}.
    """
    check_threshold(r)
    if d < 1:
        raise PreconditionError("star seed needs d >= 1")
    if n <= r:
        raise PreconditionError(f"need n >= r+1, got n={n}, r={r}")
    if _binomial_exceeds(d + r, d + 1, _SEED_CAP):
        raise _too_many_edges("star seed", f"C({d + r},{d + 1})")
    if r == 0:
        return frozenset()  # whatever d is: no stride is computed
    strides = HammingSpace(n, d).strides

    def edges() -> Iterator[Edge]:
        # (id of tau, k, first coordinate tau may still raise): each tau once
        layers = [(0, r, 1)]
        while layers:
            tau, k, low = layers.pop()
            if k > 1:
                layers += [(tau + s, k - 1, c) for c, s in enumerate(strides[low:], low)]
            yield from combinations([i * strides[0] + tau for i in range(k + 1)], 2)

    return frozenset(edges())


def line_seed(n: int, r: int) -> frozenset[Edge]:
    """Seed for the line process on the complete graph, of minimum size.

    Vertex i < ceil(r/2) is joined to the last ceil(r/2)-i vertices
    {n-1, ..., n-(ceil(r/2)-i)}; for even r the pairs
    (u, u+1), u = n-1-r/2, n+1-r/2, ... < n-1, are added; n >= ceil(r/2)+2
    keeps each pair in [0, n), smaller end first.  The size, read from
    :func:`~bootperc.formulas.min_seed_line_complete`, is checked against
    the seed cap before any edge is built, and against the built seed.
    """
    check_threshold(r)
    h = -(-r // 2)
    if n < h + 2:
        raise PreconditionError(f"need n >= ceil(r/2)+2, got n={n}, r={r}")
    size = formulas.min_seed_line_complete(n, r)
    if size > _SEED_CAP:
        raise _too_many_edges("line seed", size)
    edges = {(i, n - j) for i in range(h) for j in range(1, h - i + 1)}
    if r % 2 == 0:
        edges |= {(u, u + 1) for u in range(n - 1 - r // 2, n - 1, 2)}
    if len(edges) != size:
        raise AssertionError("line seed size disagrees with its closed form")
    return frozenset(edges)
