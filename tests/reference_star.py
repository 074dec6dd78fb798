"""The star seed on K_n^d built the way the paper states it, kept for the tests.

``bootperc.constructions.star_seed_hamming`` walks the layers of the
unrolled recursion from the strides of ``HammingSpace``.  This module
builds the seed bottom-up, one dimension at a time: layer t of the last
coordinate carries the dimension d-1 seed for threshold r-t, its vertex
a placed at index a*n + t.  The tests require equal seeds.
"""

from __future__ import annotations

from bootperc.errors import PreconditionError, check_threshold
from bootperc.graphs import Edge


def complete_seed(r: int) -> list[Edge]:
    """All edges of the complete graph with both endpoints in {0..r}."""
    return [(i, j) for i in range(r) for j in range(i + 1, r + 1)]


def star_seed_hamming(n: int, r: int, d: int) -> frozenset[Edge]:
    """The paper's recursive star seed: C(d+r, d+1) edges, unguarded."""
    check_threshold(r)
    if d < 1:
        raise PreconditionError("star seed needs d >= 1")
    if n <= r:
        raise PreconditionError(f"need n >= r+1, got n={n}, r={r}")
    if d == 1 or r == 0:
        # d = 1 needs no seeds below threshold r; r = 0 has the empty seed in any d
        return frozenset(complete_seed(r))
    # seeds[k]: the seed for threshold k, k = 0..r, of the current dimension
    seeds = [complete_seed(k) for k in range(r + 1)]

    def lift(k: int) -> list[Edge]:
        # vertex a of the lower-dimensional layer t sits at index a*n + t
        return [(a * n + t, b * n + t) for t in range(k) for a, b in seeds[k - t]]

    for _ in range(d - 2):
        seeds = [lift(k) for k in range(r + 1)]
    return frozenset(lift(r))
