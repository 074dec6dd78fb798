"""The explicit witness family on the complete graph, kept for the tests.

``bootperc.polymethod`` computes the dimension of the recognized space
with one exact rank.  On K_n with n >= r+1 that dimension is C(r+1, 2),
and this family certifies it a second way: one recognized edge function
per edge inside {0..r}, equal to 1 on its own edge and 0 on every other
edge there, so the C(r+1, 2) functions are linearly independent.

Each vertex polynomial is kept factored, as a scale and its roots, so
its degree is the number of roots and no polynomial arithmetic is
needed: its value at x is scale * prod(x - root).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, prod
from typing import NamedTuple

from bootperc.errors import PreconditionError
from bootperc.graphs import Edge, Graph, make_complete
from bootperc.polymethod import first_primes

# (scale, roots): the polynomial scale * prod(x - root), of degree len(roots)
Factored = tuple[Fraction, tuple[int, ...]]
ZERO: Factored = (Fraction(0), ())


def evaluate(p: Factored, x: int) -> Fraction:
    scale, roots = p
    return scale * prod(x - root for root in roots)


class EdgeWitness(NamedTuple):
    """One recognized edge function built for a distinguished edge.

    ``polynomials[i]`` recognizes the function at vertex i; ``values``
    maps every edge to the function value there.  The function is 1 on
    its own edge and 0 on every other edge inside {0..r}.
    """

    edge: Edge
    polynomials: tuple[Factored, ...]
    values: dict[Edge, Fraction]


def complete_graph_witnesses(n: int, r: int) -> list[EdgeWitness]:
    """The C(r+1, 2) independent recognized functions on the complete graph.

    For each edge uv inside {0..r} the vertex polynomials are, with
    gamma the first n primes, c(ij) = g_i g_j and k running over
    {0..r} minus {u, v}:

      0                                                  at other i <= r,
      prod (x - g_i g_k) / (g_u g_v - g_i g_k)           at i in {u, v},
      prod (x - g_i g_k)(g_i - g_k)
           / (g_i (g_u - g_k)(g_v - g_k))                at i > r.

    Every polynomial has at most r-1 roots.  Mutual agreement on every
    edge and the vanishing pattern are verified; a failure raises
    AssertionError.
    """
    if r < 1:
        raise PreconditionError("witnesses need r >= 1")
    if n <= r:
        raise PreconditionError(f"need n >= r+1, got n={n}, r={r}")
    gammas = first_primes(n)
    edges = make_complete(n).edge_list()
    witnesses: list[EdgeWitness] = []
    for u, v in combinations(range(r + 1), 2):
        gu, gv = gammas[u], gammas[v]
        others = [gammas[k] for k in range(r + 1) if k not in (u, v)]
        polys: list[Factored] = []
        for i, gi in enumerate(gammas):
            if i in (u, v):
                scale = Fraction(1, prod(gu * gv - gi * gk for gk in others))
            elif i <= r:
                polys.append(ZERO)
                continue
            else:
                scale = prod(
                    (Fraction(gi - gk, gi * (gu - gk) * (gv - gk)) for gk in others),
                    start=Fraction(1),
                )
            polys.append((scale, tuple(gi * gk for gk in others)))
        values: dict[Edge, Fraction] = {}
        for i, j in edges:
            lam = gammas[i] * gammas[j]
            left = evaluate(polys[i], lam)
            if left != evaluate(polys[j], lam):
                raise AssertionError(f"recognition failed on edge ({i},{j}) for witness ({u},{v})")
            values[(i, j)] = left
        for e in combinations(range(r + 1), 2):
            if values[e] != (1 if e == (u, v) else 0):
                raise AssertionError(f"witness ({u},{v}) has value {values[e]} on {e}")
        witnesses.append(EdgeWitness((u, v), tuple(polys), values))
    assert len(witnesses) == comb(r + 1, 2)
    return witnesses


def witness_value_matrix(witnesses: list[EdgeWitness], g: Graph) -> list[list[Fraction]]:
    """Witness values as matrix rows aligned with ``g.edge_list()``."""
    edges = g.edge_list()
    return [[w.values[e] for e in edges] for w in witnesses]
