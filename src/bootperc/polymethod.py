"""Exact lower bounds on star-process seeds via recognizing polynomials.

An edge function phi is *recognized* by per-vertex polynomials {P_v} of
degree at most r-1 when P_u(c(uv)) = P_v(c(uv)) = phi(uv) for every
edge, where c is a proper edge coloring.  The recognized functions form
a vector space whose dimension lower-bounds the minimum star-process
seed size.  With r coefficients per vertex as the variables, C the
constraint matrix (one row P_u(c) - P_v(c) per edge uv) and E the
evaluation matrix (one row P_u(c) per edge), the space is E(ker C) and

    dim = rank[C;E] - rank(C) = sum over vertices v of min(deg v, r) - rank(C).

The first equality is rank-nullity on ker C; the second holds because
each vertex contributes a Vandermonde block on the distinct colors of
its edges (proof in ``recognized_space_report``).  So the whole report
is one exact integer rank, of C, computed by ``bootperc.linalg``.

Colorings here are product-form: vertex generators gamma_i are primes
and c(ij) = gamma_i * gamma_j.  Primes make every needed distinctness
property certain (unique factorization) instead of probabilistic, and
lifting to a Cartesian product just takes fresh primes larger than any
prime factor already in use.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import NamedTuple

from bootperc.errors import PreconditionError, ResourceLimitError
from bootperc.graphs import Edge, Graph, cartesian_product, make_complete, normalize_edge
from bootperc.linalg import mat_rank

Poly = tuple[Fraction, ...]


# ---------------------------------------------------------------------------
# primes

def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m % 2 == 0:
        return m == 2
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


def first_primes(k: int) -> list[int]:
    return primes_above(1, k)


def primes_above(floor: int, k: int) -> list[int]:
    """The first k primes strictly greater than ``floor``."""
    out: list[int] = []
    candidate = max(floor, 1) + 1
    while len(out) < k:
        if _is_prime(candidate):
            out.append(candidate)
        candidate += 1
    return out


def _max_prime_factor(value: Fraction | int) -> int:
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


# ---------------------------------------------------------------------------
# polynomials (coefficient tuples, low degree first)

def poly_strip(coeffs) -> Poly:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_degree(p: Poly) -> int:
    """Degree after stripping trailing zeros; -1 for the zero polynomial."""
    return len(poly_strip(p)) - 1


def poly_eval(p: Poly, x: Fraction | int) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return tuple(out)


def poly_scale(p: Poly, s: Fraction | int) -> Poly:
    return tuple(Fraction(c) * s for c in p)


# ---------------------------------------------------------------------------
# colorings

class EdgeColoring(NamedTuple):
    """Edge -> rational color map, optionally with product-form generators.

    When ``generators`` is present, c(ij) = generators[i]*generators[j]
    for the fiber/base edges it was built from.
    """

    colors: dict[Edge, Fraction | int]
    generators: tuple[int, ...] | None = None

    def color(self, u: int, v: int) -> Fraction | int:
        e = normalize_edge(u, v)
        try:
            return self.colors[e]
        except KeyError:
            raise PreconditionError(f"coloring does not cover edge {e}") from None


def is_proper_coloring(g: Graph, coloring: EdgeColoring) -> bool:
    """True iff incident edges always receive distinct colors."""
    colors = [coloring.color(u, v) for u, v in zip(g.tails, g.heads)]  # by edge id
    offsets, slot_edges = g.offsets, g.slot_edges
    for v in range(g.vertex_count):
        row = slot_edges[offsets[v] : offsets[v + 1]]
        if len({colors[e] for e in row}) < len(row):
            return False
    return True


def product_coloring_on(g: Graph, gammas=None) -> EdgeColoring:
    """Color each edge ij with gamma_i*gamma_j; primes by default.

    Distinct nonzero generators make incident colors distinct on any
    graph; with primes all C(n,2) pairwise products are distinct too.
    """
    if gammas is None:
        gammas = first_primes(g.vertex_count)
    gammas = list(gammas)
    if len(gammas) != g.vertex_count:
        raise PreconditionError("need one generator per vertex")
    if len(set(gammas)) != len(gammas) or any(x == 0 for x in gammas):
        raise PreconditionError("generators must be distinct and nonzero")
    colors = {(u, v): gammas[u] * gammas[v] for u, v in zip(g.tails, g.heads)}
    coloring = EdgeColoring(colors, tuple(gammas) if all(isinstance(x, int) for x in gammas) else None)
    if not is_proper_coloring(g, coloring):
        raise AssertionError("product coloring failed the properness check")
    return coloring


def product_coloring(n: int) -> EdgeColoring:
    """Prime product coloring of the complete graph on n vertices."""
    if n < 2:
        raise PreconditionError("product coloring needs n >= 2")
    return product_coloring_on(make_complete(n))


def lift_coloring(g: Graph, coloring: EdgeColoring, n: int) -> EdgeColoring:
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
    limit = 1
    for value in coloring.colors.values():
        limit = max(limit, _max_prime_factor(value))
    gammas = primes_above(limit, n)
    colors: dict[Edge, Fraction | int] = {}
    for a, b in zip(g.tails, g.heads):
        for j in range(n):
            colors[(a * n + j, b * n + j)] = coloring.colors[(a, b)]
    for i in range(g.vertex_count):
        for j in range(n):
            for k in range(j + 1, n):
                colors[(i * n + j, i * n + k)] = gammas[j] * gammas[k]
    lifted = EdgeColoring(colors, tuple(gammas))
    product = cartesian_product(g, make_complete(n))
    if not is_proper_coloring(product, lifted):
        raise AssertionError("lifted coloring failed the properness check")
    return lifted


# ---------------------------------------------------------------------------
# dimension of the recognized space

class DimReport(NamedTuple):
    dim: int
    constraint_rows: int
    constraint_cols: int
    kernel_dim: int


# Cap on the estimated cost E * (V*r)^2 of ranking C (see _check_cost).
DEFAULT_COST_CAP = 10**9


def _check_cost(vertices: int, edges: int, r: int, cost_cap: int) -> None:
    """Refuse, before any row is built, a rank whose estimated cost exceeds the cap.

    C has E = ``edges`` rows and V*r columns, and its rank is at most
    V*r, so elimination touches at most E * (V*r)^2 cells.  Measured on
    2 cores with Python 3.11 under the prime product coloring (runs of
    0.05 s or more), each unit of that estimate took 8-20 ns on complete
    graphs and 0.1-33 ns on Hamming and line graphs, so the default cap
    of 10^9 stops runs of more than about half a minute.  Entry growth makes Hamming graphs
    with r >= n the exception: H(5,3) with r = 6 took 130 ns per unit.
    Lifted colorings took 0.02-4.6 ns per unit; larger lifts than the
    default admits can pass a larger ``cost_cap``.
    """
    cost = edges * (vertices * r) ** 2
    if cost > cost_cap:
        raise ResourceLimitError(
            f"ranking the constraints of {vertices} vertices, {edges} edges and r={r}"
            f" has estimated cost E*(V*r)^2 = {cost}, over the cap {cost_cap}"
        )


def _constraint_rows(g: Graph, coloring: EdgeColoring, r: int) -> list[dict[int, int]]:
    """C as sparse integer rows: P_u(c) - P_v(c) for each edge uv, by edge id.

    Column k*|V| + u holds the coefficient of x^k in P_u.  A color a/b
    contributes c^k scaled by b^(r-1), that is a^k * b^(r-1-k), so the
    row is integral; ints have denominator 1.  ``mat_rank`` eliminates
    columns in increasing order, so the constant terms go first: they
    form the graph's signed incidence matrix, whose unit pivots add no
    entry growth, and this about halves the elimination time on Hamming
    graphs.
    """
    n = g.vertex_count
    rows = []
    for u, v in zip(g.tails, g.heads):
        lam = coloring.colors[(u, v)]
        a, b = lam.numerator, lam.denominator
        row = {}
        for k in range(r):
            x = a**k * b ** (r - 1 - k)
            row[k * n + u] = x
            row[k * n + v] = -x
        rows.append(row)
    return rows


def recognized_space_report(
    g: Graph, coloring: EdgeColoring, r: int, cost_cap: int = DEFAULT_COST_CAP
) -> DimReport:
    """Dimension of the recognized edge-function space, with rank details.

    For r <= 0 the space is {0} by convention.  With ``ncols`` = r per
    vertex, C the constraint matrix (one row P_u(c) - P_v(c) per edge
    uv) and E the evaluation matrix (one row P_u(c) per edge):

      kernel_dim = ncols - rank(C),
      dim        = rank[C;E] - rank(C),
      rank[C;E]  = sum over vertices v of min(deg v, r).

    The second line holds because the recognized space is the image of
    ker C under E, and dim E(ker C) = dim ker C - dim(ker C ∩ ker E)
    = (ncols - rank C) - (ncols - rank[C;E]).

    For the third, [C;E] has the same row space as the rows P_u(c) and
    P_v(c) taken separately, since P_v(c) = P_u(c) - (P_u(c) - P_v(c)).
    Each of those rows lives in the r columns of one vertex, and the
    rows in v's columns are (1, c, ..., c^(r-1)) for the colors c of the
    edges at v.  The coloring is proper, so those colors are distinct,
    and a Vandermonde matrix on deg v distinct nodes with r columns has
    rank min(deg v, r).  Disjoint blocks add their ranks.

    So one exact rank, of C, gives the whole report.  The cost guard is
    checked before any row is built.
    """
    if r <= 0:
        return DimReport(0, 0, 0, 0)
    _check_cost(g.vertex_count, g.edge_count, r, cost_cap)
    if not is_proper_coloring(g, coloring):
        raise PreconditionError("coloring is not proper")
    ncols = g.vertex_count * r
    offsets = g.offsets
    stacked_rank = sum(min(offsets[v + 1] - offsets[v], r) for v in range(g.vertex_count))
    rank = mat_rank(_constraint_rows(g, coloring, r))
    return DimReport(stacked_rank - rank, g.edge_count, ncols, ncols - rank)


def recognized_space_dim(g: Graph, coloring: EdgeColoring, r: int) -> int:
    return recognized_space_report(g, coloring, r).dim


def recognized_space_dim_hamming(
    n: int, r: int, d: int, cost_cap: int = DEFAULT_COST_CAP
) -> int:
    """Recognized-space dimension on the Hamming graph with the lifted coloring.

    Builds the d-fold product of the complete graph together with the
    iterated lift of the prime product coloring and computes the
    dimension; for n >= r+1 the result equals C(d+r, d+1).  The cost
    guard is checked from (n, d) before the product is built.
    """
    if d < 1 or r < 1:
        raise PreconditionError("need d >= 1 and r >= 1")
    if n <= r:
        raise PreconditionError(f"need n >= r+1, got n={n}, r={r}")
    vertices = 1
    for dim in range(1, d + 1):  # H(n, dim) costs no more than H(n, d): stop before n**d grows
        vertices *= n
        _check_cost(vertices, vertices * dim * (n - 1) // 2, r, cost_cap)
    g = make_complete(n)
    coloring = product_coloring(n)
    for _ in range(d - 1):
        coloring = lift_coloring(g, coloring, n)
        g = cartesian_product(g, make_complete(n))
    return recognized_space_report(g, coloring, r, cost_cap).dim


# ---------------------------------------------------------------------------
# explicit witnesses on the complete graph

class EdgeWitness(NamedTuple):
    """One recognized edge function built for a distinguished edge.

    ``polynomials[i]`` recognizes the function at vertex i; ``values``
    maps every edge to the function value there.  The function is 1 on
    its own edge and 0 on every other edge inside {0..r}.
    """

    edge: Edge
    polynomials: tuple[Poly, ...]
    values: dict[Edge, Fraction]


def complete_graph_witnesses(n: int, r: int) -> list[EdgeWitness]:
    """The C(r+1, 2) independent recognized functions on the complete graph.

    For each edge uv inside {0..r} the vertex polynomials are, with
    gamma the first n primes and k running over {0..r} minus {u, v}:

      0                                                  at other i <= r,
      prod (x - g_i g_k) / (g_u g_v - g_i g_k)           at i in {u, v},
      prod (x - g_i g_k)(g_i - g_k)
           / (g_i (g_u - g_k)(g_v - g_k))                at i > r.

    Degree, mutual agreement on every edge and the vanishing pattern
    are all verified; a failure raises AssertionError.
    """
    if r < 1:
        raise PreconditionError("witnesses need r >= 1")
    if n <= r:
        raise PreconditionError(f"need n >= r+1, got n={n}, r={r}")
    gammas = first_primes(n)
    coloring = product_coloring(n)
    edges = make_complete(n).edge_list()
    witnesses: list[EdgeWitness] = []
    for u in range(r + 1):
        for v in range(u + 1, r + 1):
            others = [k for k in range(r + 1) if k not in (u, v)]
            polys: list[Poly] = []
            for i in range(n):
                if i <= r and i not in (u, v):
                    polys.append(())
                    continue
                p: Poly = (Fraction(1),)
                scale = Fraction(1)
                for k in others:
                    p = poly_mul(p, (Fraction(-gammas[i] * gammas[k]), Fraction(1)))
                    if i in (u, v):
                        scale /= gammas[u] * gammas[v] - gammas[i] * gammas[k]
                    else:
                        scale *= Fraction(
                            gammas[i] - gammas[k],
                            gammas[i] * (gammas[u] - gammas[k]) * (gammas[v] - gammas[k]),
                        )
                polys.append(poly_scale(p, scale))
            for p in polys:
                if poly_degree(p) > r - 1:
                    raise AssertionError("witness polynomial exceeds degree r-1")
            values: dict[Edge, Fraction] = {}
            for i, j in edges:
                lam = coloring.colors[(i, j)]
                left = poly_eval(polys[i], lam)
                right = poly_eval(polys[j], lam)
                if left != right:
                    raise AssertionError(
                        f"recognition failed on edge ({i},{j}) for witness ({u},{v})"
                    )
                values[(i, j)] = left
            for i in range(r + 1):
                for j in range(i + 1, r + 1):
                    expect = Fraction(1) if (i, j) == (u, v) else Fraction(0)
                    if values[(i, j)] != expect:
                        raise AssertionError(
                            f"witness ({u},{v}) has value {values[(i, j)]} on ({i},{j})"
                        )
            witnesses.append(EdgeWitness((u, v), tuple(polys), values))
    assert len(witnesses) == comb(r + 1, 2)
    return witnesses


def witness_value_matrix(witnesses: list[EdgeWitness], g: Graph) -> list[list[Fraction]]:
    """Witness values as matrix rows aligned with ``g.edge_list()``."""
    edges = g.edge_list()
    return [[w.values[e] for e in edges] for w in witnesses]
