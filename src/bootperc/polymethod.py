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

A coloring is a sequence indexed by the graph's edge ids: ``colors[e]``
colors the edge (``g.tails[e]``, ``g.heads[e]``).  Colorings here are
product-form: vertex generators gamma_i are primes and
c(ij) = gamma_i * gamma_j.  Primes make every needed distinctness
property certain (unique factorization) instead of probabilistic.  On
K_n^d the coloring is lifted coordinate by coordinate: each coordinate
colors its edges from n primes of its own, larger than those of the
coordinates before it, and ``_hamming_coloring`` reads the color of an
edge off the strides of :class:`HammingSpace`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from bootperc.errors import PreconditionError, ResourceLimitError, check_int, check_threshold
from bootperc.graphs import Graph, make_hamming
from bootperc.hamming import HammingSpace
from bootperc.linalg import mat_rank

if TYPE_CHECKING:
    from collections.abc import Sequence
    from fractions import Fraction


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
    out: list[int] = []
    candidate = 2
    while len(out) < k:
        if _is_prime(candidate):
            out.append(candidate)
        candidate += 1
    return out


# ---------------------------------------------------------------------------
# colorings

def _check_rational(values: Sequence, what: str) -> None:
    """Refuse a value that is not an int or a Fraction: nothing here becomes a float."""
    if not all(isinstance(x, int) for x in values):
        from fractions import Fraction  # int values, the common case, never need it

        for x in values:
            if not isinstance(x, (int, Fraction)):
                raise PreconditionError(f"{what} {x!r} is not an int or a Fraction")


def is_proper_coloring(g: Graph, colors: Sequence[Fraction | int]) -> bool:
    """True iff there is one color per edge id and incident edges get distinct colors.

    Raises PreconditionError for a color that is not an int or a Fraction.
    """
    _check_rational(colors, "color")
    if len(colors) != g.edge_count:
        return False
    offsets, slot_edges = g.offsets, g.slot_edges
    for v in range(g.vertex_count):
        row = slot_edges[offsets[v] : offsets[v + 1]]
        if len({colors[e] for e in row}) < len(row):
            return False
    return True


def product_coloring_on(g: Graph, gammas=None) -> list[Fraction | int]:
    """Color each edge ij with gamma_i*gamma_j; primes by default.

    Distinct nonzero generators make incident colors distinct on any
    graph (gamma_u*gamma_v = gamma_u*gamma_w only if gamma_v = gamma_w),
    so the coloring is proper; with primes all C(n,2) pairwise products
    are distinct too.  A generator that is not an int or a Fraction is a
    PreconditionError.
    """
    if gammas is None:
        gammas = first_primes(g.vertex_count)
    gammas = list(gammas)
    if len(gammas) != g.vertex_count:
        raise PreconditionError("need one generator per vertex")
    _check_rational(gammas, "generator")
    if len(set(gammas)) != len(gammas) or any(x == 0 for x in gammas):
        raise PreconditionError("generators must be distinct and nonzero")
    return [gammas[u] * gammas[v] for u, v in zip(g.tails, g.heads)]


def _hamming_coloring(g: Graph, space: HammingSpace) -> list[int]:
    """The prime coloring of K_n^d lifted coordinate by coordinate, for g = make_hamming(space).

    Coordinate i, most significant first, owns the primes P[i*n : (i+1)*n]
    of P = ``first_primes(d*n)``.  An edge whose coordinate i changes from
    digit a to digit b gets P[i*n+a] * P[i*n+b]: the product coloring of
    K_n on coordinate 0, and on each later coordinate n primes larger than
    every prime already in use.  The changed coordinate of edge uv is the
    first whose stride divides v - u = (b - a) * stride, as 0 < b - a < n.
    """
    n, strides = space.n, space.strides
    primes = first_primes(len(strides) * n)
    colors = []
    for u, v in zip(g.tails, g.heads):
        i, s = next((i, s) for i, s in enumerate(strides) if (v - u) % s == 0)
        colors.append(primes[i * n + u // s % n] * primes[i * n + v // s % n])
    return colors


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


def _constraint_rows(g: Graph, colors: Sequence[Fraction | int], r: int) -> list[dict[int, int]]:
    """C as sparse primitive integer rows: P_u(c) - P_v(c) for each edge uv, by edge id.

    Column k*|V| + u holds the coefficient of x^k in P_u.  A color a/b
    in lowest terms contributes c^k scaled by b^(r-1), that is
    ±a^k * b^(r-1-k); ints have denominator 1.  So the row is integral,
    and primitive as b^(r-1) and a^(r-1) are coprime (a zero color gives
    entries ±1); ``mat_rank`` divides out no content first, so its entry
    sizes rely on this.  It eliminates columns in increasing order, so
    the constant terms go first: they form the graph's signed incidence
    matrix, whose unit pivots add no entry growth, and this about halves
    the elimination time on Hamming graphs.
    """
    n = g.vertex_count
    rows = []
    for u, v, lam in zip(g.tails, g.heads, colors):
        a, b = lam.numerator, lam.denominator
        row = {}
        for k in range(r):
            x = a**k * b ** (r - 1 - k)
            row[k * n + u] = x
            row[k * n + v] = -x
        rows.append(row)
    return rows


def recognized_space_report(
    g: Graph, colors: Sequence[Fraction | int], r: int, cost_cap: int = DEFAULT_COST_CAP
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
    checked before any row is built, then each color's type and the
    properness, by :func:`is_proper_coloring`.
    """
    check_int("threshold r", r)
    if r <= 0:
        return DimReport(0, 0, 0, 0)
    _check_cost(g.vertex_count, g.edge_count, r, cost_cap)
    if not is_proper_coloring(g, colors):
        raise PreconditionError("coloring is not proper")
    ncols = g.vertex_count * r
    offsets = g.offsets
    stacked_rank = sum(min(offsets[v + 1] - offsets[v], r) for v in range(g.vertex_count))
    rank = mat_rank(_constraint_rows(g, colors, r))
    return DimReport(stacked_rank - rank, g.edge_count, ncols, ncols - rank)


def recognized_space_dim_hamming(
    n: int, r: int, d: int, cost_cap: int = DEFAULT_COST_CAP
) -> int:
    """Recognized-space dimension on the Hamming graph with the lifted coloring.

    Builds K_n^d with ``make_hamming`` and colors it with
    ``_hamming_coloring``.  The rank holds for any n; it equals C(d+r, d+1)
    for n >= r+1, the range of :func:`~bootperc.formulas.weak_saturation_hamming`,
    and no closed form is claimed for n <= r.  The cost guard is checked
    from (n, d) before the graph is built: an n^d past the cap already
    costs more than the cap.
    """
    check_threshold(r)
    if d < 1 or r < 1:
        raise PreconditionError("need d >= 1 and r >= 1")
    space = HammingSpace(n, d)
    size = space.capped_size(cost_cap)
    _check_cost(size, size * d * (n - 1) // 2, r, cost_cap)
    g = make_hamming(space)
    return recognized_space_report(g, _hamming_coloring(g, space), r, cost_cap).dim
