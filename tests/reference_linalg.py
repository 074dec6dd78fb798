"""The recognized-space computation as it was before the single integer rank.

Test-only reference: dense Fraction matrices, a reduced row echelon
form, a nullspace basis and a full-pivot rank, plus the old two-stage
dimension (a basis of the constraint kernel, then the rank of its image
under edge evaluation).  Kept unchanged so that ``bootperc.linalg`` and
``bootperc.polymethod`` can be required to match it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from bootperc.graphs import Graph
from bootperc.polymethod import DimReport

Row = list[Fraction]
Matrix = list[Row]
Coloring = Sequence[Fraction | int]  # colors[e] colors edge e


def _copy(rows: Sequence[Sequence[Fraction | int]]) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def mat_rank(rows: Sequence[Sequence[Fraction | int]]) -> int:
    """Rank by Gaussian elimination with full pivoting.

    The pivot is the largest-magnitude entry of the remaining submatrix;
    row and column swaps do not change the rank.
    """
    m = _copy(rows)
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    while rank < nrows and rank < ncols:
        best, bi, bj = Fraction(0), -1, -1
        for i in range(rank, nrows):
            for j in range(rank, ncols):
                if abs(m[i][j]) > best:
                    best, bi, bj = abs(m[i][j]), i, j
        if bi < 0:
            break
        m[rank], m[bi] = m[bi], m[rank]
        if bj != rank:
            for row in m:
                row[rank], row[bj] = row[bj], row[rank]
        pivot = m[rank][rank]
        for i in range(rank + 1, nrows):
            factor = m[i][rank] / pivot
            if factor:
                for j in range(rank, ncols):
                    m[i][j] -= factor * m[rank][j]
        rank += 1
    return rank


def rref(rows: Sequence[Sequence[Fraction | int]]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the pivot column indices."""
    m = _copy(rows)
    if not m or not m[0]:
        return m, []
    nrows, ncols = len(m), len(m[0])
    pivots: list[int] = []
    pr = 0
    for pc in range(ncols):
        best, bi = Fraction(0), -1
        for i in range(pr, nrows):
            if abs(m[i][pc]) > best:
                best, bi = abs(m[i][pc]), i
        if bi < 0:
            continue
        m[pr], m[bi] = m[bi], m[pr]
        pivot = m[pr][pc]
        m[pr] = [x / pivot for x in m[pr]]
        for i in range(nrows):
            if i != pr and m[i][pc]:
                factor = m[i][pc]
                m[i] = [a - factor * b for a, b in zip(m[i], m[pr])]
        pivots.append(pc)
        pr += 1
        if pr == nrows:
            break
    return m, pivots


def nullspace(rows: Sequence[Sequence[Fraction | int]], ncols: int) -> list[Row]:
    """Basis of the right nullspace of a matrix with ``ncols`` columns.

    ``rows`` may be empty, in which case the basis is the standard one.
    One basis vector per free column, in ascending free-column order.
    """
    if not rows:
        basis = []
        for j in range(ncols):
            v = [Fraction(0)] * ncols
            v[j] = Fraction(1)
            basis.append(v)
        return basis
    if any(len(row) != ncols for row in rows):
        raise ValueError("row length does not match ncols")
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    basis = []
    for j in free:
        v = [Fraction(0)] * ncols
        v[j] = Fraction(1)
        for row_idx, pc in enumerate(pivots):
            v[pc] = -reduced[row_idx][j]
        basis.append(v)
    return basis


def _edge_generators(
    g: Graph, coloring: Coloring, r: int
) -> tuple[list[list[Fraction]], int, int]:
    """Spanning vectors of the recognized space plus constraint-matrix shape.

    Returns (rows, constraint_rows, constraint_cols) where each row
    lists the recognized function's values along ``g.edge_list()``, one
    row per kernel basis vector.
    """
    edges = g.edge_list()
    colors = dict(zip(edges, coloring))
    ncols = g.vertex_count * r
    powers = []  # by edge id
    for e in edges:
        lam = colors[e]
        row = [Fraction(1)]
        for _ in range(r - 1):
            row.append(row[-1] * lam)
        powers.append(row)
    constraint: list[list[Fraction]] = []
    for (u, v), pows in zip(edges, powers):
        row = [Fraction(0)] * ncols
        for k, p in enumerate(pows):
            row[u * r + k] += p
            row[v * r + k] -= p
        constraint.append(row)
    kernel = nullspace(constraint, ncols)
    image = []
    for vec in kernel:
        image.append(
            [
                sum(vec[u * r + k] * p for k, p in enumerate(pows))
                for (u, _), pows in zip(edges, powers)
            ]
        )
    return image, len(constraint), ncols


def recognized_space_report(g: Graph, coloring: Coloring, r: int) -> DimReport:
    """The old two-stage report: kernel basis, then the rank of its image.

    The coloring is assumed proper; callers check it.
    """
    if r <= 0:
        return DimReport(0, 0, 0, 0)
    image, nrows, ncols = _edge_generators(g, coloring, r)
    return DimReport(mat_rank(image), nrows, ncols, len(image))
