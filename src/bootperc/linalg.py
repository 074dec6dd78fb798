"""Exact rank of a sparse integer matrix.

The polymethod needs one number from linear algebra: the rank of its
constraint matrix C, since the recognized-space dimension is
Σ_v min(deg v, r) − rank(C) (see ``bootperc.polymethod``).  C has two
blocks of r nonzeros per row, so ``mat_rank`` takes sparse integer
rows {column: entry}, built by ``polymethod`` with denominators cleared.

Elimination is fraction-free: a row with entry a in the pivot column
becomes (p/g)·row − (a/g)·pivot, with p the pivot entry and
g = gcd(a, p), and then loses its gcd content, so every entry stays an
exact Python int.  Only the rows holding a nonzero in the pivot column
are touched; a column index finds them.  No float and no modular
shortcut is involved, so the answer is the rank over the rationals.
"""

from __future__ import annotations

from collections.abc import Iterable
from math import gcd

SparseRow = dict[int, int]


def mat_rank(rows: Iterable[SparseRow]) -> int:
    """Rank over the rationals of a matrix given by sparse integer rows.

    Each row maps column index to int entry.  Zeros are dropped from a
    copy of each row, so the caller's rows are never modified.  Columns
    are eliminated in increasing order.  The pivot for a column is the
    shortest row holding it, ties going to the smaller pivot entry,
    which keeps fill-in and entry growth down.
    """
    active: dict[int, SparseRow] = {}
    holders_of: dict[int, set[int]] = {}  # column -> active rows nonzero there
    for i, row in enumerate(rows):
        row = {j: x for j, x in row.items() if x}
        if row:
            active[i] = row
            for j in row:
                holders_of.setdefault(j, set()).add(i)
    rank = 0
    for c in sorted(holders_of):
        holders = holders_of.pop(c)
        if not holders:
            continue
        pi = min(holders, key=lambda i: (len(active[i]), abs(active[i][c]).bit_length(), i))
        pivot = active.pop(pi)
        p = pivot.pop(c)
        for j in pivot:
            holders_of[j].discard(pi)
        rank += 1
        holders.discard(pi)
        for i in holders:
            row = active[i]
            a = row.pop(c)
            g = gcd(a, p)
            keep, take = p // g, a // g
            if keep != 1:
                for j in row:
                    row[j] *= keep
            for j, x in pivot.items():
                y = row.get(j, 0) - take * x
                if y:
                    if j not in row:
                        holders_of[j].add(i)
                    row[j] = y
                elif j in row:
                    del row[j]
                    holders_of[j].discard(i)
            if not row:
                del active[i]
                continue
            content = gcd(*row.values())
            if content > 1:
                for j in row:
                    row[j] //= content
    return rank
