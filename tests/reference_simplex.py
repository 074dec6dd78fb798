"""Weighted lattice-simplex counts, kept for the tests.

The number of nonnegative integer points under a weighted budget, by
bounded enumeration, and a closed-form two-sided estimate of it.  With
unit weights and budget s-1 the count is the size of the simplex
region behind the corner constructions, which the tests check.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Sequence

from bootperc.errors import PreconditionError, ResourceLimitError

RationalLike = int | Fraction


def count_weighted_simplex(
    a: Sequence[RationalLike], b: RationalLike, max_count: int = 10_000_000
) -> int:
    """Exact number of nonnegative integer solutions of a_1 x_1 + ... + a_k x_k <= b.

    Bounded enumeration over exact rationals; raises when the count
    would exceed ``max_count``.
    """
    weights = [Fraction(x) for x in a]
    if not weights or any(w <= 0 for w in weights):
        raise PreconditionError("all weights must be positive")
    budget = Fraction(b)
    count = 0

    def walk(i: int, remaining: Fraction) -> None:
        nonlocal count
        if i == len(weights):
            count += 1
            if count > max_count:
                raise ResourceLimitError(f"solution count exceeds {max_count}")
            return
        w = weights[i]
        x = 0
        while w * x <= remaining:
            walk(i + 1, remaining - w * x)
            x += 1

    if budget >= 0:
        walk(0, budget)
    return count


def weighted_simplex_bounds(
    a: Sequence[RationalLike], b: RationalLike
) -> tuple[Fraction, Fraction]:
    """Two-sided closed-form estimate for :func:`count_weighted_simplex`.

    (b^k, (a_1+...+a_k+b)^k) / (k! a_1...a_k); the lower side requires
    b >= min(a).
    """
    weights = [Fraction(x) for x in a]
    if not weights or any(w <= 0 for w in weights):
        raise PreconditionError("all weights must be positive")
    budget = Fraction(b)
    if budget < min(weights):
        raise PreconditionError("bounds require b >= min(a)")
    k = len(weights)
    denom = factorial(k)
    for w in weights:
        denom *= w
    return budget**k / denom, (sum(weights) + budget) ** k / denom
