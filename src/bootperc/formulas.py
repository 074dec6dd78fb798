"""Closed-form minimum seed sizes and sandwich bounds.

Bounds are returned as exact rationals; callers format decimals.
"""

from __future__ import annotations

from math import comb, factorial
from typing import TYPE_CHECKING

from bootperc.errors import PreconditionError, check_int, check_threshold

if TYPE_CHECKING:
    from fractions import Fraction


def min_seed_hamming_dim2(n: int, r: int) -> int:
    """Minimum percolating vertex seed size on the 2-dimensional Hamming graph.

    n^2 when n <= ceil(r/2) (every degree is below r, nothing ever
    activates), floor((r+1)^2/4) otherwise.
    """
    check_int("n", n)
    check_threshold(r)
    if n < 1:
        raise PreconditionError("need n >= 1")
    if n <= -(-r // 2):  # ceil(r/2)
        return n * n
    return (r + 1) ** 2 // 4


def weak_saturation_hamming(n: int, r: int, d: int) -> int:
    """Minimum star-process seed size on the Hamming graph: C(d+r, d+1).

    Proven only for n >= r+1; smaller n is rejected rather than
    extrapolated.
    """
    check_int("n", n)
    check_int("d", d)
    check_threshold(r)
    if d < 1 or r < 1:
        raise PreconditionError("need d >= 1 and r >= 1")
    if n <= r:
        raise PreconditionError(f"formula requires n >= r+1, got n={n}, r={r}")
    return comb(d + r, d + 1)


def min_seed_line_complete(n: int, r: int) -> int:
    """Minimum line-process seed size on the complete graph.

    floor((r+2)^2/8) when n >= ceil(r/2)+2; otherwise the line graph is
    too sparse to percolate at all and the answer is C(n, 2).
    """
    check_int("n", n)
    check_threshold(r)
    if n < 2:
        raise PreconditionError("need n >= 2")
    if n >= -(-r // 2) + 2:  # ceil(r/2) + 2
        return (r + 2) ** 2 // 8
    return comb(n, 2)


def min_seed_hamming_bounds(n: int, r: int, d: int) -> tuple[Fraction, Fraction]:
    """Exact sandwich bounds for the minimum vertex seed on the Hamming graph.

    lower = wsat/r, the paper's argument, with wsat = C(d+r, d+1) read
    from :func:`weak_saturation_hamming`; upper = ((r+2d-1)^d - delta^2
    (r-2)^d)/(2 d!) with delta = (d-2)/(d-1).  Valid for n >= r+1,
    d >= 2, r >= 1.
    """
    check_int("n", n)
    check_int("d", d)
    check_threshold(r)
    if d < 2 or r < 1:
        raise PreconditionError("need d >= 2 and r >= 1")
    if n <= r:
        raise PreconditionError(f"bounds require n >= r+1, got n={n}, r={r}")
    from fractions import Fraction

    delta = Fraction(d - 2, d - 1)
    lower = Fraction(weak_saturation_hamming(n, r, d), r)
    upper = Fraction((r + 2 * d - 1) ** d - delta**2 * (r - 2) ** d, 2 * factorial(d))
    assert lower <= upper
    return lower, upper
